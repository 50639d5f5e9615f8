"""Every memo in the package is bounded."""

import importlib
import pkgutil

import vtschur


def test_every_lru_cache_is_bounded():
    caches = {}
    for info in pkgutil.iter_modules(vtschur.__path__):
        mod = importlib.import_module("vtschur." + info.name)
        for attr, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod.__name__:
                caches["%s.%s" % (info.name, attr)] = obj.cache_info().maxsize
    assert {"schur.braced_op", "schur._row_moves", "schur._peel_order", "schur._classify",
            "tensor.op_sym", "tensor.op_T"} <= set(caches)
    assert not [name for name, size in caches.items() if size is None]
