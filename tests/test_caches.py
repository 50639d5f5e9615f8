"""Every memo in the package is bounded, and the benchmark reads existing ones."""

import ast
import importlib
import pathlib
import pkgutil

import vtschur

TRACER = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def test_every_lru_cache_is_bounded():
    caches = {}
    for info in pkgutil.iter_modules(vtschur.__path__):
        mod = importlib.import_module("vtschur." + info.name)
        for attr, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod.__name__:
                caches["%s.%s" % (info.name, attr)] = obj.cache_info().maxsize
    assert {"flags._products", "flags._flag_code", "schur.braced_op", "schur._row_moves",
            "schur._column_plan", "schur._classify", "schur._diagonals", "schur._sorted_column",
            "schur._arrangements", "tensor.op_sym", "tensor.op_T", "tensor.cartan_weight",
            "tensor.sorted_seqs"} <= set(caches)
    assert not [name for name, size in caches.items() if size is None]


def test_tracer_caches_resolve_to_package_memos():
    # the benchmark tracer reports cache_info() of each CACHES entry; one
    # that names a renamed or deleted memo crashes a traced run
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    (entries,) = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["CACHES"]]
    assert entries
    for key, (layer, attr) in entries.items():
        obj = getattr(importlib.import_module("vtschur." + layer), attr, None)
        assert obj is not None, key
        assert obj.__module__ == "vtschur." + layer, key
        assert callable(getattr(obj, "cache_info", None)) and obj.cache_info().maxsize, key
