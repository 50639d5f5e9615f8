"""Outside-in tracing of the vtschur layers, installed by the benchmark.

install() replaces the public functions of each layer module, the
arithmetic methods of VTPoly and the accumulator methods of linalg with
timing wrappers.  Every wrapped call adds to its function's call count and
self time (its duration minus the time of the wrapped calls it made); calls
of functions outside LEAF also record a span (name, parent, start, end).
Jobs are spans too, so time no wrapper claims lands in the job's self time
(the benchmark's own code) and not in any layer.

The tracer's own time is kept out of the layers: a caller is charged for
the whole of each wrapped call it makes, bookkeeping and counter hooks
included, and the wrapper's time that still falls in a self time (inside
the callee's timing window, and the call into the wrapper in the caller)
is measured once on a no-op (calibrate()) and taken out per call.

What the wrappers cannot see:

* A function imported by name into another module (`from .matrices import
  ro`, `from .laurent import mono`) is called through that module's own
  reference, which install() does not replace.  So the helpers of
  `matrices` -- name-imported by flags, schur, stab and jparity -- are not
  wrapped at all, and their time lands in their callers; `laurent.mono` is
  counted only where it is called as `laurent.mono`.
* Private helpers (leading underscore) are not wrapped: their time lands in
  the public function that called them, in the same module.
* `lru_cache` wrappers are wrapped from outside, so a cache hit costs one
  traced call; hit ratios come from each original cache's cache_info().
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time

LAYERS = ("laurent", "matrices", "flags", "schur", "hecke", "tensor", "uvt",
          "jparity", "galois", "stab", "linalg", "report", "cli")

# Kernels that run more than 100k times in a run of some workload get call
# counts and self time only, no spans, so the trace fits in memory.  The
# list holds every function seen above 50k calls in a traced pass of any
# workload at the default seed, for margin.
LEAF = frozenset((
    "laurent.VTPoly.__add__", "laurent.VTPoly.__mul__", "laurent.VTPoly.__neg__",
    "laurent.VTPoly.__sub__", "laurent.bar", "laurent.exact_div", "laurent.qbinom",
    "laurent.qbinom_bar", "laurent.qint", "laurent.qint_any",
    "flags.orbit_matrix",
    "schur.chev_shape", "schur.elt_add", "schur.elt_scale", "schur.lmul_braced",
    "schur.mult_chevE", "schur.mult_chevF",
    "tensor.act_A", "tensor.act_B", "tensor.add", "tensor.apply_sym", "tensor.apply_word",
    "tensor.clean", "tensor.op_apply", "tensor.scale",
))

# VTPoly arithmetic; aliases (__radd__ = __add__, __rmul__ = __mul__) are
# rebound to the same wrapper so both spellings count under one name.
VTPOLY_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                  "__mul__", "__rmul__", "__pow__", "shift")

CACHES = {"flags.sum_dim": ("flags", "_sum_dim"), "schur.braced_op": ("schur", "braced_op"),
          "tensor.op_sym": ("tensor", "op_sym"), "tensor.op_T": ("tensor", "op_T")}


class Tracer:
    def __init__(self):
        self.stack = [[0.0, -1]]     # frames: [time of wrapped callees, span id]
        self.spans = []              # [name, parent id, start, end]
        self.agg = {}                # name -> [calls, self seconds]
        self.counts = {}             # extra per-layer counters
        self.caches = {}             # name -> original lru_cache object
        self.qbinom_seen = set()
        # leaf? -> tracer seconds per call (in own self time, in the caller's)
        self.overhead = {True: (0.0, 0.0), False: (0.0, 0.0)}

    # -- installation -----------------------------------------------------------

    def install(self):
        self.calibrate()
        for layer in LAYERS:
            if layer == "matrices":
                continue
            mod = importlib.import_module("vtschur." + layer)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                setattr(mod, attr, self.wrap("%s.%s" % (layer, attr), obj))
        from vtschur import laurent, linalg, report

        wrapped = {}
        for attr in VTPOLY_METHODS:
            fn = vars(laurent.VTPoly)[attr]
            if fn not in wrapped:
                wrapped[fn] = self.wrap("laurent.VTPoly.%s" % fn.__name__, fn)
            setattr(laurent.VTPoly, attr, wrapped[fn])
        for cls in (linalg.ModIncrementalRank, linalg.IncrementalRank):
            cls.add = self.wrap("linalg.%s.add" % cls.__name__, cls.add)
        for attr in ("add", "extend"):
            setattr(report.Report, attr, self.wrap("report.Report.%s" % attr, getattr(report.Report, attr)))

    def calibrate(self, calls=20000, reps=7):
        """Measure the tracer's time per wrapped call, to take it out of the layers.

        A wrapped call costs more than a direct one in two places: inside its
        own timing window (frame, span, stack push) and in its caller (the
        call into the wrapper, the return).  Both are measured on a wrapped
        two-argument no-op (most wrapped calls are binary arithmetic), as
        medians of a few repetitions, and wrap() charges them to no
        function: it takes the first from the function's self time (with the
        no-op's own call, which the caller keeps) and adds the second to the
        caller's callee time.  Hooks and the bookkeeping after the window are
        charged to no function either.
        """
        def noop(a, b):
            return None

        clock = time.perf_counter
        loop = range(calls)
        root = self.stack[0]
        for leaf in (True, False):
            own, caller = [], []
            for _ in range(reps):
                wrapped = self.wrap("bench.calibrate", noop, leaf)
                t0 = clock()
                for _ in loop:
                    noop(1, 2)
                direct = clock() - t0
                root[0] = 0.0
                t0 = clock()
                for _ in loop:
                    wrapped(1, 2)
                total = clock() - t0
                own.append(self.agg.pop("bench.calibrate")[1] / calls)
                caller.append((total - root[0] - direct) / calls)
                del self.spans[:]
            self.overhead[leaf] = (statistics.median(own), max(0.0, statistics.median(caller)))
        root[0] = 0.0

    def wrap(self, name, fn, leaf=None):
        """A timing wrapper for fn; hooks add the counters of HOOKS[name]."""
        stack = self.stack
        spans = self.spans
        agg = self.agg.setdefault(name, [0, 0.0])
        hook = HOOKS.get(name)
        clock = time.perf_counter
        if hasattr(fn, "cache_info"):
            self.caches[name] = fn
        if leaf is None:
            leaf = name in LEAF
        own_s, caller_s = self.overhead[leaf]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            parent = stack[-1]
            if leaf:
                frame = [0.0, parent[1]]
            else:
                frame = [0.0, len(spans)]
                span = [name, parent[1], t0, 0.0]
                spans.append(span)
            stack.append(frame)
            t1 = None
            try:
                result = fn(*args, **kwargs)
                t1 = clock()
                if hook is not None:
                    hook(self, args, result)
            finally:
                if t1 is None:
                    t1 = clock()
                stack.pop()
                agg[0] += 1
                agg[1] += t1 - t0 - frame[0] - own_s
                if not leaf:
                    span[3] = t1
                parent[0] += clock() - t0 + caller_s
            return result

        return traced

    def job(self, name):
        return _JobSpan(self, "job:" + name)

    # -- results ------------------------------------------------------------------

    def count(self, key, k=1):
        self.counts[key] = self.counts.get(key, 0) + k

    def self_s(self, *names):
        """Self time of wrapped functions, tracer time taken out (see calibrate)."""
        return sum(max(0.0, self.agg.get(n, (0, 0.0))[1]) for n in names)

    def calls(self, *names):
        return sum(self.agg.get(n, (0, 0.0))[0] for n in names)

    def layer_self_s(self):
        out = {layer: 0.0 for layer in LAYERS}
        for name in self.agg:
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += self.self_s(name)
        return out

    def cache_stats(self):
        """cache_info() of each original lru_cache, wrapped or not."""
        out = {}
        for key, (layer, attr) in CACHES.items():
            obj = self.caches.get("%s.%s" % (layer, attr))
            if obj is None:
                obj = getattr(importlib.import_module("vtschur." + layer), attr)
            out[key] = obj.cache_info()
        return out

    def overhead_json(self):
        return {kind: {"own": own, "caller": caller}
                for kind, (own, caller) in (("leaf", self.overhead[True]), ("span", self.overhead[False]))}

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans,
                       "aggregates": {k: v for k, v in sorted(self.agg.items()) if v[0]},
                       "counts": self.counts,
                       "tracer_s_per_call": self.overhead_json()}, fh, separators=(",", ":"))


class _JobSpan:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.span = [self.name, -1, 0.0, 0.0]
        self.frame = [0.0, len(tr.spans)]
        tr.spans.append(self.span)
        tr.stack.append(self.frame)
        self.span[2] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        self.span[3] = t1 = time.perf_counter()
        tr.stack.pop()
        agg = tr.agg.setdefault("bench.jobs", [0, 0.0])
        agg[0] += 1
        agg[1] += (t1 - self.span[2]) - self.frame[0]
        return False


# -- counters computed from arguments and results --------------------------------

def _mul_pairs(tr, args, result):
    a, b = args
    tr.count("laurent.mul_term_pairs", len(a.c) * (len(b.c) if hasattr(b, "c") else 1))


def _qbinom(tr, args, result):
    if args in tr.qbinom_seen:
        tr.count("laurent.qbinom_repeats")
    else:
        tr.qbinom_seen.add(args)


def _classify(tr, args, result):
    left, right = args[0], args[1]
    tr.count("flags.pairs_walked", len(left) * len(right))
    tr.count("flags.pairs_kept", sum(len(reps) for reps in result.values()))


def _modular_rank(tr, args, result):
    tr.count("linalg.modular_cells", len(args[0]) * args[1])


def _span_add(tr, args, result):
    tr.count("linalg.span_useful", bool(result))


def _frac_solve(tr, args, result):
    matrix = args[0]
    tr.count("linalg.frac_solve_cells", len(matrix) * (len(matrix[0]) if matrix else 0))


def _chev(tr, args, result):
    tr.count("schur.chev_out_terms", len(result))


HOOKS = {
    "laurent.VTPoly.__mul__": _mul_pairs,
    "laurent.qbinom": _qbinom,
    "flags.classify_pairs": _classify,
    "linalg.modular_rank": _modular_rank,
    "linalg.ModIncrementalRank.add": _span_add,
    "linalg.frac_solve": _frac_solve,
    "schur.mult_chevE": _chev,
    "schur.mult_chevF": _chev,
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr):
    """The per-layer metrics of one traced pass (names as in BENCHMARK.json).

    Times are self seconds, less the tracer's own time per call; a layer a
    workload never enters reads 0 s and 0 calls.
    """
    layers = tr.layer_self_s()
    sec = tr.self_s
    caches = tr.cache_stats()

    def hit_ratio(key):
        info = caches[key]
        return _ratio(info.hits, info.hits + info.misses)

    adds = tr.calls("linalg.ModIncrementalRank.add")
    m = {
        "flags.orbit_matrix_calls": tr.calls("flags.orbit_matrix"),
        "flags.orbit_matrix_self_s": sec("flags.orbit_matrix"),
        "flags.rref_calls": tr.calls("flags.rref"),
        "flags.sum_dim_hit_ratio": hit_ratio("flags.sum_dim"),
        "flags.pairs_walked": tr.counts.get("flags.pairs_walked", 0),
        "flags.pairs_kept_ratio": _ratio(tr.counts.get("flags.pairs_kept", 0),
                                         tr.counts.get("flags.pairs_walked", 0)),
        "flags.enum_self_s": sec("flags.enum_flags_X", "flags.enum_flags_Y", "flags.enum_subspaces"),
        "linalg.modular_rank_calls": tr.calls("linalg.modular_rank"),
        "linalg.modular_rank_self_s": sec("linalg.modular_rank"),
        "linalg.modular_cells": tr.counts.get("linalg.modular_cells", 0),
        "linalg.span_closure_self_s": sec("linalg.mod_span_closure", "linalg.ModIncrementalRank.add"),
        "linalg.span_adds": adds,
        "linalg.span_useful_ratio": _ratio(tr.counts.get("linalg.span_useful", 0), adds),
        "linalg.constraint_rows_self_s": sec("linalg.commutant_constraint_rows", "linalg.scale_to_int"),
        "linalg.mod_mat_self_s": sec("linalg.mod_mat"),
        "linalg.frac_rank_self_s": sec("linalg.frac_rank", "linalg.IncrementalRank.add",
                                         "linalg.commutant_dim_exact"),
        "linalg.frac_solve_calls": tr.calls("linalg.frac_solve"),
        "linalg.frac_solve_cells": tr.counts.get("linalg.frac_solve_cells", 0),
        "linalg.frac_solve_self_s": sec("linalg.frac_solve"),
        "linalg.modular_self_s": sec("linalg.modular_rank", "linalg.mod_span_closure",
                                       "linalg.ModIncrementalRank.add", "linalg.mod_mat"),
        "laurent.mul_calls": tr.calls("laurent.VTPoly.__mul__"),
        "laurent.mul_term_pairs": tr.counts.get("laurent.mul_term_pairs", 0),
        "laurent.mul_self_s": sec("laurent.VTPoly.__mul__"),
        "laurent.add_self_s": sec("laurent.VTPoly.__add__", "laurent.VTPoly.__sub__",
                                    "laurent.VTPoly.__rsub__", "laurent.VTPoly.__neg__"),
        "laurent.exact_div_calls": tr.calls("laurent.exact_div"),
        "laurent.exact_div_self_s": sec("laurent.exact_div"),
        "laurent.qbinom_calls": tr.calls("laurent.qbinom"),
        "laurent.qbinom_repeat_ratio": _ratio(tr.counts.get("laurent.qbinom_repeats", 0),
                                              tr.calls("laurent.qbinom")),
        "laurent.specialize_self_s": sec("laurent.specialize"),
        "schur.chev_calls": tr.calls("schur.mult_chevE", "schur.mult_chevF"),
        "schur.chev_out_terms": tr.counts.get("schur.chev_out_terms", 0),
        "schur.chev_self_s": sec("schur.mult_chevE", "schur.mult_chevF"),
        "schur.op_to_elt_calls": tr.calls("schur.op_to_elt"),
        "schur.op_to_elt_self_s": sec("schur.op_to_elt"),
        "schur.braced_op_hit_ratio": hit_ratio("schur.braced_op"),
        "schur.braced_op_entries": caches["schur.braced_op"].currsize,
        "tensor.op_compose_calls": tr.calls("tensor.op_compose"),
        "tensor.op_compose_self_s": sec("tensor.op_compose", "tensor.op_apply"),
        "tensor.action_calls": tr.calls("tensor.act_E", "tensor.act_F", "tensor.act_A",
                                        "tensor.act_B", "tensor.act_T"),
        "tensor.op_sym_hit_ratio": hit_ratio("tensor.op_sym"),
        "tensor.op_T_hit_ratio": hit_ratio("tensor.op_T"),
        "tensor.specialize_op_self_s": sec("tensor.specialize_op"),
        "hecke.mul_calls": tr.calls("hecke.hecke_mul"),
        "hecke.mul_self_s": sec("hecke.hecke_mul", "hecke.mul_Tw", "hecke.mul_Ti"),
        "stab.fit_self_s": sec("stab.stabilization_check"),
        "stab.stab_mul_calls": tr.calls("stab.stab_mul"),
        "stab.stab_mul_self_s": sec("stab.stab_mul"),
    }
    for layer in LAYERS:
        m["%s.self_s" % layer] = layers[layer]
    m["trace_layer_s"] = sum(layers.values())
    return m
