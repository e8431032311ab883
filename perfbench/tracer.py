"""Spans around the calls into each s1cochain module, installed from outside.

The package carries no instrumentation of its own, so the traced run patches
wrappers over the public functions of every module, and over the hot methods
of the `linalg` classes, and removes them afterwards.  A name that another
module imported with `from .linalg import solve` is a second reference to
the same function object; every such reference is patched too, so the call
cannot escape its span.

Each call made inside a span that the benchmark opened (an operation or the
set-up) records one span (name, start, end, parent) in flat arrays; the
benchmark's checks of the answers run outside and leave no trace.  A span's
self time is its duration minus the part of its interval that its child
spans cover (`self_times`).  Counters that need the call's
arguments or result (elimination shapes, nnz, coefficient bits, solve
outcomes, filtered dimensions, document bytes) are taken by hooks that run
after the span has closed.  Each hook run is recorded as a child span of the
caller named `trace.hook`, which belongs to no module, so its cost leaves the
caller's self time; `trace.overhead_ratio` reports the total cost.  The
benchmark's own work inside a span, such as a calibration run from a signal
handler, is given to `note` and leaves the self time of that span too.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from array import array

PACKAGE = "s1cochain"
MODULES = ("linalg", "complexes", "spectral", "dilation", "morphisms", "tensor",
           "io_json", "brieskorn", "cli", "randomized")

# Inner-loop vector arithmetic: a span per call would cost more than the call
# itself and would swamp every other layer's numbers.  Their time stays in the
# self time of the caller.
UNTRACED = {
    "linalg": {"as_q", "vec", "unit_vec", "vadd", "vsub", "vscale", "vis_zero",
               "vrestrict", "vpromote"},
}

METHODS = {
    ("linalg", "SparseMatrix"): ("from_entries", "from_dense", "from_columns",
                                 "submatrix", "transpose", "hstack", "__add__",
                                 "scale", "apply", "__matmul__"),
    ("linalg", "Subquotient"): ("__init__", "membership", "coordinates",
                                "class_vector"),
}

# Metric groups: a group's self time sums the self time of its spans; its
# count is the number of outermost calls (a call inside another call of the
# same group, such as `e_infinity` -> `leray_page`, is not counted again).
GROUPS = {
    "linalg.elim": ("linalg.rref", "linalg.solve"),
    "linalg.matvec": ("linalg.SparseMatrix.apply", "linalg.SparseMatrix.__matmul__"),
    "linalg.build": ("linalg.SparseMatrix.from_entries",
                     "linalg.SparseMatrix.from_columns",
                     "linalg.SparseMatrix.submatrix"),
    "linalg.subquotient": ("linalg.Subquotient.__init__",),
    "linalg.coords": ("linalg.Subquotient.membership",
                      "linalg.Subquotient.coordinates"),
    "complexes.filtered": ("complexes.build_filtered_plus",),
    "complexes.cohomology": ("complexes.cohomology",),
    "complexes.verify": ("complexes.verify_s1_relations",),
    "spectral.zb": ("spectral.z_space", "spectral.b_space"),
    "spectral.page": ("spectral.leray_page", "spectral.e_infinity"),
    "spectral.delta": ("spectral.delta_k",),
    "dilation.level_tests": ("dilation.has_k_dilation", "dilation.has_k_semidilation"),
    "dilation.scan": ("dilation.order_of_dilation", "dilation.order_of_semidilation"),
    "dilation.torsion": ("dilation.order_via_torsion",),
    "dilation.les": ("dilation.tautological_les",),
}

# Counters taken by the hooks below, and by the caller for the `_cols_of`
# cache, whose statistics only the caller can read between operations.
COUNTERS = ("linalg.elim.cells", "linalg.elim.nnz_in", "linalg.elim.nnz_out",
            "linalg.elim.max_coeff_bits", "linalg.solve.count", "linalg.solve.found",
            "linalg.cols_cache.hits", "linalg.cols_cache.lookups",
            "complexes.filtered.dim_sum", "io_json.bytes")

NO_PARENT = -1
# the span of a counter hook's own work; "trace" is not a module of MODULES
HOOK_SPAN = "trace.hook"


def self_times(parents, starts, ends) -> list[float]:
    """Self time of every span: duration minus the time its children cover.

    Spans are indexed in order of start, so each parent precedes its
    children and the children of one parent arrive in order of start.
    Overlapping children are merged, and a child's interval is clipped to
    its parent's, so no instant is subtracted twice.
    """
    n = len(starts)
    covered = [0.0] * n
    last_end = list(starts)
    for j in range(n):
        p = parents[j]
        if p == NO_PARENT:
            continue
        lo = max(starts[j], last_end[p])
        hi = min(ends[j], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            last_end[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


def _coeff_bits(values) -> int:
    best = 0
    for x in values:
        b = max(x.numerator.bit_length(), x.denominator.bit_length())
        if b > best:
            best = b
    return best


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._patches: list[tuple[object, str, object]] = []
        self._stack = [NO_PARENT]
        self.reset()

    # recording ----------------------------------------------------------

    def reset(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name_of = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        del self._stack[1:]
        self.counters: dict[str, float] = dict.fromkeys(COUNTERS, 0)
        # (kind, id(complex), k); the complexes are kept alive so that no id
        # is reused within a pass
        self.zb_seen: set = set()
        self._zb_complexes: dict[int, object] = {}
        # (name, parent, start, end) of `note`; apart from the span arrays, as
        # a signal handler may add one while a span is half recorded
        self.notes: list[tuple[str, int, float, float]] = []

    def _intern(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named `name`: an operation or a set-up.

        Calls into the package are recorded only inside such a span, so the
        benchmark's own checks of the answers leave no spans or counts.
        """
        return self._wrap(name, fn, None, opens=True)(*args, **kwargs)

    def _record(self, idx: int, parent: int, t0: float, t1: float) -> None:
        self.name_of.append(idx)
        self.parents.append(parent)
        self.starts.append(t0)
        self.ends.append(t1)

    def _wrap(self, name: str, fn, hook, opens: bool = False):
        idx = self._intern(name)
        hook_idx = self._intern(HOOK_SPAN)
        clock = self.clock
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            if not opens and len(stack) == 1:
                return fn(*args, **kwargs)
            sid = len(tracer.starts)
            tracer.name_of.append(idx)
            tracer.parents.append(stack[-1])
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tracer.starts[sid] = t0
                tracer.ends[sid] = t1
            if hook is not None:
                h0 = clock()
                hook(tracer, args, kwargs, result)
                tracer._record(hook_idx, stack[-1], h0, clock())
            return result

        return functools.update_wrapper(traced, fn)

    def note(self, name: str, t0: float, t1: float) -> None:
        """Record the benchmark's own work over [t0, t1] inside the current
        span; it belongs to no module and is not that span's self time."""
        if len(self._stack) > 1:
            self.notes.append((name, self._stack[-1], t0, t1))

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    # installation -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        every = [importlib.import_module(PACKAGE), *mods.values()]
        wrapped: dict[int, object] = {}
        for mname, mod in mods.items():
            skip = UNTRACED.get(mname, set())
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or attr in skip
                        or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{mname}.{attr}"
                wrapped[id(obj)] = self._wrap(name, obj, HOOKS.get(name))
        # every module-level reference to a wrapped function, in every module
        for mod in every:
            for attr, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, w)
        for (mname, cname), methods in METHODS.items():
            cls = getattr(mods[mname], cname, None)
            if cls is None:
                continue
            for meth in methods:
                raw = cls.__dict__.get(meth)
                if raw is None:
                    continue
                name = f"{mname}.{cname}.{meth}"
                hook = HOOKS.get(name)
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(name, raw.__func__, hook))
                elif isinstance(raw, types.FunctionType):
                    new = self._wrap(name, raw, hook)
                else:
                    continue
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # aggregation --------------------------------------------------------

    def _self_times(self) -> list[float]:
        """`self_times` of the spans, less the noted intervals inside them."""
        selfs = self_times(self.parents, self.starts, self.ends)
        for _, p, t0, t1 in self.notes:
            selfs[p] -= max(0.0, min(t1, self.ends[p]) - max(t0, self.starts[p]))
        return selfs

    def by_name(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total time and self time."""
        selfs = self._self_times()
        out: dict[str, dict[str, float]] = {}
        for i, idx in enumerate(self.name_of):
            row = out.setdefault(self.names[idx], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += self.ends[i] - self.starts[i]
            row["self_s"] += selfs[i]
        for name, _, t0, t1 in self.notes:
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += t1 - t0
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-group and per-module counts and self times, the counters, and
        the ratios derived from them (0 when their base is 0)."""
        selfs = self._self_times()
        group_of = {}
        for group, names in GROUPS.items():
            for n in names:
                group_of[n] = group
        span_group = [group_of.get(n) for n in self.names]
        span_module = [n.split(".", 1)[0] for n in self.names]
        out: dict[str, float] = {}
        for group in GROUPS:
            out[f"{group}.count"] = 0
            out[f"{group}.self_s"] = 0.0
        for module in MODULES:
            out[f"{module}.self_s"] = 0.0
        for i, idx in enumerate(self.name_of):
            module_key = f"{span_module[idx]}.self_s"
            if module_key in out:
                out[module_key] += selfs[i]
            group = span_group[idx]
            if group is None:
                continue
            out[f"{group}.self_s"] += selfs[i]
            p = self.parents[i]
            outermost = True
            while p != NO_PARENT:
                if span_group[self.name_of[p]] == group:
                    outermost = False
                    break
                p = self.parents[p]
            if outermost:
                out[f"{group}.count"] += 1
        out.update(self.counters)
        out["trace.spans"] = len(self.starts)

        def ratio(a, b):
            return out[a] / out[b] if out[b] else 0.0

        out["spectral.zb.distinct"] = len(self.zb_seen)
        out["spectral.zb.repeat_ratio"] = ratio("spectral.zb.count", "spectral.zb.distinct")
        out["linalg.cols_cache.hit_ratio"] = ratio("linalg.cols_cache.hits",
                                                   "linalg.cols_cache.lookups")
        out["linalg.solve.found_ratio"] = ratio("linalg.solve.found", "linalg.solve.count")
        out["dilation.tests_per_order"] = ratio("dilation.level_tests.count",
                                                "dilation.scan.count")
        return out


# hooks: (tracer, args, kwargs, result) -> None


def _hook_rref(t: Tracer, args, kwargs, result) -> None:
    m = args[0]
    red = result[0]
    t.add("linalg.elim.cells", m.rows * m.cols)
    t.add("linalg.elim.nnz_in", len(m.entries))
    t.add("linalg.elim.nnz_out", len(red.entries))
    t.peak("linalg.elim.max_coeff_bits",
           max(_coeff_bits(v for _, _, v in m.entries),
               _coeff_bits(v for _, _, v in red.entries)))


def _hook_solve(t: Tracer, args, kwargs, result) -> None:
    m = args[0]
    b = args[1] if len(args) > 1 else kwargs["b"]
    t.add("linalg.elim.cells", m.rows * (m.cols + 1))
    t.add("linalg.elim.nnz_in", len(m.entries) + len(b))
    t.add("linalg.solve.count", 1)
    bits = max(_coeff_bits(v for _, _, v in m.entries), _coeff_bits(b.values()))
    if result is not None:
        t.add("linalg.solve.found", 1)
        bits = max(bits, _coeff_bits(result.values()))
    t.peak("linalg.elim.max_coeff_bits", bits)


def _hook_filtered(t: Tracer, args, kwargs, result) -> None:
    t.add("complexes.filtered.dim_sum", result.dim)


def _hook_zb(kind: str):
    def hook(t: Tracer, args, kwargs, result) -> None:
        c = args[0]
        k = args[1] if len(args) > 1 else kwargs["k"]
        t._zb_complexes[id(c)] = c
        t.zb_seen.add((kind, id(c), k))
    return hook


def _hook_dumps(t: Tracer, args, kwargs, result) -> None:
    t.add("io_json.bytes", len(result))


def _hook_loads(t: Tracer, args, kwargs, result) -> None:
    text = args[0] if args else kwargs["text"]
    t.add("io_json.bytes", len(text))


HOOKS = {
    "linalg.rref": _hook_rref,
    "linalg.solve": _hook_solve,
    "complexes.build_filtered_plus": _hook_filtered,
    "spectral.z_space": _hook_zb("z"),
    "spectral.b_space": _hook_zb("b"),
    "io_json.dumps": _hook_dumps,
    "io_json.loads": _hook_loads,
}
