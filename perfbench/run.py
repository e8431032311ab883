"""Benchmark of s1cochain: end-to-end answer times and per-layer trace counters.

    python3 perfbench/run.py --workload fermat_spheres --seed 10 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
The load is one sequential caller in one process (a closed loop with one
client, no threads).  A run sets up its workload several times (once here,
the others in fresh interpreters) and reports the median set-up time, then
repeats timed passes over the workload's operations until the next pass
would end after `--seconds`.  An untraced run makes at least two passes, a
traced run at least one untraced and one traced pass.  Each operation starts with
every in-process memo of the package cleared, as a CLI user's process does.

The machine's speed drifts by up to a factor of two from one few-second
window to the next, in CPU time as much as in wall time.  So a fixed loop
that does not use the package is timed all through each pass (`Speed`), and
every end-to-end time is rescaled to a machine on which that loop takes
REFERENCE_CALIBRATION_S.  The report line keeps the measured wall times too.

With `--trace 0` the metrics are the end-to-end ones, each the median over
the passes.  With `--trace 1` half the budget goes to untraced passes and half
to traced ones, and the metrics are the per-layer ones (see tracer.py).

Standard output: one JSON line with the full report (every metric of the
workload, input digest, environment, failures), then, as the last line, the
result object {"correct", "attempted", "failed", "metrics"}.  Progress goes
to standard error.  Exit code 0 when the run completed, even with failed
operations (they are counted in "failed"); 2 when it could not run.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
TRACE_DIR = ROOT / ".perfbench"
# set-up samples: at least the first, at most the second, and no new one
# after SETUP_BUDGET_S of sampling
SETUP_SAMPLES = (5, 21)
SETUP_BUDGET_S = 4.0
CHILD_TIMEOUT_S = 120

# BENCHMARK.json names the metrics of the result line: those that every
# workload has, whose times are never 0.  The report line has all of them.
DECLARATION = ROOT / "BENCHMARK.json"
# an untraced run's value never rests on a single, possibly disturbed, pass
MIN_PASSES = 2


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_package():
    if not (SRC / "s1cochain" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 's1cochain'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402  (after the path is set)

    return workloads


def check_source() -> None:
    import s1cochain

    if Path(s1cochain.__file__).resolve().parent != (SRC / "s1cochain").resolve():
        fail(f"imported s1cochain from {s1cochain.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# machine speed

# The calibration loop's time on the reference machine (about the fast
# phases of the 2-core machine the README's figures come from).
REFERENCE_CALIBRATION_S = 0.003
CALIBRATE_EVERY_S = 0.25
CALIBRATION_SIZE = 14


def _eliminate(rows: list[dict]) -> None:
    """Gauss-Jordan elimination over Q on sparse dict rows, in place."""
    n, r = len(rows), 0
    for c in range(n):
        pivot = next((k for k in range(r, n) if rows[k].get(c)), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        prow = rows[r] = {j: v * inv for j, v in rows[r].items()}
        for k in range(n):
            f = rows[k].get(c) if k != r else None
            if f:
                row = dict(rows[k])
                for j, v in prow.items():
                    x = row.get(j, 0) - f * v
                    if x:
                        row[j] = x
                    else:
                        row.pop(j, None)
                rows[k] = row
        r += 1


def calibration_time() -> float:
    """Best of two runs of a fixed loop that does not use the package: an
    exact elimination on dict rows of Fractions, like the package's."""
    n = CALIBRATION_SIZE
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        _eliminate([{j: Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3)
                     for j in range(n) if (i + j) % 3} for i in range(n)])
        best = min(best, time.perf_counter() - t0)
    return best


class Speed:
    """Machine speed over a run.

    While entered, the calibration loop runs at entry, at exit and, from a
    SIGALRM handler, every CALIBRATE_EVERY_S in between, inside operations
    too.  `reference_s` turns a measured interval into reference seconds.
    `on_sample(start, end)`, when set, is told of every calibration.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.values: list[float] = []
        self.on_sample = None
        self._busy = False

    def sample(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        value = calibration_time()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.values.append(value)
        if self.on_sample is not None:
            self.on_sample(t0, t1)
        self._busy = False

    def __enter__(self) -> "Speed":
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def reference_s(self, t0: float, t1: float) -> float:
        """The interval [t0, t1], less the calibrations inside it, times
        REFERENCE_CALIBRATION_S over the mean calibration from the last one
        before t0 to the first one after t1."""
        i = bisect.bisect_right(self.ends, t0) - 1
        j = bisect.bisect_left(self.starts, t1)
        inside = sum(min(e, t1) - max(b, t0)
                     for b, e in zip(self.starts[i + 1:j], self.ends[i + 1:j]))
        return (t1 - t0 - inside) * REFERENCE_CALIBRATION_S / statistics.fmean(
            self.values[max(i, 0):j + 1])


# ---------------------------------------------------------------------------
# set-up


def setup_samples(args, first: float) -> list[float]:
    """This process's set-up time plus that of fresh interpreters, in
    reference seconds."""
    samples = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    lo, hi = SETUP_SAMPLES
    t0 = time.perf_counter()
    while len(samples) < hi and (len(samples) < lo
                                 or time.perf_counter() - t0 < SETUP_BUDGET_S):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S)
        if out.returncode != 0:
            fail(f"set-up probe failed: {out.stderr.strip()}")
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# ---------------------------------------------------------------------------
# passes


def memo_clearers() -> list:
    """`cache_clear` of every memoized function in the package's modules."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "s1cochain" or name.startswith("s1cochain."):
            for obj in vars(mod).values():
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    found[id(obj)] = clear
    return list(found.values())


def cols_cache():
    from s1cochain import linalg

    return getattr(linalg, "_cols_of", None)


def run_pass(W, inputs, expected, clearers, speed: Speed, tracer=None) -> dict:
    """One timed pass over the workload's operations, every answer checked.
    Times are in reference seconds, except `wall_s`."""
    gc.collect()
    contexts: dict[int, dict] = {}
    failures = []
    digests: dict[str, str] = {}
    timed = []
    cache = cols_cache() if tracer is not None else None
    clock = time.perf_counter
    with speed:
        for op in inputs.ops:
            ctx = contexts.setdefault(op.subject, {})
            for clear in clearers:
                clear()
            err = None
            t0 = clock()
            try:
                answer = op.run(ctx) if tracer is None else tracer.span(op.span, op.run, ctx)
            except Exception as exc:  # a raising operation is a failed one
                answer, err = None, repr(exc)
            t1 = clock()
            timed.append((op, t0, t1))
            if cache is not None:
                info = cache.cache_info()
                tracer.add("linalg.cols_cache.hits", info.hits)
                tracer.add("linalg.cols_cache.lookups", info.hits + info.misses)
            if err is None:
                try:
                    digests[op.key] = W.digest(op.canon(answer))
                    if not op.check(answer, ctx):
                        err = "property check failed"
                    elif expected is not None and expected.get(op.key) != digests[op.key]:
                        err = "answer differs from the golden digest"
                except Exception as exc:
                    err = repr(exc)
            if err is not None:
                failures.append(f"{op.key}: {err}")
    buckets = dict.fromkeys(W.BUCKETS, 0.0)
    per_subject: dict[int, float] = {}
    for op, t0, t1 in timed:
        dt = speed.reference_s(t0, t1)
        buckets[op.bucket] += dt
        per_subject[op.subject] = per_subject.get(op.subject, 0.0) + dt
    return {"total_s": sum(buckets.values()), "buckets": buckets,
            "wall_s": sum(t1 - t0 for _, t0, t1 in timed),
            "per_subject": per_subject, "attempted": len(inputs.ops),
            "failures": failures, "digests": digests}


def repeat(run_one, until: float, minimum: int = 1) -> list:
    """Passes until the next one (as long as the last) would end after `until`."""
    out = []
    while True:
        t0 = time.perf_counter()
        out.append(run_one())
        last = time.perf_counter() - t0
        if len(out) >= minimum and time.perf_counter() + last > until:
            return out


def median_of(passes, get) -> float:
    return statistics.median(get(p) for p in passes)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


# ---------------------------------------------------------------------------
# per-layer metrics


def traced_run(W, T, lib, args, inputs, expected, clearers, speed,
               until) -> tuple[list, dict, dict]:
    """Traced set-up, then traced passes; returns passes, metrics, span table."""
    tracer = T.Tracer()
    with tracer:
        tracer.span("bench.setup", W.setup, args.workload, args.seed, lib)
    setup = tracer.layer_metrics()
    setup_layers = {f"setup.{mod}.self_s": setup[f"{mod}.self_s"] for mod in T.MODULES}
    setup_table = tracer.by_name()
    passes, layers, tables = [], [], []

    def one():
        tracer.reset()
        speed.on_sample = lambda t0, t1: tracer.note("trace.calibrate", t0, t1)
        with tracer:
            result = run_pass(W, inputs, expected, clearers, speed, tracer)
        speed.on_sample = None
        passes.append(result)
        layers.append(tracer.layer_metrics())
        tables.append(tracer.by_name())
        return result

    repeat(one, until)
    metrics = {k: statistics.median(layer[k] for layer in layers) for k in layers[0]}
    metrics.update(setup_layers)
    return passes, metrics, {"setup": setup_table, "pass": tables[-1]}


# ---------------------------------------------------------------------------
# report


def environment() -> dict:
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "s1cochain").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        src_hash.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=CHILD_TIMEOUT_S)
            commit = out.stdout.strip() if out.returncode == 0 else None
        except OSError:
            commit = None
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": usable, "cpu_count": os.cpu_count(),
            "git_commit": commit, "source_sha256": src_hash.hexdigest()}


def main(argv=None) -> None:
    args = parse_args(argv)
    if not DECLARATION.is_file():
        fail(f"no {DECLARATION.name} at {ROOT}")
    speed = Speed()
    with speed:
        t_start = time.perf_counter()
        W = import_package()
        if args.workload not in W.WORKLOADS:
            fail(f"unknown workload {args.workload!r}; choose from {', '.join(W.WORKLOADS)}")
        lib, inputs = W.setup(args.workload, args.seed)
        t_end = time.perf_counter()
    first_setup = speed.reference_s(t_start, t_end)
    check_source()
    if args.setup_only:
        print(json.dumps({"setup_s": first_setup}))
        return
    print(f"perfbench: {args.workload} seed {args.seed}: {len(inputs.ops)} operations "
          f"on {len(inputs.documents)} inputs", file=sys.stderr)
    samples = setup_samples(args, first_setup)

    golden = json.loads(GOLDEN.read_text()).get(args.workload, {})
    applies = golden.get("inputs_sha256") == inputs.sha256
    expected = golden.get("ops", {}) if applies else None
    # The golden digests must apply to every run whose inputs they were made
    # for; inputs that changed there would switch the digest checks off.
    pinned = args.workload not in W.SEEDED or args.seed == W.DEFAULT_SEED
    input_failures = [] if applies or not pinned else [
        "inputs: the inputs differ from those of golden.json; if that is intended, "
        "regenerate it with make_golden.py and say why"]

    clearers = memo_clearers()
    start = time.perf_counter()
    untraced_until = start + (args.seconds / 2 if args.trace else args.seconds)
    passes = repeat(lambda: run_pass(W, inputs, expected, clearers, speed),
                    untraced_until, 1 if args.trace else MIN_PASSES)
    traced, layers, spans = [], {}, {}
    if args.trace:
        import tracer as T

        traced, layers, spans = traced_run(W, T, lib, args, inputs, expected, clearers,
                                           speed, start + args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    every = passes + traced
    attempted = sum(p["attempted"] for p in every)
    failures = input_failures + [f for p in every for f in p["failures"]]

    full = {"setup_s": (statistics.median(samples), "s"),
            "total_s": (median_of(passes, lambda p: p["total_s"]), "s"),
            "wall_total_s": (median_of(passes, lambda p: p["wall_s"]), "s")}
    # Summed times of each kind of operation the workload runs.  Only
    # `dilation_s` is declared with a bound: the only kind every workload runs.
    for bucket in sorted({op.bucket for op in inputs.ops} - {"other"}):
        full[f"{bucket}_s"] = (median_of(passes, lambda p: p["buckets"][bucket]), "s")
    full["peak_rss_mb"] = (peak_rss_mb, "MB")
    # per-input latency, where 200 or more inputs put 10 samples above p95
    if len(inputs.documents) >= 200:
        latencies = [1000 * t for p in passes for s, t in p["per_subject"].items()
                     if s != W.NO_SUBJECT]
        full["complex_p50_ms"] = (statistics.median(latencies), "ms")
        full["complex_p95_ms"] = (percentile(latencies, 0.95), "ms")
    full["ops"] = (attempted, "count")
    full["ops_failed"] = (len(failures), "count")

    if args.trace:
        layers["trace.total_s"] = median_of(traced, lambda p: p["total_s"])
        layers["trace.overhead_ratio"] = layers["trace.total_s"] / full["total_s"][0]
        TRACE_DIR.mkdir(exist_ok=True)
        (TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(spans, indent=1, sort_keys=True) + "\n")

    report = {
        "workload": args.workload, "seed": args.seed, "holdout_seed": W.HOLDOUT_SEED,
        "default_seed": W.DEFAULT_SEED, "load": "one sequential caller, closed loop",
        "passes": len(passes), "traced_passes": len(traced),
        "setup_samples_s": samples,
        "inputs": len(inputs.documents), "inputs_sha256": inputs.sha256,
        "golden_inputs_sha256": golden.get("inputs_sha256"),
        "golden_checked": applies,
        "answers_sha256": W.digest(sorted(passes[0]["digests"].items())),
        "calibration_s": {"reference": REFERENCE_CALIBRATION_S,
                          "median": statistics.median(speed.values),
                          "min": min(speed.values), "max": max(speed.values),
                          "samples": len(speed.values)},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in full.items()},
        "per_layer": dict(sorted(layers.items())),
        "failures": failures[:20],
        "environment": environment(),
    }
    print(json.dumps({"report": report}, sort_keys=True))
    for f in failures[:20]:
        print(f"perfbench: FAILED {f}", file=sys.stderr)

    declared = json.loads(DECLARATION.read_text())["per_layer" if args.trace else "end_to_end"]
    values = layers if args.trace else {k: v for k, (v, _) in full.items()}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


if __name__ == "__main__":
    main()
