"""Run one workload in this process and print its result as one JSON line.

`run.py` starts this script in a fresh process per workload, so that
`ru_maxrss` is the workload's own. The load is a closed loop with one
client: a pass sends the workload's queries one after another, and passes
repeat until `--seconds` have run out (at least one pass).

    python3 perfbench/harness.py --workload mis-lattice --seed 1 --seconds 20 --trace 0

With `--trace 0` it reports the end-to-end metrics. With `--trace 1` it
times untraced passes for half the time and traced passes for the other
half, and reports the per-layer metrics of the traced passes. After each
traced pass, and outside its time, the canary query calls every layer once,
so no layer's metric is empty on a workload that does not reach it. All
times are scaled to a reference host speed (see CAL_REF_S below).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 5
SETUP_SAMPLES = 3  # speed samples before each set-up and after the last


def unit_of(metric: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), ("_frac", "fraction"),
                         ("_mb", "MB")):
        if metric.endswith(suffix):
            return unit
    return "count"


# The host's speed drifts by 10-30% within seconds on a shared machine, in
# step for all pure-Python work on the same core. So a timer interrupts the
# workload every CAL_EVERY_S to time a fixed ~1 ms reference loop, and each
# pass is scaled by CAL_REF_S over the median loop time sampled during it.
# The sampling time is taken out of the query latencies. CAL_REF_S is the
# loop's median time on the 2-core machine the bounds were set on, so the
# factor is near 1 there; the unscaled figures are in the result's info.
CAL_EVERY_S = 0.05
CAL_REF_S = 0.0012


def reference_loop() -> int:
    total = 0
    table: dict[int, int] = {}
    for i in range(7_000):
        total += (i * 2654435761) & 1023
        table[i & 255] = total
    return total


class SpeedGauge:
    """Reference-loop times, sampled on demand or, inside `with`, on a timer."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.busy_s = 0.0  # total sampling time, to subtract from latencies

    def sample(self, *_signal_args) -> None:
        t = perf_counter()
        reference_loop()
        elapsed = perf_counter() - t
        self.samples.append(elapsed)
        self.busy_s += elapsed

    def factor(self, first: int = 0) -> float:
        """Speed factor from the samples taken since `len(samples)` was `first`."""
        if len(self.samples) == first:
            self.sample()
        return CAL_REF_S / statistics.median(self.samples[first:])

    def __enter__(self) -> "SpeedGauge":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


@dataclass
class Tally:
    """Queries run so far: scaled pass times and percentiles, and failures."""

    pass_s: list[float] = field(default_factory=list)
    p50_s: list[float] = field(default_factory=list)  # per pass
    p99_s: list[float] = field(default_factory=list)
    unscaled_pass_s: list[float] = field(default_factory=list)
    factors: list[float] = field(default_factory=list)
    attempted: int = 0
    raised: int = 0
    wrong: int = 0
    failures: dict[str, str] = field(default_factory=dict)

    def add(self, other: "Tally") -> None:
        for name in ("pass_s", "p50_s", "p99_s", "unscaled_pass_s", "factors"):
            getattr(self, name).extend(getattr(other, name))
        self.attempted += other.attempted
        self.raised += other.raised
        self.wrong += other.wrong
        for kind, reason in other.failures.items():
            self.failures.setdefault(kind, reason)


def is_right(query, raw) -> bool:
    try:
        return bool(query.same(query.answer(raw), query.expected))
    except Exception:  # a malformed answer is a wrong answer
        return False


RAISED = object()  # stands for the answer of a query that raised


def run_passes(queries, seconds: float, tracer=None, canary=None) -> Tally:
    """Whole passes until `seconds` have run out. A pass time is the sum of
    its query latencies. Answers are checked after each pass, outside the
    pass time; an exception from the program is a failed query and never
    stops the run. The `canary` query, if given, runs after each pass,
    untimed but checked and counted. Each pass starts from a full garbage
    collection, so that the program's collections fall at the same points
    in every pass."""
    tally = Tally()
    deadline = perf_counter() + seconds
    with SpeedGauge() as gauge:
        while True:
            gc.collect()
            raws = []
            latencies = []
            first_sample = len(gauge.samples)
            for q in queries:
                busy = gauge.busy_s
                t = perf_counter()
                raws.append(run_query(q, tally, tracer))
                latencies.append(perf_counter() - t - (gauge.busy_s - busy))
            factor = gauge.factor(first_sample)
            tally.factors.append(factor)
            tally.unscaled_pass_s.append(sum(latencies))
            tally.pass_s.append(factor * sum(latencies))
            tally.p50_s.append(factor * statistics.median(latencies))
            tally.p99_s.append(factor * statistics.quantiles(latencies, n=100, method="inclusive")[98])
            checked = list(zip(queries, raws))
            if canary is not None:
                checked.append((canary, run_query(canary, tally, tracer)))
            for q, raw in checked:
                if raw is not RAISED and not is_right(q, raw):
                    tally.wrong += 1
                    tally.failures.setdefault(q.kind, "wrong answer")
            if perf_counter() >= deadline:
                return tally


def run_query(q, tally: Tally, tracer=None):
    """The raw result of `q`, or RAISED after counting the exception."""
    tally.attempted += 1
    try:
        return tracer.call("query." + q.kind, q.run) if tracer else q.run()
    except Exception as exc:
        tally.raised += 1
        tally.failures.setdefault(q.kind, f"{type(exc).__name__}: {exc}"[:160])
        return RAISED


def warm_up(query) -> None:
    try:
        query.run()
    except Exception:  # the timed passes count it
        pass


def measure(name: str, seed: int, seconds: float, trace: bool, scale=None) -> dict:
    from tracing import Tracer, layer_metrics

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    try:
        # Set-up: the package import (timed once, on the first call in a
        # process) and the median of SETUP_REPS instance builds, file writes
        # and canary warm-ups. The time of the benchmark's own references
        # (expected answers) is left out. The speed gauge is sampled between
        # the timed parts, not during them.
        setup_gauge = SpeedGauge()
        setup_gauge.sample()
        t = perf_counter()
        load_package()
        import_s = perf_counter() - t
        import workloads

        setup_s = []
        reference_s = []
        for rep in range(SETUP_REPS):
            for _ in range(SETUP_SAMPLES):
                setup_gauge.sample()
            if trace and rep == SETUP_REPS - 1:
                tracer.install()
            reference_before = workloads.reference_s
            t = perf_counter()
            queries = workloads.setup(name, seed, workdir, scale or workloads.FULL)
            canary = workloads.canary(seed, workdir)
            warm_up(canary)
            elapsed = perf_counter() - t
            reference_s.append(workloads.reference_s - reference_before)
            setup_s.append(elapsed - reference_s[-1])
            setup_spans = (0, len(tracer.spans))
            tracer.uninstall()
        for _ in range(SETUP_SAMPLES):
            setup_gauge.sample()
        # The collector need not scan the benchmark's own objects again.
        gc.collect()
        gc.freeze()
        tally = run_passes(queries, seconds / 2 if trace else seconds)
        if trace:
            tracer.install()
            first = len(tracer.spans)
            try:
                traced = run_passes(queries, seconds / 2, tracer, canary)
            finally:
                tracer.uninstall()
            metrics = layer_metrics(tracer.spans, first, len(traced.pass_s), setup_spans,
                                    statistics.mean(traced.factors))
            metrics["trace_overhead_frac"] = (
                statistics.median(traced.pass_s) / statistics.median(tally.pass_s) - 1.0)
            tracer.write(OUT / f"trace-{name}-seed{seed}.json")
            tally.add(traced)
        else:
            metrics = {
                "setup_s": setup_gauge.factor() * (import_s + statistics.median(setup_s)),
                "run_s": statistics.median(tally.pass_s),
                "query_p50_ms": 1000.0 * statistics.median(tally.p50_s),
                "query_p99_ms": 1000.0 * statistics.median(tally.p99_s),
                "ok_frac": 1.0 - (tally.raised + tally.wrong) / tally.attempted,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    import numpy
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.raised + tally.wrong,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        "info": {
            "passes": len(tally.pass_s),
            "speed_factors": tally.factors,
            "unscaled_pass_s": tally.unscaled_pass_s,
            "queries_per_pass": len(queries),
            "query_samples": tally.attempted,
            "unscaled_import_s": import_s,
            "unscaled_setup_reps_s": setup_s,
            "unscaled_reference_reps_s": reference_s,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "failures": tally.failures,
        },
    }


def load_package() -> None:
    """Import `kshg` from this checkout's `src/`, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import kshg
    import kshg.cli  # noqa: F401

    if not Path(kshg.__file__).resolve().is_relative_to(src):
        raise ImportError(f"kshg was imported from {kshg.__file__}, not from {src}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
