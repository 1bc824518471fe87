"""Benchmark of the kshg package: four workloads over its exact oracles.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is mis-lattice, bound-sparse, enumerate, batch-small, or `all` (each
workload in turn). Run it from the root of a checkout: it imports the
package from `src/`, so nothing needs installing. Each workload runs in a
fresh child process (`harness.py`) with BLAS threads set to 1, one at a
time. The last line of standard output is the result, one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`; the line before it
records the commit, versions, core count and seed. `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer metrics of a traced run, whose
spans are written to `.perfbench_out/`. Times are scaled to a reference
interpreter speed (see `harness.py`); the unscaled pass time is in the
record line. `failed` counts wrong answers, wrong exit codes and uncaught
exceptions; `correct` is false only when the program returned an answer
that disagrees with its reference. The metric names, units and bounds are
in BENCHMARK.json; `perfbench/selftest.py` checks the benchmark itself.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mis-lattice", "bound-sparse", "enumerate", "batch-small")
CHILD_TIMEOUT_S = 170
ONE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                     "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


def git_sha() -> str:
    """Commit of the checkout, read from `.git` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    argv = [sys.executable, str(ROOT / "perfbench" / "harness.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        child = subprocess.run(argv, cwd=ROOT, env={**os.environ, **ONE_THREAD},
                               stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {workload} ran longer than {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"error: {workload} exited with code {child.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kshg" / "__init__.py").is_file():
        print(f"error: no kshg package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_child(name, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        record = {"workload": name, "seed": args.seed, "trace": args.trace, "git_sha": git_sha(),
                  "nproc": os.cpu_count(), **result.pop("info")}
        print("# " + json.dumps(record))
        results[name] = result
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
