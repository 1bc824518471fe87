"""Self-test of the benchmark at tiny sizes; exits 0 when every check holds.

    python3 perfbench/selftest.py

It checks that each workload emits exactly the metrics BENCHMARK.json
lists, with their units, in both modes; that a wrong expected answer, an
exception from the program and a CLI refusal of malformed arguments each
count as one failure without stopping the run; that the tracer restores every rebound function; and that
`run.py` refuses, without printing a result, in a directory holding only
BENCHMARK.json and `perfbench/`.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import harness

ROOT = harness.ROOT
problems: list[str] = []


def check(condition: bool, message: str) -> None:
    if not condition:
        problems.append(message)


def expected_units(key: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def check_metrics() -> None:
    import workloads

    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        want = expected_units(key)
        for name in workloads.WORKLOADS:
            result = harness.measure(name, 7, 0.05, trace, workloads.TINY)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{name} trace={trace}: metrics {sorted(set(got) ^ set(want))} "
                               f"or their units differ from BENCHMARK.json")
            check(all(isinstance(v["value"], float) and math.isfinite(v["value"])
                      for v in result["metrics"].values()), f"{name}: a metric is not a finite number")
            check(result["correct"] and result["attempted"] >= 1, f"{name} trace={trace}: {result}")


def check_failures_counted() -> None:
    import workloads

    workdir = harness.OUT / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        queries = workloads.setup("batch-small", 7, workdir, workloads.TINY)
        base = harness.run_passes(queries, 0)
        queries[0].expected = ("deliberately", "wrong")

        def recurse(n: int) -> int:
            return recurse(n + 1) + 1

        queries.append(workloads.Query("raises", lambda: recurse(0), 0))
        # argparse refuses `--help` with SystemExit(0), which must not end the run.
        help_code = workloads.run_cli(["bound", "--help"])[0]
        graph = workloads.write_hg(workdir / "argv.hg", 3, [(0, 1, 1)])
        queries.append(workloads.cli_bound_query(graph, 3, [(0, 1, 1)], kind="malformed-argv",
                                                 options=("--max-vertices", "x")))
        queries.append(workloads.exit_probe("help-exit", ["bound", "--help"], 1, "error:"))
        bad = harness.run_passes(queries, 0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check(help_code == 0, f"`kshg bound --help` gave exit code {help_code}, not 0")
    check(bad.wrong == base.wrong + 3, f"3 wrong answers counted {bad.wrong - base.wrong} times")
    check(bad.raised == base.raised + 1, f"RecursionError counted {bad.raised - base.raised} times, not once")
    check(bad.attempted == base.attempted + 3, "a failing query stopped the pass")
    check({"malformed-argv", "help-exit"} <= set(bad.failures), f"failures: {bad.failures}")
    check(bad.failures.get("raises", "").startswith("RecursionError"), f"failures: {bad.failures}")


def check_tracer_restores() -> None:
    import kshg.bounds
    import kshg.cli
    import kshg.expansion
    from tracing import Tracer

    before = (kshg.expand, kshg.bounds.expand, kshg.cli.expand, kshg.cli.build_parser)
    tracer = Tracer()
    tracer.install()
    try:
        check(kshg.bounds.expand is kshg.cli.expand is kshg.expand is not before[0],
              "expand was not rebound in every module that imported it")
        kshg.cli.build_parser().parse_args(["demo", "clifton"])
    finally:
        tracer.uninstall()
    check((kshg.expand, kshg.bounds.expand, kshg.cli.expand, kshg.cli.build_parser) == before,
          "uninstall left a wrapper behind")
    check([s[0] for s in tracer.spans] == ["cli.build_parser", "cli.parse_args"],
          f"unexpected spans {[s[0] for s in tracer.spans]}")


def check_refuses_without_package() -> None:
    bare = harness.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        child = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "enumerate",
                                "--seed", "1", "--seconds", "1", "--trace", "0"],
                               cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(child.returncode != 0 and '"metrics"' not in child.stdout,
          f"bare directory: exit {child.returncode}, stdout {child.stdout!r}")


def main() -> int:
    harness.load_package()
    check_metrics()
    check_failures_counted()
    check_tracer_restores()
    check_refuses_without_package()
    for message in problems:
        print("FAIL", message)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
