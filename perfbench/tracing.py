"""Spans around the public functions of each `kshg` module, from outside.

`Tracer.install` replaces each traced function by a wrapper in every
`kshg` module that holds a reference to it (so `kshg.bounds.expand` and
`kshg.cli.expand` are both covered) and `uninstall` puts the originals
back. A span is [name, start, end, parent, size]; spans stay in memory
until the run writes them out. Tiny per-element helpers (`overlap`,
`evaluate`, `adjacency_masks`, ...) are not traced: their time counts as
self time of the caller. Spans include the harness's speed sampling, about
2% of the time.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

# module -> the public functions the workloads reach. The layer is the
# module name without its leading underscore.
TRACED = {
    "cli": ("main", "build_parser", "parse_hypergraph", "parse_rays"),
    "hypergraph": ("generate", "build_from_rays", "max_independent_set", "remove_vertex"),
    "_indset": ("independence_number", "branch_search", "brute_force_search"),
    "expansion": ("expand", "expand_hyper_edge", "mis_oracle", "brute_force_max",
                  "max_edge_observable", "ks_propagate"),
    "linalg3": ("eigensystem", "projector_sum"),
    "bounds": ("classical_bound", "family_bound", "classify", "quantum_range",
               "check_subgraph_decomposition", "verify_realization"),
}
LAYERS = tuple(module.lstrip("_") for module in TRACED)


def _walk_states(args, result) -> int:
    return (1 << len(args[0].vertices)) - 1


# Work counted per span, from the arguments or the result, once the call returns.
SIZES: dict[str, Callable[[tuple, Any], int]] = {
    "indset.independence_number": lambda args, result: len(args[0]),
    "indset.branch_search": lambda args, result: len(args[0]),
    "expansion.expand": lambda args, result: len(result.vertices),
    "expansion.expand_hyper_edge": lambda args, result: len(result.vertices),
    "expansion.brute_force_max": _walk_states,
    "expansion.max_edge_observable": _walk_states,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name: str, fn: Callable, args: tuple = (), kwargs: dict | None = None):
        """Run `fn` inside a span named `name`."""
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span[2] = perf_counter()
            self._stack.pop()
        size = SIZES.get(name)
        if size is not None:
            span[4] = size(args, result)
        return result

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def _wrap_parser(self, build_parser: Callable) -> Callable:
        """`build_parser` whose parser times `parse_args` as `cli.parse_args`."""
        def traced(*args, **kwargs):
            parser = self.call("cli.build_parser", build_parser, args, kwargs)
            parser.parse_args = self._wrap("cli.parse_args", parser.parse_args)
            return parser
        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "kshg" or name.startswith("kshg."))]
        for module_name, functions in TRACED.items():
            module = sys.modules[f"kshg.{module_name}"]
            layer = module_name.lstrip("_")
            for fn_name in functions:
                original = getattr(module, fn_name)
                if fn_name == "build_parser":
                    wrapper = self._wrap_parser(original)
                else:
                    wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._patched.append((holder, attr, original))
                            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[code[s[0]], round((s[1] - t0) * 1e6), round((s[2] - t0) * 1e6), s[3], s[4]]
                for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"names": names, "columns": ["name", "start_us", "end_us",
                                    "parent", "size"], "spans": rows}, separators=(",", ":")))


def layer_metrics(spans: list[list], first: int, passes: int, setup: tuple[int, int],
                  speed: float) -> dict[str, float]:
    """Per-layer metrics per pass over `spans[first:]`, plus set-up generation time.

    Self time is a span's duration minus the durations of its direct
    children. `setup` is the index range of the spans of one traced set-up.
    Times are multiplied by `speed`, the traced passes' speed factor.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans[first:]:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    total: dict[str, float] = defaultdict(float)
    self_: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    size: dict[str, int] = defaultdict(int)
    for index in range(first, len(spans)):
        name, start, end, _, n = spans[index]
        total[name] += end - start
        self_[name] += end - start - child_time[index]
        calls[name] += 1
        size[name] += n

    def ms(table, *names):
        return 1000.0 * speed * sum(table[n] for n in names) / passes

    def per_pass(table, *names):
        return sum(table[n] for n in names) / passes

    gray = ("expansion.brute_force_max", "expansion.max_edge_observable")
    gray_s = speed * sum(total[n] for n in gray)
    search = ("indset.independence_number", "indset.branch_search")
    expand = ("expansion.expand", "expansion.expand_hyper_edge")
    out = {
        "cli.parse_ms": ms(total, "cli.build_parser", "cli.parse_args", "cli.parse_hypergraph",
                           "cli.parse_rays"),
        "hypergraph.core_mis_ms": ms(total, "hypergraph.max_independent_set"),
        "hypergraph.core_mis_calls": per_pass(calls, "hypergraph.max_independent_set"),
        "hypergraph.generate_ms": 1000.0 * speed * sum(
            s[2] - s[1] for s in spans[setup[0]:setup[1]] if s[0] == "hypergraph.generate"),
        "hypergraph.build_from_rays_ms": ms(total, "hypergraph.build_from_rays"),
        "hypergraph.remove_vertex_ms": ms(total, "hypergraph.remove_vertex"),
        "indset.search_ms": ms(total, *search),
        "indset.calls": per_pass(calls, *search),
        "indset.vertices_in": per_pass(size, *search),
        "expansion.expand_ms": ms(total, *expand),
        "expansion.expand_calls": per_pass(calls, *expand),
        "expansion.expanded_vertices": per_pass(size, *expand),
        "expansion.mis_oracle_self_ms": ms(self_, "expansion.mis_oracle"),
        "expansion.gray_ms": ms(total, *gray),
        "expansion.gray_states": per_pass(size, *gray),
        "expansion.gray_states_per_s": sum(size[n] for n in gray) / gray_s if gray_s else 0.0,
        "expansion.ks_propagate_ms": ms(total, "expansion.ks_propagate"),
        "linalg3.eigensystem_ms": ms(total, "linalg3.eigensystem"),
        "linalg3.eigensystem_calls": per_pass(calls, "linalg3.eigensystem"),
        "bounds.classify_self_ms": ms(self_, "bounds.classify", "bounds.quantum_range"),
        "bounds.verify_realization_ms": ms(total, "bounds.verify_realization"),
        "bounds.decomposition_self_ms": ms(self_, "bounds.check_subgraph_decomposition"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = ms(self_, *(n for n in self_ if n.startswith(layer + ".")))
    return out
