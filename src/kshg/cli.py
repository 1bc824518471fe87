"""Command-line front end: file formats, generation, bounds, oracles,
quantum runs, DOT export, and deterministic plain-text or JSON reports.

Exit codes: 0 success, 1 validation error (including failed verification),
2 capacity error. The environment variable KSHG_MAX_BITS overrides the
default brute-force enumeration capacity.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import re
import sys
import warnings
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .bounds import (
    check_subgraph_decomposition,
    classical_bound,
    classify,
    verify_realization,
    wheel7_demo_rays,
)
from .errors import CapacityError, ValidationError
from .expansion import (
    DEFAULT_BIT_LIMIT,
    Assignment,
    brute_force_max,
    check_expansion_limit,
    dot_lines,
    expand,
    expand_hyper_edge,
    ks_propagate,
    mis_oracle,
    vertex_label,
)
from .hypergraph import (
    DEFAULT_MIS_LIMIT,
    FAMILIES,
    FamilySpec,
    HyperEdge,
    HyperGraph,
    build_from_rays,
    check_search_capacity,
    family_parameters,
    generate,
    random_hypergraph,
)

if TYPE_CHECKING:  # `parse_rays` imports linalg3, and numpy, when called
    from .linalg3 import Ray


def _number(kind: type) -> Callable[[str], int | float]:
    """`kind` (`int` or `float`) for plain numbers only: ValueError unless the
    text is ASCII without `_`, since `int` and `float` also read `_`
    separators and non-ASCII digits, which kshg takes in no number. Every
    number read from a file, an option or the environment goes through
    `_int` or `_float` below (or bare `int`, on a hyper-graph text that
    `_PLAIN_HYPERGRAPH` matched); each also serves as an argparse `type=`.
    A leading sign stays allowed."""

    def read(text: str) -> int | float:
        if not text.isascii() or "_" in text:
            raise ValueError(text)
        return kind(text)

    read.__name__ = kind.__name__  # argparse names the type in its refusal
    return read


_int, _float = _number(int), _number(float)


def parse_rays(text: str, normalize: bool = False) -> list[Ray]:
    """Parse the rays format: six reals per line (re im per amplitude).

    numpy's floating-point warnings are off for the whole file: a norm that
    overflows or underflows is refused by `Ray`, or rescaled by
    `Ray.normalized`, and a refusal is the one `error:` line.
    """
    import numpy as np

    from .linalg3 import Ray

    make = Ray.normalized if normalize else Ray
    rays = []
    with np.errstate(all="ignore"):
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 6:
                raise ValidationError(
                    f"line {lineno}: expected 6 numbers (re0 im0 re1 im1 re2 im2), got {len(parts)}"
                )
            try:
                nums = [_float(p) for p in parts]
            except ValueError:
                raise ValidationError(f"line {lineno}: malformed number in {line!r}") from None
            amplitudes = (
                complex(nums[0], nums[1]),
                complex(nums[2], nums[3]),
                complex(nums[4], nums[5]),
            )
            try:
                rays.append(make(amplitudes))
            except ValidationError as exc:
                raise ValidationError(f"line {lineno}: {exc}") from None
    return rays


def serialize_rays(rays: Sequence[Ray]) -> str:
    lines = []
    for r in rays:
        parts = []
        for amp in r.amplitudes:
            parts.append(repr(float(amp.real)))
            parts.append(repr(float(amp.imag)))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


# The form `serialize_hypergraph` writes: a `vertices` line, then `edge`
# lines of unsigned decimal fields without leading zeros, single spaces and
# `\n` endings. `[0-9]`, not `\d`, which also matches non-ASCII digits.
_PLAIN_HYPERGRAPH = re.compile(
    r"vertices [1-9][0-9]*\n(?:edge [1-9][0-9]* [1-9][0-9]* (?:0|[1-9][0-9]*)\n)*"
)


def parse_hypergraph(text: str) -> HyperGraph:
    """Parse the hyper-graph format: 'vertices <k>' then 'edge <i> <j> <n>' (1-based).

    A text in the plain form is read in bulk. The pattern admits no index 0,
    sign or negative weight, and `HyperEdge` and `HyperGraph` refuse an index
    past k, a self-loop and a duplicate pair, so this route has no rule of
    its own. Any other text, and a plain text refused on this route, goes to
    `_walk_hypergraph`, which gives the same graph or the same error.
    """
    if _PLAIN_HYPERGRAPH.fullmatch(text):
        # k, then i j n per edge; the word list is freed once the last is read
        numbers = map(int, text.replace("edge ", "").split()[1:])
        try:
            vertex_count = next(numbers)
            edges = tuple(
                HyperEdge(i - 1, j - 1, weight) if i < j else HyperEdge(j - 1, i - 1, weight)
                for i, j, weight in zip(numbers, numbers, numbers)
            )
            return HyperGraph(vertex_count, edges)
        except ValueError:  # ValidationError included, or a field past int's digit limit
            pass
    return _walk_hypergraph(text)


def _walk_hypergraph(text: str) -> HyperGraph:
    """Read any valid hyper-graph text line by line, and word each refusal
    with the line number of the first faulty line: the grammar's reference."""
    vertex_count: int | None = None
    edges: list[HyperEdge] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertices":
            if vertex_count is not None:
                raise ValidationError(f"line {lineno}: duplicate 'vertices' directive")
            if len(parts) != 2:
                raise ValidationError(f"line {lineno}: expected 'vertices <k>'")
            try:
                vertex_count = _int(parts[1])
            except ValueError:
                raise ValidationError(f"line {lineno}: vertex count {parts[1]!r} is not an integer") from None
            if vertex_count < 1:
                raise ValidationError(f"line {lineno}: vertex count must be positive, got {vertex_count}")
        elif parts[0] == "edge":
            if vertex_count is None:
                raise ValidationError(f"line {lineno}: 'edge' before 'vertices'")
            if len(parts) != 4:
                raise ValidationError(f"line {lineno}: expected 'edge <i> <j> <n>'")
            try:
                i, j, weight = _int(parts[1]), _int(parts[2]), _int(parts[3])
            except ValueError:
                raise ValidationError(f"line {lineno}: edge fields must be integers") from None
            for v in (i, j):
                if not 1 <= v <= vertex_count:
                    raise ValidationError(
                        f"line {lineno}: vertex index {v} out of range 1..{vertex_count}"
                    )
            if i == j:
                raise ValidationError(f"line {lineno}: self-loop at vertex {i}")
            if weight < 0:
                raise ValidationError(f"line {lineno}: negative weight {weight}")
            a, b = min(i, j) - 1, max(i, j) - 1
            if (a, b) in seen:
                raise ValidationError(f"line {lineno}: duplicate edge ({min(i, j)}, {max(i, j)})")
            seen.add((a, b))
            edges.append(HyperEdge(a, b, weight))
        else:
            raise ValidationError(f"line {lineno}: unknown directive {parts[0]!r}")
    if vertex_count is None:
        raise ValidationError("missing 'vertices' directive")
    return HyperGraph(vertex_count, tuple(edges))


def serialize_hypergraph(h: HyperGraph) -> str:
    lines = [f"vertices {h.vertex_count}"]
    for e in h.edges:
        lines.append(f"edge {e.i + 1} {e.j + 1} {e.weight}")
    return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, (tuple, list)):
        return " ".join(str(v) for v in value)
    return str(value)


def _emit(items: list[tuple[str, object]], as_json: bool) -> None:
    if as_json:
        payload = {k: (list(v) if isinstance(v, tuple) else v) for k, v in items}
        # One write per line, as below: with unbuffered stdout a single large
        # write that a closed pipe cuts short reports no error.
        for line in json.dumps(payload, indent=2).split("\n"):
            sys.stdout.write(line + "\n")
    else:
        for key, value in items:
            sys.stdout.write(f"{key} = {_fmt(value)}\n")


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None


def _write(path: str, content: str | Iterable[str]) -> None:
    """Write `content`, a string or an iterable of strings streamed in turn."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines((content,) if isinstance(content, str) else content)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from None


def _load_graph(path: str) -> HyperGraph:
    return parse_hypergraph(_read(path))


def _positive_int(text: str) -> int:
    """The rule of every search and bit limit, as an argparse `type=`."""
    try:
        value = _int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _tolerance(text: str) -> float:
    """The rule of a verification tolerance, as an argparse `type=`."""
    try:
        value = _float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {value}")
    return value


def _default_max_bits() -> int:
    raw = os.environ.get("KSHG_MAX_BITS")
    if raw is None:
        return DEFAULT_BIT_LIMIT
    try:
        return _positive_int(raw)
    except argparse.ArgumentTypeError as exc:
        raise ValidationError(f"KSHG_MAX_BITS: {exc}") from None


def _family_spec(args: argparse.Namespace) -> FamilySpec:
    weights: int | tuple[int, ...]
    if args.weights is not None:
        try:
            weights = tuple(_int(w) for w in args.weights.split(","))
        except ValueError:
            raise ValidationError(f"--weights must be comma-separated integers, got {args.weights!r}") from None
    else:
        weights = args.weight
    return FamilySpec(args.family, k=args.k, mx=args.mx, my=args.my, weights=weights)


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = _family_spec(args)
    rays = None
    if args.rays_out is not None:
        if spec.family != "wheel7":
            raise ValidationError("--rays-out currently applies to the wheel7 demo family only")
        rays = wheel7_demo_rays(args.delta)
    h = generate(spec, rays=rays)
    if rays is not None:
        # before the graph, whose weights come from these rays
        _write(args.rays_out, serialize_rays(rays))
    _write(args.output, serialize_hypergraph(h))
    items: list[tuple[str, object]] = [
        ("command", "gen"),
        ("family", spec.family),
        *family_parameters(spec),
        ("vertices", h.vertex_count),
        ("edges", len(h.edges)),
        ("weight_sum", h.weight_sum),
        ("output", args.output),
    ]
    if rays is not None:
        items.append(("rays_output", args.rays_out))
        items.append(("delta", args.delta))
    _emit(items, args.json)
    return 0


def _cmd_weights(args: argparse.Namespace) -> int:
    rays = parse_rays(_read(args.rays), normalize=args.normalize)
    h = build_from_rays(rays, cap=args.cap)
    _write(args.output, serialize_hypergraph(h))
    _emit(
        [
            ("command", "weights"),
            ("rays", args.rays),
            ("vertices", h.vertex_count),
            ("edges", len(h.edges)),
            ("weight_sum", h.weight_sum),
            ("output", args.output),
        ],
        args.json,
    )
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    h = _load_graph(args.graph)
    bound = classical_bound(h, max_vertices=args.max_vertices)
    _emit(
        [
            ("command", "bound"),
            ("input", args.graph),
            ("vertices", h.vertex_count),
            ("edges", len(h.edges)),
            ("weight_sum", h.weight_sum),
            ("weight_term", bound.weight_term),
            ("independence", bound.independence_term),
            ("witness", tuple(v + 1 for v in bound.witness)),
            ("classical_bound", bound.total),
        ],
        args.json,
    )
    return 0


def _cmd_brute(args: argparse.Namespace) -> int:
    h = _load_graph(args.graph)
    max_bits = args.max_bits if args.max_bits is not None else _default_max_bits()
    g = expand(h)
    maximum = brute_force_max(g, max_bits=max_bits)
    _emit(
        [
            ("command", "brute"),
            ("input", args.graph),
            ("expanded_vertices", g.vertex_count),
            ("expanded_edges", g.edge_count),
            ("brute_force_max", maximum),
        ],
        args.json,
    )
    return 0


def _cmd_mis(args: argparse.Namespace) -> int:
    h = _load_graph(args.graph)
    g = expand(h)
    # Both refusals come before `mis_oracle` builds any gadget table: the
    # exact-search limit, then the expansion limit that `kshg expand` keeps
    # too, though the report's counts come from the fragments.
    check_search_capacity(g.vertex_count, args.max_vertices)
    check_expansion_limit(g)
    value = mis_oracle(g, max_vertices=args.max_vertices)
    _emit(
        [
            ("command", "mis"),
            ("input", args.graph),
            ("expanded_vertices", g.vertex_count),
            ("expanded_edges", g.edge_count),
            ("mis_oracle", value),
        ],
        args.json,
    )
    return 0


def _cmd_expand(args: argparse.Namespace) -> int:
    h = _load_graph(args.graph)
    g = expand(h)
    check_expansion_limit(g)  # refuse as the fill would, with or without `--dot`
    items: list[tuple[str, object]] = [
        ("command", "expand"),
        ("input", args.graph),
        ("vertices", h.vertex_count),
        ("expanded_vertices", g.vertex_count),
        ("expanded_edges", g.edge_count),
        ("bases", g.basis_count),
    ]
    if args.dot is not None:
        _write(args.dot, dot_lines(g))  # streamed: the text is never held whole
        items.append(("dot", args.dot))
    _emit(items, args.json)
    return 0


def _cmd_quantum(args: argparse.Namespace) -> int:
    h = _load_graph(args.graph)
    rays = parse_rays(_read(args.rays), normalize=args.normalize)
    if len(rays) != h.vertex_count:
        raise ValidationError(
            f"{args.rays} holds {len(rays)} rays but {args.graph} has {h.vertex_count} vertices"
        )
    bound_h = HyperGraph(h.vertex_count, h.edges, tuple(rays))
    with warnings.catch_warnings():
        # one plain line per underweight edge, on every call
        warnings.simplefilter("always")
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        report = classify(bound_h, underweight=args.underweight, max_vertices=args.max_vertices)
    _emit(
        [
            ("command", "quantum"),
            ("input", args.graph),
            ("rays", args.rays),
            ("vertices", h.vertex_count),
            ("edges", len(h.edges)),
            ("weight_sum", h.weight_sum),
            ("independence", report.classical.independence_term),
            ("classical_bound", report.classical.total),
            ("lambda_min", report.quantum.lambda_min),
            ("lambda_max", report.quantum.lambda_max),
            ("quantum_min", report.quantum.lo),
            ("quantum_max", report.quantum.hi),
            ("classification", report.classification.value),
            ("margin", report.margin),
        ],
        args.json,
    )
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise ValidationError(f"the contradiction demo needs weight n >= 1, got {args.n}")
    g = expand_hyper_edge(args.n)
    outcome = ks_propagate(g, {0: 1, 1: 1})

    def name(v: int) -> str:
        return vertex_label(g.vertices[v])

    lines = []
    for pos, step in enumerate(outcome.steps, start=1):
        if step.reason == "given":
            why = "given"
        elif step.reason == "neighbor":
            why = f"neighbor {name(step.source)} = 1"
        else:
            triple = ", ".join(name(t) for t in g.bases[step.source])
            why = f"basis {{{triple}}} has two zeros"
        lines.append(f"step {pos}: {name(step.vertex)} = {step.value} ({why})")
    if outcome.contradiction:
        v = outcome.violation
        if v.kind == "edge":
            final = (
                f"step {len(outcome.steps) + 1}: violated edge "
                f"({name(v.vertices[0])}, {name(v.vertices[1])}): both endpoints forced to 1"
            )
        else:
            triple = ", ".join(name(t) for t in v.vertices)
            final = f"step {len(outcome.steps) + 1}: basis {{{triple}}} forced to contain no 1"
        lines.append(final)
        verdict = "CONTRADICTION"
    else:
        verdict = "CONSISTENT"
    items = [("command", "demo"), ("model", "clifton"), ("weight", args.n), ("vertices", g.vertex_count)]
    if args.json:
        _emit(items + [("steps", lines), ("result", verdict.lower())], True)
    else:
        _emit(items, False)
        for line in lines + [verdict]:
            sys.stdout.write(line + "\n")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    if args.trials < 0:
        raise ValidationError(f"--trials must be non-negative, got {args.trials}")
    rng = random.Random(args.seed)
    failures = 0
    for _ in range(args.trials):
        k = rng.randint(3, 6)
        h = random_hypergraph(rng, k, max_weight=2)
        a = Assignment(tuple(rng.randint(0, 1) for _ in range(expand(h).vertex_count)))
        result = check_subgraph_decomposition(h, a)
        if not result.equal:
            failures += 1
    _emit(
        [
            ("command", "check"),
            ("identity", "subgraph-decomposition"),
            ("trials", args.trials),
            ("seed", args.seed),
            ("failures", failures),
            ("status", "ok" if failures == 0 else "failed"),
        ],
        args.json,
    )
    return 0 if failures == 0 else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    h = _load_graph(args.graph)
    core_rays = parse_rays(_read(args.rays), normalize=args.normalize)
    if len(core_rays) != h.vertex_count:
        raise ValidationError(
            f"{args.rays} holds {len(core_rays)} rays but the graph has {h.vertex_count} vertices"
        )
    g = expand(h)
    aux_count = g.vertex_count - h.vertex_count
    if aux_count and args.aux is None:
        raise ValidationError(
            f"the expansion has {aux_count} auxiliary vertices; supply their rays with --aux"
        )
    aux_rays = parse_rays(_read(args.aux), normalize=args.normalize) if aux_count or args.aux else []
    if len(aux_rays) != aux_count:
        raise ValidationError(
            f"expected {aux_count} auxiliary rays (construction order), got {len(aux_rays)}"
        )
    report = verify_realization(g, core_rays + aux_rays, args.tol)
    items: list[tuple[str, object]] = [
        ("command", "verify"),
        ("input", args.graph),
        ("tol", args.tol),
    ]
    for check in report.checks:
        key = check.name.replace("-", "_")
        items.append((key, "pass" if check.passed else "fail"))
        items.append((f"{key}_worst", check.worst_deviation))
        items.append((f"{key}_at", check.worst_item))
    items.append(("overall", "pass" if report.passed else "fail"))
    _emit(items, args.json)
    return 0 if report.passed else 1


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kshg", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit the report as JSON")
        return p

    p = add("gen", "generate a family instance and write it to a file")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("--k", type=_int, default=None, help="size parameter for 1-D families")
    p.add_argument("--mx", type=_int, default=None, help="lattice width")
    p.add_argument("--my", type=_int, default=None, help="lattice height")
    p.add_argument("--weight", type=_int, default=1, help="uniform edge weight")
    p.add_argument("--weights", default=None, help="comma-separated per-edge weights")
    p.add_argument("--delta", type=_float, default=0.005, help="tilt angle for the wheel7 demo rays")
    p.add_argument("--rays-out", default=None, help="write the wheel7 demo rays here and derive weights from them")
    p.add_argument("-o", "--output", required=True, help="output hyper-graph file")
    p.set_defaults(handler=_cmd_gen)

    p = add("weights", "build a hyper-graph from a rays file")
    p.add_argument("rays")
    p.add_argument("--cap", type=_int, default=None, help="drop pairs needing weight above this cap")
    p.add_argument("--normalize", action="store_true", help="normalize rays of any length")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_weights)

    p = add("bound", "classical bound of a hyper-graph (exact MIS)")
    p.add_argument("graph")
    p.add_argument("--max-vertices", type=_positive_int, default=DEFAULT_MIS_LIMIT)
    p.set_defaults(handler=_cmd_bound)

    p = add("brute", "brute-force maximum of the expanded expression")
    p.add_argument("graph")
    p.add_argument("--max-bits", type=_positive_int, default=None, help="override the enumeration capacity")
    p.set_defaults(handler=_cmd_brute)

    p = add("mis", "independence number of the expanded graph")
    p.add_argument("graph")
    p.add_argument("--max-vertices", type=_positive_int, default=DEFAULT_MIS_LIMIT)
    p.set_defaults(handler=_cmd_mis)

    p = add("expand", "expand a hyper-graph, optionally exporting DOT")
    p.add_argument("graph")
    p.add_argument("--dot", default=None, help="write a DOT rendering here")
    p.set_defaults(handler=_cmd_expand)

    p = add("quantum", "quantum range and violation classification")
    p.add_argument("graph")
    p.add_argument("--rays", required=True, help="rays file, one ray per vertex")
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--underweight", choices=("error", "warn"), default="error")
    p.add_argument("--max-vertices", type=_positive_int, default=DEFAULT_MIS_LIMIT)
    p.set_defaults(handler=_cmd_quantum)

    p = add("demo", "run the forced-contradiction demo")
    p.add_argument("model", choices=("clifton",))
    p.add_argument("--n", type=_int, default=1, help="gadget weight")
    p.set_defaults(handler=_cmd_demo)

    p = add("check", "randomized identity checks")
    p.add_argument("identity", choices=("decomposition",))
    p.add_argument("--trials", type=_int, default=100)
    p.add_argument("--seed", type=_int, default=0)
    p.set_defaults(handler=_cmd_check)

    p = add("verify", "verify user-supplied coordinates for an expansion")
    p.add_argument("graph")
    p.add_argument("--rays", required=True, help="core rays, one per hyper-graph vertex")
    p.add_argument("--aux", default=None, help="auxiliary rays in construction order")
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    p.add_argument("--normalize", action="store_true")
    p.set_defaults(handler=_cmd_verify)

    return parser


# The parser `main` reuses, built on its first call. `parse_args` leaves a
# parser unchanged and every default above is immutable, so one instance
# serves every call. It is bound here, not looked up as `build_parser`, so
# rebinding that name (as perfbench's tracer does) leaves `main` alone.
_parser = functools.cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        code = args.handler(args)
        sys.stdout.flush()  # a reader that went away shows here, not at exit
        return code
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Whatever stdout still buffers goes to the null device, so that the
        # interpreter's flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        try:
            print("error: standard output closed before the output was complete", file=sys.stderr)
        except OSError:
            pass  # stderr is gone too
        return 1


if __name__ == "__main__":
    sys.exit(main())
