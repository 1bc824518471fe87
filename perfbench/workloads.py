"""The four benchmark workloads.

Each set-up function builds one pass: a list of queries, each with the
expected answer computed from a reference that does not share the code
path under test (closed forms, numpy's ``eigvalsh``, subset enumeration,
the other oracle). Inputs come only from the seed. A query's ``run`` builds
the program's input objects afresh from plain tuples, vectors or files, so
nothing the program caches on an object carries over from one pass to the
next. The time spent in references is summed in ``reference_s``, so that
set-up time can leave it out. The canary query calls each layer once on
tiny inputs; the harness uses it as the warm-up, and in the traced run
after each pass, outside the pass time.

Library calls go through module attributes (``kshg.expand``,
``kshg.cli.main``) looked up at call time, so the traced run's rebound
wrappers see them.
"""

from __future__ import annotations

import functools
import io
import itertools
import math
import operator
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

import kshg
import kshg.cli

# Expanded graphs here exceed the library's default 64-vertex search limit.
MIS_LIMIT = 100_000
TOL = 1e-9

BOUND_KEYS = ("command", "input", "vertices", "edges", "weight_sum", "weight_term",
              "independence", "witness", "classical_bound")
QUANTUM_KEYS = ("command", "input", "rays", "vertices", "edges", "weight_sum", "independence",
                "classical_bound", "lambda_min", "lambda_max", "quantum_min", "quantum_max",
                "classification", "margin")
EXPAND_KEYS = ("command", "input", "vertices", "expanded_vertices", "expanded_edges", "bases")

# Weight-1 gadget coordinates, in expansion order: cores, p0, q0, a+1, a-1, b+1, b-1.
_R2, _R3 = 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(3.0)
CLIFTON = np.array([
    (_R3, _R3, _R3), (_R3, -_R3, -_R3), (0, 0, 1), (0, 1, 0),
    (_R2, -_R2, 0), (_R2, 0, -_R2), (_R2, _R2, 0), (_R2, 0, _R2),
], dtype=np.complex128)


def _identity(raw):
    return raw


@dataclass
class Query:
    """One closed-loop request.

    `run` makes the program calls and returns their raw results; `answer`
    reduces those to the value compared with `expected` by `same`. Only
    `run` is timed, and an exception from `answer` or `same` means a wrong
    answer, not a crash.
    """

    kind: str
    run: Callable[[], Any]
    expected: Any
    answer: Callable[[Any], Any] = _identity
    same: Callable[[Any, Any], bool] = operator.eq


@dataclass(frozen=True)
class Scale:
    """Instance sizes; `FULL` is the benchmark, `TINY` the self-test."""

    lattices: tuple[tuple[str, int, int, int], ...]
    sparse: tuple[tuple[str, int], ...]
    expansion_path: int
    enumerated: tuple[tuple[str, int, int], ...]
    edge_weight: int
    batch_per_kind: int  # queries of each batch-small kind in a pass
    heavy_weight: int


FULL = Scale(
    lattices=(("torus-lattice", 4, 4, 1), ("square-lattice", 5, 5, 1),
              ("torus-lattice", 3, 4, 2), ("torus-lattice", 4, 4, 2)),
    sparse=(("fractal-tree", 8), ("fractal-tree", 7), ("fractal-cyclic", 6)),
    expansion_path=200,
    enumerated=(("cyclic", 3, 1), ("linear", 2, 3), ("linear", 4, 1)),
    edge_weight=3,
    batch_per_kind=200,
    heavy_weight=20_000,
)
TINY = Scale(
    lattices=(("square-lattice", 2, 2, 1), ("torus-lattice", 3, 3, 0)),
    sparse=(("fractal-tree", 3), ("fractal-cyclic", 2)),
    expansion_path=6,
    enumerated=(("linear", 2, 1), ("cyclic", 3, 0)),
    edge_weight=1,
    batch_per_kind=4,
    heavy_weight=50,
)


# ---------------------------------------------------------------- references

reference_s = 0.0  # time spent in the functions marked @reference so far


def reference(fn):
    """Add the time of each call of `fn` to `reference_s`."""
    @functools.wraps(fn)
    def timed(*args, **kwargs):
        global reference_s
        t = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            reference_s += perf_counter() - t
    return timed


def write_hg(path: Path, k: int, edges) -> str:
    """Write the documented `.hg` format from (i, j, weight) triples, 0-based."""
    lines = [f"vertices {k}"] + [f"edge {i + 1} {j + 1} {w}" for i, j, w in edges]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def write_rays(path: Path, vectors) -> str:
    lines = [" ".join(f"{repr(float(z.real))} {repr(float(z.imag))}" for z in v) for v in vectors]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def edge_triples(h) -> tuple[tuple[int, int, int], ...]:
    return tuple((e.i, e.j, e.weight) for e in h.edges)


@reference
def alpha_by_subsets(k: int, edges) -> int:
    """Independence number by enumerating all vertex subsets (k <= ~12)."""
    masks = [(1 << i) | (1 << j) for i, j, _ in edges]
    return max(bin(s).count("1") for s in range(1 << k) if not any(s & m == m for m in masks))


def is_independent(edges, witness) -> bool:
    chosen = set(witness)
    return len(chosen) == len(witness) and not any(i in chosen and j in chosen for i, j, _ in edges)


@reference
def reference_weight(overlap: float) -> int:
    """Least n with overlap <= n/(n+2), allowing the documented 1e-9 boundary slack."""
    s = overlap - 1e-9
    if s <= 0.0:
        return 0
    n = max(0, math.ceil(2.0 * s / (1.0 - s)))
    while n > 0 and (n - 1) / (n + 1) >= s:
        n -= 1
    while n / (n + 2) < s:
        n += 1
    return n


@reference
def spectrum(vectors) -> tuple[float, float]:
    total = sum(np.outer(v, v.conj()) for v in vectors)
    values = np.linalg.eigvalsh(total)
    return float(values[0]), float(values[-1])


def verdict(lam_min: float, lam_max: float, alpha: int) -> str:
    if lam_min > alpha + TOL:
        return "state-independent"
    if lam_max > alpha + TOL:
        return "state-dependent"
    return "no-violation"


def random_unit_vectors(rng: random.Random, count: int) -> list[np.ndarray]:
    out = []
    for _ in range(count):
        v = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(3)])
        out.append(v / np.linalg.norm(v))
    return out


def random_edges(rng: random.Random, k: int, max_weight: int, p: float = 0.5):
    return [(i, j, rng.randint(0, max_weight))
            for i in range(k) for j in range(i + 1, k) if rng.random() < p]


def random_edges_summing(rng: random.Random, k: int, max_weight: int, weight_sum: int):
    """`random_edges` drawn until their weights sum to `weight_sum`."""
    while True:
        edges = random_edges(rng, k, max_weight)
        if sum(w for _, _, w in edges) == weight_sum:
            return edges


def hypergraph(k: int, edges):
    return kshg.HyperGraph(k, tuple(kshg.HyperEdge(i, j, w) for i, j, w in edges))


def close_tail(n_exact: int):
    """Compare answers whose first `n_exact` items must match and the rest within TOL."""
    def same(answer, expected) -> bool:
        return (tuple(answer[:n_exact]) == tuple(expected[:n_exact])
                and all(abs(a - b) <= TOL for a, b in zip(answer[n_exact:], expected[n_exact:]))
                and len(answer) == len(expected))
    return same


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """`kshg` in-process: exit code, standard output and standard error.

    A `SystemExit` (argparse's way to refuse arguments) becomes the exit
    code the script would have had, so the query's check counts it.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = kshg.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    return code, out.getvalue(), err.getvalue()


def report(stdout: str) -> dict[str, str]:
    """The `key = value` lines of a plain-text report, in order."""
    return dict(line.split(" = ", 1) for line in stdout.splitlines() if " = " in line)


def witness_ok(edges, alpha: int, text: str) -> bool:
    """A reported 1-based witness is an independent set of size `alpha`."""
    witness = [int(t) - 1 for t in text.split()]
    return len(witness) == alpha and is_independent(edges, witness)


# ---------------------------------------------------------------- query makers


@reference
def expanded_edges(k: int, edges):
    return kshg.expand(hypergraph(k, edges)).edges


# (cores, weight sum) of the decomposition queries, taken in turn: the
# sums are about the mean of `random_edges(rng, k, 2)`.
DECOMPOSITION_SIZES = ((3, 2), (4, 3), (5, 5), (6, 7))


def decomposition_query(rng: random.Random, k: int, weight_sum: int) -> Query:
    edges = random_edges_summing(rng, k, 2, weight_sum)
    values = tuple(rng.randint(0, 1) for _ in range(k + 6 * sum(w for _, _, w in edges)))
    # The hyper-graph observable equals the expanded expression: gadgets share only cores.
    lhs = (k - 2) * (sum(values) - sum(values[i] * values[j] for i, j in expanded_edges(k, edges)))
    return Query("decomposition",
                 lambda: kshg.check_subgraph_decomposition(hypergraph(k, edges), kshg.Assignment(values)),
                 (True, lhs, lhs), lambda r: (r.equal, r.lhs, r.rhs))


def rays_query(rng: random.Random) -> Query:
    k = rng.randint(4, 7)
    cap = rng.choice((None, 1, 2, 4))
    vectors = random_unit_vectors(rng, k)
    edges = []
    for i in range(k):
        for j in range(i + 1, k):
            w = reference_weight(abs(np.vdot(vectors[i], vectors[j])))
            if cap is None or w <= cap:
                edges.append((i, j, w))
    alpha = alpha_by_subsets(k, edges)
    lam_min, lam_max = spectrum(vectors)
    expected = (tuple(edges), 2 * sum(w for _, _, w in edges) + alpha,
                verdict(lam_min, lam_max, alpha), lam_min, lam_max)

    def run():
        h = kshg.build_from_rays([kshg.Ray(v) for v in vectors], cap=cap)
        return h, kshg.classify(h)

    def answer(raw):
        h, r = raw
        return (edge_triples(h), r.classical.total, r.classification.value,
                r.quantum.lambda_min, r.quantum.lambda_max)

    return Query("rays-classify", run, expected, answer, close_tail(3))


# (cores, weight sum) of the cross-oracle queries, taken in turn: every
# expansion of at most 16 bits with weights 0 and 1. The walk costs 2^bits,
# and fixed sizes keep a pass's work the same from seed to seed; the seed
# only places the edges.
CROSS_ORACLE_SIZES = ((3, 0), (4, 0), (5, 0), (3, 1), (4, 1), (5, 1), (3, 2), (4, 2))


def cross_oracle_query(rng: random.Random, k: int, weight_sum: int) -> Query:
    edges = random_edges_summing(rng, k, 1, weight_sum)
    bound = 2 * weight_sum + alpha_by_subsets(k, edges)

    def run():
        h = hypergraph(k, edges)
        g = kshg.expand(h)
        return (kshg.brute_force_max(g), kshg.mis_oracle(g, max_vertices=MIS_LIMIT),
                kshg.classical_bound(h).total,
                2 * weight_sum + kshg.max_independent_set(h, method="brute").size)

    return Query("cross-oracle", run, (bound,) * 4)


def propagation_sound(g, forced: dict[int, int], outcome) -> bool:
    """Replay the trace: each step follows one rule, and the violation really holds."""
    values: dict[int, int] = {}
    for step in outcome.steps:
        if step.vertex in values:
            return False
        if step.reason == "given":
            ok = forced.get(step.vertex) == step.value
        elif step.reason == "neighbor":
            ok = (step.value == 0 and values.get(step.source) == 1
                  and step.vertex in g.neighbors[step.source])
        else:
            triple = g.bases[step.source]
            ok = step.value == 1 and step.vertex in triple and all(
                values.get(u) == 0 for u in triple if u != step.vertex)
        if not ok:
            return False
        values[step.vertex] = step.value
    if outcome.contradiction:
        v = outcome.violation
        if v.kind == "edge":
            return tuple(sorted(v.vertices)) in g.edges and all(values.get(u) == 1 for u in v.vertices)
        return tuple(v.vertices) in g.bases and all(values.get(u) == 0 for u in v.vertices)
    full = outcome.assignment.values
    return (all(full[u] == val for u, val in forced.items())
            and not any(full[i] and full[j] for i, j in g.edges))


def propagate_query(rng: random.Random) -> Query:
    n = rng.randint(1, 4)
    forced = rng.choice(({0: 1, 1: 1}, {0: 1}, {1: 1}, {0: 0, 1: 1}))
    both = forced.get(0) == 1 and forced.get(1) == 1

    def run():
        g = kshg.expand_hyper_edge(n)
        return g, kshg.ks_propagate(g, forced)

    def answer(raw):
        g, outcome = raw
        return len(g.vertices), outcome.contradiction, propagation_sound(g, forced, outcome)

    return Query("propagate", run, (6 * n + 2, both, True), answer)


def verify_query(rng: random.Random) -> Query:
    nrng = np.random.default_rng(rng.getrandbits(32))
    u, _ = np.linalg.qr(nrng.normal(size=(3, 3)) + 1j * nrng.normal(size=(3, 3)))
    vectors = [u @ c for c in CLIFTON]

    def run():
        return kshg.verify_realization(kshg.expand_hyper_edge(1), [kshg.Ray(v) for v in vectors], TOL)

    return Query("verify", run, (True,) * 5, lambda r: tuple(c.passed for c in r.checks) + (r.passed,))


def cli_bound_query(path: str, k: int, edges, alpha: int | None = None,
                    kind: str = "cli-bound", options: tuple[str, ...] = ()) -> Query:
    """`kshg bound` on a file; `alpha` defaults to subset enumeration."""
    if alpha is None:
        alpha = alpha_by_subsets(k, edges)

    def answer(raw):
        code, out, _ = raw
        rep = report(out)
        return (code, tuple(rep), int(rep["classical_bound"]), int(rep["independence"]),
                witness_ok(edges, alpha, rep["witness"]))

    return Query(kind, lambda: run_cli(["bound", path, *options]),
                 (0, BOUND_KEYS, 2 * sum(w for _, _, w in edges) + alpha, alpha, True), answer)


def cli_quantum_query(graph_path: str, rays_path: str, vectors, edges) -> Query:
    alpha = alpha_by_subsets(len(vectors), edges)
    lam_min, lam_max = spectrum(vectors)
    expected = (0, QUANTUM_KEYS, 2 * sum(w for _, _, w in edges) + alpha,
                verdict(lam_min, lam_max, alpha), lam_min, lam_max)

    def answer(raw):
        code, out, _ = raw
        rep = report(out)
        return (code, tuple(rep), int(rep["classical_bound"]), rep["classification"],
                float(rep["lambda_min"]), float(rep["lambda_max"]))

    return Query("cli-quantum", lambda: run_cli(["quantum", graph_path, "--rays", rays_path]),
                 expected, answer, close_tail(4))


def cli_expand_query(path: str, k: int, edges) -> Query:
    weight_sum = sum(w for _, _, w in edges)
    expanded_edges = sum(1 + 10 * w for _, _, w in edges)

    def answer(raw):
        code, out, _ = raw
        rep = report(out)
        return (code, tuple(rep), int(rep["expanded_vertices"]), int(rep["expanded_edges"]),
                int(rep["bases"]))

    return Query("cli-expand", lambda: run_cli(["expand", path]),
                 (0, EXPAND_KEYS, k + 6 * weight_sum, expanded_edges, 2 * weight_sum), answer)


def cli_demo_query(n: int) -> Query:
    def answer(raw):
        code, out, _ = raw
        return code, int(report(out)["vertices"]), out.splitlines()[-1]

    return Query("cli-demo", lambda: run_cli(["demo", "clifton", "--n", str(n)]),
                 (0, 6 * n + 2, "CONTRADICTION"), answer)


def exit_probe(kind: str, argv: list[str], code: int, prefix: str) -> Query:
    """A CLI run that must refuse with exit `code` and an error line starting with `prefix`."""
    return Query(kind, lambda: run_cli(argv), (code, True), lambda r: (r[0], r[2].startswith(prefix)))


def composite(kind: str, parts: list[Query]) -> Query:
    def same(answer, expected) -> bool:
        return len(answer) == len(parts) and all(
            p.same(p.answer(a), e) for p, a, e in zip(parts, answer, expected))

    return Query(kind, lambda: tuple(p.run() for p in parts),
                 tuple(p.expected for p in parts), same=same)


def cli_files(rng: random.Random, workdir: Path, count: int, prefix: str):
    """Random small graphs and ray sets written for in-process CLI runs."""
    graphs = []
    for pos in range(count):
        k = rng.randint(4, 8)
        edges = random_edges(rng, k, 2)
        graphs.append((write_hg(workdir / f"{prefix}g{pos}.hg", k, edges), k, edges))
    ray_sets = []
    for pos in range(max(1, count // 2)):
        vectors = random_unit_vectors(rng, rng.randint(4, 7))
        edges = [(i, j, reference_weight(abs(np.vdot(vectors[i], vectors[j]))))
                 for i in range(len(vectors)) for j in range(i + 1, len(vectors))]
        ray_sets.append((write_hg(workdir / f"{prefix}r{pos}.hg", len(vectors), edges),
                         write_rays(workdir / f"{prefix}r{pos}.rays", vectors), vectors, edges))
    return graphs, ray_sets


def canary(seed: int, workdir: Path) -> Query:
    """One query that calls every layer once on tiny inputs."""
    rng = random.Random(f"canary:{seed}")
    graphs, ray_sets = cli_files(rng, workdir, 1, "canary-")
    return composite("canary", [
        decomposition_query(rng, 3, 2), rays_query(rng), cross_oracle_query(rng, 3, 1),
        propagate_query(rng), verify_query(rng),
        cli_bound_query(*graphs[0]), cli_quantum_query(*ray_sets[0]),
    ])


# ---------------------------------------------------------------- workloads


@reference
def family_answer(spec) -> int:
    return kshg.family_bound(spec).total


def mis_lattice(rng: random.Random, workdir: Path, scale: Scale) -> list[Query]:
    queries = []
    for family, mx, my, w in scale.lattices:
        spec = kshg.FamilySpec(family, mx=mx, my=my, weights=w)
        h = kshg.generate(spec)

        def run(k=h.vertex_count, edges=edge_triples(h)):
            h = hypergraph(k, edges)
            g = kshg.expand(h)
            return kshg.mis_oracle(g, max_vertices=MIS_LIMIT), kshg.classical_bound(h).total

        queries.append(Query(f"mis-{family}-{mx}x{my}-w{w}", run, (family_answer(spec),) * 2))
    return queries


def bound_sparse(rng: random.Random, workdir: Path, scale: Scale) -> list[Query]:
    queries = []
    for family, k in scale.sparse:
        spec = kshg.FamilySpec(family, k=k, weights=1)
        h = kshg.generate(spec)
        edges = edge_triples(h)
        path = write_hg(workdir / f"{family}-{k}.hg", h.vertex_count, edges)
        fb = kshg.family_bound(spec)
        alpha = fb.independence_term

        def answer_lib(b, edges=edges, alpha=alpha):
            return b.total, len(b.witness) == alpha and is_independent(edges, b.witness)

        queries.append(Query(f"core-{family}-{k}",
                             lambda n=h.vertex_count, edges=edges:
                                 kshg.classical_bound(hypergraph(n, edges), max_vertices=MIS_LIMIT),
                             (fb.total, True), answer_lib))
        queries.append(cli_bound_query(path, h.vertex_count, edges, alpha, f"cli-bound-{family}-{k}",
                                       ("--max-vertices", str(MIS_LIMIT))))
    spec = kshg.FamilySpec("linear", k=scale.expansion_path, weights=1)
    h = kshg.generate(spec)

    def run(k=h.vertex_count, edges=edge_triples(h)):
        return kshg.mis_oracle(kshg.expand(hypergraph(k, edges)), max_vertices=MIS_LIMIT)

    queries.append(Query(f"mis-linear-{scale.expansion_path}", run, family_answer(spec)))
    return queries


def enumerate_(rng: random.Random, workdir: Path, scale: Scale) -> list[Query]:
    queries = []
    for family, k, w in scale.enumerated:
        spec = kshg.FamilySpec(family, k=k, weights=w)
        perm = list(range(k))
        rng.shuffle(perm)  # relabel the cores: same answer and walk length, new expansion order
        edges = [(min(perm[e.i], perm[e.j]), max(perm[e.i], perm[e.j]), e.weight)
                 for e in kshg.generate(spec).edges]

        def run(k=k, edges=edges):
            h = hypergraph(k, edges)
            g = kshg.expand(h)
            return (kshg.brute_force_max(g), kshg.mis_oracle(g, max_vertices=MIS_LIMIT),
                    kshg.classical_bound(h).total)

        queries.append(Query(f"brute-{family}-{k}-w{w}", run, (family_answer(spec),) * 3))
    n = scale.edge_weight
    queries.append(Query(f"edge-observable-w{n}",
                         lambda: kshg.max_edge_observable(kshg.expand_hyper_edge(n)), 2 * n))
    return queries


def batch_small(rng: random.Random, workdir: Path, scale: Scale) -> list[Query]:
    """`batch_per_kind` queries of each kind. No traffic mix is known, so the
    kinds have equal counts; the CLI kind cycles through its commands, and
    the two kinds whose cost grows fast with size cycle through fixed sizes."""
    graphs, ray_sets = cli_files(rng, workdir, 16, "")
    cli_makers = itertools.cycle((
        lambda: cli_bound_query(*rng.choice(graphs)),
        lambda: cli_quantum_query(*rng.choice(ray_sets)),
        lambda: cli_expand_query(*rng.choice(graphs)),
        lambda: cli_demo_query(rng.randint(1, 4)),
    ))
    decomposition_sizes = itertools.cycle(DECOMPOSITION_SIZES)
    cross_sizes = itertools.cycle(CROSS_ORACLE_SIZES)
    makers: tuple[Callable[[], Query], ...] = (
        lambda: decomposition_query(rng, *next(decomposition_sizes)),
        lambda: rays_query(rng),
        lambda: cross_oracle_query(rng, *next(cross_sizes)),
        lambda: propagate_query(rng),
        lambda: verify_query(rng),
        lambda: next(cli_makers)(),
    )
    queries = [make() for make in makers for _ in range(scale.batch_per_kind)]

    # Fixed contract probes. The 2,000-vertex path is a known defect of the
    # seed commit (RecursionError escapes `kshg bound`), so it fails there.
    torus = kshg.generate(kshg.FamilySpec("torus-lattice", mx=5, my=5, weights=1))
    torus_file = write_hg(workdir / "torus5x5.hg", torus.vertex_count, edge_triples(torus))
    path_spec = kshg.FamilySpec("linear", k=2000, weights=0)
    path = kshg.generate(path_spec)
    path_file = write_hg(workdir / "path2000.hg", path.vertex_count, edge_triples(path))
    malformed = workdir / "malformed.hg"
    malformed.write_text("vertices 3\nedge 1 2\n", encoding="utf-8")
    heavy_file = write_hg(workdir / "heavy.hg", 2, [(0, 1, scale.heavy_weight)])

    def answer_path(raw):
        code, out, _ = raw
        return code, report(out).get("classical_bound")

    queries += [
        exit_probe("probe-mis-capacity", ["mis", torus_file], 2, "capacity error:"),
        exit_probe("probe-malformed", ["bound", str(malformed)], 1, "error:"),
        Query("probe-path-bound", lambda: run_cli(["bound", path_file, "--max-vertices", "5000"]),
              (0, str(family_answer(path_spec))), answer_path),
        exit_probe("probe-heavy-brute", ["brute", heavy_file], 2, "capacity error:"),
    ]
    return queries


WORKLOADS: dict[str, Callable[[random.Random, Path, Scale], list[Query]]] = {
    "mis-lattice": mis_lattice,
    "bound-sparse": bound_sparse,
    "enumerate": enumerate_,
    "batch-small": batch_small,
}


def setup(name: str, seed: int, workdir: Path, scale: Scale = FULL) -> list[Query]:
    """One pass of `name`, in seed-shuffled order."""
    rng = random.Random(f"{name}:{seed}")
    queries = WORKLOADS[name](rng, workdir, scale)
    rng.shuffle(queries)
    return queries
