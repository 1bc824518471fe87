"""Expansion of weighted hyper-edges into an orthogonality graph.

A weight-n edge unfolds into a gadget of 6n+2 rays: two chains of
intermediate rays descending from the endpoints (kinds 'p' and 'q', levels
n-1 down to 0) plus a bridging pair per chain and level (kinds 'a+', 'a-'
on the p side, 'b+', 'b-' on the q side). Each level contributes two
complete orthonormal bases, 10 orthogonality edges, and wires the gadget so
that valuing both endpoints 1 forces the orthogonal pair (p0, q0) to 1 as
well. Weight 0 contributes a single plain edge.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from . import _indset
from .errors import CapacityError, ValidationError
from .hypergraph import DEFAULT_MIS_LIMIT, HyperGraph, check_search_capacity

DEFAULT_BIT_LIMIT = 30
# Largest score matrix of the exhaustive enumeration, in float32 entries
# (256 KB); larger blocks cost peak memory and gain little speed.
ENUM_BLOCK_ENTRIES = 1 << 16
# At most 2^12 low-half states, so each block scores at least 16 high-half states.
ENUM_LOW_BITS = 12

AUX_KINDS = ("p", "q", "a+", "a-", "b+", "b-")


@dataclass(frozen=True)
class CoreVertex:
    """Expanded-graph vertex standing for an original hyper-graph vertex."""

    index: int


@dataclass(frozen=True)
class AuxVertex:
    """Auxiliary vertex owned by one hyper-edge.

    Chain kinds 'p' and 'q' carry levels 0..n-1; bridging kinds 'a+', 'a-',
    'b+', 'b-' carry levels 1..n, where n is the owning edge's weight.
    """

    edge: int
    kind: str
    level: int

    def __post_init__(self) -> None:
        if self.kind not in AUX_KINDS:
            raise ValidationError(f"unknown auxiliary vertex kind {self.kind!r}")


ExpandedVertex = CoreVertex | AuxVertex


def vertex_label(v: ExpandedVertex) -> str:
    """Display label: cores are P<i> (1-based), aux are e<edge>:<kind><level>."""
    if isinstance(v, CoreVertex):
        return f"P{v.index + 1}"
    return f"e{v.edge}:{v.kind}{v.level}"


@dataclass(frozen=True)
class Fragment:
    """Bookkeeping for one hyper-edge inside an expanded graph.

    `vertex_indices` lists the two endpoint cores followed by the auxiliary
    vertices in construction order, matching the vertex order of the
    standalone graph built by `expand_hyper_edge` for the same weight.
    """

    edge_id: int
    endpoints: tuple[int, int]
    weight: int
    vertex_indices: tuple[int, ...]
    basis_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.vertex_indices) != 2 + 6 * self.weight:
            raise ValidationError(
                f"fragment of weight {self.weight} must list {2 + 6 * self.weight} vertices"
            )
        if len(self.basis_indices) != 2 * self.weight:
            raise ValidationError(
                f"fragment of weight {self.weight} must reference {2 * self.weight} bases"
            )


@dataclass(frozen=True, eq=False)
class ExpandedGraph:
    """Plain orthogonality graph with role metadata and basis triangles."""

    vertices: tuple[ExpandedVertex, ...]
    edges: frozenset[tuple[int, int]]
    bases: tuple[tuple[int, int, int], ...]
    fragments: tuple[Fragment, ...] = ()

    def __post_init__(self) -> None:
        n = len(self.vertices)
        for i, j in self.edges:
            if not (0 <= i < j < n):
                raise ValidationError(f"edge ({i}, {j}) is not an ordered pair of distinct vertices")
        for triple in self.bases:
            if len(set(triple)) != 3:
                raise ValidationError(f"basis {triple} must name three distinct vertices")
            a, b, c = sorted(triple)
            for pair in ((a, b), (a, c), (b, c)):
                if pair not in self.edges:
                    raise ValidationError(f"basis {triple} is not a triangle: missing edge {pair}")

    @cached_property
    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in self.vertices]
        for i, j in self.sorted_edges:
            out[i].append(j)
            out[j].append(i)
        return tuple(tuple(sorted(nb)) for nb in out)

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        masks = [0] * len(self.vertices)
        for i, j in self.edges:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        return tuple(masks)

    @cached_property
    def bases_of_vertex(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in self.vertices]
        for pos, triple in enumerate(self.bases):
            for v in triple:
                out[v].append(pos)
        return tuple(tuple(b) for b in out)

    @cached_property
    def core_indices(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.vertices) if isinstance(v, CoreVertex))

    @cached_property
    def _aux_lookup(self) -> dict[tuple[int, str, int], int]:
        return {
            (v.edge, v.kind, v.level): i
            for i, v in enumerate(self.vertices)
            if isinstance(v, AuxVertex)
        }

    def aux_index(self, edge_id: int, kind: str, level: int) -> int:
        try:
            return self._aux_lookup[(edge_id, kind, level)]
        except KeyError:
            raise ValidationError(
                f"no auxiliary vertex e{edge_id}:{kind}{level} in this graph"
            ) from None


@dataclass(frozen=True)
class Assignment:
    """A 0/1 value per expanded-graph vertex."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        for v in values:
            if v not in (0, 1):
                raise ValidationError(f"assignment values must be 0 or 1, got {v!r}")

    def __len__(self) -> int:
        return len(self.values)


def _pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _gadget(
    edge_id: int,
    weight: int,
    core_p: int,
    core_q: int,
    first_aux: int,
) -> tuple[list[AuxVertex], list[tuple[int, int]], list[tuple[int, int, int]], tuple[int, ...]]:
    """Vertices, edges and bases of one edge gadget.

    Auxiliary construction order: p chain levels 0..n-1, q chain levels
    0..n-1, then per level 1..n the bridging four (a+, a-, b+, b-).
    """
    if weight == 0:
        return [], [_pair(core_p, core_q)], [], (core_p, core_q)
    aux: list[AuxVertex] = []
    index: dict[tuple[str, int], int] = {}
    cursor = first_aux

    def add(kind: str, level: int) -> None:
        nonlocal cursor
        index[(kind, level)] = cursor
        aux.append(AuxVertex(edge_id, kind, level))
        cursor += 1

    for level in range(weight):
        add("p", level)
    for level in range(weight):
        add("q", level)
    for level in range(1, weight + 1):
        for kind in ("a+", "a-", "b+", "b-"):
            add(kind, level)

    def chain_p(level: int) -> int:
        return core_p if level == weight else index[("p", level)]

    def chain_q(level: int) -> int:
        return core_q if level == weight else index[("q", level)]

    edges = [_pair(chain_p(0), chain_q(0))]
    bases = []
    for level in range(1, weight + 1):
        ap = index[("a+", level)]
        am = index[("a-", level)]
        bp = index[("b+", level)]
        bm = index[("b-", level)]
        edges += [
            _pair(chain_p(level - 1), ap),
            _pair(chain_p(level - 1), bp),
            _pair(ap, bp),
            _pair(chain_q(level - 1), am),
            _pair(chain_q(level - 1), bm),
            _pair(am, bm),
            _pair(chain_p(level), ap),
            _pair(chain_p(level), am),
            _pair(chain_q(level), bp),
            _pair(chain_q(level), bm),
        ]
        bases.append(tuple(sorted((chain_p(level - 1), ap, bp))))
        bases.append(tuple(sorted((chain_q(level - 1), am, bm))))
    order = (core_p, core_q) + tuple(range(first_aux, cursor))
    return aux, edges, bases, order


def expand_hyper_edge(weight: int, edge_id: int = 0) -> ExpandedGraph:
    """Standalone gadget for one hyper-edge; the cores are vertices 0 and 1."""
    if weight < 0:
        raise ValidationError(f"hyper-edge weight must be non-negative, got {weight}")
    aux, edges, bases, order = _gadget(edge_id, weight, 0, 1, 2)
    fragment = Fragment(edge_id, (0, 1), weight, order, tuple(range(len(bases))))
    vertices: tuple[ExpandedVertex, ...] = (CoreVertex(0), CoreVertex(1), *aux)
    return ExpandedGraph(vertices, frozenset(edges), tuple(bases), (fragment,))


def expand(h: HyperGraph) -> ExpandedGraph:
    """Expand every hyper-edge of `h`; cores share vertices, gadgets do not."""
    vertices: list[ExpandedVertex] = [CoreVertex(i) for i in range(h.vertex_count)]
    edges: list[tuple[int, int]] = []
    bases: list[tuple[int, int, int]] = []
    fragments: list[Fragment] = []
    cursor = h.vertex_count
    for edge_id, e in enumerate(h.edges):
        aux, gadget_edges, gadget_bases, order = _gadget(edge_id, e.weight, e.i, e.j, cursor)
        first_basis = len(bases)
        vertices.extend(aux)
        edges.extend(gadget_edges)
        bases.extend(gadget_bases)
        cursor += len(aux)
        fragments.append(
            Fragment(edge_id, (e.i, e.j), e.weight, order, tuple(range(first_basis, len(bases))))
        )
    return ExpandedGraph(tuple(vertices), frozenset(edges), tuple(bases), tuple(fragments))


def evaluate(g: ExpandedGraph, a: Assignment) -> int:
    """Sum of vertex values minus the sum of edge products, as an exact integer."""
    if len(a) != len(g.vertices):
        raise ValidationError(
            f"assignment covers {len(a)} vertices but the graph has {len(g.vertices)}"
        )
    values = a.values
    total = sum(values)
    for i, j in g.sorted_edges:
        total -= values[i] * values[j]
    return total


def evaluate_edge_observable(fragment: ExpandedGraph, a: Assignment) -> int:
    """`evaluate` minus the two endpoint values, on a single-edge expansion."""
    cores = fragment.core_indices
    if len(cores) != 2:
        raise ValidationError(
            f"edge observable needs a single-edge expansion with 2 cores, found {len(cores)}"
        )
    return evaluate(fragment, a) - a.values[cores[0]] - a.values[cores[1]]


def _bits(values, width: int) -> np.ndarray:
    """One float32 0/1 row per value: its low `width` bits, least significant first."""
    column = np.asarray(values, dtype=np.int64).reshape(-1, 1)
    return ((column >> np.arange(width)) & 1).astype(np.float32)


def _block_max(n: int, adjacency: Sequence[int], penalty: int = 0) -> int:
    """Exact max of the expression (minus penalized vertices) over all 2^n assignments.

    With the vertices split into a low half L and a high half H, the
    expression is f_L(x_L) + f_H(x_H) - x_L . (A_LH x_H). One matrix product
    scores a block of high states against every low state; each row's max
    plus f_H is the best over that high state. High states are generated
    one block at a time. float32 is exact here: every value is an integer
    of size at most n^2 < 2^24.
    """
    low = min((n + 1) // 2, ENUM_LOW_BITS)
    high = n - low
    adj = _bits(adjacency, n)
    gain = 1.0 - _bits(penalty, n)[0]

    def objective(x: np.ndarray, lo: int, hi: int) -> np.ndarray:
        return x @ gain[lo:hi] - 0.5 * ((x @ adj[lo:hi, lo:hi]) * x).sum(axis=1)

    x_low = _bits(np.arange(1 << low), low)
    table = np.vstack([x_low.T, objective(x_low, 0, low)])
    # High states carry an always-set extra top bit; `coupling` maps it onto
    # the f_L row of `table`, so one product gives f_L - x_L . (A_LH x_H).
    coupling = np.zeros((high + 1, low + 1), dtype=np.float32)
    coupling[:high, :low] = -adj[low:, :low]
    coupling[high, low] = 1.0
    chunk = ENUM_BLOCK_ENTRIES >> low
    best = 0.0
    for start in range(0, 1 << high, chunk):
        x_high = _bits(np.arange(start, min(start + chunk, 1 << high)) | (1 << high), high + 1)
        scores = (x_high @ coupling) @ table
        block = scores.max(axis=1) + objective(x_high[:, :high], low, n)
        best = max(best, float(block.max()))
    return int(best)


def expanded_vertex_count(h: HyperGraph) -> int:
    """Vertex count of `expand(h)`, known before anything is allocated."""
    return h.vertex_count + 6 * h.weight_sum


def check_enumeration_capacity(
    n: int, max_bits: int | None = None, advice: str = "; use mis_oracle instead"
) -> None:
    """Refuse to enumerate the 2^n assignments of n vertices beyond the bit limit."""
    limit = DEFAULT_BIT_LIMIT if max_bits is None else max_bits
    if n > limit:
        raise CapacityError(f"{n} vertices exceed the {limit}-bit enumeration limit{advice}")


def brute_force_max(g: ExpandedGraph, *, max_bits: int | None = None) -> int:
    """Exact maximum of `evaluate` over all assignments, by exhaustive enumeration."""
    n = len(g.vertices)
    check_enumeration_capacity(n, max_bits)
    return _block_max(n, g.adjacency_masks)


def max_edge_observable(fragment: ExpandedGraph, *, max_bits: int | None = None) -> int:
    """Exact maximum of the edge observable over all assignments."""
    cores = fragment.core_indices
    if len(cores) != 2:
        raise ValidationError(
            f"edge observable needs a single-edge expansion with 2 cores, found {len(cores)}"
        )
    n = len(fragment.vertices)
    check_enumeration_capacity(n, max_bits, advice="")
    penalty = (1 << cores[0]) | (1 << cores[1])
    return _block_max(n, fragment.adjacency_masks, penalty)


def mis_oracle(g: ExpandedGraph, *, max_vertices: int = DEFAULT_MIS_LIMIT) -> int:
    """Independence number of the expanded graph; equals `brute_force_max`.

    Flipping one endpoint of a doubly-selected edge never decreases the
    expression, so its maximum is attained on an independent set and equals
    the independence number.
    """
    check_search_capacity(len(g.vertices), max_vertices)
    return _indset.independence_number(g.adjacency_masks)


@dataclass(frozen=True)
class PropagationStep:
    """One forced valuation: reason is 'given', 'neighbor' or 'basis'."""

    vertex: int
    value: int
    reason: str
    source: int | None = None


@dataclass(frozen=True)
class Violation:
    """The constraint that ended propagation.

    kind 'edge': `vertices` are two adjacent vertices both forced to 1.
    kind 'basis': `vertices` is a basis triple forced to contain no 1.
    """

    kind: str
    vertices: tuple[int, ...]
    basis: int | None = None


@dataclass(frozen=True)
class PropagationOutcome:
    contradiction: bool
    steps: tuple[PropagationStep, ...]
    violation: Violation | None
    assignment: Assignment | None


def ks_propagate(fragment: ExpandedGraph, forced: Mapping[int, int]) -> PropagationOutcome:
    """Propagate the two value-assignment rules to a fixpoint.

    Rule 1: a vertex at 1 forces every neighbor to 0. Rule 2: a basis with
    two members at 0 forces the third to 1. No other inference is applied.
    On success the returned assignment keeps every forced value and defaults
    the untouched vertices to 0; on contradiction the ordered trace of
    forced steps ends at the violated constraint.
    """
    if not fragment.bases:
        raise ValidationError("propagation needs at least one complete basis (weight >= 1)")
    n = len(fragment.vertices)
    for v, val in forced.items():
        if not 0 <= v < n:
            raise ValidationError(f"forced vertex {v} does not exist (graph has {n} vertices)")
        if val not in (0, 1):
            raise ValidationError(f"forced value for vertex {v} must be 0 or 1, got {val!r}")

    values: dict[int, int] = {}
    steps: list[PropagationStep] = []
    queue: deque[tuple[int, int, str, int | None]] = deque(
        (v, val, "given", None) for v, val in sorted(forced.items())
    )

    def done(violation: Violation) -> PropagationOutcome:
        return PropagationOutcome(True, tuple(steps), violation, None)

    while queue:
        vertex, value, reason, source = queue.popleft()
        known = values.get(vertex)
        if known == value:
            continue
        if known is not None:
            if value == 0:
                # rule-1 push onto a vertex already at 1: both edge endpoints are 1
                return done(Violation("edge", _pair(source, vertex)))
            # rule-2 push onto a vertex already at 0: that basis holds no 1
            return done(Violation("basis", fragment.bases[source], basis=source))
        values[vertex] = value
        steps.append(PropagationStep(vertex, value, reason, source))
        if value == 1:
            for w in fragment.neighbors[vertex]:
                got = values.get(w)
                if got == 1:
                    return done(Violation("edge", _pair(vertex, w)))
                if got is None:
                    queue.append((w, 0, "neighbor", vertex))
        else:
            for b in fragment.bases_of_vertex[vertex]:
                triple = fragment.bases[b]
                zeros = [u for u in triple if values.get(u) == 0]
                if len(zeros) == 3:
                    return done(Violation("basis", triple, basis=b))
                if len(zeros) == 2:
                    open_members = [u for u in triple if values.get(u) is None]
                    if len(open_members) == 1:
                        queue.append((open_members[0], 1, "basis", b))
    full = Assignment(tuple(values.get(v, 0) for v in range(n)))
    return PropagationOutcome(False, tuple(steps), None, full)


def to_dot(g: ExpandedGraph) -> str:
    """DOT serialization; bases appear as comments since DOT has no triples."""
    lines = ["graph expansion {"]
    for pos, triple in enumerate(g.bases):
        members = " ".join(f"n{t}" for t in triple)
        lines.append(f"  // basis {pos}: {members}")
    for idx, vert in enumerate(g.vertices):
        lines.append(f'  n{idx} [label="{vertex_label(vert)}"];')
    for i, j in g.sorted_edges:
        lines.append(f"  n{i} -- n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
