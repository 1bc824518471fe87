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

import heapq
from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import _indset
from .errors import CapacityError, ValidationError
from .hypergraph import DEFAULT_MIS_LIMIT, HyperGraph, check_search_capacity

DEFAULT_BIT_LIMIT = 30
# Hard ceiling on any bit limit: `_bits` holds adjacency masks in int64.
ENUM_MAX_BITS = 62
# Largest score matrix of the exhaustive enumeration, in float32 entries
# (256 KB); larger blocks cost peak memory and gain little speed.
ENUM_BLOCK_ENTRIES = 1 << 16
# At most 2^12 low-half states, so each block scores at least 16 high-half states.
ENUM_LOW_BITS = 12
# Widest graph that `_max_sum` eliminates: its largest factor table holds
# 2^(width + 1) entries. `mis_oracle` conditions wider graphs down to it.
CORE_MAX_WIDTH = 16
# Most subproblems holding a factor that `mis_oracle` conditions a wide graph
# into; each may take a second (complete k=21 w=1 needs all 16, in 7 s).
MAX_CONDITIONED_SUBPROBLEMS = 16
# Gadget-table value of a core-state pair that no independent set allows.
_FORBIDDEN = float("-inf")

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

    `vertex_indices` maps each local vertex of the weight's gadget layout
    (see `_gadget`) to its graph vertex: the two endpoint cores, then the
    auxiliary vertices in construction order, matching the vertex order of
    the standalone graph built by `expand_hyper_edge` for the same weight.
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
        return tuple(_indset.adjacency_masks(len(self.vertices), self.edges))

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


# Layouts kept for reuse: a weight-n layout holds about 1.4 KB per unit of
# weight, so the cache retains at most 16 layouts of the weights last used.
@lru_cache(maxsize=16)
def _gadget(
    weight: int,
) -> tuple[tuple[tuple[str, int], ...], tuple[tuple[int, int], ...], tuple[tuple[int, int, int], ...]]:
    """Local layout of a weight-n gadget: auxiliary labels, edges and bases.

    The endpoint cores are local vertices 0 and 1, and auxiliary vertex t is
    local vertex 2 + t in construction order: p chain levels 0..n-1, q chain
    levels 0..n-1, then per level 1..n the bridging four (a+, a-, b+, b-).
    Every edge pair and basis triple is listed in increasing local order.
    The layout is cached and shared, so it is made of tuples only.
    """
    if weight == 0:
        return (), ((0, 1),), ()
    labels = [("p", level) for level in range(weight)]
    labels += [("q", level) for level in range(weight)]
    labels += [(kind, level) for level in range(1, weight + 1) for kind in AUX_KINDS[2:]]
    # Chain vertex at each level 0..n; level n is the endpoint core itself.
    chain_p = [*range(2, 2 + weight), 0]
    chain_q = [*range(2 + weight, 2 + 2 * weight), 1]
    edges = [(chain_p[0], chain_q[0])]
    bases = []
    for level in range(1, weight + 1):
        ap, am, bp, bm = range(4 * level + 2 * weight - 2, 4 * level + 2 * weight + 2)
        p_low, q_low = chain_p[level - 1], chain_q[level - 1]
        p_high, q_high = chain_p[level], chain_q[level]
        edges += [
            (p_low, ap), (p_low, bp), (ap, bp),
            (q_low, am), (q_low, bm), (am, bm),
            (p_high, ap), (p_high, am), (q_high, bp), (q_high, bm),
        ]
        bases += [(p_low, ap, bp), (q_low, am, bm)]
    return tuple(labels), tuple(edges), tuple(bases)


def _assemble(vertex_count: int, placements: Iterable[tuple[int, int, int, int]]) -> ExpandedGraph:
    """Place one gadget per (edge id, i, j, weight) on `vertex_count` shared cores.

    Each gadget's auxiliary vertices are appended after the previous ones,
    and its local layout is relabelled through the fragment's vertex order.
    That order increases (i < j < every new vertex), so pairs stay sorted.
    """
    vertices: list[ExpandedVertex] = [CoreVertex(i) for i in range(vertex_count)]
    edges: list[tuple[int, int]] = []
    bases: list[tuple[int, int, int]] = []
    fragments: list[Fragment] = []
    for edge_id, i, j, weight in placements:
        labels, local_edges, local_bases = _gadget(weight)
        order = (i, j, *range(len(vertices), len(vertices) + len(labels)))
        first_basis = len(bases)
        vertices.extend(AuxVertex(edge_id, kind, level) for kind, level in labels)
        edges.extend((order[s], order[t]) for s, t in local_edges)
        bases.extend((order[s], order[t], order[u]) for s, t, u in local_bases)
        fragments.append(
            Fragment(edge_id, (i, j), weight, order, tuple(range(first_basis, len(bases))))
        )
    return ExpandedGraph(tuple(vertices), frozenset(edges), tuple(bases), tuple(fragments))


def expand_hyper_edge(weight: int, edge_id: int = 0) -> ExpandedGraph:
    """Standalone gadget for one hyper-edge; the cores are vertices 0 and 1."""
    if weight < 0:
        raise ValidationError(f"hyper-edge weight must be non-negative, got {weight}")
    return _assemble(2, [(edge_id, 0, 1, weight)])


def expand(h: HyperGraph) -> ExpandedGraph:
    """Expand every hyper-edge of `h`; cores share vertices, gadgets do not."""
    return _assemble(h.vertex_count, ((pos, e.i, e.j, e.weight) for pos, e in enumerate(h.edges)))


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


def _edge_cores(fragment: ExpandedGraph) -> tuple[int, ...]:
    """The two cores of a single-edge expansion."""
    cores = fragment.core_indices
    if len(cores) != 2:
        raise ValidationError(
            f"edge observable needs a single-edge expansion with 2 cores, found {len(cores)}"
        )
    return cores


def evaluate_edge_observable(fragment: ExpandedGraph, a: Assignment) -> int:
    """`evaluate` minus the two endpoint values, on a single-edge expansion."""
    p, q = _edge_cores(fragment)
    return evaluate(fragment, a) - a.values[p] - a.values[q]


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
    """Refuse to enumerate the 2^n assignments of n vertices beyond the bit limit.

    The limit is `max_bits` (default `DEFAULT_BIT_LIMIT`), capped at `ENUM_MAX_BITS`.
    """
    if max_bits is not None and max_bits < 1:
        raise ValidationError(f"max_bits must be positive, got {max_bits}")
    limit = min(DEFAULT_BIT_LIMIT if max_bits is None else max_bits, ENUM_MAX_BITS)
    if n > limit:
        raise CapacityError(f"{n} vertices exceed the {limit}-bit enumeration limit{advice}")


def brute_force_max(g: ExpandedGraph, *, max_bits: int | None = None) -> int:
    """Exact maximum of `evaluate` over all assignments, by exhaustive enumeration."""
    n = len(g.vertices)
    check_enumeration_capacity(n, max_bits)
    return _block_max(n, g.adjacency_masks)


def max_edge_observable(fragment: ExpandedGraph, *, max_bits: int | None = None) -> int:
    """Exact maximum of the edge observable over all assignments."""
    p, q = _edge_cores(fragment)
    n = len(fragment.vertices)
    check_enumeration_capacity(n, max_bits, advice="")
    penalty = (1 << p) | (1 << q)
    return _block_max(n, fragment.adjacency_masks, penalty)


@lru_cache(maxsize=64)
def _gadget_table(weight: int) -> tuple[tuple[float, float], tuple[float, float]]:
    """T[a][b]: most independent auxiliary vertices of a weight-n gadget whose
    cores (local vertices 0 and 1) take the 0/1 states a and b.

    `_max_sum` over the layout of `_gadget`, keeping the two cores: each
    auxiliary vertex gains 1 and each layout edge forbids both its ends at
    1. An infeasible pair (weight 0: both cores at 1) is `_FORBIDDEN`.
    """
    labels, edges, _ = _gadget(weight)
    blocked = [0, 0, 0, _FORBIDDEN]
    t = _max_sum([0, 0] + [1] * len(labels), [(pair, blocked) for pair in edges], kept=2)
    return (t[0], t[2]), (t[1], t[3])


def _core_count(g: ExpandedGraph) -> int | None:
    """Number of cores when `g.fragments` describe `g` exactly, else None.

    Exactly means: the first k vertices are `CoreVertex(0..k-1)`, each
    fragment joins two distinct cores (no pair twice) and owns the next
    contiguous block of 6n vertices, every edge of its relabelled `_gadget`
    layout is in `g.edges`, and those edges are all of `g.edges`.
    """
    k = len(g.vertices) - 6 * sum(f.weight for f in g.fragments)
    if k < 0 or not all(type(v) is CoreVertex and v.index == i for i, v in enumerate(g.vertices[:k])):
        return None
    if len({f.endpoints for f in g.fragments}) != len(g.fragments):
        return None
    relabelled: list[tuple[int, int]] = []
    start = k
    for f in g.fragments:
        i, j = f.endpoints
        order = (i, j, *range(start, start + 6 * f.weight))
        if not 0 <= i < j < k or f.vertex_indices != order:
            return None
        relabelled += [(order[s], order[t]) for s, t in _gadget(f.weight)[1]]
        start += 6 * f.weight
    return k if len(relabelled) == len(g.edges) and g.edges.issuperset(relabelled) else None


def _elimination_order(n: int, pairs: Iterable[tuple[int, int]], kept: int = 0) -> list[int] | None:
    """Min-degree elimination order of the graph on n vertices, skipping the
    first `kept`, or None when eliminating would leave a vertex with more
    than `CORE_MAX_WIDTH` neighbors."""
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for i, j in pairs:
        nbrs[i].add(j)
        nbrs[j].add(i)
    heap = [(len(s), v) for v, s in enumerate(nbrs)]
    heapq.heapify(heap)
    eliminated = [v < kept for v in range(n)]
    order = []
    while heap:
        degree, v = heapq.heappop(heap)
        if eliminated[v] or degree != len(nbrs[v]):
            continue  # kept vertex or superseded entry
        if degree > CORE_MAX_WIDTH:
            return None
        eliminated[v] = True
        order.append(v)
        for u in nbrs[v]:
            nbrs[u] |= nbrs[v]
            nbrs[u] -= {u, v}
            heapq.heappush(heap, (len(nbrs[u]), u))
    return order


def _join(scope: tuple[int, ...], combined: list, bucket: list) -> list:
    """`combined`, a table over `scope`, plus every (scope, table) factor of `bucket`."""
    for s, table in bucket:
        index = [0]
        for u in scope:
            step = 1 << s.index(u) if u in s else 0
            index += [x + step for x in index]
        combined = [c + table[x] for c, x in zip(combined, index)]
    return combined


def _max_sum(
    gain: Sequence[int], factors: Sequence[tuple[tuple[int, int], list]], kept: int = 0
) -> list | None:
    """Max of sum_v gain[v] x_v plus the pair factors over 0/1 states x, as a
    table over the states of the first `kept` variables (bit v for variable
    v), or None when the factor graph is wider than `CORE_MAX_WIDTH`.

    Max-sum variable elimination: each factor is (scope, table), its table a
    list indexed by the bitmask of its scope's states, and sits in the bucket
    of its scope's earliest variable in the order; the kept variables come
    after every other, so a factor wholly inside them waits until the end.
    Eliminating v sums its bucket and its own gain over v and the rest of
    the scope, then maximises v out.
    """
    n = len(gain)
    order = _elimination_order(n, (s for s, _ in factors), kept)
    if order is None:
        return None
    position = [n] * n
    for pos, v in enumerate(order):
        position[v] = pos
    buckets: list[list[tuple[tuple[int, ...], list]]] = [[] for _ in range(n)]
    for scope, table in factors:
        buckets[min(scope, key=position.__getitem__)].append((scope, table))
    total = 0
    for v in order:
        scope = (v, *{u for s, _ in buckets[v] for u in s if u != v})
        combined = _join(scope, [0, gain[v]] * (1 << (len(scope) - 1)), buckets[v])
        rest = scope[1:]
        table = [max(a, b) for a, b in zip(combined[0::2], combined[1::2])]
        if rest:
            buckets[min(rest, key=position.__getitem__)].append((rest, table))
        else:
            total += table[0]
    start = [total]
    for v in range(kept):
        start += [x + gain[v] for x in start]
    return _join(tuple(range(kept)), start, [f for v in range(kept) for f in buckets[v]])


def _fix(gain: Sequence[int], factors: Sequence[tuple[tuple[int, int], list]], const: int,
         fixed: set[int], x: int) -> tuple[list[int], list[tuple[tuple[int, int], list]], int]:
    """The problem with every variable in `fixed` fixed at x, as (gain, factors, const).

    Each factor on a fixed variable becomes a gain on its other variable,
    plus a constant; the fixed variables keep gain 0 and no factor. Only a
    table's (1, 1) entry may be `_FORBIDDEN`, so a variable goes to 1 only
    once each neighbour it forbids is at 0.
    """
    gain = list(gain)
    for v in fixed:
        const += gain[v] * x
        gain[v] = 0
    rest = []
    for (i, j), table in factors:  # table index x_i + 2 x_j
        if i in fixed and j in fixed:
            const += table[3 * x]
        elif i in fixed:
            const += table[x]
            gain[j] += table[x + 2] - table[x]
        elif j in fixed:
            const += table[2 * x]
            gain[i] += table[2 * x + 1] - table[2 * x]
        else:
            rest.append(((i, j), table))
    return gain, rest, const


def _conditioned(
    gain: Sequence[int], factors: Sequence[tuple[tuple[int, int], list]]
) -> Iterator[tuple[list[int], list[tuple[tuple[int, int], list]], int]]:
    """(gain, factors, const) subproblems that `_max_sum` can eliminate; the
    problem's best is the max over them of const plus their own best.

    Cutset conditioning: a problem too wide to eliminate splits on its
    variable v with the most factors, fixed at 0 and at 1; at 1, each
    neighbour that v forbids is fixed at 0 too. A pending problem with a
    factor yields at least one subproblem with a factor (a too-wide problem
    has one off v), so the split raises `CapacityError` as soon as pending
    and yielded problems with a factor number more than
    `MAX_CONDITIONED_SUBPROBLEMS`.
    """
    stack = [(gain, factors, 0)]
    held = 1  # problems with a factor, pending or yielded
    while stack:
        problem = stack.pop()
        gain, factors, const = problem
        if _elimination_order(len(gain), (s for s, _ in factors)) is not None:
            yield problem
            continue
        count = [0] * len(gain)
        for scope, _ in factors:
            for u in scope:
                count[u] += 1
        v = count.index(max(count))
        forbidden = {u for scope, table in factors if v in scope and table[3] == _FORBIDDEN for u in scope}
        forbidden.discard(v)
        children = [_fix(*_fix(*problem, forbidden, 0), {v}, 1), _fix(*problem, {v}, 0)]
        held += sum(1 for _, f, _ in children if f) - 1
        if held > MAX_CONDITIONED_SUBPROBLEMS:
            raise CapacityError(
                f"conditioning the elimination down to width {CORE_MAX_WIDTH} needs more "
                f"than {MAX_CONDITIONED_SUBPROBLEMS} subproblems"
            )
        stack += children


def mis_oracle(g: ExpandedGraph, *, max_vertices: int = DEFAULT_MIS_LIMIT) -> int:
    """Independence number of the expanded graph; equals `brute_force_max`.

    Flipping one endpoint of a doubly-selected edge never decreases the
    expression, so its maximum is attained on an independent set and equals
    the independence number. A gadget meets the rest of the graph only at
    its two cores, so when the fragments describe `g` the search runs over
    the core states with one `_gadget_table` per fragment. Otherwise every
    vertex is a core and every edge a weight-0 gadget. Either problem goes
    to `_max_sum`; one wider than `CORE_MAX_WIDTH` is split by
    `_conditioned` into at most `MAX_CONDITIONED_SUBPROBLEMS` that hold a
    factor, or refused with `CapacityError` before any table is built.
    `max_vertices` limits the expanded vertex count either way.
    """
    check_search_capacity(len(g.vertices), max_vertices)
    k = _core_count(g)
    if k is None:
        (t00, t01), (t10, t11) = _gadget_table(0)
        blocked = [t00, t10, t01, t11]
        gain, factors = [1] * len(g.vertices), [(pair, blocked) for pair in g.sorted_edges]
    else:
        gain, factors = [1] * k, []
        for f in g.fragments:
            (t00, t01), (t10, t11) = _gadget_table(f.weight)
            factors.append((f.endpoints, [t00, t10, t01, t11]))
    table = _max_sum(gain, factors)
    if table is not None:
        return table[0]
    subproblems = list(_conditioned(gain, factors))  # every split before any table
    return max(const + _max_sum(part_gain, part)[0] for part_gain, part, const in subproblems)


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
