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
from operator import add
from typing import TYPE_CHECKING, ClassVar, Iterable, Iterator, Mapping, Sequence

from . import _indset
from .errors import CapacityError, ValidationError
from .hypergraph import DEFAULT_MIS_LIMIT, HyperGraph, _as_int, check_search_capacity

if TYPE_CHECKING:  # only the enumeration kernel imports numpy, when called
    import numpy as np

DEFAULT_BIT_LIMIT = 30
# Hard ceiling on any bit limit: `_block_max` holds adjacency masks in 64-bit words.
ENUM_MAX_BITS = 62
# Largest score matrix of the exhaustive enumeration, in float32 entries
# (256 KB), and a power of two. Slabs are rounded down to a power of two as
# well, so that every block of a slab is whole. Larger blocks are slower: the
# product is bound by call cost and the L2 size, and 2^17 entries took 1.3x /
# 1.5x the time of 2^16 at 22 / 26 bits (one BLAS thread, 2-core Xeon).
ENUM_BLOCK_ENTRIES = 1 << 16
# At most 2^12 low-half states, so each block scores at least 16 high-half states.
ENUM_LOW_BITS = 12
# Widest graph that `_elimination_order` plans for `_max_sum`: its widest bucket
# is two half-tables of 2^width entries. `_conditioned` splits wider graphs down to it.
CORE_MAX_WIDTH = 16
# Most subproblems holding a factor that `mis_oracle` conditions a wide graph
# into. At width 16 each takes up to about 0.1 s: complete k=21 w=1 needs all
# 16, in about 0.3 s, and torus 8x8 w=1 two, in about 0.15 s (2-core Xeon).
MAX_CONDITIONED_SUBPROBLEMS = 16
# Most expanded vertices that `_fill` lays out: one weight-166,666 edge (999,998
# vertices) fills in about 1.5 s with a 350 MB tracemalloc peak, and `kshg demo`
# on it takes about 11 s and 745 MB max RSS (2-core Xeon, Python 3.11).
EXPAND_MAX_VERTICES = 1_000_000
# Gadget-table value of a core-state pair that no independent set allows.
_FORBIDDEN = float("-inf")
# An elimination plan: each variable in order, with the positions of its later
# neighbours when it is eliminated (see `_elimination_order`).
_Plan = list[tuple[int, tuple[int, ...]]]

AUX_KINDS = ("p", "q", "a+", "a-", "b+", "b-")


@dataclass(frozen=True, slots=True)
class CoreVertex:
    """Expanded-graph vertex standing for an original hyper-graph vertex."""

    index: int


@dataclass(frozen=True, slots=True)
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

    The gadget's 6n auxiliary vertices (n the weight) are the contiguous
    block `aux` of graph indices that starts at `first`, in construction
    order (see `_place`), as in the standalone graph built by
    `expand_hyper_edge` for the same weight.
    """

    edge_id: int
    endpoints: tuple[int, int]
    weight: int
    first: int

    @property
    def aux(self) -> range:
        """Graph indices of the auxiliary vertices: 6 per unit of weight."""
        return range(self.first, self.first + 6 * self.weight)


@dataclass(frozen=True, eq=False)
class ExpandedGraph:
    """Plain orthogonality graph with role metadata and basis triangles.

    The constructor (and so `dataclasses.replace`) checks the edges and
    bases. `expand` and `expand_hyper_edge` build through `_assemble`
    instead, which skips that check, records the core count and holds only
    the fragments and the three counts `vertex_count`, `edge_count` and
    `basis_count`, in O(1) per edge at any weight: `vertices`, `edges` and
    `bases` are filled together, by `_fill` through `__getattr__`, the
    first time any of them is read, and a graph of more than
    `EXPAND_MAX_VERTICES` vertices refuses that fill. `mis_oracle`,
    `evaluate` (and so the decomposition check), `evaluate_edge_observable`,
    `adjacency_masks` (and so `brute_force_max`), `max_edge_observable` and
    the counts read only the fragments and the core count, so they never
    fill a graph from `expand`. On any other graph the counts are the
    lengths of the three fields. `neighbors` is built from `edges`;
    `sorted_edges` is only for readers whose output follows the edge order.
    """

    vertices: tuple[ExpandedVertex, ...]
    edges: frozenset[tuple[int, int]]
    bases: tuple[tuple[int, int, int], ...]
    fragments: tuple[Fragment, ...] = ()
    # Core count of a graph from `_assemble`, whose fragments describe it and
    # whose cores are its first vertices; None for any other graph, which
    # `mis_oracle` solves over every vertex.
    _assembled_cores: ClassVar[int | None] = None

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

    def __getattr__(self, name: str):
        # Python calls this only for a name missing from the instance dict: a
        # constructed graph has its fields there from the start, and `_fill`
        # puts all three there, so later reads are plain attribute reads.
        if name in ("vertices", "edges", "bases") and self._assembled_cores is not None:
            return _fill(self)[name]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    @cached_property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @cached_property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def basis_count(self) -> int:
        return len(self.bases)

    @cached_property
    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for i, j in self.edges:
            out[i].append(j)
            out[j].append(i)
        return tuple(tuple(sorted(nb)) for nb in out)

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        if self._assembled_cores is None:
            return tuple(_indset.adjacency_masks(self.vertex_count, self.edges))
        # Each fragment's edges, placed by `_place` as `_fill` places them but
        # without the vertices or the edge set, so the graph is not filled; past
        # the expansion limit it refuses as the fill would.
        check_expansion_limit(self)
        edges: list[tuple[int, int]] = []
        for f in self.fragments:
            _place(f.weight, *f.endpoints, f.first, edges, [])
        return tuple(_indset.adjacency_masks(self.vertex_count, edges))

    @cached_property
    def bases_of_vertex(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for pos, triple in enumerate(self.bases):
            for v in triple:
                out[v].append(pos)
        return tuple(tuple(b) for b in out)


@dataclass(frozen=True)
class Assignment:
    """A 0/1 value per expanded-graph vertex."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        values = tuple(self.values)
        try:
            # bytes() reads each value through `operator.index`, in C
            plain = bytes(values)
        except (TypeError, ValueError):  # a value that is no integer, or is outside 0..255
            plain = None
        if plain is None or plain.translate(None, b"\0\1"):
            plain = [_as_int(v, "assignment value") for v in values]
            bad = next((v for v in plain if v not in (0, 1)), None)
            if bad is not None:
                raise ValidationError(f"assignment values must be 0 or 1, got {bad!r}")
        object.__setattr__(self, "values", tuple(plain))

    def __len__(self) -> int:
        return len(self.values)


def _pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _place(weight: int, i: int, j: int, first: int,
           edges: list[tuple[int, int]], bases: list[tuple[int, int, int]]) -> None:
    """Append the edges and bases of a weight-n gadget on the cores i < j
    whose auxiliary vertices are the graph indices from `first` > j on.

    The auxiliary vertices are in construction order: p chain levels
    0..n-1, q chain levels 0..n-1, then per level 1..n the bridging four
    (a+, a-, b+, b-); level n of each chain is its endpoint core. The chain
    bottoms (p0, q0) are joined, and every level lays the same 10 edges and
    2 bases between its bridging four and the chain vertices of its own
    level and the level below, at an offset of 4 per level. Weight 0 is the
    plain edge (i, j). Every edge pair and basis triple is listed in
    increasing order, no edge twice, and every basis is a triangle of the
    listed edges; `_assemble` relies on this, and the tests check it for
    many weights.
    """
    # Chain vertex at each level 0..n; level n is the endpoint core itself.
    chain_p = [*range(first, first + weight), i]
    chain_q = [*range(first + weight, first + 2 * weight), j]
    edges.append((chain_p[0], chain_q[0]))
    # The a+ of each level 1..n; the level's a-, b+ and b- follow it.
    for level, ap in enumerate(range(first + 2 * weight, first + 6 * weight, 4), start=1):
        am, bp, bm = ap + 1, ap + 2, ap + 3
        p_low, q_low = chain_p[level - 1], chain_q[level - 1]
        p_high, q_high = chain_p[level], chain_q[level]
        edges += [
            (p_low, ap), (p_low, bp), (ap, bp),
            (q_low, am), (q_low, bm), (am, bm),
            (p_high, ap), (p_high, am), (q_high, bp), (q_high, bm),
        ]
        bases += [(p_low, ap, bp), (q_low, am, bm)]


# Local views kept for reuse: `evaluate` reads one per fragment on every call.
# A view holds about 1 KB per unit of weight.
@lru_cache(maxsize=16)
def _gadget(weight: int) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int, int], ...]]:
    """Local view of a weight-n gadget, its edges and bases, placed by
    `_place` on the cores 0 and 1 with auxiliary vertex t at local vertex
    2 + t. The view is cached and shared, so it is made of tuples only.
    """
    edges: list[tuple[int, int]] = []
    bases: list[tuple[int, int, int]] = []
    _place(weight, 0, 1, 2, edges, bases)
    return tuple(edges), tuple(bases)


def _aux_vertices(edge_id: int, weight: int) -> list[AuxVertex]:
    """The 6n auxiliary vertices of the weight-n edge `edge_id`, in the
    construction order of `_place`.

    Every kind is one of `AUX_KINDS`, so each vertex skips the constructor
    and its kind check: its slots are filled directly, at about half the
    cost.
    """
    labels = [(kind, level) for kind in AUX_KINDS[:2] for level in range(weight)]
    labels += [(kind, level) for level in range(1, weight + 1) for kind in AUX_KINDS[2:]]
    set_edge, set_kind, set_level = AuxVertex.edge.__set__, AuxVertex.kind.__set__, AuxVertex.level.__set__
    vertices = []
    for kind, level in labels:
        v = object.__new__(AuxVertex)
        set_edge(v, edge_id)
        set_kind(v, kind)
        set_level(v, level)
        vertices.append(v)
    return vertices


def _assemble(vertex_count: int, placements: Iterable[tuple[int, int, int, int]]) -> ExpandedGraph:
    """Place one gadget per (edge id, i, j, weight) on `vertex_count` shared cores.

    The placements join distinct core pairs i < j < `vertex_count`. Each
    gadget's auxiliary block starts where the previous one ends, so every
    new vertex comes after both cores, pairs stay sorted and distinct and
    bases stay triangles: the graph is valid and its fragments describe it,
    so it is built with its core count and unchecked. Only the fragments
    and the three counts are built here, in O(1) per placement at any
    weight: a weight-w edge has 6w auxiliary vertices, 10w + 1 edges and 2w
    bases. `_fill` lays out the vertices, edges and bases from the
    fragments when one is first read, through `ExpandedGraph.__getattr__`.
    """
    # The fragments and the graph are right by construction, so their fields
    # are written directly, as the frozen dataclasses' generated __init__
    # would, without the constructors' checks: a fragment costs about half.
    fragments: list[Fragment] = []
    weight_sum = 0
    for edge_id, i, j, weight in placements:
        f = object.__new__(Fragment)
        vars(f).update(edge_id=edge_id, endpoints=(i, j), weight=weight, first=vertex_count + 6 * weight_sum)
        fragments.append(f)
        weight_sum += weight
    g = object.__new__(ExpandedGraph)
    vars(g).update(fragments=tuple(fragments), _assembled_cores=vertex_count,
                   vertex_count=vertex_count + 6 * weight_sum, edge_count=10 * weight_sum + len(fragments),
                   basis_count=2 * weight_sum)
    return g


def check_expansion_limit(g: ExpandedGraph) -> None:
    """Refuse a graph of more than `EXPAND_MAX_VERTICES` vertices, as `_fill`
    does before it allocates: a caller that would fill a graph only after
    other work, or that reads only its counts, checks first, so it refuses
    as the fill would."""
    if g.vertex_count > EXPAND_MAX_VERTICES:
        raise CapacityError(f"{g.vertex_count} vertices exceed the expansion limit of {EXPAND_MAX_VERTICES}")


def _fill(g: ExpandedGraph) -> dict:
    """Write the vertices, edges and bases of a graph from `_assemble`: the
    cores, then each fragment's auxiliary vertices, and its edges and bases
    placed by `_place` at the fragment's cores and first index. Returns the
    graph's instance dict. This is the only code that allocates per
    expanded vertex, so it refuses a graph of more than
    `EXPAND_MAX_VERTICES` vertices before it allocates any."""
    check_expansion_limit(g)
    vertices: list[ExpandedVertex] = [CoreVertex(i) for i in range(g._assembled_cores)]
    edges: list[tuple[int, int]] = []
    bases: list[tuple[int, int, int]] = []
    for f in g.fragments:
        vertices += _aux_vertices(f.edge_id, f.weight)
        _place(f.weight, *f.endpoints, f.first, edges, bases)
    fields = vars(g)
    fields.update(vertices=tuple(vertices), edges=frozenset(edges), bases=tuple(bases))
    return fields


def expand_hyper_edge(weight: int, edge_id: int = 0) -> ExpandedGraph:
    """Standalone gadget for one hyper-edge; the cores are vertices 0 and 1."""
    weight, edge_id = _as_int(weight, "hyper-edge weight"), _as_int(edge_id, "edge id")
    if weight < 0:
        raise ValidationError(f"hyper-edge weight must be non-negative, got {weight}")
    return _assemble(2, [(edge_id, 0, 1, weight)])


def expand(h: HyperGraph) -> ExpandedGraph:
    """Expand every hyper-edge of `h`; cores share vertices, gadgets do not."""
    return _assemble(h.vertex_count, ((pos, e.i, e.j, e.weight) for pos, e in enumerate(h.edges)))


def evaluate(g: ExpandedGraph, a: Assignment) -> int:
    """Sum of vertex values minus the sum of edge products, as an exact integer.

    On a graph from `expand` or `expand_hyper_edge`, whose fragments
    describe it, each fragment's products are summed over the cached local
    view of `_gadget`, valued (values[i], values[j], *values[aux]) for its
    cores i and j, so such a graph is never filled. Any other graph is
    valued by its own edges; an exact integer sum needs no edge order.
    """
    if len(a) != g.vertex_count:
        raise ValidationError(
            f"assignment covers {len(a)} vertices but the graph has {g.vertex_count}"
        )
    values = a.values
    total = sum(values)
    if g._assembled_cores is None:
        for i, j in g.edges:
            total -= values[i] * values[j]
        return total
    for frag in g.fragments:
        local_edges, _ = _gadget(frag.weight)
        i, j = frag.endpoints
        local = (values[i], values[j], *values[frag.aux.start : frag.aux.stop])
        total -= sum(local[s] * local[t] for s, t in local_edges)
    return total


def _edge_cores(fragment: ExpandedGraph) -> Sequence[int]:
    """The two cores of a single-edge expansion. A graph from `_assemble`
    numbers its cores first, so they are read from its core count and the
    graph is not filled; any other graph is scanned for its `CoreVertex`es."""
    if fragment._assembled_cores is not None:
        cores: Sequence[int] = range(fragment._assembled_cores)
    else:
        cores = [i for i, v in enumerate(fragment.vertices) if isinstance(v, CoreVertex)]
    if len(cores) != 2:
        raise ValidationError(
            f"edge observable needs a single-edge expansion with 2 cores, found {len(cores)}"
        )
    return cores


def evaluate_edge_observable(fragment: ExpandedGraph, a: Assignment) -> int:
    """`evaluate` minus the two endpoint values, on a single-edge expansion.

    On a graph from `expand` or `expand_hyper_edge` the cores come from its
    core count, so nothing is filled: at any size it answers or refuses as
    `evaluate` does, once the graph has exactly 2 cores.
    """
    p, q = _edge_cores(fragment)
    return evaluate(fragment, a) - a.values[p] - a.values[q]


def _aligned_float32(shape: tuple[int, int]) -> np.ndarray:
    """An uninitialised float32 array that starts on a 64-byte boundary."""
    import numpy as np

    nbytes = shape[0] * shape[1] * 4
    raw = np.empty(nbytes + 64, dtype=np.uint8)
    offset = -raw.ctypes.data % 64
    return raw[offset : offset + nbytes].view(np.float32).reshape(shape)


def _block_max(n: int, adjacency: Sequence[int]) -> int:
    """Exact max over all 2^n assignments of the expression: the vertices at
    1 minus the edges with both ends at 1.

    The vertices split into a low half L, the highest-labelled half (at
    most `ENUM_LOW_BITS` vertices), and a high half H. The expression is
    f_L(x_L) + f_H(x_H) - x_L . (A_LH x_H), and only the boundary B of H,
    its vertices with a neighbour in L, meets L: A_LH x_H = A_LB x_B. So a
    high state's best over the low states is f_H(x_H) + g(x_B), where
    g(x_B) is the max over x_L of f_L(x_L) - x_L . (A_LB x_B), and high
    states with equal B bits share g. A graph from `_assemble` numbers its
    cores first, so L is the last gadgets' auxiliary vertices and B is
    mostly a few cores.

    The expression does not depend on the labels, so H is relabelled with B
    in the low bits of the high index and the rest of H above them. The
    high states are walked in slabs of a power of two of states, each of
    whole blocks, so a slab runs through min(slab, 2^|B|) consecutive values
    of x_B, each as often as the others, and only those are scored: per
    block, one matrix product scores their coupled rows (-x_B A_BL beside a
    constant 1 that picks f_L) against every low state and one row max
    keeps g. When 2^|B| states fit in a slab, every slab runs through all
    of them, so g is scored once. A slab's best is the max of f_H plus g,
    broadcast over the slab reshaped to one row per repeat of x_B. Every
    state is still valued exactly, and float32 is exact here: every value
    is an integer of size at most n^2 < 2^24. The kernel reads only the
    adjacency masks, so it shares nothing with `mis_oracle`.
    """
    import numpy as np

    # Nested, so that numpy is imported once per call: a helper that imported
    # it for each use cost 2-3% of the walk.
    def bits(values, width: int) -> np.ndarray:
        """One float32 0/1 row per value: its low `width` bits, least significant first."""
        octets = np.asarray(values, dtype="<u8").reshape(-1, 1).view(np.uint8)
        return np.unpackbits(octets, axis=1, count=width, bitorder="little").astype(np.float32)

    low = min((n + 1) // 2, ENUM_LOW_BITS)
    high = n - low
    low_half = (1 << n) - (1 << high)
    boundary = [v for v in range(high) if adjacency[v] & low_half]
    interior = [v for v in range(high) if not adjacency[v] & low_half]
    width = len(boundary)
    order = [*boundary, *interior, *range(high, n)]
    adj = bits(adjacency, n)[np.ix_(order, order)]
    # The row sums of x are products with a ones vector: `x.sum(axis=1)` ran
    # 1.5-4% slower over the whole walk.
    ones = np.ones(n, dtype=np.float32)

    def objective(x: np.ndarray, lo: int, hi: int) -> np.ndarray:
        quadratic = x @ adj[lo:hi, lo:hi]
        quadratic *= x
        return x @ ones[lo:hi] - 0.5 * quadratic.sum(axis=1)

    # `table`, `scores` and `coupled` start on 64-byte boundaries wherever the
    # heap puts their buffers: at other offsets the product and row max ran
    # 6-20% slower per block, so the time followed the heap's state.
    table = _aligned_float32((low + 1, 1 << low))
    table[:low] = bits(np.arange(1 << low), low).T
    table[low] = objective(table[:low].T, high, n)
    coupling = -adj[:width, high:]
    states = 1 << high
    chunk = min(ENUM_BLOCK_ENTRIES >> low, states)
    # Whole blocks per slab, as many as keep a slab's bit rows and coupled
    # rows (at most n + 1 entries per state) within a quarter of a score matrix,
    # rounded down to a power of two: slabs four times as large held more
    # memory and ran no faster.
    slab = max(ENUM_BLOCK_ENTRIES // (4 * (n + 1)) // chunk, 1) * chunk
    slab = min(1 << (slab.bit_length() - 1), states)
    # Values of x_B per slab, and states per block: both powers of two, so
    # every block is whole and every row it reads is written first.
    distinct = min(slab, 1 << width)
    block = min(chunk, distinct)
    # Buffers for one call, refilled per scoring and per block: a fresh 256 KB
    # matrix per block may be page-faulted in anew each time, as the malloc
    # heap's state has it.
    scores = _aligned_float32((block, 1 << low))
    coupled = _aligned_float32((distinct, low + 1))
    # The last column stays 1 and picks the f_L row of `table`, so one
    # product gives f_L - x_L . (A_LB x_B).
    coupled[:, low] = 1.0
    g = np.empty(distinct, dtype=np.float32)

    def score(first: int) -> None:
        """g of the `distinct` values of x_B from `first` on."""
        np.matmul(bits(np.arange(first, first + distinct), width), coupling, out=coupled[:, :low])
        for r in range(0, distinct, block):
            np.matmul(coupled[r : r + block], table, out=scores).max(axis=1, out=g[r : r + block])

    scored = None  # the first value of x_B that `g` holds

    # A function per slab, so that one slab's bit rows are freed before the
    # next slab's are built.
    def slab_max(start: int) -> float:
        nonlocal scored
        first = start % (1 << width)
        if first != scored:
            score(first)
            scored = first
        f_high = objective(bits(np.arange(start, start + slab), high), 0, high)
        return float((f_high.reshape(-1, distinct) + g).max())

    return int(max(slab_max(start) for start in range(0, states, slab)))


def check_enumeration_capacity(
    n: int, max_bits: int | None = None, advice: str = "; use mis_oracle instead"
) -> None:
    """Refuse to enumerate the 2^n assignments of n vertices beyond the bit limit.

    The limit is `max_bits` (default `DEFAULT_BIT_LIMIT`), capped at `ENUM_MAX_BITS`.
    """
    if max_bits is not None:
        max_bits = _as_int(max_bits, "max_bits")
        if max_bits < 1:
            raise ValidationError(f"max_bits must be positive, got {max_bits}")
    limit = min(DEFAULT_BIT_LIMIT if max_bits is None else max_bits, ENUM_MAX_BITS)
    if n > limit:
        raise CapacityError(f"{n} vertices exceed the {limit}-bit enumeration limit{advice}")


def brute_force_max(g: ExpandedGraph, *, max_bits: int | None = None) -> int:
    """Exact maximum of `evaluate` over all assignments, by exhaustive enumeration."""
    n = g.vertex_count
    check_enumeration_capacity(n, max_bits)
    return _block_max(n, g.adjacency_masks)


def max_edge_observable(fragment: ExpandedGraph, *, max_bits: int | None = None) -> int:
    """Exact maximum of the edge observable over all assignments.

    The observable gives the two cores no gain, only their edges, so a core
    at 0 never lowers it: the maximum is the expression's over the other
    n - 2 vertices, and the walk covers their 2^(n-2) states. All n
    vertices count against the bit limit.
    """
    n = fragment.vertex_count
    check_enumeration_capacity(n, max_bits, advice="")
    p, q = sorted(_edge_cores(fragment))
    # Each other vertex's mask with the two core bits squeezed out, so the
    # other vertices keep their order and are numbered 0..n-3.
    below_p, between = (1 << p) - 1, (1 << (q - p - 1)) - 1
    masks = [(m & below_p) | (m >> (p + 1) & between) << p | (m >> (q + 1)) << (q - 1)
             for v, m in enumerate(fragment.adjacency_masks) if v != p and v != q]
    return _block_max(n - 2, masks)


@lru_cache(maxsize=64)
def _gadget_table(weight: int) -> tuple[float, ...]:
    """Most independent auxiliary vertices of a weight-n gadget whose cores
    (local vertices 0 and 1) take the 0/1 states a and b, at index a + 2b:
    the pair-factor layout that `mis_oracle` puts on the fragment's cores.

    Weights 0-2 are solved: each entry is a `_max_sum` over the local view
    of `_gadget` with the cores `_fix`ed at (a, b). Each auxiliary vertex
    gains 1 and each edge forbids both its ends at 1, so a core at 1 leaves
    its neighbours a `_FORBIDDEN` gain. The four problems share one
    elimination plan. An infeasible pair (weight 0: both cores at 1) is
    `_FORBIDDEN`.

    Heavier weights follow by max-plus linearity. Let V_l(x, y) be the most
    independent vertices among the chain vertices below level l and the
    bridging vertices of levels 1..l, given the level-l chain vertices
    (p_l, q_l) at (x, y). V_0 is the table of the edge (p0, q0), and since
    the cores are p_n and q_n, the weight-n table is T_n = V_n. Every level
    is the same pattern (see `_place`), so V_{l+1} = M(V_l) for one fixed
    max-plus linear map M: M(V)(x, y) is the max over (x', y') of
    V(x', y') + x' + y' plus the most bridging vertices of one level
    between (x', y') below and (x, y) above. Hence T_{n+1} = M(T_n) for
    every n >= 0. A max-plus linear map commutes with adding a constant c
    to every entry, so T_2 = T_1 + c gives T_{n+1} = T_n + c for every
    n >= 1 by induction, and T_n = T_1 + (n - 1)(T_2 - T_1). The solved
    T_2 - T_1 is the uniform (2, 2, 2, 2), as the tests check, so every
    heavier table takes O(1) and keeps exact integer entries.
    """
    if weight > 2:
        one, two = _gadget_table(1), _gadget_table(2)
        return tuple(t1 + (weight - 1) * (t2 - t1) for t1, t2 in zip(one, two))
    edges, _ = _gadget(weight)
    blocked = [0, 0, 0, _FORBIDDEN]
    gain, factors = [0, 0] + [1] * (6 * weight), [(pair, blocked) for pair in edges]
    plan = _elimination_order(len(gain), edges)  # a chain of levels: width 3
    problems = [_fix(gain, factors, 0, {0: a, 1: b}) for b in (0, 1) for a in (0, 1)]
    return tuple(const + _max_sum(fixed, rest, plan) for fixed, rest, const in problems)


def _elimination_order(n: int, pairs: Iterable[tuple[int, int]]) -> _Plan | None:
    """Min-degree elimination plan of the graph on n vertices, or None when
    eliminating would leave a vertex with more than `CORE_MAX_WIDTH`
    neighbors.

    The plan lists (v, scope) in elimination order: scope holds the
    positions in that order of v's neighbors when v is eliminated (its
    original neighbors and those its eliminated neighbors left it), all
    later than v, ascending. That is the scope of v's bucket in `_max_sum`
    without v. Ties in degree go to the lowest vertex.
    """
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for i, j in pairs:
        nbrs[i].add(j)
        nbrs[j].add(i)
    heap = [(len(s), v) for v, s in enumerate(nbrs)]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    eliminated = [False] * n
    order = []
    while heap:
        degree, v = pop(heap)
        if eliminated[v] or degree != len(nbrs[v]):
            continue  # superseded entry
        if degree > CORE_MAX_WIDTH:
            return None
        eliminated[v] = True
        order.append(v)
        later = nbrs[v]  # no longer changes: v leaves every other set here
        for u in later:
            s = nbrs[u]
            before = len(s)
            s |= later
            s.remove(u)
            s.remove(v)
            if len(s) != before:  # else the heap already holds (before, u)
                push(heap, (len(s), u))
    position = [0] * n
    for pos, v in enumerate(order):
        position[v] = pos
    return [(v, tuple(sorted(map(position.__getitem__, nbrs[v])))) for v in order]


# Index patterns kept for reuse: torus 8x8 uses 41, holding 8 MB. A pattern
# depends only on its width and places, and holds 2^width ints, at most 2^16
# and 2.6 MB.
@lru_cache(maxsize=64)
def _spread(width: int, places: tuple[int, ...]) -> list[int]:
    """For each x below 2^width, the number whose bit t is bit places[t] of x:
    where an entry of a table over `width` variables finds its entry in a
    table over the variables at those places (ascending). The list is
    shared between calls, so callers only read it."""
    index = [0]
    for k in range(width):
        if k in places:
            step = 1 << places.index(k)
            index += [i + step for i in index]
        else:
            index *= 2
    return index


def _max_sum(gain: Sequence[int], factors: Sequence[tuple[tuple[int, int], Sequence]], plan: _Plan) -> float:
    """Max of sum_v gain[v] x_v plus the pair factors over 0/1 states x.

    Max-sum variable elimination (bucket elimination) by `plan`, which lists
    every variable with its scope when eliminated (see `_elimination_order`;
    any order is exact with its scopes). Each factor is (scope, table), its
    table indexed x_i + 2 x_j. Variables are named by their positions in
    the plan, and every table lists its variables in that order, so the
    eliminated variable is bit 0 of its bucket's table.

    Bucket v is two half-tables over the rest of its scope, one for x_v = 0
    and one for x_v = 1. Its pair terms are the pair factors whose earlier
    variable is v, in either orientation, and the messages over two
    variables; those on the same variable merge. One doubling pass over the
    rest's bits builds both halves from v's gain, the messages over v alone
    and the pair terms. Each wider message then joins in one pass per half,
    through a cached `_spread` index unless its scope is the bucket's.
    Maximising over the two halves eliminates v and gives the message over
    the rest, which goes to the bucket of the rest's first variable. A gain
    or table entry may be `_FORBIDDEN` (-inf): entries are only ever added,
    never subtracted, so no NaN forms and every max stays exact.
    """
    n = len(gain)
    position = [0] * n
    for pos, (v, _) in enumerate(plan):
        position[v] = pos
    # Pair terms of each bucket, as (u, table) with the table indexed x_v + 2 x_u.
    terms: list[list[tuple[int, Sequence]]] = [[] for _ in range(n)]
    for (i, j), t in factors:
        a, b = position[i], position[j]
        if a < b:
            terms[a].append((b, t))
        else:
            terms[b].append((a, (t[0], t[2], t[1], t[3])))
    low_start = [0] * n
    high_start = [gain[v] for v, _ in plan]
    messages: dict[int, list[tuple[tuple[int, ...], list]]] = {}
    total = 0
    for pos, (v, rest) in enumerate(plan):
        # A pair term on u adds t[0] or t[2], as x_u is 0 or 1, to the half
        # x_v = 0, and t[1] or t[3] to the half x_v = 1. Equal entries add to
        # the whole half, so they go into its start value instead.
        low_bits, high_bits = [None] * len(rest), [None] * len(rest)
        low0, high0 = low_start[pos], high_start[pos]
        for u, t in terms[pos]:
            k = rest.index(u)
            held = low_bits[k]
            if t[0] == t[2]:
                low0 += t[0]
            else:
                low_bits[k] = (t[0], t[2]) if held is None else (held[0] + t[0], held[1] + t[2])
            held = high_bits[k]
            if t[1] == t[3]:
                high0 += t[1]
            else:
                high_bits[k] = (t[1], t[3]) if held is None else (held[0] + t[1], held[1] + t[3])
        low, high = [low0], [high0]
        for entries in low_bits:
            low = low * 2 if entries is None else [x + y for y in entries for x in low]
        for entries in high_bits:
            high = high * 2 if entries is None else [x + y for y in entries for x in high]
        for scope, table in messages.pop(pos, ()):  # scope[0] is pos, bit 0 of table
            even, odd = table[0::2], table[1::2]
            if len(scope) > len(rest):  # the bucket's own scope
                low = list(map(add, low, even))
                high = list(map(add, high, odd))
            else:
                index = _spread(len(rest), tuple(map(rest.index, scope[1:])))
                low = [x + even[i] for x, i in zip(low, index)]
                high = [x + odd[i] for x, i in zip(high, index)]
        # max(x, y), as a comprehension: `map(max, ...)` takes 2-5x as long (Python 3.11)
        table = [x if x > y else y for x, y in zip(low, high)]
        if len(rest) > 2:
            messages.setdefault(rest[0], []).append((rest, table))
        elif len(rest) == 2:
            terms[rest[0]].append((rest[1], table))
        elif rest:
            low_start[rest[0]] += table[0]
            high_start[rest[0]] += table[1]
        else:
            total += table[0]
    return total


def _fix(gain: Sequence[int], factors: Sequence[tuple[tuple[int, int], Sequence]], const: int,
         fixed: Mapping[int, int]) -> tuple[list[int], list[tuple[tuple[int, int], Sequence]], int]:
    """The problem with each variable v of `fixed` fixed at fixed[v], as (gain, factors, const).

    Each factor on a fixed variable becomes a gain on its other variable,
    plus a constant; the fixed variables keep gain 0 and no factor. Only a
    table's (1, 1) entry may be `_FORBIDDEN`, so no gain becomes a NaN. A
    variable fixed at 1 gives each free neighbour that it forbids a
    `_FORBIDDEN` gain, and `_max_sum` stays exact on such a problem because
    its max takes that neighbour's 0 state. (`_conditioned` fixes those
    neighbours at 0 as well; `_gadget_table`, which fixes only the two
    cores of a gadget of weight at most 2, leaves them free.)
    """
    gain = list(gain)
    for v, x in fixed.items():
        const += gain[v] * x
        gain[v] = 0
    rest = []
    for (i, j), table in factors:  # table index x_i + 2 x_j
        a, b = fixed.get(i), fixed.get(j)
        if a is None and b is None:
            rest.append(((i, j), table))
        elif b is None:
            const += table[a]
            gain[j] += table[a + 2] - table[a]
        elif a is None:
            const += table[2 * b]
            gain[i] += table[2 * b + 1] - table[2 * b]
        else:
            const += table[a + 2 * b]
    return gain, rest, const


def _conditioned(
    gain: Sequence[int], factors: Sequence[tuple[tuple[int, int], Sequence]]
) -> list[tuple[list[int], list[tuple[tuple[int, int], Sequence]], int, _Plan]]:
    """(gain, factors, const, plan) parts, each with the elimination plan
    that keeps it within `CORE_MAX_WIDTH`; the problem's best is the max over
    them of const plus `_max_sum(gain, factors, plan)`. A problem that fits
    is its own single part.

    Cutset conditioning: a problem too wide to eliminate splits on its
    variable v with the most factors, fixed at 0 and at 1; at 1, each
    neighbour that v forbids is fixed at 0 too. A pending problem with a
    factor gives at least one part with a factor (a too-wide problem has one
    off v), so the split raises `CapacityError` as soon as pending problems
    and parts with a factor number more than `MAX_CONDITIONED_SUBPROBLEMS`.
    Every split is planned before the caller builds any table.
    """
    parts = []
    stack = [(gain, factors, 0)]
    held = 1  # problems with a factor, pending or planned
    while stack:
        gain, factors, _ = problem = stack.pop()
        plan = _elimination_order(len(gain), (s for s, _ in factors))
        if plan is not None:
            parts.append((*problem, plan))
            continue
        count = [0] * len(gain)
        for scope, _ in factors:
            for u in scope:
                count[u] += 1
        v = count.index(max(count))
        at_one = {u: 0 for scope, table in factors if v in scope and table[3] == _FORBIDDEN for u in scope}
        at_one[v] = 1
        children = [_fix(*problem, at_one), _fix(*problem, {v: 0})]
        held += sum(1 for _, f, _ in children if f) - 1
        if held > MAX_CONDITIONED_SUBPROBLEMS:
            raise CapacityError(
                f"conditioning the elimination down to width {CORE_MAX_WIDTH} needs more "
                f"than {MAX_CONDITIONED_SUBPROBLEMS} subproblems"
            )
        stack += children
    return parts


def mis_oracle(g: ExpandedGraph, *, max_vertices: int = DEFAULT_MIS_LIMIT) -> int:
    """Independence number of the expanded graph; equals `brute_force_max`.

    Flipping one endpoint of a doubly-selected edge never decreases the
    expression, so its maximum is attained on an independent set and equals
    the independence number. A gadget meets the rest of the graph only at
    its two cores, so on a graph from `expand` or `expand_hyper_edge`, whose
    fragments describe it, the search runs over the core states with one
    `_gadget_table` per fragment. On any other graph every vertex is a core
    and every edge a weight-0 gadget. `_conditioned` plans either problem
    as parts of width at most `CORE_MAX_WIDTH` (one part when it fits, at
    most `MAX_CONDITIONED_SUBPROBLEMS` that hold a factor, or
    `CapacityError` before any table is built), and `_max_sum` eliminates
    each part. `max_vertices` limits the expanded vertex count either way,
    checked before anything is built. The core route reads only the
    fragments, so it never fills a graph from `expand` (see `ExpandedGraph`).
    """
    check_search_capacity(g.vertex_count, max_vertices)
    k = g._assembled_cores
    if k is None:
        gain, factors = [1] * g.vertex_count, [(pair, _gadget_table(0)) for pair in g.edges]
    else:
        gain, factors = [1] * k, [(f.endpoints, _gadget_table(f.weight)) for f in g.fragments]
    return max(const + _max_sum(part_gain, part_factors, plan)
               for part_gain, part_factors, const, plan in _conditioned(gain, factors))


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
    # read once: the steps index these per vertex and per basis
    bases, neighbors, bases_of_vertex = fragment.bases, fragment.neighbors, fragment.bases_of_vertex
    if not bases:
        raise ValidationError("propagation needs at least one complete basis (weight >= 1)")
    n = fragment.vertex_count
    given: dict[int, int] = {}
    for v, val in forced.items():
        v = _as_int(v, "forced vertex")
        if not 0 <= v < n:
            raise ValidationError(f"forced vertex {v} does not exist (graph has {n} vertices)")
        val = _as_int(val, f"forced value for vertex {v}")
        if val not in (0, 1):
            raise ValidationError(f"forced value for vertex {v} must be 0 or 1, got {val!r}")
        given[v] = val

    values: dict[int, int] = {}
    steps: list[PropagationStep] = []
    queue: deque[tuple[int, int, str, int | None]] = deque(
        (v, val, "given", None) for v, val in sorted(given.items())
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
            return done(Violation("basis", bases[source], basis=source))
        values[vertex] = value
        steps.append(PropagationStep(vertex, value, reason, source))
        if value == 1:
            for w in neighbors[vertex]:
                got = values.get(w)
                if got == 1:
                    return done(Violation("edge", _pair(vertex, w)))
                if got is None:
                    queue.append((w, 0, "neighbor", vertex))
        else:
            for b in bases_of_vertex[vertex]:
                triple = bases[b]
                zeros = [u for u in triple if values.get(u) == 0]
                if len(zeros) == 3:
                    return done(Violation("basis", triple, basis=b))
                if len(zeros) == 2:
                    open_members = [u for u in triple if values.get(u) is None]
                    if len(open_members) == 1:
                        queue.append((open_members[0], 1, "basis", b))
    full = Assignment(tuple(values.get(v, 0) for v in range(n)))
    return PropagationOutcome(False, tuple(steps), None, full)


def dot_lines(g: ExpandedGraph) -> Iterator[str]:
    """The lines of `to_dot`, each ending in a newline, one at a time: a
    writer streams them without holding the whole text."""
    yield "graph expansion {\n"
    for pos, triple in enumerate(g.bases):
        members = " ".join(f"n{t}" for t in triple)
        yield f"  // basis {pos}: {members}\n"
    for idx, vert in enumerate(g.vertices):
        yield f'  n{idx} [label="{vertex_label(vert)}"];\n'
    for i, j in g.sorted_edges:
        yield f"  n{i} -- n{j};\n"
    yield "}\n"


def to_dot(g: ExpandedGraph) -> str:
    """DOT serialization; bases appear as comments since DOT has no triples."""
    return "".join(dot_lines(g))
