"""Hyper-graph data model, weight assignment, family generators, exact MIS.

A hyper-edge always joins exactly two vertices; its non-negative integer
weight counts the auxiliary basis pairs the edge expands into (see
:mod:`kshg.expansion`). Weight 0 is a plain orthogonality edge but still
counts as an adjacency for independence purposes.

Vertex indices are 0-based throughout the API; file formats and the labels
used in error messages and reports are 1-based (p1..pk).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from . import _indset
from .errors import CapacityError, ValidationError
from .linalg3 import Ray, overlap

PARALLEL_TOLERANCE = 1e-9
WEIGHT_BOUNDARY_TOLERANCE = 1e-9
DEFAULT_MIS_LIMIT = 64

FAMILIES = (
    "complete",
    "linear",
    "cyclic",
    "fractal-tree",
    "fractal-cyclic",
    "square-lattice",
    "torus-lattice",
    "wheel7",
)


@dataclass(frozen=True, order=True)
class HyperEdge:
    """Weighted link between vertices i < j."""

    i: int
    j: int
    weight: int

    def __post_init__(self) -> None:
        if self.i < 0 or self.i >= self.j:
            raise ValidationError(
                f"hyper-edge endpoints must satisfy 0 <= i < j, got ({self.i}, {self.j})"
            )
        if self.weight < 0:
            raise ValidationError(
                f"hyper-edge (p{self.i + 1}, p{self.j + 1}) has negative weight {self.weight}"
            )


@dataclass(frozen=True, eq=False)
class HyperGraph:
    """Vertices, optionally bound to rays, plus a set of weighted hyper-edges."""

    vertex_count: int
    edges: tuple[HyperEdge, ...] = ()
    rays: tuple[Ray, ...] | None = None

    def __post_init__(self) -> None:
        if self.vertex_count < 1:
            raise ValidationError(f"vertex count must be positive, got {self.vertex_count}")
        canonical = tuple(sorted(self.edges))
        object.__setattr__(self, "edges", canonical)
        seen: set[tuple[int, int]] = set()
        for e in canonical:
            if e.j >= self.vertex_count:
                raise ValidationError(
                    f"hyper-edge (p{e.i + 1}, p{e.j + 1}) references a vertex beyond p{self.vertex_count}"
                )
            pair = (e.i, e.j)
            if pair in seen:
                raise ValidationError(f"duplicate hyper-edge (p{e.i + 1}, p{e.j + 1})")
            seen.add(pair)
        if self.rays is not None:
            rays = tuple(self.rays)
            object.__setattr__(self, "rays", rays)
            if len(rays) != self.vertex_count:
                raise ValidationError(
                    f"{len(rays)} rays cannot bind to {self.vertex_count} vertices"
                )
            for e in canonical:
                o = overlap(rays[e.i], rays[e.j])
                if o >= 1.0 - PARALLEL_TOLERANCE:
                    raise ValidationError(
                        f"rays p{e.i + 1} and p{e.j + 1} are parallel (overlap {o:.12g}) "
                        "across a hyper-edge"
                    )

    @cached_property
    def weight_sum(self) -> int:
        return sum(e.weight for e in self.edges)

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        """Position of each (i, j) pair in the canonical edge order."""
        return {(e.i, e.j): pos for pos, e in enumerate(self.edges)}


@dataclass(frozen=True)
class FamilySpec:
    """Parameters selecting one instance of a generated hyper-graph family.

    `weights` is either a uniform integer or one integer per edge in the
    family's construction order (documented per family in `generate`).
    """

    family: str
    k: int | None = None
    mx: int | None = None
    my: int | None = None
    weights: int | tuple[int, ...] = 1


@dataclass(frozen=True)
class IndependentSetResult:
    size: int
    witness: tuple[int, ...]


def hyper_edge_weight(overlap_value: float, cap: int | None = None) -> int | None:
    """Least weight n with overlap <= n/(n+2), up to a 1e-9 boundary tolerance.

    Orthogonal rays (overlap within 1e-9 of 0) get weight 0. With a positive
    `cap`, overlaps needing more than `cap` return None: no edge is placed.
    The boundary is closed on the right, so an overlap of exactly n/(n+2)
    yields n even in the presence of floating-point noise.
    """
    if not 0.0 <= overlap_value < 1.0:
        if overlap_value >= 1.0:
            raise ValidationError(
                f"overlap {overlap_value:.12g} >= 1 means parallel rays; no finite weight exists"
            )
        raise ValidationError(f"overlap must lie in [0, 1), got {overlap_value!r}")
    if cap is not None and cap < 1:
        raise ValidationError(f"weight cap must be a positive integer, got {cap}")
    shifted = overlap_value - WEIGHT_BOUNDARY_TOLERANCE
    if shifted <= 0.0:
        weight = 0
    else:
        weight = max(0, math.ceil(2.0 * shifted / (1.0 - shifted) - 1e-12))
    if cap is not None and weight > cap:
        return None
    return weight


def build_from_rays(rays: Sequence[Ray], cap: int | None = None) -> HyperGraph:
    """Hyper-graph on the given rays with one weighted edge per admissible pair."""
    rays = tuple(rays)
    if len(rays) < 2:
        raise ValidationError(f"need at least 2 rays to build a hyper-graph, got {len(rays)}")
    edges = []
    for i in range(len(rays)):
        for j in range(i + 1, len(rays)):
            o = overlap(rays[i], rays[j])
            if o >= 1.0 - PARALLEL_TOLERANCE:
                raise ValidationError(
                    f"rays p{i + 1} and p{j + 1} are parallel (overlap {o:.12g})"
                )
            weight = hyper_edge_weight(o, cap)
            if weight is not None:
                edges.append(HyperEdge(i, j, weight))
    return HyperGraph(len(rays), tuple(edges), rays)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


def family_vertex_count(spec: FamilySpec) -> int:
    """Number of vertices of the family instance (validates parameters)."""
    f = spec.family
    if f not in FAMILIES:
        raise ValidationError(f"unknown family {f!r}; choose one of {', '.join(FAMILIES)}")
    if f in ("complete", "linear", "cyclic", "fractal-tree", "fractal-cyclic"):
        _require(spec.k is not None, f"family {f!r} needs parameter k")
        k = spec.k
        if f == "complete":
            _require(k >= 2, f"complete family needs k >= 2, got {k}")
            return k
        if f == "linear":
            _require(k >= 2, f"linear family needs k >= 2, got {k}")
            return k
        if f == "cyclic":
            _require(k >= 3, f"cyclic family needs k >= 3, got {k}")
            return k
        if f == "fractal-tree":
            _require(k >= 1, f"fractal-tree family needs k >= 1, got {k}")
            return 2 ** (k + 1) - 1
        _require(k >= 1, f"fractal-cyclic family needs k >= 1, got {k}")
        return 3 * (2**k - 1)
    if f in ("square-lattice", "torus-lattice"):
        _require(spec.mx is not None and spec.my is not None, f"family {f!r} needs mx and my")
        mx, my = spec.mx, spec.my
        if f == "square-lattice":
            _require(mx >= 1 and my >= 1, f"square lattice needs mx, my >= 1, got {mx}x{my}")
        else:
            _require(mx >= 3 and my >= 3, f"torus lattice needs mx, my >= 3, got {mx}x{my}")
        return mx * my
    return 7  # wheel7


def family_edge_pairs(spec: FamilySpec) -> list[tuple[int, int]]:
    """Edge endpoint pairs (0-based) in the family's construction order.

    Construction orders: complete lists pairs lexicographically; linear and
    cyclic follow the path/cycle (the cyclic closing edge comes last);
    fractal families list each parent's child edges in index order; lattices
    list x-direction edges row by row, then y-direction edges; wheel7 lists
    the seven ring edges, then the seven skip-3 chords.
    """
    f = spec.family
    n = family_vertex_count(spec)
    k = spec.k
    pairs: list[tuple[int, int]] = []
    if f == "complete":
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    elif f == "linear":
        pairs = [(i, i + 1) for i in range(n - 1)]
    elif f == "cyclic":
        pairs = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    elif f == "fractal-tree":
        for parent in range(1, 2**k):  # 1-based internal nodes
            pairs.append((parent - 1, 2 * parent - 1))
            pairs.append((parent - 1, 2 * parent))
    elif f == "fractal-cyclic":
        pairs = [(0, 1), (0, 2), (1, 2)]
        for parent in range(1, 3 * (2 ** (k - 1) - 1) + 1):  # 1-based
            a, b = 2 * parent + 1, 2 * parent + 2
            pairs.append((parent - 1, a))
            pairs.append((parent - 1, b))
            pairs.append((a, b))
    elif f in ("square-lattice", "torus-lattice"):
        mx, my = spec.mx, spec.my

        def idx(i: int, j: int) -> int:  # (i, j) 1-based lattice site, row-major
            return (j - 1) * mx + (i - 1)

        if f == "square-lattice":
            for j in range(1, my + 1):
                for i in range(1, mx):
                    pairs.append((idx(i, j), idx(i + 1, j)))
            for j in range(1, my):
                for i in range(1, mx + 1):
                    pairs.append((idx(i, j), idx(i, j + 1)))
        else:
            for j in range(1, my + 1):
                for i in range(1, mx + 1):
                    a, b = idx(i, j), idx(i % mx + 1, j)
                    pairs.append((min(a, b), max(a, b)))
            for j in range(1, my + 1):
                for i in range(1, mx + 1):
                    a, b = idx(i, j), idx(i, j % my + 1)
                    pairs.append((min(a, b), max(a, b)))
    else:  # wheel7
        pairs = [tuple(sorted((i, (i + 1) % 7))) for i in range(7)]
        pairs += [tuple(sorted((i, (i + 3) % 7))) for i in range(7)]
    return pairs


def generate(spec: FamilySpec, rays: Sequence[Ray] | None = None) -> HyperGraph:
    """Build a family instance.

    Without rays, edge weights come from `spec.weights` (uniform integer or
    a per-edge list in construction order). With rays, the vertices are
    bound to them in order and every edge weight is recomputed from the
    endpoint overlap, so the instance is realizable by construction.
    """
    n = family_vertex_count(spec)
    pairs = family_edge_pairs(spec)
    if rays is not None:
        rays = tuple(rays)
        if len(rays) != n:
            raise ValidationError(f"family {spec.family!r} needs {n} rays, got {len(rays)}")
        weights = []
        for a, b in pairs:
            o = overlap(rays[a], rays[b])
            if o >= 1.0 - PARALLEL_TOLERANCE:
                raise ValidationError(
                    f"rays p{a + 1} and p{b + 1} are parallel (overlap {o:.12g})"
                )
            weights.append(hyper_edge_weight(o))
    elif isinstance(spec.weights, int):
        weights = [spec.weights] * len(pairs)
    else:
        weights = list(spec.weights)
        if len(weights) != len(pairs):
            raise ValidationError(
                f"family {spec.family!r} has {len(pairs)} edges but {len(weights)} weights were given"
            )
    edges = tuple(HyperEdge(a, b, w) for (a, b), w in zip(pairs, weights))
    return HyperGraph(n, edges, rays)


def closed_form_independence(spec: FamilySpec) -> int:
    """Independence number of the family instance by closed formula."""
    n = family_vertex_count(spec)  # validates parameters
    f = spec.family
    if f == "complete":
        return 1
    if f == "linear":
        return (spec.k + 1) // 2
    if f == "cyclic":
        return spec.k // 2
    if f == "fractal-tree":
        # leaves plus every second level upward: (2^(k+2) - 2^(k mod 2)) / 3
        return (2 ** (spec.k + 2) - 2 ** (spec.k % 2)) // 3
    if f == "fractal-cyclic":
        return 2**spec.k - 1
    if f == "square-lattice":
        return (n + 1) // 2
    if f == "torus-lattice":
        return (min(spec.mx, spec.my) // 2) * max(spec.mx, spec.my)
    return 2  # wheel7


def check_search_capacity(n: int, max_vertices: int) -> None:
    """Refuse an exact independent-set search over more than `max_vertices` vertices."""
    if n > max_vertices:
        raise CapacityError(f"{n} vertices exceed the exact-search limit of {max_vertices}")


def max_independent_set(
    h: HyperGraph,
    *,
    max_vertices: int = DEFAULT_MIS_LIMIT,
    method: str = "branch",
) -> IndependentSetResult:
    """Exact maximum independent set, every edge (any weight) an adjacency.

    Among all maximum sets the lexicographically smallest witness is
    returned, so repeated runs are reproducible. `method="brute"` switches
    to the plain enumeration engine (small graphs only); both engines must
    agree and the test suite checks that they do.
    """
    check_search_capacity(h.vertex_count, max_vertices)
    adj = _indset.adjacency_masks(h.vertex_count, ((e.i, e.j) for e in h.edges))
    if method == "branch":
        size, witness = _indset.branch_search(adj)
    elif method == "brute":
        size, witness = _indset.brute_force_search(adj)
    else:
        raise ValidationError(f"unknown search method {method!r}; use 'branch' or 'brute'")
    return IndependentSetResult(size, tuple(witness))


def remove_vertex(h: HyperGraph, vertex: int) -> tuple[HyperGraph, tuple[int, ...]]:
    """Drop one vertex and all incident hyper-edges.

    Returns the reduced graph and the renumbering record: entry `new` holds
    the original index of the surviving vertex now numbered `new`.
    """
    if not 0 <= vertex < h.vertex_count:
        raise ValidationError(
            f"vertex p{vertex + 1} does not exist in a {h.vertex_count}-vertex hyper-graph"
        )
    if h.vertex_count == 1:
        raise ValidationError("cannot remove the last vertex of a hyper-graph")
    old_of_new = tuple(v for v in range(h.vertex_count) if v != vertex)
    remap = {old: new for new, old in enumerate(old_of_new)}
    edges = tuple(
        HyperEdge(remap[e.i], remap[e.j], e.weight)
        for e in h.edges
        if vertex not in (e.i, e.j)
    )
    rays = tuple(h.rays[v] for v in old_of_new) if h.rays is not None else None
    return HyperGraph(h.vertex_count - 1, edges, rays), old_of_new


def random_hypergraph(
    rng: random.Random,
    vertex_count: int,
    max_weight: int = 2,
    edge_probability: float = 0.5,
) -> HyperGraph:
    """Seeded random instance used by identity checks and soundness sweeps."""
    edges = []
    for i in range(vertex_count):
        for j in range(i + 1, vertex_count):
            if rng.random() < edge_probability:
                edges.append(HyperEdge(i, j, rng.randint(0, max_weight)))
    return HyperGraph(vertex_count, tuple(edges))
