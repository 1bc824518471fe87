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
import operator
import random
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Sequence

from . import _indset
from .errors import CapacityError, ValidationError

if TYPE_CHECKING:  # only graphs with rays import linalg3, and numpy
    from .linalg3 import Ray

PARALLEL_TOLERANCE = 1e-9
WEIGHT_BOUNDARY_TOLERANCE = 1e-9
DEFAULT_MIS_LIMIT = 64


def _as_int(value: object, what: str) -> int:
    """`value` as a plain int, by `operator.index`: ints, bools and numpy
    integers pass, anything else (a float, even 1.0) is refused."""
    if type(value) is int:
        return value
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from None


@dataclass(frozen=True, order=True, init=False)
class HyperEdge:
    """Weighted link between vertices i < j.

    Edges are built by the thousand, so the constructor is written out: it
    stores the checked fields straight into the instance dict, where the
    frozen dataclass's own `__init__` pays one `object.__setattr__` per
    field. The generated `__repr__`, `__eq__`, `__hash__`, ordering and
    frozen `__setattr__` are unchanged.
    """

    i: int
    j: int
    weight: int

    def __init__(self, i: int, j: int, weight: int) -> None:
        if i.__class__ is not int or j.__class__ is not int or weight.__class__ is not int:
            i, j = _as_int(i, "hyper-edge endpoint"), _as_int(j, "hyper-edge endpoint")
            weight = _as_int(weight, "hyper-edge weight")
        if i < 0 or i >= j:
            raise ValidationError(f"hyper-edge endpoints must satisfy 0 <= i < j, got ({i}, {j})")
        if weight < 0:
            raise ValidationError(f"hyper-edge (p{i + 1}, p{j + 1}) has negative weight {weight}")
        fields = self.__dict__
        fields["i"] = i
        fields["j"] = j
        fields["weight"] = weight


@dataclass(frozen=True, eq=False)
class HyperGraph:
    """Vertices, optionally bound to rays, plus a set of weighted hyper-edges.

    A ray-bound graph also keeps `overlaps`, the ray overlap of each edge in
    the canonical edge order, as its parallel check computed them; on a
    graph without rays it is None.
    """

    vertex_count: int
    edges: tuple[HyperEdge, ...] = ()
    rays: tuple[Ray, ...] | None = None
    overlaps = None  # not a field: set by `__post_init__` on a ray-bound graph

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertex_count", _as_int(self.vertex_count, "vertex count"))
        if self.vertex_count < 1:
            raise ValidationError(f"vertex count must be positive, got {self.vertex_count}")
        # the order of HyperEdge's generated __lt__, with the key computed in C
        canonical = tuple(sorted(self.edges, key=attrgetter("i", "j", "weight")))
        object.__setattr__(self, "edges", canonical)
        n = self.vertex_count
        previous = None  # sorted, so the edges of one pair are adjacent
        for e in canonical:
            if e.j >= n:
                raise ValidationError(f"hyper-edge (p{e.i + 1}, p{e.j + 1}) references a vertex beyond p{n}")
            pair = (e.i, e.j)
            if pair == previous:
                raise ValidationError(f"duplicate hyper-edge (p{e.i + 1}, p{e.j + 1})")
            previous = pair
        if self.rays is not None:
            from .linalg3 import overlap

            rays = tuple(self.rays)
            object.__setattr__(self, "rays", rays)
            if len(rays) != self.vertex_count:
                raise ValidationError(
                    f"{len(rays)} rays cannot bind to {self.vertex_count} vertices"
                )
            overlaps = tuple(
                _non_parallel(overlap(rays[e.i], rays[e.j]), e.i, e.j, " across a hyper-edge")
                for e in canonical
            )
            object.__setattr__(self, "overlaps", overlaps)

    @cached_property
    def weight_sum(self) -> int:
        return sum(e.weight for e in self.edges)


@dataclass(frozen=True)
class FamilySpec:
    """Parameters selecting one instance of a generated hyper-graph family.

    `weights` is either a uniform integer or a sequence of one integer per
    edge in the family's construction order (documented in
    `family_edge_pairs`), stored as a tuple. `k`, `mx`, `my` and the weights
    take integers only, through `_as_int`, as `HyperEdge` does.
    """

    family: str
    k: int | None = None
    mx: int | None = None
    my: int | None = None
    weights: int | tuple[int, ...] = 1

    def __post_init__(self) -> None:
        for name in ("k", "mx", "my"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _as_int(value, f"parameter {name}"))
        try:
            weights = tuple(_as_int(w, "hyper-edge weight") for w in self.weights)
        except TypeError:  # not iterable: one weight for every edge
            weights = _as_int(self.weights, "hyper-edge weight")
        object.__setattr__(self, "weights", weights)


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
    cap = _weight_cap(cap)
    weight = _least_weight(overlap_value)
    if cap is not None and weight > cap:
        return None
    return weight


def _weight_cap(cap: int | None) -> int | None:
    """`cap` checked: None, or a positive integer."""
    if cap is not None:
        cap = _as_int(cap, "weight cap")
        if cap < 1:
            raise ValidationError(f"weight cap must be a positive integer, got {cap}")
    return cap


def _least_weight(overlap_value: float) -> int:
    """The weight of `hyper_edge_weight` for an overlap in [0, 1), unchecked."""
    shifted = overlap_value - WEIGHT_BOUNDARY_TOLERANCE
    if shifted <= 0.0:
        return 0
    return max(0, math.ceil(2.0 * shifted / (1.0 - shifted) - 1e-12))


def _non_parallel(o: float, a: int, b: int, where: str = "") -> float:
    """The overlap `o` of rays a and b; parallel rays are refused, `where`
    ending the message. Callers import `overlap` once per call, not per pair."""
    if o >= 1.0 - PARALLEL_TOLERANCE:
        raise ValidationError(f"rays p{a + 1} and p{b + 1} are parallel (overlap {o:.12g}){where}")
    return o


def build_from_rays(rays: Sequence[Ray], cap: int | None = None) -> HyperGraph:
    """Hyper-graph on the given rays with one weighted edge per admissible pair."""
    from .linalg3 import overlap

    rays = tuple(rays)
    if len(rays) < 2:
        raise ValidationError(f"need at least 2 rays to build a hyper-graph, got {len(rays)}")
    cap = _weight_cap(cap)
    edges = []
    for i in range(len(rays)):
        for j in range(i + 1, len(rays)):
            weight = _least_weight(_non_parallel(overlap(rays[i], rays[j]), i, j))
            if cap is None or weight <= cap:
                edges.append(HyperEdge(i, j, weight))
    return HyperGraph(len(rays), tuple(edges), rays)


def _fractal_cyclic_pairs(k: int) -> list[tuple[int, int]]:
    # a triangle, then a triangle on each 1-based parent p and its children 2p + 2, 2p + 3
    pairs = [(0, 1), (0, 2), (1, 2)]
    for p in range(1, 3 * (2 ** (k - 1) - 1) + 1):
        a, b = 2 * p + 1, 2 * p + 2
        pairs += [(p - 1, a), (p - 1, b), (a, b)]
    return pairs


def _lattice_pairs(mx: int, my: int, wrap: bool) -> list[tuple[int, int]]:
    # row-major sites; the torus adds the wrap-around edge of every row and column
    x_steps = range(mx if wrap else mx - 1)
    y_steps = range(my if wrap else my - 1)
    pairs = [(j * mx + i, j * mx + (i + 1) % mx) for j in range(my) for i in x_steps]
    pairs += [(j * mx + i, (j + 1) % my * mx + i) for j in y_steps for i in range(mx)]
    return [(min(p), max(p)) for p in pairs]


@dataclass(frozen=True)
class _Family:
    """The `FamilySpec` fields a family reads, their least allowed value, and its
    vertex count, edge pairs and closed-form alpha as functions of their values."""

    params: tuple[str, ...]
    least: int
    vertices: Callable[..., int]
    pairs: Callable[..., list[tuple[int, int]]]
    alpha: Callable[..., int]


_K, _MXY = ("k",), ("mx", "my")
_CATALOGUE = {
    "complete": _Family(
        _K, 2, lambda k: k,
        lambda k: [(i, j) for i in range(k) for j in range(i + 1, k)],
        lambda k: 1,
    ),
    "linear": _Family(
        _K, 2, lambda k: k,
        lambda k: [(i, i + 1) for i in range(k - 1)],
        lambda k: (k + 1) // 2,
    ),
    "cyclic": _Family(
        _K, 3, lambda k: k,
        lambda k: [(i, i + 1) for i in range(k - 1)] + [(0, k - 1)],
        lambda k: k // 2,
    ),
    "fractal-tree": _Family(
        _K, 1, lambda k: 2 ** (k + 1) - 1,
        lambda k: [(p - 1, c) for p in range(1, 2**k) for c in (2 * p - 1, 2 * p)],
        lambda k: (2 ** (k + 2) - 2 ** (k % 2)) // 3,  # leaves plus every second level upward
    ),
    "fractal-cyclic": _Family(
        _K, 1, lambda k: 3 * (2**k - 1),
        _fractal_cyclic_pairs,
        lambda k: 2**k - 1,
    ),
    "square-lattice": _Family(
        _MXY, 1, lambda mx, my: mx * my,
        lambda mx, my: _lattice_pairs(mx, my, wrap=False),
        lambda mx, my: (mx * my + 1) // 2,
    ),
    "torus-lattice": _Family(
        _MXY, 3, lambda mx, my: mx * my,
        lambda mx, my: _lattice_pairs(mx, my, wrap=True),
        lambda mx, my: min(mx * (my // 2), my * (mx // 2)),  # each row and column is a cycle
    ),
    "wheel7": _Family(
        (), 0, lambda: 7,
        lambda: [tuple(sorted((i, (i + s) % 7))) for s in (1, 3) for i in range(7)],
        lambda: 2,
    ),
}
FAMILIES = tuple(_CATALOGUE)


def _lookup(spec: FamilySpec) -> tuple[_Family, tuple[int, ...]]:
    """The catalogue entry of `spec` and its parameter values, validated."""
    f = spec.family
    if f not in FAMILIES:
        raise ValidationError(f"unknown family {f!r}; choose one of {', '.join(FAMILIES)}")
    entry = _CATALOGUE[f]
    values = tuple(getattr(spec, name) for name in entry.params)
    if None in values:
        missing = "parameter k" if entry.params == _K else "mx and my"
        raise ValidationError(f"family {f!r} needs {missing}")
    if any(v < entry.least for v in values):
        subject = f"{f} family" if entry.params == _K else f.replace("-", " ")
        names, got = ", ".join(entry.params), "x".join(map(str, values))
        raise ValidationError(f"{subject} needs {names} >= {entry.least}, got {got}")
    return entry, values


def family_parameters(spec: FamilySpec) -> tuple[tuple[str, int], ...]:
    """The `(name, value)` pairs of the parameters the family of `spec` reads."""
    entry, values = _lookup(spec)
    return tuple(zip(entry.params, values))


def family_vertex_count(spec: FamilySpec) -> int:
    """Number of vertices of the family instance (validates parameters)."""
    entry, values = _lookup(spec)
    return entry.vertices(*values)


def family_edge_pairs(spec: FamilySpec) -> list[tuple[int, int]]:
    """Edge endpoint pairs (0-based) in the family's construction order.

    Construction orders: complete lists pairs lexicographically; linear and
    cyclic follow the path/cycle (the cyclic closing edge comes last);
    fractal families list each parent's child edges in index order; lattices
    list x-direction edges row by row, then y-direction edges; wheel7 lists
    the seven ring edges, then the seven skip-3 chords.
    """
    entry, values = _lookup(spec)
    return entry.pairs(*values)


def closed_form_independence(spec: FamilySpec) -> int:
    """Independence number of the family instance by closed formula."""
    entry, values = _lookup(spec)
    return entry.alpha(*values)


def family_weights(spec: FamilySpec, edge_count: int) -> list[int]:
    """Per-edge weights of `spec` in construction order, one per family edge."""
    if isinstance(spec.weights, int):
        return [spec.weights] * edge_count
    if len(spec.weights) != edge_count:
        raise ValidationError(
            f"family {spec.family!r} has {edge_count} edges but {len(spec.weights)} weights were given"
        )
    return list(spec.weights)


def generate(spec: FamilySpec, rays: Sequence[Ray] | None = None) -> HyperGraph:
    """Build a family instance.

    Without rays, edge weights come from `spec.weights` (uniform integer or
    a per-edge list in construction order). With rays, the vertices are
    bound to them in order and every edge weight is recomputed from the
    endpoint overlap, so the instance is realizable by construction.
    """
    entry, values = _lookup(spec)
    n = entry.vertices(*values)
    pairs = entry.pairs(*values)
    if rays is not None:
        from .linalg3 import overlap

        rays = tuple(rays)
        if len(rays) != n:
            raise ValidationError(f"family {spec.family!r} needs {n} rays, got {len(rays)}")
        weights = [_least_weight(_non_parallel(overlap(rays[a], rays[b]), a, b)) for a, b in pairs]
    else:
        weights = family_weights(spec, len(pairs))
    edges = tuple(HyperEdge(a, b, w) for (a, b), w in zip(pairs, weights))
    return HyperGraph(n, edges, rays)


def check_search_capacity(n: int, max_vertices: int) -> None:
    """Refuse an exact independent-set search over more than `max_vertices` vertices."""
    max_vertices = _as_int(max_vertices, "max_vertices")
    if max_vertices < 1:
        raise ValidationError(f"max_vertices must be positive, got {max_vertices}")
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
    engines = {"branch": _indset.branch_search, "brute": _indset.brute_force_search}
    if method not in engines:
        raise ValidationError(f"unknown search method {method!r}; use 'branch' or 'brute'")
    check_search_capacity(h.vertex_count, max_vertices)
    adj = _indset.adjacency_masks(h.vertex_count, ((e.i, e.j) for e in h.edges))
    size, witness = engines[method](adj)
    return IndependentSetResult(size, tuple(witness))


def remove_vertex(h: HyperGraph, vertex: int) -> tuple[HyperGraph, tuple[int, ...]]:
    """Drop one vertex and all incident hyper-edges.

    Returns the reduced graph and the renumbering record: entry `new` holds
    the original index of the surviving vertex now numbered `new`.
    """
    vertex = _as_int(vertex, "vertex index")
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
