"""Classical bounds, the subgraph decomposition identity, quantum ranges,
violation classification, and realization verification."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from .errors import ValidationError
from .expansion import Assignment, ExpandedGraph, evaluate, expand, vertex_label
from .hypergraph import (
    DEFAULT_MIS_LIMIT,
    FamilySpec,
    HyperGraph,
    _least_weight,
    closed_form_independence,
    family_edge_pairs,
    family_weights,
    max_independent_set,
    remove_vertex,
)

if TYPE_CHECKING:  # the ray functions import linalg3, and numpy, when called
    from .linalg3 import Ray

SPECTRAL_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ClassicalBound:
    """Non-contextual maximum: twice the weight sum plus the independence number."""

    total: int
    weight_term: int
    independence_term: int
    witness: tuple[int, ...]


@dataclass(frozen=True)
class QuantumRange:
    """Quantum expectation range: weight term plus the projector-sum spectrum."""

    lo: float
    hi: float
    lambda_min: float
    lambda_max: float
    weight_term: int


class Classification(Enum):
    STATE_INDEPENDENT = "state-independent"
    STATE_DEPENDENT = "state-dependent"
    NO_VIOLATION = "no-violation"


@dataclass(frozen=True)
class ViolationReport:
    classical: ClassicalBound
    quantum: QuantumRange
    classification: Classification
    margin: float


@dataclass(frozen=True)
class DecompositionCheck:
    equal: bool
    lhs: int
    rhs: int


def classical_bound(h: HyperGraph, *, max_vertices: int = DEFAULT_MIS_LIMIT) -> ClassicalBound:
    """Exact classical bound 2*sum(weights) + independence number, with witness."""
    mis = max_independent_set(h, max_vertices=max_vertices)
    weight_term = 2 * h.weight_sum
    return ClassicalBound(weight_term + mis.size, weight_term, mis.size, mis.witness)


def family_bound(spec: FamilySpec) -> ClassicalBound:
    """Closed-form classical bound for a family instance (no witness computed)."""
    weight_sum = sum(family_weights(spec, len(family_edge_pairs(spec))))
    independence = closed_form_independence(spec)
    weight_term = 2 * weight_sum
    return ClassicalBound(weight_term + independence, weight_term, independence, ())


def hypergraph_observable_value(h: HyperGraph, g: ExpandedGraph, a: Assignment) -> int:
    """Sum of core values plus the sum of all edge observables, exactly.

    Each edge observable is its gadget's auxiliary values minus its edge
    products, and the gadgets' auxiliary vertices are all the non-core
    vertices of the expansion `g` of `h`, so this is `evaluate(g, a)`.
    """
    if len(a) != g.vertex_count:
        raise ValidationError(
            f"assignment covers {len(a)} vertices but the expansion has {g.vertex_count}"
        )
    return evaluate(g, a)


def check_subgraph_decomposition(h: HyperGraph, a: Assignment) -> DecompositionCheck:
    """Exact integer check of the vertex-removal decomposition identity.

    Left side: (|V| - 2) times the hyper-graph observable under `a`. Right
    side: the observables of all single-vertex-removal subgraphs under the
    restricted assignment, minus the sum of core values. Both sides are
    computed from actually reconstructed subgraphs, so the check also
    exercises `remove_vertex` and the expansion bookkeeping.
    """
    if h.vertex_count < 3:
        raise ValidationError(
            f"subgraph decomposition needs at least 3 vertices, got {h.vertex_count}"
        )
    g = expand(h)
    value = hypergraph_observable_value(h, g, a)
    lhs = (h.vertex_count - 2) * value
    rhs = -sum(a.values[: h.vertex_count])
    for removed in range(h.vertex_count):
        sub_h, old_of_new = remove_vertex(h, removed)
        sub_g = expand(sub_h)
        sub_a = _restrict_assignment(g, a, sub_g, old_of_new, removed)
        rhs += hypergraph_observable_value(sub_h, sub_g, sub_a)
    return DecompositionCheck(lhs == rhs, lhs, rhs)


def _restrict_assignment(
    g: ExpandedGraph,
    a: Assignment,
    sub_g: ExpandedGraph,
    old_of_new: tuple[int, ...],
    removed: int,
) -> Assignment:
    """Carry an expanded assignment over to the expansion of the subgraph
    without vertex `removed`.

    Cores map through `old_of_new`. `remove_vertex` relabels monotonically
    and `HyperGraph` sorts its edges canonically, so the surviving edges keep
    their relative order: the fragments of `sub_g` pair, in order, with those
    of `g` that avoid `removed`, and each takes its partner's auxiliary
    values by position.
    """
    values = [0] * sub_g.vertex_count
    for new, old in enumerate(old_of_new):
        values[new] = a.values[old]
    kept = (frag for frag in g.fragments if removed not in frag.endpoints)
    for frag, original in zip(sub_g.fragments, kept):
        aux, source = frag.aux, original.aux
        values[aux.start : aux.stop] = a.values[source.start : source.stop]
    return Assignment(tuple(values))


def quantum_range(h: HyperGraph, *, underweight: str = "error") -> QuantumRange:
    """Spectral range of the observable for a ray-bound hyper-graph.

    Every basis in an edge gadget contributes exactly 1 to the quantum
    expectation, so each edge observable is worth exactly twice its weight
    and only the core projector sum needs diagonalizing. Edges whose weight
    is below what their endpoint overlap requires make the model
    unrealizable; set `underweight="warn"` to downgrade that to a warning.
    """
    from .linalg3 import _eigh, _projector_sum

    if underweight not in ("error", "warn"):
        raise ValidationError(f"underweight must be 'error' or 'warn', got {underweight!r}")
    if h.rays is None:
        raise ValidationError("quantum range needs a ray bound to every vertex")
    for e, o in zip(h.edges, h.overlaps):
        required = _least_weight(o)
        if e.weight < required:
            message = (
                f"edge (p{e.i + 1}, p{e.j + 1}) has weight {e.weight} but its ray overlap "
                f"requires at least {required}; the model is unrealizable"
            )
            if underweight == "error":
                raise ValidationError(message)
            warnings.warn(message, stacklevel=2)
    # the first and last eigenvalue of `eigensystem(projector_sum(h.rays))`, by the same operations
    eigenvalues = _eigh(_projector_sum([r.amplitudes for r in h.rays])).eigenvalues
    lam_min = float(eigenvalues[0])
    lam_max = float(eigenvalues[2])
    weight_term = 2 * h.weight_sum
    return QuantumRange(weight_term + lam_min, weight_term + lam_max, lam_min, lam_max, weight_term)


def classify(
    h: HyperGraph,
    *,
    underweight: str = "error",
    max_vertices: int = DEFAULT_MIS_LIMIT,
) -> ViolationReport:
    """Compare the spectrum against the independence number.

    state-independent: lambda_min exceeds |U|; state-dependent: only
    lambda_max does; otherwise no violation. Boundary cases within 1e-9
    resolve to the weaker class so floating-point noise never over-claims
    contextuality.
    """
    quantum = quantum_range(h, underweight=underweight)
    classical = classical_bound(h, max_vertices=max_vertices)
    u = classical.independence_term
    if quantum.lambda_min > u + SPECTRAL_TOLERANCE:
        verdict = Classification.STATE_INDEPENDENT
        margin = quantum.lambda_min - u
    elif quantum.lambda_max > u + SPECTRAL_TOLERANCE:
        verdict = Classification.STATE_DEPENDENT
        margin = quantum.lambda_max - u
    else:
        verdict = Classification.NO_VIOLATION
        margin = quantum.lambda_max - u
    return ViolationReport(classical, quantum, verdict, margin)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_deviation: float
    worst_item: str


@dataclass(frozen=True)
class RealizationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _worst_deviation(
    name: str, deviations: Iterable[tuple[Any, float]], label: Callable[[Any], str], tol: float
) -> CheckResult:
    """One check's result from its (place, deviation) pairs, in the check's
    order: the largest deviation, at the first place that reaches it, which
    alone is labelled. A place deviates when its deviation is above 0; when
    none does (or there is no place) the result is 0.0 at "-". The check
    passes when the worst deviation is at most `tol`."""
    worst, at = 0.0, None
    for place, d in deviations:
        if d > worst:
            worst, at = d, place
    return CheckResult(name, worst <= tol, worst, "-" if at is None else label(at))


def verify_realization(
    g: ExpandedGraph,
    coords: Sequence[Ray] | Mapping[int, Ray],
    tol: float,
) -> RealizationReport:
    """Check user-supplied coordinates against the expanded graph.

    (a) every edge joins rays of overlap <= tol; (b) every basis triple is
    orthonormal and complete (projector sum = identity within tol); (c) each
    gadget's endpoint overlap fits its weight, overlap <= n/(n+2) + tol;
    (d) each gadget's auxiliary projectors sum to 2n times the identity
    within tol. Each check lists its deviations in its own order (sorted
    edges, bases, fragments, fragments of weight at least 1) and one scan,
    `_worst_deviation`, reports the worst and the first place that reaches
    it, or 0.0 at "-" when nothing deviates.
    """
    import numpy as np

    from .linalg3 import _projector_sum

    if not (math.isfinite(tol) and tol >= 0):
        raise ValidationError(f"tol must be finite and non-negative, got {tol}")
    n = len(g.vertices)
    if isinstance(coords, Mapping):
        missing = [v for v in range(n) if v not in coords]
        if missing:
            raise ValidationError(
                f"missing coordinates for vertices {[vertex_label(g.vertices[v]) for v in missing]}"
            )
        rays = [coords[v] for v in range(n)]
    else:
        if len(coords) != n:
            raise ValidationError(
                f"expected {n} coordinate rays, got {len(coords)}"
            )
        rays = list(coords)
    vectors = [r.amplitudes for r in rays]
    vdot = np.vdot
    identity = np.eye(3, dtype=np.complex128)

    def pair_label(i: int, j: int) -> str:
        return f"({vertex_label(g.vertices[i])}, {vertex_label(g.vertices[j])})"

    def edge_overlaps():
        for i, j in g.sorted_edges:
            yield (i, j), float(abs(vdot(vectors[i], vectors[j])))

    def basis_deviations():
        for pos, (a, b, c) in enumerate(g.bases):
            va, vb, vc = vectors[a], vectors[b], vectors[c]
            yield pos, max(
                0.0,
                float(abs(vdot(va, vb))),
                float(abs(vdot(va, vc))),
                float(abs(vdot(vb, vc))),
                float(np.abs(_projector_sum([va, vb, vc]) - identity).max()),
            )

    def endpoint_excesses():
        for frag in g.fragments:
            i, j = frag.endpoints
            limit = frag.weight / (frag.weight + 2)
            yield frag, float(abs(vdot(vectors[i], vectors[j]))) - limit

    def gadget_deviations():
        for frag in g.fragments:
            if frag.weight == 0:
                continue  # no auxiliary vertices: an empty sum deviates by 0
            total = _projector_sum([vectors[t] for t in frag.aux])
            yield frag, float(np.abs(total - 2 * frag.weight * identity).max())

    checks = (
        _worst_deviation("edge-orthogonality", edge_overlaps(), lambda at: f"edge {pair_label(*at)}", tol),
        _worst_deviation("basis-completeness", basis_deviations(), lambda at: f"basis {at}", tol),
        _worst_deviation("endpoint-overlap", endpoint_excesses(),
                         lambda at: f"edge e{at.edge_id} {pair_label(*at.endpoints)}", tol),
        _worst_deviation("gadget-projector-sum", gadget_deviations(), lambda at: f"edge e{at.edge_id}", tol),
    )
    return RealizationReport(checks)


def tetrahedron_rays() -> tuple[Ray, Ray, Ray, Ray]:
    """Four real rays toward the vertices of a regular tetrahedron; any two
    have overlap 1/3 and their projectors sum to 4/3 times the identity."""
    from .linalg3 import Ray

    s = 1.0 / math.sqrt(3.0)
    return (
        Ray((s, s, s)),
        Ray((s, -s, -s)),
        Ray((-s, s, -s)),
        Ray((-s, -s, s)),
    )


def wheel7_demo_rays(delta: float = 0.005) -> tuple[Ray, ...]:
    """Seven-ray demo set: the tetrahedron rays plus the standard basis
    tilted by `delta` radians about the (1,1,1) axis.

    The tilt keeps the last three rays an exact orthonormal basis (their
    projectors sum to the identity) while avoiding any special alignment
    with the tetrahedron rays, so the seven-projector sum is 7/3 times the
    identity up to O(delta) and nothing is parallel.
    """
    import numpy as np

    from .linalg3 import Ray

    if not 0.0 < abs(delta) < 0.1:
        raise ValidationError(f"tilt angle must be small and nonzero, got {delta!r}")
    axis = np.ones(3) / math.sqrt(3.0)
    cross = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    rotation = (
        math.cos(delta) * np.eye(3)
        + math.sin(delta) * cross
        + (1.0 - math.cos(delta)) * (axis[:, None] * axis)
    )
    basis = tuple(Ray(rotation[:, k]) for k in range(3))
    return tetrahedron_rays() + basis
