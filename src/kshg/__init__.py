"""Weighted hyper-graphs of qutrit rays: non-contextual bounds, exact
value-assignment oracles, and quantum violation classification.

The classical bounds, the MIS oracle, propagation and the file formats are
integer work and run without numpy. Only the qutrit layer,
:mod:`kshg.linalg3`, and the enumeration kernel behind `brute_force_max`
load numpy, so linalg3's names (`Ray`, `eigensystem`, ...) are imported
on first use.
"""

from .bounds import (
    CheckResult,
    Classification,
    ClassicalBound,
    DecompositionCheck,
    QuantumRange,
    RealizationReport,
    ViolationReport,
    check_subgraph_decomposition,
    classical_bound,
    classify,
    family_bound,
    hypergraph_observable_value,
    quantum_range,
    tetrahedron_rays,
    verify_realization,
    wheel7_demo_rays,
)
from .errors import CapacityError, ValidationError
from .expansion import (
    Assignment,
    AuxVertex,
    CoreVertex,
    ExpandedGraph,
    Fragment,
    PropagationOutcome,
    PropagationStep,
    Violation,
    brute_force_max,
    evaluate,
    evaluate_edge_observable,
    expand,
    expand_hyper_edge,
    ks_propagate,
    max_edge_observable,
    mis_oracle,
    to_dot,
    vertex_label,
)
from .hypergraph import (
    FAMILIES,
    FamilySpec,
    HyperEdge,
    HyperGraph,
    IndependentSetResult,
    build_from_rays,
    closed_form_independence,
    family_edge_pairs,
    family_parameters,
    family_vertex_count,
    generate,
    hyper_edge_weight,
    max_independent_set,
    random_hypergraph,
    remove_vertex,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "AuxVertex",
    "CapacityError",
    "CheckResult",
    "Classification",
    "ClassicalBound",
    "CoreVertex",
    "DecompositionCheck",
    "EigenDecomposition",
    "ExpandedGraph",
    "FAMILIES",
    "FamilySpec",
    "Fragment",
    "Hermitian3",
    "HyperEdge",
    "HyperGraph",
    "IndependentSetResult",
    "PropagationOutcome",
    "PropagationStep",
    "QuantumRange",
    "Ray",
    "RealizationReport",
    "ValidationError",
    "Violation",
    "ViolationReport",
    "brute_force_max",
    "build_from_rays",
    "check_subgraph_decomposition",
    "classical_bound",
    "classify",
    "closed_form_independence",
    "eigensystem",
    "evaluate",
    "evaluate_edge_observable",
    "expand",
    "expand_hyper_edge",
    "family_bound",
    "family_edge_pairs",
    "family_parameters",
    "family_vertex_count",
    "generate",
    "hyper_edge_weight",
    "hypergraph_observable_value",
    "ks_propagate",
    "max_edge_observable",
    "max_independent_set",
    "mis_oracle",
    "overlap",
    "projector",
    "projector_sum",
    "quantum_range",
    "random_hypergraph",
    "remove_vertex",
    "tetrahedron_rays",
    "to_dot",
    "verify_realization",
    "vertex_label",
    "wheel7_demo_rays",
]

_LINALG3 = (
    "EigenDecomposition",
    "Hermitian3",
    "Ray",
    "eigensystem",
    "overlap",
    "projector",
    "projector_sum",
)


def __getattr__(name: str):
    # Called only for names not yet in the namespace (PEP 562): the first
    # read of a linalg3 name binds all of them, so later reads never get here.
    if name not in _LINALG3:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import linalg3

    namespace = globals()
    for lazy in _LINALG3:
        namespace[lazy] = getattr(linalg3, lazy)
    return namespace[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LINALG3))
