"""Tests for classical bounds, decomposition identity, quantum ranges,
classification, and realization verification."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kshg import (
    FAMILIES,
    Assignment,
    Classification,
    FamilySpec,
    HyperEdge,
    HyperGraph,
    Ray,
    ValidationError,
    brute_force_max,
    check_subgraph_decomposition,
    classical_bound,
    classify,
    closed_form_independence,
    evaluate,
    expand,
    expand_hyper_edge,
    family_bound,
    family_edge_pairs,
    family_vertex_count,
    generate,
    hypergraph_observable_value,
    max_independent_set,
    mis_oracle,
    quantum_range,
    random_hypergraph,
    remove_vertex,
    tetrahedron_rays,
    verify_realization,
    wheel7_demo_rays,
)

from kshg import _indset
from kshg.bounds import _restrict_assignment
from kshg.expansion import CORE_MAX_WIDTH, expanded_vertex_count

from _fixtures import _aux_index_restrict, clifton_realization, cone_rays

RT3 = 1.0 / math.sqrt(3.0)


class TestClassicalBound:
    def test_single_weight2_edge(self):
        h = generate(FamilySpec("linear", k=2, weights=2))
        b = classical_bound(h)
        assert (b.total, b.weight_term, b.independence_term) == (5, 4, 1)

    def test_wheel7_uniform(self):
        b = classical_bound(generate(FamilySpec("wheel7", weights=1)))
        assert b.total == 30  # 2*14 + 2

    def test_complete_k4(self):
        b = classical_bound(generate(FamilySpec("complete", k=4, weights=1)))
        assert b.total == 13  # 2*6 + 1

    def test_witness_reported(self):
        b = classical_bound(generate(FamilySpec("linear", k=5, weights=1)))
        assert b.witness == (0, 2, 4)

    def test_total_consistency(self):
        rng = random.Random(19)
        for _ in range(30):
            h = random_hypergraph(rng, rng.randint(2, 6))
            b = classical_bound(h)
            assert b.total == b.weight_term + b.independence_term


class TestFamilyBound:
    def test_linear_k3(self):
        assert family_bound(FamilySpec("linear", k=3, weights=(1, 1))).total == 6

    def test_cyclic_k5(self):
        assert family_bound(FamilySpec("cyclic", k=5, weights=1)).total == 12

    def test_fractal_cyclic_k2(self):
        b = family_bound(FamilySpec("fractal-cyclic", k=2, weights=1))
        assert (b.total, b.weight_term, b.independence_term) == (27, 24, 3)

    @pytest.mark.parametrize("family,kw", [
        ("complete", dict(k=5)),
        ("linear", dict(k=7)),
        ("cyclic", dict(k=6)),
        ("fractal-tree", dict(k=2)),
        ("fractal-cyclic", dict(k=2)),
        ("square-lattice", dict(mx=3, my=4)),
        ("torus-lattice", dict(mx=3, my=3)),
        ("wheel7", dict()),
        ("torus-lattice", dict(mx=4, my=5)),
    ])
    @pytest.mark.parametrize("weight", (1, 2))
    def test_equals_exact_bound(self, family, kw, weight):
        spec = FamilySpec(family, weights=weight, **kw)
        assert family_bound(spec).total == classical_bound(generate(spec)).total

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_closed_forms_match_exact_search(self, data):
        # every family at random in-range sizes of at most 40 core vertices
        family = data.draw(st.sampled_from(FAMILIES))
        if family in ("square-lattice", "torus-lattice"):
            least = 1 if family == "square-lattice" else 3
            mx = data.draw(st.integers(least, 40 // least))
            kw = dict(mx=mx, my=data.draw(st.integers(least, 40 // mx)))
        elif family == "wheel7":
            kw = {}
        else:
            k_range = {"complete": (2, 40), "linear": (2, 40), "cyclic": (3, 40),
                       "fractal-tree": (1, 4), "fractal-cyclic": (1, 3)}[family]
            kw = dict(k=data.draw(st.integers(*k_range)))
        m = len(family_edge_pairs(FamilySpec(family, **kw)))
        per_edge = st.lists(st.integers(0, 2), min_size=m, max_size=m).map(tuple)
        spec = FamilySpec(family, weights=data.draw(st.integers(0, 2) | per_edge), **kw)
        h = generate(spec)
        assert family_vertex_count(spec) == h.vertex_count <= 40
        assert closed_form_independence(spec) == max_independent_set(h).size
        assert family_bound(spec).total == classical_bound(h).total
        # A weighted complete graph wider than the core elimination is split by
        # conditioning: such a draw costs seconds (k <= 21) or is refused.
        if family != "complete" or h.vertex_count - 1 <= CORE_MAX_WIDTH or h.weight_sum == 0:
            g = expand(h)
            assert mis_oracle(g, max_vertices=len(g.vertices)) == family_bound(spec).total


class TestObservableValue:
    def test_equals_plain_expression(self):
        rng = random.Random(3)
        for _ in range(100):
            h = random_hypergraph(rng, rng.randint(2, 5), max_weight=2)
            g = expand(h)
            a = Assignment(tuple(rng.randint(0, 1) for _ in g.vertices))
            assert hypergraph_observable_value(h, g, a) == evaluate(g, a)


class TestSubgraphDecomposition:
    def test_all_zero_assignment(self):
        h = generate(FamilySpec("complete", k=3, weights=1))
        g = expand(h)
        result = check_subgraph_decomposition(h, Assignment((0,) * len(g.vertices)))
        assert result.equal and result.lhs == 0 and result.rhs == 0

    def test_cyclic_mixed_weights(self):
        h = generate(FamilySpec("cyclic", k=4, weights=(1, 2, 1, 2)))
        g = expand(h)
        rng = random.Random(21)
        for _ in range(100):
            a = Assignment(tuple(rng.randint(0, 1) for _ in g.vertices))
            assert check_subgraph_decomposition(h, a).equal

    def test_random_six_vertex_graphs(self):
        rng = random.Random(23)
        for _ in range(100):
            h = random_hypergraph(rng, 6, max_weight=2)
            g = expand(h)
            a = Assignment(tuple(rng.randint(0, 1) for _ in g.vertices))
            result = check_subgraph_decomposition(h, a)
            assert result.equal, result

    def test_needs_three_vertices(self):
        h = generate(FamilySpec("linear", k=2, weights=1))
        with pytest.raises(ValidationError):
            check_subgraph_decomposition(h, Assignment((0,) * 8))

    def test_assignment_mismatch(self):
        h = generate(FamilySpec("complete", k=3, weights=1))
        with pytest.raises(ValidationError):
            check_subgraph_decomposition(h, Assignment((0, 0, 0)))


@st.composite
def assigned_hypergraphs(draw):
    """(hyper-graph, assignment of its expansion): 3-6 cores, weights 0-3."""
    k = draw(st.integers(3, 6))
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    weights = draw(st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)))
    h = HyperGraph(k, tuple(HyperEdge(i, j, w) for (i, j), p, w in zip(pairs, present, weights) if p))
    n = k + 6 * h.weight_sum
    bits = draw(st.integers(0, (1 << n) - 1))
    return h, Assignment(tuple((bits >> v) & 1 for v in range(n)))


class TestRestrictAssignment:
    @settings(max_examples=60, deadline=None)
    @given(case=assigned_hypergraphs())
    def test_matches_aux_index_reference(self, case):
        h, a = case
        g = expand(h)
        for removed in range(h.vertex_count):
            sub_h, old_of_new = remove_vertex(h, removed)
            sub_g = expand(sub_h)
            expected = _aux_index_restrict(h, g, a, sub_h, sub_g, old_of_new)
            assert _restrict_assignment(h, g, a, sub_g, old_of_new) == expected
        result = check_subgraph_decomposition(h, a)
        assert result.equal
        assert result.lhs == (h.vertex_count - 2) * evaluate(g, a)


class TestQuantumRange:
    def test_orthogonal_pair_weight_zero(self):
        h = HyperGraph(2, (HyperEdge(0, 1, 0),), (Ray((1, 0, 0)), Ray((0, 1, 0))))
        q = quantum_range(h)
        assert q.lo == pytest.approx(0.0, abs=1e-12)
        assert q.hi == pytest.approx(1.0, abs=1e-12)

    def test_tetrahedron_complete(self):
        h = generate(FamilySpec("complete", k=4), rays=tetrahedron_rays())
        q = quantum_range(h)
        assert q.lo == pytest.approx(12 + 4.0 / 3.0, abs=1e-10)
        assert q.hi == pytest.approx(12 + 4.0 / 3.0, abs=1e-10)

    def test_wheel7_demo_spectrum(self):
        h = generate(FamilySpec("wheel7"), rays=wheel7_demo_rays(0.005))
        q = quantum_range(h)
        assert abs(q.lambda_min - 7.0 / 3.0) < 0.05
        assert q.lo <= q.hi
        assert q.hi - q.lo <= 7.0 + 1e-9

    def test_requires_rays(self):
        with pytest.raises(ValidationError, match="ray"):
            quantum_range(generate(FamilySpec("wheel7")))

    def test_underweight_edge_named(self):
        rays = (Ray((RT3, RT3, RT3)), Ray((RT3, -RT3, -RT3)))
        h = HyperGraph(2, (HyperEdge(0, 1, 0),), rays)  # overlap 1/3 needs weight 1
        with pytest.raises(ValidationError, match=r"\(p1, p2\)"):
            quantum_range(h)

    def test_underweight_warn_mode(self):
        rays = (Ray((RT3, RT3, RT3)), Ray((RT3, -RT3, -RT3)))
        h = HyperGraph(2, (HyperEdge(0, 1, 0),), rays)
        with pytest.warns(UserWarning, match="unrealizable"):
            q = quantum_range(h, underweight="warn")
        assert q.weight_term == 0

    def test_overweight_allowed(self):
        # weights above the minimum are legitimate (non-optimal constructions)
        rays = (Ray((RT3, RT3, RT3)), Ray((RT3, -RT3, -RT3)))
        h = HyperGraph(2, (HyperEdge(0, 1, 5),), rays)
        assert quantum_range(h).weight_term == 10


class TestClassify:
    def test_wheel7_state_independent(self):
        h = generate(FamilySpec("wheel7"), rays=wheel7_demo_rays(0.005))
        report = classify(h)
        assert report.classification is Classification.STATE_INDEPENDENT
        assert report.margin > 0.25
        assert report.classical.total == 58  # 2*28 + 2

    def test_orthogonal_pair_no_violation(self):
        h = HyperGraph(2, (HyperEdge(0, 1, 0),), (Ray((1, 0, 0)), Ray((0, 1, 0))))
        report = classify(h)
        assert report.classification is Classification.NO_VIOLATION
        assert report.margin == pytest.approx(0.0, abs=1e-12)

    def test_cone_triangle_state_dependent(self):
        h = generate(FamilySpec("complete", k=3), rays=cone_rays())
        assert all(e.weight == 1 for e in h.edges)
        report = classify(h)
        assert report.quantum.lambda_max == pytest.approx(5.0 / 3.0, abs=1e-10)
        assert report.quantum.lambda_min == pytest.approx(2.0 / 3.0, abs=1e-10)
        assert report.classification is Classification.STATE_DEPENDENT

    def test_phase_invariance(self):
        rng = np.random.RandomState(29)
        base = wheel7_demo_rays(0.005)
        h0 = generate(FamilySpec("wheel7"), rays=base)
        r0 = classify(h0)
        phased = tuple(
            Ray(np.exp(1j * rng.uniform(0, 2 * np.pi)) * r.amplitudes) for r in base
        )
        h1 = generate(FamilySpec("wheel7"), rays=phased)
        r1 = classify(h1)
        assert r1.classification is r0.classification
        assert r1.quantum.lambda_min == pytest.approx(r0.quantum.lambda_min, abs=1e-12)
        assert r1.quantum.lambda_max == pytest.approx(r0.quantum.lambda_max, abs=1e-12)
        assert r1.margin == pytest.approx(r0.margin, abs=1e-12)

    def test_exactly_one_class(self):
        cases = [
            generate(FamilySpec("wheel7"), rays=wheel7_demo_rays()),
            HyperGraph(2, (HyperEdge(0, 1, 0),), (Ray((1, 0, 0)), Ray((0, 1, 0)))),
            generate(FamilySpec("complete", k=3), rays=cone_rays()),
        ]
        for h in cases:
            report = classify(h)
            assert report.classification in Classification


@st.composite
def small_expansions(draw):
    """2-6 cores, weights 0-1, at most 16 expanded vertices."""
    k = draw(st.integers(2, 6))
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    heavy = draw(st.lists(st.sampled_from(pairs), max_size=(16 - k) // 6, unique=True))
    return HyperGraph(
        k,
        tuple(
            HyperEdge(i, j, int((i, j) in heavy))
            for (i, j), p in zip(pairs, present)
            if p or (i, j) in heavy
        ),
    )


class TestSoundness:
    def test_oracle_below_bound(self):
        rng = random.Random(31)
        for _ in range(50):
            h = random_hypergraph(rng, rng.randint(2, 5), max_weight=2)
            g = expand(h)
            assert mis_oracle(g, max_vertices=200) <= classical_bound(h).total

    @settings(max_examples=100, deadline=None)
    @given(h=small_expansions())
    def test_four_oracles_agree(self, h):
        assert expanded_vertex_count(h) <= 16
        g = expand(h)
        formula = 2 * h.weight_sum + max_independent_set(h, method="brute").size
        assert classical_bound(h).total == formula == mis_oracle(g) == brute_force_max(g)
        assert _indset.independence_number(g.adjacency_masks) == formula


class TestVerifyRealization:
    def test_clifton_coordinates_pass(self):
        g = expand_hyper_edge(1)
        report = verify_realization(g, clifton_realization(), tol=1e-9)
        assert report.passed
        by_name = {c.name: c for c in report.checks}
        assert set(by_name) == {
            "edge-orthogonality",
            "basis-completeness",
            "endpoint-overlap",
            "gadget-projector-sum",
        }
        for c in report.checks:
            assert c.worst_deviation <= 1e-9

    def test_perturbed_aux_fails_edge_check(self):
        g = expand_hyper_edge(1)
        coords = clifton_realization()
        bad = coords[4].amplitudes.copy()
        bad[0] += 1e-3
        coords[4] = Ray.normalized(bad)
        report = verify_realization(g, coords, tol=1e-9)
        assert not report.passed
        edge_check = next(c for c in report.checks if c.name == "edge-orthogonality")
        assert not edge_check.passed
        assert "e0:a+1" in edge_check.worst_item

    def test_weight_zero_triangle_passes_with_zero_deviation(self):
        h = generate(FamilySpec("fractal-cyclic", k=1, weights=0))
        g = expand(h)
        basis = [Ray((1, 0, 0)), Ray((0, 1, 0)), Ray((0, 0, 1))]
        report = verify_realization(g, basis, tol=1e-9)
        assert report.passed
        assert all(c.worst_deviation == 0.0 for c in report.checks)

    def test_basis_completeness_implies_gadget_sum(self):
        g = expand_hyper_edge(1)
        report = verify_realization(g, clifton_realization(), tol=1e-9)
        by_name = {c.name: c for c in report.checks}
        if by_name["basis-completeness"].passed:
            assert by_name["gadget-projector-sum"].passed

    def test_missing_coordinates(self):
        g = expand_hyper_edge(1)
        with pytest.raises(ValidationError, match="missing"):
            verify_realization(g, {0: Ray((1, 0, 0))}, tol=1e-9)
        with pytest.raises(ValidationError):
            verify_realization(g, [Ray((1, 0, 0))], tol=1e-9)

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
    def test_bad_tolerance_refused(self, tol):
        with pytest.raises(ValidationError, match=f"^tol must be finite and non-negative, got {tol}$"):
            verify_realization(expand_hyper_edge(1), clifton_realization(), tol=tol)

    def test_mapping_coordinates_accepted(self):
        g = expand_hyper_edge(1)
        coords = {i: r for i, r in enumerate(clifton_realization())}
        assert verify_realization(g, coords, tol=1e-9).passed

    def test_undersized_weight_caught_by_endpoint_check(self):
        # gadget recorded as weight 1, but these endpoints overlap well above 1/3
        g = expand_hyper_edge(1)
        coords = clifton_realization()
        coords[1] = Ray((1, 0, 0))
        report = verify_realization(g, coords, tol=1e-9)
        endpoint = next(c for c in report.checks if c.name == "endpoint-overlap")
        assert not endpoint.passed
        assert "e0" in endpoint.worst_item
