"""Tests for gadget expansion, expression oracles, and constraint propagation."""

import random
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _fixtures import _gray_walk_max

from kshg import (
    Assignment,
    AuxVertex,
    CapacityError,
    CoreVertex,
    ExpandedGraph,
    FamilySpec,
    HyperEdge,
    HyperGraph,
    ValidationError,
    brute_force_max,
    evaluate,
    evaluate_edge_observable,
    expand,
    expand_hyper_edge,
    family_bound,
    generate,
    ks_propagate,
    max_edge_observable,
    mis_oracle,
    random_hypergraph,
    to_dot,
    vertex_label,
)
from kshg import expansion


def enumerate_max(g: ExpandedGraph, subtract_cores: bool) -> int:
    """Oracle: direct maximum over all 2^|V| assignments via itertools."""
    n = len(g.vertices)
    cores = g.core_indices
    best = None
    for bits in product((0, 1), repeat=n):
        a = Assignment(bits)
        value = evaluate(g, a)
        if subtract_cores:
            value -= bits[cores[0]] + bits[cores[1]]
        if best is None or value > best:
            best = value
    return best


class TestGadgetStructure:
    @pytest.mark.parametrize("n", range(0, 5))
    def test_counts(self, n):
        g = expand_hyper_edge(n)
        assert len(g.vertices) == 6 * n + 2
        assert len(g.edges) == 10 * n + 1
        assert len(g.bases) == 2 * n

    def test_clifton_shape(self):
        g = expand_hyper_edge(1)
        assert len(g.vertices) == 8
        assert len(g.edges) == 11
        assert len(g.bases) == 2

    def test_bases_are_triangles(self):
        for n in (1, 2, 3, 4):
            g = expand_hyper_edge(n)
            for triple in g.bases:
                a, b, c = sorted(triple)
                assert (a, b) in g.edges and (a, c) in g.edges and (b, c) in g.edges

    def test_aux_levels(self):
        g = expand_hyper_edge(3)
        for v in g.vertices:
            if isinstance(v, AuxVertex):
                if v.kind in ("p", "q"):
                    assert 0 <= v.level <= 2
                else:
                    assert 1 <= v.level <= 3

    def test_weight_zero(self):
        g = expand_hyper_edge(0)
        assert len(g.vertices) == 2
        assert g.edges == frozenset({(0, 1)})
        assert g.bases == ()

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            expand_hyper_edge(-1)

    def test_no_self_loops_or_duplicates(self):
        g = expand_hyper_edge(4)
        assert all(i < j for i, j in g.edges)

    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_gadget_nests_recursively(self, n):
        # the weight-n gadget contains the weight-(n-1) gadget, with the
        # level-(n-1) chain rays standing in for the smaller gadget's cores
        big = expand_hyper_edge(n)
        small = expand_hyper_edge(n - 1)

        def embed(v):
            vert = small.vertices[v]
            if isinstance(vert, CoreVertex):
                kind = "p" if vert.index == 0 else "q"
                return big.aux_index(0, kind, n - 1)
            return big.aux_index(0, vert.kind, vert.level)

        for i, j in small.edges:
            a, b = embed(i), embed(j)
            assert (min(a, b), max(a, b)) in big.edges
        big_bases = set(big.bases)
        for triple in small.bases:
            assert tuple(sorted(embed(t) for t in triple)) in big_bases


class TestExpand:
    def test_single_weight_one_edge(self):
        h = generate(FamilySpec("linear", k=2, weights=1))
        g = expand(h)
        assert len(g.vertices) == 8
        assert len(g.edges) == 11

    def test_complete_k3(self):
        h = generate(FamilySpec("complete", k=3, weights=1))
        g = expand(h)
        assert len(g.vertices) == 21
        assert len(g.edges) == 33

    def test_all_weight_zero(self):
        h = generate(FamilySpec("cyclic", k=5, weights=0))
        g = expand(h)
        assert len(g.vertices) == 5
        assert len(g.edges) == 5

    def test_totals_random(self):
        rng = random.Random(4)
        for _ in range(30):
            h = random_hypergraph(rng, rng.randint(2, 6), max_weight=3)
            g = expand(h)
            assert len(g.vertices) == h.vertex_count + 6 * h.weight_sum
            assert len(g.edges) == sum(10 * e.weight + 1 for e in h.edges)
            assert len(g.bases) == 2 * h.weight_sum

    def test_cores_first_and_shared(self):
        h = generate(FamilySpec("complete", k=3, weights=2))
        g = expand(h)
        assert [v.index for v in g.vertices[:3] if isinstance(v, CoreVertex)] == [0, 1, 2]
        aux_owners = {v.edge for v in g.vertices[3:]}
        assert aux_owners == {0, 1, 2}

    def test_fragment_order_matches_standalone(self):
        h = HyperGraph(3, (HyperEdge(0, 2, 2), HyperEdge(1, 2, 1)))
        g = expand(h)
        for frag in g.fragments:
            standalone = expand_hyper_edge(frag.weight, frag.edge_id)
            assert len(frag.vertex_indices) == len(standalone.vertices)
            for local, global_idx in enumerate(frag.vertex_indices):
                mine = g.vertices[global_idx]
                theirs = standalone.vertices[local]
                if isinstance(theirs, AuxVertex):
                    assert isinstance(mine, AuxVertex)
                    assert (mine.kind, mine.level) == (theirs.kind, theirs.level)


class TestEvaluate:
    def test_all_zero(self):
        g = expand_hyper_edge(1)
        assert evaluate(g, Assignment((0,) * 8)) == 0

    def test_single_edge_both_one(self):
        g = expand_hyper_edge(0)
        assert evaluate(g, Assignment((1, 1))) == 1

    def test_independent_triple_scores_three(self):
        g = expand_hyper_edge(1)
        # {P1, P2, p0} is independent: cores touch only their bridging pairs
        values = [0] * 8
        values[0] = values[1] = 1
        values[g.aux_index(0, "p", 0)] = 1
        assert evaluate(g, Assignment(tuple(values))) == 3

    def test_size_mismatch(self):
        g = expand_hyper_edge(1)
        with pytest.raises(ValidationError):
            evaluate(g, Assignment((0, 1)))

    def test_bad_values_rejected(self):
        with pytest.raises(ValidationError):
            Assignment((0, 2))


class TestEdgeObservable:
    def test_all_zero(self):
        g = expand_hyper_edge(1)
        assert evaluate_edge_observable(g, Assignment((0,) * 8)) == 0

    def test_weight_zero_both_endpoints(self):
        g = expand_hyper_edge(0)
        assert evaluate_edge_observable(g, Assignment((1, 1))) == -1

    def test_maximum_matches_enumeration_n1(self):
        g = expand_hyper_edge(1)
        oracle = enumerate_max(g, subtract_cores=True)
        assert oracle == 2
        assert max_edge_observable(g) == oracle

    def test_maximum_n2(self):
        g = expand_hyper_edge(2)
        assert max_edge_observable(g) == 4

    def test_requires_two_cores(self):
        h = generate(FamilySpec("complete", k=3, weights=1))
        g = expand(h)
        with pytest.raises(ValidationError, match="2 cores"):
            evaluate_edge_observable(g, Assignment((0,) * len(g.vertices)))


class TestBruteForceMax:
    def test_matches_enumeration_on_clifton(self):
        g = expand_hyper_edge(1)
        oracle = enumerate_max(g, subtract_cores=False)
        assert oracle == 3
        assert brute_force_max(g) == oracle

    def test_single_edge_weights(self):
        for n in (0, 1, 2):
            assert brute_force_max(expand_hyper_edge(n)) == 2 * n + 1

    def test_weight_zero_triangle(self):
        h = generate(FamilySpec("fractal-cyclic", k=1, weights=0))
        assert brute_force_max(expand(h)) == 1

    def test_capacity_error_directs_to_mis(self):
        h = generate(FamilySpec("complete", k=4, weights=2))
        g = expand(h)  # 52 vertices
        with pytest.raises(CapacityError, match="mis_oracle"):
            brute_force_max(g)

    def test_max_bits_override(self):
        g = expand_hyper_edge(1)
        with pytest.raises(CapacityError):
            brute_force_max(g, max_bits=7)

    def test_matches_direct_enumeration_on_random_graphs(self):
        rng = random.Random(17)
        checked = 0
        while checked < 20:
            h = random_hypergraph(rng, rng.randint(2, 4), max_weight=1)
            g = expand(h)
            if len(g.vertices) > 12:
                continue
            checked += 1
            oracle = max(
                evaluate(g, Assignment(bits))
                for bits in product((0, 1), repeat=len(g.vertices))
            )
            assert brute_force_max(g) == oracle

    def test_relabeling_invariance(self):
        rng = random.Random(6)
        h = random_hypergraph(rng, 4, max_weight=1)
        g = expand(h)
        baseline = brute_force_max(g)
        n = len(g.vertices)
        for _ in range(5):
            perm = list(range(n))
            rng.shuffle(perm)
            edges = frozenset(
                (min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in g.edges
            )
            vertices = [None] * n
            for old, new in enumerate(perm):
                vertices[new] = g.vertices[old]
            bases = tuple(tuple(sorted(perm[t] for t in triple)) for triple in g.bases)
            shuffled = ExpandedGraph(tuple(vertices), edges, bases)
            assert brute_force_max(shuffled) == baseline


@st.composite
def masked_graphs(draw):
    """(n, adjacency masks, penalty mask) on 0-16 vertices; row i's bits above i pick i's edges."""
    n = draw(st.integers(0, 16))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    adjacency = [0] * n
    for i, row in enumerate(rows):
        for j in range(i + 1, n):
            if (row >> j) & 1:
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i
    return n, adjacency, draw(st.integers(0, (1 << n) - 1))


class TestBlockEnumeration:
    # The second setting splits even small graphs into many blocks of 4-32 states.
    @pytest.mark.parametrize("low_bits, block_entries", [(12, 1 << 16), (3, 1 << 5)])
    @settings(max_examples=100, deadline=None)
    @given(case=masked_graphs())
    def test_matches_gray_walk(self, low_bits, block_entries, case):
        n, adjacency, penalty = case
        with mock.patch.multiple(expansion, ENUM_LOW_BITS=low_bits, ENUM_BLOCK_ENTRIES=block_entries):
            assert expansion._block_max(n, adjacency, penalty) == _gray_walk_max(n, adjacency, penalty)

    def test_empty_graph(self):
        assert brute_force_max(ExpandedGraph((), frozenset(), ())) == 0

    def test_single_vertex(self):
        assert brute_force_max(ExpandedGraph((CoreVertex(0),), frozenset(), ())) == 1
        assert expansion._block_max(1, (0,), penalty=1) == 0

    def test_26_bit_family_instance(self):
        spec = FamilySpec("cyclic", k=8, weights=(1, 0, 0, 1, 0, 0, 1, 0))
        g = expand(generate(spec))
        assert len(g.vertices) == 26
        assert brute_force_max(g) == family_bound(spec).total == 10


class TestMisOracle:
    def test_clifton(self):
        assert mis_oracle(expand_hyper_edge(1)) == 3

    def test_single_plain_edge(self):
        assert mis_oracle(expand_hyper_edge(0)) == 1

    def test_cyclic_k4(self):
        h = generate(FamilySpec("cyclic", k=4, weights=1))
        g = expand(h)
        assert len(g.vertices) == 28
        assert mis_oracle(g) == 10  # 2*4 + floor(4/2)

    def test_agrees_with_brute_force(self):
        rng = random.Random(9)
        count = 0
        while count < 25:
            h = random_hypergraph(rng, rng.randint(2, 4), max_weight=2)
            g = expand(h)
            if len(g.vertices) > 22:
                continue
            count += 1
            assert mis_oracle(g) == brute_force_max(g)

    def test_capacity(self):
        h = generate(FamilySpec("complete", k=5, weights=2))
        g = expand(h)  # 125 vertices
        with pytest.raises(CapacityError):
            mis_oracle(g)
        assert mis_oracle(g, max_vertices=200) == 41  # 2*20 + 1


class TestKsPropagate:
    def test_clifton_contradiction(self):
        g = expand_hyper_edge(1)
        outcome = ks_propagate(g, {0: 1, 1: 1})
        assert outcome.contradiction
        assert outcome.violation.kind == "edge"
        p0 = g.aux_index(0, "p", 0)
        q0 = g.aux_index(0, "q", 0)
        assert set(outcome.violation.vertices) == {p0, q0}
        forced = {s.vertex: s.value for s in outcome.steps}
        for kind in ("a+", "a-", "b+", "b-"):
            assert forced[g.aux_index(0, kind, 1)] == 0
        assert forced[p0] == 1 or forced[q0] == 1

    def test_one_endpoint_consistent(self):
        g = expand_hyper_edge(1)
        outcome = ks_propagate(g, {0: 1, 1: 0})
        assert not outcome.contradiction
        assert outcome.violation is None
        assert len(outcome.assignment) == 8
        # every vertex adjacent to a 1 ended at 0
        values = outcome.assignment.values
        for i, j in g.sorted_edges:
            assert values[i] * values[j] == 0

    def test_deeper_gadget_longer_trace(self):
        shallow = ks_propagate(expand_hyper_edge(1), {0: 1, 1: 1})
        deep = ks_propagate(expand_hyper_edge(2), {0: 1, 1: 1})
        assert deep.contradiction
        assert len(deep.steps) > len(shallow.steps)
        g2 = expand_hyper_edge(2)
        assert set(deep.violation.vertices) == {g2.aux_index(0, "p", 0), g2.aux_index(0, "q", 0)}

    @pytest.mark.parametrize("n", (1, 2, 3, 4))
    def test_contradiction_for_all_weights(self, n):
        outcome = ks_propagate(expand_hyper_edge(n), {0: 1, 1: 1})
        assert outcome.contradiction

    def test_requires_bases(self):
        g = expand_hyper_edge(0)
        with pytest.raises(ValidationError, match="basis"):
            ks_propagate(g, {0: 1, 1: 1})

    def test_rejects_bad_forced_values(self):
        g = expand_hyper_edge(1)
        with pytest.raises(ValidationError):
            ks_propagate(g, {0: 2})
        with pytest.raises(ValidationError):
            ks_propagate(g, {99: 1})

    def test_deterministic(self):
        g = expand_hyper_edge(3)
        a = ks_propagate(g, {0: 1, 1: 1})
        b = ks_propagate(g, {0: 1, 1: 1})
        assert a == b


class TestDot:
    def test_labels_and_structure(self):
        g = expand_hyper_edge(1, edge_id=5)
        dot = to_dot(g)
        assert dot.startswith("graph expansion {")
        assert 'n0 [label="P1"];' in dot
        assert 'n1 [label="P2"];' in dot
        assert '[label="e5:p0"]' in dot
        assert '[label="e5:a+1"]' in dot
        assert "// basis 0:" in dot
        assert dot.count(" -- ") == 11

    def test_deterministic(self):
        h = generate(FamilySpec("complete", k=3, weights=1))
        assert to_dot(expand(h)) == to_dot(expand(h))

    def test_vertex_label(self):
        assert vertex_label(CoreVertex(0)) == "P1"
        assert vertex_label(AuxVertex(2, "b-", 3)) == "e2:b-3"
