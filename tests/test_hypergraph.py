"""Tests for the hyper-graph model, weights, generators, and exact MIS."""

import dataclasses
import math
import random
import re
from itertools import combinations

import numpy as np
import pytest

from kshg import (
    CapacityError,
    FamilySpec,
    HyperEdge,
    HyperGraph,
    Ray,
    ValidationError,
    build_from_rays,
    closed_form_independence,
    family_edge_pairs,
    family_parameters,
    generate,
    hyper_edge_weight,
    max_independent_set,
    random_hypergraph,
    remove_vertex,
    tetrahedron_rays,
)

RT3 = 1.0 / math.sqrt(3.0)


def least_weight_by_scan(x: float) -> int | None:
    """Independent oracle: smallest n in 0..2000 with x <= n/(n+2) + 1e-9."""
    for n in range(0, 2001):
        if x <= n / (n + 2) + 1e-9:
            return n
    return None


class TestHyperEdgeWeight:
    def test_orthogonal(self):
        assert hyper_edge_weight(0.0) == 0

    def test_third_boundary(self):
        # 2*(1/3)/(2/3) = 1, and the interval is closed on the right
        assert hyper_edge_weight(1.0 / 3.0) == 1

    def test_half(self):
        assert hyper_edge_weight(0.5) == 2

    def test_cap_drops_edge(self):
        assert hyper_edge_weight(0.5, cap=1) is None

    def test_cap_keeps_small_overlap(self):
        assert hyper_edge_weight(0.3, cap=1) == 1

    @pytest.mark.parametrize("cap", [0, -2])
    def test_non_positive_cap_rejected(self, cap):
        with pytest.raises(ValidationError, match=f"^weight cap must be a positive integer, got {cap}$"):
            hyper_edge_weight(0.5, cap=cap)

    @pytest.mark.parametrize("cap", [1.5, 2.0, "2"])
    def test_non_integer_cap_rejected(self, cap):
        # cap=1.5 used to drop the pair, and cap="2" raised a bare TypeError
        with pytest.raises(ValidationError, match=f"^weight cap must be an integer, got {re.escape(repr(cap))}$"):
            hyper_edge_weight(0.5, cap=cap)
        assert hyper_edge_weight(0.5, cap=np.int64(2)) == 2

    def test_parallel_rejected(self):
        with pytest.raises(ValidationError, match="parallel"):
            hyper_edge_weight(1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            hyper_edge_weight(-0.1)

    def test_boundary_noise_stays_down(self):
        for n in range(1, 12):
            edge = n / (n + 2)
            assert hyper_edge_weight(edge) == n
            assert hyper_edge_weight(edge + 9e-10) == n
            assert hyper_edge_weight(edge + 2e-9) == n + 1

    def test_matches_scan_oracle(self):
        rng = random.Random(101)
        for _ in range(1000):
            x = rng.uniform(0.0, 0.999)
            assert hyper_edge_weight(x) == least_weight_by_scan(x)


class TestBuildFromRays:
    def test_tetrahedron_complete_weight_one(self):
        h = build_from_rays(tetrahedron_rays())
        assert h.vertex_count == 4
        assert len(h.edges) == 6
        assert all(e.weight == 1 for e in h.edges)

    def test_standard_basis_triangle(self):
        h = build_from_rays([Ray((1, 0, 0)), Ray((0, 1, 0)), Ray((0, 0, 1))])
        assert len(h.edges) == 3
        assert all(e.weight == 0 for e in h.edges)

    def test_cap_filters_pair(self):
        a = Ray((1, 0, 0))
        b = Ray((0.5, math.sqrt(0.75), 0))  # overlap 0.5 needs weight 2
        h = build_from_rays([a, b], cap=1)
        assert h.vertex_count == 2
        assert h.edges == ()
        with pytest.raises(ValidationError, match="^weight cap must be an integer, got 1.5$"):
            build_from_rays([a, b], cap=1.5)

    def test_parallel_pair_named(self):
        a = Ray((1, 0, 0))
        b = Ray((-1, 0, 0))
        with pytest.raises(ValidationError, match=r"p1 and p2"):
            build_from_rays([a, b])

    def test_needs_two_rays(self):
        with pytest.raises(ValidationError):
            build_from_rays([Ray((1, 0, 0))])


EDGE_COUNTS = [
    (FamilySpec("complete", k=6), 6, 15),
    (FamilySpec("linear", k=8), 8, 7),
    (FamilySpec("cyclic", k=8), 8, 8),
    (FamilySpec("fractal-tree", k=1), 3, 2),
    (FamilySpec("fractal-tree", k=2), 7, 6),
    (FamilySpec("fractal-tree", k=3), 15, 14),
    (FamilySpec("fractal-cyclic", k=1), 3, 3),
    (FamilySpec("fractal-cyclic", k=2), 9, 12),
    (FamilySpec("fractal-cyclic", k=3), 21, 30),
    (FamilySpec("square-lattice", mx=4, my=3), 12, 17),
    (FamilySpec("torus-lattice", mx=3, my=4), 12, 24),
    (FamilySpec("wheel7"), 7, 14),
]


class TestGenerate:
    @pytest.mark.parametrize("spec,vertices,edges", EDGE_COUNTS)
    def test_counts(self, spec, vertices, edges):
        h = generate(spec)
        assert h.vertex_count == vertices
        assert len(h.edges) == edges

    @pytest.mark.parametrize("fields,message", (
        ({"family": "linear", "k": 3.5}, "parameter k must be an integer, got 3.5"),
        ({"family": "linear", "k": 3.0}, "parameter k must be an integer, got 3.0"),
        ({"family": "torus-lattice", "mx": 3, "my": 3.0}, "parameter my must be an integer, got 3.0"),
        ({"family": "square-lattice", "mx": "3", "my": 3}, "parameter mx must be an integer, got '3'"),
        ({"family": "linear", "k": 3, "weights": 1.5}, "hyper-edge weight must be an integer, got 1.5"),
        ({"family": "linear", "k": 3, "weights": (1, 1.0)}, "hyper-edge weight must be an integer, got 1.0"),
    ))
    @pytest.mark.parametrize("entry", (closed_form_independence, generate))
    def test_family_spec_takes_integers_only(self, entry, fields, message):
        # closed_form_independence(FamilySpec("linear", k=3.5)) used to return 2.0
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            entry(FamilySpec(**fields))

    def test_family_spec_stores_plain_ints(self):
        spec = FamilySpec("linear", k=np.int64(3), weights=[np.int64(2), True])
        assert (spec.k, spec.weights) == (3, (2, 1))
        assert [type(x) for x in (spec.k, *spec.weights)] == [int] * 3
        assert generate(spec).edges == generate(FamilySpec("linear", k=3, weights=(2, 1))).edges
        assert type(FamilySpec("cyclic", k=3, weights=np.int32(2)).weights) is int

    def test_linear_k2_is_single_edge(self):
        h = generate(FamilySpec("linear", k=2, weights=3))
        assert h.edges == (HyperEdge(0, 1, 3),)

    def test_fractal_cyclic_k1_is_triangle(self):
        h = generate(FamilySpec("fractal-cyclic", k=1))
        assert {(e.i, e.j) for e in h.edges} == {(0, 1), (0, 2), (1, 2)}

    def test_wheel7_degrees(self):
        h = generate(FamilySpec("wheel7"))
        degree = [0] * 7
        for e in h.edges:
            degree[e.i] += 1
            degree[e.j] += 1
        assert degree == [4] * 7

    def test_per_edge_weights_follow_construction_order(self):
        h = generate(FamilySpec("cyclic", k=4, weights=(1, 2, 3, 4)))
        # closing edge (p1, p4) comes last in construction order
        by_pair = {(e.i, e.j): e.weight for e in h.edges}
        assert by_pair == {(0, 1): 1, (1, 2): 2, (2, 3): 3, (0, 3): 4}

    def test_weight_list_length_checked(self):
        with pytest.raises(ValidationError, match="weights"):
            generate(FamilySpec("linear", k=4, weights=(1, 2)))

    @pytest.mark.parametrize(
        "spec",
        [
            FamilySpec("complete", k=1),
            FamilySpec("linear", k=1),
            FamilySpec("cyclic", k=2),
            FamilySpec("fractal-tree", k=0),
            FamilySpec("fractal-cyclic", k=0),
            FamilySpec("square-lattice", mx=0, my=2),
            FamilySpec("torus-lattice", mx=2, my=3),
            FamilySpec("unknown", k=3),
        ],
    )
    def test_out_of_range_parameters(self, spec):
        with pytest.raises(ValidationError):
            generate(spec)

    def test_rays_recompute_weights(self):
        h = generate(FamilySpec("complete", k=4, weights=9), rays=tetrahedron_rays())
        assert all(e.weight == 1 for e in h.edges)
        assert h.rays is not None

    def test_deterministic(self):
        a = generate(FamilySpec("torus-lattice", mx=3, my=3, weights=2))
        b = generate(FamilySpec("torus-lattice", mx=3, my=3, weights=2))
        assert a.edges == b.edges


def brute_reference(h: HyperGraph) -> int:
    """Oracle: maximum independent set size by direct subset enumeration."""
    best = 0
    pairs = [(e.i, e.j) for e in h.edges]
    for size in range(h.vertex_count, 0, -1):
        for subset in combinations(range(h.vertex_count), size):
            chosen = set(subset)
            if all(not (i in chosen and j in chosen) for i, j in pairs):
                return size
    return best


class TestMaxIndependentSet:
    def test_triangle_single_vertex(self):
        h = generate(FamilySpec("fractal-cyclic", k=1))
        result = max_independent_set(h)
        assert result.size == 1
        assert result.witness == (0,)  # vertex p1 in 1-based labels

    def test_wheel7(self):
        assert max_independent_set(generate(FamilySpec("wheel7"))).size == 2

    def test_six_cycle_picks_lexicographically_smallest(self):
        # C6 has two maximum sets, {0,2,4} and {1,3,5}; tie-break is fixed
        h = generate(FamilySpec("cyclic", k=6))
        result = max_independent_set(h)
        assert result.size == 3
        assert result.witness == (0, 2, 4)
        assert max_independent_set(h, method="brute").witness == (0, 2, 4)

    def test_six_vertex_graphs_match_enumeration(self):
        # Dense 6-vertex instances typically admit several maximum sets; the
        # returned size must match exhaustive enumeration regardless.
        rng = random.Random(55)
        for _ in range(40):
            h = random_hypergraph(rng, 6, max_weight=2, edge_probability=0.5)
            assert max_independent_set(h).size == brute_reference(h)

    def test_engines_agree_on_random_graphs(self):
        rng = random.Random(77)
        for _ in range(60):
            n = rng.randint(2, 13)
            h = random_hypergraph(rng, n, max_weight=1, edge_probability=rng.uniform(0.1, 0.9))
            fast = max_independent_set(h, method="branch")
            slow = max_independent_set(h, method="brute")
            assert fast == slow

    def test_witness_is_independent_and_maximal(self):
        rng = random.Random(88)
        for _ in range(60):
            n = rng.randint(2, 14)
            h = random_hypergraph(rng, n, edge_probability=0.4)
            result = max_independent_set(h)
            chosen = set(result.witness)
            adjacency = {v: set() for v in range(n)}
            for e in h.edges:
                adjacency[e.i].add(e.j)
                adjacency[e.j].add(e.i)
            for i in chosen:
                assert not adjacency[i] & chosen
            for v in range(n):
                if v not in chosen:
                    assert adjacency[v] & chosen, "witness must be maximal"

    def test_witness_sorted(self):
        rng = random.Random(99)
        for _ in range(20):
            h = random_hypergraph(rng, 10)
            w = max_independent_set(h).witness
            assert list(w) == sorted(w)

    def test_capacity_error(self):
        h = HyperGraph(65)
        with pytest.raises(CapacityError):
            max_independent_set(h)
        assert max_independent_set(h, max_vertices=70).size == 65

    @pytest.mark.parametrize("limit", [0, -5])
    def test_non_positive_limit_is_a_validation_error(self, limit):
        with pytest.raises(ValidationError, match=f"^max_vertices must be positive, got {limit}$"):
            max_independent_set(HyperGraph(3), max_vertices=limit)

    @pytest.mark.parametrize("limit", (2.5, 64.0, "64"))
    def test_non_integer_limit_is_a_validation_error(self, limit):
        # max_vertices=2.5 used to be accepted, and its refusal printed the limit 2.5
        with pytest.raises(ValidationError, match=f"^max_vertices must be an integer, got {re.escape(repr(limit))}$"):
            max_independent_set(HyperGraph(3), max_vertices=limit)
        assert max_independent_set(HyperGraph(3), max_vertices=np.int64(3)).size == 3

    def test_unknown_method_is_checked_before_capacity(self):
        h = generate(FamilySpec("linear", k=100))
        with pytest.raises(ValidationError, match="^unknown search method 'bogus'; use 'branch' or 'brute'$"):
            max_independent_set(h, method="bogus")

    def test_weight_zero_edges_still_block(self):
        h = HyperGraph(2, (HyperEdge(0, 1, 0),))
        assert max_independent_set(h).size == 1


INDEPENDENCE_GRID = (
    [(FamilySpec("complete", k=k), 1) for k in range(2, 7)]
    + [(FamilySpec("linear", k=k), (k + 1) // 2) for k in range(2, 9)]
    + [(FamilySpec("cyclic", k=k), k // 2) for k in range(3, 9)]
    + [
        (FamilySpec("fractal-tree", k=1), 2),
        (FamilySpec("fractal-tree", k=2), 5),
        (FamilySpec("fractal-tree", k=3), 10),
        (FamilySpec("fractal-cyclic", k=1), 1),
        (FamilySpec("fractal-cyclic", k=2), 3),
        (FamilySpec("fractal-cyclic", k=3), 7),
        (FamilySpec("square-lattice", mx=3, my=3), 5),
        (FamilySpec("square-lattice", mx=4, my=4), 8),
        (FamilySpec("torus-lattice", mx=3, my=4), 4),
        (FamilySpec("wheel7"), 2),
    ]
)


class TestClosedFormIndependence:
    @pytest.mark.parametrize("spec,expected", INDEPENDENCE_GRID)
    def test_expected_values(self, spec, expected):
        assert closed_form_independence(spec) == expected

    @pytest.mark.parametrize("spec,expected", INDEPENDENCE_GRID)
    def test_matches_exact_mis(self, spec, expected):
        assert max_independent_set(generate(spec)).size == expected


class TestRemoveVertex:
    def test_removes_incident_edges(self):
        rng = random.Random(13)
        for _ in range(50):
            n = rng.randint(3, 7)
            h = random_hypergraph(rng, n)
            v = rng.randrange(n)
            sub, old_of_new = remove_vertex(h, v)
            assert sub.vertex_count == h.vertex_count - 1
            assert len(sub.edges) <= len(h.edges)
            expected = sum(1 for e in h.edges if v not in (e.i, e.j))
            assert len(sub.edges) == expected
            assert v not in old_of_new
            assert len(old_of_new) == sub.vertex_count

    def test_two_vertex_graph(self):
        h = HyperGraph(2, (HyperEdge(0, 1, 1),))
        sub, old_of_new = remove_vertex(h, 0)
        assert sub.vertex_count == 1
        assert sub.edges == ()
        assert old_of_new == (1,)

    def test_degree_zero_vertex_keeps_edges(self):
        h = HyperGraph(3, (HyperEdge(0, 1, 2),))
        sub, _ = remove_vertex(h, 2)
        assert sub.edges == (HyperEdge(0, 1, 2),)

    def test_invalid_index(self):
        h = HyperGraph(3)
        with pytest.raises(ValidationError):
            remove_vertex(h, 3)

    @pytest.mark.parametrize("vertex", (1.0, 1.5, "1", None))
    def test_non_integer_vertex_refused(self, vertex):
        # remove_vertex(h, 1.0) used to succeed
        with pytest.raises(ValidationError, match=r"^vertex index must be an integer, got "):
            remove_vertex(HyperGraph(3, (HyperEdge(0, 2, 1),)), vertex)

    def test_integer_like_vertex_accepted(self):
        h = HyperGraph(3, (HyperEdge(0, 2, 1),))
        sub, old_of_new = remove_vertex(h, np.int64(1))
        assert (sub.vertex_count, sub.edges, old_of_new) == (2, (HyperEdge(0, 1, 1),), (0, 2))

    def test_weights_preserved_under_renumbering(self):
        h = HyperGraph(4, (HyperEdge(0, 1, 1), HyperEdge(1, 3, 2), HyperEdge(2, 3, 3)))
        sub, old_of_new = remove_vertex(h, 0)
        assert old_of_new == (1, 2, 3)
        assert sub.edges == (HyperEdge(0, 2, 2), HyperEdge(1, 2, 3))


class TestHyperGraphValidation:
    def test_duplicate_edges_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            HyperGraph(3, (HyperEdge(0, 1, 1), HyperEdge(0, 1, 2)))

    def test_index_out_of_range(self):
        with pytest.raises(ValidationError):
            HyperGraph(2, (HyperEdge(0, 2, 1),))

    def test_bad_endpoint_order(self):
        with pytest.raises(ValidationError):
            HyperEdge(2, 1, 0)

    def test_negative_weight(self):
        with pytest.raises(ValidationError, match="negative"):
            HyperEdge(0, 1, -1)

    @pytest.mark.parametrize("weight", (2.5, 1.0, "1", None))
    def test_non_integer_weight_refused(self, weight):
        # a float weight used to pass: classical_bound read 2.5 as total 6.0
        with pytest.raises(ValidationError, match=r"^hyper-edge weight must be an integer, got "):
            HyperEdge(0, 1, weight)

    @pytest.mark.parametrize("i,j", ((0.0, 1), (0, 1.0), (0, 1.5)))
    def test_non_integer_endpoint_refused(self, i, j):
        with pytest.raises(ValidationError, match=r"^hyper-edge endpoint must be an integer, got "):
            HyperEdge(i, j, 1)

    def test_non_integer_vertex_count_refused(self):
        with pytest.raises(ValidationError, match=r"^vertex count must be an integer, got 3.0$"):
            HyperGraph(3.0)

    def test_integer_like_inputs_stored_as_plain_ints(self):
        e = HyperEdge(np.int64(0), True, np.int32(2))
        assert (e.i, e.j, e.weight) == (0, 1, 2)
        assert [type(x) for x in (e.i, e.j, e.weight)] == [int] * 3
        h = HyperGraph(np.int64(2), (e,))
        assert type(h.vertex_count) is int and h.edges == (HyperEdge(0, 1, 2),)

    def test_hand_written_constructor_keeps_the_generated_methods(self):
        e = HyperEdge(0, 2, 1)
        assert repr(e) == "HyperEdge(i=0, j=2, weight=1)"
        assert e == HyperEdge(np.int64(0), 2, True) and e != HyperEdge(0, 2, 2)
        assert hash(e) == hash(HyperEdge(0, 2, 1)) and len({e, HyperEdge(0, 2, 1)}) == 1
        assert HyperEdge(0, 1, 3) < e < HyperEdge(0, 2, 2) < HyperEdge(1, 2, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            e.weight = 2
        assert dataclasses.replace(e, weight=3) == HyperEdge(0, 2, 3)
        with pytest.raises(ValidationError, match="negative"):
            dataclasses.replace(e, weight=-1)

    def test_parallel_rays_across_edge(self):
        rays = (Ray((1, 0, 0)), Ray((-1, 0, 0)))
        with pytest.raises(ValidationError, match="parallel"):
            HyperGraph(2, (HyperEdge(0, 1, 1),), rays)

    def test_ray_count_mismatch(self):
        with pytest.raises(ValidationError):
            HyperGraph(3, (), (Ray((1, 0, 0)),))

    def test_edges_canonically_sorted(self):
        h = HyperGraph(3, (HyperEdge(1, 2, 1), HyperEdge(0, 1, 1)))
        assert h.edges == (HyperEdge(0, 1, 1), HyperEdge(1, 2, 1))

    def test_family_edge_pairs_wheel7_order(self):
        pairs = family_edge_pairs(FamilySpec("wheel7"))
        assert pairs[:7] == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 6)]
        assert pairs[7:] == [(0, 3), (1, 4), (2, 5), (3, 6), (0, 4), (1, 5), (2, 6)]

    @pytest.mark.parametrize("spec,params", [
        (FamilySpec("linear", k=3, mx=2), (("k", 3),)),
        (FamilySpec("square-lattice", k=9, mx=2, my=3), (("mx", 2), ("my", 3))),
        (FamilySpec("wheel7", k=5), ()),
    ])
    def test_family_parameters_are_the_family_own(self, spec, params):
        assert family_parameters(spec) == params
