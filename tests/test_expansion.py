"""Tests for gadget expansion, expression oracles, and constraint propagation."""

import copy
import dataclasses
import pickle
import random
import re
import sys
import threading
import time
import tracemalloc
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _fixtures import (_eager_assemble, _fragment_core_count, _gadget_table_reference, _gray_walk_max,
                       _max_sum_reference, _min_degree_order, _plan_in_order, aux_index, aux_labels)

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
    check_subgraph_decomposition,
    classical_bound,
    evaluate,
    evaluate_edge_observable,
    expand,
    expand_hyper_edge,
    family_bound,
    generate,
    hypergraph_observable_value,
    ks_propagate,
    max_edge_observable,
    mis_oracle,
    random_hypergraph,
    to_dot,
    verify_realization,
    vertex_label,
)
from kshg import _indset, bounds, expansion


def enumerate_max(g: ExpandedGraph, subtract_cores: bool) -> int:
    """Oracle: direct maximum over all 2^|V| assignments via itertools."""
    n = len(g.vertices)
    cores = g.fragments[0].endpoints
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
                return aux_index(big, 0, kind, n - 1)
            return aux_index(big, 0, vert.kind, vert.level)

        for i, j in small.edges:
            a, b = embed(i), embed(j)
            assert (min(a, b), max(a, b)) in big.edges
        big_bases = set(big.bases)
        for triple in small.bases:
            assert tuple(sorted(embed(t) for t in triple)) in big_bases

    @pytest.mark.parametrize("n", range(9))
    def test_cached_layout_is_a_fresh_layout_of_tuples(self, n):
        def only_tuples(x):
            return isinstance(x, (int, str)) or (isinstance(x, tuple) and all(map(only_tuples, x)))

        layout = expansion._gadget(n)
        assert layout is expansion._gadget(n)
        assert layout == expansion._gadget.__wrapped__(n)
        assert only_tuples(layout)

    def test_results_do_not_depend_on_cached_layouts(self):
        rng = random.Random(10)
        cases = []
        for _ in range(8):
            h = random_hypergraph(rng, rng.randint(3, 6), max_weight=3)
            values = tuple(rng.randint(0, 1) for _ in range(expand(h).vertex_count))
            cases.append((h, Assignment(values)))

        def results():
            return [(g.vertices, g.edges, g.bases, g.fragments, check_subgraph_decomposition(h, a))
                    for h, a in cases for g in [expand(h)]]

        warm = results()
        expansion._gadget.cache_clear()
        assert results() == warm

    @pytest.mark.parametrize("n", (0, 1, 2, 3, 5, 8, 13, 40))
    def test_layout_passes_the_graph_check(self, n):
        # `_assemble` builds graphs from these layouts without checking them
        edges, bases = expansion._gadget(n)
        assert len(set(edges)) == len(edges)
        assert (len(edges), len(bases)) == (10 * n + 1, 2 * n)
        vertices = (CoreVertex(0), CoreVertex(1), *(AuxVertex(0, kind, level) for kind, level in aux_labels(n)))
        ExpandedGraph(vertices, frozenset(edges), bases)  # raises on a bad pair, basis or kind

    @pytest.mark.parametrize("n", (0, 1, 2, 5))
    def test_unchecked_aux_vertices_match_the_constructor(self, n):
        built = expansion._aux_vertices(7, n)
        labels = aux_labels(n)
        assert built == [AuxVertex(7, kind, level) for kind, level in labels]
        assert [hash(v) for v in built] == [hash(AuxVertex(7, kind, level)) for kind, level in labels]
        if built:
            with pytest.raises(dataclasses.FrozenInstanceError):
                built[0].level = 5


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
            counts = (g.vertex_count, g.edge_count, g.basis_count)
            assert _unfilled(g)  # the counts come from the fragments
            assert counts == (h.vertex_count + 6 * h.weight_sum,
                              sum(10 * e.weight + 1 for e in h.edges), 2 * h.weight_sum)
            assert counts == (len(g.vertices), len(g.edges), len(g.bases))
            copied = dataclasses.replace(g, bases=g.bases[1:] if g.bases else ())
            assert (copied.vertex_count, copied.edge_count, copied.basis_count) == (
                len(copied.vertices), len(copied.edges), len(copied.bases))
            assert copied.basis_count == max(g.basis_count - 1, 0)

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
            assert [g.vertices[v] for v in frag.aux] == list(standalone.vertices[2:])


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
        values[aux_index(g, 0, "p", 0)] = 1
        assert evaluate(g, Assignment(tuple(values))) == 3

    def test_size_mismatch(self):
        g = expand_hyper_edge(1)
        message = r"^assignment covers 2 vertices but the graph has 8$"
        for graph in (g, dataclasses.replace(g)):
            with pytest.raises(ValidationError, match=message):
                evaluate(graph, Assignment((0, 1)))

    def test_bad_values_rejected(self):
        with pytest.raises(ValidationError):
            Assignment((0, 2))

    @pytest.mark.parametrize("values", ((1.0, 0.0), (1, 0.0), (0, "1")))
    def test_non_integer_values_rejected(self, values):
        # (1.0, 0.0) used to pass, and `evaluate` then returned 1.0, not an exact integer
        with pytest.raises(ValidationError, match=r"^assignment value must be an integer, got "):
            Assignment(values)

    def test_integer_like_values_stored_as_plain_ints(self):
        a = Assignment((True, np.int64(0)))
        assert a.values == (1, 0) and [type(v) for v in a.values] == [int, int]
        value = evaluate(expand_hyper_edge(0), a)
        assert value == 1 and type(value) is int

    def test_non_integer_weight_rejected(self):
        with pytest.raises(ValidationError, match=r"^hyper-edge weight must be an integer, got 1.0$"):
            expand_hyper_edge(1.0)

    @pytest.mark.parametrize("edge_id", (1.5, 1.0, "1", None))
    def test_non_integer_edge_id_rejected(self, edge_id):
        # expand_hyper_edge(1, edge_id=1.5) used to build AuxVertex(edge=1.5, ...)
        with pytest.raises(ValidationError, match=r"^edge id must be an integer, got "):
            expand_hyper_edge(1, edge_id)
        g = expand_hyper_edge(1, np.int64(5))
        assert {type(v.edge) for v in g.vertices[2:]} == {int} and g.fragments[0].edge_id == 5


@st.composite
def shuffled_edge_expansions(draw):
    """A single-edge expansion of weight 0-3 with its vertices in a random
    order, so the cores may sit anywhere, and with random extra edges, drawn
    with its two cores: the fragment's endpoints carried through the
    permutation."""
    g = expand_hyper_edge(draw(st.integers(0, 3)))
    n = len(g.vertices)
    perm = draw(st.permutations(range(n)))
    extra = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True), max_size=n))
    vertices = [None] * n
    for old, new in enumerate(perm):
        vertices[new] = g.vertices[old]
    edges = {tuple(sorted((perm[i], perm[j]))) for i, j in g.edges} | {tuple(sorted(pair)) for pair in extra}
    cores = tuple(perm[c] for c in g.fragments[0].endpoints)
    return ExpandedGraph(tuple(vertices), frozenset(edges), ()), cores


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

    # The reference walks all n vertices with the cores penalized; the
    # observable walks only the others.
    @settings(max_examples=30, deadline=None)
    @given(case=shuffled_edge_expansions())
    def test_matches_gray_walk_with_penalized_cores(self, case):
        g, (p, q) = case
        assert max_edge_observable(g) == _gray_walk_max(len(g.vertices), g.adjacency_masks, (1 << p) | (1 << q))

    # A gadget's masks come from its fragment; the reference walks the
    # filled graph with the cores penalized.
    @pytest.mark.parametrize("n", range(0, 4))
    def test_gadget_matches_gray_walk_with_penalized_cores(self, n):
        g = expand_hyper_edge(n)
        assert max_edge_observable(g) == 2 * n
        assert _unfilled(g)
        assert 2 * n == _gray_walk_max(len(g.vertices), _indset.adjacency_masks(len(g.vertices), g.edges), 0b11)

    def test_requires_two_cores(self):
        h = generate(FamilySpec("complete", k=3, weights=1))
        g = expand(h)
        with pytest.raises(ValidationError, match="2 cores"):
            evaluate_edge_observable(g, Assignment((0,) * len(g.vertices)))

    # The cores of a graph from `expand_hyper_edge` or `expand` come from its
    # core count, so neither reader fills it.
    @pytest.mark.parametrize("n", range(0, 5))
    def test_observable_fills_nothing(self, n):
        g = expand_hyper_edge(n)
        rng = random.Random(n)
        for _ in range(20):
            a = Assignment(tuple(rng.randint(0, 1) for _ in range(g.vertex_count)))
            assert evaluate_edge_observable(g, a) == evaluate(g, a) - a.values[0] - a.values[1]
        assert _unfilled(g)

    def test_three_cores_refused_before_any_fill(self):
        g = expand(HyperGraph(3, (HyperEdge(0, 1, 1),)))
        message = "^edge observable needs a single-edge expansion with 2 cores, found 3$"
        with pytest.raises(ValidationError, match=message):
            max_edge_observable(g)
        with pytest.raises(ValidationError, match=message):
            evaluate_edge_observable(g, Assignment((0,) * g.vertex_count))
        assert _unfilled(g)

    def test_past_the_expansion_limit_refused_as_evaluate_refuses(self):
        g = expand_hyper_edge(10**18)
        message = f"^assignment covers 0 vertices but the graph has {g.vertex_count}$"
        with pytest.raises(ValidationError, match=message):
            evaluate(g, Assignment(()))
        with pytest.raises(ValidationError, match=message):
            evaluate_edge_observable(g, Assignment(()))
        assert _unfilled(g)


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

    def test_max_bits_capped_at_62(self):
        g = expand(generate(FamilySpec("complete", k=5, weights=2)))  # 125 vertices
        message = "125 vertices exceed the 62-bit enumeration limit; use mis_oracle instead"
        with pytest.raises(CapacityError) as info:
            brute_force_max(g, max_bits=200)
        assert str(info.value) == message

    @pytest.mark.parametrize("limit", [0, -3])
    def test_non_positive_bit_limit_is_a_validation_error(self, limit):
        with pytest.raises(ValidationError, match=f"^max_bits must be positive, got {limit}$"):
            brute_force_max(expand_hyper_edge(0), max_bits=limit)

    @pytest.mark.parametrize("limit", (20.5, 30.0, "30"))
    @pytest.mark.parametrize("enumeration", (brute_force_max, max_edge_observable))
    def test_non_integer_bit_limit_is_a_validation_error(self, enumeration, limit):
        # max_bits=20.5 used to be accepted, and its refusal printed the limit 20.5
        with pytest.raises(ValidationError, match=f"^max_bits must be an integer, got {re.escape(repr(limit))}$"):
            enumeration(expand_hyper_edge(1), max_bits=limit)
        assert enumeration(expand_hyper_edge(1), max_bits=np.int64(8)) == 3 - (enumeration is max_edge_observable)

    def test_ceiling_boundary(self):
        expansion.check_enumeration_capacity(62, max_bits=200)
        with pytest.raises(CapacityError, match="^63 vertices exceed the 62-bit"):
            expansion.check_enumeration_capacity(63, max_bits=63)

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
    """(n, adjacency masks) on 0-16 vertices; row i's bits above i pick i's edges."""
    n = draw(st.integers(0, 16))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    adjacency = [0] * n
    for i, row in enumerate(rows):
        for j in range(i + 1, n):
            if (row >> j) & 1:
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i
    return n, adjacency


class TestBlockEnumeration:
    @pytest.mark.parametrize("shape", ((1, 1), (3, 5), (13, 4096), (16, 4096)))
    def test_buffers_start_on_64_byte_boundaries(self, shape):
        for _ in range(8):  # wherever the heap happens to put the buffer
            a = expansion._aligned_float32(shape)
            assert a.ctypes.data % 64 == 0
            assert a.shape == shape and a.dtype == np.float32 and a.flags.c_contiguous

    # The second setting splits even small graphs into many blocks of 4-32
    # states, one block per slab. In the third, a block holds 2^10 >> 8 = 4
    # high states at 16 vertices, and a slab the whole blocks whose bit rows
    # and coupled rows (n + 1 = 17 entries per state) fit in a quarter of
    # 2^10 entries: 256 // 17 = 15 states, cut to 3 blocks of 4 and rounded
    # down to a power of two, 8. So the 2^8 high states run as 32 slabs of 8,
    # two blocks each when all 8 high vertices meet the low half. At 13-15
    # vertices the slabs hold 2-4 blocks each. On an edgeless graph the best
    # state sets every vertex: the last high state, in the last slab.
    BLOCK_SETTINGS = [(12, 1 << 16), (3, 1 << 5), (8, 1 << 10)]

    @pytest.mark.parametrize("low_bits, block_entries", BLOCK_SETTINGS)
    @settings(max_examples=100, deadline=None)
    @given(case=masked_graphs())
    @example(case=(16, [0] * 16))
    def test_matches_gray_walk(self, low_bits, block_entries, case):
        n, adjacency = case
        with mock.patch.multiple(expansion, ENUM_LOW_BITS=low_bits, ENUM_BLOCK_ENTRIES=block_entries):
            assert expansion._block_max(n, adjacency) == _gray_walk_max(n, adjacency)

    # Every buffer starts as NaN, and every block product checks that its
    # operands hold none: a row scored before it is written fails here, even
    # where its score would never reach the answer.
    @pytest.mark.parametrize("low_bits, block_entries", BLOCK_SETTINGS)
    @settings(max_examples=50, deadline=None)
    @given(case=masked_graphs())
    @example(case=(16, [0] * 16))
    def test_reads_no_unwritten_row(self, low_bits, block_entries, case):
        n, adjacency = case
        real_buffer, real_matmul = expansion._aligned_float32, np.matmul

        def nan_filled(shape):
            a = real_buffer(shape)
            a.fill(np.nan)
            return a

        def checked_matmul(a, b, **kwargs):
            assert not (np.isnan(a).any() or np.isnan(b).any())
            return real_matmul(a, b, **kwargs)

        with mock.patch.multiple(expansion, ENUM_LOW_BITS=low_bits, ENUM_BLOCK_ENTRIES=block_entries,
                                 _aligned_float32=nan_filled), mock.patch.object(np, "matmul", checked_matmul):
            assert expansion._block_max(n, adjacency) == _gray_walk_max(n, adjacency)

    # 16 vertices: a path through the high half 0-7 and a triangle and two
    # paths in the low half 8-15 (the 8 highest labels, in every setting but
    # the second, whose low half is 13-15), joined by the given links.
    @pytest.mark.parametrize("low_bits, block_entries", BLOCK_SETTINGS)
    @pytest.mark.parametrize("links", [
        (),  # an empty boundary: the low half is isolated
        tuple((v, 8 + (3 * v) % 8) for v in range(8)),  # every high vertex meets the low half
        tuple((5, u) for u in range(8, 16)),  # one boundary vertex, joined to all of the low half
    ], ids=["empty-boundary", "whole-boundary", "single-boundary-vertex"])
    def test_boundary_shapes(self, low_bits, block_entries, links):
        edges = [(v, v + 1) for v in range(7)] + [(8, 9), (9, 10), (8, 10), (11, 12), (12, 13), (14, 15)]
        adjacency = _indset.adjacency_masks(16, [*edges, *links])
        with mock.patch.multiple(expansion, ENUM_LOW_BITS=low_bits, ENUM_BLOCK_ENTRIES=block_entries):
            assert expansion._block_max(16, adjacency) == _gray_walk_max(16, adjacency)

    # The kernel relabels the high half by its boundary, so the labels it is
    # given decide which vertices meet the low half, not the answer.
    @settings(max_examples=100, deadline=None)
    @given(case=masked_graphs(), data=st.data())
    def test_shuffled_masks_give_the_same_maximum(self, case, data):
        n, adjacency = case
        perm = data.draw(st.permutations(range(n)))
        shuffled = [0] * n
        for v, mask in enumerate(adjacency):
            shuffled[perm[v]] = sum(1 << perm[u] for u in range(n) if mask >> u & 1)
        assert expansion._block_max(n, shuffled) == expansion._block_max(n, adjacency)

    def test_empty_graph(self):
        assert brute_force_max(ExpandedGraph((), frozenset(), ())) == 0

    def test_single_vertex(self):
        assert brute_force_max(ExpandedGraph((CoreVertex(0),), frozenset(), ())) == 1
        assert expansion._block_max(1, (0,)) == 1
        assert expansion._block_max(0, ()) == 0  # a weight-0 edge observable walks no vertex

    def test_26_bit_family_instance(self):
        spec = FamilySpec("cyclic", k=8, weights=(1, 0, 0, 1, 0, 0, 1, 0))
        g = expand(generate(spec))
        assert len(g.vertices) == 26
        assert brute_force_max(g) == family_bound(spec).total == 10

    @staticmethod
    def _dense_26_bits() -> ExpandedGraph:
        """G(26, 0.5), in which each of the 14 high vertices meets the low half 14-25."""
        rng = random.Random(26)
        edges = frozenset((i, j) for i in range(26) for j in range(i + 1, 26) if rng.random() < 0.5)
        g = ExpandedGraph(tuple(CoreVertex(i) for i in range(26)), edges, ())
        assert all(mask >> 14 for mask in g.adjacency_masks[:14])
        return g

    # Slabs keep the walk's memory flat in the bit count (about 0.6 MB here):
    # the bit rows and coupled rows of all 2^14 high states of a 26-bit
    # instance would take 1.7 MB alone. On the dense graph every high vertex
    # meets the low half, so each slab scores each of its states, and no
    # array over all 2^14 values of the boundary bits is held either.
    @pytest.mark.parametrize("spec, bits", [
        (FamilySpec("cyclic", k=8, weights=(1, 0, 0, 1, 0, 0, 1, 0)), 26),
        (FamilySpec("cyclic", k=4, weights=(2, 0, 2, 0)), 28),
        (None, 26),  # `_dense_26_bits`
    ])
    def test_peak_memory_stays_under_a_ceiling(self, spec, bits):
        if spec is None:
            g = self._dense_26_bits()
            expected = _indset.independence_number(g.adjacency_masks)
        else:
            g = expand(generate(spec))
            expected = family_bound(spec).total
        assert len(g.adjacency_masks) == bits
        tracemalloc.start()
        try:
            value = brute_force_max(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value == expected
        assert peak < 1_000_000


@st.composite
def max_sum_problems(draw):
    n = draw(st.integers(0, 10))
    # a `_FORBIDDEN` gain, as `_fix` leaves on a neighbour of a variable fixed at 1
    gain = draw(st.lists(st.integers(-1, 2) | st.just(expansion._FORBIDDEN), min_size=n, max_size=n))
    factors = []
    if n >= 2:
        # scopes from a small pool, each in either orientation, so that pairs
        # repeat often and `_max_sum` merges them
        pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True).map(tuple)
        pool = draw(st.lists(pair, min_size=1, max_size=n))
        scope = st.tuples(st.sampled_from(pool), st.booleans()).map(lambda s: s[0][::-1] if s[1] else s[0])
        # any entry may be `_FORBIDDEN`, (0, 0) and (1, 0) included
        table = st.lists(st.integers(-2, 2) | st.just(expansion._FORBIDDEN), min_size=4, max_size=4)
        factors = draw(st.lists(st.tuples(scope, table), max_size=2 * n))
    return gain, factors


@st.composite
def conditioned_problems(draw):
    # at most 8 variables, every table finite except possibly its (1, 1) entry
    n = draw(st.integers(1, 8))
    gain = draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))
    factors = []
    if n >= 2:
        scope = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True).map(tuple)
        entry = st.integers(-2, 2)
        table = st.tuples(entry, entry, entry, entry | st.just(expansion._FORBIDDEN)).map(list)
        factors = draw(st.lists(st.tuples(scope, table), min_size=n, max_size=3 * n))
    return gain, factors


@st.composite
def plain_graphs(draw):
    """0-24 vertices, each pair joined with one drawn probability."""
    n = draw(st.integers(0, 24))
    p = draw(st.floats(0, 1))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]


class TestMaxSum:
    @settings(max_examples=200, deadline=None)
    @given(problem=max_sum_problems())
    def test_matches_enumeration(self, problem):
        gain, factors = problem
        plan = expansion._elimination_order(len(gain), (s for s, _ in factors))
        assert expansion._max_sum(gain, factors, plan) == _max_sum_reference(gain, factors)[0]

    @settings(max_examples=200, deadline=None)
    @given(problem=max_sum_problems(), data=st.data())
    def test_exact_under_any_order(self, problem, data):
        gain, factors = problem
        order = data.draw(st.permutations(range(len(gain))))
        plan = _plan_in_order(len(gain), [s for s, _ in factors], order)
        assert expansion._max_sum(gain, factors, plan) == _max_sum_reference(gain, factors)[0]

    def test_message_joins_through_an_index(self):
        # In order 0..6, buckets 0 and 1 send messages over (3, 4, 6) and
        # (3, 5, 6) to bucket 3, whose scope is (3, 4, 5, 6): neither message
        # has the bucket's scope, so each joins through a `_spread` index
        # that is not the identity. Bucket 2 sends a message over 5 alone.
        # Two factors are listed with their later variable first.
        gain = [0, 1, -1, 2, 3, -2, 1]
        factors = [((0, 3), [0, 1, 0, 5]), ((6, 0), [0, 0, 2, -9]), ((0, 4), [1, -3, 0, 2]),
                   ((1, 3), [1, 0, 0, 3]), ((5, 1), [0, -2, 0, 4]), ((1, 6), [2, 0, -1, -4]),
                   ((2, 5), [0, 3, 1, -5])]
        plan = _plan_in_order(7, [s for s, _ in factors], range(7))
        assert plan[:4] == [(0, (3, 4, 6)), (1, (3, 5, 6)), (2, (5,)), (3, (4, 5, 6))]
        assert expansion._spread(3, (0, 2)) == [0, 1, 0, 1, 2, 3, 2, 3]
        assert expansion._spread(3, (1, 2)) == [0, 0, 1, 1, 2, 2, 3, 3]
        assert expansion._max_sum(gain, factors, plan) == _max_sum_reference(gain, factors)[0] == 21

    @settings(max_examples=200, deadline=None)
    @given(graph=plain_graphs(), width=st.sampled_from([2, 4, 16, 24]))
    def test_plan_keeps_the_min_degree_order(self, graph, width):
        n, pairs = graph
        with mock.patch.object(expansion, "CORE_MAX_WIDTH", width):
            plan = expansion._elimination_order(n, pairs)
        order = _min_degree_order(n, pairs, width)
        if order is None:
            assert plan is None
        else:
            assert plan == _plan_in_order(n, pairs, order)

    @pytest.mark.parametrize("spec, fits", [
        (FamilySpec("torus-lattice", mx=4, my=4, weights=1), True),
        (FamilySpec("square-lattice", mx=5, my=5, weights=1), True),
        (FamilySpec("torus-lattice", mx=3, my=4, weights=2), True),
        (FamilySpec("torus-lattice", mx=8, my=8), False),
        (FamilySpec("torus-lattice", mx=10, my=10), False),
        (FamilySpec("complete", k=18, weights=1), False),
        (FamilySpec("complete", k=25, weights=1), False),
    ])
    def test_plan_keeps_the_min_degree_order_on_families(self, spec, fits):
        # at the real width, and at a width that plans every graph here
        h = generate(spec)
        pairs = [(e.i, e.j) for e in h.edges]
        for width, planned in ((expansion.CORE_MAX_WIDTH, fits), (100, True)):
            with mock.patch.object(expansion, "CORE_MAX_WIDTH", width):
                plan = expansion._elimination_order(h.vertex_count, pairs)
            order = _min_degree_order(h.vertex_count, pairs, width)
            assert (plan is not None) == (order is not None) == planned
            if planned:
                assert plan == _plan_in_order(h.vertex_count, pairs, order)

    def test_complete_graph_is_too_wide(self):
        assert expansion._elimination_order(18, [(i, j) for i in range(18) for j in range(i + 1, 18)]) is None
        assert len(expansion._elimination_order(17, [(i, j) for i in range(17) for j in range(i + 1, 17)])) == 17


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

    def test_dense_weight_zero_graph_on_both_routes(self):
        # every vertex a core and about half of all pairs joined: wide, so it is conditioned
        h = random_hypergraph(random.Random(30), 30, max_weight=0, edge_probability=0.5)
        alpha = _indset.independence_number(_indset.adjacency_masks(30, ((e.i, e.j) for e in h.edges)))
        assert alpha == 7
        g = expand(h)
        assert mis_oracle(g, max_vertices=30) == alpha
        copied = dataclasses.replace(g)
        assert copied._assembled_cores is None
        assert mis_oracle(copied, max_vertices=30) == alpha

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

    def test_non_positive_limit_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="^max_vertices must be positive, got 0$"):
            mis_oracle(expand_hyper_edge(1), max_vertices=0)

    @pytest.mark.parametrize("weight", range(9))
    def test_gadget_table_matches_forced_search(self, weight):
        g = expand_hyper_edge(weight)
        adj = g.adjacency_masks
        closed = [a | 1 << v for v, a in enumerate(adj)]
        aux = (1 << len(adj)) - 4
        table = expansion._gadget_table(weight)
        for a, b in product((0, 1), repeat=2):
            if a and b and adj[0] & 2:
                expected = float("-inf")  # adjacent cores cannot both be 1
            else:
                free = aux & ~(closed[0] if a else 0) & ~(closed[1] if b else 0)
                expected = _indset._max_set(adj, closed, free, {}).bit_count()
            assert table[a + 2 * b] == expected
        reference = 2 * weight - 1 if weight else float("-inf")
        assert table == (2 * weight, 2 * weight, 2 * weight, reference)

    @pytest.mark.parametrize("weight", (9, 16, 64, 200, 166666, 10**18))
    def test_gadget_table_of_heavy_weights(self, weight):
        assert expansion._gadget_table(weight) == (2 * weight, 2 * weight, 2 * weight, 2 * weight - 1)

    @pytest.mark.parametrize("weight", [*range(101), 1000])
    def test_gadget_table_matches_the_whole_elimination(self, weight):
        table, reference = expansion._gadget_table(weight), _gadget_table_reference(weight)
        assert repr(table) == repr(reference)
        assert [type(x) for x in table] == [type(x) for x in reference]

    def test_one_level_shifts_the_table_uniformly(self):
        """The premise of `_gadget_table`'s linear extension: the solved
        weight-2 table is the weight-1 table plus one constant."""
        one, two = expansion._gadget_table(1), expansion._gadget_table(2)
        assert len({b - a for a, b in zip(one, two)}) == 1

    @pytest.mark.parametrize("spec, expected", [
        (FamilySpec("square-lattice", mx=6, my=6), 138),
        (FamilySpec("linear", k=400), 998),
        (FamilySpec("fractal-tree", k=8), 1361),
    ])
    def test_large_family_instances(self, spec, expected):
        g = expand(generate(spec))
        assert mis_oracle(g, max_vertices=len(g.vertices)) == expected == family_bound(spec).total

    @staticmethod
    def _spy(monkeypatch) -> list:
        """Record every `_indset` search that runs; `mis_oracle` must make none."""
        calls = []
        for name in ("independence_number", "branch_search", "brute_force_search", "_max_set"):
            search = getattr(_indset, name)
            monkeypatch.setattr(_indset, name, lambda *args, name=name, search=search:
                                calls.append(name) or search(*args))
        return calls

    @staticmethod
    def _spy_conditioning(monkeypatch) -> list:
        """Record (variable count, planned parts) for every `_conditioned` call."""
        calls = []
        split = expansion._conditioned
        monkeypatch.setattr(expansion, "_conditioned",
                            lambda gain, factors: calls.append((len(gain), split(gain, factors))) or calls[-1][1])
        return calls

    def test_wide_core_graph_falls_back(self, monkeypatch):
        wide = expand(generate(FamilySpec("complete", k=25, weights=0)))  # width 24
        narrow = expand(generate(FamilySpec("complete", k=4, weights=1)))
        assert _indset.independence_number(wide.adjacency_masks) == 1
        calls, split = self._spy(monkeypatch), self._spy_conditioning(monkeypatch)
        assert mis_oracle(wide) == 1
        [(variables, parts)] = split
        assert variables == 25 and len(parts) > 1
        assert mis_oracle(narrow) == 13
        root = ([1] * 4, [(f.endpoints, expansion._gadget_table(1)) for f in narrow.fragments], 0)
        assert [(variables, [part[:3] for part in parts]) for variables, parts in split[1:]] == [(4, [root])]
        assert calls == []

    @pytest.mark.parametrize("spec, orders", [
        (FamilySpec("square-lattice", mx=6, my=6), 1),
        (FamilySpec("torus-lattice", mx=8, my=8), 3),  # the root and its two children
        (FamilySpec("complete", k=18, weights=1), 3),
    ])
    def test_one_elimination_order_per_problem(self, spec, orders, monkeypatch):
        g = expand(generate(spec))
        expansion._gadget_table(1)  # cached, so its own order does not count below
        calls = []
        plan = expansion._elimination_order
        monkeypatch.setattr(expansion, "_elimination_order",
                            lambda *args, **kwargs: calls.append(args[0]) or plan(*args, **kwargs))
        assert mis_oracle(g, max_vertices=len(g.vertices)) == family_bound(spec).total
        assert len(calls) == orders

    def test_graph_unlike_its_fragments_falls_back(self, monkeypatch):
        """A hand-built graph takes the whole-graph route, every vertex a
        variable, whether or not its fragments describe it."""
        triangle = expand(generate(FamilySpec("cyclic", k=3, weights=1)))
        p0, q0 = aux_index(triangle, 0, "p", 0), aux_index(triangle, 0, "q", 0)
        dropped = ExpandedGraph(triangle.vertices, triangle.edges - {(p0, q0)}, (), triangle.fragments)
        # as many edges as the fragments list, one of them not theirs
        swapped = ExpandedGraph(triangle.vertices, dropped.edges | {(0, 2)}, (), triangle.fragments)
        path = expand(generate(FamilySpec("linear", k=3, weights=1)))
        extra = ExpandedGraph(path.vertices, path.edges | {(0, 2)}, (), path.fragments)
        bare = ExpandedGraph(path.vertices, path.edges, path.bases)
        # two fragments on one pair: as many edges as listed, but (2, 3) is no fragment's
        doubled = ExpandedGraph(tuple(CoreVertex(i) for i in range(4)), frozenset({(0, 1), (2, 3)}), (),
                                (expansion.Fragment(0, (0, 1), 0, 4),) * 2)
        hand_built = [(dropped, 8), (swapped, 8), (extra, 5), (bare, 6), (doubled, 2)]
        assert [_fragment_core_count(g) for g in (triangle, path)] == [3, 3]
        for g, expected in hand_built:
            assert _fragment_core_count(g) is None
            assert _indset.independence_number(g.adjacency_masks) == expected
        calls, split = self._spy(monkeypatch), self._spy_conditioning(monkeypatch)
        assert (mis_oracle(triangle), mis_oracle(path)) == (7, 6)
        assert [mis_oracle(g) for g, _ in hand_built] == [expected for _, expected in hand_built]
        assert calls == []
        assert [variables for variables, _ in split] == [3, 3] + [len(g.vertices) for g, _ in hand_built]


@st.composite
def weighted_hypergraphs(draw, max_cores=12):
    """2-`max_cores` cores, each pair joined or not, weights 0-3."""
    k = draw(st.integers(2, max_cores))
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    weights = draw(st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)))
    return HyperGraph(k, tuple(HyperEdge(i, j, w) for (i, j), p, w in zip(pairs, present, weights) if p))


class TestConditioning:
    @settings(max_examples=100, deadline=None)
    @given(h=weighted_hypergraphs(), width=st.integers(1, 3))
    def test_whole_route_matches_the_core_bound(self, h, width):
        g = expand(h)
        for weight in range(4):
            expansion._gadget_table(weight)  # cached at the real width: a gadget needs width 3
        # 2^12 bounds the subproblems of 12 cores, so this split never refuses
        with mock.patch.multiple(expansion, CORE_MAX_WIDTH=width, MAX_CONDITIONED_SUBPROBLEMS=1 << 12):
            value = mis_oracle(g, max_vertices=len(g.vertices))
        assert type(value) is int
        assert value == classical_bound(h).total
        if len(g.vertices) <= 20:
            assert value == brute_force_max(g)

    @settings(max_examples=200, deadline=None)
    @given(problem=conditioned_problems(), width=st.integers(1, 2), limit=st.integers(1, 4))
    def test_matches_enumeration(self, problem, width, limit):
        gain, factors = problem
        # 2^8 bounds the subproblems of 8 variables, so this split never refuses
        with mock.patch.multiple(expansion, CORE_MAX_WIDTH=width, MAX_CONDITIONED_SUBPROBLEMS=1 << 8):
            parts = expansion._conditioned(gain, factors)
            best = max(const + expansion._max_sum(g, f, plan) for g, f, const, plan in parts)
            assert all(plan == expansion._elimination_order(len(g), (s for s, _ in f)) for g, f, _, plan in parts)
        assert best == _max_sum_reference(gain, factors, 0)[0]
        assert all(x != expansion._FORBIDDEN for g, _, _, _ in parts for x in g)
        # the early refusal fires exactly when more than `limit` parts hold a factor
        held = sum(1 for _, f, _, _ in parts if f)
        with mock.patch.multiple(expansion, CORE_MAX_WIDTH=width, MAX_CONDITIONED_SUBPROBLEMS=limit):
            if held > limit:
                with pytest.raises(CapacityError):
                    expansion._conditioned(gain, factors)
            else:
                assert expansion._conditioned(gain, factors) == parts

    @pytest.mark.parametrize("spec", [
        FamilySpec("torus-lattice", mx=8, my=8),  # width 17
        FamilySpec("complete", k=18, weights=1),
        FamilySpec("complete", k=40, weights=0),
    ])
    def test_wide_family_instances(self, spec):
        g = expand(generate(spec))
        value = mis_oracle(g, max_vertices=len(g.vertices))
        assert type(value) is int
        assert value == family_bound(spec).total

    @pytest.mark.parametrize("spec", [
        FamilySpec("torus-lattice", mx=10, my=10),
        FamilySpec("complete", k=30, weights=1),
    ])
    def test_refused_before_any_table(self, spec, monkeypatch):
        g = expand(generate(spec))
        expansion._gadget_table(1)  # cached, so its own solve does not count below
        calls = []
        monkeypatch.setattr(expansion, "_max_sum", lambda *args: calls.append(args))
        with pytest.raises(CapacityError, match=r"^conditioning the elimination down to width 16 "
                                                r"needs more than 16 subproblems$"):
            mis_oracle(g, max_vertices=len(g.vertices))
        assert calls == []

    @staticmethod
    def _bare(spec: FamilySpec) -> ExpandedGraph:
        """The expansion without its fragments, so every vertex is a variable."""
        g = expand(generate(spec))
        return ExpandedGraph(g.vertices, g.edges, g.bases)

    def test_all_vertex_route_conditions(self, monkeypatch):
        g = self._bare(FamilySpec("torus-lattice", mx=8, my=8))
        assert g._assembled_cores is None
        split = TestMisOracle._spy_conditioning(monkeypatch)
        value = mis_oracle(g, max_vertices=len(g.vertices))
        assert type(value) is int
        assert value == 288
        [(variables, parts)] = split
        assert variables == 832 and len(parts) > 1

    def test_all_vertex_route_refused_before_any_table(self, monkeypatch):
        g = self._bare(FamilySpec("torus-lattice", mx=10, my=10))
        expansion._gadget_table(0)  # cached, so its own solve does not count below
        calls = []
        monkeypatch.setattr(expansion, "_max_sum", lambda *args: calls.append(args))
        with pytest.raises(CapacityError, match=r"^conditioning the elimination down to width 16 "
                                                r"needs more than 16 subproblems$"):
            mis_oracle(g, max_vertices=len(g.vertices))
        assert calls == []

    def test_fixing_folds_factors_into_gains(self):
        blocked = [0, 0, 0, expansion._FORBIDDEN]
        factors = [((0, 1), [1, 2, 3, 5]), ((1, 2), blocked)]
        assert expansion._fix([1, 1, 1], factors, 0, {1: 0}) == ([2, 0, 1], [], 1)
        assert expansion._fix([1, 1, 1], factors, 0, {0: 1}) == ([0, 4, 1], [((1, 2), blocked)], 3)
        # a factor with both ends fixed becomes a constant
        assert expansion._fix([1, 1, 1], factors[:1], 0, {0: 1, 1: 1}) == ([0, 0, 1], [], 7)
        assert expansion._fix([1, 1, 1], factors, 0, {1: 0, 2: 0}) == ([2, 0, 0], [], 1)
        # one call fixes a variable at 1 and the neighbour it forbids at 0
        assert expansion._fix([1, 1, 1], factors, 0, {2: 1, 1: 0}) == ([2, 0, 0], [], 2)
        # fixed at 1 alone, it leaves that neighbour a forbidden gain, as `_gadget_table` does
        assert expansion._fix([1, 1, 1], factors, 0, {2: 1}) == ([1, expansion._FORBIDDEN, 0], factors[:1], 1)


class TestAssembledGraphs:
    """`expand` and `expand_hyper_edge` skip the constructor's check and carry
    their core count; every other graph is checked, carries none, and takes
    `mis_oracle`'s whole-graph route."""

    @staticmethod
    def _rebuilt(g: ExpandedGraph) -> ExpandedGraph:
        return ExpandedGraph(g.vertices, g.edges, g.bases, g.fragments)

    @settings(max_examples=100, deadline=None)
    @given(h=weighted_hypergraphs())
    def test_expansions_pass_the_public_check(self, h):
        g = expand(h)
        assert g._assembled_cores == h.vertex_count
        assert _fragment_core_count(self._rebuilt(g)) == g._assembled_cores

    @settings(max_examples=100, deadline=None)
    @given(h=weighted_hypergraphs())
    def test_whole_graph_route_matches_the_core_route(self, h):
        g = expand(h)
        copied = dataclasses.replace(g)
        assert copied._assembled_cores is None
        n = len(g.vertices)
        assert mis_oracle(copied, max_vertices=n) == mis_oracle(g, max_vertices=n)

    @pytest.mark.parametrize("weight", range(7))
    @pytest.mark.parametrize("edge_id", (0, 5))
    def test_gadgets_pass_the_public_check(self, weight, edge_id):
        g = expand_hyper_edge(weight, edge_id)
        assert g._assembled_cores == 2
        assert _fragment_core_count(self._rebuilt(g)) == 2

    def test_public_and_replaced_graphs_are_checked(self, monkeypatch):
        g = expand(generate(FamilySpec("cyclic", k=3, weights=1)))
        p0, q0 = aux_index(g, 0, "p", 0), aux_index(g, 0, "q", 0)
        rebuilt, copied = self._rebuilt(g), dataclasses.replace(g)
        dropped = dataclasses.replace(g, edges=g.edges - {(p0, q0)}, bases=())
        assert [x._assembled_cores for x in (rebuilt, copied, dropped)] == [None] * 3
        split = TestMisOracle._spy_conditioning(monkeypatch)
        assert [mis_oracle(x) for x in (g, rebuilt, copied, dropped)] == [7, 7, 7, 8]
        assert [variables for variables, _ in split] == [3] + [len(g.vertices)] * 3

    def test_public_constructor_and_replace_still_check(self):
        g = expand_hyper_edge(1)
        with pytest.raises(ValidationError, match="not an ordered pair"):
            ExpandedGraph(g.vertices, g.edges | {(3, 3)}, g.bases, g.fragments)
        with pytest.raises(ValidationError, match="not a triangle"):
            dataclasses.replace(g, edges=g.edges - {g.bases[0][:2]})
        with pytest.raises(ValidationError, match="three distinct vertices"):
            dataclasses.replace(g, bases=((0, 0, 1),))


# What a graph from `expand` builds on first read; `fragments` it holds from the start.
FILLED = ("vertices", "edges", "bases")
READS = (*FILLED, "fragments", "sorted_edges", "neighbors", "bases_of_vertex")


def _unfilled(g: ExpandedGraph) -> bool:
    return not vars(g).keys() & set(FILLED)


class TestLazyGraph:
    """A graph from `expand` or `expand_hyper_edge` fills its vertices, edges
    and bases on first read, equal to the eager reference, and readers that
    need only the fragments and the vertex count leave them unbuilt."""

    @staticmethod
    def _same_as(g: ExpandedGraph, reference: ExpandedGraph, reads: tuple[str, ...]) -> None:
        assert _unfilled(g)
        assert g.vertex_count == len(reference.vertices)
        for name in reads:
            assert getattr(g, name) == getattr(reference, name), name
        assert not _unfilled(g)
        assert g.vertex_count == len(g.vertices)

    @settings(max_examples=100, deadline=None)
    @given(h=weighted_hypergraphs(), reads=st.permutations(READS))
    def test_expansion_matches_the_eager_reference(self, h, reads):
        placements = [(pos, e.i, e.j, e.weight) for pos, e in enumerate(h.edges)]
        self._same_as(expand(h), _eager_assemble(h.vertex_count, placements), tuple(reads))

    @settings(max_examples=50, deadline=None)
    @given(weight=st.integers(0, 6), edge_id=st.integers(0, 5), reads=st.permutations(READS))
    def test_gadget_matches_the_eager_reference(self, weight, edge_id, reads):
        reference = _eager_assemble(2, [(edge_id, 0, 1, weight)])
        self._same_as(expand_hyper_edge(weight, edge_id), reference, tuple(reads))

    def test_fill_runs_once(self, monkeypatch):
        g = expand(generate(FamilySpec("cyclic", k=4, weights=2)))
        fills = []
        real_fill = expansion._fill

        def spy_fill(graph):
            fills.append(graph)
            return real_fill(graph)

        monkeypatch.setattr(expansion, "_fill", spy_fill)
        first = (g.edges, g.vertices, g.bases)
        assert (g.edges, g.vertices, g.bases) == first
        assert all(a is b for a, b in zip((g.edges, g.vertices, g.bases), first))
        assert len(fills) == 1

    @staticmethod
    def _spy_fill(monkeypatch) -> list:
        fills: list = []
        monkeypatch.setattr(expansion, "_fill", fills.append)
        return fills

    def test_mis_oracle_reads_only_the_fragments(self, monkeypatch):
        fills = self._spy_fill(monkeypatch)
        spec = FamilySpec("torus-lattice", mx=4, my=4, weights=2)
        g = expand(generate(spec))
        assert mis_oracle(g, max_vertices=g.vertex_count) == family_bound(spec).total == 136
        assert fills == [] and _unfilled(g)

    def test_enumerations_read_only_the_fragments(self, monkeypatch):
        fills = self._spy_fill(monkeypatch)
        spec = FamilySpec("cyclic", k=3, weights=1)
        g, edge = expand(generate(spec)), expand_hyper_edge(3)
        assert brute_force_max(g) == family_bound(spec).total == 7
        assert max_edge_observable(edge) == 6
        assert brute_force_max(edge) == 7
        assert fills == [] and _unfilled(g) and _unfilled(edge)

    # The masks come from the fragments, not from the filled edges: they must
    # equal the masks of the edges of a copy that `_fill` filled.
    @settings(max_examples=100, deadline=None)
    @given(h=weighted_hypergraphs(), weight=st.integers(0, 6))
    def test_masks_match_the_filled_edges(self, h, weight):
        for make in (lambda: expand(h), lambda: expand_hyper_edge(weight)):
            g, filled = make(), make()
            edges = expansion._fill(filled)["edges"]
            assert g.adjacency_masks == tuple(_indset.adjacency_masks(filled.vertex_count, edges))
            assert _unfilled(g)

    def test_decomposition_check_reads_only_the_fragments(self, monkeypatch):
        rng = random.Random(5)
        h = random_hypergraph(rng, 6, max_weight=2)
        a = Assignment(tuple(rng.randint(0, 1) for _ in range(expand(h).vertex_count)))
        fills = self._spy_fill(monkeypatch)
        built = []
        real_expand = expand

        def spy_expand(graph):
            built.append(real_expand(graph))
            return built[-1]

        monkeypatch.setattr(bounds, "expand", spy_expand)
        assert check_subgraph_decomposition(h, a).equal
        assert len(built) == 1 + h.vertex_count
        assert fills == [] and all(_unfilled(g) for g in built)

    def test_capacity_refusal_builds_nothing(self, monkeypatch):
        fills = self._spy_fill(monkeypatch)
        g = expand(generate(FamilySpec("torus-lattice", mx=10, my=10, weights=1)))
        with pytest.raises(CapacityError, match=r"^1300 vertices exceed the exact-search limit of 64$"):
            mis_oracle(g)
        assert fills == [] and _unfilled(g)

    def test_enumeration_refusal_builds_nothing(self, monkeypatch):
        """The enumerations check the vertex count before anything reads the
        vertices, also before the edge observable looks for its two cores."""
        fills = self._spy_fill(monkeypatch)
        heavy = expand_hyper_edge(1000)
        two_edges = expand(generate(FamilySpec("linear", k=3, weights=100)))
        message = r"^6002 vertices exceed the 30-bit enumeration limit"
        with pytest.raises(CapacityError, match=message + "; use mis_oracle instead$"):
            brute_force_max(heavy)
        with pytest.raises(CapacityError, match=message + "$"):
            max_edge_observable(heavy)
        with pytest.raises(CapacityError, match=r"^1203 vertices exceed the 30-bit enumeration limit$"):
            max_edge_observable(two_edges)
        assert fills == [] and _unfilled(heavy) and _unfilled(two_edges)

    def test_racing_threads_read_equal_fields(self):
        h = generate(FamilySpec("torus-lattice", mx=4, my=4, weights=2))
        reference = _eager_assemble(h.vertex_count, [(pos, e.i, e.j, e.weight) for pos, e in enumerate(h.edges)])
        expected = [getattr(reference, name) for name in READS]
        seen, errors = [], []

        def read(g, names):
            try:
                got = {name: getattr(g, name) for name in names}
                seen.append([got[name] for name in READS])
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                g = expand(h)
                threads = [threading.Thread(target=read, args=(g, READS[t % 7:] + READS[:t % 7]))
                           for t in range(6)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(seen) == 120 and all(fields == expected for fields in seen)

    def test_copies_are_filled_checked_graphs(self):
        g = expand(generate(FamilySpec("cyclic", k=3, weights=1)))
        copied = dataclasses.replace(g)
        assert not _unfilled(g) and copied._assembled_cores is None
        assert (copied.vertices, copied.edges, copied.bases, copied.fragments) == (
            g.vertices, g.edges, g.bases, g.fragments)


def _neighbors_reference(g: ExpandedGraph) -> tuple[tuple[int, ...], ...]:
    """Each vertex's neighbours from the sorted edges, which list them ascending."""
    out: list[list[int]] = [[] for _ in g.vertices]
    for i, j in sorted(g.edges):
        out[i].append(j)
        out[j].append(i)
    return tuple(map(tuple, out))


class TestOrderFreeReads:
    """`evaluate` values a graph from `expand` by its fragments and fills
    nothing; `neighbors`, `evaluate` and `mis_oracle` never sort the edges."""

    @settings(max_examples=100, deadline=None)
    @given(h=weighted_hypergraphs(max_cores=8), data=st.data())
    def test_evaluate_reads_only_the_fragments(self, h, data):
        g = expand(h)
        bits = data.draw(st.integers(0, (1 << g.vertex_count) - 1))
        a = Assignment(tuple((bits >> v) & 1 for v in range(g.vertex_count)))
        value = evaluate(g, a)
        assert hypergraph_observable_value(h, g, a) == value
        assert _unfilled(g) and "sorted_edges" not in vars(g)
        assert evaluate(dataclasses.replace(g), a) == value

    @settings(max_examples=50, deadline=None)
    @given(h=weighted_hypergraphs(max_cores=8))
    def test_neighbors_of_expansions(self, h):
        g = expand(h)
        assert g.neighbors == _neighbors_reference(g)
        assert "sorted_edges" not in vars(g)

    @settings(max_examples=50, deadline=None)
    @given(case=shuffled_edge_expansions())
    def test_neighbors_of_hand_built_graphs(self, case):
        g, _ = case
        assert g.neighbors == _neighbors_reference(g)
        assert "sorted_edges" not in vars(g)

    @pytest.mark.parametrize("n", (1, 2, 3, 4))
    def test_propagation_sorts_nothing(self, n):
        g = expand_hyper_edge(n)
        assert ks_propagate(g, {0: 1, 1: 1}).contradiction
        assert "sorted_edges" not in vars(g)

    def test_hand_built_graphs_sort_nothing(self):
        spec = FamilySpec("cyclic", k=5, weights=(0, 1, 0, 2, 0))
        g = dataclasses.replace(expand(generate(spec)))
        a = Assignment(tuple(v % 3 == 0 for v in range(g.vertex_count)))
        assert evaluate(g, a) == sum(a.values) - sum(a.values[i] * a.values[j] for i, j in g.edges)
        assert mis_oracle(g, max_vertices=g.vertex_count) == family_bound(spec).total
        assert "sorted_edges" not in vars(g)


class TestHeavyEdges:
    """The size of an expansion is known from its fragments: `expand` costs
    O(1) per edge at any weight, and past `EXPAND_MAX_VERTICES` the vertex
    list is refused wherever it would be built, before it is allocated."""

    WEIGHT = 10**18
    LIMIT = rf"^{2 + 6 * WEIGHT} vertices exceed the expansion limit of 1000000$"

    def test_expanding_costs_nothing_per_unit_of_weight(self):
        h = HyperGraph(3, (HyperEdge(0, 1, self.WEIGHT), HyperEdge(1, 2, 1)))
        builds = [(lambda: expand_hyper_edge(self.WEIGHT), 2, 2 + 6 * self.WEIGHT),
                  (lambda: expand(h), 3, 3 + 6 * self.WEIGHT + 6)]
        for make, cores, size in builds:
            times = []
            for _ in range(5):
                start = time.perf_counter()
                make()
                times.append(time.perf_counter() - start)
            tracemalloc.start()
            try:
                g = make()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert min(times) < 1e-3
            assert peak < 64_000
            assert g.vertex_count == size
            assert g.fragments[0].aux == range(cores, cores + 6 * self.WEIGHT)

    @pytest.mark.parametrize("name", ["vertices", "edges", "bases"])
    def test_filled_fields_are_refused(self, name):
        g = expand_hyper_edge(self.WEIGHT)
        with pytest.raises(CapacityError, match=self.LIMIT):
            getattr(g, name)
        assert _unfilled(g)

    def test_readers_refuse_with_their_own_messages(self):
        g = expand_hyper_edge(self.WEIGHT)
        n = 2 + 6 * self.WEIGHT
        with pytest.raises(CapacityError, match=rf"^{n} vertices exceed the 30-bit enumeration limit; use mis_oracle instead$"):
            brute_force_max(g)
        with pytest.raises(CapacityError, match=rf"^{n} vertices exceed the exact-search limit of 64$"):
            mis_oracle(g)
        with pytest.raises(CapacityError, match=rf"^{n} vertices exceed the 30-bit enumeration limit$"):
            max_edge_observable(g)
        for read in (to_dot, lambda g: ks_propagate(g, {0: 1, 1: 1}), lambda g: verify_realization(g, [], 1e-9),
                     lambda g: g.adjacency_masks):
            with pytest.raises(CapacityError, match=self.LIMIT):
                read(g)
        assert _unfilled(g)

    @settings(max_examples=100, deadline=None)
    @given(h=weighted_hypergraphs())
    def test_aux_blocks_hold_the_placed_labels(self, h):
        g = expand(h)
        first = h.vertex_count
        for pos, (f, e) in enumerate(zip(g.fragments, h.edges)):
            assert (f.edge_id, f.endpoints, f.weight) == (pos, (e.i, e.j), e.weight)
            assert f.aux == range(first, first + 6 * e.weight)
            first = f.aux.stop
            assert [g.vertices[v] for v in f.aux] == [AuxVertex(pos, *label) for label in aux_labels(e.weight)]
        assert first == g.vertex_count


class TestFillHook:
    """`ExpandedGraph.__getattr__` fills the vertices, edges and bases of a
    graph from `expand`, and answers every other missing name, on any graph,
    with an `AttributeError` that fills nothing. Copies and pickles of an
    unfilled graph stay unfilled and fill as the original would."""

    SPEC = FamilySpec("cyclic", k=4, weights=2)

    def _graph(self, state: str) -> ExpandedGraph:
        h = generate(self.SPEC)
        if state == "constructed":
            return _eager_assemble(h.vertex_count, [(pos, e.i, e.j, e.weight) for pos, e in enumerate(h.edges)])
        g = expand(h)
        if state == "filled":
            g.bases
        return g

    @pytest.mark.parametrize("state", ("unfilled", "filled", "constructed"))
    def test_missing_name_is_an_attribute_error(self, state):
        g = self._graph(state)
        before = dict(vars(g))
        with pytest.raises(AttributeError, match=r"^'ExpandedGraph' object has no attribute 'nope'$"):
            g.nope
        assert not hasattr(g, "nope") and getattr(g, "nope", 7) == 7
        # what Python 3.10's copy and pickle look up through the hook
        for name in ("__getstate__", "__setstate__", "__deepcopy__"):
            with pytest.raises(AttributeError, match=f"'{name}'$"):
                ExpandedGraph.__getattr__(g, name)
        assert vars(g) == before

    def test_bare_instance_fills_nothing(self):
        """Unpickling makes the instance before it restores the dict."""
        bare = object.__new__(ExpandedGraph)
        with pytest.raises(AttributeError, match=r"'vertices'$"):
            bare.vertices
        with pytest.raises(AttributeError, match=r"'__setstate__'$"):
            ExpandedGraph.__getattr__(bare, "__setstate__")
        assert vars(bare) == {}

    @pytest.mark.parametrize("duplicate", (
        copy.copy, copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g)),
    ), ids=("copy", "deepcopy", "pickle"))
    def test_copies_stay_unfilled(self, duplicate):
        g = self._graph("unfilled")
        twin = duplicate(g)
        assert _unfilled(g) and _unfilled(twin)
        assert twin._assembled_cores == g._assembled_cores == 4
        reference = self._graph("constructed")
        for name in READS:
            assert getattr(twin, name) == getattr(reference, name), name
        assert not _unfilled(twin) and _unfilled(g)
        assert mis_oracle(twin, max_vertices=100) == mis_oracle(reference, max_vertices=100)


class TestKsPropagate:
    def test_clifton_contradiction(self):
        g = expand_hyper_edge(1)
        outcome = ks_propagate(g, {0: 1, 1: 1})
        assert outcome.contradiction
        assert outcome.violation.kind == "edge"
        p0 = aux_index(g, 0, "p", 0)
        q0 = aux_index(g, 0, "q", 0)
        assert set(outcome.violation.vertices) == {p0, q0}
        forced = {s.vertex: s.value for s in outcome.steps}
        for kind in ("a+", "a-", "b+", "b-"):
            assert forced[aux_index(g, 0, kind, 1)] == 0
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
        assert set(deep.violation.vertices) == {aux_index(g2, 0, "p", 0), aux_index(g2, 0, "q", 0)}

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

    @pytest.mark.parametrize("forced,message", (
        ({0.0: 1}, "forced vertex must be an integer, got 0.0"),
        ({0: 1, "1": 1}, "forced vertex must be an integer, got '1'"),
        ({0: 1.0}, "forced value for vertex 0 must be an integer, got 1.0"),
        ({0: 1, 1: None}, "forced value for vertex 1 must be an integer, got None"),
    ))
    def test_rejects_non_integer_forced_map(self, forced, message):
        # {0: 1.0} used to propagate, then fail in the assignment; {0.0: 1} raised a TypeError
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            ks_propagate(expand_hyper_edge(1), forced)

    def test_integer_like_forced_map(self):
        g = expand_hyper_edge(2)
        outcome = ks_propagate(g, {np.int64(0): np.int64(1), 1: True})
        assert outcome == ks_propagate(g, {0: 1, 1: 1})
        assert {(type(s.vertex), type(s.value)) for s in outcome.steps} == {(int, int)}
        consistent = ks_propagate(g, {np.int32(0): True})
        assert consistent == ks_propagate(g, {0: 1}) and not consistent.contradiction

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
