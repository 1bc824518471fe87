"""Tests for the bitmask independent-set engine against its references: the
include-first enumeration, the degree-0/1 scan-peel search, and a tree DP
for large sparse graphs; and for the peel step, the maximum sets the search
returns and the memo of sets behind the witness."""

import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kshg import (
    FamilySpec,
    HyperEdge,
    HyperGraph,
    classical_bound,
    closed_form_independence,
    family_bound,
    generate,
    max_independent_set,
)
from kshg import _indset

from _fixtures import _global_witness, _scan_alpha, _tree_mis


def closed_masks(adj):
    return [a | 1 << v for v, a in enumerate(adj)]


def family_adjacency(spec):
    h = generate(spec)
    return _indset.adjacency_masks(h.vertex_count, ((e.i, e.j) for e in h.edges))


def relabel(n, edges, labelling, rng):
    """`identity` keeps a tree's parents before its children (leaves at high
    indices), `reversed` puts the leaves first, `shuffled` anywhere."""
    perm = list(range(n))
    if labelling == "reversed":
        perm.reverse()
    elif labelling == "shuffled":
        rng.shuffle(perm)
    return [(min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in edges]


@st.composite
def small_graphs(draw):
    """At most 20 vertices: a random graph, a forest, or a random core with
    pendant paths or triangles hung on it, under one of three labellings.
    Returns the vertex count, the edges and whether the drawing is a forest."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(0, 20))
    shape = draw(st.sampled_from(("random", "forest", "pendant", "triangles")))
    labelling = draw(st.sampled_from(("identity", "reversed", "shuffled")))
    core = n if shape == "random" else 0 if shape == "forest" else rng.randint(0, n)
    density = rng.random()
    edges = [(i, j) for j in range(core) for i in range(j) if rng.random() < density]
    for v in range(max(core, 1), n):
        if shape == "pendant" and v > core and rng.random() < 0.7:
            edges.append((v - 1, v))  # extend the current path
        elif shape == "triangles" and edges and rng.random() < 0.7:
            i, j = rng.choice(edges)  # close a triangle on an earlier edge
            edges += [(i, v), (j, v)]
        elif rng.random() < 0.9:
            edges.append((rng.randrange(v), v))  # a forest leaves some roots
    return n, relabel(n, edges, labelling, rng), shape == "forest"


@st.composite
def interleaved_unions(draw):
    """A disjoint union of 2-4 `small_graphs` drawings, at most 60 vertices,
    whose labels are dealt out to the drawings in turn, so that their
    components alternate in index order. Returns the vertex count, the edges
    and each drawing's labels and edges in its own labelling."""
    parts = draw(st.lists(small_graphs(), min_size=2, max_size=4)
                 .filter(lambda parts: sum(part[0] for part in parts) <= 60))
    labels: list[list[int]] = [[] for _ in parts]
    dealt = 0
    for index in range(max(part[0] for part in parts)):
        for own, (n, _, _) in zip(labels, parts):
            if index < n:
                own.append(dealt)
                dealt += 1
    edges = [(own[i], own[j]) for own, (_, part_edges, _) in zip(labels, parts) for i, j in part_edges]
    return dealt, edges, [(own, part_edges) for own, (_, part_edges, _) in zip(labels, parts)]


def induced(adj, mask):
    """Adjacency of the subgraph induced by `mask`, its vertices renumbered
    in index order."""
    index = {v: i for i, v in enumerate(v for v in range(len(adj)) if mask >> v & 1)}
    return [sum(1 << index[u] for u in index if adj[v] >> u & 1) for v in index]


def peelable(adj, mask):
    """The vertices of `mask` of degree 0 or 1, or of degree 2 with
    adjacent neighbours, in index order."""
    found = []
    for v in range(len(adj)):
        near = adj[v] & mask
        if mask >> v & 1 and (near.bit_count() <= 1 or near.bit_count() == 2
                              and adj[near.bit_length() - 1] & near):
            found.append(v)
    return found


def check_set(adj, found, mask, size):
    """`found` is an independent subset of `mask` of `size` vertices."""
    assert found & ~mask == 0
    assert not any(adj[v] & found for v in range(len(adj)) if found >> v & 1)
    assert found.bit_count() == size


def check_memo(adj, memo, size_of):
    """Each key of `memo` has nothing to peel, and its value is an
    independent subset of the key of size `size_of(key)`."""
    for mask, found in memo.items():
        assert mask and not peelable(adj, mask)
        check_set(adj, found, mask, size_of(mask))


def witness_memo(adj):
    """The memo after a top-level `_max_set` call and the greedy witness
    loop that calls it once per remaining candidate, with no shortcut."""
    n = len(adj)
    closed = closed_masks(adj)
    cache = {}
    total = _indset._max_set(adj, closed, (1 << n) - 1, cache).bit_count()
    size = 0
    candidates = (1 << n) - 1
    for v in range(n):
        if candidates >> v & 1:
            rest = candidates & ~closed[v]
            if size + 1 + _indset._max_set(adj, closed, rest, cache).bit_count() == total:
                size += 1
                candidates = rest
            else:
                candidates ^= 1 << v
    return cache


class TestBranchSearch:
    @settings(max_examples=200, deadline=None)
    @given(graph=small_graphs())
    def test_matches_brute_force_and_tree_reference(self, graph):
        n, edges, forest = graph
        adj = _indset.adjacency_masks(n, edges)
        result = _indset.branch_search(adj)
        assert result == _indset.brute_force_search(adj)
        if forest:
            assert result == _tree_mis(n, edges)

    @settings(max_examples=100, deadline=None)
    @given(union=interleaved_unions())
    def test_disjoint_union_matches_global_reference(self, union):
        """Here a candidate's component is rarely all the candidates. The
        witness of a union is its drawings' brute-force witnesses."""
        n, edges, parts = union
        adj = _indset.adjacency_masks(n, edges)
        result = _indset.branch_search(adj)
        assert result == _global_witness(adj)
        size, witness = 0, []
        for own, part_edges in parts:
            part_size, part_witness = _indset.brute_force_search(
                _indset.adjacency_masks(len(own), part_edges))
            size += part_size
            witness += [own[v] for v in part_witness]
        assert result == (size, sorted(witness))

    @pytest.mark.parametrize("spec", [
        FamilySpec("fractal-cyclic", k=6),
        FamilySpec("torus-lattice", mx=3, my=200),
        FamilySpec("torus-lattice", mx=4, my=100),
    ])
    def test_family_matches_global_reference(self, spec):
        adj = family_adjacency(spec)
        assert _indset.branch_search(adj) == _global_witness(adj)

    def test_fractal_tree_witness_memory(self):
        """The witness checks stay inside their components, so the memo does
        not fill with re-peeled copies of the whole tree (70.8 MB traced
        when every check searched all the remaining candidates)."""
        adj = family_adjacency(FamilySpec("fractal-tree", k=10))
        tracemalloc.start()
        try:
            _indset.branch_search(adj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @settings(max_examples=200, deadline=None)
    @given(graph=small_graphs())
    def test_alpha_leaves_the_scan_reference_memo(self, graph):
        """Every mask that `_max_set` caches over a witness loop has nothing
        to peel and holds a maximum set, whose size is the brute-force
        independence number, and the top-level size is the scan-peel
        reference's. The masks themselves differ from the reference's: the
        triangle peel removes three vertices at a time."""
        adj = _indset.adjacency_masks(*graph[:2])
        closed = closed_masks(adj)
        full = (1 << len(adj)) - 1
        assert _indset._max_set(adj, closed, full, {}).bit_count() == _scan_alpha(adj, closed, full, {})
        check_memo(adj, witness_memo(adj), lambda mask: _indset.brute_force_search(induced(adj, mask))[0])

    @pytest.mark.parametrize("spec", [
        FamilySpec("fractal-tree", k=7),
        FamilySpec("fractal-tree", k=8),
        FamilySpec("fractal-tree", k=9),
        FamilySpec("fractal-cyclic", k=6),
        FamilySpec("torus-lattice", mx=4, my=4),
        FamilySpec("torus-lattice", mx=3, my=4),
        FamilySpec("torus-lattice", mx=3, my=200),
        FamilySpec("torus-lattice", mx=4, my=100),
        FamilySpec("square-lattice", mx=5, my=5),
    ])
    def test_family_memo_matches_scan_reference(self, spec):
        """The size of the answer and of every cached set equal the
        scan-peel reference's, and each cached mask has nothing to peel. The
        reference keeps a memo of its own across the masks: a fresh one per
        mask takes minutes on torus 3x200."""
        adj = family_adjacency(spec)
        closed = closed_masks(adj)
        full = (1 << len(adj)) - 1
        memo, reference = {}, {}
        assert _indset._max_set(adj, closed, full, memo).bit_count() == _scan_alpha(adj, closed, full, reference)
        check_memo(adj, memo, lambda mask: _scan_alpha(adj, closed, mask, reference))

    @settings(max_examples=200, deadline=None)
    @given(graph=small_graphs(), data=st.data())
    def test_relabelling_keeps_the_size(self, graph, data):
        """Peel and branch order follow the labels; the size must not, and
        each labelling's witness is its own brute-force witness."""
        n, edges, _ = graph
        perm = data.draw(st.permutations(range(n)))
        sizes = set()
        for labelled in (edges, [(perm[i], perm[j]) for i, j in edges]):
            adj = _indset.adjacency_masks(n, labelled)
            result = _indset.branch_search(adj)
            assert result == _indset.brute_force_search(adj)
            sizes.add(result[0])
        assert len(sizes) == 1

    @pytest.mark.parametrize("spec, labelling, searched", [
        (FamilySpec("fractal-tree", k=8), "identity", 0),
        (FamilySpec("fractal-tree", k=10), "identity", 0),
        (FamilySpec("linear", k=200), "identity", 0),
        (FamilySpec("fractal-cyclic", k=7), "reversed", 0),
        (FamilySpec("torus-lattice", mx=4, my=4), "identity", 1),
    ])
    def test_witness_searches_only_where_the_maximum_set_cannot_vouch(
            self, monkeypatch, spec, labelling, searched):
        """The top peel chain takes a fractal tree, a path and a reversed
        fractal-cyclic graph apart, and the set it takes vouches for every
        candidate, so the one search of the whole graph never branches.
        Torus 4x4 has nothing to peel: its one search branches on the whole
        graph first, and the set it returns vouches for every candidate."""
        max_set, branch_vertex = _indset._max_set, _indset._branch_vertex
        searches, branched = [], []
        depth = 0

        def spy_max_set(*args):
            nonlocal depth
            if not depth:
                searches.append(args[2])
            depth += 1
            try:
                return max_set(*args)
            finally:
                depth -= 1

        def spy_branch_vertex(*args):
            branched.append(args[1])
            return branch_vertex(*args)

        monkeypatch.setattr(_indset, "_max_set", spy_max_set)
        monkeypatch.setattr(_indset, "_branch_vertex", spy_branch_vertex)
        h = generate(spec)
        n = h.vertex_count
        adj = _indset.adjacency_masks(n, relabel(n, [(e.i, e.j) for e in h.edges], labelling, None))
        size, witness = _indset.branch_search(adj)
        assert size == len(witness) == closed_form_independence(spec)
        assert searches == [(1 << n) - 1]
        assert branched[:1] == [(1 << n) - 1] * searched

    @pytest.mark.parametrize("spec, labelling", [
        (FamilySpec("fractal-tree", k=8), "identity"),
        (FamilySpec("fractal-tree", k=8), "shuffled"),
        (FamilySpec("linear", k=200), "identity"),
        (FamilySpec("fractal-cyclic", k=7), "reversed"),
        (FamilySpec("fractal-cyclic", k=6), "shuffled"),
    ])
    def test_peel_walks_the_whole_graph_once(self, monkeypatch, spec, labelling):
        """The top chain is walked once: no later search peels the whole
        graph again."""
        peel = _indset._peel
        seen = []

        def spy_peel(*args):
            seen.append(args[2])
            return peel(*args)

        monkeypatch.setattr(_indset, "_peel", spy_peel)
        h = generate(spec)
        n = h.vertex_count
        adj = _indset.adjacency_masks(n, relabel(n, [(e.i, e.j) for e in h.edges], labelling, random.Random(n)))
        size, _ = _indset.branch_search(adj)
        assert size == closed_form_independence(spec)
        assert seen.count((1 << n) - 1) == 1

    @settings(max_examples=150, deadline=None)
    @given(rng=st.randoms(use_true_random=False), core=st.integers(5, 9), n=st.integers(10, 60))
    def test_tree_hung_off_a_dense_core(self, rng, core, n):
        """The top chain peels the tree away and leaves part of the core, so
        the first maximum set and the checks come partly from the search of
        what the chain leaves."""
        edges = [(i, j) for j in range(core) for i in range(j) if rng.random() < 0.75]
        roots = rng.randint(1, 3)  # tree vertices hung on the core; the rest hang on them
        for v in range(core, n):
            edges.append((rng.randrange(core) if v < core + roots else rng.randrange(core, v), v))
        adj = _indset.adjacency_masks(n, relabel(n, edges, "shuffled", rng))
        full = (1 << n) - 1
        assume(_indset._peel(adj, closed_masks(adj), full, full)[0])
        reference = _indset.brute_force_search if n <= _indset.BRUTE_FORCE_LIMIT else _global_witness
        assert _indset.branch_search(adj) == reference(adj)

    def test_edgeless_graph(self):
        """Every vertex peels; a memo of the chain's masks would fill with
        masks whose hashes collide (an int hashes to its value mod
        2**61 - 1)."""
        assert _indset.branch_search([0] * 5000) == (5000, list(range(5000)))

    def test_edgeless_graph_memory(self):
        """Only the peel's current mask is kept, not one per peel: a list of
        them is quadratic in the vertex count (77.6 MB traced at 20,000
        vertices). What remains is mostly the closed neighbourhoods."""
        tracemalloc.start()
        try:
            assert _indset.branch_search([0] * 20000)[0] == 20000
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20

    def test_cycle_memo_holds_only_the_rest(self):
        """Nothing peels on a cycle, so the search caches the cycle and
        branches once; both sides peel away to nothing and cache no mask of
        their chains."""
        n = 2000
        adj = _indset.adjacency_masks(n, [(v, (v + 1) % n) for v in range(n)])
        full = (1 << n) - 1
        memo = {}
        assert _indset._max_set(adj, closed_masks(adj), full, memo).bit_count() == n // 2
        assert list(memo) == [full]

    @settings(max_examples=200, deadline=None)
    @given(graph=small_graphs(), data=st.data())
    def test_max_set_returns_a_maximum_set(self, graph, data):
        """The search returns an independent subset of any mask, of the
        mask's brute-force independence number, and so does a second search
        that reads the first one's memo."""
        adj = _indset.adjacency_masks(*graph[:2])
        closed = closed_masks(adj)
        mask = data.draw(st.integers(0, (1 << len(adj)) - 1))
        size = _indset.brute_force_search(induced(adj, mask))[0]
        cache = {}
        for _ in range(2):
            check_set(adj, _indset._max_set(adj, closed, mask, cache), mask, size)

    @settings(max_examples=200, deadline=None)
    @given(graph=small_graphs(), data=st.data())
    def test_peel_takes_the_lowest_vertex_some_maximum_set_holds(self, graph, data):
        """`_peel` ends where a reference chain ends that removes the lowest
        peelable vertex `v` of its mask with its neighbourhood until none is
        left, and takes that chain's vertices. At each step
        `1 + alpha(mask - N[v]) == alpha(mask)` by brute force. Any
        `pending` that holds every peelable vertex gives the same chain."""
        adj = _indset.adjacency_masks(*graph[:2])
        closed = closed_masks(adj)
        n = len(adj)

        def alpha(mask):
            return _indset.brute_force_search(induced(adj, mask))[0]

        mask = data.draw(st.integers(0, (1 << n) - 1))
        pending = data.draw(st.integers(0, (1 << n) - 1)) | sum(1 << v for v in peelable(adj, mask))
        rest, taken = mask, 0
        while peelable(adj, rest):
            v = peelable(adj, rest)[0]
            after = rest & ~closed[v]
            assert 1 + alpha(after) == alpha(rest)
            rest, taken = after, taken | 1 << v
        assert _indset._peel(adj, closed, mask, pending) == (rest, taken)

    @pytest.mark.parametrize("labelling", ("identity", "reversed", "shuffled"))
    @pytest.mark.parametrize("k", (5, 6, 7, 8))
    def test_fractal_cyclic_matches_closed_form_under_any_labels(self, k, labelling):
        """The fractal's outer triangle corners have degree 2 and adjacent
        neighbours, so the triangle peel takes it apart under any labels;
        with degree-0/1 peels alone, reversed labels at k=7 branched for
        more than 30 s."""
        spec = FamilySpec("fractal-cyclic", k=k)
        h = generate(spec)
        n = h.vertex_count
        adj = _indset.adjacency_masks(n, relabel(n, [(e.i, e.j) for e in h.edges], labelling, random.Random(k)))
        size, witness = _indset.branch_search(adj)
        assert size == len(witness) == closed_form_independence(spec)
        assert not any(adj[v] >> u & 1 for u in witness for v in witness)


def random_tree(rng, n):
    """Parents before children; the shape decides how deep and how leafy."""
    shape = rng.choice(("recursive", "caterpillar", "broom"))
    edges = []
    for v in range(1, n):
        if shape == "recursive":
            parent = rng.randrange(v)
        elif shape == "caterpillar":
            parent = rng.randrange(max(0, v - 3), v)
        else:
            parent = rng.randrange(min(v, 5))
        edges.append((parent, v))
    return edges


class TestLargeSparse:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_trees_match_tree_reference(self, seed):
        rng = random.Random(seed)
        n = rng.randint(200, 600)
        labelling = ("identity", "reversed", "shuffled")[seed % 3]
        edges = relabel(n, random_tree(rng, n), labelling, rng)
        h = HyperGraph(n, tuple(HyperEdge(i, j, 0) for i, j in sorted(edges)))
        size, witness = _tree_mis(n, edges)
        result = max_independent_set(h, max_vertices=n)
        assert (result.size, result.witness) == (size, tuple(witness))

    @pytest.mark.parametrize("k", (8, 9, 10, 11))
    def test_fractal_tree_matches_tree_reference_and_closed_form(self, k):
        spec = FamilySpec("fractal-tree", k=k)
        h = generate(spec)
        size, witness = _tree_mis(h.vertex_count, [(e.i, e.j) for e in h.edges])
        bound = classical_bound(h, max_vertices=h.vertex_count)
        assert (bound.independence_term, bound.witness) == (size, tuple(witness))
        assert bound.total == family_bound(spec).total
