"""Hand-checked coordinate fixtures and reference oracles shared across test modules."""

import heapq
import math
import warnings
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from kshg import (
    Assignment,
    AuxVertex,
    CoreVertex,
    ExpandedGraph,
    HyperEdge,
    HyperGraph,
    Ray,
    ValidationError,
    classical_bound,
    eigensystem,
    family_edge_pairs,
    family_vertex_count,
    hyper_edge_weight,
    overlap,
    projector_sum,
    vertex_label,
)
from kshg._indset import _components, _max_set
from kshg.bounds import (
    SPECTRAL_TOLERANCE,
    CheckResult,
    Classification,
    QuantumRange,
    RealizationReport,
    ViolationReport,
)
from kshg.cli import _int
from kshg.expansion import _FORBIDDEN, Fragment, _elimination_order, _fix, _gadget, _max_sum
from kshg.hypergraph import PARALLEL_TOLERANCE

RT2 = 1.0 / math.sqrt(2.0)
RT3 = 1.0 / math.sqrt(3.0)


def clifton_realization() -> list[Ray]:
    """Coordinates for the weight-1 gadget, checked by hand against every
    orthogonality edge and both bases.

    Order matches the expansion: cores, then p0, q0, a+1, a-1, b+1, b-1.
    """
    return [
        Ray((RT3, RT3, RT3)),
        Ray((RT3, -RT3, -RT3)),
        Ray((0, 0, 1)),
        Ray((0, 1, 0)),
        Ray((RT2, -RT2, 0)),
        Ray((RT2, 0, -RT2)),
        Ray((RT2, RT2, 0)),
        Ray((RT2, 0, RT2)),
    ]


def cone_rays() -> list[Ray]:
    """Three unit rays with pairwise inner product exactly +1/3."""
    out = []
    for i in range(3):
        angle = 2.0 * math.pi * i / 3.0
        out.append(
            Ray(
                (
                    math.sqrt(5.0) / 3.0,
                    2.0 * math.cos(angle) / 3.0,
                    2.0 * math.sin(angle) / 3.0,
                )
            )
        )
    return out


def _gray_walk_max(n: int, adjacency: Sequence[int], penalty: int = 0) -> int:
    """Reference for the block enumeration: exact max of the expression
    (minus penalized vertices) over all 2^n assignments.

    Gray-code walk: each step flips one vertex and updates the expression
    incrementally from the selected-neighbor count.
    """
    best = 0
    value = 0
    state = 0
    for step in range(1, 1 << n):
        k = (step & -step).bit_length() - 1
        bit = 1 << k
        selected = (state & adjacency[k]).bit_count()
        if state & bit:
            value += selected - 1
            if (penalty >> k) & 1:
                value += 1
        else:
            value += 1 - selected
            if (penalty >> k) & 1:
                value -= 1
        state ^= bit
        if value > best:
            best = value
    return best


def _max_sum_reference(gain: Sequence[int], factors: Sequence[tuple[tuple[int, int], list]],
                       kept: int = 0) -> list:
    """Reference for `expansion._max_sum`: for each state of the first `kept`
    variables (bit v for variable v), the best sum of the selected gains and
    every pair factor (indexed x_i + 2 x_j for scope (i, j)), by enumerating
    all 2^n states.
    """
    table = [float("-inf")] * (1 << kept)
    for x in product((0, 1), repeat=len(gain)):
        value = sum(g for g, selected in zip(gain, x) if selected)
        value += sum(t[x[i] + 2 * x[j]] for (i, j), t in factors)
        key = sum(x[v] << v for v in range(kept))
        table[key] = max(table[key], value)
    return table


def _min_degree_order(n: int, pairs: Sequence[tuple[int, int]], max_width: int) -> list[int] | None:
    """Reference for the order of `expansion._elimination_order`: the
    set-based min-degree routine it replaced. Each step takes the vertex of
    least degree, the lowest on ties, joins its neighbours and removes it;
    None when that degree exceeds `max_width`.
    """
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for i, j in pairs:
        nbrs[i].add(j)
        nbrs[j].add(i)
    heap = [(len(s), v) for v, s in enumerate(nbrs)]
    heapq.heapify(heap)
    eliminated = [False] * n
    order = []
    while heap:
        degree, v = heapq.heappop(heap)
        if eliminated[v] or degree != len(nbrs[v]):
            continue  # superseded entry
        if degree > max_width:
            return None
        eliminated[v] = True
        order.append(v)
        for u in nbrs[v]:
            nbrs[u] |= nbrs[v]
            nbrs[u] -= {u, v}
            heapq.heappush(heap, (len(nbrs[u]), u))
    return order


def _plan_in_order(n: int, pairs: Sequence[tuple[int, int]],
                   order: Sequence[int]) -> list[tuple[int, tuple[int, ...]]]:
    """An elimination plan for `expansion._max_sum` in any `order` of the n
    variables: each variable with the positions of its neighbours when it
    is eliminated, ascending, as `expansion._elimination_order` plans in
    its own order."""
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for i, j in pairs:
        nbrs[i].add(j)
        nbrs[j].add(i)
    position = {v: pos for pos, v in enumerate(order)}
    plan = []
    for v in order:
        later = nbrs[v]
        for u in later:
            nbrs[u] |= later
            nbrs[u] -= {u, v}
        plan.append((v, tuple(sorted(position[u] for u in later))))
    return plan


def _fragment_core_count(g: ExpandedGraph) -> int | None:
    """Reference for `ExpandedGraph._assembled_cores`: the number of cores
    when `g.fragments` describe `g` exactly, else None.

    Exactly means: the first k vertices are `CoreVertex(0..k-1)`, each
    fragment joins two distinct cores (no pair twice) and owns the next
    contiguous block of 6n vertices (it starts at `first`), every edge of its relabelled `_gadget`
    view is in `g.edges`, and those edges are all of `g.edges`.
    """
    k = len(g.vertices) - 6 * sum(f.weight for f in g.fragments)
    if k < 0 or not all(type(v) is CoreVertex and v.index == i for i, v in enumerate(g.vertices[:k])):
        return None
    if len({f.endpoints for f in g.fragments}) != len(g.fragments):
        return None
    relabelled: list[tuple[int, int]] = []
    start = k
    for f in g.fragments:
        i, j = f.endpoints
        order = (i, j, *range(start, start + 6 * f.weight))
        if not 0 <= i < j < k or f.first != start:
            return None
        relabelled += [(order[s], order[t]) for s, t in _gadget(f.weight)[0]]
        start += 6 * f.weight
    return k if len(relabelled) == len(g.edges) and g.edges.issuperset(relabelled) else None


def aux_labels(weight: int) -> list[tuple[str, int]]:
    """The (kind, level) of each auxiliary vertex of a weight-n gadget in
    construction order: p chain levels 0..n-1, q chain levels 0..n-1, then
    per level 1..n the bridging four (a+, a-, b+, b-)."""
    return ([("p", level) for level in range(weight)] + [("q", level) for level in range(weight)]
            + [(kind, level) for level in range(1, weight + 1) for kind in ("a+", "a-", "b+", "b-")])


def aux_index(g: ExpandedGraph, edge_id: int, kind: str, level: int) -> int:
    """The graph index of the auxiliary vertex e<edge_id>:<kind><level>,
    found by a scan of `g.vertices`."""
    return g.vertices.index(AuxVertex(edge_id, kind, level))


def _gadget_table_reference(weight: int) -> tuple[float, ...]:
    """Reference for `expansion._gadget_table` at every weight: the four
    problems over the whole local view of `_gadget`, one per state (a, b)
    of the cores at index a + 2b, each with the cores fixed, solved by
    `_max_sum` along one elimination plan (about 0.3 ms per unit of
    weight)."""
    edges, _ = _gadget(weight)
    blocked = [0, 0, 0, _FORBIDDEN]
    gain, factors = [0, 0] + [1] * (6 * weight), [(pair, blocked) for pair in edges]
    plan = _elimination_order(len(gain), edges)
    problems = [_fix(gain, factors, 0, {0: a, 1: b}) for b in (0, 1) for a in (0, 1)]
    return tuple(const + _max_sum(fixed, rest, plan) for fixed, rest, const in problems)


def _eager_assemble(vertex_count: int, placements: Sequence[tuple[int, int, int, int]]) -> ExpandedGraph:
    """Reference for `expansion._assemble`: the graph built in one eager
    pass through the public, checking constructor.

    The cores come first; each (edge id, i, j, weight) placement appends its
    gadget's auxiliary vertices, labelled by `aux_labels`, and its `_gadget`
    view is relabelled through the fragment's vertex order (i, j, then the
    new vertices).
    """
    vertices: list = [CoreVertex(i) for i in range(vertex_count)]
    edges: list[tuple[int, int]] = []
    bases: list[tuple[int, int, int]] = []
    fragments: list[Fragment] = []
    for edge_id, i, j, weight in placements:
        local_edges, local_bases = _gadget(weight)
        first = len(vertices)
        order = (i, j, *range(first, first + 6 * weight))
        vertices += [AuxVertex(edge_id, kind, level) for kind, level in aux_labels(weight)]
        edges += [(order[s], order[t]) for s, t in local_edges]
        bases += [(order[s], order[t], order[u]) for s, t, u in local_bases]
        fragments.append(Fragment(edge_id, (i, j), weight, first))
    return ExpandedGraph(tuple(vertices), frozenset(edges), tuple(bases), tuple(fragments))


def _scan_alpha(adj: Sequence[int], closed: Sequence[int], mask: int, cache: dict[int, int]) -> int:
    """Reference for the sizes of `_indset._max_set`'s sets: the same
    branching, but it peels only vertices of degree 0 or 1, each peel finds
    its vertex by a fresh scan from the lowest bit of `mask` (quadratic per
    call on a tree labelled root-first), and it memoizes sizes, not sets.
    """
    peeled: list[int] = []
    while True:
        if mask == 0:
            result = 0
            break
        hit = cache.get(mask)
        if hit is not None:
            result = hit
            break
        branch_vertex = -1
        branch_degree = -1
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            degree = (adj[v] & mask).bit_count()
            if degree <= 1:
                peeled.append(mask)
                mask = mask ^ (1 << v) if degree == 0 else mask & ~closed[v]
                break
            if degree > branch_degree:
                branch_degree = degree
                branch_vertex = v
        else:  # no vertex of degree 0 or 1 is left
            comps = _components(adj, mask)
            if len(comps) > 1:
                result = sum(_scan_alpha(adj, closed, comp, cache) for comp in comps)
            else:
                v = branch_vertex
                taken = 1 + _scan_alpha(adj, closed, mask & ~closed[v], cache)
                skipped = _scan_alpha(adj, closed, mask ^ (1 << v), cache)
                result = max(taken, skipped)
            cache[mask] = result
            break
    for m in reversed(peeled):
        result += 1
        cache[m] = result
    return result


def _global_witness(adj: Sequence[int]) -> tuple[int, list[int]]:
    """Reference for `_indset.branch_search`: the same size and greedy
    witness, but each candidate of degree 2 or more among the candidates is
    checked by a search over all the remaining candidates, not over its own
    component (quadratic on a tree, whose every check re-peels it).
    """
    n = len(adj)
    closed = [a | (1 << v) for v, a in enumerate(adj)]
    cache: dict[int, int] = {}
    total = _max_set(adj, closed, (1 << n) - 1, cache).bit_count()
    witness: list[int] = []
    candidates = (1 << n) - 1
    while candidates:
        v = (candidates & -candidates).bit_length() - 1
        rest = candidates & ~closed[v]
        if (adj[v] & candidates).bit_count() <= 1 or (
            len(witness) + 1 + _max_set(adj, closed, rest, cache).bit_count() == total
        ):
            witness.append(v)
            candidates = rest
        else:
            candidates ^= 1 << v
    return total, witness


def _tree_mis(n: int, edges: Sequence[tuple[int, int]]) -> tuple[int, list[int]]:
    """Reference for the exact MIS of a forest, independent of `_indset`:
    the size and the lexicographically smallest maximum set.

    The size comes from the take/skip DP over the rooted forest. The witness
    is a greedy prefix over DP values: each vertex in turn is forced into the
    set if the DP still reaches the size, and out of it otherwise; a change
    is recomputed along the path to its root only.
    """
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        neighbors[i].append(j)
        neighbors[j].append(i)
    parent = [-1] * n
    children: list[list[int]] = [[] for _ in range(n)]
    order: list[int] = []
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        while stack:
            u = stack.pop()
            order.append(u)
            for w in neighbors[u]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = u
                    children[u].append(w)
                    stack.append(w)
    roots = sum(1 for u in range(n) if parent[u] < 0)
    if len(edges) != n - roots:
        raise ValueError("not a forest")
    infeasible = -(n + 1)  # feasible sizes lie in 0..n, so any sum holding this is negative
    forced: list[bool | None] = [None] * n
    take = [0] * n
    skip = [0] * n

    def recompute(u: int) -> None:
        take[u] = infeasible if forced[u] is False else 1 + sum(skip[c] for c in children[u])
        skip[u] = infeasible if forced[u] is True else sum(max(take[c], skip[c]) for c in children[u])

    def force(v: int, value: bool) -> int:
        """Fix vertex v in or out; return the change of the forest's best size."""
        forced[v] = value
        u = v
        while parent[u] >= 0:
            recompute(u)
            u = parent[u]
        before = max(take[u], skip[u])
        recompute(u)
        return max(take[u], skip[u]) - before

    for u in reversed(order):
        recompute(u)
    size = sum(max(take[u], skip[u]) for u in range(n) if parent[u] < 0)
    best = size
    witness = []
    for v in range(n):
        best += force(v, True)
        if best == size:
            witness.append(v)
        else:
            best += force(v, False)
    return size, witness


def _aux_index_restrict(
    h: HyperGraph,
    g: ExpandedGraph,
    a: Assignment,
    sub_h: HyperGraph,
    sub_g: ExpandedGraph,
    old_of_new: tuple[int, ...],
) -> Assignment:
    """Reference for `bounds._restrict_assignment`: carry an expanded
    assignment over to the expansion of a removal subgraph vertex by vertex,
    finding each auxiliary vertex of the original by its role through
    `aux_index`.
    """
    position = {(e.i, e.j): pos for pos, e in enumerate(h.edges)}
    values = []
    for vert in sub_g.vertices:
        if isinstance(vert, CoreVertex):
            values.append(a.values[old_of_new[vert.index]])
        else:
            sub_edge = sub_h.edges[vert.edge]
            original_edge_id = position[(old_of_new[sub_edge.i], old_of_new[sub_edge.j])]
            values.append(a.values[aux_index(g, original_edge_id, vert.kind, vert.level)])
    return Assignment(tuple(values))


# The ray layer as it was computed before each overlap, projector sum and
# spectrum was computed once: every overlap by `overlap`, every weight by
# `hyper_edge_weight` (cap included), every projector sum by the checked
# `projector_sum` and the spectrum by `eigensystem`. The library must agree
# with these bit for bit, errors and warnings included.


def _parallel_checked(a: Ray, b: Ray, i: int, j: int, where: str = "") -> float:
    o = overlap(a, b)
    if o >= 1.0 - PARALLEL_TOLERANCE:
        raise ValidationError(f"rays p{i + 1} and p{j + 1} are parallel (overlap {o:.12g}){where}")
    return o


def _build_from_rays_reference(rays: Sequence[Ray], cap: int | None = None) -> tuple[tuple[int, int, int], ...]:
    """Reference for `build_from_rays`: its (i, j, weight) edges, by one
    `overlap` and one `hyper_edge_weight` per pair."""
    rays = tuple(rays)
    if len(rays) < 2:
        raise ValidationError(f"need at least 2 rays to build a hyper-graph, got {len(rays)}")
    edges = []
    for i in range(len(rays)):
        for j in range(i + 1, len(rays)):
            weight = hyper_edge_weight(_parallel_checked(rays[i], rays[j], i, j), cap)
            if weight is not None:
                edges.append((i, j, weight))
    return tuple(edges)


def _generate_reference(spec, rays: Sequence[Ray]) -> tuple[tuple[int, int, int], ...]:
    """Reference for `generate(spec, rays)`: the (i, j, weight) edges in
    construction order, each weight by `overlap` and `hyper_edge_weight`."""
    n = family_vertex_count(spec)
    rays = tuple(rays)
    if len(rays) != n:
        raise ValidationError(f"family {spec.family!r} needs {n} rays, got {len(rays)}")
    return tuple((a, b, hyper_edge_weight(_parallel_checked(rays[a], rays[b], a, b)))
                 for a, b in family_edge_pairs(spec))


def _overlaps_reference(h: HyperGraph) -> tuple[float, ...]:
    """Reference for `HyperGraph.overlaps`: `overlap` of each canonical edge's rays."""
    return tuple(overlap(h.rays[e.i], h.rays[e.j]) for e in h.edges)


def _quantum_range_reference(h: HyperGraph, underweight: str = "error") -> QuantumRange:
    """Reference for `quantum_range`: the underweight check by `overlap`, the
    spectrum by `eigensystem(projector_sum(h.rays))`."""
    if underweight not in ("error", "warn"):
        raise ValidationError(f"underweight must be 'error' or 'warn', got {underweight!r}")
    if h.rays is None:
        raise ValidationError("quantum range needs a ray bound to every vertex")
    for e in h.edges:
        required = hyper_edge_weight(overlap(h.rays[e.i], h.rays[e.j]))
        if e.weight < required:
            message = (
                f"edge (p{e.i + 1}, p{e.j + 1}) has weight {e.weight} but its ray overlap "
                f"requires at least {required}; the model is unrealizable"
            )
            if underweight == "error":
                raise ValidationError(message)
            warnings.warn(message, stacklevel=2)
    eig = eigensystem(projector_sum(h.rays))
    lam_min, lam_max = eig.eigenvalues[0], eig.eigenvalues[2]
    weight_term = 2 * h.weight_sum
    return QuantumRange(weight_term + lam_min, weight_term + lam_max, lam_min, lam_max, weight_term)


def _classify_reference(h: HyperGraph, *, underweight: str = "error", max_vertices: int = 64) -> ViolationReport:
    """Reference for `classify`: the same verdict on `_quantum_range_reference`."""
    quantum = _quantum_range_reference(h, underweight=underweight)
    classical = classical_bound(h, max_vertices=max_vertices)
    u = classical.independence_term
    if quantum.lambda_min > u + SPECTRAL_TOLERANCE:
        return ViolationReport(classical, quantum, Classification.STATE_INDEPENDENT, quantum.lambda_min - u)
    verdict = Classification.STATE_DEPENDENT if quantum.lambda_max > u + SPECTRAL_TOLERANCE \
        else Classification.NO_VIOLATION
    return ViolationReport(classical, quantum, verdict, quantum.lambda_max - u)


def _verify_realization_reference(g: ExpandedGraph, coords: Sequence[Ray] | Mapping[int, Ray],
                                  tol: float) -> RealizationReport:
    """Reference for `verify_realization`: every overlap by `overlap`, every
    projector sum by the checked `projector_sum`, and each check's label
    formatted at each new worst deviation."""
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
            raise ValidationError(f"expected {n} coordinate rays, got {len(coords)}")
        rays = list(coords)
    identity = np.eye(3, dtype=np.complex128)
    checks = []

    worst, item = 0.0, "-"
    for i, j in g.sorted_edges:
        d = overlap(rays[i], rays[j])
        if d > worst:
            worst = d
            item = f"edge ({vertex_label(g.vertices[i])}, {vertex_label(g.vertices[j])})"
    checks.append(CheckResult("edge-orthogonality", worst <= tol, worst, item))

    worst, item = 0.0, "-"
    for pos, triple in enumerate(g.bases):
        d = 0.0
        for a in range(3):
            for b in range(a + 1, 3):
                d = max(d, overlap(rays[triple[a]], rays[triple[b]]))
        total = projector_sum(rays[t] for t in triple).matrix
        d = max(d, float(np.max(np.abs(total - identity))))
        if d > worst:
            worst = d
            item = f"basis {pos}"
    checks.append(CheckResult("basis-completeness", worst <= tol, worst, item))

    worst, item = 0.0, "-"
    for frag in g.fragments:
        i, j = frag.endpoints
        limit = frag.weight / (frag.weight + 2)
        excess = max(0.0, overlap(rays[i], rays[j]) - limit)
        if excess > worst:
            worst = excess
            item = f"edge e{frag.edge_id} ({vertex_label(g.vertices[i])}, {vertex_label(g.vertices[j])})"
    checks.append(CheckResult("endpoint-overlap", worst <= tol, worst, item))

    worst, item = 0.0, "-"
    for frag in g.fragments:
        if frag.weight == 0:
            continue
        total = projector_sum(rays[t] for t in frag.aux).matrix
        d = float(np.max(np.abs(total - 2 * frag.weight * identity)))
        if d > worst:
            worst = d
            item = f"edge e{frag.edge_id}"
    checks.append(CheckResult("gadget-projector-sum", worst <= tol, worst, item))

    return RealizationReport(tuple(checks))


# The hyper-graph reader as it was before plain files were read in bulk:
# every text walked line by line. `parse_hypergraph` must give the same graph
# or the same error on every text.


def _parse_hypergraph_reference(text: str) -> HyperGraph:
    """Parse the hyper-graph format: 'vertices <k>' then 'edge <i> <j> <n>' (1-based)."""
    vertex_count: int | None = None
    edges: list[HyperEdge] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        # one check per line: `_int` on each field only where it can refuse
        read = int if line.isascii() and "_" not in line else _int
        if parts[0] == "vertices":
            if vertex_count is not None:
                raise ValidationError(f"line {lineno}: duplicate 'vertices' directive")
            if len(parts) != 2:
                raise ValidationError(f"line {lineno}: expected 'vertices <k>'")
            try:
                vertex_count = read(parts[1])
            except ValueError:
                raise ValidationError(f"line {lineno}: vertex count {parts[1]!r} is not an integer") from None
            if vertex_count < 1:
                raise ValidationError(f"line {lineno}: vertex count must be positive, got {vertex_count}")
        elif parts[0] == "edge":
            if vertex_count is None:
                raise ValidationError(f"line {lineno}: 'edge' before 'vertices'")
            if len(parts) != 4:
                raise ValidationError(f"line {lineno}: expected 'edge <i> <j> <n>'")
            try:
                i, j, weight = read(parts[1]), read(parts[2]), read(parts[3])
            except ValueError:
                raise ValidationError(f"line {lineno}: edge fields must be integers") from None
            for v in (i, j):
                if not 1 <= v <= vertex_count:
                    raise ValidationError(
                        f"line {lineno}: vertex index {v} out of range 1..{vertex_count}"
                    )
            if i == j:
                raise ValidationError(f"line {lineno}: self-loop at vertex {i}")
            if weight < 0:
                raise ValidationError(f"line {lineno}: negative weight {weight}")
            a, b = min(i, j) - 1, max(i, j) - 1
            if (a, b) in seen:
                raise ValidationError(f"line {lineno}: duplicate edge ({min(i, j)}, {max(i, j)})")
            seen.add((a, b))
            edges.append(HyperEdge(a, b, weight))
        else:
            raise ValidationError(f"line {lineno}: unknown directive {parts[0]!r}")
    if vertex_count is None:
        raise ValidationError("missing 'vertices' directive")
    return HyperGraph(vertex_count, tuple(edges))
