"""Hand-checked coordinate fixtures and reference oracles shared across test modules."""

import math
from itertools import product
from typing import Sequence

from kshg import Assignment, CoreVertex, ExpandedGraph, HyperGraph, Ray
from kshg._indset import _alpha, _components

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


def _scan_alpha(adj: Sequence[int], closed: Sequence[int], mask: int, cache: dict[int, int]) -> int:
    """Reference for `_indset._alpha`: the same search, peel order and memo,
    but each peel finds its vertex by a fresh scan from the lowest bit of
    `mask` (quadratic per call on a tree labelled root-first).
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
    total = _alpha(adj, closed, (1 << n) - 1, cache)
    witness: list[int] = []
    candidates = (1 << n) - 1
    while candidates:
        v = (candidates & -candidates).bit_length() - 1
        rest = candidates & ~closed[v]
        if (adj[v] & candidates).bit_count() <= 1 or (
            len(witness) + 1 + _alpha(adj, closed, rest, cache) == total
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
    values = []
    for vert in sub_g.vertices:
        if isinstance(vert, CoreVertex):
            values.append(a.values[old_of_new[vert.index]])
        else:
            sub_edge = sub_h.edges[vert.edge]
            old_pair = (old_of_new[sub_edge.i], old_of_new[sub_edge.j])
            original_edge_id = h.edge_index[old_pair]
            values.append(a.values[g.aux_index(original_edge_id, vert.kind, vert.level)])
    return Assignment(tuple(values))
