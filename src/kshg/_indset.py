"""Exact maximum-independent-set search over bitmask adjacency.

Two engines share this module: a recursive search that returns a maximum
set, with peel reductions, connected-component splitting and a memo of the
sets it has solved, and a plain include-first enumeration used as an
independent cross-check on small graphs. Vertex sets are Python ints used
as bitmasks.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import CapacityError

BRUTE_FORCE_LIMIT = 25


def adjacency_masks(n: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    """Neighbor bitmask per vertex from an iterable of index pairs."""
    adj = [0] * n
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


def _component(adj: Sequence[int], mask: int, seed: int) -> int:
    """The vertices of `mask` connected within `mask` to the vertices of `seed`."""
    comp = frontier = seed
    while frontier and comp != mask:
        grown = 0
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            grown |= adj[bit.bit_length() - 1]
        frontier = grown & mask & ~comp
        comp |= frontier
    return comp


def _components(adj: Sequence[int], mask: int) -> list[int]:
    comps = []
    while mask:
        comp = _component(adj, mask, mask & -mask)
        comps.append(comp)
        mask &= ~comp
    return comps


def _peel(adj: Sequence[int], closed: Sequence[int], mask: int, pending: int) -> tuple[int, int]:
    """Peel `mask` until none of its vertices can be peeled.

    A vertex of degree at most 2 whose neighbours are adjacent (degree 0, a
    leaf, or a corner of a triangle) belongs to some maximum set: its
    neighbourhood is a clique, so a maximum set holds at most one of its
    neighbours and can swap it for the vertex. Each peel removes the lowest
    such vertex with its neighbourhood. Higher-degree clique neighbourhoods
    are not checked: on sparse graphs they are rare and the check would
    cost every degree-3 vertex.

    A vertex needs a new check only when a neighbour is removed, so
    `pending` must hold every peelable vertex of `mask`, and each peel adds
    the neighbours of what it removes. It is checked lowest first, so each
    hit is the lowest peelable vertex. Returns the rest and the peeled
    vertices as a bitmask.
    """
    chosen = 0
    pending &= mask
    while pending:
        bit = pending & -pending
        pending ^= bit
        neighbour = adj[bit.bit_length() - 1] & mask
        degree = neighbour.bit_count()
        # With two neighbours, the higher one's closed neighbourhood
        # holds the lower one exactly when they are adjacent.
        if degree <= 1 or degree == 2 and not neighbour & ~closed[neighbour.bit_length() - 1]:
            chosen |= bit
            mask ^= bit | neighbour
            if neighbour:
                pending = (pending | adj[neighbour.bit_length() - 1]
                           | adj[(neighbour & -neighbour).bit_length() - 1]) & mask
    return mask, chosen


def _max_set(adj: Sequence[int], closed: Sequence[int], mask: int, cache: dict[int, int], touched: int = -1) -> int:
    """A maximum independent set of the subgraph induced by `mask`, as a
    bitmask.

    `_peel` takes vertices that some maximum set holds; the rest is split
    into connected components, whose sets are joined, or the search
    branches on a highest-degree vertex `v` and keeps the larger of the
    sets with and without it (with it on a tie). `cache` maps each rest
    solved so far, a mask with nothing left to peel, to its set; the masks
    inside a peel chain are not cached.

    `touched` (all of `mask` by default) is the `pending` set of the peel: a
    caller that knows `mask` had no vertex to peel before it removed some
    vertices passes their neighbours.
    """
    mask, chosen = _peel(adj, closed, mask, touched)
    if not mask:
        return chosen
    found = cache.get(mask)
    if found is None:
        comps = _components(adj, mask)
        if len(comps) > 1:
            found = 0
            for comp in comps:
                found |= _max_set(adj, closed, comp, cache, 0)
        else:
            v = _branch_vertex(adj, mask)
            near = 0  # the vertices whose degree taking `v` lowers
            nb = adj[v] & mask
            while nb:
                near |= adj[(nb & -nb).bit_length() - 1]
                nb &= nb - 1
            found = _max_set(adj, closed, mask & ~closed[v], cache, near) | 1 << v
            without = _max_set(adj, closed, mask ^ 1 << v, cache, adj[v])
            if without.bit_count() > found.bit_count():
                found = without
        cache[mask] = found
    return chosen | found


def _branch_vertex(adj: Sequence[int], mask: int) -> int:
    """A highest-degree vertex of `mask`, the lowest-index one on ties."""
    best = -1
    best_degree = -1
    m = mask
    while m:
        v = (m & -m).bit_length() - 1
        m &= m - 1
        degree = (adj[v] & mask).bit_count()
        if degree > best_degree:
            best_degree = degree
            best = v
    return best


def independence_number(adj: Sequence[int]) -> int:
    n = len(adj)
    closed = [a | (1 << v) for v, a in enumerate(adj)]
    return _max_set(adj, closed, (1 << n) - 1, {}).bit_count()


def branch_search(adj: Sequence[int]) -> tuple[int, list[int]]:
    """Exact size plus the lexicographically smallest maximum independent set.

    The witness is rebuilt greedily: the lowest remaining candidate `v`
    joins it exactly when some maximum set of the candidates contains it,
    which yields the smallest witness under sorted-list comparison. One
    maximum set `best` of the candidates, first taken by `_max_set` from
    the whole graph, vouches for most of them: when `best` holds `v`, or
    exactly one of `v`'s neighbours, which `v` can replace there, `v` joins
    with no search. So does every vertex that `_peel` could take, as its
    closed neighbourhood is a clique. Only when `best` holds two or more of
    its neighbours is `v` decided by a search, inside its connected
    component `K` among the candidates, which holds `v`'s whole
    neighbourhood: `v` joins exactly when `1 + alpha(K - N[v])` equals the
    size of `best` inside `K`. Every other component keeps its value either
    way, so on a sparse graph each check searches one component, not
    everything that is left. The check's maximum set of `K - N[v]`
    replaces `best` inside `K` when `v` joins. The decisions depend only on
    sizes, so any maximum set can serve as `best`.
    """
    n = len(adj)
    closed = [a | (1 << v) for v, a in enumerate(adj)]
    cache: dict[int, int] = {}
    witness: list[int] = []
    candidates = (1 << n) - 1
    best = _max_set(adj, closed, candidates, cache)
    while candidates:
        bit = candidates & -candidates
        v = bit.bit_length() - 1
        near = closed[v] & candidates  # v and its neighbours among the candidates
        rivals = near & best  # v itself, or its neighbours in `best`
        if rivals & (rivals - 1):
            component = _component(adj, candidates, near)
            found = _max_set(adj, closed, component & ~near, cache)
            if 1 + found.bit_count() != (best & component).bit_count():
                candidates ^= bit
                continue
            best = best & ~component | found
        else:
            best ^= rivals
        witness.append(v)
        candidates &= ~near
    return len(witness), witness


def brute_force_search(adj: Sequence[int]) -> tuple[int, list[int]]:
    """Include-first enumeration of independent sets, no reductions.

    The first maximum found in include-first order is the lexicographically
    smallest, which makes this a full oracle for `branch_search` on graphs
    of at most BRUTE_FORCE_LIMIT vertices.
    """
    n = len(adj)
    if n > BRUTE_FORCE_LIMIT:
        raise CapacityError(
            f"brute-force independent-set search is limited to {BRUTE_FORCE_LIMIT} vertices, got {n}"
        )
    best_size = -1
    best_mask = 0

    def recurse(v: int, chosen: int, size: int, blocked: int) -> None:
        nonlocal best_size, best_mask
        if size + (n - v) <= best_size:
            return
        if v == n:
            if size > best_size:
                best_size = size
                best_mask = chosen
            return
        if not (blocked >> v) & 1:
            recurse(v + 1, chosen | (1 << v), size + 1, blocked | adj[v])
        recurse(v + 1, chosen, size, blocked)

    recurse(0, 0, 0, 0)
    witness = [v for v in range(n) if (best_mask >> v) & 1]
    return best_size, witness
