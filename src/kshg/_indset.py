"""Exact maximum-independent-set search over bitmask adjacency.

Two engines share this module: a recursive solver with degree reductions,
connected-component splitting and memoization, and a plain include-first
enumeration used as an independent cross-check on small graphs. Vertex sets
are Python ints used as bitmasks.
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


def _peel(adj: Sequence[int], closed: Sequence[int], mask: int, pending: int) -> tuple[int, int, list[int]]:
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
    hit is the lowest peelable vertex. Returns the rest, the peeled
    vertices as a bitmask, and the mask before each peel, in order.
    """
    chosen = 0
    peeled: list[int] = []
    pending &= mask
    while pending:
        bit = pending & -pending
        pending ^= bit
        neighbour = adj[bit.bit_length() - 1] & mask
        degree = neighbour.bit_count()
        # With two neighbours, the higher one's closed neighbourhood
        # holds the lower one exactly when they are adjacent.
        if degree <= 1 or degree == 2 and not neighbour & ~closed[neighbour.bit_length() - 1]:
            peeled.append(mask)
            chosen |= bit
            mask ^= bit | neighbour
            if neighbour:
                pending = (pending | adj[neighbour.bit_length() - 1]
                           | adj[(neighbour & -neighbour).bit_length() - 1]) & mask
    return mask, chosen, peeled


def _alpha(
    adj: Sequence[int],
    closed: Sequence[int],
    mask: int,
    cache: dict[int, int],
    touched: int = -1,
) -> int:
    """Independence number of the subgraph induced by `mask`.

    `_peel` takes the vertices that some optimum holds; the rest is split
    into connected components, or the search branches on a highest-degree
    vertex. The value of every peeled mask and of the rest is cached. The
    memo is read only at the two ends of the peel chain: a mask inside it
    was cached by an earlier chain through it, which took the same peels
    (always the lowest peelable vertex) and so cached the same rest.

    `touched` (all of `mask` by default) is the `pending` set of the peel: a
    caller that knows `mask` had no vertex to peel before it removed some
    vertices passes their neighbours.
    """
    result = cache.get(mask) if mask else 0
    if result is not None:
        return result
    mask, _, peeled = _peel(adj, closed, mask, touched)
    result = cache.get(mask) if mask else 0
    if result is None:
        comps = _components(adj, mask)
        if len(comps) > 1:
            result = sum(_alpha(adj, closed, comp, cache, 0) for comp in comps)
        else:
            v = _branch_vertex(adj, mask)
            taken = mask & ~closed[v]
            near = 0  # the vertices whose degree the taken branch lowers
            nb = adj[v] & mask
            while nb:
                near |= adj[(nb & -nb).bit_length() - 1]
                nb &= nb - 1
            result = max(
                1 + _alpha(adj, closed, taken, cache, near),
                _alpha(adj, closed, mask ^ (1 << v), cache, adj[v]),
            )
        cache[mask] = result
    for m in reversed(peeled):
        result += 1
        cache[m] = result
    return result


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
    return _alpha(adj, closed, (1 << n) - 1, {})


def _max_set(adj: Sequence[int], closed: Sequence[int], mask: int, cache: dict[int, int]) -> int:
    """A maximum independent set of `mask`, as a bitmask, read back from a
    memo in which `_alpha` has solved `mask`.

    The replay makes `_alpha`'s choices in `_alpha`'s order: it peels,
    splits the components, and at each branch vertex follows the side whose
    memoised value gives the maximum. So every branch mask it reaches is one
    that `_alpha` solved, and only one side of each branch is walked. The
    memo is read strictly: a mask that `_alpha` did not solve raises
    KeyError instead of reading as 0.
    """
    chosen = 0
    stack = [(mask, mask)]
    while stack:
        mask, pending = stack.pop()
        while True:
            mask, peeled, _ = _peel(adj, closed, mask, pending)
            chosen |= peeled
            comps = _components(adj, mask)
            if len(comps) != 1:  # none left, or split
                stack += [(comp, 0) for comp in comps]
                break
            v = _branch_vertex(adj, mask)
            taken = mask & ~closed[v]
            if 1 + (cache[taken] if taken else 0) >= cache[mask ^ (1 << v)]:
                chosen |= 1 << v
                mask = taken
            else:
                mask ^= 1 << v
            pending = mask  # one side of each branch is walked, so checking all again is cheap
    return chosen


def _solve(adj: Sequence[int], closed: Sequence[int], mask: int, cache: dict[int, int]) -> int:
    """A maximum independent set of `mask`, as a bitmask: what one `_peel`
    chain takes, plus `_alpha` and `_max_set` on the rest, if it leaves one."""
    rest, chosen, _ = _peel(adj, closed, mask, mask)
    if rest:
        _alpha(adj, closed, rest, cache, 0)
        chosen |= _max_set(adj, closed, rest, cache)
    return chosen


def branch_search(adj: Sequence[int]) -> tuple[int, list[int]]:
    """Exact size plus the lexicographically smallest maximum independent set.

    The witness is rebuilt greedily: the lowest remaining candidate `v`
    joins it exactly when some maximum set of the candidates contains it,
    which yields the smallest witness under sorted-list comparison. One
    maximum set `best` of the candidates, first taken by `_solve` from the
    whole graph, vouches for most of them: when `best` holds `v`, or
    exactly one of `v`'s neighbours, which `v` can replace there, `v` joins
    with no search. So does every vertex that `_peel` could take, as its
    closed neighbourhood is a clique. Only when `best` holds two or more of
    its neighbours is `v` decided by a search, inside its connected
    component `K` among the candidates, which holds `v`'s whole
    neighbourhood: `v` joins exactly when `1 + alpha(K - N[v])` equals the
    size of `best` inside `K`. Every other component keeps its value either
    way, so on a sparse graph each check searches one component, not
    everything that is left. The check's `_solve` of `K - N[v]` replaces
    `best` inside `K` when `v` joins.
    """
    n = len(adj)
    closed = [a | (1 << v) for v, a in enumerate(adj)]
    cache: dict[int, int] = {}
    witness: list[int] = []
    candidates = (1 << n) - 1
    best = _solve(adj, closed, candidates, cache)
    while candidates:
        bit = candidates & -candidates
        v = bit.bit_length() - 1
        near = closed[v] & candidates  # v and its neighbours among the candidates
        rivals = near & best  # v itself, or its neighbours in `best`
        if rivals & (rivals - 1):
            component = _component(adj, candidates, near)
            found = _solve(adj, closed, component & ~near, cache)
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
