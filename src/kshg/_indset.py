"""Exact maximum-independent-set search over bitmask adjacency.

Two engines share this module: a recursive solver with degree reductions,
connected-component splitting and memoization, and a plain include-first
enumeration used as an independent cross-check on small graphs. Vertex sets
are Python ints used as bitmasks, so graphs of a few hundred vertices are
fine.
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


def _components(adj: Sequence[int], mask: int) -> list[int]:
    comps = []
    remaining = mask
    while remaining:
        comp = remaining & -remaining
        frontier = comp
        while frontier:
            grown = 0
            f = frontier
            while f:
                v = (f & -f).bit_length() - 1
                f &= f - 1
                grown |= adj[v] & remaining
            frontier = grown & ~comp
            comp |= frontier
        comps.append(comp)
        remaining &= ~comp
    return comps


def _alpha(adj: Sequence[int], closed: Sequence[int], mask: int, cache: dict[int, int]) -> int:
    """Independence number of the subgraph induced by `mask`.

    Vertices of degree 0 or 1 always belong to some optimum, so they are
    peeled greedily in a loop, caching the value of every peeled mask;
    otherwise the graph is split into connected components and the search
    branches on a highest-degree vertex.
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
                result = sum(_alpha(adj, closed, comp, cache) for comp in comps)
            else:
                v = branch_vertex
                taken = 1 + _alpha(adj, closed, mask & ~closed[v], cache)
                skipped = _alpha(adj, closed, mask ^ (1 << v), cache)
                result = max(taken, skipped)
            cache[mask] = result
            break
    for m in reversed(peeled):
        result += 1
        cache[m] = result
    return result


def independence_number(adj: Sequence[int]) -> int:
    n = len(adj)
    closed = [a | (1 << v) for v, a in enumerate(adj)]
    return _alpha(adj, closed, (1 << n) - 1, {})


def branch_search(adj: Sequence[int]) -> tuple[int, list[int]]:
    """Exact size plus the lexicographically smallest maximum independent set.

    The witness is rebuilt greedily: a vertex joins it exactly when some
    maximum set extends the prefix through that vertex, which yields the
    smallest witness under sorted-list comparison.
    """
    n = len(adj)
    closed = [a | (1 << v) for v, a in enumerate(adj)]
    cache: dict[int, int] = {}
    total = _alpha(adj, closed, (1 << n) - 1, cache)
    witness: list[int] = []
    candidates = (1 << n) - 1
    for v in range(n):
        bit = 1 << v
        if not candidates & bit:
            continue
        rest = candidates & ~closed[v] & ~((bit << 1) - 1)
        if len(witness) + 1 + _alpha(adj, closed, rest, cache) == total:
            witness.append(v)
            candidates = rest
        else:
            candidates ^= bit
    return total, witness


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
