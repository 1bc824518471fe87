"""Hand-checked coordinate fixtures and reference oracles shared across test modules."""

import math
from typing import Sequence

from kshg import Ray

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
