"""Integer math helpers for design spaces and tiling.

Hardware design spaces in the paper use buffer sizes drawn from the
two-three-smooth grid ``{2^i * 3^j}`` and mapping spaces tile loop extents by
integer factors.  These helpers centralize that arithmetic.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from typing import List, Sequence, Tuple


def round_up_div(numerator: int, denominator: int) -> int:
    """Ceiling division for non-negative integers."""
    if denominator <= 0:
        raise ValueError(f"denominator must be positive, got {denominator}")
    if numerator < 0:
        raise ValueError(f"numerator must be non-negative, got {numerator}")
    return -(-numerator // denominator)


@lru_cache(maxsize=4096)
def divisors(n: int) -> Tuple[int, ...]:
    """Return the sorted divisors of ``n`` (n >= 1)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    small: List[int] = []
    large: List[int] = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


def nearest_divisor(n: int, target: int) -> int:
    """Return the divisor of ``n`` closest to ``target`` (ties go low).

    Mapping mutations propose approximate tile sizes; snapping to the nearest
    divisor keeps tilings perfect (no remainder handling in the cost model's
    steady-state loop counts, matching MAESTRO-style analysis).  The
    divisors are sorted, so the answer is one of the two around
    ``target``'s insertion point.
    """
    candidates = divisors(n)
    index = bisect_left(candidates, target)
    if index == 0:
        return candidates[0]
    if index == len(candidates):
        return candidates[-1]
    below = candidates[index - 1]
    above = candidates[index]
    return below if target - below <= above - target else above


def power_two_three_grid(max_i: int, max_j: int) -> Tuple[int, ...]:
    """Return sorted unique values ``{2^i * 3^j : 0<=i<=max_i, 0<=j<=max_j}``.

    This is the buffer-size grid used for the open-source spatial accelerator
    (``L1, L2 in {2^i * 3^j}`` for ``i, j in 0..10``).
    """
    if max_i < 0 or max_j < 0:
        raise ValueError("max_i and max_j must be non-negative")
    values = {(2**i) * (3**j) for i in range(max_i + 1) for j in range(max_j + 1)}
    return tuple(sorted(values))


def step_on_grid(grid: Sequence[int], current: int, rng) -> int:
    """The grid value a non-zero offset in ``[-2, 2]`` away from ``current``.

    The one tile step of every mapping space's ``mutate``: ``grid`` is
    sorted (divisors), a ``current`` off the grid steps from index 0, the
    offset is redrawn from ``rng.integers(-2, 3)`` until non-zero, and
    the move clamps at both ends of the grid.
    """
    index = bisect_left(grid, current)
    if index == len(grid) or grid[index] != current:
        index = 0
    offset = 0
    while offset == 0:
        offset = int(rng.integers(-2, 3))
    return grid[max(0, min(len(grid) - 1, index + offset))]
