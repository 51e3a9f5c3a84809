"""The benchmark's own arithmetic: percentiles, interval unions, self time.

Pure functions with no I/O, so ``test_perfbench_selftest.py`` can pin
every edge case the measurements depend on.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

#: A tail percentile is reported only when at least this many samples lie
#: beyond it.
MIN_BEYOND = 10


def nearest_rank(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the sorted value at index ``ceil(f*n) - 1``.

    ``fraction`` is in ``(0, 1]``; the p50 of ``[1, 2]`` is ``1`` and the
    p50 of ``[1, 2, 3]`` is ``2`` (no interpolation, no bias upward).
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction {fraction} outside (0, 1]")
    ordered = sorted(values)
    return ordered[max(math.ceil(fraction * len(ordered)) - 1, 0)]


def samples_beyond(count: int, fraction: float) -> int:
    """How many of ``count`` samples lie strictly beyond the nearest rank."""
    return count - math.ceil(fraction * count)


def tail_supported(count: int, fraction: float, beyond: int = MIN_BEYOND) -> bool:
    return samples_beyond(count, fraction) >= beyond


def min_samples_for(fraction: float, beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count whose ``fraction`` percentile has ``beyond`` after it."""
    count = beyond
    while not tail_supported(count, fraction, beyond):
        count += 1
    return count


def median(values: Sequence[float]) -> float:
    return nearest_rank(values, 0.5)


def union_length(
    intervals: Iterable[tuple[float, float]],
    lo: float = -math.inf,
    hi: float = math.inf,
) -> float:
    """Total length covered by ``intervals`` after clipping to ``[lo, hi]``.

    Overlapping intervals (children running on two pool workers at once)
    count once.
    """
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if min(end, hi) > max(start, lo)
    )
    total = 0.0
    cur_start = cur_end = None
    for start, end in clipped:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(
    start: float, end: float, children: Iterable[tuple[float, float]]
) -> float:
    """A span's duration minus the part of it its children cover."""
    return (end - start) - union_length(children, start, end)


def open_loop_delays(
    due: float, sent: float, done: float
) -> tuple[float, float]:
    """``(latency, lateness)`` of one open-loop request.

    Latency runs from when the request was *due*, so a stall that delays
    later sends is charged to every request it delayed; lateness is how
    long after its due time the generator actually sent it.
    """
    return done - due, max(sent - due, 0.0)
