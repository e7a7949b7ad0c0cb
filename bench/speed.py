"""A fixed probe that tracks how fast this CPU runs Python right now.

On a shared host the speed at which one thread runs the interpreter changes
in phases from a fraction of a second to several seconds, by up to a factor
of two, as other tenants load the same cores; process CPU time follows wall
time, so the lost time is not stolen time but slower execution.  The runner
times the probe after every item and scales each item's measured time by ``REFERENCE_S`` over
the median of the ``WINDOW`` probes on either side of it.  Times are then
reported in reference seconds: how long the item would take at a moment when
the probe takes ``REFERENCE_S``.  The probe uses only the standard library, so
no change to ``sumfree`` changes its cost.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

REFERENCE_S = 1e-3  # the probe's time that makes one reference second per second
# Probes on each side of an item that set its speed; the speed also varies
# within a second, so the window spans a few items, not seconds.
WINDOW = 3


def probe() -> int:
    """Interpreter work of the program's own kind: int arithmetic, a dict, a
    sort with a key function, and sets of frozensets."""
    t = 0
    for i in range(2500):
        t = (t * 31 + i) % 1000000007
    keys = [i * 2654435761 % 1000003 for i in range(4000)]
    rank = {x: i for i, x in enumerate(keys)}
    order = sorted(rank, key=rank.get)
    sets = set()
    for i in range(200):
        sets.add(frozenset((i % 17, i % 23, i % 29)))
    return t + sum(order[::7]) + len(sorted(sets, key=len))


def sample() -> float:
    """Seconds one probe call takes now."""
    t0 = perf_counter()
    probe()
    return perf_counter() - t0


def scale(samples: list[float]) -> float:
    """Factor from measured to reference seconds for work among these samples.

    The median keeps a probe that an interrupt or a collection slowed from
    setting the speed on its own.
    """
    return REFERENCE_S / median(samples)


def scales(samples: list[float], after: list[int]) -> list[float]:
    """Per item, the factor set by the ``WINDOW`` samples on each side of it.

    ``after[i]`` is the index of the first sample taken after item ``i``.
    """
    return [scale(samples[max(0, b - WINDOW):b + WINDOW]) for b in after]
