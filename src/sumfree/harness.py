"""Seeded generators for the randomized corpora used by tests and experiments.

Everything here is deterministic given the supplied random.Random, so a
corpus is identified by its seed.  The grower keeps bitsets of iterated
sums and scans candidates upward, so a candidate above every member
clashes only by being a k-fold sum: one bit test of sums[k].  Thinning
draws one coin per non-seed candidate, in ascending order.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .core import IntSet, _bits, _require_arity, _require_int, k_difference_set
from .errors import InvalidParameterError
from .periodic import DensityDropInstance, _progressions, geometric_schedule

DROP_ATTEMPTS = 400
INEQUALITY_ATTEMPTS = 200


def random_int_set(rng: random.Random, size: int, magnitude: int) -> IntSet:
    """size distinct integers drawn uniformly from [1, magnitude]."""
    _require_int(size, "size")
    _require_int(magnitude, f"magnitude for {size} distinct elements", size)
    return IntSet.of(rng.sample(range(1, magnitude + 1), size))


def _clashes(sums: list, members: int, x: int, k: int) -> bool:
    """Whether x is a sum of k members, or c*x plus k-c members is a member."""
    return bool(sums[k] >> x & 1) or any(
        sums[k - c] << (c * x) & members for c in range(1, k + 1)
    )


def grow_k_sum_free(
    k: int,
    horizon: int,
    rng: random.Random = None,
    include_probability: float = 1.0,
    seed_elements: Sequence[int] = (),
) -> IntSet:
    """Greedy k-sum-free set on [1, horizon], optionally thinned at random.

    Seed elements are committed first and must be jointly k-sum-free.
    Then candidates 1..horizon are taken in order, each kept with the
    given probability when doing so preserves k-sum-freeness.  With
    probability 1 and no seeds this is the deterministic greedy set.
    Thinning draws one rng.random() per non-seed candidate, ascending, kept
    or not.  Above the largest seed, x is tested against sums[k] alone.
    """
    _require_arity(k)
    _require_int(horizon, "horizon")
    if not 0.0 <= include_probability <= 1.0:
        raise InvalidParameterError(
            f"include probability must lie in [0, 1], got {include_probability}"
        )
    thin = include_probability < 1.0
    if thin and rng is None:
        raise InvalidParameterError("thinning requires a random generator")
    window = (1 << (horizon + 1)) - 1
    members = 0
    sums = [1] + [0] * k  # sums[j]: bitset of the sums of j members, within the window
    for x in seed_elements:
        _require_int(x, "seed element")
        if x > horizon:
            raise InvalidParameterError(f"seed element {x} is outside [1, {horizon}]")
        if members >> x & 1:
            continue
        if _clashes(sums, members, x, k):
            raise InvalidParameterError("seed elements are not jointly k-sum-free")
        members |= 1 << x
        for j in range(1, k + 1):
            sums[j] = (sums[j] | sums[j - 1] << x) & window
    top = members.bit_length() - 1
    candidates = [
        x for x in range(1, horizon + 1)
        if not members >> x & 1 and (not thin or rng.random() <= include_probability)
    ]
    for x in candidates:
        # With no member above x, c*x plus k-c members exceeds every member, and
        # every sum that committing x adds exceeds x, so sums[k] at x is final.
        if sums[k] >> x & 1 or x < top and _clashes(sums, members, x, k):
            continue
        members |= 1 << x
        for j in range(1, k + 1):
            sums[j] = (sums[j] | sums[j - 1] << x) & window
    return IntSet(tuple(_bits(members)))


def find_progressions(
    s: IntSet, n0: int, ap_length: int, max_step: int
) -> list[tuple[int, int]]:
    """All (start, step) of length-ap_length progressions in s ∩ [1, n0]."""
    _require_int(ap_length, "progression search length", 2)
    _require_int(max_step, "largest progression step")
    return list(_progressions(s, n0, ap_length, range(1, max_step + 1)))


def random_drop_instance(k: int, rng: random.Random, mirrored: bool = False) -> DensityDropInstance:
    """A hypothesis-satisfying density-drop instance with the requested orientation.

    Grows a thinned k-sum-free set, locates a progression inside the
    horizon, then picks a compatible signed difference on the requested
    side of the progression start.  The schedule uses the stronger
    16k/eps growth ratio so every ratio hypothesis is met with room.
    """
    for _ in range(DROP_ATTEMPTS):
        horizon = rng.randrange(300, 700)
        prob = rng.uniform(0.25, 0.7)
        s = grow_k_sum_free(k, horizon, rng, prob)
        if len(s) < 10:
            continue
        n0 = rng.randrange(30, 90)
        ap_length = rng.randrange(1, 5)
        if ap_length == 1:
            step = rng.randrange(1, 7)
            choices = [(a, step) for a in s.upto(n0)]
        else:
            choices = find_progressions(s, n0, ap_length, max_step=8)
        if not choices:
            continue
        x, m = choices[rng.randrange(len(choices))]
        diffs = k_difference_set(s, k, n0)
        if mirrored:
            compatible = sorted(d for d in diffs if d > x and (d - x) % m == 0)
        else:
            compatible = sorted(d for d in diffs if d < x and (d - x) % m == 0)
        if not compatible:
            continue
        d = compatible[rng.randrange(len(compatible))]
        eps = Fraction(1, rng.randrange(8, 40))
        schedule = geometric_schedule(n0, Fraction(16 * k) / eps, k * n0)
        return DensityDropInstance(
            elements=s,
            n0=n0,
            ap_start=x,
            ap_step=m,
            ap_length=ap_length,
            difference=d,
            eps=eps,
            schedule=schedule,
            k=k,
        )
    raise InvalidParameterError(f"no drop instance found in {DROP_ATTEMPTS} attempts")


def random_inequality_case(k: int, rng: random.Random) -> tuple[IntSet, int, int, int, int]:
    """A k-sum-free set with a progression, for the translate counting bound.

    Returns (set, count horizon n, start x, step m, length i).  When the
    thinned grower yields no natural progression, one is planted high
    enough that its terms are jointly k-sum-free by size alone.
    """
    for _ in range(INEQUALITY_ATTEMPTS):
        horizon = rng.randrange(200, 600)
        prob = rng.uniform(0.3, 0.8)
        i = rng.randrange(1, 6)
        s = grow_k_sum_free(k, horizon, rng, prob)
        if i == 1:
            if not s:
                continue
            x = s.elements[rng.randrange(len(s))]
            m = rng.randrange(1, 9)
        else:
            choices = find_progressions(s, horizon, i, max_step=8)
            if choices:
                x, m = choices[rng.randrange(len(choices))]
            else:
                m = rng.randrange(1, 9)
                lo = max(horizon // 2, (i - 1) * m + 1)
                hi = horizon - (i - 1) * m
                if lo >= hi:
                    continue
                x = rng.randrange(lo, hi)
                terms = [x + j * m for j in range(i)]
                s = grow_k_sum_free(k, horizon, rng, prob, seed_elements=terms)
        n = rng.randrange(horizon // 2, horizon + 50)
        return (s, n, x, m, i)
    raise InvalidParameterError(f"no inequality case found in {INEQUALITY_ATTEMPTS} attempts")
