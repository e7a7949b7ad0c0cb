"""Tests for the random corpus generators used by the larger suites."""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

from sumfree import IntSet, InvalidParameterError, is_k_sum_free, serialize_instance
from sumfree.harness import (
    find_progressions,
    grow_k_sum_free,
    random_drop_instance,
    random_inequality_case,
    random_int_set,
)


def test_greedy_grower_on_initial_segment_yields_odds():
    s = grow_k_sum_free(2, 20)
    assert s.elements == tuple(range(1, 21, 2))


def test_grower_output_is_always_sum_free():
    rng = random.Random(11)
    for _ in range(30):
        k = rng.choice([2, 3, 4])
        s = grow_k_sum_free(k, rng.randrange(20, 120), rng=rng,
                            include_probability=rng.uniform(0.2, 1.0))
        assert is_k_sum_free(s, k)


def test_grower_honors_seed_elements():
    s = grow_k_sum_free(2, 50, seed_elements=(4, 10))
    assert 4 in s and 10 in s
    assert is_k_sum_free(s, 2)
    with pytest.raises(InvalidParameterError):
        grow_k_sum_free(2, 50, seed_elements=(2, 4))


def reference_grow(k, horizon, rng, include_probability, seed_elements):
    """The greedy scan by its definition: one coin per non-seed x, then the enumeration route."""
    chosen = sorted(set(seed_elements))
    for x in range(1, horizon + 1):
        if x in seed_elements:
            continue
        if include_probability < 1.0 and rng.random() > include_probability:
            continue
        if is_k_sum_free(IntSet.of([*chosen, x]), k, bitset_cap=0):
            chosen.append(x)
    return IntSet.of(chosen)


def test_grower_matches_a_reference_greedy_and_draws_the_same_coins():
    meta = random.Random(2718)
    for case in range(180):
        k = 2 + case % 3
        horizon = meta.randrange(1, 201)
        p = (0.0, 0.3, 1.0)[case // 3 % 3]
        # seeds in the upper half are jointly k-sum-free by size, and lie above the scan point
        upper = range(horizon // 2 + 1, horizon + 1)
        seeds = tuple(meta.sample(upper, min(len(upper), meta.randrange(0, 4))))
        got_rng, want_rng = random.Random(case), random.Random(case)
        got = grow_k_sum_free(k, horizon, got_rng, p, seeds)
        assert got == reference_grow(k, horizon, want_rng, p, seeds)
        assert got_rng.random() == want_rng.random()


# sha256 of the generators' outputs, and of the next draw after each call, for seeds 0..19;
# drop instances are hashed as serialize_instance writes them, hex schedule entries included
GENERATOR_DIGESTS = {
    ("drop", 2): "4b08d3c797a62568677819ffae228cfcd179a6b487c0f06c4dfe2a046721d616",
    ("drop", 3): "1a7adae8567939957882a9d3420f81f91dd369403ee19c8e9145bf8430bf877b",
    ("inequality", 2): "0c21264e7048304e51590c96c3784855f213e9f2bf3e3f20cc8acdff4b3bbe71",
    ("inequality", 3): "f9e3fb560b242c34451370f2272a841eccbdf0ef5ab92fc2059aebb58ec3fa4e",
}


@pytest.mark.parametrize("kind, k", sorted(GENERATOR_DIGESTS))
def test_generator_outputs_and_draws_are_pinned(kind, k):
    texts = []
    for seed in range(20):
        rng = random.Random(seed)
        if kind == "drop":
            texts.append(serialize_instance(random_drop_instance(k, rng, mirrored=seed % 2 == 1)))
            texts.append(repr(rng.random()))
        else:
            s, n, x, m, i = random_inequality_case(k, rng)
            texts.append(repr((s.elements, n, x, m, i, rng.random())))
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == GENERATOR_DIGESTS[kind, k]


def test_random_int_set_shape():
    rng = random.Random(5)
    s = random_int_set(rng, 12, 10**4)
    assert len(s) == 12
    assert s.largest() <= 10**4


def test_find_progressions_reports_only_genuine_runs():
    from sumfree import IntSet

    s = IntSet.of([1, 3, 5, 10, 20, 30, 40])
    found = find_progressions(s, 40, 3, 12)
    assert (1, 2) in found
    assert (10, 10) in found
    for x, m in found:
        assert all(x + j * m in s for j in range(3))


def test_random_drop_instance_hypotheses_hold():
    rng = random.Random(77)
    for trial in range(12):
        k = rng.choice([2, 3])
        mirrored = trial % 4 == 0
        inst = random_drop_instance(k, rng, mirrored=mirrored)
        assert is_k_sum_free(inst.elements, k)
        for j in range(inst.ap_length):
            assert inst.ap_start + j * inst.ap_step in inst.elements
        assert inst.difference % inst.ap_step == inst.ap_start % inst.ap_step
        if mirrored:
            assert inst.difference > inst.ap_start
        else:
            assert inst.difference < inst.ap_start
        eps = Fraction(inst.eps)
        prev = inst.n0
        for n in inst.schedule:
            assert n * eps >= 16 * inst.k * prev
            prev = n
        assert len(inst.schedule) >= inst.k * inst.n0


def test_random_inequality_case_preconditions():
    rng = random.Random(123)
    for _ in range(12):
        k = rng.choice([2, 3])
        s, n, x, m, i = random_inequality_case(k, rng)
        assert is_k_sum_free(s, k)
        assert n >= 1 and m >= 1 and i >= 1
        for j in range(i):
            assert x + j * m in s
