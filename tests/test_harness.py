"""Tests for the random corpus generators used by the larger suites."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from sumfree import InvalidParameterError, is_k_sum_free
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
