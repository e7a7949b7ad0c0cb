"""Tests for multiplicative grids and dilation defects."""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sumfree import (
    FolnerGrid,
    IntSet,
    InvalidParameterError,
    ResourceLimitError,
    defect,
    defect_closed_form,
    first_primes,
    generate,
    set_dilation_defect,
)
from sumfree import folner
from sumfree.folner import DEFAULT_DEFECT_ENUMERATION_CAP, DEFECT_ENUMERATION_BIT_CAP


def brute_defect(grid: FolnerGrid, a: int) -> Fraction:
    """Symmetric-difference defect by literal set arithmetic."""
    f = set(generate(grid).elements)
    dilated = {a * x for x in f}
    return Fraction(len(dilated ^ f), len(f))


def test_first_primes():
    assert first_primes(1) == (2,)
    assert first_primes(5) == (2, 3, 5, 7, 11)
    assert first_primes(0) == ()


def test_first_primes_matches_a_sieve_and_stops_trial_division_at_the_root():
    top = 224_737  # the 20000th prime
    sieve = bytearray([1]) * (top + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(top**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, top + 1, p)))
    started = time.perf_counter()
    primes = first_primes(20_000)
    elapsed = time.perf_counter() - started
    assert primes == tuple(n for n in range(top + 1) if sieve[n])
    assert elapsed < 2.0


def test_grid_construction_and_parse():
    g = FolnerGrid(2, 3)
    assert g.primes == (2, 3)
    assert g.size() == 9
    assert FolnerGrid.diagonal(4) == FolnerGrid(4, 4)
    assert FolnerGrid.parse("3") == FolnerGrid(3, 3)
    assert FolnerGrid.parse("2,5") == FolnerGrid(2, 5)
    with pytest.raises(InvalidParameterError):
        FolnerGrid(0, 2)
    with pytest.raises(InvalidParameterError):
        FolnerGrid.parse("2,0")
    with pytest.raises(InvalidParameterError):
        FolnerGrid.parse("nope")


def test_grid_parse_refuses_three_numbers():
    with pytest.raises(InvalidParameterError, match="bad grid descriptor '1,2,3'"):
        FolnerGrid.parse("1,2,3")


def test_generate_examples():
    assert generate(FolnerGrid(1, 1)).elements == (1,)
    assert generate(FolnerGrid(2, 2)).elements == (1, 2, 3, 6)
    f3 = generate(FolnerGrid(3, 3))
    assert len(f3) == 27
    assert f3.elements[0] == 1
    assert f3.largest() == 900


def test_generate_cardinality_and_sortedness():
    for r, b in [(1, 6), (2, 4), (3, 2), (4, 2)]:
        s = generate(FolnerGrid(r, b))
        assert len(s) == b**r
        assert list(s.elements) == sorted(set(s.elements))


def test_generate_cap():
    with pytest.raises(ResourceLimitError) as err:
        generate(FolnerGrid(9, 9))
    assert err.value.required == 9**9


def test_defect_examples():
    assert defect(FolnerGrid(2, 2), 2) == 1
    assert defect(FolnerGrid(2, 2), 1) == 0
    assert defect(FolnerGrid(3, 3), 2) == Fraction(2, 3)


def test_defect_closed_form_examples():
    assert defect_closed_form(FolnerGrid(2, 2), 5) == 2
    assert defect_closed_form(FolnerGrid(2, 3), 6) == Fraction(10, 9)
    for m in range(1, 6):
        g = FolnerGrid.diagonal(m)
        for p in g.primes:
            assert defect_closed_form(g, p) == Fraction(2, m)


def test_defect_against_brute_sets():
    for r, b in [(1, 4), (2, 2), (2, 3), (3, 2)]:
        grid = FolnerGrid(r, b)
        for a in list(range(1, 25)) + [36, 49]:
            expected = brute_defect(grid, a)
            assert defect(grid, a) == expected
            assert defect_closed_form(grid, a) == expected


def test_defect_routes_agree_past_the_enumeration_cap(monkeypatch):
    # a tiny cap forces the vector-counting route; both must agree
    grid = FolnerGrid(2, 3)
    enumerated = {a: defect(grid, a) for a in (1, 2, 10, 30)}
    monkeypatch.setattr("sumfree.folner.DEFAULT_DEFECT_ENUMERATION_CAP", 1)
    for a, value in enumerated.items():
        assert defect(grid, a) == value


def test_defect_enumerates_a_grid_of_exactly_the_enumeration_cap(monkeypatch):
    grid = FolnerGrid(5, 10)
    assert grid.size() == DEFAULT_DEFECT_ENUMERATION_CAP

    def refuse(grid, a):
        raise AssertionError("a grid at the cap must be enumerated")

    # 13 lies outside the grid and 2^10 past its exponent bound: both give 2
    factors = (1, 2, 2 * 3 * 5 * 7 * 11, 3**9, 13, 2**10)
    expected = {a: defect_closed_form(grid, a) for a in factors}
    monkeypatch.setattr("sumfree.folner.defect_closed_form", refuse)
    assert {a: defect(grid, a) for a in factors} == expected


def test_defect_takes_the_closed_form_just_past_the_enumeration_cap(monkeypatch):
    grid = FolnerGrid(2, 317)
    assert grid.size() == 100_489 > DEFAULT_DEFECT_ENUMERATION_CAP
    f = generate(grid)
    factors = (1, 6, 2**316, 3**317, 5)
    expected = {a: set_dilation_defect(f, a) for a in factors}

    def refuse(*args):
        raise AssertionError("a grid past the cap must take the closed form")

    monkeypatch.setattr("sumfree.folner._injective_defect", refuse)
    assert {a: defect(grid, a) for a in factors} == expected


def test_defect_takes_the_closed_form_just_past_the_bit_cap(monkeypatch):
    # FolnerGrid(1, b) holds 1, 2, ..., 2^(b-1): b elements of at most b bits
    within, past = FolnerGrid(1, 4472), FolnerGrid(1, 4473)
    assert within.size() * 4472 <= DEFECT_ENUMERATION_BIT_CAP < past.size() * 4473
    factors = (1, 2, 6, 2**4471, 2**4472)
    expected = {g: {a: set_dilation_defect(generate(g), a) for a in factors} for g in (within, past)}

    def refuse(*args):
        raise AssertionError("the wrong defect route answered")

    with monkeypatch.context() as patch:
        patch.setattr("sumfree.folner.defect_closed_form", refuse)
        assert {a: defect(within, a) for a in factors} == expected[within]
    monkeypatch.setattr("sumfree.folner._injective_defect", refuse)
    assert {a: defect(past, a) for a in factors} == expected[past]


def test_defect_reuses_the_last_grids_set_and_only_that():
    # equal sizes with different elements, then equal but distinct objects: a set
    # kept under a key coarser than the grid answers for the wrong grid here
    sequence = [(2, 4), (4, 2), (2, 4), (2, 4), (2, 3), (3, 2), (3, 2), (2, 3)]
    last = None
    for r, b in sequence:
        grid = FolnerGrid(r, b)
        kept = folner._enumerated.get(grid)
        for a in (1, 2, 3, 5, 6, 7, 12, 30):
            assert defect(grid, a) == defect_closed_form(grid, a)
        elements, members = folner._enumerated[grid]
        assert list(folner._enumerated) == [grid]
        assert sorted(elements) == list(generate(grid).elements) and members == set(elements)
        if grid == last:
            assert grid is not last and folner._enumerated[grid] is kept
        last = grid


def test_defect_routes_agree_on_every_small_grid_and_on_a_repeat():
    rng = random.Random(1)
    for r in range(1, 4):
        for b in range(1, 7):
            grid = FolnerGrid(r, b)
            f = generate(grid)
            past = f.largest() + rng.randint(1, f.largest())
            for a in [*range(1, 61), past]:
                first = defect(grid, a)  # a repeat reads the kept list and set
                assert defect(grid, a) == first == set_dilation_defect(f, a)
                assert first == defect_closed_form(grid, a)


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=200),
)
def test_defect_bounds(r, b, a):
    grid = FolnerGrid(r, b)
    d = defect_closed_form(grid, a)
    assert 0 <= d <= 2
    assert (d == 0) == (a == 1)


def test_defect_monotone_in_m_for_fixed_a():
    # once the diagonal grid covers a's factorization the defect shrinks
    for a in (2, 6, 12):
        values = [defect_closed_form(FolnerGrid.diagonal(m), a) for m in range(3, 9)]
        assert all(x >= y for x, y in zip(values, values[1:]))


def test_defect_first_prime_rate():
    for m in range(1, 9):
        assert defect_closed_form(FolnerGrid.diagonal(m), 2) == Fraction(2, m)


def test_set_dilation_defect_matches_grid_defect():
    for r, b in [(2, 2), (2, 3), (3, 2)]:
        grid = FolnerGrid(r, b)
        f = generate(grid)
        for a in range(1, 15):
            assert set_dilation_defect(f, a) == defect_closed_form(grid, a)


def test_set_dilation_defect_plain_sets():
    s = IntSet.of([1, 2, 3, 4])
    # 2*s = {2,4,6,8}; symmetric difference {1,3,6,8} has 4 elements
    assert set_dilation_defect(s, 2) == 1
    assert set_dilation_defect(s, 1) == 0
    with pytest.raises(InvalidParameterError):
        set_dilation_defect(IntSet.of([]), 2)


def test_set_dilation_defect_reads_the_quotient_on_sets_not_closed_under_division():
    # 2*F = {2, 6, 8, 12}: of F's multiples of 2, only 6 has its half in F,
    # so the symmetric difference {1, 2, 3, 4, 8, 12} has 6 elements
    assert set_dilation_defect(IntSet.of([1, 3, 4, 6]), 2) == Fraction(3, 2)


def test_set_dilation_defect_matches_literal_set_arithmetic_on_random_sets():
    # every grid is closed under division by its factors; these sets are not
    rng = random.Random("set-dilation-defect")
    for _ in range(200):
        f = set(rng.sample(range(1, rng.choice([30, 200, 2000])), rng.randint(1, 25)))
        s = IntSet.of(f)
        for a in [*range(1, 61), max(f) + rng.randint(1, 50)]:
            assert set_dilation_defect(s, a) == Fraction(len({a * x for x in f} ^ f), len(f))
