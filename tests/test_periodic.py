"""Tests for periodic hulls, kernels, AP search, and the density-drop step.

The heavier seeded corpora live in the acceptance module; here each piece
is exercised against small frozen instances and direct set-arithmetic
oracles for the two counting arguments (the kernel translate bound and
the translate inequality).
"""

from __future__ import annotations

import json
import math
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sumfree import (
    ApNotFound,
    DensityDrop,
    DensityDropInstance,
    Falsified,
    FalsificationError,
    IntSet,
    InvalidParameterError,
    PeriodicContainment,
    ResidueSet,
    ResourceLimitError,
    check_translate_inequality,
    density,
    difference_kernel,
    find_ap,
    fls_step,
    geometric_schedule,
    is_k_sum_free,
    k_difference_set,
    min_ap_length,
    parse_instance,
    periodic_hull,
    serialize_instance,
    verify_density_drop,
)
from sumfree.core import rational_string
from sumfree.harness import find_progressions, grow_k_sum_free, random_drop_instance
from sumfree import core, periodic
from sumfree.periodic import SCHEDULE_BIT_CAP


def drop_expression(i: int, k: int) -> Fraction:
    return Fraction(i + k - 2, i * (k + 1) + k - 3)


def test_density_examples():
    odds = IntSet.of(range(1, 101, 2))
    assert density(odds, 100) == Fraction(1, 2)
    assert density(IntSet.of([]), 7) == 0
    assert density(IntSet.of([1, 2, 3, 6]), 6) == Fraction(2, 3)


def test_periodic_hull_examples():
    odds = IntSet.of(range(1, 11, 2))
    assert periodic_hull(odds, 10, 2) == ResidueSet.of(2, [1])
    assert periodic_hull(IntSet.of([1, 4]), 10, 3) == ResidueSet.of(3, [1])
    assert periodic_hull(IntSet.of([1, 2]), 2, 5) == ResidueSet.of(5, [1, 2])


def test_residue_set_refuses_a_residue_equal_to_its_modulus():
    with pytest.raises(InvalidParameterError, match="residue 5 out of range for modulus 5"):
        ResidueSet(5, frozenset({1, 5}))


@given(
    st.sets(st.integers(min_value=1, max_value=80), max_size=15),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=80),
)
def test_hull_contains_restriction(values, q, n0):
    s = IntSet.of(values)
    hull = periodic_hull(s, n0, q)
    for a in s.upto(n0):
        assert a % q in hull.residues
    assert hull.residues == {a % q for a in s.upto(n0)}


def test_residue_sum_free_examples():
    # r is k-sum-free at residue level exactly when its kernel is all of r
    for q, residues, expected in [(2, [1], True), (6, [0], False), (5, [1, 2], False)]:
        r = ResidueSet.of(q, residues)
        assert (difference_kernel(r, 2) == r) is expected


def test_residue_sum_free_matches_integer_realization():
    # periodic set k-sum-free in N iff residue level clean: realize with
    # small representatives and check the first few hundred integers
    rng = random.Random(7)
    for _ in range(40):
        q = rng.randrange(2, 10)
        residues = {r for r in range(q) if rng.random() < 0.4}
        r = ResidueSet.of(q, residues)
        k = rng.choice([2, 3])
        realized = IntSet.of(n for n in range(1, 6 * q * k + 1) if n % q in residues)
        assert (difference_kernel(r, k) == r) == is_k_sum_free(realized, k)


def test_difference_kernel_examples():
    assert difference_kernel(ResidueSet.of(5, [1, 2]), 2) == ResidueSet.of(5, [2])
    assert difference_kernel(ResidueSet.of(3, [0]), 2) == ResidueSet.of(3, [])
    clean = ResidueSet.of(2, [1])
    assert difference_kernel(clean, 2) == clean


def test_difference_kernel_is_refused_past_the_difference_cap_before_any_mask(monkeypatch):
    # {1, 2} mod 7 lifts to {1, 2}: 2·(2 + 1) = 6 differences at k = 2
    monkeypatch.setattr(core, "DIFFERENCE_WORK_CAP", 6)
    assert difference_kernel(ResidueSet.of(7, [1, 2]), 2) == ResidueSet.of(7, [2])
    monkeypatch.setattr(core, "DIFFERENCE_WORK_CAP", 5)
    with pytest.raises(ResourceLimitError) as err:
        difference_kernel(ResidueSet.of(7, [1, 2]), 2)
    assert err.value.required == 6

    def refuse(*args):
        raise AssertionError("a mask was built past the cap")

    # the odd half of Z/(2·10^5) at k = 2 forms up to 10^5·(199999 + 1) differences
    monkeypatch.undo()
    monkeypatch.setattr(core, "_mask", refuse)
    monkeypatch.setattr(core, "_shift_or", refuse)
    with pytest.raises(ResourceLimitError) as err:
        difference_kernel(ResidueSet.of(2 * 10**5, range(1, 2 * 10**5, 2)), 2)
    assert err.value.required == 2 * 10**10 > core.DIFFERENCE_WORK_CAP


def test_fls_step_at_the_largest_scheduled_horizon_stays_under_the_difference_cap():
    # n0 = 2499 is the largest horizon SCHEDULE_BIT_CAP admits at k = 2, eps = 1/6; the
    # kernel's differences there, at most 1250·(2499 + 1), are under DIFFERENCE_WORK_CAP
    odds, eps = IntSet.of(range(1, 5000, 2)), Fraction(1, 6)
    i = min_ap_length(2, eps)
    with pytest.raises(ResourceLimitError, match="schedule"):
        fls_step(odds, 2, 2500, 2500, i, eps)
    hull = periodic_hull(odds, 2499, 2500)
    assert fls_step(odds, 2, 2499, 2500, i, eps) == PeriodicContainment(hull)
    assert fls_step(odds, 2, 2499, 2499, i, eps) == ApNotFound()


def test_residue_predicate_and_kernel_match_their_definitions():
    # the oracle enumerates the multisets of residues and reduces each sum mod q
    rng = random.Random(12)
    cases = [(q, set(), k) for q in (1, 7, 40) for k in (2, 3, 4)]
    cases += [(q, set(range(q)), k) for q in (1, 7, 40) for k in (2, 3, 4)]
    for _ in range(150):
        q = rng.randrange(1, 41)
        share = rng.random()
        cases.append((q, {x for x in range(q) if rng.random() < share}, rng.choice([2, 3, 4])))
    for q, residues, k in cases:
        r = ResidueSet.of(q, residues)

        def hits(x, count):
            return any(
                (x + sum(c)) % q in residues
                for c in combinations_with_replacement(sorted(residues), count)
            )

        assert (difference_kernel(r, k) == r) is not hits(0, k)
        kernel = [x for x in residues if not hits(x, k - 1)]
        assert difference_kernel(r, k) == ResidueSet.of(q, kernel)


def k_fold_residue_sums_miss(residues: set, q: int, k: int) -> bool:
    """The k-fold residue-sum check: no sum of k residues lands, mod q, back in the set."""
    sums = {0}
    for _ in range(k):
        sums = {(t + x) % q for t in sums for x in residues}
    return sums.isdisjoint(residues)


def test_kernel_decides_residue_sum_freeness_like_the_k_fold_sums():
    # moduli up to 500, where enumerating multisets is out of reach: thinned
    # one-mod-k classes of a multiple of k (k-sum-free), the same with a
    # stray residue, random sets of any share and a few random residues
    rng = random.Random(14)
    verdicts = []
    for case in range(80):
        k = rng.choice([2, 3, 4])
        q = rng.randrange(2, 501)
        if case % 4 < 2:
            q = k * (q // k or 1)
            residues = {x for x in range(q) if x % k == 1 and rng.random() < 0.8}
            if case % 4 == 1:
                residues.add(rng.randrange(q))
        elif case % 4 == 2:
            share = rng.random()
            residues = {x for x in range(q) if rng.random() < share}
        else:
            residues = set(rng.sample(range(q), min(q, rng.randrange(1, 7))))
        expected = k_fold_residue_sums_miss(residues, q, k)
        r = ResidueSet.of(q, residues)
        assert (difference_kernel(r, k) == r) is expected
        verdicts.append(expected)
    assert min(verdicts.count(True), verdicts.count(False)) >= 20


def test_fls_step_contains_exactly_when_the_k_fold_sums_miss_the_hull():
    # one-mod-k sets (some thinned) and upper intervals, k-sum-free and dense
    # enough for the step; large moduli leave a partial hull
    rng = random.Random(15)
    eps = Fraction(1, 60)
    verdicts = []
    for _ in range(40):
        k = rng.choice([2, 3, 4])
        n0 = rng.randrange(60, 301)
        q = rng.choice([k * rng.randrange(1, 501 // k), rng.randrange(2, 501)])
        if rng.random() < 0.5:
            s = IntSet.of(x for x in range(1, n0 + 1) if x % k == 1 and rng.random() < 0.95)
        else:
            s = IntSet.of(range(n0 // k + 1, n0 + 1))
        hull = {a % q for a in s.upto(n0)}
        out = fls_step(s, k, n0, q, min_ap_length(k, eps), eps)
        assert isinstance(out, PeriodicContainment) is k_fold_residue_sums_miss(hull, q, k)
        verdicts.append(isinstance(out, PeriodicContainment))
    assert min(verdicts.count(True), verdicts.count(False)) >= 8


@given(
    st.integers(min_value=1, max_value=12),
    st.sets(st.integers(min_value=0, max_value=11)),
    st.integers(min_value=2, max_value=4),
)
def test_kernel_is_always_residue_sum_free(q, raw, k):
    residues = {r for r in raw if r < q}
    r = ResidueSet.of(q, residues)
    d = difference_kernel(r, k)
    assert d.residues <= r.residues
    assert difference_kernel(d, k) == d
    assert (d == r) is k_fold_residue_sums_miss(residues, q, k)


def bajnok_width(d: int, k: int) -> int:
    """The longest k-sum-free arc of Z/d: floor((d - 1 - gcd(d, k - 1)) / (k + 1)) + 1."""
    return (d - 1 - math.gcd(d, k - 1)) // (k + 1) + 1


def bajnok_divisor(q: int, k: int) -> int:
    """A divisor d of q at which Bajnok's v(q), the maximum over d | q of
    width(d) * q / d, is reached."""
    divisors = [d for d in range(1, q + 1) if q % d == 0]
    return max(divisors, key=lambda d: bajnok_width(d, k) * q // d)


def bajnok_maximum(q: int, k: int) -> int:
    """Bajnok's v(q): the largest size of a k-sum-free subset of Z/q."""
    d = bajnok_divisor(q, k)
    return bajnok_width(d, k) * q // d


@pytest.mark.parametrize("k", [2, 3, 4])
def test_largest_residue_set_the_kernel_accepts_has_bajnoks_size(k):
    # every subset of Z/q, skipping those no larger than the largest accepted so far
    for q in range(1, 13):
        best = 0
        for mask in range(1, 1 << q):
            if mask.bit_count() > best:
                r = ResidueSet(q, frozenset(x for x in range(q) if mask >> x & 1))
                if difference_kernel(r, k) == r:
                    best = mask.bit_count()
        assert best == bajnok_maximum(q, k), (q, k)


def test_residue_sets_the_kernel_accepts_stay_within_bajnoks_size():
    # a kernel is always accepted by the kernel, so it is k-sum-free in Z/q and
    # holds at most v(q) residues. Half the sets are random; half lift an arc of
    # Z/d, d the divisor where v(q) peaks, as wide as Bajnok's or one wider, from
    # the start with the largest kernel, and add up to two stray residues
    rng = random.Random("bajnok")
    at_maximum = 0
    for case in range(300):
        q, k = rng.randrange(1, 61), rng.choice([2, 3, 4])
        if case % 2:
            share = rng.random()
            residues = {x for x in range(q) if rng.random() < share}
        else:
            d = bajnok_divisor(q, k)
            width = bajnok_width(d, k) + rng.randrange(2)
            arcs = [{x for x in range(q) if (x - a) % d < width} for a in range(d)]
            residues = max(
                arcs, key=lambda arc: len(difference_kernel(ResidueSet.of(q, arc), k).residues)
            )
            residues |= set(rng.sample(range(q), min(q, rng.randrange(3))))
        kernel = difference_kernel(ResidueSet.of(q, residues), k)
        assert difference_kernel(kernel, k) == kernel
        assert len(kernel.residues) <= bajnok_maximum(q, k)
        at_maximum += len(kernel.residues) == bajnok_maximum(q, k) > 0
    assert at_maximum >= 30


def test_step_tripwire_reads_bajnoks_size():
    # the tripwire reads v(q) from q = d first and finds the divisors only past it
    for q in range(1, 121):
        for k in (2, 3, 4, 7):
            v = bajnok_maximum(q, k)
            assert [periodic._within_bajnok(size, q, k) for size in (v, v + 1)] == [True, False]


def test_fls_step_refuses_a_containment_past_bajnoks_size(monkeypatch):
    # a kernel that keeps every hull passes the odds' full hull {0, 1, 2} mod 3 at
    # k = 2, but Z/3 holds at most v(3) = 1 sum-free residue
    monkeypatch.setattr(periodic, "difference_kernel", lambda r, k: r)
    odds = IntSet.of(range(1, 1001, 2))
    eps = Fraction(1, 10)
    assert periodic_hull(odds, 100, 3) == ResidueSet.of(3, [0, 1, 2])
    assert bajnok_maximum(3, 2) == 1
    with pytest.raises(FalsificationError, match="hull of 3 residues mod 3"):
        fls_step(odds, 2, 100, 3, min_ap_length(2, eps), eps)


def test_kernel_translate_counting_bound():
    """The k+1 shifted copies of the kernel's periodic set never overlap.

    For a residue violation x_1+...+x_k = x realized by representatives
    at most kQ, the shifts 0, x_1+...+x_{k-1}, x+x_1+...+x_{k-2}, ...,
    (k-1)x all differ by sums of exactly k-1 members of the periodic
    hull, which the kernel property forbids, so direct set arithmetic
    must find the translates pairwise disjoint and the counting bound
    (k+1)|D cap [1,n0]| <= n0 + (k-1)x follows.
    """
    rng = random.Random(2024)
    checked = 0
    while checked < 60:
        q = rng.randrange(2, 13)
        residues = {r for r in range(q) if rng.random() < 0.5}
        r = ResidueSet.of(q, residues)
        k = rng.choice([2, 3, 4])
        if difference_kernel(r, k) == r:
            continue
        violation = None
        for combo in combinations_with_replacement(sorted(residues), k):
            if sum(combo) % q in residues:
                violation = combo
                break
        assert violation is not None
        xs = [v if v >= 1 else q for v in violation]
        x = sum(xs)
        assert x <= k * q
        n0 = rng.randrange(20, 150)
        kernel = difference_kernel(r, k)
        base = {a for a in range(1, n0 + 1) if a % q in kernel.residues}
        shifts = [0]
        for j in range(1, k + 1):
            shifts.append((j - 1) * x + sum(xs[: k - j]))
        translates = [{d + shift for d in base} for shift in shifts]
        for a in range(len(translates)):
            for b in range(a + 1, len(translates)):
                assert not (translates[a] & translates[b])
        assert (k + 1) * len(base) <= n0 + (k - 1) * x
        assert (k + 1) * len(base) <= n0 + (k - 1) * k * q
        checked += 1


def test_find_ap_examples():
    assert find_ap(IntSet.of(range(1, 6)), 5, 3, 2) == (1, 1)
    assert find_ap(IntSet.of([1, 3, 5]), 5, 3, 4) == (1, 2)
    assert find_ap(IntSet.of([1, 2]), 2, 3, 1) is None


def test_find_ap_prefers_small_step_then_small_start():
    s = IntSet.of([2, 3, 4, 10, 20, 30])
    # step 1 exists (2,3,4) even though step 10 also works
    assert find_ap(s, 30, 3, 10) == (2, 1)
    s2 = IntSet.of([5, 7, 9, 6, 8])
    assert find_ap(s2, 9, 3, 2) == (5, 1)


def test_find_ap_scans_no_step_past_the_horizon(monkeypatch):
    scan = periodic._progressions

    def spy(s, n0, ap_length, steps):
        def bounded():
            for m in steps:
                if m > n0:
                    raise AssertionError(f"step {m} scanned past n0 = {n0}")
                yield m

        return scan(s, n0, ap_length, bounded())

    monkeypatch.setattr(periodic, "_progressions", spy)
    # 10^7 has 16 as a divisor: an unbounded scan reaches it, and would run on to 10^7
    assert find_ap(IntSet.of([1]), 10, 2, 10**7) is None
    assert find_ap(IntSet.of([1]), 10, 1, 10**12) == (1, 1)
    assert find_ap(IntSet.of([3, 8]), 10, 2, 10**12) == (3, 5)
    # the answers are those of a scan over every divisor of the modulus
    rng = random.Random(30)
    for _ in range(200):
        n0, modulus, ap_length = rng.randrange(1, 20), rng.randrange(1, 400), rng.randrange(1, 5)
        s = IntSet.of(rng.sample(range(1, 40), rng.randrange(0, 12)))
        divisors = [m for m in range(1, modulus + 1) if modulus % m == 0]
        expected = naive_progressions(s, n0, ap_length, divisors)
        assert find_ap(s, n0, ap_length, modulus) == (expected[0] if expected else None)


def test_progression_mask_is_refused_past_its_cap_before_it_is_built(monkeypatch):
    # the mask of {1, 10} reaches bit 10, and 1, 10 is a progression of step 9
    monkeypatch.setattr(periodic, "PROGRESSION_BIT_CAP", 10)
    assert find_ap(IntSet.of([1, 10]), 10, 2, 9) == (1, 9)
    monkeypatch.setattr(periodic, "PROGRESSION_BIT_CAP", 9)
    with pytest.raises(ResourceLimitError) as err:
        find_ap(IntSet.of([1, 10]), 10, 2, 9)
    assert err.value.required == 10

    def refuse(*args):
        raise AssertionError("the progression mask was built past the cap")

    monkeypatch.undo()
    monkeypatch.setattr(periodic, "_mask", refuse)
    wide = IntSet.of([1, 10**8])
    for search in (find_ap, find_progressions):
        with pytest.raises(ResourceLimitError) as err:
            search(wide, 10**8, 2, 1)
        assert err.value.required == 10**8 > periodic.PROGRESSION_BIT_CAP


@given(
    st.sets(st.integers(min_value=1, max_value=60), max_size=12),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=12),
)
def test_find_ap_result_is_a_real_progression(values, i, q):
    s = IntSet.of(values)
    got = find_ap(s, 60, i, q)
    if got is not None:
        x, m = got
        assert q % m == 0
        for j in range(i):
            assert x + j * m in s
        assert x + (i - 1) * m <= 60


def naive_progressions(s, n0, ap_length, steps):
    """Every (start, step) whose ap_length terms all lie in s ∩ [1, n0], by scanning each term."""
    return [
        (x, m) for m in steps for x in range(1, n0 + 1)
        if all(x + j * m <= n0 and x + j * m in s for j in range(ap_length))
    ]


def test_progression_search_matches_an_all_terms_scan():
    rng = random.Random(41)
    for trial in range(300):
        s = IntSet.of(rng.sample(range(20, 120), rng.randrange(0, 60) if trial % 10 else 0))
        # n0 below min(s), inside its range, and above max(s)
        n0 = rng.choice([rng.randrange(1, 20), rng.randrange(20, 120), rng.randrange(120, 160)])
        ap_length = rng.randrange(1, 6)
        steps = rng.sample(range(1, 25), rng.randrange(1, 6))  # not ascending in general
        expected = naive_progressions(s, n0, ap_length, steps)
        assert list(periodic._progressions(s, n0, ap_length, steps)) == expected
        if ap_length >= 2:
            max_step = max(steps)
            assert find_progressions(s, n0, ap_length, max_step) == naive_progressions(
                s, n0, ap_length, range(1, max_step + 1)
            )
        modulus = rng.randrange(1, 40)
        divisors = [m for m in range(1, modulus + 1) if modulus % m == 0]
        first = naive_progressions(s, n0, ap_length, divisors)
        assert find_ap(s, n0, ap_length, modulus) == (first[0] if first else None)


def test_min_ap_length_examples():
    assert min_ap_length(2, Fraction(1, 10)) == 5
    assert min_ap_length(3, Fraction(1, 5)) == 5
    assert min_ap_length(2, Fraction(1, 6)) == 3
    assert min_ap_length(2, Fraction(1, 150)) == 67


def test_min_ap_length_is_minimal():
    # at eps >= 4 the bound passes 1/2 = drop_expression(1, k), so i = 1
    for k in range(2, 9):
        for eps in (Fraction(1, 4), Fraction(1, 9), Fraction(1, 33), Fraction(4)):
            i = min_ap_length(k, eps)
            target = Fraction(1, k + 1) + eps / 4
            assert drop_expression(i, k) <= target
            if i > 1:
                assert drop_expression(i - 1, k) > target
            assert (i == 1) == (eps == 4)


def test_min_ap_length_matches_a_direct_search():
    # the least i with drop_expression(i, k) <= 1/(k+1) + eps/4, found by trying i = 1, 2, ...
    denominators = (1, 2, 3, 7, 12, 40, 101, 399)
    epsilons = sorted({Fraction(n, d) for n in range(1, 30) for d in denominators})
    for k in range(2, 12):
        for eps in epsilons:
            target = Fraction(1, k + 1) + eps / 4
            i = 1
            while drop_expression(i, k) > target:
                i += 1
            assert min_ap_length(k, eps) == i, (k, eps)


def test_drop_expression_limit():
    assert abs(drop_expression(10**6, 2) - Fraction(1, 3)) < Fraction(1, 10**6)


def test_geometric_schedule_shape():
    sch = geometric_schedule(100, Fraction(192), 5)
    assert len(sch) == 5
    assert sch[0] == 19200
    for prev, cur in zip((100,) + sch, sch):
        assert cur >= 192 * prev
    with pytest.raises(InvalidParameterError):
        geometric_schedule(0, Fraction(2), 3)
    with pytest.raises(InvalidParameterError):
        geometric_schedule(5, Fraction(1, 2), 3)


def test_geometric_schedule_refuses_over_its_bit_cap():
    # the default schedule of fls-step at n0 = 100000, k = 2, eps = 1/6
    with pytest.raises(ResourceLimitError) as caught:
        geometric_schedule(100000, Fraction(192), 200000)
    assert caught.value.required > SCHEDULE_BIT_CAP


@pytest.mark.parametrize(
    "start, ratio, count",
    [(100, Fraction(192), 200), (89, Fraction(1920), 267), (7, Fraction(3, 2), 50), (1, 2, 1)],
)
def test_geometric_schedule_bit_bound_covers_the_entries(monkeypatch, start, ratio, count):
    built = geometric_schedule(start, ratio, count)
    monkeypatch.setattr("sumfree.periodic.SCHEDULE_BIT_CAP", 0)
    with pytest.raises(ResourceLimitError) as caught:
        geometric_schedule(start, ratio, count)
    assert sum(n.bit_length() for n in built) <= caught.value.required < SCHEDULE_BIT_CAP // 100


@pytest.mark.parametrize(
    "ratio",
    [Fraction(192), Fraction(2), Fraction(4800),
     Fraction(3, 2), Fraction(7, 3), Fraction(1001, 1000)],
)
@pytest.mark.parametrize("start", [1, 89, 1000])
def test_scales_follow_the_ceiling_recurrence(start, ratio):
    for count in range(61):
        expected, cur = [], start
        for _ in range(count):
            cur = math.ceil(cur * ratio)
            expected.append(cur)
        assert list(periodic._scales(start, ratio, count)) == expected


def _per_member_neighboured_count(s, n, m, i):
    """The per-member rule: members a <= n with some a + j*m in s, j in 1..i."""
    members = set(s.elements)
    return sum(1 for a in s.upto(n) if any(a + j * m in members for j in range(1, i + 1)))


def test_neighboured_count_matches_the_per_member_rule():
    rng = random.Random(4242)
    for trial in range(60):  # grown k-sum-free sets, steps up to 8
        k = 2 + trial % 2
        horizon = rng.randrange(40, 400)
        s = grow_k_sum_free(k, horizon, rng=rng, include_probability=rng.uniform(0.2, 1.0))
        if not s:
            continue
        for n in (rng.randrange(1, horizon + 20), s.largest(), s.largest() - 1, 10**18):
            m, i = rng.randrange(1, 9), rng.randrange(1, 6)
            expected = _per_member_neighboured_count(s, n, m, i)
            assert periodic._neighboured_count(s, n, m, i) == expected
    for _ in range(200):  # sparse sets below 10^15: short runs of step m far apart
        m, i = rng.randrange(1, 10**6), rng.randrange(1, 6)
        members = set()
        for _ in range(rng.randrange(1, 6)):
            start = rng.randrange(1, 10**15)
            members.update(start + j * m for j in range(0, rng.randrange(1, 8), rng.randrange(1, 4)))
        s = IntSet.of(members)
        for n in (s.elements[0] - 1, rng.choice(s.elements), s.largest(), 10**18):
            expected = _per_member_neighboured_count(s, n, m, i)
            assert periodic._neighboured_count(s, n, m, i) == expected


def test_translate_inequality_at_a_huge_horizon_matches_the_per_member_rule():
    odds = IntSet.of(range(1, 200, 2))
    for n, x, m, i, k in [(10**18, 1, 2, 3, 2), (10**18, 51, 4, 5, 2), (10**18, 7, 6, 1, 2)]:
        b_count = _per_member_neighboured_count(odds, n, m, i)
        expected = (i + 1) * len(odds) - (i - 1) * b_count <= n + (k - 1) * x + (i - 1) * m
        assert expected is True
        assert check_translate_inequality(odds, n, x, m, i, k) is True


def test_translate_inequality_cost_does_not_follow_the_largest_member():
    # a bitmask of {1, 3, 10**8} would hold 12 MB; a pass over three members holds none
    tracemalloc.start()
    try:
        assert periodic._neighboured_count(IntSet.of([1, 3, 10**8]), 10**18, 2, 1) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert check_translate_inequality(IntSet.of([1, 10**12]), 10**18, 1, 1, 1, 2) is True
    assert check_translate_inequality(IntSet.of([1, 10**12 + 1]), 5, 1, 10**12, 2, 2) is True


def test_translate_inequality_examples():
    n = 99
    odds = IntSet.of(range(1, n + 1, 2))
    assert check_translate_inequality(odds, n, 1, 2, 3, 2) is True
    single = IntSet.of([5])
    assert check_translate_inequality(single, 9, 5, 1, 1, 2) is True


def test_translate_inequality_validates_preconditions():
    odds = IntSet.of(range(1, 50, 2))
    with pytest.raises(InvalidParameterError):
        # 2 is not in the set, so no progression starts there
        check_translate_inequality(odds, 49, 2, 2, 3, 2)
    with pytest.raises(InvalidParameterError):
        check_translate_inequality(IntSet.of([1, 2, 3]), 3, 1, 1, 2, 2)


def test_translate_inequality_against_disjointness_oracle():
    """Derive the inequality by literal translate arithmetic.

    With an AP x, x+m, ..., x+(i-1)m inside a k-sum-free A, the copies
    A_n, A_n+(k-1)x, (A minus B)_n+(k-1)x+jm for j=1..i-1 are pairwise
    disjoint inside [1, n+(k-1)x+(i-1)m]; summing cardinalities yields
    exactly the checked inequality, so both routes must agree.
    """
    rng = random.Random(99)
    done = 0
    while done < 25:
        k = rng.choice([2, 3])
        horizon = rng.randrange(60, 160)
        s = grow_k_sum_free(k, horizon, rng=rng, include_probability=rng.uniform(0.3, 0.9))
        if len(s) < 4:
            continue
        m = rng.randrange(1, 8)
        i = rng.randrange(1, 5)
        starts = [a for a in s if all(a + j * m in s for j in range(i))]
        if not starts:
            continue
        x = rng.choice(starts)
        n = rng.randrange(x + (i - 1) * m, horizon + 40)

        a_n = set(s.upto(n).elements)
        b_n = {a for a in a_n if any(a + j * m in s for j in range(1, i + 1))}
        translates = [a_n, {a + (k - 1) * x for a in a_n}]
        for j in range(1, i):
            translates.append({a + (k - 1) * x + j * m for a in a_n - b_n})
        for p in range(len(translates)):
            for q in range(p + 1, len(translates)):
                assert not (translates[p] & translates[q])
        ceiling = n + (k - 1) * x + (i - 1) * m
        assert all(1 <= v <= ceiling for t in translates for v in t)
        direct = (i + 1) * len(a_n) - (i - 1) * len(b_n) <= ceiling
        assert direct is True
        assert check_translate_inequality(s, n, x, m, i, k) is True
        done += 1


def valid_odds_arguments():
    odds = IntSet.of(range(1, 1001, 2))
    eps = Fraction(1, 6)
    schedule = geometric_schedule(100, Fraction(192), 200)
    return odds, 2, 100, 2, 3, eps, schedule


def test_fls_step_periodic_containment_odds():
    odds, k, n0, q, i, eps, schedule = valid_odds_arguments()
    out = fls_step(odds, k, n0, q, i, eps, schedule)
    assert isinstance(out, PeriodicContainment)
    assert out.tag == "periodic-containment"
    assert out.hull == ResidueSet.of(2, [1])


def test_fls_step_periodic_containment_one_mod_three():
    s = IntSet.of(range(1, 1001, 3))
    schedule = geometric_schedule(100, Fraction(4800), 200)
    out = fls_step(s, 2, 100, 3, 67, Fraction(1, 150), schedule)
    assert isinstance(out, PeriodicContainment)
    assert out.hull == ResidueSet.of(3, [1])


def test_fls_step_ap_not_found_for_odds_mod_three():
    odds, k, n0, _, i, eps, schedule = valid_odds_arguments()
    out = fls_step(odds, k, n0, 3, i, eps, schedule)
    assert isinstance(out, ApNotFound)
    assert out.tag == "ap-not-found"


def test_fls_step_density_drop_upper_half():
    upper = IntSet.of(range(51, 101))
    schedule = geometric_schedule(100, Fraction(192), 200)
    out = fls_step(upper, 2, 100, 7, 3, Fraction(1, 6), schedule)
    assert isinstance(out, DensityDrop)
    assert out.tag == "density-drop"
    assert out.index == 1
    assert out.value == Fraction(1, 384)
    assert out.value <= Fraction(1, 3) + Fraction(1, 12)


@pytest.mark.parametrize(
    "values, modulus, tag",
    [(range(1, 1000, 2), 2, "periodic-containment"), (range(51, 101), 7, "density-drop")],
)
def test_fls_step_default_schedule_is_the_geometric_one(values, modulus, tag):
    s, eps = IntSet.of(values), Fraction(1, 6)
    explicit = fls_step(s, 2, 100, modulus, 3, eps, geometric_schedule(100, Fraction(192), 200))
    assert explicit.tag == tag
    assert fls_step(s, 2, 100, modulus, 3, eps) == explicit


def test_fls_step_checks_only_a_schedule_its_caller_supplies(monkeypatch):
    odds, k, n0, q, i, eps, schedule = valid_odds_arguments()
    built = []
    real = periodic._scales
    monkeypatch.setattr(
        periodic, "_scales", lambda *args: map(lambda n: built.append(n) or n, real(*args))
    )
    # the scan builds entries only as it reads them, and containment reads none
    assert fls_step(odds, k, n0, q, i, eps).tag == "periodic-containment"
    assert built == []
    # a supplied schedule is compared entry by entry with the derived one
    assert fls_step(odds, k, n0, q, i, eps, list(schedule)).tag == "periodic-containment"
    assert built == list(schedule)
    built.clear()
    # the upper half drops at index 1, so the scan stops after one entry
    assert fls_step(IntSet.of(range(51, 101)), k, n0, 7, i, eps).index == 1
    assert built == [schedule[0]]


def test_the_scans_build_no_geometric_schedule(monkeypatch):
    def refuse(*args):
        raise AssertionError("geometric_schedule was called")

    monkeypatch.setattr(periodic, "geometric_schedule", refuse)
    odds, k, n0, q, i, eps, _ = valid_odds_arguments()
    assert fls_step(odds, k, n0, q, i, eps).tag == "periodic-containment"
    assert fls_step(IntSet.of(range(51, 101)), k, n0, 7, i, eps).tag == "density-drop"
    inst = random_drop_instance(3, random.Random(11), mirrored=True)
    assert verify_density_drop(inst, 3) is True


ALTERED_SCHEDULES = {
    "short": geometric_schedule(100, Fraction(192), 10),
    "slower-growing": tuple(19200 + j for j in range(200)),
    "faster-growing": geometric_schedule(100, Fraction(193), 200),
    "longer": geometric_schedule(100, Fraction(192), 201),
}


@pytest.mark.parametrize("name", sorted(ALTERED_SCHEDULES))
def test_fls_step_refuses_a_schedule_other_than_the_derived_one(name):
    # a Falsified instance records only the ratio, so no other schedule could be replayed
    odds, k, n0, q, i, eps, _ = valid_odds_arguments()
    derived = r"must equal geometric_schedule\(n0, 192, 200\)"
    with pytest.raises(InvalidParameterError, match=derived):
        fls_step(odds, k, n0, q, i, eps, ALTERED_SCHEDULES[name])


def test_fls_step_rejects_bad_hypotheses():
    odds, k, n0, q, i, eps, schedule = valid_odds_arguments()
    # sum-free, but 1/100 is below the required 1/3 + eps
    sparse = IntSet.of([99])
    with pytest.raises(InvalidParameterError, match="below the required"):
        fls_step(sparse, k, n0, q, i, eps, schedule)
    with pytest.raises(InvalidParameterError, match="not k-sum-free"):
        fls_step(IntSet.of([1, 2, 3]), k, 3, q, i, eps, schedule)
    with pytest.raises(InvalidParameterError, match="progression length for the drop bound"):
        # progression length below what this eps needs
        fls_step(odds, k, n0, q, 2, eps, schedule)


def test_instance_serialization_round_trip():
    rng = random.Random(5)
    inst = random_drop_instance(2, rng)
    text = serialize_instance(inst)
    again = parse_instance(text)
    assert again == inst
    assert serialize_instance(again) == text
    assert '"eps"' in text


@pytest.mark.parametrize("ratio", [1, 960, "960", "2/4", "0x2580", "1/0", " 960/1", "960/1.0"])
def test_parse_instance_refuses_a_malformed_ratio(ratio):
    payload = json.loads(serialize_instance(random_drop_instance(2, random.Random(5))))
    payload["ratio"] = ratio
    with pytest.raises(InvalidParameterError, match="ratio must be 'n/d' in lowest terms"):
        parse_instance(json.dumps(payload))


@pytest.mark.parametrize(
    "change, problem",
    [
        (lambda e: e[::-1], "strictly increasing"),
        (lambda e: e[::-1] + e[:1], "strictly increasing"),
        (lambda e: e[:1] + e, "strictly increasing"),
        (lambda e: {"1": 1}, "must be a list"),
        (lambda e: "", "must be a list"),
    ],
    ids=["reversed", "reversed-with-a-repeat", "repeated", "object", "string"],
)
def test_parse_instance_refuses_elements_it_would_have_to_sort(change, problem):
    # the set is read as written, so a file that IntSet.of would repair is refused
    payload = json.loads(serialize_instance(random_drop_instance(2, random.Random(5))))
    payload["elements"] = change(payload["elements"])
    with pytest.raises(InvalidParameterError, match=problem):
        parse_instance(json.dumps(payload))


def test_parse_instance_refuses_keys_other_than_the_fields():
    inst = random_drop_instance(2, random.Random(5))
    payload = json.loads(serialize_instance(inst))
    assert payload["ratio"] == rational_string(inst.ratio)
    # the format that wrote every schedule entry, and no ratio, is refused, not read
    old = dict(payload, schedule=[hex(n) for n in inst.schedule])
    del old["ratio"]
    old_format = r"unknown keys \['schedule'\] and lacks \['ratio'\]"
    with pytest.raises(InvalidParameterError, match=old_format):
        parse_instance(json.dumps(old))
    with pytest.raises(InvalidParameterError, match=r"unknown keys \['note'\] and lacks \[\]"):
        parse_instance(json.dumps(dict(payload, note="x")))
    with pytest.raises(InvalidParameterError, match="unknown keys"):
        parse_instance(json.dumps(list(payload)))


def test_parse_instance_refuses_an_integer_past_the_digit_limit():
    text = serialize_instance(random_drop_instance(2, random.Random(5)))
    with pytest.raises(InvalidParameterError, match="not valid JSON"):
        parse_instance(text.replace('"n0": ', '"n0": ' + "9" * 5000, 1))


def test_parse_instance_refuses_coerced_values_and_keeps_harness_instances():
    inst = random_drop_instance(3, random.Random(11), mirrored=True)
    text = serialize_instance(inst)
    assert parse_instance(text) == inst
    for field, value in [("n0", 55.7), ("ap_step", "2"), ("eps", 0.05)]:
        payload = json.loads(text)
        payload[field] = value
        with pytest.raises(InvalidParameterError, match=field):
            parse_instance(json.dumps(payload))


def test_parse_instance_refuses_a_difference_given_as_a_float():
    payload = json.loads(serialize_instance(random_drop_instance(2, random.Random(5))))
    payload["difference"] = 2.0
    with pytest.raises(InvalidParameterError, match="difference must be an integer, got 2.0"):
        parse_instance(json.dumps(payload))


def test_verify_density_drop_seeded_instances():
    rng = random.Random(31337)
    for trial in range(15):
        inst = random_drop_instance(rng.choice([2, 3]), rng, mirrored=bool(trial % 3 == 0))
        assert verify_density_drop(inst, inst.k) is True


def _refused_drop_instances():
    inst = random_drop_instance(2, random.Random(5))
    low, last = inst.elements.elements[0], inst.ap_start + (inst.ap_length - 1) * inst.ap_step
    # members are at least 1, so one member minus another stays below n0
    unwritable = inst.n0
    # a one-term progression takes any step; this one does not divide d - x
    step = abs(inst.difference - inst.ap_start) + 1
    return [
        ("built for arity", replace(inst, k=3)),
        ("not k-sum-free", replace(inst, elements=IntSet.of(inst.elements.elements + (2 * low,)))),
        ("beyond the horizon", replace(inst, n0=last - 1)),
        ("not writable", replace(inst, difference=unwritable)),
        ("not congruent", replace(inst, ap_length=1, ap_step=step)),
        ("ratio must be an int or a Fraction", replace(inst, ratio=float(inst.ratio))),
        # a schedule growing slower than 1/eps carries no drop bound
        ("below 1/eps", replace(inst, ratio=1 / inst.eps - Fraction(1, 2))),
    ]


REFUSED_DROP_INSTANCES = _refused_drop_instances()


@pytest.mark.parametrize(
    "message, instance", REFUSED_DROP_INSTANCES, ids=[c[0] for c in REFUSED_DROP_INSTANCES]
)
def test_verify_density_drop_refuses_each_failed_hypothesis(message, instance):
    # each case breaks one hypothesis of the seeded instance and meets the ones checked before it
    with pytest.raises(InvalidParameterError, match=message):
        verify_density_drop(instance, 2)


def test_verify_density_drop_immediate_hit():
    # sparse set beyond n0 makes the very first scale drop below the bound
    s = IntSet.of(range(31, 61))
    inst = DensityDropInstance(
        elements=s, n0=60, ap_start=31, ap_step=1, ap_length=5,
        difference=31 - 32, eps=Fraction(1, 200), ratio=Fraction(200), k=2,
    )
    assert inst.schedule == geometric_schedule(60, Fraction(200), 120)
    assert verify_density_drop(inst, 2) is True


@pytest.mark.parametrize("n0", [60, 75, 90])
@pytest.mark.parametrize("k", [2, 3])
def test_falsified_branch_builds_an_instance_whose_hypotheses_hold(monkeypatch, k, n0):
    # with the drop scan blinded, fls_step reaches its Falsified branch; the
    # verifier then checks every hypothesis and, blinded too, reports no drop
    monkeypatch.setattr(periodic, "_first_drop", lambda *args: None)
    upper, eps = IntSet.of(range(n0 // k + 1, n0 + 1)), Fraction(1, 10)
    for q in range(2, 9):
        out = fls_step(upper, k, n0, q, min_ap_length(k, eps), eps)
        assert isinstance(out, Falsified)
        instance = out.instance
        congruent = [
            t for t in k_difference_set(upper, k, n0) if (t - instance.ap_start) % q == 0
        ]
        assert instance.difference == min(congruent)
        assert verify_density_drop(instance, k) is False


def test_falsified_outcome_carries_instance():
    rng = random.Random(8)
    inst = random_drop_instance(2, rng)
    out = Falsified(instance=inst, reason="synthetic")
    assert out.tag == "falsified"
    assert parse_instance(serialize_instance(out.instance)) == inst
