"""Tests for periodic hulls, kernels, AP search, and the density-drop step.

The heavier seeded corpora live in the acceptance module; here each piece
is exercised against small frozen instances and direct set-arithmetic
oracles for the two counting arguments (the kernel translate bound and
the translate inequality).
"""

from __future__ import annotations

import json
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumfree import (
    ApNotFound,
    DensityDrop,
    DensityDropInstance,
    Falsified,
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
    is_residue_k_sum_free,
    min_ap_length,
    parse_instance,
    periodic_hull,
    serialize_instance,
    verify_density_drop,
)
from sumfree.harness import find_progressions, grow_k_sum_free, random_drop_instance
from sumfree import periodic
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
    assert is_residue_k_sum_free(ResidueSet.of(2, [1]), 2) is True
    assert is_residue_k_sum_free(ResidueSet.of(6, [0]), 2) is False
    assert is_residue_k_sum_free(ResidueSet.of(5, [1, 2]), 2) is False


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
        assert is_residue_k_sum_free(r, k) == is_k_sum_free(realized, k)


def test_difference_kernel_examples():
    assert difference_kernel(ResidueSet.of(5, [1, 2]), 2) == ResidueSet.of(5, [2])
    assert difference_kernel(ResidueSet.of(3, [0]), 2) == ResidueSet.of(3, [])
    clean = ResidueSet.of(2, [1])
    assert difference_kernel(clean, 2) == clean


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

        assert is_residue_k_sum_free(r, k) is not hits(0, k)
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
        assert is_residue_k_sum_free(ResidueSet.of(q, residues), k) is expected
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
    assert is_residue_k_sum_free(d, k)
    if is_residue_k_sum_free(r, k):
        assert d == r


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
        if is_residue_k_sum_free(r, k):
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
    checked = []
    real = periodic._check_schedule

    def spy(*args):
        checked.append(args)
        real(*args)

    monkeypatch.setattr(periodic, "_check_schedule", spy)
    assert fls_step(odds, k, n0, q, i, eps).tag == "periodic-containment"
    assert checked == []
    assert fls_step(odds, k, n0, q, i, eps, schedule).tag == "periodic-containment"
    assert checked == [(schedule, n0, Fraction(16 * k) / eps)]


def test_fls_step_rejects_bad_hypotheses():
    odds, k, n0, q, i, eps, schedule = valid_odds_arguments()
    # sum-free, but 1/100 is below the required 1/3 + eps
    sparse = IntSet.of([99])
    with pytest.raises(InvalidParameterError, match="below the required"):
        fls_step(sparse, k, n0, q, i, eps, schedule)
    with pytest.raises(InvalidParameterError, match="not k-sum-free"):
        fls_step(IntSet.of([1, 2, 3]), k, 3, q, i, eps, schedule)
    with pytest.raises(InvalidParameterError, match="needs at least k"):
        fls_step(odds, k, n0, q, i, eps, schedule[:10])
    with pytest.raises(InvalidParameterError, match="grows by less than the required ratio"):
        # ratio between consecutive scales too small
        fls_step(odds, k, n0, q, i, eps, tuple(19200 + j for j in range(200)))
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


def test_instance_round_trip_past_the_int_to_string_digit_limit():
    # entries of 5001 and 10001 decimal digits, past CPython's default 4300
    schedule = geometric_schedule(1, Fraction(10**5000), 2)
    inst = replace(random_drop_instance(2, random.Random(5)), schedule=schedule)
    text = serialize_instance(inst)
    assert json.loads(text)["schedule"] == [hex(n) for n in schedule]
    assert parse_instance(text) == inst


@pytest.mark.parametrize("entry", [1, "1", "0x0", "-0x1", "0X1", "0x01", "0x_1", " 0x1", "0xg"])
def test_parse_instance_refuses_any_other_schedule_entry(entry):
    payload = json.loads(serialize_instance(random_drop_instance(2, random.Random(5))))
    payload["schedule"][0] = entry
    with pytest.raises(InvalidParameterError):
        parse_instance(json.dumps(payload))


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
        # an empty schedule: the scan finds no drop in its prefix and cannot decide
        ("no drop found in the available prefix", replace(inst, schedule=())),
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
    schedule = geometric_schedule(60, Fraction(200), 120)
    inst = DensityDropInstance(
        elements=s, n0=60, ap_start=31, ap_step=1, ap_length=5,
        difference=31 - 32, eps=Fraction(1, 200), schedule=schedule, k=2,
    )
    assert verify_density_drop(inst, 2) is True


def test_verify_density_drop_rejects_broken_schedule():
    s = IntSet.of(range(31, 61))
    bad = tuple(range(61, 61 + 120))
    inst = DensityDropInstance(
        elements=s, n0=60, ap_start=31, ap_step=1, ap_length=5,
        difference=-1, eps=Fraction(1, 200), schedule=bad, k=2,
    )
    with pytest.raises(InvalidParameterError):
        verify_density_drop(inst, 2)


def test_verify_density_drop_accepts_early_hit_on_short_schedule():
    # a drop observed inside a shorter-than-nominal schedule still
    # certifies; only a fruitless scan over short data refuses to decide
    s = IntSet.of(range(31, 61))
    schedule = geometric_schedule(60, Fraction(200), 10)
    inst = DensityDropInstance(
        elements=s, n0=60, ap_start=31, ap_step=1, ap_length=5,
        difference=-1, eps=Fraction(1, 200), schedule=schedule, k=2,
    )
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
        assert (instance.difference - instance.ap_start) % q == 0
        assert verify_density_drop(instance, k) is False


def test_falsified_outcome_carries_instance():
    rng = random.Random(8)
    inst = random_drop_instance(2, rng)
    out = Falsified(instance=inst, reason="synthetic")
    assert out.tag == "falsified"
    assert parse_instance(serialize_instance(out.instance)) == inst
