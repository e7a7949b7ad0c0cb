"""Tests for the k-sum-free predicates, certificates, and set plumbing."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sumfree import (
    IntSet,
    InvalidParameterError,
    ResourceLimitError,
    Violation,
    find_violation,
    format_set_text,
    is_k_sum_free,
    is_strongly_k_sum_free,
    k_difference_set,
    parse_set_text,
    read_set_file,
    write_set_file,
)
from sumfree import core, dilation, experiments, folner, harness, measures, periodic, solver


def naive_violations(elements, k):
    """Every (sorted summands, total) pair, by full multiset enumeration.

    Written against the definition only, independent of the library's
    bitset and pruned-search routes.
    """
    members = set(elements)
    found = []
    for combo in combinations_with_replacement(sorted(elements), k):
        total = sum(combo)
        if total in members:
            found.append((combo, total))
    return found


small_sets = st.sets(st.integers(min_value=1, max_value=60), min_size=0, max_size=10)
arities = st.integers(min_value=2, max_value=4)


def test_is_k_sum_free_examples():
    assert is_k_sum_free(IntSet.of([1, 2, 3]), 2) is False
    assert is_k_sum_free(IntSet.of([2, 3]), 2) is True
    assert is_k_sum_free(IntSet.of([1, 2, 6]), 3) is False
    assert is_k_sum_free(IntSet.of([]), 2) is True


def test_odd_numbers_are_pair_sum_free():
    odds = IntSet.of(range(1, 200, 2))
    assert is_k_sum_free(odds, 2)


def test_arity_below_two_rejected():
    s = IntSet.of([1, 2])
    with pytest.raises(InvalidParameterError):
        is_k_sum_free(s, 1)
    with pytest.raises(InvalidParameterError):
        find_violation(s, 0)
    with pytest.raises(InvalidParameterError):
        is_strongly_k_sum_free(s, 1)
    with pytest.raises(InvalidParameterError):
        k_difference_set(s, 1, 5)


def test_find_violation_examples():
    # the (1,1)->2 violation has the smaller total, so it precedes (1,2)->3
    v = find_violation(IntSet.of([1, 2, 3]), 2)
    assert v == Violation(summands=(1, 1), total=2)
    assert find_violation(IntSet.of([2, 3]), 2) is None
    v = find_violation(IntSet.of([1, 2, 3, 6]), 2)
    assert v == Violation(summands=(1, 1), total=2)
    v = find_violation(IntSet.of([2, 3, 5]), 2)
    assert v == Violation(summands=(2, 3), total=5)


def test_find_violation_repetition_required():
    # 2+2+2=6 is only visible under multiset semantics
    v = find_violation(IntSet.of([1, 2, 6]), 3)
    assert v is not None
    assert v.summands == (1, 1, 1) or sum(v.summands) == v.total


def test_strongly_examples():
    assert is_strongly_k_sum_free(IntSet.of([1, 2]), 3) is False
    assert is_strongly_k_sum_free(IntSet.of([2, 3]), 3) is True
    assert is_strongly_k_sum_free(IntSet.of([5]), 4) is True


def test_k_difference_set_examples():
    assert k_difference_set(IntSet.of([2, 3]), 2, 3) == {-1, 0, 1}
    assert k_difference_set(IntSet.of([1, 2]), 3, 2) == {-3, -2, -1, 0}
    assert k_difference_set(IntSet.of([7]), 4, 10) == {(2 - 4) * 7}
    assert k_difference_set(IntSet.of([5]), 2, 4) == frozenset()


def test_difference_cap_stops_the_set_before_its_sums(monkeypatch):
    # A ∩ [1, 10] at k = 3 forms up to 10·(2·10 + 1) = 210 differences
    s = IntSet.of(range(1, 21))
    monkeypatch.setattr(core, "DIFFERENCE_WORK_CAP", 210)
    assert k_difference_set(s, 3, 10) == frozenset(range(1 - 20, 10 - 2 + 1))

    def refuse(*args):
        raise AssertionError("the sums were built past the cap")

    monkeypatch.setattr(core, "DIFFERENCE_WORK_CAP", 209)
    monkeypatch.setattr(core, "_mask", refuse)
    monkeypatch.setattr(core, "_shift_or", refuse)
    with pytest.raises(ResourceLimitError) as err:
        k_difference_set(s, 3, 10)
    assert err.value.required == 210


def test_verifier_refuses_a_difference_set_past_the_default_work_cap():
    # (1333, 4000] is 3-sum-free, and its 2667·(2·4000 + 1) differences pass the cap
    instance = periodic.DensityDropInstance(
        elements=IntSet.of(range(1334, 4001)), n0=4000, ap_start=1334, ap_step=1,
        ap_length=3, difference=-1334, eps=Fraction(1, 48), ratio=Fraction(48), k=3,
    )
    with pytest.raises(ResourceLimitError) as err:
        periodic.verify_density_drop(instance, 3)
    assert err.value.required == 2667 * 8001 > core.DIFFERENCE_WORK_CAP


def test_verifier_builds_no_difference_mask_past_the_default_work_cap(monkeypatch):
    # the instance above, with every bitmask refused once the predicate has run
    instance = periodic.DensityDropInstance(
        elements=IntSet.of(range(1334, 4001)), n0=4000, ap_start=1334, ap_step=1,
        ap_length=3, difference=-1334, eps=Fraction(1, 48), ratio=Fraction(48), k=3,
    )
    predicate, verdicts = periodic.is_k_sum_free, []

    def refuse(*args):
        raise AssertionError("a difference mask was built past the cap")

    def sum_free_then_refuse_masks(*args):
        verdicts.append(predicate(*args))
        monkeypatch.setattr(core, "_mask", refuse)
        monkeypatch.setattr(core, "_shift_or", refuse)
        return verdicts[-1]

    monkeypatch.setattr(periodic, "is_k_sum_free", sum_free_then_refuse_masks)
    with pytest.raises(ResourceLimitError) as err:
        periodic.verify_density_drop(instance, 3)
    assert verdicts == [True]
    assert err.value.required == 2667 * 8001 > core.DIFFERENCE_WORK_CAP


# arities past the strategy's, up to 7, where the walk's stack runs deepest
deep_arity_examples = [
    ({1, 2, 3, 7}, 7),
    ({2, 3, 5, 7, 11, 13, 17, 19, 23, 29}, 7),
    ({1, 5, 6, 30, 31, 35}, 6),
    ({3, 4, 5, 20, 21, 22, 35}, 5),
    ({4, 9, 40, 41, 60}, 6),
]


def with_deep_arities(test):
    for values, k in deep_arity_examples:
        test = example(values, k)(test)
    return test


@with_deep_arities
@given(small_sets, arities)
def test_predicate_matches_naive_enumeration(values, k):
    s = IntSet.of(values)
    everything = naive_violations(s.elements, k)
    assert is_k_sum_free(s, k) == (not everything)
    # naive_violations lists the sorted multisets in lexicographic order, as the walk must
    if s:
        assert list(core._violations(s.elements, k, s.largest())) == everything


@given(small_sets, arities)
def test_bitset_and_fallback_routes_agree(values, k):
    s = IntSet.of(values)
    # both routes are called directly: the default call takes whichever is
    # cheaper, which on small sets is often the enumeration
    if s:
        assert core._bitset_route(s.elements, k) == core._enumeration_route(s.elements, k)


@with_deep_arities
@given(small_sets, arities)
def test_violation_is_smallest_and_sound(values, k):
    s = IntSet.of(values)
    got = find_violation(s, k)
    everything = naive_violations(s.elements, k)
    if not everything:
        assert got is None
    else:
        best = min((total, combo) for combo, total in everything)
        assert got is not None
        assert sum(got.summands) == got.total
        assert all(a in s for a in got.summands) and got.total in s
        assert (got.total, got.summands) == best


def test_large_arities_on_a_sparse_set_need_no_deep_stack():
    # an enumeration that recursed once per summand would pass CPython's 1000 frames here
    wide = IntSet.of([1, 10**12])
    assert is_k_sum_free(wide, 2000) is True
    assert find_violation(wide, 2000) is None
    assert solver.build_hypergraph(wide, 2000).edges == ()
    # 2000 ones sum to a member, so the walk yields from its deepest level
    hit = IntSet.of([1, 2000])
    assert is_k_sum_free(hit, 2000) is False
    assert find_violation(hit, 2000) == Violation((1,) * 2000, 2000)
    assert solver.build_hypergraph(hit, 2000).edges == ((1, 2000),)


def test_arity_past_max_over_min_is_answered_before_the_route_estimate(monkeypatch):
    def refuse(elements, k):
        raise AssertionError("the routes were costed although every k-fold sum passes max A")

    monkeypatch.setattr(core, "_enumeration_is_cheaper", refuse)
    assert is_k_sum_free(IntSet.of([1, 2, 3]), 10**6) is True
    assert is_k_sum_free(IntSet.of([5, 9, 14]), 3) is True
    with pytest.raises(AssertionError):
        # 3·1 = 3 is a member, so this one is costed
        is_k_sum_free(IntSet.of([1, 2, 3]), 3)


@given(small_sets, arities, st.randoms(use_true_random=False))
def test_sum_freeness_is_monotone(values, k, rng):
    s = IntSet.of(values)
    sub = IntSet.of(a for a in values if rng.random() < 0.5)
    if is_k_sum_free(s, k):
        assert is_k_sum_free(sub, k)


@given(small_sets, arities, st.integers(min_value=1, max_value=9))
def test_dilation_invariance(values, k, c):
    s = IntSet.of(values)
    assert is_k_sum_free(IntSet(tuple(c * a for a in s)), k) == is_k_sum_free(s, k)


@given(small_sets, st.integers(min_value=2, max_value=4))
def test_strongly_is_the_conjunction(values, k):
    s = IntSet.of(values)
    expected = all(is_k_sum_free(s, arity) for arity in range(2, k + 1))
    assert is_strongly_k_sum_free(s, k) == expected


def test_strongly_at_two_is_plain():
    for raw in [(1, 2, 3), (2, 3), (4, 5, 6, 13), (3, 11, 12)]:
        s = IntSet.of(raw)
        assert is_strongly_k_sum_free(s, 2) == is_k_sum_free(s, 2)


@given(small_sets, arities, st.integers(min_value=1, max_value=40))
@example({7}, 5, 10)  # one member
@example({5, 9, 14}, 3, 4)  # n below min A
@example({3, 8, 20, 41}, 4, 25)  # n between members
@example({3, 8, 20, 41}, 2, 20)  # n at a member
@example(set(range(1, 31)), 3, 30)  # dense intervals
@example(set(range(1, 16)), 5, 15)
@example(set(range(21, 46)), 4, 45)
@example({2, 3, 5, 7, 11, 13, 17, 19}, 5, 19)
@example({1, 4, 99_999}, 5, 10**5)  # sparse and wide, up to 10^5
@example({17, 2_503, 40_961, 77_777, 99_991}, 4, 10**5)
@example({12, 345, 6_789, 54_321, 98_765}, 3, 60_000)
@example({1, 99_998, 99_999, 100_000}, 2, 99_999)
def test_difference_set_matches_definition(values, k, n):
    s = IntSet.of(values)
    restricted = s.upto(n).elements
    expected = set()
    for u in restricted:
        for vs in combinations_with_replacement(restricted, k - 1):
            expected.add(u - sum(vs))
    assert k_difference_set(s, k, n) == expected


def test_difference_cap_is_read_before_any_mask_is_built(monkeypatch):
    def refuse(*args):
        raise AssertionError("a mask was built past the cap")

    monkeypatch.setattr(core, "DIFFERENCE_WORK_CAP", 209)
    monkeypatch.setattr(core, "_mask", refuse)
    monkeypatch.setattr(core, "_shift_or", refuse)
    with pytest.raises(ResourceLimitError) as err:
        k_difference_set(IntSet.of(range(1, 21)), 3, 10)
    assert err.value.required == 210


def test_intset_normalizes_and_validates():
    assert IntSet.of([3, 1, 2, 2]).elements == (1, 2, 3)
    with pytest.raises(InvalidParameterError):
        IntSet((2, 1))
    with pytest.raises(InvalidParameterError):
        IntSet((0,))
    with pytest.raises(InvalidParameterError):
        IntSet((1, 1))


def test_intset_restriction_and_largest():
    s = IntSet.of([2, 4, 9])
    assert s.upto(4).elements == (2, 4)
    assert s.upto(0).elements == ()
    assert s.largest() == 9
    with pytest.raises(InvalidParameterError):
        IntSet.of([]).largest()


def test_parse_set_text_accepts_comments_and_blanks():
    text = "# header\n1\n\n5\n  # trailing comment\n9\n"
    assert parse_set_text(text).elements == (1, 5, 9)


def test_parse_set_text_rejects_bad_lines():
    with pytest.raises(InvalidParameterError) as err:
        parse_set_text("1\n0\n")
    assert "line 2" in str(err.value)
    with pytest.raises(InvalidParameterError) as err:
        parse_set_text("x\n")
    assert "line 1" in str(err.value)


def test_format_is_one_element_per_line():
    assert format_set_text(IntSet.of([3, 1, 2])) == "1\n2\n3\n"
    assert format_set_text(IntSet.of([])) == ""


@given(small_sets)
def test_parse_format_round_trip(values):
    s = IntSet.of(values)
    assert parse_set_text(format_set_text(s)) == s


def test_file_round_trip(tmp_path):
    path = tmp_path / "set.txt"
    s = IntSet.of([4, 1, 77])
    write_set_file(str(path), s)
    assert read_set_file(str(path)) == s


def routing_corpus():
    """Dense small sets (periodic traffic) and sparse sets below 10^6 (extraction traffic).

    Sizes run through the range where the cost estimate changes its mind,
    and half of the sets are made k-sum-free so no route can stop early.
    """
    rng = random.Random(2014)
    for k in (2, 3, 4, 5):
        for n in (2, 4, 8, 16, 24, 40):
            for top in (3 * n, 30 * n, 10**6):
                values = rng.sample(range(1, top + 1), n)
                yield values, k
                yield [a for a in values if a % (k + 1) == 1] or [1], k


def test_predicate_routes_agree_on_both_sides_of_the_routing_boundary():
    chosen = set()
    for values, k in routing_corpus():
        s = IntSet.of(values)
        expected = not naive_violations(s.elements, k)
        assert core._bitset_route(s.elements, k) == expected
        assert core._enumeration_route(s.elements, k) == expected
        assert is_k_sum_free(s, k) == expected
        chosen.add(core._enumeration_is_cheaper(s.elements, k))
    assert chosen == {True, False}


def test_cost_estimate_routes_dense_sets_to_bitsets_and_sparse_sets_to_enumeration():
    odd = IntSet.of(range(1, 400, 2))
    assert not core._enumeration_is_cheaper(odd.elements, 2)
    sparse = IntSet.of(random.Random(7).sample(range(1, 10**6), 40))
    for k in (2, 3, 4, 5):
        assert core._enumeration_is_cheaper(sparse.elements, k)


def formed_estimate(elements, k):
    """The route estimate with every product formed in full, as the library once costed it."""
    n, top = len(elements), elements[-1]
    spread = factorial(k) * (2 * sum(elements)) ** k
    share = min((n * top) ** k, spread)
    enumeration = comb(n + k - 1, k) * share * core._ENUMERATION_STEP_BITS
    bitset = (k - 1) * n * (core._ENUMERATION_STEP_BITS + top) * spread
    return enumeration < bitset


def test_cost_estimate_decides_as_the_fully_formed_products_do():
    rng = random.Random(1)
    cases = []
    for _ in range(600):
        # elements below 10^j beside one up to 10^6, so n·max A reaches far past
        # 2·sum A as well as below it
        values = rng.sample(range(1, 10 ** rng.randint(2, 6)), rng.randint(0, 39))
        cases.append((sorted({*values, rng.randint(1, 10**6)}), rng.randint(2, 12)))
    for k in (100, 1000, 10**4):
        for n in range(1, 6):
            cases.append((sorted(rng.sample(range(1, 60), n)), k))
            cases.append(([1, *rng.sample(range(k // 2, 2 * k), n)], k))
    # a dense block where both bounds settle, the second one for the bitset route
    cases.append((list(range(1000, 2000)), 20))
    decisions = set()
    for elements, k in cases:
        decision = core._enumeration_is_cheaper(tuple(elements), k)
        assert decision == formed_estimate(elements, k), (elements, k)
        decisions.add(decision)
    assert decisions == {True, False}


def test_small_bitset_caps_force_enumeration(monkeypatch):
    def refuse(elements, k):
        raise AssertionError("bitset route taken under a cap below the largest element")

    monkeypatch.setattr(core, "_bitset_route", refuse)
    for values, k in routing_corpus():
        s = IntSet.of(values)
        if s.largest() < 2:
            continue
        expected = not naive_violations(s.elements, k)
        assert is_k_sum_free(s, k, bitset_cap=0) == expected
        assert is_k_sum_free(s, k, bitset_cap=1) == expected


_odds = IntSet.of(range(1, 100, 2))
_grid = folner.FolnerGrid(2, 2)
_rng = random.Random(0)
_uniform = measures.uniform_measure(2)
# (id, minimum, call) for each integer parameter behind core._require_int
GUARDED_CALLS = [
    ("arity", 2, lambda v: is_k_sum_free(_odds, v)),
    ("IntSet.of", 1, lambda v: IntSet.of([v, 3])),
    ("upto", 0, lambda v: _odds.upto(v)),
    ("first_primes", 0, lambda v: folner.first_primes(v)),
    ("FolnerGrid.prime_count", 1, lambda v: folner.FolnerGrid(v, 2)),
    ("FolnerGrid.exponent_bound", 1, lambda v: folner.FolnerGrid(2, v)),
    ("defect_closed_form", 1, lambda v: folner.defect_closed_form(_grid, v)),
    ("defect", 1, lambda v: folner.defect(_grid, v)),
    ("set_dilation_defect", 1, lambda v: folner.set_dilation_defect(_odds, v)),
    # the function's only guard on k: exit 2 for k < 2 rests on it
    ("extract_dilate_exhaustive.k", 2, lambda v: dilation.extract_dilate_exhaustive(_odds, v)),
    ("from_weights", 1, lambda v: measures.RationalMeasure.from_weights({v: 1})),
    ("uniform_measure", 1, lambda v: measures.uniform_measure(v)),
    ("pushforward_scale", 1, lambda v: measures.pushforward_scale(_uniform, v)),
    ("NuSchedule", 1, lambda v: measures.NuSchedule((v,), (0,), Fraction(1, 4), 2)),
    ("NuSchedule.block_ends", 0,
     lambda v: measures.NuSchedule((1, 2, 3), (0, v), Fraction(1, 4), 2)),
    ("build_mu.i_max", 1, lambda v: measures.build_mu(v, 2, 2, measures.uniform_measure)),
    ("build_mu.q", 1, lambda v: measures.build_mu(2, v, 2, measures.uniform_measure)),
    ("build_mu.n_start", 1, lambda v: measures.build_mu(2, 2, 2, measures.uniform_measure, v)),
    ("density", 1, lambda v: periodic.density(_odds, v)),
    ("ResidueSet", 1, lambda v: periodic.ResidueSet(v, frozenset())),
    ("ResidueSet.of", 1, lambda v: periodic.ResidueSet.of(v, [1])),
    ("periodic_hull.n0", 1, lambda v: periodic.periodic_hull(_odds, v, 2)),
    ("periodic_hull.modulus", 1, lambda v: periodic.periodic_hull(_odds, 10, v)),
    ("find_ap.n0", 1, lambda v: periodic.find_ap(_odds, v, 3, 2)),
    ("find_ap.ap_length", 1, lambda v: periodic.find_ap(_odds, 50, v, 2)),
    ("find_ap.modulus", 1, lambda v: periodic.find_ap(_odds, 50, 3, v)),
    ("geometric_schedule.start", 1, lambda v: periodic.geometric_schedule(v, 3, 4)),
    ("geometric_schedule.count", 0, lambda v: periodic.geometric_schedule(2, 3, v)),
    ("fls_step.ap_length", 1,
     lambda v: periodic.fls_step(_odds, 2, 100, 2, v, Fraction(1, 6))),
    ("fls_step.n0", 1, lambda v: periodic.fls_step(_odds, 2, v, 2, 3, Fraction(1, 6))),
    ("verify_density_drop.n0", 1,
     lambda v: periodic.verify_density_drop(replace(_drop, n0=v), 2)),
    ("check_translate_inequality.n", 1,
     lambda v: periodic.check_translate_inequality(_odds, v, 1, 2, 3, 2)),
    ("check_translate_inequality.x", 1,
     lambda v: periodic.check_translate_inequality(_odds, 50, v, 2, 3, 2)),
    ("check_translate_inequality.m", 1,
     lambda v: periodic.check_translate_inequality(_odds, 50, 1, v, 3, 2)),
    ("check_translate_inequality.i", 1,
     lambda v: periodic.check_translate_inequality(_odds, 50, 1, 2, v, 2)),
    ("random_int_set.size", 1, lambda v: harness.random_int_set(_rng, v, 100)),
    ("random_int_set.magnitude", 5, lambda v: harness.random_int_set(_rng, 5, v)),
    ("grow_k_sum_free", 1, lambda v: harness.grow_k_sum_free(2, v)),
    ("grow_k_sum_free.seed_elements", 1,
     lambda v: harness.grow_k_sum_free(2, 50, seed_elements=(v,))),
    ("find_progressions.max_step", 1, lambda v: harness.find_progressions(_odds, 50, 2, v)),
    ("run_ratio_experiment", 1, lambda v: experiments.run_ratio_experiment(2, v)),
    ("run_defect_experiment.a", 1, lambda v: experiments.run_defect_experiment(v, 2)),
    ("run_defect_experiment.m_max", 1, lambda v: experiments.run_defect_experiment(2, v)),
    ("run_extraction_experiment", 1,
     lambda v: experiments.run_extraction_experiment(2, v, 5, 0)),
]


@pytest.mark.parametrize("kind", ["bool", "float", "below-minimum"])
@pytest.mark.parametrize(
    "low, call", [c[1:] for c in GUARDED_CALLS], ids=[c[0] for c in GUARDED_CALLS]
)
def test_integer_parameters_reject_bools_floats_and_values_below_the_minimum(low, call, kind):
    bad = {"bool": True, "float": 2.5, "below-minimum": low - 1}[kind]
    with pytest.raises(InvalidParameterError, match="integer"):
        call(bad)


_drop = harness.random_drop_instance(2, random.Random(5))

# (id, call) for each eps, ratio, weight or coefficient behind core._require_rational
RATIONAL_CALLS = [
    ("min_ap_length", lambda v: periodic.min_ap_length(2, v)),
    ("fls_step", lambda v: periodic.fls_step(_odds, 2, 100, 2, 3, v)),
    ("verify_density_drop", lambda v: periodic.verify_density_drop(replace(_drop, eps=v), 2)),
    ("verify_density_drop.ratio",
     lambda v: periodic.verify_density_drop(replace(_drop, ratio=v), 2)),
    ("geometric_schedule", lambda v: periodic.geometric_schedule(2, v, 4)),
    ("NuSchedule", lambda v: measures.NuSchedule((1,), (0,), v, 2)),
    ("from_weights", lambda v: measures.RationalMeasure.from_weights({1: v})),
    ("mix", lambda v: measures.mix([Fraction(1, 2), v], [_uniform, _uniform])),
]


@pytest.mark.parametrize(
    "bad", [1 / 6, True, "1/6", float("nan"), float("inf")],
    ids=["float", "bool", "str", "nan", "inf"],
)
@pytest.mark.parametrize("call", [c[1] for c in RATIONAL_CALLS], ids=[c[0] for c in RATIONAL_CALLS])
def test_eps_and_ratios_reject_floats_bools_strings_nan_and_inf(call, bad):
    with pytest.raises(InvalidParameterError, match="must be an int or a Fraction"):
        call(bad)


@pytest.mark.parametrize(
    "name, bad",
    [(name, v) for name in ("min_ap_length", "fls_step", "verify_density_drop", "NuSchedule")
     for v in (0, Fraction(-1, 6))]
    + [("geometric_schedule", v) for v in (1, Fraction(1, 2))],
    ids=str,
)
def test_eps_at_or_below_zero_and_ratios_at_or_below_one_are_refused(name, bad):
    with pytest.raises(InvalidParameterError, match="must be an int or a Fraction > "):
        dict(RATIONAL_CALLS)[name](bad)


def test_int_weights_and_coefficients_read_as_their_fractions():
    counting = measures.RationalMeasure.from_weights({2: 1, 5: 3})
    assert counting.weights == {2: Fraction(1), 5: Fraction(3)} and counting.mass == 4
    assert measures.mix([1, 0], [_uniform, counting]) == _uniform


def test_an_int_ratio_reads_as_its_fraction():
    assert periodic.geometric_schedule(2, 3, 2) == periodic.geometric_schedule(2, Fraction(3), 2)
