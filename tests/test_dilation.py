"""Tests for the interval, grid, and measure dilation extractions."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumfree import (
    ExtractionResult,
    FolnerGrid,
    IntSet,
    InvalidParameterError,
    ResourceLimitError,
    RationalMeasure,
    extract_dilate_exhaustive,
    extract_dilate_folner,
    extract_dilate_measure,
    generate,
    is_k_sum_free,
    max_k_sum_free,
    set_dilation_defect,
    uniform_measure,
)
from sumfree.dilation import (
    DEFAULT_SWEEP_CAP,
    _breakpoint_free,
    _descend,
    _region_midpoint,
    _slice_members,
    _sweep,
)


def erdos_arc(k: int) -> tuple[Fraction, Fraction]:
    """Oracle: the open arc (1/(k^2-1), k/(k^2-1)) that the dilation kernels hardcode."""
    p = k * k - 1
    return Fraction(1, p), Fraction(k, p)


def slice_members(s: IntSet, x: Fraction, k: int) -> IntSet:
    """Oracle: which elements a have frac(a*x) inside the open arc."""
    lo, hi = erdos_arc(k)
    picked = []
    for a in s:
        frac = (a * x) % 1
        if lo < frac < hi:
            picked.append(a)
    return IntSet.of(picked)


small_sets = st.sets(st.integers(min_value=1, max_value=100), min_size=1, max_size=12)


def test_interval_examples():
    # the kernel's arc for k = 2, 3 and 10, probed on a grid that holds both endpoints
    for k, lo, hi in [
        (2, Fraction(1, 3), Fraction(2, 3)),
        (3, Fraction(1, 8), Fraction(3, 8)),
        (10, Fraction(1, 99), Fraction(10, 99)),
    ]:
        assert erdos_arc(k) == (lo, hi)
        den = 2 * (k * k - 1)
        for j in range(den):
            x = Fraction(j, den)
            assert _slice_members((1,), x, k) == ([1] if lo < x < hi else [])


def test_interval_geometry():
    for k in range(2, 12):
        lo, hi = erdos_arc(k)
        assert hi - lo == Fraction(1, k + 1)
        centre = Fraction(1, 2 * k - 2)
        assert lo + hi == 2 * centre
        assert 0 < lo < hi <= 1


def test_interval_sum_free_for_all_small_k():
    # k points of the arc sum into (k*lo, k*hi), which straddles 1 and misses the arc mod 1
    for k in range(2, 11):
        lo, hi = erdos_arc(k)
        assert k * lo < 1 < k * hi and k * lo >= hi and k * hi - 1 <= lo


def test_interval_endpoint_identities():
    # the arc is exactly the fixed set of the times-k map's escape region
    for k in range(2, 11):
        lo, hi = erdos_arc(k)
        assert k * lo == hi
        assert k * hi == 1 + lo


def test_interval_rejects_bad_arity():
    # k = 1 has no arc, as k^2 - 1 = 0: every extraction refuses it before slicing
    s = IntSet.of([1, 2, 3])
    for method in ("sweep", "descent", "auto"):
        with pytest.raises(InvalidParameterError, match="arity k"):
            extract_dilate_exhaustive(s, 1, method=method)
    f = generate(FolnerGrid(2, 2))
    with pytest.raises(InvalidParameterError, match="arity k"):
        extract_dilate_folner(s, f, IntSet.of([1]), 1)
    with pytest.raises(InvalidParameterError, match="arity k"):
        extract_dilate_measure(f, IntSet.of([1]), uniform_measure(2), 1)


def test_exhaustive_examples():
    single = extract_dilate_exhaustive(IntSet.of([1]), 2)
    assert single.score == 1
    assert single.subset == IntSet.of([1])

    got = extract_dilate_exhaustive(IntSet.of([1, 2, 3]), 2)
    assert got.score == 2
    assert got.method == "sweep"

    ten = extract_dilate_exhaustive(IntSet.of(range(1, 11)), 2)
    assert ten.score >= 4


def test_exhaustive_rejects_empty():
    with pytest.raises(InvalidParameterError):
        extract_dilate_exhaustive(IntSet.of([]), 2)


def test_exhaustive_rejects_an_unknown_method():
    with pytest.raises(InvalidParameterError, match="unknown extraction method 'bisect'"):
        extract_dilate_exhaustive(IntSet.of([1, 5]), 2, method="bisect")


@given(small_sets, st.integers(min_value=2, max_value=4))
@settings(max_examples=40)
def test_sweep_guarantee_and_feasibility(values, k):
    s = IntSet.of(values)
    got = extract_dilate_exhaustive(s, k, method="sweep")
    assert got.score == len(got.subset)
    assert is_k_sum_free(got.subset, k)
    assert got.score >= math.ceil(Fraction(len(s), k + 1))
    assert got.subset == slice_members(s, got.dilator, k)


@given(small_sets, st.integers(min_value=2, max_value=3), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30)
def test_sweep_dominates_random_sampling(values, k, seed):
    s = IntSet.of(values)
    best = extract_dilate_exhaustive(s, k, method="sweep").score
    import random

    rng = random.Random(seed)
    for _ in range(300):
        x = Fraction(rng.randrange(1, 10**6), 10**6)
        assert len(slice_members(s, x, k)) <= best


def test_sweep_matches_dense_sampling_on_small_sets():
    # on coarse sets a fine grid of rationals must reach the sweep value
    s = IntSet.of([1, 2, 3, 4, 5])
    k = 2
    best = extract_dilate_exhaustive(s, k, method="sweep").score
    denom = 2 * sum(s.elements) + 1
    sampled = max(len(slice_members(s, Fraction(j, denom), k)) for j in range(denom))
    assert sampled == best


@given(small_sets, st.integers(min_value=2, max_value=4))
@settings(max_examples=30)
def test_descent_meets_guarantee_and_never_beats_sweep(values, k):
    s = IntSet.of(values)
    down = extract_dilate_exhaustive(s, k, method="descent")
    assert down.method == "descent"
    assert is_k_sum_free(down.subset, k)
    assert down.score >= math.ceil(Fraction(len(s), k + 1))
    assert down.score <= extract_dilate_exhaustive(s, k, method="sweep").score


def test_auto_switches_to_descent_when_sweep_would_be_large():
    s = IntSet.of([10**9 + 1, 2 * 10**9 + 5, 3 * 10**9 + 7])
    got = extract_dilate_exhaustive(s, 2)
    assert got.method == "descent"
    assert got.score >= math.ceil(Fraction(len(s), 3))


@given(small_sets, st.integers(min_value=2, max_value=3), st.integers(min_value=1, max_value=7))
@settings(max_examples=30)
def test_dilation_covariance_of_score(values, k, c):
    s = IntSet.of(values)
    assert (
        extract_dilate_exhaustive(IntSet(tuple(c * a for a in s)), k, method="sweep").score
        == extract_dilate_exhaustive(s, k, method="sweep").score
    )


def test_folner_extraction_empty_inner():
    f = generate(FolnerGrid(2, 2))
    got = extract_dilate_folner(IntSet.of([1, 2, 3]), f, IntSet.of([]), 2)
    assert got.score == 0
    assert got.subset == IntSet.of([])


def test_folner_extraction_singleton():
    f = generate(FolnerGrid(2, 2))
    inner = IntSet.of([2, 3])
    got = extract_dilate_folner(IntSet.of([1]), f, inner, 2)
    assert got.score == 1


def test_folner_extraction_contract():
    grid = FolnerGrid(3, 3)
    f = generate(grid)
    inner = max_k_sum_free(f, 2).witness
    s = IntSet.of(range(1, 9))
    got = extract_dilate_folner(s, f, inner, 2)
    assert is_k_sum_free(got.subset, 2)
    assert got.lower_bound is not None
    assert got.score >= got.lower_bound
    # the advertised bound: density of the inner set minus total defect mass
    delta = Fraction(len(inner), len(f))
    fset = set(f.elements)
    total_defect = sum(
        Fraction(len({a * x for x in fset} ^ fset), len(fset)) for a in s
    )
    assert got.lower_bound == delta * len(s) - total_defect


def test_folner_extraction_validates_inner():
    f = generate(FolnerGrid(2, 2))
    with pytest.raises(InvalidParameterError):
        extract_dilate_folner(IntSet.of([1]), f, IntSet.of([5]), 2)
    with pytest.raises(InvalidParameterError):
        extract_dilate_folner(IntSet.of([1]), f, IntSet.of([1, 2, 3]), 2)


def test_grid_extractions_reject_an_empty_source_or_grid():
    f, inner, empty = generate(FolnerGrid(2, 2)), IntSet.of([2, 3]), IntSet.of([])
    for source, grid in [(empty, f), (IntSet.of([1]), empty)]:
        with pytest.raises(InvalidParameterError, match="source set and the grid must be nonempty"):
            extract_dilate_folner(source, grid, inner, 2)
    with pytest.raises(InvalidParameterError, match="the grid must be nonempty"):
        extract_dilate_measure(empty, empty, uniform_measure(2), 2)


def test_measure_extraction_point_mass():
    f = generate(FolnerGrid(2, 2))
    inner = IntSet.of([2, 3])
    got = extract_dilate_measure(f, inner, uniform_measure(1), 2)
    assert got.score == 1


def test_measure_extraction_uniform_consistency():
    grid = FolnerGrid(2, 3)
    f = generate(grid)
    inner = max_k_sum_free(f, 2).witness
    n = 8
    counting = extract_dilate_folner(IntSet.of(range(1, n + 1)), f, inner, 2)
    weighted = extract_dilate_measure(f, inner, uniform_measure(n), 2)
    assert weighted.score == Fraction(counting.score, n)
    assert weighted.dilator == counting.dilator


def test_measure_extraction_bound():
    grid = FolnerGrid(3, 3)
    f = generate(grid)
    inner = max_k_sum_free(f, 2).witness
    n = 8
    got = extract_dilate_measure(f, inner, uniform_measure(n), 2)
    delta = Fraction(len(inner), len(f))
    fset = set(f.elements)
    eps = max(Fraction(len({a * x for x in fset} ^ fset), len(fset)) for a in range(1, n + 1))
    assert got.score >= delta - eps
    assert sum(uniform_measure(n).weight_at(a) for a in got.subset) == got.score


def measure_extraction_by_fractions(f, inner, m, k):
    """The weighted slice with each dilator's weight summed one Fraction at a time."""
    support = m.support()

    def slice_at(x):
        return tuple(a for a in support if a * x in inner)

    def weight(x):
        return sum((m.weights[a] for a in slice_at(x)), Fraction(0))

    best_x = max(f.elements, key=weight)
    bound = Fraction(len(inner), len(f)) * m.mass - sum(
        m.weights[a] * set_dilation_defect(f, a) for a in support
    )
    return ExtractionResult(best_x, IntSet(slice_at(best_x)), weight(best_x), bound, "measure")


@pytest.mark.parametrize("grid", [(3, 3), (2, 8), (3, 4)])
@pytest.mark.parametrize("k", [2, 3])
def test_measure_extraction_matches_the_fraction_by_fraction_argmax(grid, k):
    f = generate(FolnerGrid(*grid))
    inner = extract_dilate_exhaustive(f, k).subset
    rng = random.Random(f"{grid}-{k}")
    measures = [uniform_measure(12)]
    for _ in range(15):
        points = rng.sample(range(1, 60), rng.randrange(1, 10))
        weights = {a: Fraction(rng.randrange(0, 5), rng.choice([1, 3, 7, 10**30])) for a in points}
        measures.append(RationalMeasure.from_weights(weights))
    for m in measures:
        got = extract_dilate_measure(f, inner, m, k)
        assert got == measure_extraction_by_fractions(f, inner, m, k)
        assert type(got.score) is Fraction and type(got.lower_bound) is Fraction


def test_measure_extraction_ties_go_to_the_first_ascending_dilator():
    # x = 1 slices out {20, 25} and x = 2 slices out {2}: both weigh 1/3, the most
    f = generate(FolnerGrid(3, 3))
    inner = extract_dilate_exhaustive(f, 2).subset
    m = RationalMeasure.from_weights({25: Fraction(1, 6), 20: Fraction(1, 6), 2: Fraction(1, 3)})

    def weight(x):
        return sum((w for a, w in m.weights.items() if a * x in inner), Fraction(0))

    assert max(map(weight, f.elements)) == Fraction(1, 3)
    assert [x for x in f.elements if weight(x) == Fraction(1, 3)][:2] == [1, 2]
    got = extract_dilate_measure(f, inner, m, 2)
    assert got == measure_extraction_by_fractions(f, inner, m, 2)
    assert (got.dilator, got.subset, got.score) == (1, IntSet.of([20, 25]), Fraction(1, 3))


def oracle_sweep(elements, k):
    """Reference sweep: the sliced count at the midpoint of every breakpoint gap.

    Fraction arithmetic and the definition only; returns the maximum count and
    the midpoint of the first gap that attains it.
    """
    p = k * k - 1
    points = {Fraction(0), Fraction(1)}
    for a in elements:
        for j in range(a):
            points.add(Fraction(1 + j * p, p * a))
            points.add(Fraction(k + j * p, p * a))
    ordered = sorted(points)
    best_count, best_mid = -1, Fraction(0)
    s = IntSet(tuple(elements))
    for left, right in zip(ordered, ordered[1:]):
        mid = (left + right) / 2
        count = len(slice_members(s, mid, k))
        if count > best_count:
            best_count, best_mid = count, mid
    return best_count, best_mid


@given(
    st.sets(st.integers(min_value=1, max_value=120), min_size=1, max_size=8),
    st.integers(min_value=2, max_value=5),
)
@settings(max_examples=40, deadline=None)
def test_event_sweep_matches_fraction_oracle(values, k):
    s = IntSet.of(values)
    expected = oracle_sweep(s.elements, k)
    assert _sweep(s.elements, k) == expected
    got = extract_dilate_exhaustive(s, k, method="sweep")
    assert (got.score, got.dilator) == expected


# Dilators of `auto` extraction, recorded from the Fraction-based kernels that
# the integer sweep and descent replaced; `sumfree extract erdos` prints them.
PINNED_DILATORS = [
    (
        (11, 59, 89, 108, 116, 197, 272, 334),
        2, "sweep", Fraction(1565, 11016),
    ),
    (
        (6, 145, 176, 215, 223, 280, 283, 330, 375, 383, 399),
        3, "sweep", Fraction(139, 154280),
    ),
    (
        (62, 64, 85, 89, 136, 156, 158, 194, 288, 303, 318, 337, 366, 370),
        4, "sweep", Fraction(457, 754800),
    ),
    (
        (4, 63, 117, 172, 193, 218, 222, 240, 302, 325, 328, 330, 356, 368, 371, 383,
         387),
        5, "sweep", Fraction(1, 2236),
    ),
    (
        (19, 41, 74, 96, 130, 145, 150, 176, 195, 230, 231, 288, 308, 314, 315, 356,
         364, 383, 386, 398),
        2, "sweep", Fraction(3989, 67936),
    ),
    (
        (11, 14, 19, 91, 115, 151, 156, 172, 205, 212, 215, 219, 258, 263, 271, 292,
         311, 312, 347, 358, 369, 378, 385),
        3, "sweep", Fraction(419, 465080),
    ),
    (
        (147623, 188293, 271878, 458128, 665535, 876916),
        3, "descent", Fraction(61547337961, 996439395072),
    ),
    (
        (43253, 145046, 182560, 221170, 237078, 256630, 627827, 701309, 928074, 949906,
         982212, 987606),
        4, "descent", Fraction(5271683, 5549147010),
    ),
    (
        (2375, 82852, 129593, 361768, 461862, 470385, 501063, 513456, 520900, 578377,
         685558, 692058, 758833, 837436, 847115, 900351, 943898, 964326),
        5, "descent", Fraction(53654311957, 1897166520576),
    ),
    (
        (56244, 109620, 172716, 317849, 392385, 511102, 511212, 573638, 611305, 618975,
         661951, 662439, 663802, 715405, 716751, 759918, 815178, 824959, 857823, 884986,
         917222, 940443, 952407, 960083),
        2, "descent", Fraction(112327761935, 1274490020757),
    ),
    (
        (25696, 88312, 126626, 134438, 136161, 154055, 160127, 169850, 228847, 249741,
         263872, 313294, 343926, 424049, 438695, 445192, 457267, 475312, 489066, 491832,
         546883, 566509, 663888, 681079, 708085, 714978, 735026, 799605, 809971,
         880861),
        3, "descent", Fraction(18779341, 1988197326040),
    ),
    (
        (54323, 75788, 80727, 83508, 109855, 154454, 173794, 205750, 209550, 245404,
         250300, 292263, 355285, 364774, 376318, 386233, 458574, 487541, 497250, 504679,
         517959, 525065, 567378, 572285, 658943, 662889, 667535, 747531, 764094, 767354,
         794343, 798517, 824182, 883560, 886468, 892038),
        4, "descent", Fraction(936827, 3283645400280),
    ),
]


@pytest.mark.parametrize("elements, k, method, dilator", PINNED_DILATORS)
def test_auto_dilators_are_pinned(elements, k, method, dilator):
    got = extract_dilate_exhaustive(IntSet(elements), k)
    assert (got.method, got.dilator) == (method, dilator)


def check_descent(s, k):
    got = extract_dilate_exhaustive(s, k, method="descent")
    assert got.score * (k + 1) >= len(s)
    assert is_k_sum_free(got.subset, k)
    assert got.subset == slice_members(s, got.dilator, k)


@given(
    st.sets(st.integers(min_value=1, max_value=10**300), min_size=1, max_size=8),
    st.integers(min_value=2, max_value=5),
)
@settings(max_examples=25, deadline=None)
def test_descent_guarantee_at_huge_elements(values, k):
    check_descent(IntSet.of(values), k)


def test_descent_localizes_thirty_elements_below_ten_to_sixty():
    # a fixed 200-step bisection cap used to give up on this set
    rng = random.Random(200)
    s = IntSet.of(rng.randrange(1, 10**60) for _ in range(30))
    check_descent(s, 2)


def reference_member_mass(a, k, p, c, s, seen):
    """p*a*s times the length of {x in [0, c/s) : frac(a*x) in the arc}.

    The arcs of a are ((1 + j*p)/(p*a), (k + j*p)/(p*a)), 0 <= j < a: count
    the ones that end by c/s, then add the part of the next one begun there.
    ``seen`` collects the boundary cases met: the midpoint on the start of
    a's first arc, on the end of it, and past the end of its last arc.
    """
    q = c * p * a
    if q == s:
        seen.add("first-start")
    if q == k * s:
        seen.add("first-end")
    full = (q - k * s) // (p * s) + 1
    if full <= 0:
        return max(q - s, 0)
    if full >= a:
        seen.add("all-ended")
        return (k - 1) * a * s
    return (k - 1) * full * s + max(q - (1 + full * p) * s, 0)


def reference_descend(elements, k):
    """The descent with one mass call per member per halving and a breakpoint
    check at every depth; returns the midpoint and the boundary cases met."""
    seen = set()
    p = k * k - 1
    lcm = math.lcm(*elements)
    weighted = [(a, lcm // a) for a in elements]
    c, s = 0, 1
    mass_l, mass_r = 0, (k - 1) * lcm * len(elements)
    for _ in range(2 * (p * elements[-1] ** 2).bit_length() + 2):
        if _breakpoint_free(elements, k, p, c, s):
            return _region_midpoint(elements, k, p, lcm, c, s), seen
        c, s = 2 * c + 1, 2 * s
        mass_m = sum(reference_member_mass(a, k, p, c, s, seen) * w for a, w in weighted)
        mass_l, mass_r = 2 * mass_l, 2 * mass_r
        if 2 * mass_m >= mass_l + mass_r:
            c, mass_r = c - 1, mass_m
        else:
            mass_l = mass_m
    raise AssertionError("reference descent did not localize")


@pytest.mark.parametrize(
    "exponent, per_k, max_size", [(2, 10, 12), (6, 10, 12), (60, 3, 8), (300, 1, 5)]
)
def test_descent_matches_the_reference_descent(exponent, per_k, max_size):
    rng = random.Random(f"descent-oracle/{exponent}")
    for k in range(2, 6):
        for _ in range(per_k):
            size = rng.randrange(1, max_size + 1)
            elements = tuple(sorted({rng.randrange(1, 10**exponent) for _ in range(size)}))
            assert _descend(elements, k) == reference_descend(elements, k)[0]


# found by enumerating small sets: c*p*a = s or k*s at s = 2^d and odd c needs
# p*a*c in {2^d, k*2^d}, so only k = 3 (p = 8) gets there, at a = 2^m or 3*2^m
BOUNDARY_SETS = [
    ((1, 2), 3, {"first-start", "first-end", "all-ended"}),
    ((2, 3), 3, {"first-start", "first-end"}),
    ((1,), 4, {"all-ended"}),
    ((1,), 5, {"all-ended"}),
]


@pytest.mark.parametrize("elements, k, cases", BOUNDARY_SETS)
def test_descent_matches_the_reference_on_arc_boundaries(elements, k, cases):
    midpoint, seen = reference_descend(elements, k)
    assert cases <= seen
    assert _descend(elements, k) == midpoint


def test_every_interval_wider_than_one_over_max_holds_a_breakpoint():
    # the descent skips its breakpoint check while s < max(A); this is why
    rng = random.Random("skip-invariant")
    for k in range(2, 6):
        p = k * k - 1
        for _ in range(6):
            elements = tuple(sorted(rng.sample(range(1, 40), rng.randrange(1, 6))))
            for s in range(1, elements[-1]):
                for c in range(s):
                    assert not _breakpoint_free(elements, k, p, c, s)


def test_explicit_sweep_respects_its_cap(monkeypatch):
    s = IntSet.of([10, 20, 30])  # 2*sum(A) + 2 = 122 breakpoints
    monkeypatch.setattr("sumfree.dilation.DEFAULT_SWEEP_CAP", 122)
    assert extract_dilate_exhaustive(s, 2, method="sweep").method == "sweep"
    monkeypatch.setattr("sumfree.dilation.DEFAULT_SWEEP_CAP", 121)
    with pytest.raises(ResourceLimitError) as caught:
        extract_dilate_exhaustive(s, 2, method="sweep")
    assert caught.value.required == 122


def _sets_at_the_sweep_cap(count):
    """Seeded sets whose sweep needs exactly DEFAULT_SWEEP_CAP breakpoints."""
    rng = random.Random("sweep-cap")
    total = (DEFAULT_SWEEP_CAP - 2) // 2
    for _ in range(count):
        # at most 24 values below 1000 sum to under 24,000, so the top is new
        rest = rng.sample(range(1, 1000), rng.randrange(5, 25))
        yield IntSet.of(rest + [total - sum(rest)])


@pytest.mark.parametrize("k", [2, 3, 4])
def test_sweep_and_descent_agree_at_the_sweep_cap(k):
    for s in _sets_at_the_sweep_cap(4):
        assert 2 * sum(s.elements) + 2 == DEFAULT_SWEEP_CAP
        sweep = extract_dilate_exhaustive(s, k)
        descent = extract_dilate_exhaustive(s, k, method="descent")
        assert sweep.method == "sweep"
        assert sweep.score >= descent.score >= math.ceil(Fraction(len(s), k + 1))
        assert is_k_sum_free(sweep.subset, k) and is_k_sum_free(descent.subset, k)
        # one more at the top is two breakpoints past the cap
        raised = IntSet.of(s.elements[:-1] + (s.elements[-1] + 1,))
        assert extract_dilate_exhaustive(raised, k).method == "descent"
        with pytest.raises(ResourceLimitError) as caught:
            extract_dilate_exhaustive(raised, k, method="sweep")
        assert caught.value.required == DEFAULT_SWEEP_CAP + 2
