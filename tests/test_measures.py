"""Tests for exact rational measures and the contraction construction."""

from __future__ import annotations

import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sumfree import (
    IntSet,
    InvalidParameterError,
    NuSchedule,
    RationalMeasure,
    ResourceLimitError,
    build_mu,
    build_nu,
    difference_kernel,
    extract_dilate_measure,
    is_k_sum_free,
    mix,
    parse_measure,
    periodic_hull,
    pushforward_scale,
    serialize_measure,
    uniform_measure,
)

fractions = st.fractions(min_value=0, max_value=1)
small_sets = st.sets(st.integers(min_value=1, max_value=30), max_size=10)


def evaluate(m: RationalMeasure, s: IntSet) -> Fraction:
    """Oracle: the measure of s, its support points' weights added one Fraction at a time."""
    return sum((w for point, w in m.weights.items() if point in s), Fraction(0))


def contraction_index(k: int, eps: Fraction) -> int:
    """Oracle: the least i >= 1 with (k/(k+1))^i <= 2*eps."""
    return next(i for i in range(1, 1000) if Fraction(k, k + 1) ** i <= 2 * eps)


def start_weight(k: int, steps: int) -> Fraction:
    """The weight build_mu keeps on its starting measure after `steps` mixing steps.

    At Q = 1 the pushforward is the identity, and a provider that answers n with
    the point mass at n + 1 puts each fresh measure on a new point, so the
    starting point 2 keeps exactly the weight that the mixing leaves it.
    """

    def shifted(n):
        return RationalMeasure.from_weights({n + 1: 1})

    return build_mu(steps + 1, 1, k, shifted).weight_at(2)


def random_measure(rng: random.Random) -> RationalMeasure:
    parts = [uniform_measure(rng.randrange(1, 12)) for _ in range(3)]
    a = Fraction(rng.randrange(0, 5), 7)
    b = Fraction(rng.randrange(0, 3), 7)
    coeffs = [a, b, 1 - a - b] if a + b <= 1 else [a / (a + b), b / (a + b), Fraction(0)]
    coeffs = [c for c in coeffs]
    return mix(coeffs, parts)


def test_uniform_examples():
    point = uniform_measure(1)
    assert point.weights == {1: Fraction(1)}
    assert evaluate(uniform_measure(3), IntSet.of([1, 3])) == Fraction(2, 3)
    assert evaluate(uniform_measure(4), IntSet.of([5])) == 0
    with pytest.raises(InvalidParameterError):
        uniform_measure(0)


def test_mix_examples():
    mu = uniform_measure(4)
    assert mix([Fraction(1)], [mu]) == mu
    blended = mix([Fraction(1, 2), Fraction(1, 2)], [uniform_measure(1), uniform_measure(2)])
    assert blended.weights == {1: Fraction(3, 4), 2: Fraction(1, 4)}
    assert blended.mass == 1


def test_uniform_measure_repr_is_pinned():
    # the benchmark's input digest reads this text
    assert repr(uniform_measure(2)) == (
        "RationalMeasure(weights={1: Fraction(1, 2), 2: Fraction(1, 2)}, "
        "mass=Fraction(1, 1), support_max=2)"
    )


def test_mix_reduces_numerators_sharing_a_factor():
    # the raw numerators 2, 2 over 4 share the factor 2 with their denominator
    half = Fraction(1, 2)
    got = mix([half, half], [uniform_measure(2)] * 2)
    assert got == uniform_measure(2)
    assert (got.numerators, got.denominator) == ({1: 1, 2: 1}, 2)
    thirds = mix([Fraction(1, 3), Fraction(2, 3)], [uniform_measure(3), uniform_measure(3)])
    assert thirds == uniform_measure(3) and thirds.denominator == 3


def test_constructor_reduces_to_lowest_terms():
    m = RationalMeasure({1: 2, 2: 2}, 4)
    assert m == uniform_measure(2)
    assert (m.numerators, m.denominator) == ({1: 1, 2: 1}, 2)
    assert RationalMeasure({3: 6, 1: 4}, 10) == RationalMeasure.from_weights(
        {3: Fraction(3, 5), 1: Fraction(2, 5)}
    )
    assert list(RationalMeasure({3: 6, 1: 4}, 10).numerators) == [3, 1]


@pytest.mark.parametrize(
    "numerators, denominator", [({1: 0}, 1), ({1: 1, 2: -1}, 3), ({1: 1}, 0), ({1: 1}, -2)]
)
def test_constructor_refuses_a_non_positive_numerator_or_denominator(numerators, denominator):
    with pytest.raises(InvalidParameterError):
        RationalMeasure(numerators, denominator)


def test_mix_validates_coefficients():
    with pytest.raises(InvalidParameterError):
        mix([Fraction(1, 2)], [uniform_measure(1), uniform_measure(2)])
    with pytest.raises(InvalidParameterError):
        mix([Fraction(1, 2), Fraction(1, 3)], [uniform_measure(1), uniform_measure(2)])
    with pytest.raises(InvalidParameterError):
        mix([Fraction(3, 2), Fraction(-1, 2)], [uniform_measure(1), uniform_measure(2)])


def test_mix_drops_zero_coefficients_from_support():
    got = mix([Fraction(1), Fraction(0)], [uniform_measure(2), uniform_measure(9)])
    assert got == uniform_measure(2)
    assert got.support_max == 2


def test_mix_of_zero_measures_is_the_zero_measure():
    zero = RationalMeasure.from_weights({})
    assert mix([Fraction(1)], [zero]) == zero
    assert mix([Fraction(1, 2), Fraction(1, 2)], [zero, zero]) == zero
    assert mix([Fraction(1), Fraction(0)], [zero, uniform_measure(3)]) == zero


def test_pushforward_examples():
    assert pushforward_scale(uniform_measure(1), 3).weights == {3: Fraction(1)}
    assert pushforward_scale(uniform_measure(2), 2).weights == {
        2: Fraction(1, 2),
        4: Fraction(1, 2),
    }


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=8))
def test_pushforward_preserves_mass_onto_multiples(n, q):
    mu = uniform_measure(n)
    pushed = pushforward_scale(mu, q)
    assert pushed.mass == mu.mass
    assert pushed.support_max == q * mu.support_max
    multiples = IntSet.of(range(q, q * n + 1, q))
    assert evaluate(pushed, multiples) == mu.mass
    off_multiples = IntSet.of(x for x in range(1, q * n + 1) if x % q)
    assert evaluate(pushed, off_multiples) == 0


@given(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
)
def test_pushforward_composition(n, q1, q2):
    mu = uniform_measure(n)
    assert pushforward_scale(pushforward_scale(mu, q1), q2) == pushforward_scale(mu, q1 * q2)


def test_evaluate_examples():
    mu = uniform_measure(6)
    assert evaluate(mu, IntSet.of([])) == 0
    assert evaluate(mu, IntSet.of(range(1, 7))) == 1
    assert evaluate(mu, IntSet.of([1, 2, 3, 6])) == Fraction(2, 3)


@given(small_sets, st.randoms(use_true_random=False))
def test_evaluate_is_linear_in_the_measure(values, rng):
    s = IntSet.of(values)
    mu = uniform_measure(rng.randrange(1, 15))
    nu = uniform_measure(rng.randrange(1, 15))
    c = Fraction(rng.randrange(0, 8), 7)
    blended = mix([c, 1 - c], [mu, nu])
    assert evaluate(blended, s) == c * evaluate(mu, s) + (1 - c) * evaluate(nu, s)


@pytest.mark.parametrize(
    "build",
    [
        lambda k: NuSchedule((5, 10), (0, 1), Fraction(1, 4), k),
        lambda k: build_mu(2, 2, k, uniform_measure),
        lambda k: extract_dilate_measure(IntSet.of([1]), IntSet.of([1]), uniform_measure(2), k),
    ],
    ids=["NuSchedule", "build_mu", "extract_dilate_measure"],
)
def test_non_integer_arity_rejected(build):
    with pytest.raises(InvalidParameterError, match="integer"):
        build(2.5)


def test_nu_schedule_validation():
    with pytest.raises(InvalidParameterError):
        NuSchedule((), (0,), Fraction(1, 4), 2)
    with pytest.raises(InvalidParameterError):
        NuSchedule((5, 5), (0, 1), Fraction(1, 4), 2)
    with pytest.raises(InvalidParameterError):
        NuSchedule((5, 10), (1,), Fraction(1, 4), 2)
    with pytest.raises(InvalidParameterError):
        NuSchedule((5, 10), (0, 5), Fraction(1, 4), 2)
    with pytest.raises(InvalidParameterError):
        NuSchedule((5, 10), (0, 1), Fraction(0), 2)


def test_nu_schedule_refuses_block_boundaries_that_do_not_increase():
    for ends in [(0, 2, 1), (0, 1, 1)]:
        with pytest.raises(InvalidParameterError, match="block boundar"):
            NuSchedule((1, 2, 3, 4), ends, Fraction(1, 4), 2)


def test_build_nu_degenerate_schedule_is_uniform():
    sch = NuSchedule((7,), (0,), Fraction(1, 4), 2)
    assert build_nu(sch) == uniform_measure(7)


def test_build_nu_block_structure():
    # blocks average uniforms, then blocks average together
    sch = NuSchedule((2, 4, 8), (0, 2), Fraction(1, 4), 2)
    nu = build_nu(sch)
    inner = mix([Fraction(1, 2), Fraction(1, 2)], [uniform_measure(4), uniform_measure(8)])
    expected = mix([Fraction(1, 2), Fraction(1, 2)], [uniform_measure(2), inner])
    assert nu == expected
    assert nu.mass == 1
    assert nu.support_max == 8
    assert evaluate(nu, IntSet.of(range(1, 9))) == 1


def test_build_nu_on_a_dense_schedule_is_linear_in_the_top_scale():
    # 200 scales below 10^4 sum to about 10^6 points: a build that held one uniform
    # measure per scale would peak near 100 MB, one walk over 1..10^4 stays near 1 MB
    scales = tuple(range(50, 10_001, 50))
    schedule = NuSchedule(scales, (0, len(scales) - 1), Fraction(1, 4), 2)
    tracemalloc.start()
    try:
        nu = build_nu(schedule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 300 * scales[-1]
    assert (nu.mass, nu.support_max, len(set(nu.weights.values()))) == (1, 10_000, 200)
    top_weight = Fraction(1, 2 * (len(scales) - 1) * scales[-1])
    assert nu.weight_at(scales[-1]) == top_weight


def test_build_nu_mass_one_on_random_schedules():
    rng = random.Random(99)
    for _ in range(50):
        scales = []
        cur = rng.randrange(1, 5)
        for _ in range(rng.randrange(1, 6)):
            scales.append(cur)
            cur = cur * rng.randrange(2, 5) + rng.randrange(0, 3)
        count = len(scales)
        boundary = sorted(rng.sample(range(count), rng.randrange(1, count + 1)))
        if boundary[0] != 0:
            boundary = [0] + boundary
        sch = NuSchedule(tuple(scales), tuple(boundary), Fraction(1, 8), 2)
        nu = build_nu(sch)
        assert nu.mass == 1
        # support reaches the scale at the last block boundary
        assert nu.support_max == scales[boundary[-1]]


def test_build_mu_examples():
    base = uniform_measure(5)
    assert build_mu(1, 2, 2, uniform_measure, n_start=5) == base
    mu2 = build_mu(2, 2, 2, uniform_measure, n_start=1)
    assert mu2.weights == {1: Fraction(1, 6), 2: Fraction(5, 6)}


def test_build_mu_mass_and_support_tracking():
    for i_max in range(1, 6):
        mu = build_mu(i_max, 3, 2, uniform_measure, n_start=2)
        assert mu.mass == 1
    prev = build_mu(3, 3, 2, uniform_measure, n_start=2)
    nxt = build_mu(4, 3, 2, uniform_measure, n_start=2)
    requested = 3 * prev.support_max
    assert nxt.support_max == max(requested, uniform_measure(requested).support_max)


def test_build_mu_recursion_structure():
    q, k = 2, 2
    mu1 = build_mu(1, q, k, uniform_measure, n_start=3)
    mu2 = build_mu(2, q, k, uniform_measure, n_start=3)
    expected = mix(
        [Fraction(k, k + 1), Fraction(1, k + 1)],
        [pushforward_scale(mu1, q), uniform_measure(q * mu1.support_max)],
    )
    assert mu2 == expected


def test_build_mu_validates_provider_mass():
    def broken(n):
        return RationalMeasure({1: 1}, 2)

    with pytest.raises(InvalidParameterError):
        build_mu(2, 2, 2, broken)


def test_build_mu_refuses_a_scale_past_the_support_cap_before_building_it():
    requests = []

    def recording(n):
        requests.append(n)
        return uniform_measure(n)

    # requests 1, 10^3, 10^6, 10^9: the last passes SUPPORT_CAP, so nothing is built
    with pytest.raises(ResourceLimitError) as caught:
        build_mu(4, 1000, 2, recording)
    assert caught.value.required == 10**9
    assert requests == []

    def oversupplying(n):
        requests.append(n)
        return RationalMeasure.from_weights({1000 * n: 1})

    # supports reach 10^3 and then 10^7, so the third request, 10^8, is refused
    with pytest.raises(ResourceLimitError) as caught:
        build_mu(4, 10, 2, oversupplying)
    assert caught.value.required == 10**8
    assert requests == [1, 10**4]


def test_build_mu_refuses_requests_summing_past_twice_the_support_cap_before_building_any():
    def unreachable(n):
        raise AssertionError(f"provider called at {n}")

    def point_mass(n):
        return RationalMeasure.from_weights({n: 1})

    # at Q = 1 every request is n_start, so the step count alone sets the sum
    for i_max, n_start in [(10**9, 1), (4, 10**6), (21, 10**5)]:
        with pytest.raises(ResourceLimitError, match="requests sum") as caught:
            build_mu(i_max, 1, 2, unreachable, n_start=n_start)
        assert caught.value.required == i_max * n_start
    assert build_mu(20, 1, 2, point_mass, n_start=10**5) == point_mass(10**5)

    requests = []

    def drifting(n):
        requests.append(n)
        return RationalMeasure.from_weights({n + 10**5: 1})

    # a provider that over-supplies raises each request by 10^5: the seventh would bring
    # the sum to 2100007, so it is refused unmade
    with pytest.raises(ResourceLimitError, match="requests sum") as caught:
        build_mu(10, 1, 2, drifting)
    assert caught.value.required == 2_100_007
    assert requests == [1 + j * 10**5 for j in range(6)]


def test_build_mu_stops_at_its_fixed_point():
    requests = []

    def recording(n):
        requests.append(n)
        return uniform_measure(n)

    # at Q = 1 the second step mixes the start with itself: every later step would repeat it
    assert build_mu(50, 1, 2, recording) == uniform_measure(1)
    assert requests == [1, 1]
    # at Q = 2 the support doubles each step, so no mixture repeats its input
    requests.clear()
    build_mu(5, 2, 2, recording)
    assert requests == [1, 2, 4, 8, 16]


def test_contraction_index_examples():
    # build_mu keeps (k/(k+1))^i on its start after i steps: the least i at or below 2*eps
    for k, eps, i in [(2, Fraction(1, 10), 4), (2, Fraction(1, 3), 1), (9, Fraction(1, 10), 16)]:
        assert contraction_index(k, eps) == i
        assert start_weight(k, i) <= 2 * eps < start_weight(k, i - 1)


def test_contraction_index_minimality():
    for k in (2, 3, 7):
        for eps in (Fraction(1, 10), Fraction(1, 50), Fraction(2, 9)):
            i = contraction_index(k, eps)
            ratio = Fraction(k, k + 1)
            assert start_weight(k, i) == ratio**i <= 2 * eps
            if i > 1:
                assert start_weight(k, i - 1) == ratio ** (i - 1) > 2 * eps


def test_serialize_measure_format_and_round_trip():
    blended = mix([Fraction(1, 2), Fraction(1, 2)], [uniform_measure(1), uniform_measure(2)])
    text = serialize_measure(blended)
    assert text == "1 3/4\n2 1/4\n"
    assert parse_measure(text) == blended


@given(st.randoms(use_true_random=False))
def test_serialize_round_trip_random(rng):
    mu = random_measure(rng)
    text = serialize_measure(mu)
    lines = [line for line in text.splitlines() if line]
    points = [int(line.split()[0]) for line in lines]
    assert points == sorted(points)
    assert parse_measure(text) == mu


def test_parse_measure_rejects_garbage():
    with pytest.raises(InvalidParameterError):
        parse_measure("1 not-a-rational\n")
    with pytest.raises(InvalidParameterError):
        parse_measure("0 1/2\n")
    with pytest.raises(InvalidParameterError):
        parse_measure("2 -1/2\n")


def test_parse_measure_refuses_a_line_with_three_fields():
    with pytest.raises(InvalidParameterError, match="line 2: expected 'point num/den'"):
        parse_measure("1 1/2\n2 1/4 1/4\n")


def test_parse_measure_refuses_a_duplicate_support_point():
    with pytest.raises(InvalidParameterError, match="line 3: duplicate support point 1"):
        parse_measure("1 1/4\n2 1/2\n1 1/4\n")


def test_contraction_bound_on_periodic_corpus():
    """Weighted density of odd-hulled sum-free sets stays near 1/(k+1).

    Instantiates the contraction recursion at k=2, Q=2 with uniform base
    measures and checks the advertised ceiling 1/(k+1) + 4*eps over a
    seeded corpus of thinned odd sets, all of which have a residue-clean
    hull mod 2.  The recursion pushes most weight onto even numbers,
    which such sets never touch, so the bound holds with lots of room.
    """
    k, q = 2, 2
    eps = Fraction(1, 10)
    i_max = contraction_index(k, eps)
    assert i_max == 4
    mu = build_mu(i_max, q, k, uniform_measure, n_start=3)
    assert mu.mass == 1
    ceiling = Fraction(1, k + 1) + 4 * eps
    rng = random.Random(4242)
    for _ in range(100):
        keep = rng.uniform(0.2, 1.0)
        s = IntSet.of(x for x in range(1, mu.support_max + 1, 2) if rng.random() < keep)
        assert is_k_sum_free(s, k)
        hull = periodic_hull(s, mu.support_max, q)
        assert difference_kernel(hull, k) == hull
        assert evaluate(mu, s) <= ceiling


# The measure layer sums on integer numerators over a common denominator.  The
# oracles below add one Fraction at a time, the way `evaluate` does.


def nu_weights_by_fractions(schedule: NuSchedule) -> dict:
    """Each scale's weight added to every point it covers, one Fraction at a time."""
    outer = Fraction(1, schedule.t + 1)
    accumulated: dict = {}
    previous_end = -1
    for end in schedule.block_ends:
        block = range(previous_end + 1, end + 1)
        for i in block:
            n = schedule.n_sequence[i]
            w = outer * Fraction(1, len(block)) * Fraction(1, n)
            for point in range(1, n + 1):
                accumulated[point] = accumulated.get(point, Fraction(0)) + w
        previous_end = end
    return accumulated


def mix_weights_by_fractions(coefficients, measures) -> dict:
    accumulated: dict = {}
    for c, m in zip(coefficients, measures):
        if c == 0:
            continue
        for point, weight in m.weights.items():
            accumulated[point] = accumulated.get(point, Fraction(0)) + c * weight
    return accumulated


def assert_measure_is(m: RationalMeasure, weights: dict) -> None:
    """Same weights in the same order, all Fractions; lowest terms; mass and support as summed."""
    assert math.gcd(m.denominator, *m.numerators.values()) == 1
    assert list(m.weights.items()) == list(weights.items())
    assert all(type(w) is Fraction for w in m.weights.values())
    assert type(m.mass) is Fraction
    assert m.mass == evaluate(m, IntSet.of(weights))
    assert m.support_max == max(weights, default=0)


def seeded_schedule(rng: random.Random, shape: str) -> NuSchedule:
    count = 1 if shape == "single-scale" else rng.randrange(2, 7)
    scales = [rng.randrange(1, 9)]
    for _ in range(count - 1):
        scales.append(scales[-1] * rng.randrange(2, 6) + rng.randrange(0, 4))
    if shape == "uneven-blocks":
        ends = [0] + sorted(rng.sample(range(1, count), rng.randrange(1, count)))
    else:
        ends = list(range(count))
    return NuSchedule(tuple(scales), tuple(ends), Fraction(1, rng.randrange(2, 30)), 2)


@pytest.mark.parametrize("shape", ["single-scale", "one-block-per-scale", "uneven-blocks"])
def test_build_nu_matches_the_fraction_by_fraction_sum(shape):
    rng = random.Random(f"nu-{shape}")
    for _ in range(25):
        schedule = seeded_schedule(rng, shape)
        assert_measure_is(build_nu(schedule), nu_weights_by_fractions(schedule))


def test_mix_matches_the_fraction_by_fraction_sum():
    tiny = Fraction(1, 10**30)
    far = RationalMeasure.from_weights({1: tiny, 2: Fraction(1, 3) - tiny, 5: Fraction(2, 3)})
    cases = [
        ([Fraction(1, 2), 0, Fraction(1, 2)], [uniform_measure(3), far, uniform_measure(9)]),
        ([0, 1], [uniform_measure(4), uniform_measure(6)]),
        ([1, Fraction(0)], [far, uniform_measure(9)]),
        ([Fraction(1, 3), Fraction(2, 3)], [far, uniform_measure(10)]),
        ([tiny, 1 - tiny], [uniform_measure(3), far]),
        (
            [Fraction(2, 3), tiny, Fraction(1, 3) - tiny],
            [pushforward_scale(far, 7), far, uniform_measure(5)],
        ),
    ]
    rng = random.Random(31)
    for _ in range(20):
        cases.append(([Fraction(1, 4), Fraction(3, 4)], [random_measure(rng), random_measure(rng)]))
    for coefficients, measures in cases:
        expected = mix_weights_by_fractions(coefficients, measures)
        assert_measure_is(mix(coefficients, measures), expected)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_build_mu_matches_the_fraction_by_fraction_sum(k):
    for i_max, q, n_start in [(1, 2, 3), (3, 2, 1), (4, 3, 2), (5, 2, 5)]:
        mu = uniform_measure(n_start)
        for _ in range(i_max - 1):
            parts = [pushforward_scale(mu, q), uniform_measure(q * mu.support_max)]
            weights = mix_weights_by_fractions([Fraction(k, k + 1), Fraction(1, k + 1)], parts)
            mu = RationalMeasure.from_weights(weights)
        built = build_mu(i_max, q, k, uniform_measure, n_start=n_start)
        assert_measure_is(built, mu.weights)
        assert built == mu


def test_from_weights_refuses_negative_weights_and_drops_zeros():
    for weight, shown in [(Fraction(-1, 2), "-1/2"), (-1, "-1")]:
        refusal = f"^weights must be >= 0, got {shown} at 5$"
        with pytest.raises(InvalidParameterError, match=refusal):
            RationalMeasure.from_weights({3: Fraction(1, 2), 5: weight})
    with pytest.raises(InvalidParameterError, match=r"^weight at 4 must be an int or a Fraction"):
        RationalMeasure.from_weights({4: 0.5})
    m = RationalMeasure.from_weights({1: 0, 2: Fraction(1, 3), 3: Fraction(0), 4: 2, 9: 0})
    assert m.weights == {2: Fraction(1, 3), 4: Fraction(2)}
    assert all(type(w) is Fraction for w in m.weights.values())
    assert (m.mass, m.support_max) == (Fraction(7, 3), 4)
    assert RationalMeasure.from_weights({1: 0}) == RationalMeasure({}, 1)
