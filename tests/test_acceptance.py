"""Whole-package acceptance checks with explicit runtime budgets.

Each test is one headline guarantee, exercised at corpus scale with
seeded randomness and a wall-clock ceiling.  Tolerances are zero: every
assertion is an exact equality or an exact inequality over rationals.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest

from sumfree import (
    FolnerGrid,
    IntSet,
    PeriodicContainment,
    build_mu,
    build_nu,
    NuSchedule,
    check_translate_inequality,
    defect,
    defect_closed_form,
    extract_dilate_exhaustive,
    fls_step,
    generate,
    geometric_schedule,
    is_k_sum_free,
    is_strongly_k_sum_free,
    max_k_sum_free,
    pushforward_scale,
    serialize_instance,
    uniform_measure,
    verify_density_drop,
)
from sumfree.harness import (
    random_drop_instance,
    random_inequality_case,
    random_int_set,
)


def test_acceptance_1_extraction_guarantee():
    """800 seeded extractions each meet the ceil(n/(k+1)) floor."""
    t0 = time.monotonic()
    for k in (2, 3, 4, 5):
        for trial in range(200):
            rng = random.Random(10_000 * k + trial)
            s = random_int_set(rng, rng.randrange(1, 41), 10**6)
            got = extract_dilate_exhaustive(s, k)
            assert is_k_sum_free(got.subset, k)
            assert got.score == len(got.subset)
            floor = Fraction(len(s), k + 1)
            assert got.score >= math.ceil(floor)
    assert time.monotonic() - t0 < 60


def test_acceptance_2_interval_arcs():
    t0 = time.monotonic()
    for k in range(2, 11):
        # k points of the arc (1/(k^2-1), k/(k^2-1)) sum into (k*lo, k*hi), which
        # straddles 1: it misses the arc mod 1 when it starts at or past hi and
        # its wrapped part ends at or before lo
        lo, hi = Fraction(1, k * k - 1), Fraction(k, k * k - 1)
        assert k * lo < 1 < k * hi and k * lo >= hi and k * hi - 1 <= lo
    assert time.monotonic() - t0 < 1


def test_acceptance_3_grid_fraction_trend():
    """Exact max fractions of the first three diagonal grids.

    The third value is pinned as a regression constant from the solver's
    own optimal answers (three independent search routes agree on it).
    """
    t0 = time.monotonic()
    one = max_k_sum_free(generate(FolnerGrid.diagonal(1)), 2)
    assert Fraction(one.size, 1**1) == 1
    two = max_k_sum_free(generate(FolnerGrid.diagonal(2)), 2)
    assert Fraction(two.size, 2**2) == Fraction(1, 2)
    three = max_k_sum_free(generate(FolnerGrid.diagonal(3)), 2, budget=120.0)
    assert three.status == "optimal"
    assert Fraction(three.size, 3**3) == Fraction(14, 27)
    assert time.monotonic() - t0 < 120


def test_acceptance_4_solver_oracle_equivalence():
    t0 = time.monotonic()
    for trial in range(200):
        rng = random.Random(31_000 + trial)
        k = 2 if trial % 2 == 0 else 3
        size = rng.randrange(1, 19)
        s = random_int_set(rng, size, 200)
        brute = max_k_sum_free(s, k, algo="brute")
        bb = max_k_sum_free(s, k, algo="bb")
        assert brute.size == bb.size
        assert brute.status == bb.status == "optimal"
        assert is_k_sum_free(bb.witness, k)
    assert time.monotonic() - t0 < 120


def test_acceptance_5_defect_law_and_cross_check():
    """2/m on the diagonal, and both defect routes agree across grids.

    Exhaustive over every rectangular grid with b^r <= 10^4 for r >= 2;
    the r = 1 chains are cross-checked up to b = 500, past which their
    elements' sheer digit counts push the enumeration route outside the
    time budget while adding no new structure.
    """
    t0 = time.monotonic()
    for m in range(1, 6):
        grid = FolnerGrid.diagonal(m)
        for p in grid.primes:
            assert defect(grid, p) == Fraction(2, m)
    for r in range(2, 14):
        b = 2
        while b**r <= 10**4:
            grid = FolnerGrid(r, b)
            for a in range(1, 51):
                assert defect(grid, a) == defect_closed_form(grid, a)
            b += 1
    for b in range(1, 501):
        grid = FolnerGrid(1, b)
        for a in range(1, 51):
            assert defect(grid, a) == defect_closed_form(grid, a)
    assert time.monotonic() - t0 < 60


def test_acceptance_6_periodic_machinery(tmp_path):
    """Containment corpora plus 500 + 500 seeded verifier instances."""
    t0 = time.monotonic()

    odds = IntSet.of(range(1, 1001, 2))
    out = fls_step(odds, 2, 100, 2, 3, Fraction(1, 6), geometric_schedule(100, Fraction(192), 200))
    assert isinstance(out, PeriodicContainment)
    one_mod_three = IntSet.of(range(1, 1001, 3))
    out = fls_step(
        one_mod_three, 2, 100, 3, 67, Fraction(1, 150),
        geometric_schedule(100, Fraction(4800), 200),
    )
    assert isinstance(out, PeriodicContainment)

    rng = random.Random(600_001)
    for trial in range(500):
        k = 2 if trial % 2 == 0 else 3
        inst = random_drop_instance(k, rng, mirrored=(trial % 5 == 0))
        if verify_density_drop(inst, k) is not True:
            path = tmp_path / f"drop-falsified-{trial}.json"
            path.write_text(serialize_instance(inst))
            pytest.fail(f"density drop failed; instance serialized to {path}")

    rng = random.Random(600_002)
    for trial in range(500):
        k = 2 if trial % 2 == 0 else 3
        s, n, x, m, i = random_inequality_case(k, rng)
        if check_translate_inequality(s, n, x, m, i, k) is not True:
            pytest.fail(f"translate inequality failed on n={n} x={x} m={m} i={i} k={k}")

    assert time.monotonic() - t0 < 600


def test_acceptance_7_measure_algebra():
    t0 = time.monotonic()
    rng = random.Random(777)
    for _ in range(100):
        scales = []
        cur = rng.randrange(1, 6)
        for _ in range(rng.randrange(1, 7)):
            scales.append(cur)
            cur = cur * rng.randrange(2, 6) + rng.randrange(0, 4)
        boundary = sorted(rng.sample(range(len(scales)), rng.randrange(1, len(scales) + 1)))
        if boundary[0] != 0:
            boundary = [0] + boundary
        sch = NuSchedule(tuple(scales), tuple(boundary), Fraction(1, rng.randrange(2, 30)), 2)
        assert build_nu(sch).mass == 1
        mu = build_mu(rng.randrange(1, 5), rng.randrange(1, 5), rng.choice([2, 3]),
                      uniform_measure, n_start=rng.randrange(1, 6))
        assert mu.mass == 1
    for q1 in range(1, 11):
        for q2 in range(1, 11):
            for n in (1, 4, 7):
                mu = uniform_measure(n)
                assert pushforward_scale(pushforward_scale(mu, q1), q2) == pushforward_scale(
                    mu, q1 * q2
                )
    # four steps contract the starting weight to (2/3)^4 <= 2/10, and three do not
    assert Fraction(2, 3) ** 4 <= Fraction(2, 10) < Fraction(2, 3) ** 3
    assert time.monotonic() - t0 < 30


def test_acceptance_8_strongly_sum_free():
    t0 = time.monotonic()
    for trial in range(200):
        rng = random.Random(88_000 + trial)
        k = rng.randrange(2, 6)
        s = random_int_set(rng, rng.randrange(1, 13), 60)
        expected = all(is_k_sum_free(s, ell) for ell in range(2, k + 1))
        assert is_strongly_k_sum_free(s, k) == expected
    for seed in range(5):
        rng = random.Random(seed)
        s = random_int_set(rng, 12, 60)
        plain = max_k_sum_free(s, 2, algo="brute")
        strong = max_k_sum_free(s, 2, algo="brute", strong=True)
        assert plain == strong
    assert time.monotonic() - t0 < 30
