"""The four seeded workloads: their inputs, the calls they time, and the checks.

Every item is a ``(kind, params)`` pair.  ``KINDS[kind]`` holds how to run it
(the timed calls into ``sumfree``), how to reduce its result to plain data
(to compare passes), how to check it against a reference that does not share
the timed code path, and its score for ``score_fraction``.  Inputs come from
the benchmark's own seeded code; only ``periodic`` lets ``sumfree.harness``
generate instances, because that generation is the soak being measured.

Batch shapes are fixed (sizes, arities and magnitude bands cycle by item
index) and the seed draws only the elements, so a batch costs about the same
whatever the seed.  That keeps the spread between seeds small enough for the
bounds in BENCHMARK.json.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

DESCENT_MAGNITUDE = 10**6  # default of `sumfree experiment extract`
SWEEP_SUM = 2800  # sum(A) of the sweep-band sets, far under the sweep cap
# Optima pinned from this package's own exact answers.  Grids: largest 2-sum-free
# subsets of F_3 and of the 3-prime, exponent-below-4 grid.  Corpus: largest
# 3-sum-free subsets of the sets solve_items draws from the constant seed.
GRID_OPTIMA = {(3, 3): 14, (3, 4): 29}
CORPUS_OPTIMA = (28, 25, 32, 27, 29, 25, 25, 24, 27, 34, 26, 25)
OUTCOMES = ("periodic-containment", "density-drop", "ap-not-found")


@dataclass(frozen=True)
class Item:
    kind: str
    params: tuple


@dataclass(frozen=True)
class Kind:
    run: Callable[[Any, tuple], Any]
    summary: Callable[[Any], Any]
    check: Callable[[Any, tuple, Any], list]
    score: Callable[[tuple, Any], Optional[tuple]] = lambda params, raw: None


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def batch_digest(values) -> str:
    """Digest of a sequence, hashed one value at a time to keep memory flat."""
    h = hashlib.sha256()
    for value in values:
        h.update(repr(value).encode())
    return h.hexdigest()


def _frac(x) -> tuple:
    x = Fraction(x)
    return (x.numerator, x.denominator)


# ---------------------------------------------------------------- references


def arc_slice(elements, x: Fraction, k: int) -> tuple:
    """Elements a with frac(a*x) strictly inside (1/p, k/p), p = k*k - 1."""
    p = k * k - 1
    num, den = x.numerator, x.denominator
    return tuple(a for a in elements if den < p * (a * num % den) < k * den)


def sweep_max(elements, k: int) -> int:
    """Exact max over x of |{a : frac(a*x) in (1/p, k/p)}| by an event sweep.

    Element a is in the slice on the open intervals ((jp+1)/(pa), (jp+k)/(pa)),
    0 <= j < a.  Keys are floats: two distinct breakpoints with a, a' <= 10^6
    differ by at least 1/(p*a*a') > 10^-14, far above double rounding at
    values below 1, and equal rationals round to the same double, so the
    order and the ties are exact.
    """
    if elements[-1] > 10**6:
        raise ValueError("float keys are exact only for elements up to 10^6")
    p = k * k - 1
    events = []
    for a in elements:
        pa = p * a
        for j in range(a):
            events.append(((j * p + 1) / pa, 1))
            events.append(((j * p + k) / pa, 0))
    events.sort()  # at a shared breakpoint, exits (0) come before entries (1)
    count = best = 0
    last = len(events) - 1
    for idx, (value, enter) in enumerate(events):
        count += 1 if enter else -1
        if idx == last or events[idx + 1][0] != value:
            best = max(best, count)
    return best


def hull_is_sum_free(elements, n0: int, q: int, k: int) -> bool:
    """Residues mod q of the elements <= n0 avoid every k-fold residue sum."""
    residues = {a % q for a in elements if a <= n0}
    sums = {0}
    for _ in range(k):
        sums = {(t + r) % q for t in sums for r in residues}
    return sums.isdisjoint(residues)


def _enum_free(P, s, k) -> bool:
    """The predicate through its enumeration route (a bitset cap of 0)."""
    return P.sf.is_k_sum_free(s, k, bitset_cap=0)


# ---------------------------------------------------------------- extract


def extract_items(P, seed: int) -> list:
    rng = random.Random(f"extract/{seed}")
    sweep_cap = P.dilation.DEFAULT_SWEEP_CAP
    items = []
    for i in range(160):
        size, k = 1 + i % 40, 2 + (i + i // 40) % 4
        while True:
            s = P.sf.IntSet.of(rng.sample(range(1, DESCENT_MAGNITUDE), size))
            if 2 * sum(s.elements) + 2 > sweep_cap:
                break
        items.append(Item("extract", (s, k)))
    for i in range(24):
        # the sweep's cost grows with |A| and sum(A): both are held in a narrow
        # band (the sum within 1% of its target) and only the elements vary
        size, k = 16 + i % 9, 2 + i % 4
        magnitude = 2 * SWEEP_SUM // size
        while True:
            s = P.sf.IntSet.of(rng.sample(range(1, magnitude + 1), size))
            if abs(sum(s.elements) - SWEEP_SUM) * 100 <= SWEEP_SUM:
                break
        items.append(Item("extract", (s, k)))
    return items


def run_extract(P, params):
    s, k = params
    free = P.sf.is_k_sum_free(s, k)
    violation = None if free else P.sf.find_violation(s, k)
    return free, violation, P.sf.extract_dilate_exhaustive(s, k, method="auto")


def summary_extract(raw):
    free, violation, r = raw
    witness = violation and (violation.summands, violation.total)
    return free, witness, r.method, _frac(r.dilator), r.subset.elements, r.score


def check_extract(P, params, raw):
    s, k = params
    free, violation, r = raw
    bad = []
    if free != _enum_free(P, s, k):
        bad.append("predicate disagrees with its enumeration route")
    if free and violation is not None:
        bad.append("violation reported for a sum-free set")
    if not free and not (
        violation is not None
        and len(violation.summands) == k
        and sum(violation.summands) == violation.total
        and all(a in s.elements for a in violation.summands)
        and violation.total in s.elements
    ):
        bad.append("violation witness does not hold")
    sweep = 2 * sum(s.elements) + 2 <= P.dilation.DEFAULT_SWEEP_CAP
    if r.method != ("sweep" if sweep else "descent"):
        bad.append(f"auto took route {r.method}")
    if r.subset.elements != arc_slice(s.elements, Fraction(r.dilator), k):
        bad.append("subset is not the arc slice at the dilator")
    if r.score != len(r.subset) or r.score * (k + 1) < len(s):
        bad.append("score below ceil(|A|/(k+1))")
    if not _enum_free(P, r.subset, k):
        bad.append("slice is not k-sum-free by the enumeration route")
    if sweep and r.score != sweep_max(s.elements, k):
        bad.append("sweep score is not the exact maximum")
    return bad


# ---------------------------------------------------------------- solve


def solve_items(P, seed: int) -> list:
    """Fixed instances with pinned optima, then seeded random sets.

    The fixed part (the grids and a corpus drawn once from a constant seed)
    holds every item above the seeded ones, so the tail percentile falls on
    it and does not move with the seed; the seeded sets are many and cheap,
    so their median does not either.
    """
    items = []
    for (r, b), optimum in GRID_OPTIMA.items():
        f = P.sf.generate(P.sf.FolnerGrid(r, b))
        items.append(Item("solve.pinned", (f, 2, "bb", optimum)))
    rng = random.Random("solve/corpus")
    for i, optimum in enumerate(CORPUS_OPTIMA):
        s = P.sf.IntSet.of(rng.sample(range(1, 150 + (i * 11) % 51 + 1), 38 + i % 5))
        items.append(Item("solve.pinned", (s, 3, "bb", optimum)))
    rng = random.Random(f"solve/{seed}")
    for i in range(240):
        s = P.sf.IntSet.of(rng.sample(range(1, 300 + (i // 5) % 101 + 1), 36 + i % 5))
        items.append(Item("solve.random", (s, 2, "bb", None)))
    for i in range(24):
        s = P.sf.IntSet.of(rng.sample(range(1, 201), 18 + i % 7))
        items.append(Item("solve.brute", (s, 2 + i % 2, "brute", None)))
    return items


def run_solve(P, params):
    s, k, algo, _pinned = params
    return P.sf.max_k_sum_free(s, k, algo=algo)


def summary_solve(r):
    return r.size, r.witness.elements, r.status, r.nodes


def check_solve(P, params, r):
    s, k, algo, pinned = params
    bad = []
    if r.status != "optimal":
        bad.append(f"status {r.status}")
    if r.size != len(r.witness) or not set(r.witness.elements) <= set(s.elements):
        bad.append("witness is not a subset of the input of the reported size")
    if not _enum_free(P, r.witness, k):
        bad.append("witness is not k-sum-free by the enumeration route")
    if r.size * (k + 1) < len(s):
        bad.append("optimum below the dilation floor")
    if algo == "brute":
        reference = P.sf.max_k_sum_free(s, k, algo="bb").size
        if r.size != reference:
            bad.append(f"brute {r.size} != bb {reference}")
    elif pinned is not None and r.size != pinned:
        bad.append(f"optimum {r.size} != pinned {pinned}")
    return bad


def score_solve(params, r):
    return r.size, len(params[0])


# ---------------------------------------------------------------- grids


def _smooth(primes, top_exponent):
    values = [1]
    for p in primes:
        values = [v * p**e for v in values for e in range(top_exponent + 1)]
    return sorted(values)


def _random_dilator(rng) -> Fraction:
    return Fraction(rng.randrange(1, 10**6), 10**6 + 3)


def grids_items(P, seed: int) -> list:
    rng = random.Random(f"grids/{seed}")
    sf = P.sf
    items = []

    def defect_item(grid, factors, law=None):
        items.append(Item("grids.defect", (grid, tuple(factors), law)))

    for r in range(2, 14):
        b = 2
        while b**r <= 10**4:
            defect_item(sf.FolnerGrid(r, b), (rng.randrange(1, 51) for _ in range(3)))
            b += 1
    for b in range(25, 501, 25):
        defect_item(sf.FolnerGrid(1, b), (rng.randrange(1, 51) for _ in range(3)))
    for r, b in ((2, 400), (3, 50), (4, 20), (5, 12), (6, 8), (7, 6), (8, 5), (10, 4)):
        defect_item(sf.FolnerGrid(r, b), (rng.randrange(1, 51) for _ in range(3)))
    for m in (1, 2, 3, 4, 5, 7, 8):
        grid = sf.FolnerGrid.diagonal(m)
        defect_item(grid, sf.first_primes(m), Fraction(2, m))

    for (r, b), k in [(g, k) for g in ((3, 3), (2, 8), (3, 4), (2, 12)) for k in (2, 3)]:
        grid = sf.FolnerGrid(r, b)
        f = sf.generate(grid)
        smooth = _smooth(sf.first_primes(r), 3)
        for _ in range(4):
            # any arc slice of the grid is k-sum-free, so it can be the designated subset
            inner = ()
            while not inner:
                inner = arc_slice(f.elements, _random_dilator(rng), k)
            inner = sf.IntSet(inner)
            source = sf.IntSet.of(rng.sample(smooth, 12))
            items.append(Item("grids.folner", (source, f, inner, k, grid)))
            points = rng.sample(smooth, 12)
            raw = {a: rng.randrange(1, 10) for a in points}
            total = sum(raw.values())
            m = sf.RationalMeasure.from_weights({a: Fraction(w, total) for a, w in raw.items()})
            items.append(Item("grids.measure", (f, inner, m, k, grid)))

    for i in range(12):
        # the top scale fixes the support, so it is set by the item index
        scales = [1000 * (1 + i % 4)]
        for _ in range(2 + i % 3):
            scales.insert(0, max(1, scales[0] // rng.randrange(3, 6) - rng.randrange(0, 4)))
        if len(set(scales)) < len(scales):
            scales = sorted(set(scales))
        ends = [0] + sorted(rng.sample(range(1, len(scales)), rng.randrange(1, len(scales))))
        schedule = sf.NuSchedule(tuple(scales), tuple(ends), Fraction(1, rng.randrange(2, 30)), 2)
        items.append(Item("grids.nu", (schedule,)))
    for i in range(12):
        params = (3 + i % 3, 2 + i % 3, 2 + i % 2, 1 + i % 5)
        items.append(Item("grids.mu", params))
    return items


def run_defect(P, params):
    grid, factors, _law = params
    return tuple(P.sf.defect(grid, a) for a in factors)


def check_defect(P, params, values):
    grid, factors, law = params
    bad = []
    for a, value in zip(factors, values):
        if value != P.sf.defect_closed_form(grid, a):
            bad.append(f"defect({grid}, {a}) = {value} differs from the closed form")
        if law is not None and value != law:
            bad.append(f"diagonal defect {value} != {law}")
    return bad


def _reference_bound(P, grid, f, inner, weights):
    density = Fraction(len(inner), len(f))
    return density * sum(weights.values()) - sum(
        w * P.sf.defect_closed_form(grid, a) for a, w in weights.items()
    )


def run_folner(P, params):
    source, f, inner, k, _grid = params
    return P.sf.extract_dilate_folner(source, f, inner, k)


def run_measure(P, params):
    f, inner, m, k, _grid = params
    return P.sf.extract_dilate_measure(f, inner, m, k)


def summary_extraction(r):
    return _frac(r.dilator), r.subset.elements, _frac(r.score), _frac(r.lower_bound)


def check_folner(P, params, r):
    source, f, inner, k, grid = params
    weights = {a: 1 for a in source.elements}
    return _check_grid_slice(P, grid, f, inner, k, weights, r)


def check_measure(P, params, r):
    f, inner, m, k, grid = params
    bad = [] if m.mass == 1 else [f"measure mass {m.mass}"]
    return bad + _check_grid_slice(P, grid, f, inner, k, m.weights, r)


def _check_grid_slice(P, grid, f, inner, k, weights, r):
    bad = []
    members = set(inner.elements)
    expected = tuple(a for a in sorted(weights) if a * r.dilator in members)
    if r.dilator not in f.elements or r.subset.elements != expected:
        bad.append("subset is not the slice at a grid dilator")
    if r.score != sum((weights[a] for a in expected), Fraction(0)):
        bad.append("score is not the weight of the slice")
    bound = _reference_bound(P, grid, f, inner, weights)
    if r.lower_bound != bound or r.score < bound:
        bad.append(f"score {r.score} vs proven bound {bound} (reported {r.lower_bound})")
    if not _enum_free(P, r.subset, k):
        bad.append("slice is not k-sum-free by the enumeration route")
    return bad


def score_folner(params, r):
    return r.score, len(params[0])


def score_measure(params, r):
    return r.score, params[2].mass


def run_nu(P, params):
    return P.sf.build_nu(params[0])


def run_mu(P, params):
    i_max, q, k, n_start = params
    return P.sf.build_mu(i_max, q, k, P.sf.uniform_measure, n_start=n_start)


def summary_measure(m):
    return len(m.weights), _frac(m.mass), m.support_max, _digest(sorted(m.weights.items()))


def check_nu(P, params, m):
    schedule = params[0]
    bad = _check_mass(m)
    if m.support_max != schedule.n_sequence[schedule.block_ends[-1]]:
        bad.append("support does not reach the top scale")
    return bad


def check_mu(P, params, m):
    return _check_mass(m)


def _check_mass(m):
    total = sum(m.weights.values(), Fraction(0))
    return [] if total == 1 == m.mass else [f"measure mass {total}"]


# ---------------------------------------------------------------- periodic


GROWN_PER_TRIAL = 6


def periodic_items(P, seed: int) -> list:
    """Soak trials, then residue-class and interval sets through ``fls_step``.

    Trial i is the i-th instance of each wave of the soak: one drop instance,
    one inequality case and ``GROWN_PER_TRIAL`` grown sets.  A trial, not a
    single instance, is one item, because the harness retries a draw until
    it fits: the cost of one instance is a long-tailed function of the seed,
    and the tail of 400 trials moves far less with the seed than the tail of
    800 instances.  About a third of grown sets are dense enough to step, so
    there are six of them per trial, which keeps the share of outcomes
    (``score_fraction``) steady from seed to seed.
    """
    sf = P.sf
    items = []
    for i in range(400):
        k = 2 + i % 2
        grown = tuple(
            (f"periodic/{seed}/grow/{GROWN_PER_TRIAL * i + j}", 2 + j % 2)
            for j in range(GROWN_PER_TRIAL)
        )
        drop = (f"periodic/{seed}/drop/{i}", k, i % 5 == 0)
        items.append(Item("periodic.trial", (drop, (f"periodic/{seed}/ineq/{i}", k), grown)))
    rng = random.Random(f"periodic/{seed}")
    classes = {2: ((2, (1,)), (5, (1, 4))), 3: ((3, (1,)), (3, (2,)))}
    for i in range(32):
        k = 2 + i % 2
        if i % 4 < 2:
            # the classes' densities clear 1/(k+1) by at least 1/30 once n0 >= 40
            eps = Fraction(1, rng.randrange(40, 60))
            modulus, residues = rng.choice(classes[k])
            top = rng.randrange(400, 1000)
            s = sf.IntSet.of(a for a in range(1, top + 1) if a % modulus in residues)
            n0 = 40 + 8 * (i // 4)
            q, expected = modulus * rng.randrange(1, 4), "periodic-containment"
        else:
            eps = Fraction(1, rng.randrange(8, 13))
            n0 = 60 + 10 * (i // 4)
            s = sf.IntSet.of(range(n0 // k + 1, n0 + 1))
            q, expected = rng.randrange(2, 9), "density-drop"
        schedule = sf.geometric_schedule(n0, Fraction(16 * k) / eps, k * n0)
        step = (s, k, n0, q, sf.min_ap_length(k, eps), eps, schedule)
        items.append(Item("periodic.step", (step, expected)))
    return items


def run_drop(P, params):
    label, k, mirrored = params
    instance = P.harness.random_drop_instance(k, random.Random(label), mirrored=mirrored)
    return instance, P.sf.verify_density_drop(instance, k)


def run_ineq(P, params):
    label, k = params
    case = P.harness.random_inequality_case(k, random.Random(label))
    return case, P.sf.check_translate_inequality(*case, k)


def run_grow(P, params):
    """The third wave of the FLS soak: grow a set, step it when it is dense enough."""
    label, k = params
    rng = random.Random(label)
    s = P.harness.grow_k_sum_free(k, 600, rng=rng, include_probability=rng.uniform(0.4, 1.0))
    n0 = rng.randrange(30, 80)
    eps = Fraction(1, rng.randrange(8, 30))
    if not s.upto(n0) or Fraction(len(s.upto(n0)), n0) < Fraction(1, k + 1) + eps:
        return None, None
    q = rng.randrange(1, 9)
    schedule = P.sf.geometric_schedule(n0, Fraction(16 * k) / eps, k * n0)
    step = (s, k, n0, q, P.sf.min_ap_length(k, eps), eps, schedule)
    return step, P.sf.fls_step(*step)


def run_trial(P, params):
    drop, ineq, grown = params
    return run_drop(P, drop), run_ineq(P, ineq), tuple(run_grow(P, g) for g in grown)


def summary_trial(raw):
    drop, ineq, grown = raw
    return summary_verified(drop), summary_case(ineq), tuple(map(summary_step, grown))


def check_trial(P, params, raw):
    drop, ineq, grown = raw
    bad = [f"drop: {b}" for b in check_verified(P, params[0], drop)]
    bad += [f"inequality: {b}" for b in check_verified(P, params[1], ineq)]
    for label, step in zip(params[2], grown):
        bad += [f"grown {label[0]}: {b}" for b in check_step(P, label, step)]
    return bad


def score_trial(params, raw):
    scores = [s for s in (score_step(None, step) for step in raw[2]) if s is not None]
    if not scores:
        return None
    return sum(s[0] for s in scores), len(scores)


def run_step(P, params):
    step, _expected = params
    return step, P.sf.fls_step(*step)


def summary_verified(raw):
    instance, verdict = raw
    # the schedule follows from n0, eps and k; its huge entries are not worth printing
    fields = (instance.elements.elements, instance.n0, instance.ap_start, instance.ap_step,
              instance.ap_length, instance.difference, instance.eps, instance.k)
    return _digest(fields), len(instance.schedule), verdict


def summary_case(raw):
    (s, n, x, m, i), verdict = raw
    return _digest((s.elements, n, x, m, i)), verdict


def summary_step(raw):
    step, out = raw
    if step is None:
        return None
    s, k, n0, q, ap, eps, schedule = step
    return _digest((s.elements, k, n0, q, ap, eps)), len(schedule), repr(out)


def check_verified(P, params, raw):
    return [] if raw[1] is True else [f"verifier returned {raw[1]!r}"]


def check_step(P, params, raw, expected=None):
    step, out = raw
    if step is None:
        return []
    s, k, n0, q, _ap, eps, schedule = step
    bad = []
    if out.tag not in OUTCOMES:
        bad.append(f"fls_step outcome {out.tag}")
    if (out.tag == "periodic-containment") != hull_is_sum_free(s.elements, n0, q, k):
        bad.append("containment disagrees with the residue-level hull check")
    if out.tag == "density-drop":
        limit = Fraction(1, k + 1) + eps / 2
        first = next(
            i for i, n in enumerate(schedule[: k * n0], 1)
            if Fraction(bisect_right(s.elements, n), n) <= limit
        )
        n = schedule[out.index - 1]
        if first != out.index or out.value != Fraction(bisect_right(s.elements, n), n):
            bad.append("density drop is not the first scheduled drop")
    if expected is not None and out.tag != expected:
        bad.append(f"outcome {out.tag} != {expected}, the outcome its construction forces")
    return bad


def score_step(params, raw):
    out = raw[1]
    if out is None:
        return None
    return int(out.tag in ("periodic-containment", "density-drop")), 1


# ---------------------------------------------------------------- registry

KINDS = {
    "extract": Kind(
        run_extract, summary_extract, check_extract,
        score=lambda params, raw: (raw[2].score, len(params[0])),
    ),
    "solve.pinned": Kind(run_solve, summary_solve, check_solve, score=score_solve),
    "solve.random": Kind(run_solve, summary_solve, check_solve, score=score_solve),
    "solve.brute": Kind(run_solve, summary_solve, check_solve, score=score_solve),
    "grids.defect": Kind(run_defect, lambda values: tuple(map(_frac, values)), check_defect),
    "grids.folner": Kind(run_folner, summary_extraction, check_folner, score=score_folner),
    "grids.measure": Kind(run_measure, summary_extraction, check_measure, score=score_measure),
    "grids.nu": Kind(run_nu, summary_measure, check_nu),
    "grids.mu": Kind(run_mu, summary_measure, check_mu),
    "periodic.trial": Kind(run_trial, summary_trial, check_trial, score=score_trial),
    "periodic.step": Kind(
        run_step, summary_step,
        lambda P, params, raw: check_step(P, params, raw, params[1]),
        score=score_step,
    ),
}

WORKLOADS = {
    "extract": extract_items,
    "solve": solve_items,
    "grids": grids_items,
    "periodic": periodic_items,
}
