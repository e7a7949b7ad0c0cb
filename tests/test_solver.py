"""Tests for the forbidden-sum hypergraph and the exact subset solvers."""

from __future__ import annotations

import hashlib
import itertools
import random
import time
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumfree import (
    FolnerGrid,
    IntSet,
    InvalidParameterError,
    ResourceLimitError,
    build_hypergraph,
    extract_dilate_exhaustive,
    generate,
    is_k_sum_free,
    is_strongly_k_sum_free,
    max_k_sum_free,
)
from sumfree import solver
from sumfree.solver import BRUTE_SIZE_LIMIT


def optimum_by_enumeration(elements, k, strong=False):
    """All optimal witnesses by checking every subset against the definition."""
    elements = sorted(elements)

    def ok(subset):
        members = set(subset)
        arities = range(2, k + 1) if strong else [k]
        for arity in arities:
            for combo in combinations_with_replacement(subset, arity):
                if sum(combo) in members:
                    return False
        return True

    best = []
    best_size = 0
    for size in range(len(elements), -1, -1):
        for subset in combinations(elements, size):
            if ok(subset):
                best.append(subset)
                best_size = size
        if best:
            break
    return best_size, sorted(best)


small_sets = st.sets(st.integers(min_value=1, max_value=40), min_size=0, max_size=9)


def test_hypergraph_examples():
    h = build_hypergraph(IntSet.of([1, 2, 3]), 2)
    assert h.edges == ((1, 2),)
    assert build_hypergraph(IntSet.of([2, 3]), 2).edges == ()
    h = build_hypergraph(IntSet.of([1, 2, 6]), 3)
    assert h.edges == ((2, 6),)


def test_hypergraph_edges_are_minimal_and_sorted():
    h = build_hypergraph(IntSet.of(range(1, 13)), 2)
    edges = h.edges
    assert edges == tuple(sorted(edges, key=lambda e: (len(e), e)))
    for i, e in enumerate(edges):
        support = set(e)
        assert all(v in h.vertices for v in e)
        assert 1 <= len(e) <= 3
        for j, other in enumerate(edges):
            if i != j:
                assert not set(other) < support


@given(small_sets, st.integers(min_value=2, max_value=3), st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_independence_iff_sum_free(values, k, rng):
    s = IntSet.of(values)
    h = build_hypergraph(s, k)
    sub = IntSet.of(a for a in values if rng.random() < 0.6)
    chosen = sum(1 << i for i, v in enumerate(h.vertices.elements) if v in sub)
    assert all(m & chosen != m for m in h.masks) == is_k_sum_free(sub, k)


def test_solver_examples():
    r = max_k_sum_free(IntSet.of([1, 2, 3]), 2, algo="brute")
    assert (r.size, r.witness.elements) == (2, (1, 3))

    r = max_k_sum_free(IntSet.of(range(1, 11)), 2, algo="brute")
    assert r.size == 5

    f2 = IntSet.of([1, 2, 3, 6])
    assert max_k_sum_free(f2, 2, algo="brute").size == 2
    assert max_k_sum_free(f2, 3, algo="brute").size == 2


def test_solver_status_and_witness_shape():
    r = max_k_sum_free(IntSet.of(range(1, 20)), 2)
    assert r.status == "optimal"
    assert len(r.witness) == r.size
    assert is_k_sum_free(r.witness, 2)
    assert r.nodes >= 1


@given(small_sets, st.integers(min_value=2, max_value=3))
@settings(max_examples=50, deadline=None)
def test_bb_matches_brute(values, k):
    s = IntSet.of(values)
    a = max_k_sum_free(s, k, algo="brute")
    b = max_k_sum_free(s, k, algo="bb")
    assert a.size == b.size
    assert a.status == b.status == "optimal"


@given(
    st.sets(st.integers(min_value=1, max_value=25), min_size=0, max_size=7),
    st.integers(min_value=2, max_value=3),
)
@settings(max_examples=40)
def test_brute_finds_lexicographically_first_optimum(values, k):
    s = IntSet.of(values)
    best_size, witnesses = optimum_by_enumeration(s.elements, k)
    r = max_k_sum_free(s, k, algo="brute")
    assert r.size == best_size
    assert r.witness.elements == witnesses[0]


@given(small_sets, st.integers(min_value=2, max_value=3))
@settings(max_examples=25)
def test_max_dominates_interval_extraction(values, k):
    s = IntSet.of(values)
    if not s:
        return
    extracted = extract_dilate_exhaustive(s, k, method="sweep").score
    assert max_k_sum_free(s, k, algo="bb").size >= extracted


@given(small_sets, st.randoms(use_true_random=False))
@settings(max_examples=25)
def test_max_is_monotone_under_subsets(values, rng):
    s = IntSet.of(values)
    sub = IntSet.of(a for a in values if rng.random() < 0.5)
    assert max_k_sum_free(s, 2).size >= max_k_sum_free(sub, 2).size


def test_strong_mode_examples():
    s = IntSet.of(range(1, 13))
    r = max_k_sum_free(s, 3, algo="brute", strong=True)
    best_size, witnesses = optimum_by_enumeration(s.elements, 3, strong=True)
    assert r.size == best_size
    assert r.witness.elements == witnesses[0]
    assert is_strongly_k_sum_free(r.witness, 3)


@given(st.sets(st.integers(min_value=1, max_value=30), min_size=0, max_size=8))
@settings(max_examples=30)
def test_strong_mode_at_two_equals_plain(values):
    s = IntSet.of(values)
    plain = max_k_sum_free(s, 2, algo="brute")
    strong = max_k_sum_free(s, 2, algo="brute", strong=True)
    assert plain == strong


def test_strong_hypergraph_unions_arities():
    s = IntSet.of([1, 2, 3, 6])
    strong = build_hypergraph(s, 3, strong=True)
    # 1+1=2 collapses to the singleton-adjacent pair {1,2}; 3+3=6 gives {3,6}
    pair_edges = build_hypergraph(s, 2).edges
    for e in pair_edges:
        assert any(set(f) <= set(e) for f in strong.edges)


def test_timeout_returns_certified_lower_bound():
    s = IntSet.of(range(1, 61))
    r = max_k_sum_free(s, 2, algo="bb", budget=1e-6)
    assert r.status == "timeout-lower-bound"
    assert is_k_sum_free(r.witness, 2)
    assert len(r.witness) == r.size
    full = max_k_sum_free(s, 2, algo="bb")
    assert full.status == "optimal"
    assert r.size <= full.size


def test_parameter_validation():
    s = IntSet.of([1, 2, 3])
    with pytest.raises(InvalidParameterError):
        max_k_sum_free(s, 2, budget=0)
    with pytest.raises(InvalidParameterError):
        max_k_sum_free(s, 2, algo="magic")
    with pytest.raises(InvalidParameterError):
        max_k_sum_free(s, 1)
    with pytest.raises(InvalidParameterError):
        max_k_sum_free(IntSet.of(range(1, 40)), 2, algo="brute")


def test_max_fraction_tiny_grids():
    one = max_k_sum_free(generate(FolnerGrid.diagonal(1)), 2)
    assert Fraction(one.size, 1**1) == 1
    assert one.status == "optimal"
    two = max_k_sum_free(generate(FolnerGrid.diagonal(2)), 2)
    assert Fraction(two.size, 2**2) == Fraction(1, 2)
    assert two.witness.elements == (1, 3)


def _pinned_corpus():
    f3 = generate(FolnerGrid.diagonal(3))
    cases = [(f3, 2, False), (f3, 3, False), (f3, 3, True), (generate(FolnerGrid(3, 4)), 2, False)]
    rng = random.Random("solver-pin")
    for i in range(60):
        s = IntSet.of(rng.sample(range(1, 40 + 3 * i), 8 + i % 17))
        cases.append((s, 2 + i % 3, i % 4 == 3))
    return cases


def test_solver_outputs_are_pinned():
    # size, witness, node count and status of bb (and of brute up to 30
    # elements); node counts reach the CLI's nodes= and the solver_nodes CSV
    # column, so edge order, propagation and branching must all keep them
    rows = []
    for s, k, strong in _pinned_corpus():
        for algo in ("bb", "brute"):
            if algo == "brute" and len(s) > BRUTE_SIZE_LIMIT:
                continue
            r = max_k_sum_free(s, k, algo=algo, strong=strong)
            rows.append((r.size, r.witness.elements, r.nodes, r.status))
    assert len(rows) == 127
    assert rows[0][0] == 14 and rows[0][2] == 109
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "a920da1a7ec5bbe27f8ee02d48e1c2913143cecc2d6ed9ba279323207917065a"


def _unit_heavy_corpus():
    # hundreds of edges at k = 3, so most nodes force vertices out by propagation
    rng = random.Random("bb-unit-heavy")
    cases = []
    for size, top in ((38, 150), (40, 170), (41, 185), (42, 200)):
        cases.append((IntSet.of(rng.sample(range(1, top), size)), 3, False))
    cases.append((generate(FolnerGrid.diagonal(3)), 3, True))
    return cases


def test_bb_outputs_on_unit_heavy_instances_are_pinned():
    rows = []
    for s, k, strong in _unit_heavy_corpus():
        assert len(build_hypergraph(s, k, strong=strong).masks) >= 150
        r = max_k_sum_free(s, k, strong=strong)
        rows.append((r.size, r.witness.elements, r.nodes, r.status))
    assert [row[2] for row in rows] == [17, 51, 27, 23, 257]
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "5d2db76ac59f8cc64bd0d857d84427fb2461bcc69f861dd4730cd7d85fe8a29e"


def test_bb_matches_brute_at_the_brute_size_cap():
    rng = random.Random("bb-brute-cap")
    for i in range(12):
        s = IntSet.of(rng.sample(range(1, 120), 26 + i % 5))
        k, strong = 2 + i % 3, i % 4 == 3
        a = max_k_sum_free(s, k, algo="brute", strong=strong)
        b = max_k_sum_free(s, k, algo="bb", strong=strong)
        assert a.size == b.size
        assert a.status == b.status == "optimal"


def test_timeout_on_f4_returns_a_certified_lower_bound():
    r = max_k_sum_free(generate(FolnerGrid.diagonal(4)), 2, budget=0.5)
    assert r.status == "timeout-lower-bound"
    assert r.size == len(r.witness)
    assert is_k_sum_free(r.witness, 2)


@pytest.mark.parametrize(
    "k, strong, ticks, nodes, digest",
    [
        (2, False, 19967, 19968, "5332dac85d9e7be4812a7c0e2335b304c60e1bbbaed2d5bef35d5c5c78f53ffe"),
        (3, False, 4095, 4096, "93e3893051e79b134d3a315f34b87dc52621e79cb126fb5b03222305412c2eba"),
        (3, True, 4095, 4096, "b1f173a74e7b04df1322666f4ae64505492866078ded36be5197797a88f84a37"),
    ],
)
def test_bb_search_tree_on_f4_is_pinned(monkeypatch, k, strong, ticks, nodes, digest):
    # a clock that ticks once per read: bb reads it once at the start and then
    # at every node, so a budget of B ticks stops it after exactly B + 1 nodes,
    # whatever the machine.  These runs reach deep enough that bb
    # renumbers its edges many times; the incumbent, its witness and the count
    # pin the search order through them.
    f4 = generate(FolnerGrid.diagonal(4))
    monkeypatch.setattr(solver.time, "monotonic", itertools.count().__next__)
    r = max_k_sum_free(f4, k, strong=strong, budget=ticks)
    assert (r.nodes, r.status) == (nodes, "timeout-lower-bound")
    row = (r.size, r.witness.elements, r.nodes, r.status)
    assert hashlib.sha256(repr(row).encode()).hexdigest() == digest


def test_f4_incumbent_reaches_the_best_known_112(monkeypatch):
    # the descending greedy pass already holds 112 elements of F_4 at k = 2,
    # the best known, so bb returns it however soon its budget runs out; a
    # budget of 511 ticks stops it after 512 nodes
    monkeypatch.setattr(solver.time, "monotonic", itertools.count().__next__)
    r = max_k_sum_free(generate(FolnerGrid.diagonal(4)), 2, budget=511)
    assert (r.nodes, r.status) == (512, "timeout-lower-bound")
    assert r.size >= 112
    assert r.size == len(r.witness)
    assert is_k_sum_free(r.witness, 2)


def test_budget_starts_before_the_hypergraph_build(monkeypatch):
    # a clock that stands still except during the build, which takes 10 s of it:
    # a budget of 1 s is spent before bb starts, so its first node stops it and
    # the greedy seed comes back as the lower bound
    now = [0.0]
    build = solver.build_hypergraph

    def slow_build(*args, **kwargs):
        now[0] += 10
        return build(*args, **kwargs)

    monkeypatch.setattr(solver.time, "monotonic", lambda: now[0])
    monkeypatch.setattr(solver, "build_hypergraph", slow_build)
    r = max_k_sum_free(generate(FolnerGrid.diagonal(3)), 2, budget=1)
    assert (r.nodes, r.status) == (1, "timeout-lower-bound")
    assert r.size == len(r.witness) > 0
    assert is_k_sum_free(r.witness, 2)


def greedy_size(elements, k, strong):
    """The size of the greedy pass over elements in the given order, by the predicate."""
    check = is_strongly_k_sum_free if strong else is_k_sum_free
    taken = []
    for x in elements:
        if check(IntSet.of(taken + [x]), k):
            taken.append(x)
    return len(taken)


def test_bb_matches_brute_when_the_descending_seed_is_larger():
    # on these sets bb starts from the descending pass, not the ascending one
    rng = random.Random("bb-descending-seed")
    cases = 0
    for i in range(29):
        s = IntSet.of(rng.sample(range(1, 80 + 4 * (i % 20)), 16 + i % 15))
        k, strong = 2 + i % 3, i % 3 == 1
        if greedy_size(s.elements[::-1], k, strong) <= greedy_size(s.elements, k, strong):
            continue
        cases += 1
        a = max_k_sum_free(s, k, algo="brute", strong=strong)
        b = max_k_sum_free(s, k, algo="bb", strong=strong)
        assert a.size == b.size
        assert a.status == b.status == "optimal"
    assert cases == 24


@pytest.mark.parametrize("strong", [False, True])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_every_edge_has_at_least_two_vertices(k, strong):
    # bb's unit rule relies on it: k >= 2 positive summands fall short of their
    # total, so no support is a single element
    rng = random.Random(f"edge-width/{k}/{strong}")
    sets = [IntSet.of(rng.sample(range(1, 60 + 20 * i), 12 + 3 * i)) for i in range(8)]
    sets.append(generate(FolnerGrid.diagonal(3)))
    for s in sets:
        masks = build_hypergraph(s, k, strong=strong).masks
        assert masks
        assert all(m.bit_count() >= 2 for m in masks)


def test_edge_mask_examples():
    h = build_hypergraph(IntSet.of([1, 2, 3]), 2)
    assert h.masks == (0b011,)
    h = build_hypergraph(IntSet.of([1, 2, 6]), 3)
    assert h.masks == (0b110,)
    assert build_hypergraph(IntSet.of([]), 2).masks == ()


def test_f4_build_at_k3_is_pinned_and_fast():
    # 34,593 supports reduce to 30,838 minimal edges; testing each support
    # against every kept edge took about 40 s
    t0 = time.monotonic()
    h = build_hypergraph(generate(FolnerGrid.parse("4")), 3)
    assert time.monotonic() - t0 < 10
    assert len(h.masks) == 30838
    digest = hashlib.sha256(repr(h.masks).encode()).hexdigest()
    assert digest == "bddaa66a1ceab197619e83799e03fe593204a9160890df440f2f26ab0f154f2d"


def test_edge_cap_stops_the_build(monkeypatch):
    s = IntSet.of(range(1, 13))
    monkeypatch.setattr("sumfree.solver.DEFAULT_EDGE_CAP", 5)
    with pytest.raises(ResourceLimitError) as err:
        build_hypergraph(s, 2)
    assert err.value.required == 6
    with pytest.raises(ResourceLimitError) as err:
        max_k_sum_free(s, 2)
    assert err.value.required == 6
    monkeypatch.setattr("sumfree.solver.DEFAULT_EDGE_CAP", 10**4)
    assert build_hypergraph(s, 2).edges
