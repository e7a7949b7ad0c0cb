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
from sumfree.core import _bits
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


def _count_frames(monkeypatch):
    """The list bb's frame builds append to: the root's, then one per renumbering."""
    built = []
    frame = solver._frame

    def counted_frame(*args):
        built.append(None)
        return frame(*args)

    monkeypatch.setattr(solver, "_frame", counted_frame)
    return built


@pytest.mark.parametrize(
    "k, strong, ticks, nodes, frames, digest",
    [
        (2, False, 19967, 19968, 1, "5332dac85d9e7be4812a7c0e2335b304c60e1bbbaed2d5bef35d5c5c78f53ffe"),
        (3, False, 4095, 4096, 134, "93e3893051e79b134d3a315f34b87dc52621e79cb126fb5b03222305412c2eba"),
        (3, True, 4095, 4096, 6, "b1f173a74e7b04df1322666f4ae64505492866078ded36be5197797a88f84a37"),
    ],
)
def test_bb_search_tree_on_f4_is_pinned(monkeypatch, k, strong, ticks, nodes, frames, digest):
    # a clock that ticks once per read: max_k_sum_free reads it once, before
    # the hypergraph build, and bb then at every node, so a budget of B ticks
    # stops it after exactly B + 1 nodes, whatever the machine.  At every stop
    # the incumbent is still the greedy seed, so the digest reads only the seed
    # and the stop.  What pins the tree is the count of frames built: the root's
    # and one per renumbering.  At k = 3 that count (134) moves with the order of
    # the nodes; at k = 2 (one frame) and strong k = 3 (6 frames) it reads little.
    f4 = generate(FolnerGrid.diagonal(4))
    monkeypatch.setattr(solver.time, "monotonic", itertools.count().__next__)
    built = _count_frames(monkeypatch)
    r = max_k_sum_free(f4, k, strong=strong, budget=ticks)
    assert (r.nodes, r.status, len(built)) == (nodes, "timeout-lower-bound", frames)
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
        h = build_hypergraph(s, k, strong=strong)
        masks = h.masks
        assert masks
        assert all(m.bit_count() >= 2 for m in masks)
        # the build decodes each mask once; the view reads the decoded positions
        assert h.positions == tuple(tuple(_bits(m)) for m in masks)
        assert h.edges == tuple(tuple(s.elements[i] for i in _bits(m)) for m in masks)


def test_edge_mask_examples():
    h = build_hypergraph(IntSet.of([1, 2, 3]), 2)
    assert h.masks == (0b011,)
    assert h.positions == ((0, 1),)
    h = build_hypergraph(IntSet.of([1, 2, 6]), 3)
    assert h.masks == (0b110,)
    assert h.positions == ((1, 2),)
    h = build_hypergraph(IntSet.of([]), 2)
    assert h.masks == h.positions == ()


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


def _k2_sets():
    rng = random.Random("k2-route")
    sets = [IntSet.of([]), IntSet.of([5])]
    for i in range(120):
        top = (60, 120, 500, 5000)[i % 4]
        sets.append(IntSet.of(rng.sample(range(1, top), 5 + i % 40)))
    # chains {x, 2x, 3x, ...}, where every triple {a, 2a, 3a} is a support but no edge
    sets += [IntSet.of(range(x, 40 * x, x)) for x in (1, 2, 7)]
    # sparse sets near 10^6, with some of their sums and doubles put back
    for i in range(20):
        base = rng.sample(range(1, 5 * 10**5), 25)
        sums = [a + b for a, b in zip(base, base[1 + i % 3 :])] + [2 * a for a in base[:3]]
        sets.append(IntSet.of(base + sums[:: 1 + i % 2]))
    sets += [generate(FolnerGrid.diagonal(m)) for m in (1, 2, 3, 4)]
    sets.append(generate(FolnerGrid(3, 4)))
    return sets


@pytest.mark.parametrize("strong", [False, True])
def test_k2_route_matches_the_general_build(strong):
    # at k = 2 the build emits each edge in its final place; the general route
    # sorts all supports and drops those holding a smaller edge
    for s in _k2_sets():
        h = build_hypergraph(s, 2, strong=strong)
        ref = solver._minimal_hypergraph(s, (2,))
        assert (h.masks, h.positions) == (ref.masks, ref.positions)


def _refusal(monkeypatch, build, s, cap):
    monkeypatch.setattr(solver, "DEFAULT_EDGE_CAP", cap)
    try:
        return len(build(s).masks)
    except ResourceLimitError as err:
        return ("refused", err.required)


def test_k2_route_refuses_exactly_what_the_general_build_refuses(monkeypatch):
    # a support is a pair a <= b of members with a + b a member; the cap counts
    # them all, so it refuses at c + 1 of them on both routes, even where the
    # triples {a, 2a, 3a} that are no edge are what pass c: {1, 2, 3} has one
    # edge, {1, 2}, and two supports, so a cap of 1 refuses it
    routes = (lambda s: build_hypergraph(s, 2), lambda s: solver._minimal_hypergraph(s, (2,)))
    sets = [IntSet.of([1, 2, 3]), IntSet.of(range(1, 13))] + _k2_sets()[:40:3]
    counts = []
    for s in sets:
        supports = sum(a + b in s for a, b in combinations_with_replacement(s.elements, 2))
        counts.append((s, supports, len(build_hypergraph(s, 2).masks)))
    for s, supports, edges in counts:
        for cap in {max(edges - 1, 0), edges, max(supports - 1, 0), supports}:
            got = [_refusal(monkeypatch, build, s, cap) for build in routes]
            expected = ("refused", cap + 1) if supports > cap else edges
            assert got == [expected, expected], (s, cap)


def test_one_word_frames_are_never_renumbered(monkeypatch):
    # 38 edges fit in one word, so renumbering the few left alive would only
    # rebuild the columns: the root's frame serves the whole search
    rng = random.Random("bb-one-word")
    s = IntSet.of(rng.sample(range(1, 400), 38))
    graph = build_hypergraph(s, 2)
    assert len(graph.masks) == 38
    built = _count_frames(monkeypatch)
    new, old = _bb_and_reference(monkeypatch, graph, 10**5)
    assert new == old
    assert (new[0], new[2], new[3]) == (28, 149, "optimal")
    assert len(built) == 1


def _reference_frame(n, masks, vertex_tuples):
    column = [0] * n
    for pos, edge in enumerate(vertex_tuples):
        for i in edge:
            column[i] |= 1 << pos
    return masks, vertex_tuples, column


def reference_bb(graph, deadline):
    """bb with nothing carried from parent to child but its bitmasks: every node
    recounts each vertex's degree by popcount, every greedy pick clears vertex
    by vertex, and the seeds read each vertex's full edge list."""
    n = len(graph.vertices)
    all_mask = (1 << n) - 1
    frame = _reference_frame(n, graph.masks, graph.positions)
    column = frame[2]
    edges_with = [[] for _ in graph.vertices.elements]
    for m, edge in zip(graph.masks, graph.positions):
        for i in edge:
            edges_with[i].append(m)
    seeds = []
    for order in (range(n), range(n - 1, -1, -1)):
        seed = 0
        for i in order:
            grown = seed | 1 << i
            if all(m & ~grown for m in edges_with[i]):
                seed = grown
        seeds.append(seed)
    best_mask = max(seeds, key=int.bit_count)
    best_size = best_mask.bit_count()
    status = "optimal"
    nodes = 0
    stack = [(0, 0, (1 << len(graph.masks)) - 1, column, frame, -1)]
    while stack:
        nodes += 1
        if deadline is not None and time.monotonic() > deadline:
            status = "timeout-lower-bound"
            break
        chosen, out, alive, cols, frame, taken = stack.pop()
        edge_masks, vertex_tuples, column = frame
        if taken >= 0:
            units = 0
            for pos in _bits(alive & column[taken]):
                r = edge_masks[pos] & ~chosen
                if r & (r - 1) == 0:
                    units |= r
            if units:
                out |= units
                for i in _bits(units):
                    alive ^= alive & cols[i]
        room = n - out.bit_count() - best_size
        rest = alive
        while rest and room > 0:
            for i in vertex_tuples[(rest & -rest).bit_length() - 1]:
                rest ^= rest & cols[i]
            room -= 1
        if room <= 0:
            continue
        if not alive:
            best_size = n - out.bit_count()
            best_mask = all_mask & ~out
            continue
        count = alive.bit_count()
        if count * 8 < len(edge_masks):
            positions = _bits(alive)
            frame = _reference_frame(
                n, [edge_masks[p] for p in positions], [vertex_tuples[p] for p in positions]
            )
            cols = [0 if chosen >> i & 1 else c for i, c in enumerate(frame[2])]
            alive = (1 << count) - 1
        degrees = [(c & alive).bit_count() for c in cols]
        branch = degrees.index(max(degrees))
        stack.append((chosen, out | 1 << branch, alive ^ (alive & cols[branch]), cols, frame, -1))
        cols = cols.copy()
        cols[branch] = 0
        stack.append((chosen | 1 << branch, out, alive, cols, frame, branch))
    return solver.SolveResult(best_size, solver._mask_to_set(best_mask, graph.vertices), nodes, status)


def _bb_and_reference(monkeypatch, graph, ticks):
    # a clock that ticks once per read stops both after the same node, and stops
    # a wrong bb that loops on a vertex it has already decided
    rows = []
    for solve in (solver._solve_bb, reference_bb):
        monkeypatch.setattr(solver.time, "monotonic", itertools.count().__next__)
        r = solve(graph, ticks)
        rows.append((r.size, r.witness.elements, r.nodes, r.status))
    return rows


def test_bb_matches_its_reference_on_seeded_sets(monkeypatch):
    # bb derives each node's degrees from its parent's and clears greedy picks by
    # neighbourhood masks; the search tree, incumbents and witnesses are the
    # reference's, node for node.  The largest of these trees has 10,545 nodes;
    # together they take both degree routes (a decrement per dead edge, a
    # recount by popcount) and renumber their edges 130 times, in frames of 64
    # edges or more, so the reference keeps checking the renumbered frames
    rng = random.Random("bb-differential")
    built = _count_frames(monkeypatch)
    for i in range(48):
        size = 8 + (13 * i) % 53
        k, strong = 2 + i % 3, i % 2 == 1
        s = IntSet.of(rng.sample(range(1, 3 * size + 20 * k), size))
        new, old = _bb_and_reference(monkeypatch, build_hypergraph(s, k, strong=strong), 10**5)
        assert new == old
        assert new[3] == "optimal"
    assert len(built) - 48 > 100


@pytest.mark.parametrize("ticks, size", [(5013, 23), (5014, 24)])
def test_bb_matches_its_reference_on_g_at_k3(monkeypatch, ticks, size):
    # G at k = 3: 1,218 edges of up to 4 vertices over 64.  bb first improves on
    # its seed at the leaf of node 5,015; before it, 6,144 of 48,935 greedy picks
    # hold a taken vertex and clear the mask filed under their vertices not taken,
    # 1,359 nodes recount their degrees, and the edges are renumbered 146 times.
    # The budgets stop just before and just after that leaf, so a tree that
    # reaches it at any other node differs from the reference at one of them
    graph = build_hypergraph(generate(FolnerGrid(3, 4)), 3)
    assert len(graph.masks) == 1218
    built = _count_frames(monkeypatch)
    new, old = _bb_and_reference(monkeypatch, graph, ticks)
    assert new == old
    assert len(built) == 1 + 146
    assert (new[0], new[2], new[3]) == (size, ticks + 2, "timeout-lower-bound")
