"""Exact maximum k-sum-free subsets, as hypergraph independent sets.

Every violating multiset (k summands from A plus their total, all in A)
contributes its support set as a forbidden edge; a subset of A is
k-sum-free exactly when it contains no edge in full.  Edges that contain
another edge are dropped, since they can never be the binding constraint.
Edges are bitmasks from the build onward; bit i stands for the i-th
smallest element of A, and they are ordered by size, then by positions.
For k >= 3 the build sorts the supports, decoding each once into the
vertex ``positions`` that both solvers and the ``edges`` view read, and
drops the non-minimal ones through an index.  At k = 2 it needs neither:
the pairs {a, 2a} and then the triples {a, b, a + b} come out in that order
from two passes over A, and a triple holds a smaller edge only when b = 2a.

Two solvers: a plain depth-first enumeration over subsets (``brute``),
kept simple enough to trust as an oracle and guaranteeing the
lexicographically smallest optimal witness, and a branch-and-bound
(``bb``) that branches on the vertex lying in the most alive edges and
prunes with a greedy disjoint-edge bound.  Its edges live in a frame:
the edge masks in one order, each edge's vertex tuple, each vertex's
column (the positions of the edges holding it, as a bitmask), and the
masks the bound builds.  The seed, ``bb``'s first incumbent, is the
larger of an ascending and a descending greedy pass, ties to ascending;
each pass takes every vertex that completes no edge.  Each edge is filed
under its highest and its lowest vertex: ``brute`` and the ascending pass
test a vertex against the edges it tops (the set grown so far has no
higher vertex, so no other edge through it can be complete), the
descending pass against the edges it starts, each in one ``all(map(...))``
call.  A ``bb`` node ``(chosen, out, alive, frame, taken, degrees,
before)`` holds the vertices taken and forced out, ``alive`` (the frame
positions of the edges not meeting ``out``), the vertex its parent just
took, and its parent's degree list and ``alive``; it reads the frame's
columns through the mask of vertices not taken and copies no list.  A
node that passes the bound takes one off the degrees of the vertices of
each edge that died since its parent, or recounts them by popcount when
that is the cheaper of the two by measured cost, as it is when many edges
died at once (most of G's branching nodes at k = 3 recount, most of
F_4's do not).  Every edge has at least 2 vertices (k >= 2 positive
summands fall short of their total), and unit propagation keeps every
alive edge at 2 or more vertices not taken, so only the include child
can gain units, on the edges through the vertex it took; one pass
suffices, because forcing a vertex out never creates a unit.  The greedy
bound clears each pick by one mask, the OR of the columns of its
vertices not taken, built on first use and kept by the frame: by edge
for a pick with no taken vertex, else by its vertices not taken.  Once
the alive edges fill under 1/8 of a frame of 64 edges or more they are
renumbered into a new one, in the same order, so that each bitmask costs
their count rather than the count of all edges; a one-word frame is kept,
as renumbering it would save nothing and drop its pick masks.
``bb`` honors a wall-clock budget of positive finite seconds, started before
the hypergraph build and read at every node: on expiry the best set found so
far, the seed at least, is returned as a certified lower bound, not an optimum.
``brute`` refuses a budget; its size limit is its bound.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import (
    IntSet, _bits, _require_arity, _require_within, _violations, is_k_sum_free,
    is_strongly_k_sum_free,
)
from .errors import FalsificationError, InvalidParameterError

DEFAULT_EDGE_CAP = 10**7
BRUTE_SIZE_LIMIT = 30


@dataclass(frozen=True)
class ForbiddenHypergraph:
    """Vertices plus the minimal supports of violating multisets, as bitmasks,
    and each edge's vertex positions, decoded once by ``build_hypergraph``."""

    vertices: IntSet
    masks: tuple[int, ...]
    positions: tuple[tuple[int, ...], ...]

    @property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        elements = self.vertices.elements
        return tuple(tuple(elements[i] for i in edge) for edge in self.positions)


def build_hypergraph(s: IntSet, k: int, strong: bool = False) -> ForbiddenHypergraph:
    """All minimal forbidden supports for k (or for every arity 2..k if strong).

    At k = 2 (where strong adds no arity) the edges are emitted in their
    final order, with no sort and no minimality index: first each pair
    {a, 2a}, a ascending, then each triple {a, b, a + b}, a < b ascending,
    except b = 2a, the only way a triple can hold a smaller edge.  Every
    support found counts against DEFAULT_EDGE_CAP, those triples included, so
    the cap refuses the same sets as the general route, which builds k >= 3.
    """
    _require_arity(k)
    if k == 2:
        return _sum_hypergraph(s)
    return _minimal_hypergraph(s, range(2, k + 1) if strong else (k,))


def _sum_hypergraph(s: IntSet) -> ForbiddenHypergraph:
    elements = s.elements
    cap = DEFAULT_EDGE_CAP
    top = max(elements, default=0)
    index = {v: i for i, v in enumerate(elements)}
    get = index.get
    found = 0
    masks: list[int] = []
    positions: list[tuple[int, ...]] = []
    for i, a in enumerate(elements):
        j = get(2 * a)
        if j is not None:
            found += 1
            if found > cap:
                _require_within(found, cap, "build found {} supports")
            masks.append(1 << i | 1 << j)
            positions.append((i, j))
    for i, a in enumerate(elements):
        end = bisect_right(elements, top - a)
        if end <= i + 1:  # top - a only falls as a grows: no pair a < b remains
            break
        for j, b in enumerate(elements[i + 1 : end], i + 1):
            t = get(a + b)
            if t is not None:
                found += 1
                if found > cap:
                    _require_within(found, cap, "build found {} supports")
                if b != 2 * a:
                    masks.append(1 << i | 1 << j | 1 << t)
                    positions.append((i, j, t))
    return ForbiddenHypergraph(s, tuple(masks), tuple(positions))


def _minimal_hypergraph(s: IntSet, arities: Sequence[int]) -> ForbiddenHypergraph:
    """The minimal supports of the violations at each arity, by sort and index."""
    bit = {v: 1 << i for i, v in enumerate(s.elements)}
    supports: set[int] = set()
    for ell in arities:
        for summands, total in _violations(s.elements, ell, max(s.elements, default=0)):
            mask = bit[total]
            for a in summands:
                mask |= bit[a]
            supports.add(mask)
            _require_within(len(supports), DEFAULT_EDGE_CAP, "build found {} supports")
    # keep only inclusion-minimal supports, smallest first so subsets are seen early;
    # bit order is value order, so this is the order of the sorted value tuples.
    # Kept edges are filed under their lowest bit: a kept subset of mask has its
    # lowest bit inside mask, so only the lists filed under mask's bits are tested.
    kept: list[int] = []
    positions: list[tuple[int, ...]] = []
    by_lowest: dict[int, list[int]] = {}
    for _, bits, mask in sorted((m.bit_count(), _bits(m), m) for m in supports):
        if not any(o & mask == o for i in bits for o in by_lowest.get(i, ())):
            kept.append(mask)
            positions.append(tuple(bits))
            by_lowest.setdefault(bits[0], []).append(mask)
    return ForbiddenHypergraph(s, tuple(kept), tuple(positions))


@dataclass(frozen=True)
class SolveResult:
    size: int
    witness: IntSet
    nodes: int
    status: str  # "optimal" or "timeout-lower-bound"


def _mask_to_set(mask: int, vertices: IntSet) -> IntSet:
    return IntSet(tuple(vertices.elements[i] for i in _bits(mask)))


def _filed(graph: ForbiddenHypergraph, end: int) -> list[list[int]]:
    """For each vertex, the masks of the edges whose vertex ``edge[end]`` it is,
    in edge order: the edges it tops for end = -1, the edges it starts for 0."""
    filed: list[list[int]] = [[] for _ in graph.vertices.elements]
    for m, edge in zip(graph.masks, graph.positions):
        filed[edge[end]].append(m)
    return filed


def _solve_brute(graph: ForbiddenHypergraph) -> SolveResult:
    n = len(graph.vertices)
    # `cur` holds no vertex above idx, so only the edges idx tops can be completed
    edges_topped = _filed(graph, -1)
    best_size = -1
    best_mask = 0
    nodes = 0

    # include-first ascending order visits subsets lexicographically, so the
    # first optimum found is the lexicographically smallest one
    def walk(idx: int, cur: int, size: int) -> None:
        nonlocal best_size, best_mask, nodes
        nodes += 1
        if size + (n - idx) <= best_size:
            return
        if idx == n:  # the test above leaves size > best_size
            best_size = size
            best_mask = cur
            return
        grown = cur | 1 << idx
        if all(map((~grown).__and__, edges_topped[idx])):
            walk(idx + 1, grown, size + 1)
        walk(idx + 1, cur, size)

    walk(0, 0, 0)
    return SolveResult(best_size, _mask_to_set(best_mask, graph.vertices), nodes, "optimal")


def _frame(n: int, masks: Sequence[int], vertex_tuples: Sequence[tuple[int, ...]]) -> tuple:
    """Edge masks, vertex tuples, each vertex's column (the positions in this
    frame of the edges holding it, as a bitmask), each edge's neighbourhood (the
    OR of its vertices' columns, 0 until built on first use), and such ORs keyed
    by the vertices not taken of picks holding a taken one."""
    column = [0] * n
    for pos, edge in enumerate(vertex_tuples):
        for i in edge:
            column[i] |= 1 << pos
    return masks, vertex_tuples, column, [0] * len(masks), {}


def _solve_bb(graph: ForbiddenHypergraph, deadline: Optional[float]) -> SolveResult:
    n = len(graph.vertices)
    all_mask = (1 << n) - 1
    frame = _frame(n, graph.masks, graph.positions)
    # greedy passes, ascending then descending, each taking every vertex that
    # completes no edge; small vertices make the most sums, so the descending
    # pass is often the larger. max keeps the first of equals: ties go ascending.
    # A pass holds only vertices on one side of i, so the only edges through i it
    # can complete are those i tops (ascending) or starts (descending)
    seeds = []
    for order, end in ((range(n), -1), (range(n - 1, -1, -1), 0)):
        filed = _filed(graph, end)
        seed = 0
        for i in order:
            grown = seed | 1 << i
            if all(map((~grown).__and__, filed[i])):
                seed = grown
        seeds.append(seed)
    best_mask = max(seeds, key=int.bit_count)
    best_size = best_mask.bit_count()
    status = "optimal"
    nodes = 0
    # a node: the vertices taken and forced out on its path; `alive`, the frame positions
    # of the edges not meeting `out`; `taken`, the vertex its parent took, or -1; and its
    # parent's degree list and `alive`, from which it derives its own
    alive = (1 << len(graph.masks)) - 1
    stack = [(0, 0, alive, frame, -1, [c.bit_count() for c in frame[2]], alive)]
    while stack:
        nodes += 1
        if deadline is not None and time.monotonic() > deadline:
            status = "timeout-lower-bound"
            break
        chosen, out, alive, frame, taken, degrees, before = stack.pop()
        edge_masks, vertex_tuples, column, near, near_free = frame
        free = all_mask ^ chosen
        # unit propagation: an alive edge with one vertex not taken forces it out.
        # Only the edges through the vertex just taken can have come down to one.
        if taken >= 0:
            units = 0
            through = alive & column[taken]
            while through:
                low = through & -through
                r = edge_masks[low.bit_length() - 1] & free
                if r & (r - 1) == 0:
                    units |= r
                through ^= low
            if units:
                out |= units
                # x ^= x & c clears c's bits from x; on wide ints it beats x &= ~c,
                # which builds a negative int and its complement first
                for i in _bits(units):
                    alive ^= alive & column[i]
        # the greedy bound: walk the alive edges in order, picking each that shares
        # no vertex not taken with an earlier pick (a pick clears its own position,
        # as it keeps a vertex not taken); prune once the picks leave the vertices
        # not out no room above the incumbent. A pick clears the OR of the columns of its
        # vertices not taken: its neighbourhood, or if it holds a taken vertex, one keyed by them
        room = n - out.bit_count() - best_size
        rest = alive
        while rest and room > 0:
            pos = (rest & -rest).bit_length() - 1
            if edge_masks[pos] & chosen:
                key = edge_masks[pos] & free
                mask = near_free.get(key, 0)
                if not mask:
                    for i in _bits(key):
                        mask |= column[i]
                    near_free[key] = mask
            else:
                mask = near[pos]
                if not mask:
                    for i in vertex_tuples[pos]:
                        mask |= column[i]
                    near[pos] = mask
            rest ^= rest & mask
            room -= 1
        if room <= 0:
            continue
        if not alive:  # a leaf: the bound is met by taking every vertex not out
            best_size = n - out.bit_count()
            best_mask = all_mask & ~out
            continue
        # the degree of a vertex not taken is its count of alive edges: the
        # parent's count, less one per edge that died since (through the excluded
        # branch or a unit). A taken vertex's is 0 when taken or recounted and may
        # go negative after, but every alive edge keeps 2 vertices not taken, so
        # the maximum is positive and is a true count.  Over a frame of w words,
        # a decrement costs about 600 + 3.5w ns per dead edge and a popcount
        # recount 105 + 4.5w ns per vertex (least squares over 183,257 nodes,
        # CPython 3.11); the node takes the cheaper, the rule reading twice those costs
        dead = before ^ alive
        words = len(edge_masks) >> 6
        if dead.bit_count() * (1200 + 7 * words) > n * (210 + 9 * words):
            degrees = [(c & alive).bit_count() for c in column]
            for i in _bits(chosen):
                degrees[i] = 0
        else:
            degrees = degrees.copy()
            if taken >= 0:
                degrees[taken] = 0
            while dead:
                low = dead & -dead
                for i in vertex_tuples[low.bit_length() - 1]:
                    degrees[i] -= 1
                dead ^= low
        # renumber the alive edges once they fill under 1/8 of the frame, so that
        # each bitmask operation costs their count, not the count of all edges; a
        # frame of under 64 edges is one word already, and renumbering it would
        # only rebuild its columns and drop its pick masks
        count = alive.bit_count()
        if words and count * 8 < len(edge_masks):
            positions = _bits(alive)
            frame = _frame(
                n, [edge_masks[p] for p in positions], [vertex_tuples[p] for p in positions]
            )
            column = frame[2]
            alive = (1 << count) - 1
        # ties go to the lowest vertex
        branch = degrees.index(max(degrees))
        stack.append(
            (chosen, out | 1 << branch, alive ^ (alive & column[branch]), frame, -1, degrees, alive)
        )
        stack.append((chosen | 1 << branch, out, alive, frame, branch, degrees, alive))
    return SolveResult(best_size, _mask_to_set(best_mask, graph.vertices), nodes, status)


def max_k_sum_free(
    s: IntSet,
    k: int,
    algo: str = "bb",
    strong: bool = False,
    budget: Optional[float] = None,
) -> SolveResult:
    """Size and witness of a maximum k-sum-free (or strongly so) subset of s."""
    if budget is not None and (type(budget) not in (int, float) or not 0 < budget < math.inf):
        raise InvalidParameterError(
            f"time budget must be a positive finite number of seconds, got {budget!r}"
        )
    if algo not in ("bb", "brute"):
        raise InvalidParameterError(f"unknown solver algo {algo!r}")
    if algo == "brute" and budget is not None:
        raise InvalidParameterError(
            f"brute force takes no time budget; it is bounded by {BRUTE_SIZE_LIMIT} elements"
        )
    if algo == "brute" and len(s) > BRUTE_SIZE_LIMIT:
        raise InvalidParameterError(
            f"brute force is limited to {BRUTE_SIZE_LIMIT} elements, got {len(s)}"
        )
    deadline = None if budget is None else time.monotonic() + budget
    graph = build_hypergraph(s, k, strong=strong)
    if algo == "brute":
        result = _solve_brute(graph)
    else:
        result = _solve_bb(graph, deadline)
    checker = is_strongly_k_sum_free if strong else is_k_sum_free
    if not checker(result.witness, k):
        raise FalsificationError("solver witness fails the sum-freeness predicate")
    return result
