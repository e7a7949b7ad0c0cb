"""Exact maximum k-sum-free subsets, as hypergraph independent sets.

Every violating multiset (k summands from A plus their total, all in A)
contributes its support set as a forbidden edge; a subset of A is
k-sum-free exactly when it contains no edge in full.  Edges that contain
another edge are dropped, since they can never be the binding constraint.
Edges are bitmasks from the build onward; bit i stands for the i-th
smallest element of A.

Two solvers: a plain depth-first enumeration over subsets (``brute``),
kept simple enough to trust as an oracle and guaranteeing the
lexicographically smallest optimal witness, and a branch-and-bound
(``bb``) that branches on the vertex lying in the most alive edges and
prunes with a greedy disjoint-edge bound.  Its edges live in a frame:
the edge masks in one order, each edge's vertex tuple, and each vertex's
column (the positions of the edges holding it, as a bitmask).  The seed,
``bb``'s first incumbent, is the larger of an ascending and a descending
greedy pass, ties to ascending; each pass takes every vertex that
completes no edge, reading each vertex's edges as ``brute`` does.
A ``bb`` node ``(chosen, out, alive, cols,
frame, taken)`` holds the vertices taken and forced out, ``alive`` (the
frame positions of the edges not meeting ``out``), the columns with each
taken vertex's set to 0, and the vertex its parent just took; so a
degree is one popcount of a masked column, and no node copies an edge
list.  Every edge has at least 2 vertices (k >= 2 positive summands fall
short of their total), and unit propagation keeps every alive edge at 2
or more vertices not taken, so only the include child can gain units, on
the edges through the vertex it took; one pass suffices, because forcing
a vertex out never creates a unit.  Once the alive edges fill under 1/8
of the frame they are renumbered into a new one, in the same order, so
that each bitmask costs their count rather than the count of all edges.
``bb`` honors a wall-clock budget of positive finite seconds, started before
the hypergraph build and read at every node: on expiry the best set found so
far, the seed at least, is returned as a certified lower bound, not an optimum.
``brute`` refuses a budget; its size limit is its bound.
"""

from __future__ import annotations

import math
import time
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
    """Vertices plus the minimal supports of violating multisets, as bitmasks."""

    vertices: IntSet
    masks: tuple[int, ...]

    @property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        elements = self.vertices.elements
        return tuple(tuple(elements[i] for i in _bits(m)) for m in self.masks)


def build_hypergraph(s: IntSet, k: int, strong: bool = False) -> ForbiddenHypergraph:
    """All minimal forbidden supports for k (or for every arity 2..k if strong)."""
    _require_arity(k)
    bit = {v: 1 << i for i, v in enumerate(s.elements)}
    supports: set[int] = set()
    for ell in range(2, k + 1) if strong else (k,):
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
    by_lowest: dict[int, list[int]] = {}
    for mask in sorted(supports, key=lambda m: (m.bit_count(), _bits(m))):
        if not any(o & mask == o for i in _bits(mask) for o in by_lowest.get(i, ())):
            kept.append(mask)
            by_lowest.setdefault((mask & -mask).bit_length() - 1, []).append(mask)
    return ForbiddenHypergraph(s, tuple(kept))


@dataclass(frozen=True)
class SolveResult:
    size: int
    witness: IntSet
    nodes: int
    status: str  # "optimal" or "timeout-lower-bound"


def _mask_to_set(mask: int, vertices: tuple[int, ...]) -> IntSet:
    return IntSet(tuple(vertices[i] for i in _bits(mask)))


def _edges_with(n: int, masks: Sequence[int]) -> list[list[int]]:
    """For each vertex, the edge masks that hold it, in edge order."""
    edges_with: list[list[int]] = [[] for _ in range(n)]
    for m in masks:
        for i in _bits(m):
            edges_with[i].append(m)
    return edges_with


def _solve_brute(vertices: tuple[int, ...], masks: tuple[int, ...]) -> SolveResult:
    n = len(vertices)
    edges_with = _edges_with(n, masks)
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
        if idx == n:
            if size > best_size:
                best_size = size
                best_mask = cur
            return
        bit = 1 << idx
        grown = cur | bit
        if all(m & ~grown for m in edges_with[idx]):
            walk(idx + 1, grown, size + 1)
        walk(idx + 1, cur, size)

    walk(0, 0, 0)
    return SolveResult(best_size, _mask_to_set(best_mask, vertices), nodes, "optimal")


def _frame(n: int, masks: Sequence[int], vertex_tuples: list[tuple[int, ...]]) -> tuple:
    """Edge masks, their vertex tuples and each vertex's column: the positions
    of the edges that hold it, as a bitmask over this numbering of the edges."""
    column = [0] * n
    for pos, edge in enumerate(vertex_tuples):
        for i in edge:
            column[i] |= 1 << pos
    return masks, vertex_tuples, column


def _solve_bb(
    vertices: tuple[int, ...], masks: tuple[int, ...], deadline: Optional[float]
) -> SolveResult:
    n = len(vertices)
    all_mask = (1 << n) - 1
    frame = _frame(n, masks, [tuple(_bits(m)) for m in masks])
    column = frame[2]
    # greedy passes, ascending then descending, each taking every vertex that
    # completes no edge; small vertices make the most sums, so the descending
    # pass is often the larger. max keeps the first of equals: ties go ascending.
    # They read edge lists, as decoding a wide column costs its width per bit
    edges_with = _edges_with(n, masks)
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
    # a node: the vertices taken and forced out on its path; `alive`, the frame
    # positions of the edges not meeting `out`; `cols`, the frame's columns with
    # each taken vertex's set to 0; and `taken`, the vertex its parent took, or -1
    stack = [(0, 0, (1 << len(masks)) - 1, column, frame, -1)]
    while stack:
        nodes += 1
        if deadline is not None and time.monotonic() > deadline:
            status = "timeout-lower-bound"
            break
        chosen, out, alive, cols, frame, taken = stack.pop()
        edge_masks, vertex_tuples, column = frame
        # unit propagation: an alive edge with one vertex not taken forces it out.
        # Only the edges through the vertex just taken can have come down to one.
        if taken >= 0:
            units = 0
            for pos in _bits(alive & column[taken]):
                r = edge_masks[pos] & ~chosen
                if r & (r - 1) == 0:
                    units |= r
            if units:
                out |= units
                # x ^= x & c clears c's bits from x; on wide ints it beats x &= ~c,
                # which builds a negative int and its complement first
                for i in _bits(units):
                    alive ^= alive & cols[i]
        # the greedy bound: walk the alive edges in order, picking each that shares
        # no vertex not taken with an earlier pick (a pick clears its own position,
        # as it keeps a vertex not taken); prune once the picks leave the vertices
        # not out no room above the incumbent
        room = n - out.bit_count() - best_size
        rest = alive
        while rest and room > 0:
            for i in vertex_tuples[(rest & -rest).bit_length() - 1]:
                rest ^= rest & cols[i]
            room -= 1
        if room <= 0:
            continue
        if not alive:  # a leaf: the bound is met by taking every vertex not out
            best_size = n - out.bit_count()
            best_mask = all_mask & ~out
            continue
        # renumber the alive edges once they fill under 1/8 of the frame, so that
        # each bitmask operation costs their count, not the count of all edges
        count = alive.bit_count()
        if count * 8 < len(edge_masks):
            positions = _bits(alive)
            frame = _frame(
                n, [edge_masks[p] for p in positions], [vertex_tuples[p] for p in positions]
            )
            cols = [0 if chosen >> i & 1 else c for i, c in enumerate(frame[2])]
            alive = (1 << count) - 1
        # the degree of a vertex is its count of alive edges; ties go to the lowest
        degrees = [(c & alive).bit_count() for c in cols]
        branch = degrees.index(max(degrees))
        stack.append((chosen, out | 1 << branch, alive ^ (alive & cols[branch]), cols, frame, -1))
        cols = cols.copy()
        cols[branch] = 0
        stack.append((chosen | 1 << branch, out, alive, cols, frame, branch))
    return SolveResult(best_size, _mask_to_set(best_mask, vertices), nodes, status)


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
        result = _solve_brute(s.elements, graph.masks)
    else:
        result = _solve_bb(s.elements, graph.masks, deadline)
    checker = is_strongly_k_sum_free if strong else is_k_sum_free
    if not checker(result.witness, k):
        raise FalsificationError("solver witness fails the sum-freeness predicate")
    return result
