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
(``bb``) that branches on the vertex lying in the most active edges and
prunes with a greedy disjoint-edge bound; its unit propagation takes one
pass, because forcing a vertex out never creates a new unit.  A ``bb`` node
``(out, residuals, alive)`` is built from its parent: the include child
clears the branch vertex from the parent's residual edges, the exclude
child drops the residuals holding it, and ``alive`` (a bitmask of edge
positions) loses the edge column of each vertex forced out, so a degree is
one popcount of a masked column; the greedy seed reads the columns too.
``bb`` honors a wall-clock budget of positive finite seconds: on expiry the
best set found so far is returned as a certified lower bound, not an optimum.
``brute`` refuses a budget; its size limit is its bound.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Optional

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

    def is_independent(self, subset: IntSet) -> bool:
        members = subset._members
        chosen = sum(1 << i for i, v in enumerate(self.vertices.elements) if v in members)
        return all(m & chosen != m for m in self.masks)


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


def _solve_brute(vertices: tuple[int, ...], masks: tuple[int, ...]) -> SolveResult:
    n = len(vertices)
    # edges_with[i]: the edge masks that hold vertex i
    edges_with: list[list[int]] = [[] for _ in range(n)]
    for m in masks:
        for i in _bits(m):
            edges_with[i].append(m)
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


def _solve_bb(
    vertices: tuple[int, ...], masks: tuple[int, ...], budget: Optional[float]
) -> SolveResult:
    n = len(vertices)
    all_mask = (1 << n) - 1
    # column[i]: the positions of the edges that hold vertex i, as a bitmask
    column = [0] * n
    for pos, m in enumerate(masks):
        for i in _bits(m):
            column[i] |= 1 << pos
    # the seed takes each vertex, ascending, that completes no edge
    best_mask = 0
    for i in range(n):
        grown = best_mask | 1 << i
        if all(masks[pos] & ~grown for pos in _bits(column[i])):
            best_mask = grown
    best_size = best_mask.bit_count()
    deadline = None if budget is None else time.monotonic() + budget
    status = "optimal"
    nodes = 0
    # a node carries its parent's residuals (edges not meeting `out`, minus the
    # vertices taken on this path, in edge order) and `alive`, their positions
    stack = [(0, list(masks), (1 << len(masks)) - 1)]
    while stack:
        nodes += 1
        if deadline is not None and nodes & 255 == 0 and time.monotonic() > deadline:
            status = "timeout-lower-bound"
            break
        out, residuals, alive = stack.pop()
        # `out` never meets a taken vertex, so a fully taken edge stays active as a 0
        if 0 in residuals:
            continue
        # unit propagation: an active edge with one vertex not taken forces it out.
        # One pass suffices: units depend on the taken vertices alone, and forcing a
        # vertex out only switches off edges that have a vertex not taken.
        units = 0
        for r in residuals:
            if r & (r - 1) == 0:
                units |= r
        if units:
            out |= units
            residuals = [r for r in residuals if not r & units]
            for i in _bits(units):
                alive &= ~column[i]
        used = 0
        matching = 0
        for r in residuals:
            if not r & used:
                used |= r
                matching += 1
        if n - out.bit_count() - matching <= best_size:
            continue
        if not residuals:  # a leaf: the bound is met by taking every vertex not out
            best_size = n - out.bit_count()
            best_mask = all_mask & ~out
            continue
        # the degree of a vertex is its count of alive edges; ties go to the lowest
        branch, top = 0, 0
        for i in _bits(reduce(or_, residuals)):
            degree = (column[i] & alive).bit_count()
            if degree > top:
                branch, top = i, degree
        bit = 1 << branch
        excluded = [r for r in residuals if not r & bit]
        stack.append((out | bit, excluded, alive & ~column[branch]))
        stack.append((out, [r & ~bit for r in residuals], alive))
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
    graph = build_hypergraph(s, k, strong=strong)
    if algo == "brute":
        result = _solve_brute(s.elements, graph.masks)
    else:
        result = _solve_bb(s.elements, graph.masks, budget)
    checker = is_strongly_k_sum_free if strong else is_k_sum_free
    if not checker(result.witness, k):
        raise FalsificationError("solver witness fails the sum-freeness predicate")
    return result
