"""Multiplicative grids with vanishing dilation defect.

The grid with parameters (r, b) is the set of integers p_1^{e_1} ... p_r^{e_r}
where p_1 < ... < p_r are the first r primes and every exponent satisfies
0 <= e_i < b.  The diagonal family F_m (r = b = m) has the property that
dilating by any fixed integer a moves an asymptotically vanishing fraction
of the grid: the defect |aF △ F| / |F| tends to 0 as m grows whenever a's
prime factors appear in the grid.  That is what makes these grids useful
as an averaging substrate for dilation extraction.

The defect has a closed form read off a's factorization.  ``defect`` keeps
an independent route for it (direct set arithmetic while the grid is small
enough to enumerate) so the two can be cross-checked.  That route counts
|aF ∩ F| over the multiples of a in F, as the members y with a | y and y/a
also a member; it reads no factorization, so it stays independent of the
closed form.  It keeps the element list and the element set of the last grid
it enumerated until another grid is asked for, so a sweep over many factors
of one grid builds them once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt, prod
from typing import Iterable, Optional

from .core import IntSet, _require_int, _require_within
from .errors import InvalidParameterError

DEFAULT_GENERATE_CAP = 10**7
DEFAULT_DEFECT_ENUMERATION_CAP = 10**5
# Size times the largest element's bit length, as ``defect`` keeps its element list
# and set alive (the list adds 8 bytes per element); FolnerGrid(5, 10), at the
# element cap, needs 10^5 * 101 bits.
DEFECT_ENUMERATION_BIT_CAP = 2 * 10**7


def first_primes(count: int) -> tuple[int, ...]:
    """The first ``count`` primes, by trial division up to the square root."""
    _require_int(count, "prime count", 0)
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        root = isqrt(candidate)
        for p in primes:
            if p > root:
                primes.append(candidate)
                break
            if candidate % p == 0:
                break
        else:  # only 2, which has no smaller prime to try
            primes.append(candidate)
        candidate += 1
    return tuple(primes)


@dataclass(frozen=True)
class FolnerGrid:
    """Parameters (prime_count=r, exponent_bound=b) of a multiplicative grid."""

    prime_count: int
    exponent_bound: int

    def __post_init__(self) -> None:
        _require_int(self.prime_count, "prime count")
        _require_int(self.exponent_bound, "exponent bound")

    @staticmethod
    def diagonal(m: int) -> "FolnerGrid":
        return FolnerGrid(m, m)

    @staticmethod
    def parse(text: str) -> "FolnerGrid":
        """Parse a grid descriptor: 'm' for diagonal, 'r,b' for rectangular."""
        parts = [p.strip() for p in text.split(",")]
        try:
            numbers = [int(p) for p in parts]
        except ValueError:
            raise InvalidParameterError(f"bad grid descriptor {text!r}") from None
        if len(numbers) == 1:
            return FolnerGrid.diagonal(numbers[0])
        if len(numbers) == 2:
            return FolnerGrid(numbers[0], numbers[1])
        raise InvalidParameterError(f"bad grid descriptor {text!r}")

    @cached_property
    def primes(self) -> tuple[int, ...]:
        return first_primes(self.prime_count)

    def size(self) -> int:
        return self.exponent_bound**self.prime_count


def _products(grid: FolnerGrid) -> list[int]:
    """Every element of the grid, unsorted: products of prime powers below the bound."""
    values = [1]
    for p in grid.primes:
        powers = [p**e for e in range(grid.exponent_bound)]
        values = [v * q for v in values for q in powers]
    return values


def generate(grid: FolnerGrid) -> IntSet:
    """Enumerate the full grid, refusing one of more than DEFAULT_GENERATE_CAP elements."""
    _require_within(grid.size(), DEFAULT_GENERATE_CAP, "grid has {} elements")
    return IntSet.of(_products(grid))


def _factor_over(primes: tuple[int, ...], a: int) -> Optional[dict]:
    """Exponents of a over the given primes, or None if a cofactor remains."""
    exponents = {}
    for p in primes:
        e = 0
        while a % p == 0:
            a //= p
            e += 1
        exponents[p] = e
    if a != 1:
        return None
    return exponents


def defect_closed_form(grid: FolnerGrid, a: int) -> Fraction:
    """Closed form for |aF △ F| / |F| from a's factorization.

    Any prime of a outside the grid empties the intersection (defect 2);
    otherwise each exponent c_j shrinks its axis from b to max(0, b - c_j).
    """
    _require_int(a, "dilation factor")
    exponents = _factor_over(grid.primes, a)
    if exponents is None:
        return Fraction(2)
    b = grid.exponent_bound
    surviving = 1
    for c in exponents.values():
        surviving *= max(0, b - c)
    return 2 * (1 - Fraction(surviving, grid.size()))


def _injective_defect(elements: Iterable[int], members: frozenset, a: int) -> Fraction:
    """|aF △ F| / |F| = 2*(|F| - |aF ∩ F|) / |F|, as x -> a*x is injective.

    x -> a*x maps {x in F : a*x in F} onto {y in F : a | y, y/a in F} for any
    finite F, so the count runs over F's multiples of a: most members fail the
    cheap ``y % a`` and never pay for a big product, its hash or a lookup.  The
    walk runs over F's ``elements`` in sequence, faster than over its ``members``.
    """
    shared = len([y for y in elements if not y % a if y // a in members])
    return Fraction(2 * (len(members) - shared), len(members))


# The element list and set of the last grid ``defect`` enumerated, keyed by
# that grid; one entry at most.
_enumerated: dict[FolnerGrid, tuple[list[int], frozenset]] = {}


def defect(grid: FolnerGrid, a: int) -> Fraction:
    """Exact dilation defect |aF △ F| / |F|.

    Grids small enough to enumerate are measured directly by
    ``_injective_defect``, which counts |aF ∩ F| as the grid elements y with
    a | y and y/a also an element.  It reads no factorization of a, which
    keeps this route independent of ``defect_closed_form``, which grids past
    DEFAULT_DEFECT_ENUMERATION_CAP elements or DEFECT_ENUMERATION_BIT_CAP
    bits (size times the largest element's bit length) return.  The element
    list and set of the last grid enumerated are kept until another grid is
    asked for.
    """
    _require_int(a, "dilation factor")
    size = grid.size()
    # the element cap first: the largest element is formed only for a small grid
    if size > DEFAULT_DEFECT_ENUMERATION_CAP or size * (
        prod(grid.primes) ** (grid.exponent_bound - 1)
    ).bit_length() > DEFECT_ENUMERATION_BIT_CAP:
        return defect_closed_form(grid, a)
    kept = _enumerated.get(grid)
    if kept is None:
        _enumerated.clear()  # release the last grid's list and set before building these
        elements = _products(grid)
        kept = _enumerated[grid] = (elements, frozenset(elements))
    return _injective_defect(*kept, a)


def set_dilation_defect(f: IntSet, a: int) -> Fraction:
    """|aF △ F| / |F| for an arbitrary finite set F (no grid structure assumed)."""
    if not f:
        raise InvalidParameterError("defect of the empty set is undefined")
    _require_int(a, "dilation factor")
    return _injective_defect(f.elements, f._members, a)
