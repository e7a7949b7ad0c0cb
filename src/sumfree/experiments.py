"""Deterministic experiment tables over grids, defects, and extraction.

Each run_* function returns a CSV string.  Exact rationals drive every
decision; decimal columns are display-only renderings.  The output is
byte-identical for a fixed configuration and seed, which makes the
tables safe to pin in regression tests.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from .core import _require_int, rational_string
from .dilation import extract_dilate_exhaustive
from .folner import FolnerGrid, defect, defect_closed_form, generate
from .harness import random_int_set
from .solver import max_k_sum_free


def decimal_string(value: Fraction) -> str:
    """Fixed-point decimal to six places by exact long division, truncated."""
    value = Fraction(value)
    sign = "-" if value < 0 else ""
    value = abs(value)
    whole, rem = divmod(value.numerator, value.denominator)
    digits = rem * 10**6 // value.denominator
    return f"{sign}{whole}.{digits:06d}"


def run_ratio_experiment(k: int, m_max: int, budget: Optional[float] = None) -> str:
    """Exact largest k-sum-free fraction of each diagonal grid up to m_max."""
    _require_int(m_max, "m_max")
    rows = ["m,grid_size,max_size,fraction_exact,fraction_decimal,status,solver_nodes"]
    for m in range(1, m_max + 1):
        result = max_k_sum_free(generate(FolnerGrid.diagonal(m)), k, budget=budget)
        fraction = Fraction(result.size, m**m)
        rows.append(
            f"{m},{m**m},{result.size},{rational_string(fraction)},"
            f"{decimal_string(fraction)},{result.status},{result.nodes}"
        )
    return "\n".join(rows) + "\n"


def run_defect_experiment(a: int, m_max: int) -> str:
    """Dilation defect of each diagonal grid against its closed form."""
    _require_int(m_max, "m_max")
    rows = ["m,defect_exact,closed_form_exact,match"]
    for m in range(1, m_max + 1):
        grid = FolnerGrid.diagonal(m)
        measured = defect(grid, a)
        predicted = defect_closed_form(grid, a)
        rows.append(
            f"{m},{rational_string(measured)},{rational_string(predicted)},"
            f"{'true' if measured == predicted else 'false'}"
        )
    return "\n".join(rows) + "\n"


def run_extraction_experiment(
    k: int, trials: int, size: int, seed: int, magnitude: int = 10**6
) -> str:
    """Guaranteed-size sum-free extraction over seeded random sets.

    The guarantee ceil(n/(k+1)) is enforced by raising: an extraction that
    falls below it raises FalsificationError, so every row meets it.  The
    summary row carries the exact mean extracted fraction, which should
    exceed 1/(k+1).
    """
    _require_int(trials, "trials")
    rng = random.Random(seed)
    rows = ["trial,n,extracted_size,guarantee,fraction_exact,fraction_decimal"]
    total = Fraction(0)
    for trial in range(1, trials + 1):
        s = random_int_set(rng, size, magnitude)
        result = extract_dilate_exhaustive(s, k)
        n = len(s)
        guarantee = -(-n // (k + 1))
        fraction = Fraction(result.score, n)
        total += fraction
        rows.append(
            f"{trial},{n},{result.score},{guarantee},"
            f"{rational_string(fraction)},{decimal_string(fraction)}"
        )
    mean = total / trials
    rows.append(f"mean,-,-,-,{rational_string(mean)},{decimal_string(mean)}")
    return "\n".join(rows) + "\n"
