"""Exact tooling for k-sum-free sets.

Predicates and certificates over finite integer sets, dilation-based
extraction with a proven size guarantee, exact maximum-subset solvers,
multiplicative grids with dilation defects, residue-level periodic
analysis, and finitely supported rational measures.
"""

import types

from .core import (
    IntSet,
    Violation,
    find_violation,
    format_set_text,
    is_k_sum_free,
    is_strongly_k_sum_free,
    k_difference_set,
    parse_set_text,
    read_set_file,
    write_set_file,
)
from .dilation import (
    ExtractionResult,
    extract_dilate_exhaustive,
    extract_dilate_folner,
    extract_dilate_measure,
)
from .errors import FalsificationError, InvalidParameterError, ResourceLimitError
from .folner import (
    FolnerGrid,
    defect,
    defect_closed_form,
    first_primes,
    generate,
    set_dilation_defect,
)
from .measures import (
    NuSchedule,
    RationalMeasure,
    build_mu,
    build_nu,
    mix,
    parse_measure,
    pushforward_scale,
    serialize_measure,
    uniform_measure,
)
from .periodic import (
    ApNotFound,
    DensityDrop,
    DensityDropInstance,
    Falsified,
    PeriodicContainment,
    ResidueSet,
    StepOutcome,
    check_translate_inequality,
    density,
    difference_kernel,
    find_ap,
    fls_step,
    geometric_schedule,
    min_ap_length,
    parse_instance,
    periodic_hull,
    serialize_instance,
    verify_density_drop,
)
from .solver import (
    ForbiddenHypergraph,
    SolveResult,
    build_hypergraph,
    max_k_sum_free,
)

__version__ = "0.1.0"

# every public name imported above; the submodules themselves stay out
__all__ = sorted(
    name
    for name, value in vars().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
