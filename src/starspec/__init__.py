"""Exact spectra of star-transposition Cayley graphs on symmetric groups.

Two independent routes to the same table: the content formula over standard
Young tableaux and a closed-walk-count oracle over the classes of the group,
both exact, plus semicircle-law convergence diagnostics for the rescaled
spectral measure.
"""

from .cayley import WalkCounts, closed_walk_counts, oracle_multiplicity_table
from .semicircle import (
    SemicircleReport,
    catalan,
    convergence_report,
    kolmogorov_distance,
    moment_ratio,
    semicircle_cdf,
    semicircle_mass,
)
from .spectrum import (
    MAX_TABLE_SIZE,
    SizeLimitError,
    SpectrumTable,
    hook_bound,
    multiplicity_table,
)

__version__ = "0.4.0"

__all__ = [
    "MAX_TABLE_SIZE",
    "SemicircleReport",
    "SizeLimitError",
    "SpectrumTable",
    "WalkCounts",
    "catalan",
    "closed_walk_counts",
    "convergence_report",
    "hook_bound",
    "kolmogorov_distance",
    "moment_ratio",
    "multiplicity_table",
    "oracle_multiplicity_table",
    "semicircle_cdf",
    "semicircle_mass",
    "__version__",
]
