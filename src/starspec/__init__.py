"""Exact spectra of star-transposition Cayley graphs on symmetric groups.

Two independent routes to the same table: the content formula over standard
Young tableaux and a closed-walk-count oracle over the classes of the group,
both exact, plus semicircle-law convergence diagnostics for the rescaled
spectral measure.
"""

from .cayley import WalkCounts, closed_walk_counts, oracle_multiplicity_table
from .errors import SizeLimitError
from .partitions import (
    MAX_ENUMERATION_SIZE,
    Box,
    conjugate,
    corners,
    dimension,
    enumerate_partitions,
    hook_length,
    remove_corner,
)
from .semicircle import (
    SemicircleReport,
    all_pairings,
    catalan,
    convergence_report,
    count_noncrossing_pairings,
    empirical_mass,
    is_noncrossing,
    kolmogorov_distance,
    moment_ratio,
    semicircle_cdf,
    semicircle_mass,
    semicircle_moment,
)
from .spectrum import (
    MAX_TABLE_SIZE,
    SpectrumTable,
    hook_bound,
    multiplicity_table,
)
from .tableaux import (
    DEFAULT_MAX_TABLEAU_SIZE,
    StandardTableau,
    count_top_label_at_content,
    count_top_label_at_content_brute,
    enumerate_syt,
)

__version__ = "0.2.0"

__all__ = [
    "Box",
    "DEFAULT_MAX_TABLEAU_SIZE",
    "MAX_ENUMERATION_SIZE",
    "MAX_TABLE_SIZE",
    "SemicircleReport",
    "SizeLimitError",
    "SpectrumTable",
    "StandardTableau",
    "WalkCounts",
    "all_pairings",
    "catalan",
    "closed_walk_counts",
    "conjugate",
    "convergence_report",
    "corners",
    "count_noncrossing_pairings",
    "count_top_label_at_content",
    "count_top_label_at_content_brute",
    "dimension",
    "empirical_mass",
    "enumerate_partitions",
    "enumerate_syt",
    "hook_bound",
    "hook_length",
    "is_noncrossing",
    "kolmogorov_distance",
    "moment_ratio",
    "multiplicity_table",
    "oracle_multiplicity_table",
    "remove_corner",
    "semicircle_cdf",
    "semicircle_mass",
    "semicircle_moment",
    "__version__",
]
