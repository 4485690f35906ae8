"""Exact spectra of star-transposition Cayley graphs on symmetric groups.

Two independent routes to the same table: a recurrence drawn from a closed
form for each multiplicity and a closed-walk-count oracle over the classes of
the group, both exact, plus semicircle-law convergence diagnostics for the
rescaled spectral measure.
"""

from .cayley import closed_walk_counts, oracle_multiplicity_table
from .semicircle import convergence_report, semicircle_cdf
from .spectrum import MAX_TABLE_SIZE, SizeLimitError, multiplicity_table

__version__ = "0.10.0"

__all__ = [
    "MAX_TABLE_SIZE",
    "SizeLimitError",
    "closed_walk_counts",
    "convergence_report",
    "multiplicity_table",
    "oracle_multiplicity_table",
    "semicircle_cdf",
    "__version__",
]
