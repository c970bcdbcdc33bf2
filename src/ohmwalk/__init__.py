"""ohmwalk: exact two-point resistances, Kirchhoff indices, and
random-walk hitting times on circulant graphs, centered on the complete
graph minus opposite edges."""

from .circulant import (
    CirculantGraph,
    complete_graph,
    complete_minus_opposite,
    cycle_graph,
)
from .exact import (
    SequenceContext,
    bejaia,
    bejaia_sequence,
    conjugate_ratio,
    pisa,
    pisa_sequence,
    sum_bejaia_even,
    sum_bejaia_squares,
)
from .resistance import (
    ResistanceReport,
    eigentime_identity_check,
    r_half_sums,
    resistance_report,
    total_effective_resistance,
    two_point_resistance,
    two_point_resistance_radical,
)
from .spectral import (
    chebyshev_normalized,
    cos_odd_power_sum,
    eigenvalues_circulant,
    eigenvalues_minus_opposite,
    reciprocal_sum,
    series_identities,
    sin_power_sum,
    spectral_resistance,
)
from .walks import (
    FptEstimate,
    WalkConfig,
    fpt_closed,
    kernel_backend,
    markov_fpt,
    mfpt_closed,
    simulate_fpt,
)

__version__ = "0.1.0"

__all__ = [
    "CirculantGraph",
    "FptEstimate",
    "ResistanceReport",
    "SequenceContext",
    "WalkConfig",
    "bejaia",
    "bejaia_sequence",
    "chebyshev_normalized",
    "complete_graph",
    "complete_minus_opposite",
    "conjugate_ratio",
    "cos_odd_power_sum",
    "cycle_graph",
    "eigentime_identity_check",
    "eigenvalues_circulant",
    "eigenvalues_minus_opposite",
    "fpt_closed",
    "kernel_backend",
    "markov_fpt",
    "mfpt_closed",
    "pisa",
    "pisa_sequence",
    "r_half_sums",
    "reciprocal_sum",
    "resistance_report",
    "series_identities",
    "simulate_fpt",
    "sin_power_sum",
    "spectral_resistance",
    "sum_bejaia_even",
    "sum_bejaia_squares",
    "total_effective_resistance",
    "two_point_resistance",
    "two_point_resistance_radical",
    "__version__",
]
