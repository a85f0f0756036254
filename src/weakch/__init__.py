"""Toolkit for the CH inequality under nearly perfect correlations.

Singlet predictions, correction-term bounds and thresholds, verification
engines for separate-common-cause models, extremal-angle optimization,
counterexample search, and seeded Monte Carlo sampling with finite-sample
inequality tests.
"""

__version__ = "0.1.0"

import os
import sys

# weakch's arrays hold at most a few hundred cells, so a BLAS thread pool never
# pays for itself. OpenBLAS starts one thread per core as numpy loads, and each
# spins for about 0.1 s: a one-shot `weakch` process burns that much CPU on
# another core, and its CPU time swings with how busy that core is. Cap the
# pool when weakch is the first to load numpy; a value already set is kept.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .common_cause import (
    EprbModel,
    PairwiseCcModel,
    ch_atom_oracle,
    check_cause_mass_bounds,
    classify_cells,
    joint_cause_bounds_check,
    random_eprb_model,
    random_screened_model,
    validate_loc,
    validate_no_conspiracy,
    validate_screening,
)
from .inequalities import (
    QUANTUM_EXCESS,
    SYMMETRIC_SETTINGS,
    TSIRELSON_LOWER,
    TSIRELSON_UPPER,
    CorrectionTerms,
    SettingProbs,
    WeakChReport,
    ch_expression,
    correction_terms,
    epsilon_thresholds,
    evaluate_weak_ch,
    no_signalling_residuals,
    tsirelson_check,
    weak_ch_bounds,
)
from .search import SearchConfig, SearchResult, constraint_penalty, optimize_angles, search_counterexample
from .simulate import CountsTable, SimConfig, estimate, sample_runs, test_inequality
from .singlet import (
    DirectionConfig,
    EpsilonProfile,
    canonical_angle,
    ch_terms,
    ch_value,
    epsilon_profile,
    joint_prob,
    marginal_prob,
    outcome_tables,
)
from .spaces import (
    FiniteProbSpace,
    WeakChError,
    make_space,
    prob,
    screening_residuals,
)

__all__ = [
    "EprbModel",
    "PairwiseCcModel",
    "ch_atom_oracle",
    "check_cause_mass_bounds",
    "classify_cells",
    "joint_cause_bounds_check",
    "random_eprb_model",
    "random_screened_model",
    "validate_loc",
    "validate_no_conspiracy",
    "validate_screening",
    "QUANTUM_EXCESS",
    "SYMMETRIC_SETTINGS",
    "TSIRELSON_LOWER",
    "TSIRELSON_UPPER",
    "CorrectionTerms",
    "SettingProbs",
    "WeakChReport",
    "ch_expression",
    "correction_terms",
    "epsilon_thresholds",
    "evaluate_weak_ch",
    "no_signalling_residuals",
    "tsirelson_check",
    "weak_ch_bounds",
    "SearchConfig",
    "SearchResult",
    "constraint_penalty",
    "optimize_angles",
    "search_counterexample",
    "CountsTable",
    "SimConfig",
    "estimate",
    "sample_runs",
    "test_inequality",
    "DirectionConfig",
    "EpsilonProfile",
    "canonical_angle",
    "ch_terms",
    "ch_value",
    "epsilon_profile",
    "joint_prob",
    "marginal_prob",
    "outcome_tables",
    "FiniteProbSpace",
    "WeakChError",
    "make_space",
    "prob",
    "screening_residuals",
    "__version__",
]
