"""Toolkit for the CH inequality under nearly perfect correlations.

Singlet predictions, correction-term bounds and thresholds, verification
engines for separate-common-cause models, extremal-angle optimization,
counterexample search, and seeded Monte Carlo sampling with finite-sample
inequality tests.

The names below are loaded from their submodule on first use, so importing
the package (or the closed-form commands of ``weakch.cli``) loads no numpy.
"""

__version__ = "0.1.0"

import importlib
import os
import sys

# weakch's arrays hold at most a few hundred cells, so a BLAS thread pool never
# pays for itself. OpenBLAS starts one thread per core as numpy loads, and each
# spins for about 0.1 s: a one-shot `weakch` process burns that much CPU on
# another core, and its CPU time swings with how busy that core is. Cap the
# pool when numpy is not loaded yet (weakch may load it later); a value
# already set is kept.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Public name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "common_cause": (
            "EprbModel PairwiseCcModel ch_atom_oracle check_cause_mass_bounds classify_cells"
            " joint_cause_bounds_check random_eprb_model random_screened_model validate_loc"
            " validate_no_conspiracy validate_screening"
        ),
        "inequalities": (
            "QUANTUM_EXCESS SYMMETRIC_SETTINGS TSIRELSON_LOWER TSIRELSON_UPPER CorrectionTerms"
            " SettingProbs WeakChReport ch_expression correction_terms epsilon_thresholds"
            " evaluate_weak_ch no_signalling_residuals tsirelson_check weak_ch_bounds"
        ),
        "search": "SearchConfig SearchResult constraint_penalty optimize_angles search_counterexample",
        "simulate": "CountsTable SimConfig estimate sample_runs test_inequality",
        "singlet": (
            "EpsilonProfile canonical_angle ch_terms ch_value epsilon_profile"
            " joint_prob marginal_prob outcome_tables"
        ),
        "spaces": "FiniteProbSpace WeakChError prob screening_residuals",
    }.items()
    for name in names.split()
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    if name in _EXPORTS.values():  # a submodule; importing it binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Looked up on every access and never stored in this module, so a name
    # always resolves to its submodule's current binding.
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
