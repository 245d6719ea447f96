"""Exact verification engine for a mod-6 family of partition identities.

Two independent computation paths — partition enumeration straight from the
membership predicates and a system of window-class recurrences — are
compared term by term over exact integer polynomials.  See the README for the catalogue of verified
identities and the CLI reference.
"""

from .partitions import (
    B0_433,
    B0_533,
    GeneralParams,
    count_table,
    general_A_series,
    general_B_series,
    is_valid_A,
    is_valid_B,
    profile_A,
    profile_B,
    s_oracle,
)
from .poly import ONE, ZERO, TriPoly, monomial
from .recurrence import (
    SeriesMemo,
    J_poly,
    K_poly,
    lemma2_residual,
    lemma3_residual,
    lemma4_residual,
    link_residual,
    product_truncated,
)
from .verify import (
    ConfigError,
    Report,
    SuiteConfig,
    all_passed,
    conj433_check,
    run_all,
    theorem1_check,
    theorem3_check,
    thm2_consistency,
)

__version__ = "0.1.0"

__all__ = [
    "B0_433",
    "B0_533",
    "ConfigError",
    "GeneralParams",
    "J_poly",
    "K_poly",
    "ONE",
    "Report",
    "SeriesMemo",
    "SuiteConfig",
    "TriPoly",
    "ZERO",
    "all_passed",
    "conj433_check",
    "count_table",
    "general_A_series",
    "general_B_series",
    "is_valid_A",
    "is_valid_B",
    "lemma2_residual",
    "lemma3_residual",
    "lemma4_residual",
    "link_residual",
    "monomial",
    "product_truncated",
    "profile_A",
    "profile_B",
    "run_all",
    "s_oracle",
    "theorem1_check",
    "theorem3_check",
    "thm2_consistency",
]
