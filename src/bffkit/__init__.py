"""Bayes factor functions (BFFs) from z, t, chi-square, and F statistics.

Closed-form log Bayes factors under non-local priors indexed by standardized
effect size, evidence combination across replicated studies, and MMAP
maximization of the prior shape r: the package exports what that method needs
and nothing more.  Special functions return plain float logs.
"""

from .bayes_factors import (
    Sidedness,
    StatFamily,
    TestStatistic,
    log_bf10,
    log_bf10_chisq,
    log_bf10_f,
    log_bf10_t_one,
    log_bf10_t_two,
    log_bf10_z_one,
    log_bf10_z_two,
)
from .effect_map import (
    DesignKind,
    DesignTag,
    effective_n,
    fisher_z,
    rmses,
    tau_sq_for,
)
from .evidence import (
    BffCurve,
    BffPoint,
    EffectGrid,
    FixedR,
    MmapR,
    MmapResult,
    Study,
    StudySet,
    bff_curve,
    combined_log_bf,
    evidence_thresholds,
    mmap_r,
    per_study_log_bf,
)
from .priors import jeffreys_log_prior_gamma, jeffreys_log_prior_nm
from .specfun import (
    NonConvergenceError,
    log_1f1,
    log_2f1,
    log_gamma_half_ratio,
    trigamma,
)

__version__ = "0.1.0"
