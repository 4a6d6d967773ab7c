"""Entropies of chi-squared family laws and of CIR / squared Bessel marginals."""

from .dist import CentralChiSq, GammaLaw, Law, NoncentralChiSq, ScaledLaw
from .entropy import (
    EntropyKind,
    EntropyResult,
    EntropySpec,
    GateDecision,
    LambdaRow,
    effective_dof,
    entropy,
    existence_gate,
    gamma_entropy_closed_form,
    lambda_convergence_study,
    scale_transform,
)
from .proc import (
    BesselParams,
    BZeroRow,
    CIRParams,
    CurveRow,
    TimeGrid,
    b_to_zero_study,
    bessel_limit_entropy,
    bessel_marginal,
    cir_limit_entropy,
    cir_marginal,
    entropy_curve,
)
from .quad import (
    IntegrandFailure,
    NonConvergence,
    QuadConfig,
    QuadResult,
    integrate_halfline,
)
from .specfun import digamma, log_bessel_i, log_gamma

__version__ = "0.1.0"

__all__ = [
    "CentralChiSq", "NoncentralChiSq", "GammaLaw", "ScaledLaw", "Law",
    "EntropyKind", "EntropySpec", "EntropyResult", "GateDecision",
    "effective_dof", "existence_gate", "entropy",
    "scale_transform", "gamma_entropy_closed_form",
    "lambda_convergence_study", "LambdaRow",
    "CIRParams", "BesselParams", "CurveRow", "BZeroRow", "TimeGrid",
    "cir_marginal", "bessel_marginal", "entropy_curve",
    "cir_limit_entropy", "bessel_limit_entropy", "b_to_zero_study",
    "QuadConfig", "QuadResult", "NonConvergence", "IntegrandFailure",
    "integrate_halfline",
    "log_gamma", "digamma", "log_bessel_i",
    "__version__",
]
