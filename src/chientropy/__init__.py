"""Entropies of chi-squared family laws and of CIR / squared Bessel marginals.

``chientropy.entropy`` is the function: it is bound over the submodule
attribute of the same name, so ``import chientropy.entropy as E`` gives
the function too.  The module itself is ``sys.modules["chientropy.entropy"]``,
which is where a patch of one of its names has to go.
"""

from .dist import CentralChiSq, GammaLaw, Law, NoncentralChiSq, ScaledLaw
from .entropy import (
    EntropyKind,
    EntropyResult,
    EntropySpec,
    GateDecision,
    LambdaRow,
    entropy,
    existence_gate,
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
from .specfun import log_bessel_i

__version__ = "0.1.0"

__all__ = [
    "CentralChiSq", "NoncentralChiSq", "GammaLaw", "ScaledLaw", "Law",
    "EntropyKind", "EntropySpec", "EntropyResult", "GateDecision",
    "existence_gate", "entropy", "scale_transform",
    "lambda_convergence_study", "LambdaRow",
    "CIRParams", "BesselParams", "CurveRow", "BZeroRow", "TimeGrid",
    "cir_marginal", "bessel_marginal", "entropy_curve",
    "cir_limit_entropy", "bessel_limit_entropy", "b_to_zero_study",
    "QuadConfig", "QuadResult", "NonConvergence", "IntegrandFailure",
    "integrate_halfline",
    "log_bessel_i",
    "__version__",
]
