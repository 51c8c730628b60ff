"""Entanglement detection and Bell analysis for noisy two-qudit states.

Correlation-tensor criteria with channel-adapted metrics, CGLMP values
with closed-form amplitude-damping probabilities, critical parameters by
bisection and in closed form, fidelity thresholds, and reproduction of
the summary tables.
"""

from .bell import (BellValue, MeasurementSettings, ad_probability_table,
                   catalan_constant, cglmp_ad_infinite, cglmp_ad_value,
                   cglmp_settings, cglmp_value, critical_lr,
                   infinite_threshold, optimize_settings, probability_table)
from .channels import (ChannelKind, ChannelSpec, KrausSet,
                       amplitude_damping_kraus, apply_local_channel,
                       channel_output, depolarize_pair)
from .criteria import (CriterionVerdict, CriticalResult, SurfaceScan,
                       critical_analytic, critical_bisection, default_metric,
                       is_entangled, scan_surface, xi)
from .errors import (DimensionMismatch, InvalidDimension, NegativeCoefficient,
                     NoDetectionInRange, NonMonotonic, NotHermitian,
                     NotNormalizable, NoViolation, QnlError, RankTooLarge,
                     StrengthOutOfRange, UnsupportedChannel)
from .fidelity import FidelityReport, WernerGap, critical_fidelity, werner_gap
from .gellmann import GellMannBasis, gellmann_basis
from .reports import reproduce_tables, write_tables
from .states import (SchmidtState, TwoQuditState, max_entangled, nmax_state,
                     qutrit_family, rank_k_state, schmidt_state, to_density)
from .tensor import (CorrelationTensor, Metric, c_factor, colored_metric,
                     correlation_tensor, damping_metric, identity_metric,
                     norm_sq, schmidt_correlation_tensor, spectral_norm)

__version__ = "0.1.0"

__all__ = [
    "BellValue", "MeasurementSettings", "ad_probability_table",
    "catalan_constant", "cglmp_ad_infinite", "cglmp_ad_value",
    "cglmp_settings", "cglmp_value", "critical_lr", "infinite_threshold",
    "optimize_settings", "probability_table",
    "ChannelKind", "ChannelSpec", "KrausSet", "amplitude_damping_kraus",
    "apply_local_channel", "channel_output", "depolarize_pair",
    "CriterionVerdict", "CriticalResult", "SurfaceScan",
    "critical_analytic", "critical_bisection", "default_metric",
    "is_entangled", "scan_surface", "xi",
    "DimensionMismatch", "InvalidDimension", "NegativeCoefficient",
    "NoDetectionInRange", "NonMonotonic", "NotHermitian", "NotNormalizable",
    "NoViolation", "QnlError", "RankTooLarge", "StrengthOutOfRange",
    "UnsupportedChannel",
    "FidelityReport", "WernerGap", "critical_fidelity", "werner_gap",
    "GellMannBasis", "gellmann_basis",
    "reproduce_tables", "write_tables",
    "SchmidtState", "TwoQuditState", "max_entangled", "nmax_state",
    "qutrit_family", "rank_k_state", "schmidt_state", "to_density",
    "CorrelationTensor", "Metric", "c_factor", "colored_metric",
    "correlation_tensor", "damping_metric", "identity_metric", "norm_sq",
    "schmidt_correlation_tensor", "spectral_norm",
    "__version__",
]
