"""Scalable parametric-EQ attenuation filters for FDN reverberators.

Fits a low-shelf + bells + high-shelf cascade to a frequency-dependent
reverberation-time target with Adam on an analytic analog magnitude model,
rescales the fitted gains to each delay-line length, converts the result to
digital biquads, and renders/measures feedback delay network impulse
responses to verify the achieved decay.
"""

from .digitize import (
    BiquadCoeffs,
    SosCascade,
    band_to_biquad,
    digital_magnitude,
    digitization_report,
    peq_to_sos,
    sos_to_csv,
    sos_to_dict,
)
from .errors import (
    CampaignError,
    FitDivergenceError,
    InstabilityError,
    InsufficientDecayError,
    InvalidParameterError,
    NonDecayingResponseError,
    NumericalFailureError,
    ParseError,
    PeqFdnError,
)
from .evaluate import (
    CampaignResult,
    CostReport,
    CurveReport,
    ErrorDistribution,
    achieved_t60,
    op_count,
    run_campaign,
    synthetic_smooth_curves,
    t60_relative_error,
)
from .fdn import (
    DecayMeasurement,
    FdnConfig,
    decay_measurements_to_csv,
    default_delays,
    default_gains,
    default_render_duration,
    householder_matrix,
    render_ir,
    schroeder_t60,
    write_wav,
)
from .optimize import AdamState, FitConfig, FitReport, adam_step, fit, loss_and_gradient
from .peq import FittedPeq, PeqParams, peq_log_magnitude, scale_to_delay
from .prototypes import (
    BandKind,
    BandParams,
    band_magnitude,
    db_to_linear_amp,
)
from .targets import (
    FrequencyGrid,
    T60Curve,
    interpolate_to_grid,
    load_t60_table,
    target_magnitude,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "BandKind",
    "BandParams",
    "BiquadCoeffs",
    "CampaignError",
    "CampaignResult",
    "CostReport",
    "CurveReport",
    "DecayMeasurement",
    "ErrorDistribution",
    "FdnConfig",
    "FitConfig",
    "FitDivergenceError",
    "FitReport",
    "FittedPeq",
    "FrequencyGrid",
    "InstabilityError",
    "InsufficientDecayError",
    "InvalidParameterError",
    "NonDecayingResponseError",
    "NumericalFailureError",
    "ParseError",
    "PeqFdnError",
    "PeqParams",
    "SosCascade",
    "T60Curve",
    "achieved_t60",
    "adam_step",
    "band_magnitude",
    "band_to_biquad",
    "db_to_linear_amp",
    "decay_measurements_to_csv",
    "default_delays",
    "default_gains",
    "default_render_duration",
    "digital_magnitude",
    "digitization_report",
    "fit",
    "householder_matrix",
    "interpolate_to_grid",
    "load_t60_table",
    "loss_and_gradient",
    "op_count",
    "peq_log_magnitude",
    "peq_to_sos",
    "render_ir",
    "run_campaign",
    "schroeder_t60",
    "scale_to_delay",
    "sos_to_csv",
    "sos_to_dict",
    "synthetic_smooth_curves",
    "t60_relative_error",
    "target_magnitude",
    "write_wav",
]
