"""Scalable parametric-EQ attenuation filters for FDN reverberators.

Fits a low-shelf + bells + high-shelf cascade to a frequency-dependent
reverberation-time target on an analytic analog magnitude model (an Adam
warm start, then a damped Levenberg-Marquardt polish), rescales the fitted
gains to each delay-line length, converts the result to a cascade of
digital second-order sections, and renders/measures feedback delay network
impulse responses to verify the achieved decay.
"""

from . import digitize, errors, evaluate, fdn, optimize, peq, prototypes, targets
from .digitize import *
from .errors import *
from .evaluate import *
from .fdn import *
from .optimize import *
from .peq import *
from .prototypes import *
from .targets import *

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (digitize, errors, evaluate, fdn, optimize, peq, prototypes, targets)
    for name in module.__all__
)
