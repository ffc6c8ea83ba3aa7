"""Treatment-effect estimation in partially linear regression models via
linear source separation, with orthogonal-moment baselines, asymptotic
variance calculators, and a Monte-Carlo experiment harness.

Each module's __all__ lists the public names it defines; the package
re-exports them, and names outside those lists stay in their module."""

from . import asymptotics, baselines, dgp, distributions, harness, ica, kernels
from .asymptotics import *
from .baselines import *
from .dgp import *
from .distributions import *
from .harness import *
from .ica import *
from .kernels import *

__version__ = "0.1.0"

__all__ = [name for module in (asymptotics, baselines, dgp, distributions, harness, ica, kernels)
           for name in module.__all__]
