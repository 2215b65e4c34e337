"""Two-list capture-recapture population size estimation with
linkage-error correction: point estimators, design-based rematch
correction, Taylor-linearized variances, and a Monte Carlo harness."""

from . import estimators, rematch, simulation, variance
from .estimators import *  # noqa: F403
from .rematch import *  # noqa: F403
from .simulation import *  # noqa: F403
from .variance import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    estimators.__all__ + rematch.__all__ + simulation.__all__ + variance.__all__
)
