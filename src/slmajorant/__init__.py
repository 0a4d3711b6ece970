"""Sharp majorants of the first Dirichlet eigenvalue over weighted
potential balls: exact measure-potential eigensolving, extremal-potential
computation and independent brute-force certification."""

from . import config, eigensolver, extremal, measures, oracle
from .config import *  # noqa: F403 -- each module's __all__ is republished
from .eigensolver import *  # noqa: F403
from .extremal import *  # noqa: F403
from .measures import *  # noqa: F403
from .oracle import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(config.__all__ + eigensolver.__all__ + extremal.__all__
                 + measures.__all__ + oracle.__all__)
