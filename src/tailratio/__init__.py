"""Tail-probability evidence ratios for similarity scores.

Fits logistic mixtures to comparison-score distributions, turns an observed
score into a pair of opposing tail error probabilities and their ratio,
checks fitted models with KS and AD goodness-of-fit tests, and runs the
validation studies (tail audits, p-value calibration, toy convergence,
threshold decision rules) end to end.

The public names are each module's `__all__`, re-exported here.
"""
from __future__ import annotations

from . import dist, errors, evidence, experiments, fit, gof, io, seeds
from ._version import __version__
from .dist import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .evidence import *  # noqa: F401,F403
from .experiments import *  # noqa: F401,F403
from .fit import *  # noqa: F401,F403
from .gof import *  # noqa: F401,F403
from .io import *  # noqa: F401,F403
from .seeds import *  # noqa: F401,F403

__all__ = [
    "__version__",
    *dist.__all__,
    *errors.__all__,
    *evidence.__all__,
    *experiments.__all__,
    *fit.__all__,
    *gof.__all__,
    *io.__all__,
    *seeds.__all__,
]
