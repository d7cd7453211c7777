"""Robust lagged causal-link discovery in multivariate time series.

The package infers directed, lag-resolved links with binned transfer
entropy (or lag-specific Granger causality), judges each candidate link
against shuffled surrogates, and then filters the full-sample graph with a
subsample-ensemble consistency vote: only links that keep reappearing
across many shorter windows of the record survive.

The public surface is each submodule's ``__all__``, re-exported here.
"""

__version__ = "0.1.0"

from . import (
    ensemble,
    errors,
    estimators,
    evaluation,
    granger,
    graph,
    significance,
    synthetic,
    timeseries,
)
from .ensemble import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .estimators import *  # noqa: F401,F403
from .evaluation import *  # noqa: F401,F403
from .granger import *  # noqa: F401,F403
from .graph import *  # noqa: F401,F403
from .significance import *  # noqa: F401,F403
from .synthetic import *  # noqa: F401,F403
from .timeseries import *  # noqa: F401,F403

__all__ = [
    "__version__",
    *timeseries.__all__,
    *estimators.__all__,
    *significance.__all__,
    *granger.__all__,
    *graph.__all__,
    *ensemble.__all__,
    *synthetic.__all__,
    *evaluation.__all__,
    *errors.__all__,
]
