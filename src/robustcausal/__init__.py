"""Robust lagged causal-link discovery in multivariate time series.

The package infers directed, lag-resolved links with binned transfer
entropy (or lag-specific Granger causality), judges each candidate link
against shuffled surrogates, and then filters the full-sample graph with a
subsample-ensemble consistency vote: only links that keep reappearing
across many shorter windows of the record survive.

The public surface is each submodule's ``__all__``, re-exported here on
first access (PEP 562): importing the package or its CLI loads no numpy.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("timeseries", "estimators", "significance", "granger", "graph", "ensemble",
               "synthetic", "evaluation", "errors")


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    # The first other name binds every submodule's ``__all__`` at once, so
    # those lists stay the only lists of public names.
    if "__all__" not in globals():
        names = ["__version__"]
        for module in map(__getattr__, _SUBMODULES):
            globals().update((key, getattr(module, key)) for key in module.__all__)
            names += module.__all__
        globals()["__all__"] = names
    if name in globals():
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__"), *_SUBMODULES})
