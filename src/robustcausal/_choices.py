"""The words of the choice settings, in a module that imports nothing, so
that the CLI builds its parser without loading numpy or the library."""

# The benchmark systems ``synthetic.generate`` simulates.
SYSTEM_KINDS = ("A", "B", "C", "bivariate-linear", "bivariate-nonlinear")
# How ``ensemble.draw_subsamples`` places its windows.
SUBSAMPLE_MODES = ("random-continuous", "fixed-overlap", "nonoverlapping")
