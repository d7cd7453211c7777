"""The words of the choice settings, in a module that imports nothing, so
that the CLI builds its parser without loading numpy or the library."""

# The benchmark systems ``synthetic.generate`` simulates, each with the
# ``SystemSpec`` settings it reads besides its length and seed.
SYSTEM_SETTINGS = {
    "A": (),
    "B": ("burn_in",),
    "C": ("burn_in",),
    "bivariate-linear": ("signal", "noise"),
    "bivariate-nonlinear": ("signal", "noise"),
}
SYSTEM_KINDS = tuple(SYSTEM_SETTINGS)
# How ``ensemble.draw_subsamples`` places its windows.
SUBSAMPLE_MODES = ("random-continuous", "fixed-overlap", "nonoverlapping")
