"""Solvers for the 1+1D generalized Dirac oscillator with position-dependent mass.

Closed-form spectra and zero-mode constructions for the proportional-profile
model, cross-validated by banded finite-difference eigensolvers for both the
first-order system and its partner second-order reductions. Each name is
imported from the module that defines it (`diracosc.model`,
`diracosc.numerics`, ...); the package itself holds only `__version__`.
"""

__version__ = "0.1.0"
