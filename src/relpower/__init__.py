"""Numerical verification toolkit for configurational balance laws.

The toolkit evaluates the relative power of a deforming body part for
virtual velocity pairs over ambient and material space, extracts the
coefficients of its defect under isometric observer changes, and
machine-checks the resulting standard and configurational balances,
with the Eshelby stress e I - F^t P at the center of the bookkeeping.
Callers import the modules; the package root re-exports nothing.
"""

__version__ = "0.1.0"
