"""Dense 3-vector and 3x3 tensor algebra used throughout the toolkit.

Everything is fixed to dimension three and backed by plain ``numpy``
arrays, component-major: points and vectors are (3, ...) and tensors
(3, 3, ...), the point axes last, so a product over components is a sum
of rows at any number of points; a parameter of one point meets points
through :func:`at_points`.  Finiteness is checked once per array:
:func:`as_vector` and :func:`as_tensor` check preset parameters and
pivots where they enter, :func:`check_finite` each point state, node row
and potential value where it is made or taken; the rest take float arrays.
"""

from __future__ import annotations

import numpy as np

from .exceptions import NonFiniteValue

IDENTITY = np.eye(3)


def as_vector(value) -> np.ndarray:
    """Coerce to a finite float array of 3-vectors, shape (..., 3)."""
    v = np.asarray(value, dtype=float)
    if v.shape[-1:] != (3,):
        raise ValueError(f"expected shape (..., 3), got {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector has non-finite components")
    return v


def as_tensor(value) -> np.ndarray:
    """Coerce to a finite float array of 3x3 tensors, shape (..., 3, 3)."""
    t = np.asarray(value, dtype=float)
    if t.shape[-2:] != (3, 3):
        raise ValueError(f"expected shape (..., 3, 3), got {t.shape}")
    if not np.isfinite(t).all():
        raise ValueError("tensor has non-finite components")
    return t


def check_finite(x: np.ndarray, **values):
    """The last of ``values``, each made at points x (3, ...); raises
    :class:`NonFiniteValue` naming the first non-finite one and its first such point."""
    for quantity, value in values.items():
        finite = np.isfinite(value)
        if not finite.all():
            i = np.flatnonzero(~finite.reshape(-1, x.size // 3).all(axis=0))[0]
            raise NonFiniteValue(f"{quantity} is not finite at {x.reshape(3, -1)[:, i]}")
    return value


def at_points(p, x) -> np.ndarray:
    """The parameter ``p`` of one point, a vector or a tensor, shaped to broadcast
    against points x (3, ...): ``p + x`` would pair p's last axis with x's last."""
    return p.reshape(p.shape + (1,) * (np.ndim(x) - 1))


def identity_like(t) -> np.ndarray:
    """I shaped to broadcast against the tensors t (3, 3, ...)."""
    return at_points(IDENTITY, t[0])


def dot(a, b) -> np.ndarray:
    """a . b over the first axis, summed in order at any number of points."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def contract(s, t) -> np.ndarray:
    """S : T = sum_ij S_ij T_ij of every pair, summed over i, then j, at any size."""
    rows = np.einsum("ij...,ij...->j...", s, t)
    return rows[0] + rows[1] + rows[2]


def cross(a, b, axis: int = 0) -> np.ndarray:
    """a x b over axis ``axis``, with ``np.cross``'s products and differences."""
    (a0, a1, a2), (b0, b1, b2) = ([t[(slice(None),) * (axis % t.ndim) + (i,)] for i in range(3)]
                                  for t in map(np.asarray, (a, b)))
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=axis)


def det(t) -> np.ndarray:
    """det T of every tensor in a stack, expanded along the first row."""
    (a, b, c), (d, e, f), (g, h, i) = t
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


# cof T_ij = T_(i+1)(j+1) T_(i+2)(j+2) - T_(i+1)(j+2) T_(i+2)(j+1), indices mod 3:
# the four factors as one index table into the 9 entries of T
_COFACTOR_FACTORS = np.array([3 * ((i + r) % 3) + (j + c) % 3 for r, c in (
    (1, 1), (2, 2), (1, 2), (2, 1)) for i in range(3) for j in range(3)])


def cofactor(t) -> np.ndarray:
    """cof T = det T T^-t of every tensor in a stack, defined for singular T too."""
    nodes = np.shape(t)[2:]
    g = np.reshape(t, (9,) + nodes)[_COFACTOR_FACTORS].reshape((4, 3, 3) + nodes)
    return g[0] * g[1] - g[2] * g[3]


def skew_part(t) -> np.ndarray:
    """Antisymmetric part (T - T^t)/2."""
    return 0.5 * (t - np.swapaxes(t, 0, 1))


def cross_matrix(a) -> np.ndarray:
    """Matrix W with W u = a x u for every u."""
    # row i of W is e_i x a, since (W u)_i = e_i . (a x u) = u . (e_i x a)
    return cross(IDENTITY, as_vector(a)[..., None, :], axis=-1)


def axial_vector(w) -> np.ndarray:
    """Inverse of :func:`cross_matrix` on antisymmetric tensors, read from W_32,
    W_13 and W_21.  Callers pass a multiple of T - T^t, which rounding keeps
    exactly antisymmetric."""
    return np.stack([w[2, 1], w[0, 2], w[1, 0]])
