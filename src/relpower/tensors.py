"""Dense 3-vector and 3x3 tensor algebra used throughout the toolkit.

Everything is fixed to dimension three and backed by plain ``numpy``
arrays.  Points, and what fields give at them, are row-major, (n, 3)
(``dot``, ``matvec``, ``cross``); node rows are component-major, (3, n)
and (3, 3, n), which the rest read.  A single point is the same array in
both.  Finiteness is checked once per array: :func:`as_vector` and
:func:`as_tensor` check preset parameters and pivots where they enter,
:func:`check_finite` each point state, node row and potential value where
it is made or taken; the rest take float arrays.
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


def component_major(a, rank: int = 1) -> np.ndarray:
    """A C-contiguous copy of the row-major ``a`` with its ``rank`` component axes first."""
    lead = np.ndim(a) - rank
    return np.ascontiguousarray(np.transpose(a, (*range(lead, np.ndim(a)), *range(lead))))


def check_finite(x: np.ndarray, **values):
    """The last of ``values``, each made at points x (..., 3), component-major; raises
    :class:`NonFiniteValue` naming the first non-finite one and its first such point."""
    for quantity, value in values.items():
        finite = np.isfinite(value)
        if not finite.all():
            i = np.flatnonzero(~finite.reshape(-1, x.size // 3).all(axis=0))[0]
            raise NonFiniteValue(f"{quantity} is not finite at {x.reshape(-1, 3)[i]}")
    return value


def identity_like(t) -> np.ndarray:
    """I shaped to broadcast against the tensors t."""
    return IDENTITY.reshape((3, 3) + (1,) * (np.ndim(t) - 2))


def dot(a, b) -> np.ndarray:
    """a . b over the last axis, rounded as the single-point ``a @ b``."""
    return (np.asarray(a)[..., None, :] @ np.asarray(b)[..., None])[..., 0, 0]


def contract(s, t) -> np.ndarray:
    """S : T = sum_ij S_ij T_ij of every pair, summed over i, then j, at any size."""
    rows = np.einsum("ij...,ij...->j...", s, t)
    return rows[0] + rows[1] + rows[2]


def matvec(t, v) -> np.ndarray:
    """T v of every tensor and vector, rounded as the single-point ``t @ v``."""
    return (t @ np.asarray(v)[..., None])[..., 0]


def cross(a, b, axis: int = -1) -> np.ndarray:
    """a x b over axis ``axis`` < 0, with ``np.cross``'s products and differences."""
    a, b = np.asarray(a), np.asarray(b)
    c = [(..., i) + (slice(None),) * (-1 - axis) for i in range(3)]   # component i
    return np.stack([a[c[1]] * b[c[2]] - a[c[2]] * b[c[1]],
                     a[c[2]] * b[c[0]] - a[c[0]] * b[c[2]],
                     a[c[0]] * b[c[1]] - a[c[1]] * b[c[0]]], axis=axis)


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
    return cross(IDENTITY, as_vector(a)[..., None, :])


def axial_vector(w) -> np.ndarray:
    """Inverse of :func:`cross_matrix` on antisymmetric tensors, read from W_32,
    W_13 and W_21.  Callers pass a multiple of T - T^t, which rounding keeps
    exactly antisymmetric."""
    return np.stack([w[2, 1], w[0, 2], w[1, 0]])
