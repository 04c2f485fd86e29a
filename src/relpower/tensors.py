"""Dense 3-vector and 3x3 tensor algebra used throughout the toolkit.

Everything is fixed to dimension three and backed by plain ``numpy``
arrays.  Every operation works over leading axes: a single point is a
``(3,)`` vector, a stack of ``n`` points is an ``(n, 3)`` array, and a
stack of tensors is ``(n, 3, 3)``.  Finiteness is checked once per array:
:func:`as_vector` and :func:`as_tensor` check preset parameters and pivots
where they enter, :func:`check_finite` each point state, source, virtual
field and potential value where it is made; the rest take float arrays.
"""

from __future__ import annotations

import numpy as np

from .exceptions import NonFiniteValue, NotAntisymmetric

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
    """The last of ``values``, each made at points x (..., 3), one row per point.
    Raises :class:`NonFiniteValue` naming the first value with a non-finite
    component and the first point where it has one."""
    for quantity, value in values.items():
        finite = np.isfinite(value)
        if not finite.all():
            i = np.flatnonzero(~finite.reshape(x.shape[:-1] + (-1,)).all(axis=-1))[0]
            raise NonFiniteValue(f"{quantity} is not finite at {x.reshape(-1, 3)[i]}")
    return value


def transpose(t) -> np.ndarray:
    """T^t of every tensor in a stack."""
    return np.swapaxes(t, -1, -2)


def dot(a, b) -> np.ndarray:
    """a . b over the last axis, rounded as the single-point ``a @ b``."""
    return (np.asarray(a)[..., None, :] @ np.asarray(b)[..., None])[..., 0, 0]


def contract(s, t) -> np.ndarray:
    """S : T = sum_ij S_ij T_ij of every pair of tensors."""
    return np.sum(s * t, axis=(-2, -1))


def matvec(t, v) -> np.ndarray:
    """T v of every tensor and vector, rounded as the single-point ``t @ v``."""
    return (t @ np.asarray(v)[..., None])[..., 0]


def cross(a, b) -> np.ndarray:
    """a x b over the last axis, with the products and differences of ``np.cross``."""
    a, b = np.asarray(a), np.asarray(b)
    return np.stack([a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1],
                     a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2],
                     a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]], axis=-1)


def skew_part(t) -> np.ndarray:
    """Antisymmetric part (T - T^t)/2."""
    return 0.5 * (t - transpose(t))


def cross_matrix(a) -> np.ndarray:
    """Matrix W with W u = a x u for every u."""
    # row i of W is e_i x a, since (W u)_i = e_i . (a x u) = u . (e_i x a)
    return cross(IDENTITY, as_vector(a)[..., None, :])


def axial_vector(w) -> np.ndarray:
    """Inverse of :func:`cross_matrix` on antisymmetric tensors.

    Raises :class:`NotAntisymmetric` when the symmetric residue of any
    tensor in ``w`` exceeds 1e-12 times its norm.
    """
    scale = np.linalg.norm(w, axis=(-2, -1))
    residue = np.linalg.norm(w + transpose(w), axis=(-2, -1))
    if np.any((scale > 0.0) & (residue > 1e-12 * scale)):
        raise NotAntisymmetric("tensor is not antisymmetric to tolerance")
    return np.stack([w[..., 2, 1], w[..., 0, 2], w[..., 1, 0]], axis=-1)
