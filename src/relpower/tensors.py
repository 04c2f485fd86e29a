"""Dense 3-vector and 3x3 tensor algebra used throughout the toolkit.

Everything is fixed to dimension three and backed by plain ``numpy``
arrays.  Public operations validate finiteness on entry so that NaN/Inf
never propagate silently into an integral or a balance residual.
"""

from __future__ import annotations

import numpy as np

from .exceptions import NotAntisymmetric

IDENTITY = np.eye(3)


def as_vector(value) -> np.ndarray:
    """Coerce to a finite float vector of shape (3,)."""
    v = np.asarray(value, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected shape (3,), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite components")
    return v


def as_tensor(value) -> np.ndarray:
    """Coerce to a finite float tensor of shape (3, 3)."""
    t = np.asarray(value, dtype=float)
    if t.shape != (3, 3):
        raise ValueError(f"expected shape (3, 3), got {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError("tensor has non-finite components")
    return t


def skew_part(t) -> np.ndarray:
    """Antisymmetric part (T - T^t)/2."""
    t = as_tensor(t)
    return 0.5 * (t - t.T)


def cross_matrix(a) -> np.ndarray:
    """Matrix W with W u = a x u for every u."""
    a = as_vector(a)
    return np.array(
        [
            [0.0, -a[2], a[1]],
            [a[2], 0.0, -a[0]],
            [-a[1], a[0], 0.0],
        ]
    )


def axial_vector(w, rel_tol: float = 1e-12) -> np.ndarray:
    """Inverse of :func:`cross_matrix` on antisymmetric tensors.

    Raises :class:`NotAntisymmetric` when the symmetric residue of ``w``
    exceeds ``rel_tol`` times its norm.
    """
    w = as_tensor(w)
    scale = np.linalg.norm(w)
    if scale > 0.0 and np.linalg.norm(w + w.T) > rel_tol * scale:
        raise NotAntisymmetric("tensor is not antisymmetric to tolerance")
    return np.array([w[2, 1], w[0, 2], w[1, 0]])
