"""Integrable parts of the reference body and their quadrature rules.

Supported geometries: axis-aligned boxes, balls and spherical shells.
Boxes use tensor-product Gauss-Legendre rules.  Balls and shells come
from one constructor, a product of a radial Gauss rule (with the r^2
Jacobian folded into the weights) and an octahedrally symmetric
spherical rule, each rule a weighted sum of symmetry orbits of unit
vectors.  A ball is a shell of inner radius 0 without its inner sphere;
a shell's boundary adds the inner sphere with inward normals.

Parts are tabled by config kind in ``PARTS``; a constructor's positional
parameters are its config keys, its keyword-only ones its quadrature keys.

Accumulation everywhere goes through :func:`weighted_fsum`, which uses
``math.fsum``, so integrals are correctly rounded and deterministic.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .tensors import as_vector

# Octahedrally symmetric spherical rules: size -> {orbit k: weight of each of
# its points}, weights summing to 1 (the 4*pi measure is applied when weights
# are assembled).  Orbit k holds the unit vectors whose k nonzero components
# are +-1/sqrt(k).  Algebraic exactness: 6 points -> degree 3, 14 -> degree 5,
# 26 -> degree 7.
_SPHERICAL_RULES = {6: {1: 1 / 6}, 14: {1: 1 / 15, 3: 3 / 40},
                    26: {1: 1 / 21, 2: 4 / 105, 3: 27 / 840}}


def spherical_rule(n_points: int):
    """Unit-sphere direction rule: (directions (n,3), weights summing to 1)."""
    if n_points not in _SPHERICAL_RULES:
        raise ValueError(f"unsupported spherical rule size {n_points}; use 6, 14 or 26")
    dirs, wts = [], []
    for k, weight in _SPHERICAL_RULES[n_points].items():
        s = 1.0 / math.sqrt(k)
        for axes in itertools.combinations(range(3), k):
            for signs in itertools.product((s, -s), repeat=k):
                direction = [0.0, 0.0, 0.0]
                for axis, sign in zip(axes, signs):
                    direction[axis] = sign
                dirs.append(direction)
                wts.append(weight)
    return np.asarray(dirs, float), np.asarray(wts, float)


# Fraction of each extent (box halfwidth, ball or shell radius) that sampled
# interior points keep from the boundary.
SAMPLE_MARGIN = 1e-3


@functools.lru_cache(maxsize=None)
def _leggauss(order: int):
    """Gauss-Legendre rule on [-1, 1], computed once per order and shared."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def gauss_legendre(order: int, lo: float, hi: float):
    """Gauss-Legendre nodes and weights on [lo, hi]."""
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    nodes, weights = _leggauss(order)
    half = 0.5 * (hi - lo)
    return 0.5 * (hi + lo) + half * nodes, half * weights


@dataclass(frozen=True)
class SurfaceQuadrature:
    """Quadrature points, outward unit normals and weights on a closed surface."""

    points: np.ndarray
    normals: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class BodyPart:
    """A part of the reference body with volume and boundary quadrature."""

    center: np.ndarray
    scale: float
    volume_points: np.ndarray
    volume_weights: np.ndarray
    surface: SurfaceQuadrature
    sample_interior: Callable[[np.random.Generator, int], np.ndarray]


def weighted_fsum(values, weights: np.ndarray):
    """Correctly rounded sum of values[i] * weights[i] over the rows.

    Scalar rows give a float; vector rows give the per-component sums.
    """
    values = np.asarray(values, float)
    if values.ndim == 1:
        return math.fsum((values * weights).tolist())
    return np.array([math.fsum(column)
                     for column in (values * weights[:, None]).T.tolist()])


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def box_part(center, halfwidths, *, volume_order: int = 6,
             surface_order: int | None = None) -> BodyPart:
    """axis-aligned box, Gauss-Legendre product rule"""
    center = as_vector(center)
    half = as_vector(halfwidths)
    if np.any(half <= 0.0):
        raise ValueError("box halfwidths must be positive")
    surface_order = volume_order if surface_order is None else surface_order

    (n0, w0), (n1, w1), (n2, w2) = [gauss_legendre(volume_order, c - h, c + h)
                                    for c, h in zip(center, half)]
    pts = np.stack(np.meshgrid(n0, n1, n2, indexing="ij"), axis=-1).reshape(-1, 3)
    wts = (w0[:, None, None] * w1[None, :, None] * w2[None, None, :]).ravel()

    s_pts, s_nrm, s_wts = [], [], []
    for axis in range(3):
        others = [i for i in range(3) if i != axis]
        (a, wa), (b, wb) = [gauss_legendre(surface_order, center[i] - half[i],
                                           center[i] + half[i]) for i in others]
        face = np.empty((len(a), len(b), 3))
        face[..., others[0]] = a[:, None]
        face[..., others[1]] = b[None, :]
        for sign in (-1.0, 1.0):
            face[..., axis] = center[axis] + sign * half[axis]
            normal = np.zeros(3)
            normal[axis] = sign
            s_pts.append(face.reshape(-1, 3).copy())
            s_nrm.append(np.tile(normal, (face.shape[0] * face.shape[1], 1)))
            s_wts.append((wa[:, None] * wb[None, :]).ravel())

    lo, hi = center - half, center + half

    def sample_interior(rng, n):
        m = SAMPLE_MARGIN * half
        return rng.uniform(lo + m, hi - m, size=(n, 3))

    return BodyPart(
        center=center,
        scale=float(np.max(half)),
        volume_points=pts,
        volume_weights=wts,
        surface=SurfaceQuadrature(np.vstack(s_pts), np.vstack(s_nrm), np.concatenate(s_wts)),
        sample_interior=sample_interior,
    )


def _spherical_part(center, r_inner: float, r_outer: float, radial_order: int,
                    angular_points: int) -> BodyPart:
    """Radial Gauss x spherical rule between two radii.  The boundary is the
    outer sphere, then, for r_inner > 0, the inner one with inward normals."""
    center = as_vector(center)
    dirs, ang_wts = spherical_rule(angular_points)
    radii, rad_wts = gauss_legendre(radial_order, r_inner, r_outer)
    pts = center + radii[:, None, None] * dirs[None, :, :]
    wts = (rad_wts * radii ** 2 * 4.0 * math.pi)[:, None] * ang_wts[None, :]

    spheres = [(r_outer, 1.0)] + ([(r_inner, -1.0)] if r_inner > 0.0 else [])
    surface = SurfaceQuadrature(
        np.vstack([center + r * dirs for r, _ in spheres]),
        np.vstack([sign * dirs for _, sign in spheres]),
        np.concatenate([4.0 * math.pi * r ** 2 * ang_wts for r, _ in spheres]))

    pad = SAMPLE_MARGIN * r_outer
    lo3, hi3 = (r_inner + pad) ** 3, (r_outer - pad) ** 3

    def sample_interior(rng, n):
        out = np.empty((n, 3))
        for i in range(n):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            u = rng.uniform()
            r = (r_outer * (1.0 - SAMPLE_MARGIN) * u ** (1.0 / 3.0) if r_inner == 0.0
                 else (lo3 + (hi3 - lo3) * u) ** (1.0 / 3.0))
            out[i] = center + r * d
        return out

    return BodyPart(
        center=center,
        scale=float(r_outer),
        volume_points=pts.reshape(-1, 3),
        volume_weights=wts.ravel(),
        surface=surface,
        sample_interior=sample_interior,
    )


def ball_part(center, radius: float, *, radial_order: int = 6,
              angular_points: int = 26) -> BodyPart:
    """ball, radial Gauss x spherical rule"""
    if radius <= 0.0:
        raise ValueError("ball radius must be positive")
    return _spherical_part(center, 0.0, radius, radial_order, angular_points)


def shell_part(center, inner_radius: float, outer_radius: float, *,
               radial_order: int = 6, angular_points: int = 26) -> BodyPart:
    """spherical shell, boundary = both spheres"""
    if not 0.0 < inner_radius < outer_radius:
        raise ValueError("need 0 < inner_radius < outer_radius")
    return _spherical_part(center, inner_radius, outer_radius, radial_order,
                           angular_points)


PARTS = {"box": box_part, "ball": ball_part, "shell": shell_part}
