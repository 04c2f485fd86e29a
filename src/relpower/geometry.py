"""Integrable parts of the reference body and their quadrature rules.

Supported geometries: axis-aligned boxes, balls and spherical shells.
Boxes use tensor-product Gauss-Legendre rules; balls and shells use a
product of a radial Gauss rule (with the r^2 Jacobian folded into the
weights) and an octahedrally symmetric spherical rule.

Accumulation everywhere goes through :func:`weighted_fsum`, which uses
``math.fsum``, so integrals are correctly rounded and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .tensors import as_vector

# Octahedrally symmetric spherical rules (weights sum to 1; the 4*pi
# measure is applied when weights are assembled).  Algebraic exactness:
# 6 points -> degree 3, 14 -> degree 5, 26 -> degree 7.
_SQ2 = 1.0 / math.sqrt(2.0)
_SQ3 = 1.0 / math.sqrt(3.0)


def _octahedron_vertices():
    return [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]


def _edge_midpoints():
    pts = []
    for i in range(3):
        for j in range(i + 1, 3):
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    p = [0.0, 0.0, 0.0]
                    p[i] = si * _SQ2
                    p[j] = sj * _SQ2
                    pts.append(tuple(p))
    return pts


def _cube_vertices():
    return [
        (sx * _SQ3, sy * _SQ3, sz * _SQ3)
        for sx in (1.0, -1.0) for sy in (1.0, -1.0) for sz in (1.0, -1.0)
    ]


def spherical_rule(n_points: int):
    """Unit-sphere direction rule: (directions (n,3), weights summing to 1)."""
    if n_points == 6:
        dirs = _octahedron_vertices()
        wts = [1.0 / 6.0] * 6
    elif n_points == 14:
        dirs = _octahedron_vertices() + _cube_vertices()
        wts = [1.0 / 15.0] * 6 + [3.0 / 40.0] * 8
    elif n_points == 26:
        dirs = _octahedron_vertices() + _edge_midpoints() + _cube_vertices()
        wts = [1.0 / 21.0] * 6 + [4.0 / 105.0] * 12 + [27.0 / 840.0] * 8
    else:
        raise ValueError(f"unsupported spherical rule size {n_points}; use 6, 14 or 26")
    return np.asarray(dirs, float), np.asarray(wts, float)


def gauss_legendre(order: int, lo: float, hi: float):
    """Gauss-Legendre nodes and weights on [lo, hi]."""
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    nodes, weights = np.polynomial.legendre.leggauss(order)
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

    kind: str
    center: np.ndarray
    scale: float
    volume: float
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
        return math.fsum(values * weights)
    return np.array([math.fsum(column) for column in (values * weights[:, None]).T])


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def box_part(center, halfwidths, order: int = 6, surface_order: int | None = None) -> BodyPart:
    """Axis-aligned box with tensor-product Gauss-Legendre quadrature."""
    center = as_vector(center)
    half = as_vector(halfwidths)
    if np.any(half <= 0.0):
        raise ValueError("box halfwidths must be positive")
    surface_order = order if surface_order is None else surface_order

    (n0, w0), (n1, w1), (n2, w2) = [
        gauss_legendre(order, center[i] - half[i], center[i] + half[i]) for i in range(3)]
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

    def sample_interior(rng, n, margin: float = 1e-3):
        m = margin * np.max(half)
        return rng.uniform(lo + m, hi - m, size=(n, 3))

    return BodyPart(
        kind="box",
        center=center,
        scale=float(np.max(half)),
        volume=float(np.prod(2.0 * half)),
        volume_points=pts,
        volume_weights=wts,
        surface=SurfaceQuadrature(np.vstack(s_pts), np.vstack(s_nrm), np.concatenate(s_wts)),
        sample_interior=sample_interior,
    )


def sphere_surface(center, radius: float, angular_points: int = 26,
                   outward: bool = True) -> SurfaceQuadrature:
    """Quadrature on a sphere; ``outward=False`` flips the normals."""
    center = as_vector(center)
    dirs, wts = spherical_rule(angular_points)
    sign = 1.0 if outward else -1.0
    return SurfaceQuadrature(
        points=center + radius * dirs,
        normals=sign * dirs,
        weights=4.0 * math.pi * radius ** 2 * wts,
    )


def _radial_shell(center, r_inner: float, r_outer: float, radial_order: int,
                  angular_points: int):
    center = as_vector(center)
    dirs, ang_wts = spherical_rule(angular_points)
    radii, rad_wts = gauss_legendre(radial_order, r_inner, r_outer)
    pts = center + radii[:, None, None] * dirs[None, :, :]
    wts = (rad_wts * radii ** 2 * 4.0 * math.pi)[:, None] * ang_wts[None, :]
    return pts.reshape(-1, 3), wts.ravel()


def ball_part(center, radius: float, radial_order: int = 6,
              angular_points: int = 26) -> BodyPart:
    """Ball with radial Gauss x spherical product quadrature."""
    center = as_vector(center)
    if radius <= 0.0:
        raise ValueError("ball radius must be positive")
    pts, wts = _radial_shell(center, 0.0, radius, radial_order, angular_points)

    def sample_interior(rng, n, margin: float = 1e-3):
        out = np.empty((n, 3))
        r_max = radius * (1.0 - margin)
        for i in range(n):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            out[i] = center + r_max * rng.uniform() ** (1.0 / 3.0) * d
        return out

    return BodyPart(
        kind="ball",
        center=center,
        scale=float(radius),
        volume=4.0 / 3.0 * math.pi * radius ** 3,
        volume_points=pts,
        volume_weights=wts,
        surface=sphere_surface(center, radius, angular_points),
        sample_interior=sample_interior,
    )


def shell_part(center, inner_radius: float, outer_radius: float,
               radial_order: int = 6, angular_points: int = 26) -> BodyPart:
    """Spherical shell; the boundary is the outer plus the inner sphere."""
    center = as_vector(center)
    if not 0.0 < inner_radius < outer_radius:
        raise ValueError("need 0 < inner_radius < outer_radius")
    pts, wts = _radial_shell(center, inner_radius, outer_radius, radial_order,
                             angular_points)
    outer = sphere_surface(center, outer_radius, angular_points, outward=True)
    inner = sphere_surface(center, inner_radius, angular_points, outward=False)
    surface = SurfaceQuadrature(
        points=np.vstack([outer.points, inner.points]),
        normals=np.vstack([outer.normals, inner.normals]),
        weights=np.concatenate([outer.weights, inner.weights]),
    )

    def sample_interior(rng, n, margin: float = 1e-3):
        out = np.empty((n, 3))
        pad = margin * outer_radius
        lo3, hi3 = (inner_radius + pad) ** 3, (outer_radius - pad) ** 3
        for i in range(n):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            out[i] = center + (lo3 + (hi3 - lo3) * rng.uniform()) ** (1.0 / 3.0) * d
        return out

    return BodyPart(
        kind="shell",
        center=center,
        scale=float(outer_radius),
        volume=4.0 / 3.0 * math.pi * (outer_radius ** 3 - inner_radius ** 3),
        volume_points=pts,
        volume_weights=wts,
        surface=surface,
        sample_interior=sample_interior,
    )
