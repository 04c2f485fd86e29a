"""Seeded scenario inputs for the benchmark workloads.

Everything here is standard library only, so the same seed gives the
same JSON documents on any machine.  The program under test only ever
sees the files these functions produce.

``random_small`` draws low-order closure scenarios across material x
modulus kind x motion x virtual field x geometry x derivative mode x
pivot.  Each draw gets only the checks that hold by construction:

* ``invariance`` with ``match_residuals`` and ``standard_power`` are
  discrete identities, exact at any quadrature order;
* ``power_identity`` needs the divergence theorem to hold exactly under
  quadrature, so it is drawn only on boxes whose integrands are
  polynomials the Gauss rule integrates exactly (constant F, constant or
  affine moduli, polynomial fields);
* ``noether`` is drawn only with a declared potential and constant
  (hence isochoric) v and w, where both conditions hold identically;
* ``surface_independence`` is drawn only for equilibrium shells
  (quadratic model, harmonic motion, constant modulus, analytic
  derivatives), whose flux integrands the spherical rules integrate
  exactly.

Draws are never filtered by check outcome: a gate that fails on such a
draw is a defect of the program and shows in the gate-failure share.
Every parameter range is bounded so that det F > 0 on the whole part;
:func:`check_draws` proves it before any timing starts.
"""

from __future__ import annotations

import json
import math
import os
import random
from typing import Dict, List

BUNDLED_DIR = os.path.join("src", "relpower", "scenarios")
SCHEMA_PATH = os.path.join("src", "relpower", "schema", "scenario.schema.json")

RANDOM_SMALL_COUNT = 120

# Three bundled closure scenarios, refined.  Only the quadrature order
# changes; the checks stay as shipped.
REFINED_ORDERS = {
    "closure_skewed_graded_stvk": 12,
    "closure_shear_neohookean": 12,
    "closure_sinusoidal_graded_stvk_fd": 10,
}

MATERIALS = ("stvk", "neo_hookean", "quadratic")
MODULUS_KINDS = ("constant", "affine", "sinusoidal")
MOTIONS = ("identity", "homogeneous", "rotation", "shear", "harmonic", "sinusoidal")
FIELDS = ("constant", "rigid", "linear", "affine", "sinusoidal")
CONSTANT_F_MOTIONS = ("identity", "homogeneous", "rotation", "shear")
POLYNOMIAL_FIELDS = ("constant", "rigid", "linear", "affine")


def _num(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _vec(rng: random.Random, lo: float, hi: float) -> List[float]:
    return [_num(rng, lo, hi) for _ in range(3)]


def _mat(rng: random.Random, lo: float, hi: float) -> List[List[float]]:
    return [_vec(rng, lo, hi) for _ in range(3)]


def _norm(v) -> float:
    return math.sqrt(sum(c * c for c in v))


def _draw_geometry(rng: random.Random, kind: str) -> Dict:
    center = _vec(rng, -0.3, 0.3)
    if kind == "box":
        return {"kind": "box", "center": center, "halfwidths": _vec(rng, 0.3, 0.6)}
    if kind == "ball":
        return {"kind": "ball", "center": center, "radius": _num(rng, 0.4, 0.8)}
    inner = _num(rng, 0.3, 0.5)
    return {"kind": "shell", "center": center, "inner_radius": inner,
            "outer_radius": round(inner + _num(rng, 0.2, 0.4), 6)}


def _draw_quadrature(rng: random.Random, kind: str) -> Dict:
    # the lowest orders that still integrate the power-identity
    # integrands exactly: tens of nodes, so per-scenario fixed cost dominates
    if kind == "box":
        return {"volume_order": 2, "surface_order": 2}
    return {"radial_order": 2, "angular_points": rng.choice((6, 14))}


def _draw_modulus(rng: random.Random, kind: str) -> Dict:
    value = _num(rng, 0.6, 1.5)
    if kind == "constant":
        return {"kind": "constant", "value": value}
    if kind == "affine":
        return {"kind": "affine", "value": value, "slope": _vec(rng, -0.3, 0.3)}
    return {"kind": "sinusoidal", "value": value, "amplitude": _num(rng, 0.05, 0.4),
            "wavevector": _vec(rng, -1.5, 1.5)}


def _draw_motion(rng: random.Random, preset: str) -> Dict:
    """Motion presets with det F > 0 on |x| < 1.6 by construction."""
    if preset == "identity":
        return {"preset": "identity"}
    if preset == "homogeneous":
        # I + E with |E|_F <= 0.21 < 1, so I + tE is never singular
        offset = _mat(rng, -0.07, 0.07)
        matrix = [[(1.0 if i == j else 0.0) + offset[i][j] for j in range(3)]
                  for i in range(3)]
        return {"preset": "homogeneous", "matrix": matrix}
    if preset == "rotation":
        axis = _vec(rng, -1.0, 1.0)
        axis[rng.randrange(3)] = 1.0
        return {"preset": "rotation", "axis": axis, "angle": _num(rng, -3.0, 3.0)}
    if preset == "shear":
        return {"preset": "shear", "gamma": _num(rng, -0.5, 0.5)}
    if preset == "harmonic":
        # |alpha grad h|_F <= 2 sqrt(2) |alpha| |x| < 0.46 for |alpha| <= 0.1
        return {"preset": "harmonic", "alpha": _num(rng, -0.1, 0.1)}
    wavevector = _vec(rng, -1.2, 1.2)
    direction = _vec(rng, -1.0, 1.0)
    # det F = 1 + a cos(k.x) d.k and |a d.k| <= 0.4
    bound = 0.4 / max(_norm(wavevector) * _norm(direction), 1e-6)
    return {"preset": "sinusoidal", "amplitude": _num(rng, 0.0, min(bound, 0.15)),
            "wavevector": wavevector, "direction": direction}


def _draw_field(rng: random.Random, preset: str, center: List[float]) -> Dict:
    pivot = [round(c + _num(rng, -0.2, 0.2), 6) for c in center]
    if preset == "constant":
        return {"preset": "constant", "value": _vec(rng, -1.0, 1.0)}
    if preset == "rigid":
        return {"preset": "rigid", "translation": _vec(rng, -1.0, 1.0),
                "rotation": _vec(rng, -1.0, 1.0), "pivot": pivot}
    if preset == "linear":
        return {"preset": "linear", "matrix": _mat(rng, -0.5, 0.5)}
    if preset == "affine":
        return {"preset": "affine", "value": _vec(rng, -1.0, 1.0),
                "matrix": _mat(rng, -0.5, 0.5), "pivot": pivot}
    return {"preset": "sinusoidal", "amplitude": _num(rng, 0.2, 0.8),
            "wavevector": _vec(rng, -1.5, 1.5), "direction": _vec(rng, -1.0, 1.0)}


def _balanced(rng: random.Random, options, count: int) -> list:
    """``count`` picks with every option equally often, in seeded order.

    Balancing the cost-relevant axes keeps the work of one workload pass
    nearly the same from seed to seed; only the combinations are random.
    """
    picks = [options[i % len(options)] for i in range(count)]
    rng.shuffle(picks)
    return picks


def draw_small(rng: random.Random, name: str, kind: str, model: str,
               motion_kind: str, mode: str, noether: bool,
               equilibrium_shell: bool) -> Dict:
    """One low-order closure scenario with the checks valid for it."""
    lam_kind = rng.choice(MODULUS_KINDS)
    mu_kind = rng.choice(MODULUS_KINDS)
    if equilibrium_shell:
        kind, model, motion_kind = "shell", "quadratic", "harmonic"
        lam_kind = mu_kind = "constant"
        mode = "analytic"

    geometry = _draw_geometry(rng, kind)
    center = geometry["center"]
    if noether:
        v_kind = w_kind = "constant"
    else:
        v_kind = rng.choice(FIELDS)
        w_kind = rng.choice(FIELDS)

    config = {
        "name": name,
        "geometry": geometry,
        "material": {"model": model, "lam": _draw_modulus(rng, lam_kind),
                     "mu": _draw_modulus(rng, mu_kind)},
        "motion": _draw_motion(rng, motion_kind),
        "virtual_fields": {"v": _draw_field(rng, v_kind, center),
                           "w": _draw_field(rng, w_kind, center)},
        "sources": {"mode": "closure"},
        "quadrature": _draw_quadrature(rng, kind),
        "derivatives": {"mode": mode},
        "seed": rng.randrange(1 << 31),
    }
    if rng.random() < 0.5:
        config["pivots"] = {"x0": [round(c + _num(rng, -0.2, 0.2), 6) for c in center],
                            "y0": _vec(rng, -0.5, 0.5)}

    checks: Dict[str, Dict] = {
        "invariance": {"tolerance": 1e-10, "expect": "match_residuals"},
    }
    if rng.random() < 0.5:
        checks["standard_power"] = {"tolerance": 1e-12}
    if rng.random() < 0.3:
        checks["balances"] = {"tolerance": 1e-9, "expect": "report"}
    polynomial = (kind == "box" and motion_kind in CONSTANT_F_MOTIONS
                  and lam_kind != "sinusoidal" and mu_kind != "sinusoidal"
                  and v_kind in POLYNOMIAL_FIELDS and w_kind in POLYNOMIAL_FIELDS)
    if polynomial:
        checks["power_identity"] = {"tolerance": 1e-9 if mode == "analytic" else 1e-5}
    if noether:
        v = config["virtual_fields"]["v"]["value"]
        if rng.random() < 0.5:
            config["potential"] = {"kind": "zero"}
        else:
            # gravity orthogonal to v keeps the first condition exactly zero
            g = _vec(rng, -1.0, 1.0)
            scale = sum(a * b for a, b in zip(g, v)) / max(sum(a * a for a in v), 1e-12)
            config["potential"] = {"kind": "linear",
                                   "gravity": [g[i] - scale * v[i] for i in range(3)]}
        checks["noether"] = {"points": rng.randint(4, 10), "condition_tolerance": 1e-10,
                             "expect_second": "material_gradient",
                             "second_tolerance": 1e-8}
    if equilibrium_shell:
        checks["surface_independence"] = {
            "inner_radius": geometry["inner_radius"],
            "outer_radius": geometry["outer_radius"],
            "angular_points": config["quadrature"]["angular_points"],
            "expect": "zero", "tolerance": 1e-6}
    config["checks"] = checks
    return config


def random_small(seed: int, count: int = RANDOM_SMALL_COUNT) -> List[Dict]:
    rng = random.Random(seed)
    axes = zip(
        _balanced(rng, ("box", "box", "ball", "shell"), count),
        _balanced(rng, MATERIALS, count),
        _balanced(rng, MOTIONS, count),
        _balanced(rng, ("analytic", "analytic", "analytic", "fd"), count),
        _balanced(rng, (True, False, False, False), count),
        _balanced(rng, (True,) + (False,) * 9, count),
    )
    return [draw_small(rng, f"small_{seed}_{i:03d}", *picks)
            for i, picks in enumerate(axes)]


def load_bundled(root: str = ".") -> List[Dict]:
    directory = os.path.join(root, BUNDLED_DIR)
    configs = []
    for entry in sorted(os.listdir(directory)):
        if entry.endswith(".json"):
            with open(os.path.join(directory, entry), encoding="utf-8") as handle:
                configs.append(json.load(handle))
    return configs


def closure_refined(seed: int, root: str = ".") -> List[Dict]:
    """The refined closure scenarios; the seed only sets their run order."""
    by_name = {config["name"]: config for config in load_bundled(root)}
    configs = []
    for name, order in REFINED_ORDERS.items():
        config = json.loads(json.dumps(by_name[name]))
        config["quadrature"] = {"volume_order": order, "surface_order": order}
        configs.append(config)
    random.Random(seed).shuffle(configs)
    return configs


def workload_configs(workload: str, seed: int, root: str = ".") -> List[Dict]:
    if workload == "bundled_all":
        return load_bundled(root)
    if workload == "closure_refined":
        return closure_refined(seed, root)
    if workload == "random_small":
        return random_small(seed)
    raise ValueError(f"unknown workload {workload!r}")


def check_draws(configs: List[Dict], root: str = ".") -> List[int]:
    """Prove every config valid before timing; returns quadrature node counts.

    Each config must pass the published schema and have det F > 0 at
    every volume and surface node of its part.  Any violation raises,
    since it is a generator defect, not a program outcome.  Imports the
    program lazily, so the generator itself stays standard library only.
    """
    import jsonschema

    from relpower import scenarios

    with open(os.path.join(root, SCHEMA_PATH), encoding="utf-8") as handle:
        validator = jsonschema.Draft7Validator(json.load(handle))
    nodes = []
    for config in configs:
        errors = sorted(validator.iter_errors(config), key=str)
        if errors:
            raise ValueError(f"{config.get('name')}: schema: {errors[0].message}")
        part = scenarios.build_geometry(config["geometry"], config.get("quadrature", {}))
        analytic = config.get("derivatives", {}).get("mode", "analytic") == "analytic"
        step = scenarios.DEFAULT_MOTION_STEP * part.scale
        motion = scenarios.build_motion(config["motion"], step=step)
        points = list(part.volume_points) + list(part.surface.points)
        for x in points:
            # raises NonPositiveJacobian unless det F > 0
            motion.deformation_gradient(x, use_analytic=analytic)
        nodes.append(len(points))
    return nodes
