"""Declarative scenario configurations and their in-memory realization.

A scenario bundles one part of the body, one motion, one material, one
virtual-field pair, the source fields (b, f, mu) and the evaluation
options (derivative mode, quadrature orders, pivots, seed).  Configs
are plain JSON documents validated against the published schema before
anything is computed; unknown keys are rejected.

Node data is built over stacked arrays, points (n, 3) and tensors (n, 3, 3),
in blocks of ``NODE_BLOCK`` nodes; det F > 0 is checked once per array.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from importlib import resources
from typing import Dict, List, Optional, Tuple

import jsonschema
import numpy as np

from . import configurational as conf
from . import fields, geometry, materials
from .exceptions import ConfigInvalid, NonPositiveJacobian
from .tensors import as_vector

DEFAULT_MOTION_STEP = 1e-5     # relative to the part scale


_VALIDATOR = None


def _validator():
    """The schema's validator, checked and compiled once on first use."""
    global _VALIDATOR
    if _VALIDATOR is None:
        path = resources.files("relpower").joinpath("schema/scenario.schema.json")
        schema = json.loads(path.read_text())
        cls = jsonschema.validators.validator_for(schema)
        cls.check_schema(schema)
        _VALIDATOR = cls(schema)
    return _VALIDATOR


def validate_config(config: dict) -> None:
    """Schema validation; raises :class:`ConfigInvalid` with the cause.

    The schema's ``number`` admits NaN and Infinity, so they are rejected here.
    """
    err = jsonschema.exceptions.best_match(_validator().iter_errors(config))
    if err is not None:
        path = "/".join(str(p) for p in err.absolute_path) or "<root>"
        raise ConfigInvalid(f"config invalid at {path}: {err.message}") from err
    try:
        json.dumps(config, allow_nan=False)
    except ValueError as err:
        raise ConfigInvalid(f"config invalid: non-finite number ({err})") from err


def config_digest(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


# ---------------------------------------------------------------------------
# Component builders
# ---------------------------------------------------------------------------

def build_geometry(spec: dict, quad: dict) -> geometry.BodyPart:
    kind = spec["kind"]
    if kind == "box":
        return geometry.box_part(
            spec["center"], spec["halfwidths"],
            order=quad.get("volume_order", 6),
            surface_order=quad.get("surface_order", quad.get("volume_order", 6)),
        )
    if kind == "ball":
        return geometry.ball_part(
            spec["center"], spec["radius"],
            radial_order=quad.get("radial_order", 6),
            angular_points=quad.get("angular_points", 26),
        )
    if kind == "shell":
        if spec["inner_radius"] >= spec["outer_radius"]:
            raise ConfigInvalid("shell requires inner_radius < outer_radius")
        return geometry.shell_part(
            spec["center"], spec["inner_radius"], spec["outer_radius"],
            radial_order=quad.get("radial_order", 6),
            angular_points=quad.get("angular_points", 26),
        )
    raise ConfigInvalid(f"unknown geometry kind {kind!r}")


def build_motion(spec: dict, step: float) -> fields.Motion:
    preset = spec["preset"]
    if preset == "identity":
        return fields.identity_motion(step=step)
    if preset == "homogeneous":
        return fields.homogeneous_motion(spec["matrix"], step=step)
    if preset == "rotation":
        return fields.rotation_motion(spec["axis"], spec["angle"], step=step)
    if preset == "shear":
        return fields.shear_motion(spec["gamma"], step=step)
    if preset == "harmonic":
        return fields.harmonic_motion(spec["alpha"], step=step)
    if preset == "sinusoidal":
        return fields.sinusoidal_motion(spec["amplitude"], spec["wavevector"],
                                        spec["direction"], step=step)
    raise ConfigInvalid(f"unknown motion preset {preset!r}")


def build_modulus(spec: Optional[dict]) -> materials.Modulus:
    if spec is None:
        return materials.constant_modulus(0.0)
    kind = spec["kind"]
    if kind == "constant":
        return materials.constant_modulus(spec["value"])
    if kind == "affine":
        return materials.affine_modulus(spec["value"], spec["slope"])
    if kind == "sinusoidal":
        return materials.sinusoidal_modulus(spec["value"], spec["amplitude"],
                                            spec["wavevector"])
    raise ConfigInvalid(f"unknown modulus kind {kind!r}")


def build_material(spec: dict) -> materials.MaterialModel:
    return materials.make_material(
        spec["model"], build_modulus(spec.get("lam")), build_modulus(spec["mu"])
    )


def build_field(spec: dict, name: str, step: float) -> fields.VirtualField:
    preset = spec["preset"]
    if preset == "constant":
        return fields.constant_field(spec["value"], name=name, step=step)
    if preset == "rigid":
        return fields.rigid_field(spec["translation"], spec["rotation"],
                                  spec["pivot"], name=name, step=step)
    if preset == "linear":
        return fields.linear_field(spec["matrix"], name=name, step=step)
    if preset == "affine":
        return fields.affine_field(spec["value"], spec["matrix"],
                                   spec.get("pivot"), name=name, step=step)
    if preset == "sinusoidal":
        return fields.sinusoidal_field(spec["amplitude"], spec["wavevector"],
                                       spec["direction"], name=name, step=step)
    raise ConfigInvalid(f"unknown field preset {preset!r}")


def build_potential(spec: Optional[dict]) -> Optional[materials.BodyForcePotential]:
    if spec is None:
        return None
    if spec["kind"] == "zero":
        return materials.zero_potential()
    if spec["kind"] == "linear":
        return materials.linear_potential(spec["gravity"])
    raise ConfigInvalid(f"unknown potential kind {spec['kind']!r}")


# ---------------------------------------------------------------------------
# Node caches
# ---------------------------------------------------------------------------

# Nodes evaluated per array call.  Node work is elementwise, so the block
# size changes no result; it bounds the size of the temporaries.
NODE_BLOCK = 256


class _NodeData:
    """y, F, P, PP and e evaluated once at every given quadrature node.

    Each attribute named in ``FIELDS`` is an array with one row per node,
    filled block by block from :meth:`evaluate`.
    """

    FIELDS = ("y", "f_grad", "stress", "eshelby", "energy")

    def __init__(self, scenario: "Scenario", points: np.ndarray, weights: np.ndarray):
        self.points = points
        self.weights = weights
        for start in range(0, len(points), NODE_BLOCK):
            block = slice(start, start + NODE_BLOCK)
            for name, value in zip(self.FIELDS, self.evaluate(scenario, points[block])):
                if start == 0:
                    setattr(self, name, np.empty((len(points),) + value.shape[1:]))
                getattr(self, name)[block] = value

    @staticmethod
    def evaluate(scenario: "Scenario", x: np.ndarray) -> tuple:
        f = scenario.motion.deformation_gradient(x)
        return (scenario.motion.y(x), f, scenario.model.stress(x, f),
                conf.eshelby_stress(scenario.model, x, f), scenario.model.energy(x, f))


class VolumeNodeData(_NodeData):
    """Scenario fields evaluated once at every volume quadrature node."""

    FIELDS = _NodeData.FIELDS + ("material_gradient", "body_force", "driving_force",
                                 "couple")

    def __init__(self, scenario: "Scenario", part: geometry.BodyPart):
        super().__init__(scenario, part.volume_points, part.volume_weights)

    @staticmethod
    def evaluate(scenario: "Scenario", x: np.ndarray) -> tuple:
        state = _NodeData.evaluate(scenario, x)
        return (state + (scenario.model.material_gradient(x, state[1]),)
                + tuple(scenario.sources(x)))


class SurfaceNodeData(_NodeData):
    """Scenario fields evaluated once at every boundary quadrature node."""

    def __init__(self, scenario: "Scenario", part: geometry.BodyPart):
        super().__init__(scenario, part.surface.points, part.surface.weights)
        self.normals = part.surface.normals


# ---------------------------------------------------------------------------
# Scenario
# ---------------------------------------------------------------------------

class Scenario:
    """One fully specified verification scenario.

    The derivative mode is resolved here, once: ``fd`` mode builds the motion
    and both virtual fields without their analytic derivatives.
    """

    def __init__(self, config: dict):
        validate_config(config)
        self.config = config
        self.name = config["name"]
        try:
            self._build(config)
        except ValueError as err:
            raise ConfigInvalid(f"config invalid: {err}") from err

    # -- construction helpers ----------------------------------------------

    def _build(self, config: dict) -> None:
        quad = config.get("quadrature", {})
        self.part = build_geometry(config["geometry"], quad)

        deriv = config.get("derivatives", {})
        self.derivative_mode = deriv.get("mode", "analytic")
        self.motion_step = deriv.get("motion_step", DEFAULT_MOTION_STEP) * self.part.scale
        self.divergence_step = (
            deriv.get("divergence_step", conf.DEFAULT_DIVERGENCE_STEP) * self.part.scale
        )

        motion = build_motion(config["motion"], step=self.motion_step)
        v = build_field(config["virtual_fields"]["v"], "v", step=self.motion_step)
        w = build_field(config["virtual_fields"]["w"], "w", step=self.motion_step)
        if self.derivative_mode == "fd":
            motion = dataclasses.replace(motion, gradient=None, second_gradient=None)
            v = dataclasses.replace(v, gradient=None)
            w = dataclasses.replace(w, gradient=None)
        self.motion = motion
        self.model = build_material(config["material"])
        self.pair = fields.VirtualFieldPair(v=v, w=w)
        self.potential = build_potential(config.get("potential"))

        pivots = config.get("pivots", {})
        self.x0 = as_vector(pivots["x0"]) if "x0" in pivots else self.part.center.copy()
        if "y0" in pivots:
            self.y0 = as_vector(pivots["y0"])
        else:
            self.y0 = self.motion.y(self.part.center)

        self.source_mode = config["sources"]["mode"]
        self.sources = self._build_sources(config["sources"])

        self.seed = config.get("seed", int(config_digest(config)[:8], 16))
        self.checks = config.get("checks", {})

        self._volume_cache: Dict[int, Tuple[geometry.BodyPart, VolumeNodeData]] = {}
        self._surface_cache: Dict[int, Tuple[geometry.BodyPart, SurfaceNodeData]] = {}

        self._probe_kinematics()

    def _build_sources(self, spec: dict):
        """x -> (b, f, mu) at points x (..., 3)."""
        if spec["mode"] == "closure":
            return conf.closure_sources(self.model, self.motion, self.divergence_step)

        zero = {"preset": "constant", "value": [0.0, 0.0, 0.0]}
        b = build_field(spec.get("b", zero), "b", step=self.motion_step)
        f = build_field(spec.get("f", zero), "f", step=self.motion_step)
        mu = build_field(spec.get("mu", zero), "mu", step=self.motion_step)
        if self.model.isotropic:
            # couples are carried by anisotropy; an isotropic material space
            # admits only mu = 0
            probe = np.vstack([self.part.center, self.part.volume_points[:4]])
            if np.any(np.linalg.norm(mu(probe), axis=-1) > 0.0):
                raise ConfigInvalid(
                    "preset couple field mu must vanish for an isotropic "
                    f"material (model {self.model.name!r})")
        return lambda x: (b(x), f(x), mu(x))

    def _probe_kinematics(self) -> None:
        """Fail configuration early when det F <= 0 anywhere on the part."""
        try:
            self.motion.deformation_gradient(self.part.volume_points)
            self.motion.deformation_gradient(self.part.surface.points)
        except NonPositiveJacobian as err:
            raise ConfigInvalid(f"NonPositiveJacobian: {err}") from err

    # -- pointwise evaluation ------------------------------------------------

    def eshelby_at(self, x) -> np.ndarray:
        return conf.eshelby_stress(self.model, x, self.motion.deformation_gradient(x))

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    # -- cached node data ------------------------------------------------------

    def volume_data(self, part: Optional[geometry.BodyPart] = None) -> VolumeNodeData:
        part = self.part if part is None else part
        key = id(part)
        if key not in self._volume_cache:   # holding the part keeps its id unique
            self._volume_cache[key] = (part, VolumeNodeData(self, part))
        return self._volume_cache[key][1]

    def surface_data(self, part: Optional[geometry.BodyPart] = None) -> SurfaceNodeData:
        part = self.part if part is None else part
        key = id(part)
        if key not in self._surface_cache:   # holding the part keeps its id unique
            self._surface_cache[key] = (part, SurfaceNodeData(self, part))
        return self._surface_cache[key][1]


# ---------------------------------------------------------------------------
# Bundled scenarios
# ---------------------------------------------------------------------------

def bundled_scenario_names() -> List[str]:
    root = resources.files("relpower").joinpath("scenarios")
    return sorted(
        entry.name[: -len(".json")]
        for entry in root.iterdir()
        if entry.name.endswith(".json")
    )


def load_bundled_config(name: str) -> dict:
    path = resources.files("relpower").joinpath(f"scenarios/{name}.json")
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigInvalid(f"no bundled scenario named {name!r}") from None


def load_config_file(path: str) -> dict:
    """Read a config from disk; IO failures propagate as OSError."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        config = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigInvalid(f"config is not valid JSON: {err}") from err
    if not isinstance(config, dict):
        raise ConfigInvalid("config root must be a JSON object")
    return config
