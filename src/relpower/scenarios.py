"""Declarative scenario configurations and their in-memory realization.

A scenario bundles one part of the body, one motion, one material, one
virtual-field pair, the source fields (b, f, mu) and the evaluation
options (derivative mode, quadrature orders, pivots, seed).  Configs
are plain JSON documents validated against the published schema before
anything is computed; unknown keys are rejected, and ``integer`` fields
take Python ints only (Draft 7 would also take 4.0).

Each section is built from a preset table, config name -> constructor:
``geometry.PARTS``, ``fields.MOTIONS``, ``fields.FIELDS``,
``materials.MODEL_CLASSES``, ``materials.MODULI`` and
``materials.POTENTIALS``.  A constructor's positional parameters are its
section's config keys, which the schema's ``oneOf`` branches list too; its
keyword-only ones (a step, a part's quadrature orders) come from elsewhere.

Node data is built once per scenario, for its part, over stacked arrays,
points (n, 3) and tensors (n, 3, 3), in blocks of ``NODE_BLOCK`` nodes; that
build makes F at every node, so it is also the det F > 0 check.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from importlib import resources
from typing import List, Optional

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
        # Draft 7 counts 4.0 as an integer; orders, counts and seeds must be ints
        checker = cls.TYPE_CHECKER.redefine(
            "integer", lambda _, value: isinstance(value, int) and not isinstance(value, bool))
        _VALIDATOR = jsonschema.validators.extend(cls, type_checker=checker)(schema)
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

def _from_spec(table: dict, spec: dict, key: str, **extra):
    """``table[spec[key]]`` called with the other entries of ``spec``, and
    ``extra``, as keywords; the schema admits only table entries and keys."""
    params = {name: value for name, value in spec.items() if name != key}
    return table[spec[key]](**params, **extra)


def build_geometry(spec: dict, quad: dict) -> geometry.BodyPart:
    # a part reads the quadrature keys that are its keyword-only parameters
    keys = geometry.PARTS[spec["kind"]].__kwdefaults__
    orders = {key: quad[key] for key in keys if key in quad}
    return _from_spec(geometry.PARTS, spec, "kind", **orders)


def build_motion(spec: dict, step: float) -> fields.Motion:
    return _from_spec(fields.MOTIONS, spec, "preset", step=step)


def build_modulus(spec: Optional[dict]) -> materials.Modulus:
    return (materials.constant_modulus(0.0) if spec is None
            else _from_spec(materials.MODULI, spec, "kind"))


def build_material(spec: dict) -> materials.MaterialModel:
    return materials.make_material(
        spec["model"], build_modulus(spec.get("lam")), build_modulus(spec["mu"]))


def build_field(spec: dict, step: float) -> fields.VirtualField:
    return _from_spec(fields.FIELDS, spec, "preset", step=step)


def build_potential(spec: Optional[dict]) -> Optional[materials.BodyForcePotential]:
    return None if spec is None else _from_spec(materials.POTENTIALS, spec, "kind")


# ---------------------------------------------------------------------------
# Node data
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
    and both virtual fields without their analytic derivatives.  The node
    data of the part, ``volume_data`` and ``surface_data``, is built here
    too; a node with det F <= 0, or a nonzero preset couple on an isotropic
    material, makes the config invalid.
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
        v = build_field(config["virtual_fields"]["v"], step=self.motion_step)
        w = build_field(config["virtual_fields"]["w"], step=self.motion_step)
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
        shells = self.checks.get("surface_independence")
        if shells and shells["inner_radius"] >= shells["outer_radius"]:
            # equal surfaces carry equal fluxes, so the gate could not fail
            raise ConfigInvalid(
                "surface_independence requires inner_radius < outer_radius")

        try:
            self.volume_data = VolumeNodeData(self, self.part)
            self.surface_data = SurfaceNodeData(self, self.part)
        except NonPositiveJacobian as err:
            raise ConfigInvalid(f"NonPositiveJacobian: {err}") from err
        if (self.source_mode == "preset" and self.model.isotropic
                and np.any(self.volume_data.couple)):
            # couples are carried by anisotropy; an isotropic material space
            # admits only mu = 0 (closure couples are round-off, so exempt)
            raise ConfigInvalid(
                "preset couple field mu must vanish at every volume node for an "
                f"isotropic material (model {self.model.name!r})")

    def _build_sources(self, spec: dict):
        """x -> (b, f, mu) at points x (..., 3)."""
        if spec["mode"] == "closure":
            return conf.closure_sources(self.model, self.motion, self.divergence_step)

        zero = {"preset": "constant", "value": [0.0, 0.0, 0.0]}
        b = build_field(spec.get("b", zero), step=self.motion_step)
        f = build_field(spec.get("f", zero), step=self.motion_step)
        mu = build_field(spec.get("mu", zero), step=self.motion_step)
        return lambda x: (b(x), f(x), mu(x))

    # -- pointwise evaluation ------------------------------------------------

    def eshelby_at(self, x) -> np.ndarray:
        return conf.eshelby_stress(self.model, x, self.motion.deformation_gradient(x))

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


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
