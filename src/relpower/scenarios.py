"""Declarative scenario configurations and their in-memory realization.

A scenario bundles one part of the body, one motion, one material, one
virtual-field pair, the source fields (b, f, mu) and the evaluation
options (derivative mode, quadrature orders, pivots, seed).  Configs
are plain JSON documents validated against the published schema before
anything is computed.  The schema is the single source of truth; a small
interpreter here reads the keywords it uses with their Draft 7 meaning,
and refuses to load a schema with any other.  Unknown keys are rejected,
``integer`` fields take Python ints only (Draft 7 would also take 4.0),
and an error names the path of the failing value.

Each section is built from a preset table, config name -> constructor:
``geometry.PARTS``, ``fields.MOTIONS``, ``fields.FIELDS``,
``materials.MODEL_CLASSES``, ``materials.MODULI`` and
``materials.POTENTIALS``.  A constructor's positional parameters are its
section's config keys, which the schema's ``oneOf`` branches list too; a
part's keyword-only ones are its quadrature orders.  Presets take no step:
``fd`` mode sets the motion step where it removes the analytic derivatives.

Node data is built once per scenario, for its part, over stacked arrays,
points (n, 3) and tensors (n, 3, 3), in blocks of ``NODE_BLOCK`` nodes: one
point state per node, and the sources read from it; that build makes F at
every node, so it is also the det F > 0 check.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import re
from importlib import resources
from typing import List, Optional, Tuple

import numpy as np

from . import configurational as conf
from . import fields, geometry, materials
from .exceptions import ConfigInvalid
from .tensors import as_vector, check_finite

DEFAULT_MOTION_STEP = 1e-5     # relative to the part scale


# The keywords the schema may use, each read with its Draft 7 meaning, and
# the annotations it may carry.  A bool is an int to Python but neither a
# number nor an integer to the schema, and an integral float is no integer.
_KEYWORDS = frozenset({
    "$ref", "type", "const", "enum", "oneOf", "required", "properties",
    "additionalProperties", "items", "minItems", "maxItems", "minimum",
    "maximum", "exclusiveMinimum", "pattern"})
_ANNOTATIONS = frozenset({"$schema", "title", "definitions"})
_TYPES = {"object": dict, "array": list, "string": str, "number": (int, float),
          "integer": int}


@functools.cache
def _schema() -> dict:
    """The published schema, read once, with every ``$ref`` resolved."""
    path = resources.files("relpower").joinpath("schema/scenario.schema.json")
    schema = json.loads(path.read_text())
    definitions = schema.get("definitions", {})
    for definition in definitions.values():    # checks those no $ref names too
        _resolve(definition, definitions)
    return _resolve(schema, definitions)


def _resolve(node: dict, definitions: dict) -> dict:
    """A copy of ``node`` with each ``$ref`` replaced by its definition (Draft 7
    ignores a ref's siblings); raises on anything :func:`_error` cannot read."""
    unknown = sorted(node.keys() - _KEYWORDS - _ANNOTATIONS)
    if (unknown or node.get("additionalProperties", False) is not False
            or "type" in node and node["type"] not in _TYPES):
        raise ValueError(f"scenario schema: cannot interpret {unknown or node}")
    if "$ref" in node:
        return _resolve(definitions[node["$ref"].removeprefix("#/definitions/")],
                        definitions)
    node = dict(node)
    if "items" in node:
        node["items"] = _resolve(node["items"], definitions)
    if "oneOf" in node:
        node["oneOf"] = [_resolve(branch, definitions) for branch in node["oneOf"]]
    if "properties" in node:
        node["properties"] = {name: _resolve(sub, definitions)
                              for name, sub in node["properties"].items()}
    return node


def _equal(a, b) -> bool:
    """JSON equality: unlike ``==``, a bool never equals a number."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(a[key], b[key]) for key in a)
    return a == b


def _error(value, schema: dict) -> Optional[Tuple[list, str]]:
    """The first way ``value`` breaks ``schema``, as (path, message), or None.

    Returns, never raises: an exception per failed ``oneOf`` branch would
    hold its frames, and the config in them, in reference cycles that only
    the cycle collector frees.
    """
    if "oneOf" in schema:
        errors = [_error(value, branch) for branch in schema["oneOf"]]
        if errors.count(None) > 1:
            return [], f"{value!r} is valid under more than one of the given schemas"
        if None not in errors:
            # the branch that got deepest names the failing value, unless tied
            depth = max(len(path) for path, _ in errors)
            deepest = [error for error in errors if len(error[0]) == depth]
            if len(deepest) > 1:
                return [], f"{value!r} is not valid under any of the given schemas"
            return deepest[0]
    if "type" in schema and (not isinstance(value, _TYPES[schema["type"]])
                             or isinstance(value, bool)):
        return [], f"{value!r} is not of type {schema['type']!r}"
    if "const" in schema and not _equal(value, schema["const"]):
        return [], f"{schema['const']!r} was expected"
    if "enum" in schema and not any(_equal(value, option) for option in schema["enum"]):
        return [], f"{value!r} is not one of {schema['enum']!r}"
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        for name in schema.get("required", ()):
            if name not in value:
                return [], f"{name!r} is a required property"
        if "additionalProperties" in schema:
            for name in value:
                if name not in properties:
                    return [], f"Additional properties are not allowed ({name!r} was unexpected)"
        for name, item in value.items():
            error = _error(item, properties[name]) if name in properties else None
            if error is not None:
                error[0].insert(0, name)
                return error
    elif isinstance(value, list):
        if "minItems" in schema and len(value) < schema["minItems"]:
            return [], f"{value!r} is too short"
        if "maxItems" in schema and len(value) > schema["maxItems"]:
            return [], f"{value!r} is too long"
        if "items" in schema:
            for index, item in enumerate(value):
                error = _error(item, schema["items"])
                if error is not None:
                    error[0].insert(0, index)
                    return error
    elif isinstance(value, str):
        if "pattern" in schema and not re.search(schema["pattern"], value):
            return [], f"{value!r} does not match {schema['pattern']!r}"
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        if "minimum" in schema and value < schema["minimum"]:
            return [], f"{value!r} is less than the minimum of {schema['minimum']!r}"
        if "maximum" in schema and value > schema["maximum"]:
            return [], f"{value!r} is greater than the maximum of {schema['maximum']!r}"
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            return [], (f"{value!r} is less than or equal to the minimum of "
                        f"{schema['exclusiveMinimum']!r}")
    return None


def validate_config(config: dict) -> None:
    """Checks ``config`` against the published schema; raises
    :class:`ConfigInvalid` naming the failing value's path and the cause.

    The schema's ``number`` admits NaN and Infinity, so they are rejected here.
    """
    error = _error(config, _schema())
    if error is not None:
        path, message = error
        raise ConfigInvalid(
            f"config invalid at {'/'.join(map(str, path)) or '<root>'}: {message}")
    try:
        json.dumps(config, allow_nan=False)
    except ValueError as err:
        raise ConfigInvalid(f"config invalid: non-finite number ({err})") from err


def config_digest(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def config_seed(config: dict) -> int:
    """The config's ``seed``, or one drawn from its digest when it has none."""
    return config.get("seed", int(config_digest(config)[:8], 16))


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
    return dataclasses.replace(_from_spec(fields.MOTIONS, spec, "preset"), step=step)


def build_modulus(spec: Optional[dict]) -> materials.Modulus:
    return (materials.constant_modulus(0.0) if spec is None
            else _from_spec(materials.MODULI, spec, "kind"))


def build_material(spec: dict) -> materials.MaterialModel:
    return materials.MODEL_CLASSES[spec["model"]](build_modulus(spec.get("lam")),
                                                  build_modulus(spec["mu"]))


def build_field(spec: dict) -> fields.VirtualField:
    return _from_spec(fields.FIELDS, spec, "preset")


def build_potential(spec: Optional[dict]) -> Optional[materials.BodyForcePotential]:
    return None if spec is None else _from_spec(materials.POTENTIALS, spec, "kind")


# ---------------------------------------------------------------------------
# Node data
# ---------------------------------------------------------------------------

# Nodes evaluated per array call.  Node work is elementwise, so the block
# size changes no result; it bounds the size of the temporaries.
NODE_BLOCK = 256


class _NodeData:
    """The point state of every given quadrature node.

    Each attribute named in ``FIELDS`` is an array with one row per node,
    filled block by block from :meth:`evaluate`.
    """

    FIELDS = conf.PointState._fields

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
        return scenario.state(x)


class VolumeNodeData(_NodeData):
    """The state and the sources (b, f, mu) at every volume quadrature node."""

    FIELDS = _NodeData.FIELDS + ("body_force", "driving_force", "couple")

    def __init__(self, scenario: "Scenario", part: geometry.BodyPart):
        super().__init__(scenario, part.volume_points, part.volume_weights)

    @staticmethod
    def evaluate(scenario: "Scenario", x: np.ndarray) -> tuple:
        state = scenario.state(x)
        b, f, mu = scenario.sources(x, state)
        check_finite(x, body_force=b, driving_force=f, couple=mu)
        return state + (b, f, mu)


class SurfaceNodeData(_NodeData):
    """The state and the traction P n at every boundary quadrature node."""

    def __init__(self, scenario: "Scenario", part: geometry.BodyPart):
        super().__init__(scenario, part.surface.points, part.surface.weights)
        self.normals = part.surface.normals
        self.traction = np.einsum("nij,nj->ni", self.stress, self.normals)


# ---------------------------------------------------------------------------
# Scenario
# ---------------------------------------------------------------------------

class Scenario:
    """One fully specified verification scenario.

    The derivative mode is resolved here, once: ``fd`` mode builds the motion
    and both virtual fields without their analytic derivatives.  The node
    data of the part, ``volume_data`` and ``surface_data``, is built here
    too: a node with det F <= 0 raises :class:`NonPositiveJacobian`, and a
    nonzero preset couple on an isotropic material makes the config invalid.
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

        motion = build_motion(config["motion"], self.motion_step)
        v = build_field(config["virtual_fields"]["v"])
        w = build_field(config["virtual_fields"]["w"])
        if self.derivative_mode == "fd":
            motion = dataclasses.replace(motion, gradient=None, second_gradient=None)
            v = dataclasses.replace(v, gradient=None, step=self.motion_step)
            w = dataclasses.replace(w, gradient=None, step=self.motion_step)
        self.motion = motion
        self.model = build_material(config["material"])
        self.pair = fields.VirtualFieldPair(v=v, w=w)
        self.potential = build_potential(config.get("potential"))

        pivots = config.get("pivots", {})
        self.x0 = as_vector(pivots.get("x0", self.part.center))
        self.y0 = as_vector(pivots["y0"] if "y0" in pivots
                            else self.motion.y(self.part.center))

        self.source_mode = config["sources"]["mode"]
        self.sources = self._build_sources(config["sources"])

        self.seed = config_seed(config)
        self.checks = config.get("checks", {})
        shells = self.checks.get("surface_independence")
        if shells is not None:
            # the fluxes are read on the shell's own boundary, so the check's
            # radii and rule may restate the part but not differ from it
            part = {**geometry.PARTS["shell"].__kwdefaults__, **quad, **config["geometry"]}
            restated = ("inner_radius", "outer_radius", "angular_points")
            if part["kind"] != "shell" or any(
                    shells.get(key, part[key]) != part[key] for key in restated):
                raise ConfigInvalid("surface_independence requires a shell part whose "
                                    "radii and angular_points the check only restates")

        self.volume_data = VolumeNodeData(self, self.part)
        self.surface_data = SurfaceNodeData(self, self.part)
        if (self.source_mode == "preset" and self.model.isotropic
                and np.any(self.volume_data.couple)):
            # couples are carried by anisotropy; an isotropic material space
            # admits only mu = 0 (closure couples are round-off, so exempt)
            raise ConfigInvalid(
                "preset couple field mu must vanish at every volume node for an "
                f"isotropic material (model {self.model.name!r})")

    def _build_sources(self, spec: dict):
        """(x, state) -> (b, f, mu) at points x (..., 3) of the given state."""
        if spec["mode"] == "closure":
            return conf.closure_sources(self.model, self.motion, self.divergence_step)

        zero = {"preset": "constant", "value": [0.0, 0.0, 0.0]}
        b, f, mu = (build_field(spec.get(key, zero)) for key in ("b", "f", "mu"))
        return lambda x, state: (b(x), f(x), mu(x))

    # -- pointwise evaluation ------------------------------------------------

    def state(self, x) -> conf.PointState:
        """y, F, P, e, PP and de/dx|expl at points x (..., 3)."""
        return conf.point_state(self.model, self.motion, x)


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
