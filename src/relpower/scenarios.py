"""Declarative scenario configurations and their in-memory realization.

A scenario bundles one part of the body, one motion, one material, the
virtual fields v and w, the source fields (b, f, mu) and the evaluation
options (derivative mode, quadrature orders, pivots, and the seed of the
invariance decomposition's random observer changes).  Configs are plain
JSON documents validated against the published schema before anything is
computed.  The schema is the single source of truth; a small interpreter
here reads the keywords it uses with their Draft 7 meaning, and refuses
to load a schema with any other.  Unknown keys are rejected, ``integer``
fields take Python ints only (Draft 7 would also take 4.0), and an error
names the path of the failing value.

Each section is built from a preset table, config name -> constructor:
``geometry.PARTS``, ``fields.MOTIONS``, ``fields.FIELDS``,
``materials.MODEL_CLASSES``, ``materials.MODULI`` and
``materials.POTENTIALS``.  A constructor's positional parameters are its
section's config keys, which the schema's ``oneOf`` branches list too; a
part's keyword-only ones are its quadrature orders.  Presets take no step:
``fd`` mode sets the motion step where it removes the analytic derivatives,
and closure sources then take dF/dx from differences of F.

Node data is built once per scenario, for its part, over stacked arrays:
one point state over each node set, volume and surface, the volume one
made with its sources (:meth:`Scenario.sources`) in one call, and the
pair sampled once per set, v and w at both, grad v and grad w at the
volume nodes; every check reads it, the Noether check too.  It is
component-major, vectors (3, n) and tensors (3, 3, n), as the presets
take points and give values; the part's (n, 3) tables of points and
normals are transposed once per node set, here only, and what the
presets give there is checked finite once.  The build makes F at every
node: the det F > 0 check.
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

class _NodeData:
    """The rows of every given quadrature node: ``points`` and each attribute
    named in ``FIELDS``, from one array call, C-contiguous as presets give them."""

    FIELDS = conf.PointState._fields

    def __init__(self, points: np.ndarray, weights: np.ndarray):
        self.points, self.weights = self.transposed(points), weights

    @staticmethod
    def transposed(table: np.ndarray) -> np.ndarray:
        """The part's (n, 3) ``table`` as (3, n) rows: the one transpose of points."""
        return np.ascontiguousarray(table.T)


class VolumeNodeData(_NodeData):
    """The state, the sources (b, f, mu) and the pair at every volume node."""

    FIELDS = _NodeData.FIELDS + ("body_force", "driving_force", "couple",
                                 "v", "w", "grad_v", "grad_w", "curl_w")

    def __init__(self, scenario: "Scenario", part: geometry.BodyPart):
        super().__init__(part.volume_points, part.volume_weights)
        x, v, w = self.points, scenario.v, scenario.w
        state, (b, f, mu) = scenario.sources(x)
        rows = dict(body_force=b, driving_force=f, couple=mu, v=v(x), w=w(x),
                    grad_v=v.grad(x), grad_w=w.grad(x))
        check_finite(x, **rows)
        vars(self).update(zip(self.FIELDS, state + (*rows.values(),
                                                    fields.curl_from_gradient(rows["grad_w"]))))


class SurfaceNodeData(_NodeData):
    """The state, the pair, the traction P n and the configurational traction
    PP n at every boundary node."""

    FIELDS = _NodeData.FIELDS + ("v", "w")

    def __init__(self, scenario: "Scenario", part: geometry.BodyPart):
        super().__init__(part.surface.points, part.surface.weights)
        x, v, w = self.points, scenario.v(self.points), scenario.w(self.points)
        check_finite(x, v=v, w=w)
        vars(self).update(zip(self.FIELDS, scenario.state(x) + (v, w)))
        self.normals = self.transposed(part.surface.normals)
        self.traction = np.einsum("ijn,jn->in", self.stress, self.normals)
        self.config_traction = np.einsum("ijn,jn->in", self.eshelby, self.normals)


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
        self.motion, self.v, self.w = motion, v, w
        self.model = build_material(config["material"])
        self.potential = build_potential(config.get("potential"))

        pivots = config.get("pivots", {})
        self.x0 = as_vector(pivots.get("x0", self.part.center))
        self.y0 = as_vector(pivots["y0"] if "y0" in pivots
                            else self.motion.y(self.part.center))

        spec = config["sources"]
        self.source_mode, zero = spec["mode"], fields.constant_field(np.zeros(3))
        self.preset_sources = tuple(build_field(spec[key]) if key in spec else zero
                                    for key in ("b", "f", "mu"))

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

    # -- pointwise evaluation ------------------------------------------------

    def state(self, x) -> conf.PointState:
        """y, F, P, e, PP and de/dx|expl at points x (3, ...)."""
        return conf.point_state(self.model, self.motion, x)

    def sources(self, x):
        """(state, (b, f, mu)) at points x (3, ...): the closure sources, or the
        values of ``preset_sources``, the config's fields, zero where it has none."""
        if self.source_mode == "closure":
            return conf.closure_sources(self.model, self.motion, x, self.divergence_step)
        return self.state(x), tuple(field(x) for field in self.preset_sources)


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
    """Read a config from disk; IO failures propagate as OSError, and bytes the JSON
    decoder cannot read (not UTF-8, too deep, too many digits) as ConfigInvalid."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            config = json.loads(handle.read())
        except (ValueError, RecursionError) as err:   # ValueError: not UTF-8, or JSON
            raise ConfigInvalid(f"config is not valid JSON: {err}") from err
    if not isinstance(config, dict):
        raise ConfigInvalid("config root must be a JSON object")
    return config
