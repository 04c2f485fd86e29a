"""The built-in interpreter of the scenario schema, checked against
jsonschema's Draft 7 validator as an oracle.

The oracle counts only Python ints that are not bools as ``integer``, the
one place where the interpreter deliberately departs from plain Draft 7.
"""

import copy
import gc
import json
import random
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from conftest import generate
from relpower import scenarios
from relpower.exceptions import ConfigInvalid
from relpower.scenarios import bundled_scenario_names, load_bundled_config, validate_config

SCHEMA = json.loads(
    resources.files("relpower").joinpath("schema/scenario.schema.json").read_text())

BUNDLED = [load_bundled_config(name) for name in bundled_scenario_names()]
DRAWS = generate.random_small(3) + generate.random_small(41)

MUTATIONS = 3000
# replacement values: every JSON type, values at the schema's bounds, and
# names of presets, so that a share of the mutants stay valid
VALUES = [None, True, False, 0, 1, -1, 4, 4.0, 0.5, -0.5, 1e9, 10000, 10001, 26, 7,
          "", "box", "ball", "closure", "preset", "constant", "affine", "zero",
          "fd", "stvk", "shear", "bad name!", [], [0.0, 1.0, 2.0], [1, 2],
          [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], {},
          {"kind": "constant", "value": 1.0},
          {"preset": "constant", "value": [0.1, 0.0, 0.0]}]


ORACLE = jsonschema.validators.extend(
    jsonschema.Draft7Validator,
    type_checker=jsonschema.Draft7Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, value: isinstance(value, int) and not isinstance(value, bool)),
)(SCHEMA)


def accepts(config) -> bool:
    try:
        validate_config(config)
    except ConfigInvalid:
        return False
    return True


def _keywords(node):
    """Every key of every schema object reachable from ``node``."""
    yield from node
    subs = [*node.get("properties", {}).values(), *node.get("definitions", {}).values(),
            *node.get("oneOf", []), *([node["items"]] if "items" in node else [])]
    for sub in subs:
        yield from _keywords(sub)


def _containers(value):
    """Every object and array inside ``value``, ``value`` included."""
    if isinstance(value, (dict, list)):
        yield value
        for item in value.values() if isinstance(value, dict) else value:
            yield from _containers(item)


# keys to add: every key the schema spells (keywords, properties, definitions)
NAMES = sorted({key for node in _containers(SCHEMA) if isinstance(node, dict)
                for key in node}) + ["surprise"]


def _mutate(rng: random.Random, config: dict) -> dict:
    """A copy of ``config`` with one key replaced, deleted or added."""
    config = copy.deepcopy(config)
    containers = list(_containers(config))
    target = rng.choice(containers)
    keys = list(target) if isinstance(target, dict) else list(range(len(target)))
    # another value of the same config, or one of VALUES
    value = copy.deepcopy(rng.choice([rng.choice(containers)] + VALUES))
    operation = rng.choice(("replace", "delete", "add") if keys else ("add",))
    if operation == "replace":
        target[rng.choice(keys)] = value
    elif operation == "delete":
        del target[rng.choice(keys)]
    elif isinstance(target, dict):
        target[rng.choice(NAMES)] = value
    else:
        target.append(value)
    return config


def test_schema_is_draft7():
    jsonschema.Draft7Validator.check_schema(SCHEMA)


def test_schema_uses_only_interpreted_keywords():
    # every keyword the schema uses is interpreted, and no other is
    used = set(_keywords(SCHEMA)) - {"$schema", "title", "definitions"}
    assert used == scenarios._KEYWORDS


@pytest.mark.parametrize("node", [
    {"type": "object", "minProperties": 1},
    {"type": "object", "additionalProperties": {"type": "number"}},
    {"type": "boolean"},
    {"oneOf": [{"type": "number", "multipleOf": 2}]},
], ids=["unknown_keyword", "additional_properties_schema", "unknown_type", "nested"])
def test_uninterpreted_schema_raises_at_load(node):
    with pytest.raises(ValueError, match="cannot interpret"):
        scenarios._resolve(node, {})


@pytest.mark.parametrize("corpus", [BUNDLED, DRAWS], ids=["bundled", "random_small"])
def test_valid_corpus_is_accepted(corpus):
    assert all(ORACLE.is_valid(config) for config in corpus)
    assert all(accepts(config) for config in corpus)


def test_benchmark_draws_restate_their_shell():
    # the benchmark writes inner_radius, outer_radius and angular_points on
    # every surface-independence draw and validates each draw before timing
    # it, so the schema must keep accepting those keys as restatements
    draws = generate.random_small(7) + generate.random_small(41)
    restated = 0
    for config in draws:
        validate_config(config)
        check = config["checks"].get("surface_independence")
        if check is not None:
            shell = config["geometry"]
            assert shell["kind"] == "shell"
            assert [check["inner_radius"], check["outer_radius"], check["angular_points"]] \
                == [shell["inner_radius"], shell["outer_radius"],
                    config["quadrature"]["angular_points"]]
            restated += 1
    assert restated > 0


def test_mutations_get_the_oracle_verdict():
    rng = random.Random(20080)
    bases = BUNDLED + DRAWS[::12]
    mutants = [_mutate(rng, rng.choice(bases)) for _ in range(MUTATIONS)]
    verdicts = [ORACLE.is_valid(config) for config in mutants]
    mismatches = [config for config, verdict in zip(mutants, verdicts)
                  if accepts(config) != verdict]
    assert not mismatches, json.dumps(mismatches[0])
    # both verdicts occur, so the comparison has teeth either way
    assert 0.05 < sum(verdicts) / MUTATIONS < 0.95


@pytest.mark.parametrize("name", [".", "..", "...", ".a", "a..", "a.b"])
def test_dot_names_get_the_oracle_verdict(name):
    # "." and ".." would place the reports in or above the output directory
    config = dict(BUNDLED[0], name=name)
    assert accepts(config) == ORACLE.is_valid(config) == (name not in (".", ".."))


def test_integral_float_is_no_integer():
    config = copy.deepcopy(BUNDLED[0])
    config["quadrature"] = {"volume_order": 4.0}
    assert jsonschema.Draft7Validator(SCHEMA).is_valid(config)
    assert not ORACLE.is_valid(config)
    with pytest.raises(ConfigInvalid, match="at quadrature/volume_order: 4.0 is not of type"):
        validate_config(config)


def test_bool_is_no_number_and_equals_no_number():
    assert scenarios._error(True, {"type": "number"}) is not None
    assert scenarios._error(1, {"enum": [True]}) is not None
    assert scenarios._error(True, {"const": 1}) is not None
    assert scenarios._error([1], {"const": [True]}) is not None
    assert scenarios._error(1.0, {"const": 1}) is None


def test_validation_leaves_no_reference_cycles():
    # valid configs fail every oneOf branch but one; each failure must leave
    # nothing that only the cycle collector can free
    validate_config(BUNDLED[0])
    gc.collect()
    gc.disable()
    try:
        for config in BUNDLED + DRAWS:
            validate_config(config)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_cli_runs_without_jsonschema():
    code = ("import sys\n"
            "from relpower import cli\n"
            "from relpower.scenarios import load_bundled_config\n"
            "cli.validate_config(load_bundled_config('stvk_uniaxial'))\n"
            "print('jsonschema' in sys.modules)\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
