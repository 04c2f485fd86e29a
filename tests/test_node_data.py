"""Batched node data against the per-node loop, and its block independence."""

import copy

import numpy as np
import pytest

from conftest import reference_node_data
from relpower import scenarios
from relpower.exceptions import NonPositiveJacobian
from relpower.scenarios import Scenario, bundled_scenario_names, load_bundled_config

# a graded closure part with 343 volume and 294 surface nodes: more than one
# block, and not a multiple of the block size
OVERFLOW = {
    "name": "block_overflow",
    "geometry": {"kind": "box", "center": [0.1, -0.05, 0.0],
                 "halfwidths": [0.5, 0.4, 0.45]},
    "material": {"model": "stvk",
                 "lam": {"kind": "sinusoidal", "value": 1.0, "amplitude": 0.2,
                         "wavevector": [0.8, -0.5, 1.1]},
                 "mu": {"kind": "affine", "value": 1.0, "slope": [0.3, -0.2, 0.1]}},
    "motion": {"preset": "sinusoidal", "amplitude": 0.08,
               "wavevector": [2.0, 0.5, -0.7], "direction": [0.25, 0.85, 0.45]},
    "virtual_fields": {"v": {"preset": "constant", "value": [0.1, 0.0, 0.0]},
                       "w": {"preset": "constant", "value": [0.0, 0.1, 0.0]}},
    "sources": {"mode": "closure"},
    "quadrature": {"volume_order": 7, "surface_order": 7},
}


def _configs():
    configs = {name: load_bundled_config(name) for name in bundled_scenario_names()}
    configs["block_overflow"] = OVERFLOW
    fd = copy.deepcopy(OVERFLOW)
    fd["name"] = "block_overflow_fd"
    fd["derivatives"] = {"mode": "fd"}
    configs["block_overflow_fd"] = fd
    return configs


CONFIGS = _configs()


def _node_arrays(scenario):
    vol = scenario.volume_data()
    surf = scenario.surface_data()
    return ({name: getattr(vol, name) for name in vol.FIELDS},
            {name: getattr(surf, name) for name in surf.FIELDS})


def test_overflow_part_spans_a_partial_block():
    part = Scenario(OVERFLOW).part
    for n in (len(part.volume_points), len(part.surface.points)):
        assert n > scenarios.NODE_BLOCK and n % scenarios.NODE_BLOCK


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_batched_node_data_matches_per_node_loop(name):
    scenario = Scenario(CONFIGS[name])
    tol = 1e-8 if scenario.derivative_mode == "fd" else 1e-13
    volume, surface = _node_arrays(scenario)
    expected = (reference_node_data(scenario, scenario.part.volume_points, True),
                reference_node_data(scenario, scenario.part.surface.points, False))
    for got, want in zip((volume, surface), expected):
        assert sorted(got) == sorted(want)
        for field, value in got.items():
            assert value.shape == want[field].shape, field
            scale = max(np.max(np.abs(want[field])), np.max(np.abs(value)))
            error = np.max(np.abs(value - want[field]))
            assert error <= tol * scale, f"{field}: {error:.3e} vs scale {scale:.3e}"


@pytest.mark.parametrize("name", ["block_overflow", "block_overflow_fd",
                                  "closure_skewed_graded_stvk"])
def test_block_size_leaves_node_data_bit_identical(name, monkeypatch):
    reference = _node_arrays(Scenario(CONFIGS[name]))
    for block in (1, 7, 100_000):
        monkeypatch.setattr(scenarios, "NODE_BLOCK", block)
        for got, want in zip(_node_arrays(Scenario(CONFIGS[name])), reference):
            for field in want:
                np.testing.assert_array_equal(got[field], want[field], err_msg=field)


def test_single_bad_node_mid_block_is_found():
    # det F = 1 - cos(k . x) vanishes only where k . x = 0: the center node
    config = copy.deepcopy(OVERFLOW)
    config["geometry"] = {"kind": "box", "center": [0.0, 0.0, 0.0],
                          "halfwidths": [0.5, 0.5, 0.5]}
    config["motion"] = {"preset": "sinusoidal", "amplitude": 1.0,
                        "wavevector": [1.0, 0.37, 0.113], "direction": [-1.0, 0.0, 0.0]}
    part = scenarios.build_geometry(config["geometry"], config["quadrature"])
    motion = scenarios.build_motion(config["motion"], step=1e-5)
    points = part.volume_points
    det = np.linalg.det(motion.gradient(points))
    bad = np.flatnonzero(det <= 0.0)
    assert list(bad) == [171]
    assert 0 < bad[0] % scenarios.NODE_BLOCK < scenarios.NODE_BLOCK - 1
    with pytest.raises(NonPositiveJacobian, match=r"at x = \[0\. 0\. 0\.\]"):
        motion.deformation_gradient(points)
    motion.deformation_gradient(np.delete(points, 171, axis=0))
