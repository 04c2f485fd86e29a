"""Batched node data against the per-node loop, and its split independence."""

import copy
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import reference_node_data
from relpower import cli, fields, materials, scenarios
from relpower.exceptions import NonFiniteValue, NonPositiveJacobian
from relpower.scenarios import (Scenario, SurfaceNodeData, VolumeNodeData,
                                bundled_scenario_names, load_bundled_config)
from relpower.tensors import det

# a graded closure part with 343 volume and 294 surface nodes
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
    # F^-t and ln J, and dP/dF along a nonzero dF/dx, where the shear has none
    neo = copy.deepcopy(OVERFLOW)
    neo["name"] = "block_overflow_neohookean"
    neo["material"]["model"] = "neo_hookean"
    configs["block_overflow_neohookean"] = neo
    return configs


CONFIGS = _configs()


def _node_arrays(scenario):
    vol, surf = scenario.volume_data, scenario.surface_data
    return ({name: getattr(vol, name) for name in vol.FIELDS},
            {name: getattr(surf, name) for name in surf.FIELDS})


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
            if field == "couple" and scenario.source_mode == "closure":
                # axial(2 Skw PP), which for an isotropic model is round-off of PP
                scale = max(scale, 2.0 * np.max(np.abs(want["eshelby"])))
            error = np.max(np.abs(value - want[field]))
            assert error <= tol * scale, f"{field}: {error:.3e} vs scale {scale:.3e}"


def _split_node_arrays(scenario, size):
    """The node arrays of the scenario's part, made from pieces of ``size`` nodes."""
    part = scenario.part
    starts = range(0, max(len(part.volume_points), len(part.surface.points)), size)
    pieces = [SimpleNamespace(
        volume_points=part.volume_points[k:k + size],
        volume_weights=part.volume_weights[k:k + size],
        surface=SimpleNamespace(points=part.surface.points[k:k + size],
                                weights=part.surface.weights[k:k + size],
                                normals=part.surface.normals[k:k + size]))
        for k in starts]
    volume = [VolumeNodeData(scenario, piece) for piece in pieces
              if len(piece.volume_points)]
    surface = [SurfaceNodeData(scenario, piece) for piece in pieces
               if len(piece.surface.points)]
    return tuple({name: np.concatenate([getattr(data, name) for data in datas], axis=-1)
                  for name in datas[0].FIELDS}
                 for datas in (volume, surface))


@pytest.mark.parametrize("name", ["block_overflow", "block_overflow_fd",
                                  "closure_skewed_graded_stvk",
                                  "closure_shear_neohookean", "block_overflow_neohookean"])
def test_node_rows_are_bit_identical_however_the_points_are_split(name):
    # node work is elementwise: a node's row does not depend on the others
    scenario = Scenario(CONFIGS[name])
    reference = _node_arrays(scenario)
    for size in (1, 3, 7, 100_000):
        for got, want in zip(_split_node_arrays(scenario, size), reference):
            for field in want:
                np.testing.assert_array_equal(got[field], want[field], err_msg=field)


@pytest.mark.parametrize("name", ["block_overflow", "block_overflow_fd"])
def test_node_data_evaluates_the_stress_once_per_point(name, monkeypatch):
    # one point state per node: an fd volume node differences F, not P
    points = []
    response = materials.MaterialModel.response

    def counted(self, x, f, *df_dx):
        points.append(len(np.reshape(x, (-1, 3))))
        return response(self, x, f, *df_dx)

    monkeypatch.setattr(materials.MaterialModel, "response", counted)
    part = Scenario(CONFIGS[name]).part
    assert sum(points) == len(part.volume_points) + len(part.surface.points)


@pytest.mark.parametrize("model", ["stvk", "neo_hookean"])
@pytest.mark.parametrize("name", ["block_overflow", "block_overflow_fd"])
def test_node_data_derives_kinematics_once_per_node_set_evaluation(name, model,
                                                                   monkeypatch):
    # each volume set takes them once, analytic or fd, for the response that
    # gives P and Div P; the surface set for its response
    config = copy.deepcopy(CONFIGS[name])
    config["material"]["model"] = model
    calls = []
    cls = materials.MODEL_CLASSES[model]
    kinematics = cls.kinematics

    def counted(self, f):
        calls.append(len(np.reshape(f, (-1, 3, 3))))
        return kinematics(self, f)

    monkeypatch.setattr(cls, "kinematics", counted)
    part = Scenario(config).part
    assert sorted(calls) == sorted([len(part.volume_points), len(part.surface.points)])


def test_single_bad_node_mid_set_is_found():
    # det F = 1 - cos(k . x) vanishes only where k . x = 0: the center node
    config = copy.deepcopy(OVERFLOW)
    config["geometry"] = {"kind": "box", "center": [0.0, 0.0, 0.0],
                          "halfwidths": [0.5, 0.5, 0.5]}
    config["motion"] = {"preset": "sinusoidal", "amplitude": 1.0,
                        "wavevector": [1.0, 0.37, 0.113], "direction": [-1.0, 0.0, 0.0]}
    part = scenarios.build_geometry(config["geometry"], config["quadrature"])
    motion = scenarios.build_motion(config["motion"], step=1e-5)
    points = part.volume_points.T
    f = motion.gradient(points)
    # the closed form finds the node LAPACK finds
    assert list(np.flatnonzero(det(f) <= 0.0)) == [171]
    assert list(np.flatnonzero(np.linalg.det(np.einsum("ijn->nij", f)) <= 0.0)) == [171]
    with pytest.raises(NonPositiveJacobian, match=r"at x = \[0\. 0\. 0\.\]"):
        motion.deformation_gradient(points)
    motion.deformation_gradient(np.delete(points, 171, axis=1))


def _distinct_nonzero(point):
    return np.all(point != 0.0) and len(set(point.tolist())) == 3


def test_single_bad_node_off_the_axes_is_named():
    # the box centre c has k . c = 2 pi, so det F = 1 - cos(k . x) vanishes at
    # the centre node only, whose three coordinates differ: a point read from
    # the wrong axis of the (3, n) stack could not print them
    k = np.array([1.0, 0.37, 0.113])
    centre = 2.0 * np.pi / (k @ [1.0, 2.0, 3.0]) * np.array([1.0, 2.0, 3.0])
    part = scenarios.build_geometry({"kind": "box", "center": centre.tolist(),
                                     "halfwidths": [0.5, 0.5, 0.5]}, OVERFLOW["quadrature"])
    motion = scenarios.build_motion({"preset": "sinusoidal", "amplitude": 1.0,
                                     "wavevector": k.tolist(), "direction": [-1.0, 0.0, 0.0]},
                                    step=1e-5)
    assert list(np.flatnonzero(det(motion.gradient(part.volume_points.T)) <= 0.0)) == [171]
    assert _distinct_nonzero(part.volume_points[171])
    with pytest.raises(NonPositiveJacobian) as raised:
        motion.deformation_gradient(part.volume_points.T)
    assert str(raised.value).endswith(f"at x = {part.volume_points[171]}")


def test_first_overflowing_node_is_named():
    # v = 1e308 x_1 e_1 overflows where x_1 > 1.79...; the first such node,
    # found one point at a time, is the one the error names
    config = copy.deepcopy(OVERFLOW)
    config["geometry"] = {"kind": "box", "center": [1.5, -0.4, 0.3],
                          "halfwidths": [0.5, 0.3, 0.2]}
    config["virtual_fields"]["v"] = {
        "preset": "linear", "matrix": [[1e308, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}
    part = scenarios.build_geometry(config["geometry"], config["quadrature"])
    v = scenarios.build_field(config["virtual_fields"]["v"])
    with np.errstate(over="ignore"):
        bad = next(x for x in part.volume_points if not np.isfinite(v(x)).all())
        assert _distinct_nonzero(bad)
        with pytest.raises(NonFiniteValue) as raised:
            Scenario(config)
    assert str(raised.value) == f"v is not finite at {bad}"


def test_closed_form_det_finds_the_band_lapack_finds():
    # det F = 1 - 1.2 cos(k . x) <= 0 on a band of nodes: the closed form and
    # LAPACK agree node by node on its sign, and the first such node is reported
    geometry = {"kind": "box", "center": [0.0, 0.0, 0.0], "halfwidths": [0.5, 0.5, 0.5]}
    part = scenarios.build_geometry(geometry, OVERFLOW["quadrature"])
    motion = scenarios.build_motion({"preset": "sinusoidal", "amplitude": 0.3,
                                     "wavevector": [4.0, 1.48, 0.452],
                                     "direction": [-1.0, 0.0, 0.0]}, step=1e-5)
    for points in (part.volume_points, part.surface.points):
        f = motion.gradient(points.T)
        bad = np.flatnonzero(det(f) <= 0.0)
        assert 0 < len(bad) < len(points)
        np.testing.assert_array_equal(
            bad, np.flatnonzero(np.linalg.det(np.einsum("ijn->nij", f)) <= 0.0))
        with pytest.raises(NonPositiveJacobian) as raised:
            motion.deformation_gradient(points.T)
        assert str(raised.value).endswith(f"at x = {points[bad[0]]}")


@pytest.mark.parametrize("name", ["closure_skewed_graded_stvk", "stvk_uniaxial",
                                  "closure_shear_neohookean_fd"])
def test_run_samples_the_pair_once_per_node_set(name, monkeypatch):
    # every identity of a run reads the node rows: each field of the pair is
    # sampled once per node set and differentiated once, on the volume set
    calls = []
    value, grad = fields.VirtualField.__call__, fields.VirtualField.grad

    def counted(method, kind):
        def call(self, x):
            calls.append((self, kind, x.shape[-1]))
            return method(self, x)
        return call

    monkeypatch.setattr(fields.VirtualField, "__call__", counted(value, "value"))
    monkeypatch.setattr(fields.VirtualField, "grad", counted(grad, "grad"))
    run = cli.ScenarioRun(load_bundled_config(name))
    run.run()
    part = run.scenario.part
    volume, surface = len(part.volume_points), len(part.surface.points)
    for field in (run.scenario.v, run.scenario.w):
        assert sorted((kind, n) for owner, kind, n in calls if owner is field) == [
            ("grad", volume), ("value", surface), ("value", volume)]
