import copy
import gc
import json
import weakref

import numpy as np
import pytest

from conftest import (configurational_force_residual, standard_force_residual,
                      torque_residuals)
from relpower.exceptions import ConfigInvalid
from relpower.geometry import box_part
from relpower.scenarios import (Scenario, bundled_scenario_names, config_digest,
                                load_bundled_config, load_config_file,
                                validate_config)


def minimal_config(**overrides):
    config = {
        "name": "minimal",
        "geometry": {"kind": "box", "center": [0.0, 0.0, 0.0],
                     "halfwidths": [0.5, 0.5, 0.5]},
        "material": {"model": "stvk",
                     "lam": {"kind": "constant", "value": 1.0},
                     "mu": {"kind": "constant", "value": 1.0}},
        "motion": {"preset": "shear", "gamma": 0.2},
        "virtual_fields": {"v": {"preset": "constant", "value": [0.1, 0.0, 0.0]},
                           "w": {"preset": "constant", "value": [0.0, 0.1, 0.0]}},
        "sources": {"mode": "closure"},
        "quadrature": {"volume_order": 2, "surface_order": 2},
    }
    config.update(overrides)
    return config


class TestValidation:
    def test_minimal_config_accepted(self):
        validate_config(minimal_config())

    def test_unknown_key_rejected(self):
        config = minimal_config()
        config["surprise"] = True
        with pytest.raises(ConfigInvalid):
            validate_config(config)

    def test_missing_required_section_rejected(self):
        config = minimal_config()
        del config["motion"]
        with pytest.raises(ConfigInvalid):
            validate_config(config)

    def test_bad_shell_radii_rejected(self):
        config = minimal_config(geometry={"kind": "shell",
                                          "center": [0.0, 0.0, 0.0],
                                          "inner_radius": 0.9,
                                          "outer_radius": 0.5})
        with pytest.raises(ConfigInvalid):
            Scenario(config)

    def test_inverted_motion_rejected_at_build(self):
        config = minimal_config(motion={
            "preset": "homogeneous",
            "matrix": [[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]})
        with pytest.raises(ConfigInvalid, match="NonPositiveJacobian"):
            Scenario(config)

    def test_preset_couple_rejected_for_isotropic_material(self):
        config = minimal_config(sources={
            "mode": "preset",
            "mu": {"preset": "constant", "value": [0.1, 0.0, 0.0]}})
        with pytest.raises(ConfigInvalid, match="isotropic"):
            Scenario(config)

    def test_preset_couple_allowed_for_anisotropic_material(self):
        config = minimal_config(
            material={"model": "quadratic", "mu": {"kind": "constant", "value": 1.0}},
            sources={"mode": "preset",
                     "mu": {"preset": "constant", "value": [0.1, 0.0, 0.0]}})
        Scenario(config)

    def test_config_file_with_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigInvalid):
            load_config_file(str(path))

    def test_config_file_with_non_object_root(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ConfigInvalid):
            load_config_file(str(path))


class TestScenarioBehavior:
    def test_default_pivots_are_geometry_centers(self):
        config = minimal_config(geometry={"kind": "box",
                                          "center": [0.2, -0.1, 0.3],
                                          "halfwidths": [0.4, 0.4, 0.4]})
        scenario = Scenario(config)
        np.testing.assert_allclose(scenario.x0, [0.2, -0.1, 0.3])
        np.testing.assert_allclose(scenario.y0,
                                   scenario.motion.y([0.2, -0.1, 0.3]))

    def test_explicit_pivots_override(self):
        config = minimal_config(pivots={"x0": [0.1, 0.1, 0.1],
                                        "y0": [0.0, 0.2, 0.0]})
        scenario = Scenario(config)
        np.testing.assert_allclose(scenario.x0, [0.1, 0.1, 0.1])
        np.testing.assert_allclose(scenario.y0, [0.0, 0.2, 0.0])

    def test_pointwise_residuals_vanish_under_closure(self):
        s = Scenario(minimal_config())
        x = np.array([0.1, -0.2, 0.3])
        b, f, mu = s.sources(x)
        np.testing.assert_allclose(
            standard_force_residual(s.model, s.motion, b, x, s.divergence_step),
            np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(
            configurational_force_residual(s.model, s.motion, b, f, x,
                                           s.divergence_step),
            np.zeros(3), atol=1e-12)
        first, second = torque_residuals(s.model, s.motion, mu, x)
        np.testing.assert_allclose(first, np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(second, np.zeros(3), atol=1e-12)

    def test_fd_mode_drops_analytic_derivatives(self):
        config = load_bundled_config("closure_sinusoidal_graded_stvk")
        config["quadrature"] = {"volume_order": 3, "surface_order": 3}
        fd_config = copy.deepcopy(config)
        fd_config["derivatives"] = {"mode": "fd"}
        analytic, fd = Scenario(config), Scenario(fd_config)
        assert analytic.motion.gradient is not None
        assert analytic.motion.second_gradient is not None
        assert analytic.pair.v.gradient is not None
        assert analytic.pair.w.gradient is not None
        assert fd.motion.gradient is None and fd.motion.second_gradient is None
        assert fd.pair.v.gradient is None and fd.pair.w.gradient is None
        a, b = analytic.volume_data(), fd.volume_data()
        for name in ("f_grad", "stress", "eshelby"):
            np.testing.assert_allclose(getattr(b, name), getattr(a, name), atol=1e-9)
        for name in ("body_force", "driving_force", "couple"):
            np.testing.assert_allclose(getattr(b, name), getattr(a, name), atol=1e-6)

    def test_node_cache_keeps_its_parts_alive(self):
        # the cache is keyed by id(part); a collected part could hand its id,
        # and so its cached node data, to a new part
        scenario = Scenario(minimal_config())
        part = box_part([0.1, 0.0, 0.0], [0.3, 0.3, 0.3], order=2)
        ref = weakref.ref(part)
        scenario.volume_data(part)
        scenario.surface_data(part)
        del part
        gc.collect()
        assert ref() is not None

    def test_seed_defaults_to_config_digest(self):
        config = minimal_config()
        a = Scenario(config)
        b = Scenario(config)
        assert a.seed == b.seed
        explicit = Scenario(minimal_config(seed=99))
        assert explicit.seed == 99

    def test_digest_is_stable_under_key_order(self):
        config = minimal_config()
        reordered = json.loads(json.dumps(config, sort_keys=True))
        assert config_digest(config) == config_digest(reordered)


def test_bundled_scenarios_all_load_and_validate():
    names = bundled_scenario_names()
    assert "stvk_uniaxial" in names
    assert len(names) == 12
    for name in names:
        config = load_bundled_config(name)
        validate_config(config)
        assert config["name"] == name


def test_unknown_bundled_scenario():
    with pytest.raises(ConfigInvalid):
        load_bundled_config("does_not_exist")
