import copy
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import relpower.functionals as fn
from conftest import (_loop_total, coefficient_norms, decompose, generate,
                      loop_decomposition, prediction_errors, sphere_surface, surface_run)
from relpower import cli, fields
from relpower import configurational as conf
from relpower.exceptions import PreconditionViolated
from relpower.geometry import weighted_fsum
from relpower.scenarios import Scenario, bundled_scenario_names, load_bundled_config


def make_config(**overrides) -> dict:
    config = {
        "name": "test_scenario",
        "geometry": {"kind": "box", "center": [0.0, 0.0, 0.0],
                     "halfwidths": [0.5, 0.5, 0.5]},
        "material": {"model": "stvk",
                     "lam": {"kind": "constant", "value": 1.0},
                     "mu": {"kind": "constant", "value": 1.0}},
        "motion": {"preset": "shear", "gamma": 0.3},
        "virtual_fields": {
            "v": {"preset": "sinusoidal", "amplitude": 0.6,
                  "wavevector": [1.2, -0.7, 0.4], "direction": [0.3, 0.8, -0.5]},
            "w": {"preset": "sinusoidal", "amplitude": 0.5,
                  "wavevector": [0.9, 1.1, -0.3], "direction": [0.6, -0.4, 0.7]},
        },
        "sources": {"mode": "closure"},
        "quadrature": {"volume_order": 4, "surface_order": 4},
        "seed": 7,
    }
    config.update(copy.deepcopy(overrides))
    return config


def zero_w(rows):
    """The pair rows of (v, 0): v's rows, and zeros for w's."""
    return rows[:2] + tuple(np.zeros(row.shape) for row in rows[2:])


class TestRelativePower:
    def test_vanishes_when_v_is_pushforward_of_w(self):
        scenario = Scenario(make_config())
        vol, surf = scenario.volume_data, scenario.surface_data
        _, _, w, w_surf, curl_w = fn.pair_rows(scenario)   # component-major (3, n)
        rows = (np.einsum("ijn,jn->in", vol.f_grad, w),
                np.einsum("ijn,jn->in", surf.f_grad, w_surf), w, w_surf, curl_w)
        power = fn.relative_power(scenario, rows)
        assert power.actions == pytest.approx(0.0, abs=1e-15)

    def test_reduces_to_standard_power_when_w_zero(self):
        config = make_config(sources={
            "mode": "preset",
            "b": {"preset": "affine", "value": [0.3, -0.2, 0.1],
                  "matrix": [[0.2, 0.0, 0.1], [0.0, -0.15, 0.0], [0.05, 0.0, 0.25]],
                  "pivot": [0.0, 0.0, 0.0]},
        })
        scenario = Scenario(config)
        power = fn.relative_power(scenario, zero_w(fn.pair_rows(scenario)))
        assert power.disarrangement == pytest.approx(0.0, abs=1e-16)
        reference = fn.standard_external_power(scenario)
        assert power.total == pytest.approx(reference, rel=1e-12)

    def test_linear_in_the_rate_pair(self):
        scenario = Scenario(make_config())
        # the same part and state, with the constant pair (v2, w2)
        constant = Scenario(make_config(virtual_fields={
            "v": {"preset": "constant", "value": [0.2, -0.5, 0.3]},
            "w": {"preset": "constant", "value": [-0.1, 0.4, 0.2]}}))
        rows1, rows2 = fn.pair_rows(scenario), fn.pair_rows(constant)
        alpha, beta = 1.7, -0.6
        combined = tuple(alpha * r1 + beta * r2 for r1, r2 in zip(rows1, rows2))
        p_combined = fn.relative_power(scenario, combined).total
        p1 = fn.relative_power(scenario).total
        p2 = fn.relative_power(scenario, rows2).total
        assert p_combined == pytest.approx(alpha * p1 + beta * p2, rel=1e-12)

    def test_volume_terms_additive_over_split_box(self):
        # volume contributions add over disjoint parts; the surface terms of
        # the halves run over their own boundaries and are not compared here.
        # polynomial fields keep all quadratures exact, so the comparison
        # tests the bookkeeping rather than quadrature convergence; the
        # anisotropic model is the one allowed to carry a preset couple.
        # Each half is its own scenario, with the whole box's pivots.
        config = make_config(
            material={"model": "quadratic", "mu": {"kind": "constant", "value": 1.0}},
            virtual_fields={
                "v": {"preset": "affine", "value": [0.3, -0.1, 0.2],
                      "matrix": [[0.2, 0.1, 0.0], [0.0, -0.3, 0.1],
                                 [0.1, 0.0, 0.4]]},
                "w": {"preset": "affine", "value": [-0.2, 0.4, 0.1],
                      "matrix": [[0.1, -0.2, 0.0], [0.3, 0.0, 0.1],
                                 [0.0, 0.1, -0.2]]},
            },
            sources={
                "mode": "preset",
                "b": {"preset": "constant", "value": [0.2, -0.1, 0.3]},
                "f": {"preset": "constant", "value": [0.1, 0.2, -0.2]},
                "mu": {"preset": "constant", "value": [0.05, -0.1, 0.2]},
            })
        scenario = Scenario(config)
        whole = fn.relative_power(scenario)
        parts = []
        for center in (-0.25, 0.25):
            half = copy.deepcopy(config)
            half["geometry"] = {"kind": "box", "center": [center, 0.0, 0.0],
                                "halfwidths": [0.25, 0.5, 0.5]}
            half["pivots"] = {"x0": list(scenario.x0), "y0": list(scenario.y0)}
            parts.append(fn.relative_power(Scenario(half)))
        for field in ("actions_volume", "inhomogeneity", "couple"):
            total = getattr(whole, field)
            split = sum(getattr(p, field) for p in parts)
            assert split == pytest.approx(total, rel=1e-12, abs=1e-15)

    def test_power_identity_on_closure_scenario(self):
        scenario = Scenario(make_config(
            quadrature={"volume_order": 8, "surface_order": 8}))
        power = fn.relative_power(scenario)
        inner = fn.inner_relative_power(scenario)
        assert abs(power.total - inner) <= 1e-9 * (1.0 + abs(power.total))

    def test_power_identity_on_skewed_graded_closure(self):
        # the gate the run applies, at 1e-9: normalized by 1 + |P_rel|
        scenario = Scenario(load_bundled_config("closure_skewed_graded_stvk"))
        power = fn.relative_power(scenario)
        inner = fn.inner_relative_power(scenario)
        assert abs(power.total - inner) / (1.0 + abs(power.total)) <= 1e-9

    def test_quadrature_convergence(self):
        # refining from order 4 to 8 shrinks the identity gap by >= 100x
        base = make_config(motion={"preset": "sinusoidal", "amplitude": 0.08,
                                   "wavevector": [2.0, 0.0, 0.0],
                                   "direction": [0.25, 0.85, 0.45]})
        errors = {}
        for order in (4, 8):
            cfg = copy.deepcopy(base)
            cfg["quadrature"] = {"volume_order": order, "surface_order": order}
            scenario = Scenario(cfg)
            power = fn.relative_power(scenario)
            errors[order] = abs(power.total - fn.inner_relative_power(scenario))
        floor = 1e-13
        assert errors[8] <= floor or errors[4] / errors[8] >= 100.0


# the bundled scenarios, and two draws whose totals a summation that followed
# the row layout would move
LAYOUT_CONFIGS = ([load_bundled_config(name) for name in bundled_scenario_names()]
                  + [config for seed, i in ((3, 72), (41, 86))
                     for config in generate.random_small(seed)[i:i + 1]])


@pytest.mark.parametrize("config", LAYOUT_CONFIGS,
                         ids=[config["name"] for config in LAYOUT_CONFIGS])
def test_literal_power_does_not_depend_on_row_layout(config):
    # equal row values give equal totals, whatever the memory layout of the
    # component-major rows (3, n): F-ordered, or strided along the nodes
    scenario = Scenario(config)
    rows = fn.pair_rows(scenario)
    total = fn.relative_power(scenario, rows).total
    for layout in (np.asfortranarray, lambda row: np.repeat(row, 2, axis=-1)[..., ::2]):
        assert fn.relative_power(scenario, tuple(map(layout, rows))).total == total
    zeros, zeros_like = (
        fn.relative_power(scenario, rows[:2] + tuple(map(make, rows[2:]))).total
        for make in (lambda row: np.zeros(row.shape), np.zeros_like))
    assert zeros_like == zeros


class TestIntegralBalances:
    def test_homogeneous_closure_residuals_vanish(self):
        scenario = Scenario(make_config(
            motion={"preset": "homogeneous",
                    "matrix": [[1.2, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}))
        residuals = fn.integral_balance_residuals(scenario)
        for vec in residuals:
            assert np.linalg.norm(vec) <= 1e-12

    def test_uniform_driving_force_offsets_third_balance(self):
        # preset uniform f on an otherwise balanced state: residual = -|b| f
        f0 = [0.12, 0.4, -0.3]
        scenario = Scenario(make_config(sources={
            "mode": "preset",
            "f": {"preset": "constant", "value": f0},
        }))
        residuals = fn.integral_balance_residuals(scenario)
        expected = -np.asarray(f0)   # the box has unit volume
        np.testing.assert_allclose(residuals.configurational_force, expected,
                                   atol=1e-13)

    def test_ambient_pivot_shift_identity(self):
        # R2(y0') = R2(y0) + (y0 - y0') x R1: nonzero force residuals make
        # the torque residual pivot dependent in exactly this way
        scenario = Scenario(make_config(sources={
            "mode": "preset",
            "b": {"preset": "constant", "value": [0.3, -0.2, 0.1]},
            "f": {"preset": "constant", "value": [0.1, 0.0, -0.2]},
        }))
        base = fn.integral_balance_residuals(scenario)
        assert np.linalg.norm(base.force) > 0.1
        shift = np.array([0.2, -0.3, 0.1])
        shifted = fn.integral_balance_residuals(scenario, y0=scenario.y0 + shift)
        np.testing.assert_allclose(
            shifted.torque, base.torque + np.cross(-shift, base.force), atol=1e-13)

    @pytest.mark.parametrize("name", bundled_scenario_names())
    def test_material_pivot_shift_identity(self, name):
        # a torque residual moves with its pivot by the moment of its force
        # residual: R2(y0 + d) = R2(y0) - d x R1 and R4(x0 + d) = R4(x0) - d x R3,
        # because R4 takes the moment of every volume row of R3, as R2 does of R1's
        scenario = Scenario(load_bundled_config(name))
        base = fn.integral_balance_residuals(scenario)
        shift = 0.25 * scenario.part.scale * np.ones(3)   # the balances rerun's shift
        shifted = fn.integral_balance_residuals(scenario, x0=scenario.x0 + shift,
                                                y0=scenario.y0 + shift)
        np.testing.assert_allclose(
            shifted.torque, base.torque - np.cross(shift, base.force), rtol=0, atol=1e-15)
        np.testing.assert_allclose(
            shifted.configurational_torque,
            base.configurational_torque - np.cross(shift, base.configurational_force),
            rtol=0, atol=1e-15)


def _shared(config):
    """P_rel, P_inn and R1..R4 of the config's part, as one flat vector."""
    power, inner, residuals = cli.shared_results(Scenario(config))
    return np.concatenate([[power.total, inner], np.ravel(residuals)])


def _octants(config, pivots=None):
    """The configs of the box's 8 half-size sub-boxes, each with ``pivots``
    when given, else pivoting off its own centre."""
    box = config["geometry"]
    half = 0.5 * np.asarray(box["halfwidths"])
    for signs in itertools.product((-1.0, 1.0), repeat=3):
        sub = copy.deepcopy(config)
        sub["geometry"] = dict(box, center=list(box["center"] + np.asarray(signs) * half),
                               halfwidths=list(half))
        if pivots is not None:
            sub["pivots"] = pivots
        yield sub


class TestPartitionAdditivity:
    """P_rel, P_inn and R1..R4 of a box are the sums of those of its 8 half-size
    sub-boxes, taken about the box's pivots: the first step from one part to
    every part."""

    @pytest.mark.parametrize("name,order", [("preset_nonequilibrium", None),
                                            ("closure_skewed_graded_stvk", 12)])
    def test_sub_boxes_about_the_parent_pivots_sum_to_the_parent(self, name, order):
        # inner faces cancel node by node; order 12 integrates the graded closure
        # to round-off (its own order 8 leaves 8.4e-13)
        config = load_bundled_config(name)
        if order is not None:
            config["quadrature"] = {"volume_order": order, "surface_order": order}
        parent = Scenario(config)
        pivots = {"x0": list(parent.x0), "y0": list(parent.y0)}
        gap = sum(map(_shared, _octants(config, pivots))) - _shared(config)
        assert np.max(np.abs(gap)) <= 1e-15

    def test_sub_boxes_about_their_own_centres_miss_the_torques(self):
        # R2 and R4 move with the pivot by the moment of R1 and R3, which are
        # nonzero on every sub-box of this unbalanced scenario
        config = load_bundled_config("preset_nonequilibrium")
        gap = sum(map(_shared, _octants(config))) - _shared(config)
        powers, residuals = np.abs(gap[:2]), np.linalg.norm(gap[2:].reshape(4, 3), axis=1)
        assert max(powers.max(), residuals[0], residuals[2]) <= 1e-15
        assert residuals[1] >= 1e-3 and residuals[3] >= 1e-3


class TestInvarianceDecomposition:
    def test_zero_change_zero_defect(self):
        scenario = Scenario(make_config())
        decomp = decompose(scenario)
        assert decomp.affine_residual <= 1e-12

    def test_closure_scenario_coefficients_vanish(self):
        scenario = Scenario(make_config(
            quadrature={"volume_order": 6, "surface_order": 6}))
        decomp = decompose(scenario)
        scale = fn.relative_power(scenario).scale
        for norm in coefficient_norms(decomp).values():
            assert norm <= 1e-10 * scale

    def test_coefficients_match_residual_predictions(self):
        config = load_bundled_config("preset_nonequilibrium")
        config["quadrature"] = {"volume_order": 5, "surface_order": 5}
        scenario = Scenario(config)
        decomp = decompose(scenario)
        residuals = fn.integral_balance_residuals(scenario)
        assert np.linalg.norm(residuals.force) > 0.1  # the match is not trivial
        scale = fn.relative_power(scenario).scale
        for err in prediction_errors(decomp, residuals).values():
            assert err <= 1e-12 * scale

    def test_rotation_coefficient_equals_residual_on_graded_closure(self):
        # the only bundled closure with a nonzero inhomogeneity moment: the
        # rotation coefficient is R4 itself at every order, and both fall with
        # the quadrature error of the divergence theorem
        norms = []
        for order in (6, 8, 10):
            config = load_bundled_config("closure_skewed_graded_stvk")
            config["quadrature"] = {"volume_order": order, "surface_order": order}
            scenario = Scenario(config)
            r4 = fn.integral_balance_residuals(scenario).configurational_torque
            rotation = decompose(scenario).coefficients["material_rotation"]
            np.testing.assert_allclose(rotation, r4, rtol=0, atol=1e-16)
            norms.append(float(np.linalg.norm(r4)))
        assert norms[0] <= 1e-8 and norms[1] <= 1e-11 and norms[2] <= 1e-15, norms

    def test_couple_witness(self):
        # a homogeneous motion of a homogeneous, not frame-indifferent body:
        # closure gives b = f = 0 and de/dx|expl = 0, so the couple mu =
        # axial(2 Skw PP) is the only source, and R4 and the rotation
        # coefficient vanish only if -mu cancels the boundary moment of PP n
        config = load_bundled_config("surface_independence_quadratic")
        config["motion"] = {"preset": "homogeneous",
                            "matrix": [[1.0, 0.3, 0.0], [0.0, 1.0, 0.1], [0.05, 0.0, 1.0]]}
        scenario = Scenario(config)
        vol = scenario.volume_data
        assert np.linalg.norm(weighted_fsum(vol.couple, vol.weights)) > 0.8
        r4 = fn.integral_balance_residuals(scenario).configurational_torque
        rotation = decompose(scenario).coefficients["material_rotation"]
        assert np.linalg.norm(r4) <= 1e-14
        assert np.linalg.norm(rotation) <= 1e-14


def _refined_skewed() -> dict:
    # order 12: 1,728 volume nodes, more than CHUNK_ROWS = 1024, so one
    # change per chunk
    config = load_bundled_config("closure_skewed_graded_stvk")
    config["quadrature"] = {"volume_order": 12, "surface_order": 12}
    return config


def _decomposition_arrays(decomp):
    return ([decomp.coefficients[s] for s in fn.GENERATOR_SLOTS]
            + [decomp.affine_residual])


class TestStackedObserverChanges:
    @pytest.mark.parametrize("name", bundled_scenario_names()
                             + ["closure_skewed_graded_stvk_order12"])
    def test_stack_equals_per_change_loop(self, name):
        config = (_refined_skewed() if name.endswith("_order12")
                  else load_bundled_config(name))
        scenario = Scenario(config)
        decomp = decompose(scenario)
        coefficients, affine_residual = loop_decomposition(scenario)
        # the zero change's one-fsum total is the base power the defects subtract
        zero = {slot: np.zeros(3) for slot in fn.GENERATOR_SLOTS}
        assert fn.relative_power(scenario).total == _loop_total(scenario, zero)
        for slot in fn.GENERATOR_SLOTS:
            assert list(decomp.coefficients[slot]) == list(coefficients[slot]), slot
        assert decomp.affine_residual == affine_residual

    @pytest.mark.parametrize("name", ["closure_sinusoidal_graded_stvk_fd",
                                      "preset_nonequilibrium",
                                      "closure_skewed_graded_stvk_order12"])
    def test_chunk_size_leaves_results_bit_identical(self, name, monkeypatch):
        # a chunk that moves only some fields reuses the zero change's rows of the rest
        def config():
            return (_refined_skewed() if name.endswith("_order12")
                    else load_bundled_config(name))

        reference = _decomposition_arrays(decompose(Scenario(config())))
        # one change per chunk, 1024 rows (one change per chunk at order 12),
        # and all 14 in one
        for rows in (1, 1024, 100_000):
            monkeypatch.setattr(fn, "CHUNK_ROWS", rows)
            got = _decomposition_arrays(decompose(Scenario(config())))
            for value, want in zip(got, reference):
                np.testing.assert_array_equal(value, want)

    def test_stacked_generators_equal_single_shifts(self, rng):
        scenario = Scenario(make_config())
        # (5, 4, 3): five changes, one generator per slot in each
        gens = np.stack([rng.uniform(-1.0, 1.0, size=(5, 3)) for _ in fn.GENERATOR_SLOTS],
                        axis=1)
        scenario.y0, scenario.x0 = rng.normal(size=3), rng.normal(size=3)
        material, couple, power_rows = fn._power_rows(scenario)

        def pieces(rows):
            v, v_surf, w, w_surf, curl_w = rows
            return power_rows(v, v_surf, material(w, w_surf), couple(curl_w))

        stacked = fn.pair_rows(scenario, gens)   # component-major (5, 3, n)
        rows = pieces(stacked)
        for k in range(5):
            single = fn.pair_rows(scenario, gens[k])
            assert len(stacked) == len(single) == 5
            for got, want in zip(stacked, single):
                assert got[k].shape == want.shape == (3, len(want[0]))
                np.testing.assert_array_equal(got[k], want)
            for got, want in zip(rows, pieces(single)):
                np.testing.assert_array_equal(got[k], want)

    def test_chunked_peak_memory_stays_near_one_evaluation(self):
        scenario = Scenario(_refined_skewed())
        assert len(scenario.volume_data.weights) > fn.CHUNK_ROWS
        base = fn.relative_power(scenario)

        def peak(call):
            call()  # lazy imports and first-use caches stay out of the peak
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak(lambda: fn.relative_power(scenario))
        whole = peak(lambda: fn.invariance_decomposition(scenario, base))
        assert whole <= 2 * one, f"{whole} bytes vs {one} for one evaluation"


def _surface_independence_cases():
    """Both bundled shells, the control at 14 points, and the
    surface-independence draws of the benchmark's random_small seeds 7 and 41."""
    cases = [load_bundled_config("surface_independence_quadratic"),
             load_bundled_config("surface_independence_graded_control")]
    control = copy.deepcopy(cases[1])
    control["name"] += "_14"
    control["quadrature"]["angular_points"] = 14
    draws = generate.random_small(7) + generate.random_small(41)
    return cases + [control] + [config for config in draws
                                if "surface_independence" in config["checks"]]


SURFACE_INDEPENDENCE_CASES = _surface_independence_cases()


class TestSurfaceIndependence:
    @pytest.mark.parametrize("config", SURFACE_INDEPENDENCE_CASES,
                             ids=[config["name"] for config in SURFACE_INDEPENDENCE_CASES])
    def test_fluxes_equal_the_sphere_oracle_bit_for_bit(self, config):
        # the oracle evaluates the state again on spheres built on their own;
        # the reports print each component with cli._fmt, so a signed zero counts
        run, rows = surface_run(config)
        scenario = run.scenario
        shell, rule = config["geometry"], config["quadrature"]["angular_points"]
        for label, radius in (("flux_inner", shell["inner_radius"]),
                              ("flux_outer", shell["outer_radius"])):
            sphere = sphere_surface(scenario.part.center, radius, rule)
            oracle = weighted_fsum(np.einsum(
                "ijn,jn->in", scenario.state(sphere.points.T).eshelby, sphere.normals.T),
                sphere.weights)
            assert [cli._fmt(c) for c in rows[label]] == [cli._fmt(c) for c in oracle]

    @pytest.mark.parametrize("config", SURFACE_INDEPENDENCE_CASES,
                             ids=[config["name"] for config in SURFACE_INDEPENDENCE_CASES])
    def test_flux_difference_is_r3_without_its_volume_integral(self, config):
        # outer - inner is the boundary part of R3, as balances.csv reports it:
        # R3 - int_b g dx, g = de/dx|expl - f - F^t b
        run, rows = surface_run(config)
        r3 = next(np.array(row[3:6]) for row in run.tables["balances"][1]
                  if row[1:3] == ["configurational_force", "default"])
        vol = run.scenario.volume_data
        g = (vol.material_gradient - vol.driving_force
             - np.einsum("kin,kn->in", vol.f_grad, vol.body_force))
        boundary = r3 - weighted_fsum(g, vol.weights)
        difference = rows["flux_outer"] - rows["flux_inner"]
        assert np.linalg.norm(difference - boundary) <= 1e-15 * max(
            np.linalg.norm(difference), np.finfo(float).tiny)

    def test_homogeneous_stretch_fluxes_vanish(self):
        _, rows = surface_run(make_config(
            geometry={"kind": "shell", "center": [0.0, 0.0, 0.0],
                      "inner_radius": 0.5, "outer_radius": 0.9},
            motion={"preset": "homogeneous",
                    "matrix": [[1.2, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
            quadrature={"radial_order": 6, "angular_points": 26},
            checks={"surface_independence": {"tolerance": 1e-12}}))
        inner, outer = rows["flux_inner"], rows["flux_outer"]
        assert np.linalg.norm(inner) <= 1e-12
        assert np.linalg.norm(outer) <= 1e-12
        assert np.linalg.norm(outer - inner) <= 1e-12

    def _shell_config(self, mu, expect="zero"):
        return make_config(
            geometry={"kind": "shell", "center": [0.0, 0.0, 0.0],
                      "inner_radius": 0.5, "outer_radius": 0.9},
            material={"model": "quadratic", "mu": mu},
            motion={"preset": "harmonic", "alpha": 0.1},
            virtual_fields={"v": {"preset": "constant", "value": [0.1, 0.0, 0.0]},
                            "w": {"preset": "constant", "value": [0.0, 0.1, 0.0]}},
            quadrature={"radial_order": 6, "angular_points": 26},
            checks={"surface_independence": {"expect": expect, "tolerance": 1e-6}})

    def test_quadratic_harmonic_surface_independent(self):
        _, rows = surface_run(self._shell_config({"kind": "constant", "value": 1.0}))
        inner, outer = rows["flux_inner"], rows["flux_outer"]
        scale = max(1.0, np.linalg.norm(inner), np.linalg.norm(outer))
        assert np.linalg.norm(outer - inner) <= 1e-6 * scale

    def test_graded_control_equals_shell_integral(self):
        config = self._shell_config({"kind": "affine", "value": 1.0, "slope": [0.0, 0.0, 0.4]},
                                    expect="material_gradient_integral")
        run, rows = surface_run(config)
        inner, outer = rows["flux_inner"], rows["flux_outer"]
        vol = run.scenario.volume_data
        expected = weighted_fsum(vol.material_gradient, vol.weights)
        # closed form: 4 alpha^2 beta (2/3) * 4 pi (0.9^5 - 0.5^5)/5 along e3
        exact = 4.0 * 0.1 ** 2 * 0.4 * (2.0 / 3.0) * 4.0 * math.pi \
            * (0.9 ** 5 - 0.5 ** 5) / 5.0
        np.testing.assert_allclose(expected, [0.0, 0.0, exact], atol=1e-12)
        assert np.linalg.norm(outer - inner - expected) <= 1e-5 * np.linalg.norm(expected)

    @pytest.mark.parametrize("section, edit, failing", [
        ("material", {"mu": {"kind": "affine", "value": 1.0, "slope": [0.0, 0.0, 0.4]}},
         "surface_independence:difference_vs_flux_scale"),
        ("sources", {"mode": "preset", "b": {"preset": "constant", "value": [0.0, 0.0, 0.01]}},
         "balances:max_residual_norm"),
    ], ids=["graded_mu", "preset_body_force"])
    def test_broken_hypotheses_reach_a_verdict(self, section, edit, failing):
        # a graded modulus or a body force breaks the check's hypotheses: the run
        # still ends in a verdict, and only the gate of the broken law fails
        config = load_bundled_config("surface_independence_quadratic")
        config[section].update(edit)
        run = cli.ScenarioRun(config)
        run.run()
        assert [f"{gate.check}:{gate.metric}" for gate in run.gates
                if not gate.passed] == [failing]


class TestNoetherChecks:
    def test_equilibrium_report(self):
        scenario = Scenario(load_bundled_config("noether_harmonic"))
        report = fn.noether_point_checks(scenario)
        assert report.max_first_condition <= 1e-10
        assert report.max_second_condition <= 1e-10
        assert report.boundary_flux_gap <= 1e-6

    def test_graded_second_condition(self):
        scenario = Scenario(load_bundled_config("noether_graded"))
        report = fn.noether_point_checks(scenario)
        assert report.max_second_condition > 1e-4  # genuinely nonzero
        assert report.max_second_condition_mismatch <= 1e-8
        # the flux through the boundary carries the nonzero second condition
        assert report.boundary_flux_gap <= 1e-12

    def test_missing_potential_rejected(self):
        scenario = Scenario(make_config())
        with pytest.raises(PreconditionViolated):
            fn.noether_point_checks(scenario)

    def test_non_isochoric_w_rejected(self):
        config = load_bundled_config("noether_harmonic")
        config["virtual_fields"]["w"] = {
            "preset": "linear",
            "matrix": [[0.3, 0.0, 0.0], [0.0, 0.2, 0.0], [0.0, 0.0, 0.1]]}
        scenario = Scenario(config)
        with pytest.raises(PreconditionViolated):
            fn.noether_point_checks(scenario)

    @pytest.mark.parametrize("name", ["noether_harmonic", "noether_graded"])
    def test_flux_balance_holds_for_varying_fields(self, name):
        # affine v and rigid, so isochoric, w: the first condition is far from
        # 0, and the flux through the boundary still carries both conditions
        config = load_bundled_config(name)
        config["virtual_fields"] = {
            "v": {"preset": "affine", "value": [0.3, -0.2, 0.5],
                  "matrix": [[0.1, 0.2, 0.0], [0.0, -0.1, 0.3], [0.2, 0.0, 0.05]]},
            "w": {"preset": "rigid", "translation": [0.4, 0.1, -0.3],
                  "rotation": [0.2, -0.1, 0.3], "pivot": [0.1, 0.0, 0.0]}}
        report = fn.noether_point_checks(Scenario(config))
        assert report.max_first_condition > 1e-2
        assert report.boundary_flux_gap <= 1e-15

    @pytest.mark.parametrize("name", ["noether_harmonic", "noether_graded"])
    def test_reads_only_node_data(self, name, monkeypatch):
        # after the build the check evaluates no state, virtual field or motion
        scenario = Scenario(load_bundled_config(name))
        report = fn.noether_point_checks(scenario)

        def evaluated(*args, **kwargs):
            raise AssertionError("evaluated after the build")

        monkeypatch.setattr(conf, "point_state", evaluated)
        monkeypatch.setattr(conf, "stress_divergences", evaluated)
        monkeypatch.setattr(fields.VirtualField, "__call__", evaluated)
        monkeypatch.setattr(fields.VirtualField, "grad", evaluated)
        monkeypatch.setattr(fields.Motion, "deformation_gradient", evaluated)
        scenario.motion = fields.Motion(evaluated, evaluated, evaluated)
        assert fn.noether_point_checks(scenario) == report

    def test_non_isochoric_w_rejected_at_every_point(self):
        # div w vanishes at every volume node but the 10th
        scenario = Scenario(load_bundled_config("noether_harmonic"))
        grad_w = scenario.volume_data.grad_w.copy()
        grad_w[..., 9] = 0.1 * np.eye(3)
        scenario.volume_data.grad_w = grad_w
        with pytest.raises(PreconditionViolated, match="div w = 0.3"):
            fn.noether_point_checks(scenario)
