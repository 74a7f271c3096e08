"""Tests for the phase reconstruction pipeline."""

import numpy as np
import pytest

from loschmidt.config import ExperimentConfig
from loschmidt.exceptions import NumericsError
from loschmidt.model import (
    exact_amplitude,
    oracle_phase_series,
    tfim,
)
from loschmidt.reconstruct import (
    _P_FLOOR,
    correct_phase_jumps,
    detect_zeros,
    finite_difference_log,
    integrate_phase,
    reconstruct_trace,
    run_phase_experiment,
)
from loschmidt.statevector import product_state


def synthetic_zero_trace(h=0.02, tau=0.05, zero_correction=True, threshold=1e-3):
    """Trace built from G(t) = (t - 1) exp(-it): a simple zero at t = 1."""
    t = np.arange(0, 2.0 + 1e-12, tau)
    r = np.abs(t - 1.0)
    r_plus = np.abs(t + 1j * h - 1.0) * np.exp(+h)
    r_minus = np.abs(t - 1j * h - 1.0) * np.exp(-h)
    trace = reconstruct_trace(
        t, r, r_plus**2, r_minus**2, 0.0, 0.0, h,
        anchor=np.pi, zero_correction=zero_correction, threshold=threshold,
    )
    g_true = (t - 1.0) * np.exp(-1j * t)
    return trace, g_true


class TestFiniteDifferenceLog:
    def test_symmetric_inputs(self):
        assert finite_difference_log(0.7, 0.7, 0.1) == 0.0

    def test_single_mode_exact(self):
        # G(z) = e^{-iEz} with E = 1: r(t -+ ih) = e^{-+h}, estimate -1 exactly
        h = 0.1
        est = finite_difference_log(np.exp(-h), np.exp(h), h)
        assert abs(est - (-1.0)) < 1e-14

    def test_oracle_h_squared_bias(self):
        spec = tfim(4, 1.0, 0.5)
        psi = product_state(["up"] * 4)
        t0 = 0.5
        energies_true = None
        errs, steps = [], [0.1, 0.05, 0.025]
        # analytic d(phi)/dt from the eigendecomposition
        gp = exact_amplitude(spec, psi, psi, t0)
        eps = 1e-6
        dphi_true = np.angle(
            exact_amplitude(spec, psi, psi, t0 + eps) / exact_amplitude(spec, psi, psi, t0 - eps)
        ) / (2 * eps)
        for h in steps:
            r_minus = abs(exact_amplitude(spec, psi, psi, t0 - 1j * h))
            r_plus = abs(exact_amplitude(spec, psi, psi, t0 + 1j * h))
            errs.append(abs(finite_difference_log(r_minus, r_plus, h) - dphi_true))
        slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
        assert abs(slope - 2.0) < 0.2

    def test_zero_region_error(self):
        with pytest.raises(NumericsError, match="zero-region"):
            finite_difference_log(0.0, 0.5, 0.1)


class TestIntegratePhase:
    def test_constant_derivative(self):
        d = np.full(11, 0.7)
        for rule in ("simpson", "trapezoid"):
            phi = integrate_phase(d, 0.1, rule, anchor=0.3)
            assert np.allclose(phi, 0.3 + 0.7 * np.arange(11) * 0.1, atol=1e-14)

    def test_simpson_exact_on_quadratic(self):
        # integrand d/dt(t^2) = 2t; Simpson integrates it exactly, and the
        # trapezoid closure on odd prefixes is exact for linear integrands
        t = np.arange(21) * 0.1
        phi = integrate_phase(2 * t, 0.1, "simpson", anchor=0.0)
        assert np.max(np.abs(phi - t**2)) < 1e-12

    def test_simpson_beats_trapezoid_order(self):
        spec = tfim(4, 1.0, 0.5)
        psi = product_state(["up"] * 4)
        gaps = []
        taus = [0.1, 0.05, 0.025]
        for tau in taus:
            t = np.arange(0, 2.0 + 1e-12, tau)
            eps = 1e-6
            d = np.array([
                np.angle(
                    exact_amplitude(spec, psi, psi, tk + eps)
                    / exact_amplitude(spec, psi, psi, tk - eps)
                ) / (2 * eps)
                for tk in t
            ])
            simpson = integrate_phase(d, tau, "simpson")[-1]
            trapezoid = integrate_phase(d, tau, "trapezoid")[-1]
            gaps.append(abs(simpson - trapezoid))
        slope = np.polyfit(np.log(taus), np.log(gaps), 1)[0]
        assert abs(slope - 2.0) < 0.3

    def test_anchor_is_exact(self):
        phi = integrate_phase([1.0, 2.0, 3.0], 0.1, "simpson", anchor=-2.5)
        assert phi[0] == -2.5

    @pytest.mark.parametrize("k", range(2, 10))
    def test_simpson_equals_reference_loop(self, k):
        # the vectorized rule reproduces the point-by-point recurrence exactly
        d = np.random.default_rng(k).normal(size=k)
        tau, anchor = 0.037, 0.41
        ref = np.empty(k)
        ref[0] = anchor
        for j in range(1, k):
            if j % 2 == 0:
                ref[j] = ref[j - 2] + tau / 3.0 * (d[j - 2] + 4.0 * d[j - 1] + d[j])
            else:
                ref[j] = ref[j - 1] + tau / 2.0 * (d[j - 1] + d[j])
        assert np.array_equal(integrate_phase(d, tau, "simpson", anchor), ref)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            integrate_phase([1.0], 0.1)


class TestDetectZeros:
    def _trace(self, r, shots=None):
        n = len(r)
        t = np.arange(n) * 0.1
        ones = np.ones(n)
        return reconstruct_trace(t, np.asarray(r, float), ones, ones, 0.0, 0.0,
                                 0.1, zero_correction=False, shots=shots)

    def test_flat_magnitude(self):
        assert detect_zeros(self._trace(np.ones(10)), 1e-3) == []

    def test_single_dip(self):
        r = np.ones(11)
        r[5] = 1e-6
        assert detect_zeros(self._trace(r), 1e-3) == [5]

    def test_run_collapses_to_minimum(self):
        r = np.ones(12)
        r[4:8] = [0.04, 0.01, 0.02, 0.03]
        assert detect_zeros(self._trace(r), 0.05) == [5]

    def test_default_threshold_uses_shots(self):
        r = np.ones(11)
        r[5] = 0.05  # below 10/sqrt(400) = 0.5? no: threshold = max(1e-3, 0.5)
        trace = self._trace(r, shots=400)
        assert detect_zeros(trace) == [5]
        # without shots the default 1e-3 misses it
        assert detect_zeros(self._trace(r)) == []

    @staticmethod
    def _reference_scan(r, threshold):
        """The per-point scan for below-threshold runs, kept as the reference."""
        below = r < threshold
        crossings = []
        k = 0
        while k < len(r):
            if below[k]:
                end = k
                while end + 1 < len(r) and below[end + 1]:
                    end += 1
                run = np.arange(k, end + 1)
                dip = int(run[np.argmin(r[run])])
                if 0 < dip < len(r) - 1 and r[dip] <= r[dip - 1] and r[dip] <= r[dip + 1]:
                    crossings.append(dip)
                k = end + 1
            else:
                k += 1
        return crossings

    @pytest.mark.parametrize("r", [
        [0.5], [2.0], [0.5, 0.5], [0.5, 2.0], [2.0, 0.5], [2.0, 2.0],
        [0.3, 0.2, 0.1, 0.4, 0.9, 0.8], [2.0, 3.0, 2.5, 4.0],
        [0.1, 0.2, 2.0, 0.3, 0.2, 2.0, 0.4, 0.1], [2.0, 0.5, 0.5, 2.0, 0.7, 0.6],
    ])
    def test_equals_reference_scan_on_edge_cases(self, r):
        r = np.asarray(r)
        assert detect_zeros(self._trace(r), 1.0) == self._reference_scan(r, 1.0)

    @pytest.mark.parametrize("seed", range(30))
    def test_equals_reference_scan_on_random_series(self, seed):
        rng = np.random.default_rng(seed)
        # coarse levels make ties, so the first-minimum and <= rules are hit
        r = rng.integers(0, 6, size=int(rng.integers(1, 40))) / 5.0
        threshold = float(rng.choice([0.1, 0.3, 0.5, 0.9, 1.1]))
        assert detect_zeros(self._trace(r), threshold) == self._reference_scan(r, threshold)

    def test_critical_quench_has_crossings(self):
        n = 10
        spec = tfim(n, 1.0, 1.0)
        psi = product_state(["up"] * n)
        cfg = ExperimentConfig(spec=spec, psi=psi, tau=0.2, h=0.01, t_max=10.0,
                               backend="statevector_trotter", zero_correction=False)
        trace = run_phase_experiment(cfg)
        assert detect_zeros(trace, 0.05) != []


class TestCorrectPhaseJumps:
    def test_no_crossings_is_identity(self):
        trace, _ = synthetic_zero_trace(zero_correction=False)
        out = correct_phase_jumps(trace, [])
        assert out is trace

    def test_synthetic_simple_zero(self):
        trace, g_true = synthetic_zero_trace()
        t = trace.times
        assert trace.crossings == [20]
        # pi jump recovered
        assert abs(abs(trace.correction_phases[0]) - np.pi) < 1e-6
        mask = np.abs(t - 1.0) > 0.075
        phase_err = np.abs(np.angle(trace.g_complex[mask] / g_true[mask]))
        assert phase_err.max() < 0.05

    def test_raw_pipeline_has_pi_artifact(self):
        trace, g_true = synthetic_zero_trace(zero_correction=False)
        post = trace.times > 1.05
        phase_err = np.abs(np.angle(trace.g_complex[post] / g_true[post]))
        assert np.min(phase_err) > 3.0  # stuck a full pi off

    def test_critical_quench_correction_improves_everywhere_after(self):
        n = 10
        spec = tfim(n, 1.0, 1.0)
        psi = product_state(["up"] * n)
        common = dict(spec=spec, psi=psi, tau=0.2, h=0.01, t_max=10.0,
                      backend="statevector_trotter")
        raw = run_phase_experiment(ExperimentConfig(zero_correction=False, **common))
        fixed = run_phase_experiment(
            ExperimentConfig(zero_correction=True, threshold=0.05, **common)
        )
        assert fixed.crossings
        r_or, phi_or = oracle_phase_series(spec, psi, psi, raw.times)
        g_or = r_or * np.exp(1j * phi_or)
        after = slice(fixed.crossings[0] + 1, None)
        err_raw = np.abs(raw.g_complex - g_or)[after]
        err_fix = np.abs(fixed.g_complex - g_or)[after]
        assert np.all(err_fix < err_raw)

    def test_boundary_crossing_skipped_with_warning(self):
        trace, _ = synthetic_zero_trace(zero_correction=False)
        with pytest.warns(UserWarning, match="boundary"):
            out = correct_phase_jumps(trace, [0])
        assert np.allclose(out.phi, trace.phi)


class TestReconstructTrace:
    def test_phase_ignores_magnitude_channel(self):
        # scaling r leaves the phase untouched: the channels are independent
        t = np.arange(11) * 0.1
        p_plus = np.linspace(0.9, 0.5, 11)
        p_minus = np.linspace(0.8, 0.6, 11)
        a = reconstruct_trace(t, np.ones(11), p_plus, p_minus, 0.1, -0.1, 0.05)
        b = reconstruct_trace(t, 0.37 * np.ones(11), p_plus, p_minus, 0.1, -0.1, 0.05)
        assert np.array_equal(a.phi, b.phi)
        assert np.array_equal(a.dphi_dt, b.dphi_dt)

    def test_magnitude_equals_r_channel(self):
        trace, _ = synthetic_zero_trace()
        np.testing.assert_allclose(np.abs(trace.g_complex), trace.r, rtol=5e-16, atol=0)

    def test_i_factor_unit_probabilities(self):
        t = np.arange(6) * 0.2
        ones = np.ones(6)
        trace = reconstruct_trace(t, ones, ones, ones, 0.0, 0.0, 0.1)
        assert np.allclose(trace.i_factor, 2.0)

    def test_zero_probability_without_correction_names_time(self):
        t = np.arange(3) * 0.1
        p = np.array([1.0, 0.0, 1.0])
        with pytest.raises(NumericsError, match="t = 0.1"):
            reconstruct_trace(t, np.ones(3), p, np.ones(3), 0.0, 0.0, 0.05,
                              zero_correction=False)

    def test_floored_points_recorded(self):
        t = np.arange(5) * 0.1
        p_plus = np.array([1.0, 0.9, 0.0, 0.8, 0.7])
        trace = reconstruct_trace(t, np.ones(5), p_plus, np.ones(5), 0.0, 0.0, 0.05)
        assert trace.floored == [2]
        assert trace.p_plus[2] == _P_FLOOR
        clean = reconstruct_trace(t, np.ones(5), np.ones(5), np.ones(5), 0.0, 0.0, 0.05)
        assert clean.floored == []

    def test_nonuniform_grid_rejected(self):
        t = np.array([0.0, 0.1, 0.3])
        ones = np.ones(3)
        with pytest.raises(ValueError, match="uniform"):
            reconstruct_trace(t, ones, ones, ones, 0.0, 0.0, 0.05)


class TestRunPhaseExperiment:
    def test_t_max_zero_single_point(self):
        spec = tfim(3, 1.0, 0.5)
        psi = product_state(["up"] * 3)
        cfg = ExperimentConfig(spec=spec, psi=psi, tau=0.1, h=0.05, t_max=0.0)
        trace = run_phase_experiment(cfg)
        assert len(trace) == 1
        assert trace.phi[0] == 0.0
        assert abs(trace.g_complex[0] - 1.0) < 1e-12

    def test_initial_phase_slope_is_minus_energy(self):
        # phi'(0) = -<H> = +J(N-1)/4 for the all-up state, up to O(h^2)
        n = 5
        spec = tfim(n, 1.0, 0.5)
        psi = product_state(["up"] * n)
        cfg = ExperimentConfig(spec=spec, psi=psi, tau=0.01, h=0.01, t_max=0.1,
                               backend="exact_oracle")
        trace = run_phase_experiment(cfg)
        assert abs(trace.dphi_dt[0] - (n - 1) / 4) < 1e-3

    def test_end_to_end_oracle_bound_short(self):
        n = 6
        spec = tfim(n, 1.0, 0.5)
        psi = product_state(["up"] * n)
        cfg = ExperimentConfig(spec=spec, psi=psi, tau=0.01, h=0.01, t_max=2.0,
                               backend="statevector_trotter")
        trace = run_phase_experiment(cfg)
        r_or, phi_or = oracle_phase_series(spec, psi, psi, trace.times)
        g_or = r_or * np.exp(1j * phi_or)
        assert np.max(np.abs(trace.g_complex - g_or)) <= 5e-3

    def test_oracle_and_trotter_backends_agree(self):
        n = 4
        spec = tfim(n, 1.0, 0.5)
        psi = product_state(["up"] * n)
        kwargs = dict(spec=spec, psi=psi, tau=0.005, h=0.02, t_max=1.0)
        a = run_phase_experiment(ExperimentConfig(backend="exact_oracle", **kwargs))
        b = run_phase_experiment(ExperimentConfig(backend="statevector_trotter", **kwargs))
        assert np.max(np.abs(a.g_complex - b.g_complex)) < 1e-3

    def test_anchor_shift_is_global_phase(self):
        n = 4
        spec = tfim(n, 1.0, 0.5)
        psi = product_state(["up"] * n)
        kwargs = dict(spec=spec, psi=psi, tau=0.05, h=0.05, t_max=1.0)
        base = run_phase_experiment(ExperimentConfig(**kwargs))
        shifted = run_phase_experiment(ExperimentConfig(anchor=0.7, **kwargs))
        assert np.allclose(shifted.phi - base.phi, 0.7, atol=1e-12)
        assert np.allclose(
            shifted.g_complex, base.g_complex * np.exp(1j * 0.7), atol=1e-12
        )

    def test_distinct_final_state_anchor(self):
        spec = tfim(3, 1.0, 0.5)
        psi = product_state(["up", "up", "up"])
        phi_final = product_state(["x+", "up", "up"])
        cfg = ExperimentConfig(spec=spec, psi=psi, psi_final=phi_final,
                               tau=0.05, h=0.02, t_max=0.5, backend="exact_oracle")
        trace = run_phase_experiment(cfg)
        assert abs(trace.phi[0] - 0.0) < 1e-12  # <x+|up> real positive
        r_or, phi_or = oracle_phase_series(spec, phi_final, psi, trace.times)
        assert np.max(np.abs(trace.phi - phi_or)) < 5e-3

    def test_shot_sampling_reproducible(self):
        spec = tfim(4, 1.0, 0.5)
        psi = product_state(["up"] * 4)
        kwargs = dict(spec=spec, psi=psi, tau=0.05, h=0.05, t_max=1.0,
                      shots=500, seed=42)
        a = run_phase_experiment(ExperimentConfig(**kwargs))
        b = run_phase_experiment(ExperimentConfig(**kwargs))
        assert np.array_equal(a.p_plus, b.p_plus)
        assert np.array_equal(a.phi, b.phi)

    def test_shots_follow_stream_version_2(self):
        # one generator per family, one binomial draw per grid point in order
        from loschmidt.noise import sample_shots

        kwargs = dict(spec=tfim(4, 1.0, 0.5), psi=product_state(["up"] * 4),
                      tau=0.05, h=0.05, t_max=0.5)
        exact = run_phase_experiment(ExperimentConfig(**kwargs))
        sampled = run_phase_experiment(ExperimentConfig(shots=500, seed=42, **kwargs))
        for family, name in ((1, "p_plus"), (2, "p_minus")):
            rng = np.random.default_rng(np.random.SeedSequence(42, spawn_key=(family,)))
            expected = sample_shots(getattr(exact, name), 500, rng)
            assert getattr(sampled, name).tobytes() == expected.tobytes()
        rng = np.random.default_rng(np.random.SeedSequence(42, spawn_key=(0,)))
        expected_r = np.sqrt(sample_shots(np.clip(exact.r**2, 0.0, 1.0), 500, rng))
        assert sampled.r.tobytes() == expected_r.tobytes()

    @pytest.mark.parametrize("family, name", [(1, "p_plus"), (2, "p_minus")])
    def test_unphysical_sampled_probability_raises(self, monkeypatch, family, name):
        # sampling keeps probabilities in [0, 1]; a series pushed outside
        # must raise NumericsError, which python -O does not strip
        import loschmidt.reconstruct as reconstruct

        sample = reconstruct._sample_series

        def shifted(p, shots, seed, fam):
            out = sample(p, shots, seed, fam)
            return out + 2.0 if fam == family else out

        monkeypatch.setattr(reconstruct, "_sample_series", shifted)
        cfg = ExperimentConfig(spec=tfim(3, 1.0, 0.5), psi=product_state(["up"] * 3),
                               tau=0.05, h=0.05, t_max=0.1, shots=100, seed=1)
        with pytest.raises(NumericsError, match=f"{name} outside"):
            run_phase_experiment(cfg)

    def test_general_bj_mode_matches_closed_form(self):
        n = 4
        spec = tfim(n, 1.0, 0.5)
        psi = product_state(["up"] * n)
        kwargs = dict(spec=spec, psi=psi, tau=0.02, h=0.02, t_max=1.0)
        a = run_phase_experiment(ExperimentConfig(ite_mode="tfim_closed_form", **kwargs))
        b = run_phase_experiment(ExperimentConfig(ite_mode="general_bj", **kwargs))
        assert np.max(np.abs(a.phi - b.phi)) < 5e-3

    def test_general_product_state_end_to_end(self):
        # tilted product states go through the general imaginary-time
        # construction; the reconstruction still tracks the oracle
        spec = tfim(4, 1.0, 0.5)
        psi = product_state(["x+", "y-", "up", "x-"])
        cfg = ExperimentConfig(spec=spec, psi=psi, tau=0.01, h=0.02, t_max=1.5,
                               ite_mode="general_bj", backend="statevector_trotter")
        trace = run_phase_experiment(cfg)
        r_or, phi_or = oracle_phase_series(spec, psi, psi, trace.times)
        g_or = r_or * np.exp(1j * phi_or)
        assert np.max(np.abs(trace.g_complex - g_or)) < 1e-4

    def test_runs_beyond_oracle_cap(self):
        # the simulation pipeline is not limited by the 12-site oracle;
        # check a 14-site run against oracle-free identities
        n = 14
        spec = tfim(n, 1.0, 0.5)
        psi = product_state(["up"] * n)
        cfg = ExperimentConfig(spec=spec, psi=psi, tau=0.05, h=0.02, t_max=0.25,
                               backend="statevector_trotter")
        trace = run_phase_experiment(cfg)
        assert trace.r[0] == 1.0
        assert np.all(trace.r <= 1 + 1e-12)
        # phi'(0) = -<H> = +J(N-1)/4 up to O(h^2)
        assert abs(trace.dphi_dt[0] - (n - 1) / 4) < 5e-3

    @pytest.mark.parametrize("case", ["tfim_up", "tilted_two_sided"])
    def test_noiseless_trajectory_equals_statevector_backend(self, case):
        # one gamma = 0 trajectory without shots runs the same circuits as
        # the statevector backend, so every series agrees bit for bit
        from loschmidt.noise import NoiseConfig

        spec = tfim(4, 1.0, 0.5)
        if case == "tfim_up":
            kwargs = dict(spec=spec, psi=product_state(["up"] * 4),
                          ite_mode="tfim_closed_form")
        else:
            psi = product_state(["x+", "y-", "up", "x-"])
            kwargs = dict(spec=spec, psi=psi, ite_mode="general_bj",
                          bra_state=product_state(["up", "x+", "y+", "up"]),
                          prefix_steps=3, anchor=0.3)
        kwargs.update(tau=0.05, h=0.05, t_max=0.5)
        sv = run_phase_experiment(ExperimentConfig(backend="statevector_trotter", **kwargs))
        noisy = run_phase_experiment(ExperimentConfig(
            backend="noisy", noise=NoiseConfig(gamma=0.0, n_trajectories=1), **kwargs
        ))
        assert np.array_equal(noisy.r, sv.r)
        for name in ("p_plus", "p_minus"):
            assert np.array_equal(getattr(noisy, name), getattr(sv, name))
            assert np.array_equal(getattr(noisy, f"{name}_raw"), getattr(sv, name))
        assert np.array_equal(noisy.phi, sv.phi)

    def test_mitigation_exponent_matches_plan_census(self):
        # cross-module consistency: the depth used by the rescaling at grid
        # point k equals the ITE layer count plus k times the per-step layer
        # count reported by the Trotter plan
        from loschmidt.ite import build_ite_plan_tfim
        from loschmidt.noise import NoiseConfig
        from loschmidt.trotter import build_plan

        n = 4
        spec = tfim(n, 1.0, 0.5)
        psi = product_state(["up"] * n)
        gamma = 0.02
        cfg = ExperimentConfig(
            spec=spec, psi=psi, tau=0.2, h=0.2, t_max=1.0, order=1,
            backend="noisy",
            noise=NoiseConfig(gamma=gamma, n_trajectories=5, master_seed=3),
        )
        trace = run_phase_experiment(cfg)
        step = build_plan(spec, 0.2, 0.2, 1)
        ite_layers = build_ite_plan_tfim(spec, psi, 0.2, +1).n_layers
        for k in range(len(trace)):
            depth = ite_layers + k * step.layers_per_step
            expected = trace.p_plus_raw[k] / (1 - gamma) ** (n * depth)
            assert abs(min(expected, 1.0) - trace.p_plus_mitigated[k]) < 1e-12
