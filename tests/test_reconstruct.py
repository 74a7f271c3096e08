"""Tests for the phase reconstruction pipeline."""

import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from loschmidt.config import ExperimentConfig
from loschmidt.exceptions import NumericsError
from loschmidt.ite import build_ite_plan_general
from loschmidt.model import (
    amplitude_series,
    exact_amplitude,
    oracle_phase_series,
    tfim,
)
from loschmidt.noise import NoiseConfig
from loschmidt.reconstruct import (
    _P_FLOOR,
    correct_phase_jumps,
    detect_zeros,
    integrate_phase,
    reconstruct_trace,
    run_phase_experiment,
)
from loschmidt.statevector import product_state
from loschmidt.trotter import build_plan


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


def midpoint_dphi(r_minus, r_plus, h):
    """The d(phi)/dt that ``reconstruct_trace`` reads off one grid point with
    magnitudes r(t -+ ih), measured with zero log constants."""
    trace = reconstruct_trace([0.0], [1.0], [r_plus**2], [r_minus**2], 0.0, 0.0, h)
    return trace.dphi_dt[0]


class TestFiniteDifferenceLog:
    def test_symmetric_inputs(self):
        assert midpoint_dphi(0.7, 0.7, 0.1) == 0.0

    def test_single_mode_exact(self):
        # G(z) = e^{-iEz} with E = 1: r(t -+ ih) = e^{-+h}, estimate -1 exactly
        h = 0.1
        est = midpoint_dphi(np.exp(-h), np.exp(h), h)
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
            errs.append(abs(midpoint_dphi(r_minus, r_plus, h) - dphi_true))
        slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
        assert abs(slope - 2.0) < 0.2


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
    def _trace(self, r):
        n = len(r)
        t = np.arange(n) * 0.1
        ones = np.ones(n)
        return reconstruct_trace(t, np.asarray(r, float), ones, ones, 0.0, 0.0,
                                 0.1, zero_correction=False)

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
        r[5] = 0.05  # below max(1e-3, 10/sqrt(400)) = 0.5
        ones = np.ones(11)
        t = np.arange(11) * 0.1
        trace = reconstruct_trace(t, r, ones, ones, 0.0, 0.0, 0.1, shots=400)
        assert trace.crossings == [5]
        # without shots the default 1e-3 misses it
        assert reconstruct_trace(t, r, ones, ones, 0.0, 0.0, 0.1).crossings == []

    def test_order_is_chosen_against_1e_3_under_shots(self):
        # one-sided first derivatives of 0.05 at the dip: above 1e-3, so the
        # crossing is first order (a pi jump), though both sit below the
        # 10/sqrt(400) = 0.5 that detected it; against 0.5 the order would
        # be 2 and the jump 0
        r = np.ones(11)
        r[4:7] = [0.015, 0.01, 0.015]
        ones = np.ones(11)
        t = np.arange(11) * 0.1
        trace = reconstruct_trace(t, r, ones, ones, 0.0, 0.0, 0.1, shots=400)
        assert trace.crossings == [5]
        assert abs(trace.correction_phases[0]) == pytest.approx(np.pi)
        # a configured threshold sets both: 0.5 makes the same dip second order
        trace = reconstruct_trace(t, r, ones, ones, 0.0, 0.0, 0.1, threshold=0.5)
        assert trace.crossings == [5]
        assert trace.correction_phases[0] == pytest.approx(0.0)

    @pytest.mark.parametrize("threshold", [0.0, np.nan])
    @pytest.mark.parametrize("shots", [None, 400])
    def test_a_zero_threshold_raises(self, threshold, shots):
        # the default threshold repairs the dip at index 10; a nan one must
        # not leave it unrepaired without a word
        t = np.arange(21) * 0.1
        r = 1.0 + 0.1 * np.cos(3.0 * t)
        r[10] = 1e-5
        p = np.full(21, 0.5)
        assert reconstruct_trace(t, r, p, p, 0.0, 0.0, 0.1).crossings == [10]
        with pytest.raises(ValueError, match="threshold must be positive"):
            reconstruct_trace(t, r, p, p, 0.0, 0.0, 0.1, threshold=threshold, shots=shots)

    @pytest.mark.parametrize("threshold", [0.0, -1.0, np.nan])
    def test_a_derivative_threshold_that_is_not_positive_raises(self, threshold):
        # nan and -1 made every |d| < threshold false, so the dip at index
        # 10 was taken as first order and repaired by pi without a word,
        # where a threshold of 10 selects order 2 and repairs it by 0
        t = np.arange(21) * 0.1
        r = 1.0 + 0.1 * np.cos(3.0 * t)
        r[10] = 1e-5
        p = np.full(21, 0.5)
        trace = reconstruct_trace(t, r, p, p, 0.0, 0.0, 0.1, zero_correction=False)
        assert correct_phase_jumps(trace, [10], 10.0).correction_phases == [0.0]
        with pytest.raises(ValueError, match="^derivative_threshold must be positive$"):
            correct_phase_jumps(trace, [10], threshold)

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

    def test_boundary_crossings_are_recorded(self):
        trace, _ = synthetic_zero_trace(zero_correction=False)
        last = len(trace) - 1
        with pytest.warns(UserWarning, match="boundary"):
            out = correct_phase_jumps(trace, [0, 20, last])
        assert (out.crossings, out.skipped_crossings) == ([20], [0, last])
        # a second-order stencil at index 1 leaves the series too
        with pytest.warns(UserWarning, match="boundary"):
            out = correct_phase_jumps(trace, [1], derivative_threshold=1e9)
        assert (out.crossings, out.skipped_crossings) == ([], [1])


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

    @pytest.mark.parametrize("shots", [0, -4, 2.5])
    def test_shots_must_be_a_positive_integer(self, shots):
        # shots 0 would make the detection threshold 10/sqrt(0) = inf, so
        # every dip of a smooth r would count as a crossing; shots -4 would
        # make it nan and skip zero repair without a word
        t = np.arange(21) * 0.1
        r = 1.0 + 0.1 * np.cos(3.0 * t)
        p = np.full(21, 0.5)
        with pytest.raises(ValueError, match="shots"):
            reconstruct_trace(t, r, p, p, 0.0, 0.0, 0.1, shots=shots)

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

    @pytest.mark.parametrize("backend", ["exact_oracle", "statevector_trotter", "noisy"])
    @pytest.mark.parametrize("tau, t_max, n_points", [
        (0.1, 0.3, 4),  # t_max / tau = 2.9999999999999996
        (0.3, 1.0, 4),  # a non-integer ratio
        (0.1, 0.1, 2),
        (0.1, 0.0, 1),
    ])
    def test_grid_edges(self, backend, tau, t_max, n_points):
        noise = NoiseConfig(gamma=0.05, n_trajectories=2) if backend == "noisy" else None
        cfg = ExperimentConfig(spec=tfim(3, 1.0, 0.5), psi=product_state(["x+", "up", "y-"]),
                               tau=tau, h=0.05, t_max=t_max, ite_mode="general_bj",
                               backend=backend, noise=noise)
        trace = run_phase_experiment(cfg)
        assert len(trace) == n_points
        assert np.array_equal(trace.times, np.arange(n_points) * tau)
        # 3 * 0.1 lies one ulp above 0.3: the grid keeps the point, within
        # the 1e-9 steps it allows for rounding
        assert trace.times[-1] <= t_max + 1e-9 * tau

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

    @staticmethod
    def _trajectory_case(case):
        """ExperimentConfig arguments of a closed-form run from t = 0, or of
        a general run against a distinct bra from grid point 3 on."""
        spec = tfim(4, 1.0, 0.5)
        if case == "tfim_up":
            kwargs = dict(spec=spec, psi=product_state(["up"] * 4),
                          ite_mode="tfim_closed_form")
        else:
            psi = product_state(["x+", "y-", "up", "x-"])
            kwargs = dict(spec=spec, psi=psi, ite_mode="general_bj",
                          psi_final=product_state(["up", "x+", "y+", "up"]),
                          prefix_steps=3, anchor=0.3)
        return dict(kwargs, tau=0.05, h=0.05, t_max=0.5)

    @pytest.mark.parametrize("case", ["tfim_up", "tilted_two_sided"])
    def test_noiseless_trajectory_equals_statevector_backend(self, case):
        # at gamma = 0 without shots the noisy backend reads the statevector
        # backend's evaluator (no trajectory runs), so every series agrees
        # bit for bit
        from loschmidt.noise import NoiseConfig

        kwargs = self._trajectory_case(case)
        sv = run_phase_experiment(ExperimentConfig(backend="statevector_trotter", **kwargs))
        noisy = run_phase_experiment(ExperimentConfig(
            backend="noisy", noise=NoiseConfig(gamma=0.0, n_trajectories=1), **kwargs
        ))
        assert np.array_equal(noisy.r, sv.r)
        for name in ("p_plus", "p_minus"):
            assert np.array_equal(getattr(noisy, name), getattr(sv, name))
            assert np.array_equal(getattr(noisy, f"{name}_raw"), getattr(sv, name))
        assert np.array_equal(noisy.phi, sv.phi)

    @pytest.mark.parametrize("n_trajectories", [1, 3])
    @pytest.mark.parametrize("case", ["tfim_up", "tilted_two_sided"])
    def test_trajectory_branch_equals_statevector_backend(self, case, n_trajectories):
        # at gamma = 1e-15 the trajectories run, with the ITE layers of
        # pair.compiled before the Trotter steps, the records offset by
        # pair.n_layers and the prefix steps unrecorded; no Pauli fires in
        # these draws, so the raw series are the evaluator's up to rounding
        from loschmidt.noise import NoiseConfig

        kwargs = self._trajectory_case(case)
        sv = run_phase_experiment(ExperimentConfig(backend="statevector_trotter", **kwargs))
        noisy = run_phase_experiment(ExperimentConfig(
            backend="noisy", noise=NoiseConfig(gamma=1e-15, n_trajectories=n_trajectories),
            **kwargs,
        ))
        assert np.max(np.abs(noisy.r_squared_raw - sv.r**2)) <= 1e-12
        for name in ("p_plus", "p_minus"):
            assert np.max(np.abs(getattr(noisy, f"{name}_raw") - getattr(sv, name))) <= 1e-12
        assert not noisy.clamped.any()

    @pytest.mark.parametrize("n_trajectories", [1, 3])
    def test_gamma_zero_is_the_noiseless_run_unmitigated(self, n_trajectories):
        # at gamma = 0 the rescaling factor is 1: the noise backend returns
        # the statevector series, mitigated columns equal to the raw ones
        # and nothing clamped, although r^2 rounds above 1 at t = 0 here
        from loschmidt.noise import NoiseConfig

        n = 6
        psi = product_state([
            [np.cos(0.05 * (k + 1)), np.sin(0.05 * (k + 1)) * np.exp(0.7j * k)]
            for k in range(n)
        ])
        kwargs = dict(spec=tfim(n, 1.0, 0.5), psi=psi, ite_mode="general_bj",
                      tau=0.01, h=0.01, t_max=0.3)
        sv = run_phase_experiment(ExperimentConfig(backend="statevector_trotter", **kwargs))
        noisy = run_phase_experiment(ExperimentConfig(
            backend="noisy", noise=NoiseConfig(gamma=0.0, n_trajectories=n_trajectories),
            **kwargs,
        ))
        assert sv.r[0] > 1.0
        for name in ("r", "p_plus", "p_minus", "dphi_dt", "phi", "g_complex"):
            assert getattr(noisy, name).tobytes() == getattr(sv, name).tobytes()
        for name in ("p_plus", "p_minus"):
            for column in (f"{name}_raw", f"{name}_mitigated"):
                assert getattr(noisy, column).tobytes() == getattr(sv, name).tobytes()
        assert not noisy.clamped.any()

    def test_noiseless_memory_does_not_grow_with_the_grid(self):
        # one evolved bra and two held kets, whatever the grid: K = 5 and
        # K = 81 differ by O(K) floats, not by K states (64 KiB at N = 12)
        n = 12
        rng = np.random.default_rng(3)
        theta, azimuth = rng.uniform(0.0, 0.3, n), rng.uniform(0.0, 2 * np.pi, n)
        psi = product_state([[np.cos(a / 2), np.sin(a / 2) * np.exp(1j * b)]
                             for a, b in zip(theta, azimuth)])
        peaks = []
        for t_max in (0.2, 4.0):
            cfg = ExperimentConfig(spec=tfim(n, 1.0, 0.5), psi=psi, ite_mode="general_bj",
                                   tau=0.05, h=0.05, t_max=t_max,
                                   backend="statevector_trotter")
            tracemalloc.start()
            try:
                trace = run_phase_experiment(cfg)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert len(trace) == 81
        assert abs(peaks[1] - peaks[0]) <= 64 * 1024

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
        ite_layers = build_ite_plan_tfim(spec, psi, 0.2).n_layers
        for k in range(len(trace)):
            depth = ite_layers + k * step.layers_per_step
            expected = trace.p_plus_raw[k] / (1 - gamma) ** (n * depth)
            assert abs(min(expected, 1.0) - trace.p_plus_mitigated[k]) < 1e-12


def _tilted_psi(n, seed):
    """Product state whose sites tilt from up by a polar angle uniform in
    [0, 0.3], with a uniform azimuth, drawn from SeedSequence(seed,
    spawn_key=(n,))."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(n,)))
    theta = rng.uniform(0.0, 0.3, n)
    azimuth = rng.uniform(0.0, 2.0 * np.pi, n)
    return product_state([[np.cos(a / 2), np.sin(a / 2) * np.exp(1j * b)]
                          for a, b in zip(theta, azimuth)])


def test_layer_timings_run_the_production_noiseless_call():
    # tools/layers.py times its own copy of the noiseless backend's call;
    # a change to either that the other does not follow fails here
    path = Path(__file__).resolve().parents[1] / "tools" / "layers.py"
    spec_from_file = importlib.util.spec_from_file_location("layer_timings", path)
    layers = importlib.util.module_from_spec(spec_from_file)
    spec_from_file.loader.exec_module(layers)
    spec, psi = tfim(6, 1.0, 0.5), layers.tilted_state(6, 1)
    step = build_plan(spec, layers.TAU, layers.TAU, 2)
    pair = build_ite_plan_general(spec, psi, layers.H)
    rows = layers.noiseless_series(psi, step, pair, 11)
    trace = run_phase_experiment(ExperimentConfig(
        spec=spec, psi=psi, tau=layers.TAU, h=layers.H, t_max=10 * layers.TAU,
        ite_mode="general_bj"))
    assert len(trace) == 11
    assert np.sqrt(rows[0]).tobytes() == trace.r.tobytes()
    assert rows[1].tobytes() == trace.p_plus.tobytes()
    assert rows[2].tobytes() == trace.p_minus.tobytes()


class TestNearZeroNextToShiftedLine:
    """A zero of G(z) next to one of the lines t +- ih that p+- sample, not on
    the real axis: r stays above the detection threshold, so no crossing is
    found, while log r+- holds a sampled log singularity whose integral the
    quadrature misses by O(1).  TFIM N=10 on a tilted product state, dense
    oracle, tau = 0.02, h = 0.01, t_max = 40."""

    @staticmethod
    def _max_error(seed):
        spec, psi = tfim(10, 1.0, 0.5), _tilted_psi(10, seed)
        trace = run_phase_experiment(ExperimentConfig(
            spec=spec, psi=psi, tau=0.02, h=0.01, t_max=40.0,
            ite_mode="general_bj", backend="exact_oracle",
        ))
        return float(np.max(np.abs(trace.g_complex - amplitude_series(spec, psi, psi, trace.times))))

    def test_clean_seed_is_exact(self):
        # no zero near the strip: 7.6e-6
        assert self._max_error(1) <= 1e-3

    @pytest.mark.xfail(
        strict=True,
        reason="the zero next to t + ih (Im z ~ 1.05 h) is neither detected "
        "nor repaired: max |G_rec - G| is 1.05, with no crossing, no floored "
        "point and no warning",
    )
    def test_zero_next_to_shifted_line_is_repaired_or_raises(self):
        try:
            error = self._max_error(22)
        except NumericsError:
            return
        assert error <= 1e-3
