"""Tests for depolarizing trajectories, shot sampling and mitigation."""

import numpy as np
import pytest

from loschmidt.exceptions import NumericsError
from loschmidt.noise import (
    NoiseConfig,
    apply_noise_layer,
    mitigate_rescale,
    sample_shots,
    statistical_error_model,
    trajectory_survivals,
)
from loschmidt.model import SIGMA_X, SIGMA_Y, SIGMA_Z
from loschmidt.statevector import (
    LocalGate,
    StateVector,
    apply_matrix,
    compile_layers,
    product_state,
)


def sigma_z_mean(state):
    probs = np.abs(state.amplitudes) ** 2
    return probs[0] - probs[1]


class TestApplyNoiseLayer:
    def test_gamma_zero_is_identity(self):
        rng = np.random.default_rng(0)
        state = product_state(["x+", "y-", "up"])
        out = apply_noise_layer(state, 0.0, rng)
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_sigma_z_damping(self):
        # average sigma^z of |up> after one layer: 1 - 4*gamma/3
        gamma, n_traj = 0.3, 20000
        rng = np.random.default_rng(12345)
        acc = 0.0
        psi = product_state(["up"])
        for _ in range(n_traj):
            acc += sigma_z_mean(apply_noise_layer(psi, gamma, rng))
        mean = acc / n_traj
        sigma = np.sqrt((1 - (1 - 4 * gamma / 3) ** 2) / n_traj)
        assert abs(mean - (1 - 4 * gamma / 3)) < 3 * sigma + 1e-12

    def test_full_depolarization_at_three_quarters(self):
        gamma, n_traj = 0.75, 20000
        rng = np.random.default_rng(999)
        acc = 0.0
        psi = product_state(["up"])
        for _ in range(n_traj):
            acc += sigma_z_mean(apply_noise_layer(psi, gamma, rng))
        assert abs(acc / n_traj) < 3 / np.sqrt(n_traj)

    def test_norm_preserved(self):
        rng = np.random.default_rng(5)
        state = product_state(["x+", "y+", "down", "up"])
        for _ in range(20):
            state = apply_noise_layer(state, 0.5, rng)
        assert abs(state.norm() - 1.0) < 1e-12

    @pytest.mark.parametrize("pick, pauli", [(0, SIGMA_X), (1, SIGMA_Y), (2, SIGMA_Z)])
    def test_paulis_match_apply_matrix(self, pick, pauli):
        # a stub stream fires exactly one chosen Pauli on one chosen qubit
        class OneError:
            def __init__(self, qubit):
                self.qubit = qubit

            def random(self, n):
                return np.where(np.arange(n) == self.qubit, 0.0, 1.0)

            def integers(self, low, high, size):
                return np.full(size, pick)

        n = 5
        amps = [1.0, 1j] @ np.random.default_rng(17).normal(size=(2, 2**n))
        state = StateVector(n, amps / np.linalg.norm(amps))
        for qubit in range(n):
            out = apply_noise_layer(state, 0.5, OneError(qubit))
            expected = apply_matrix(state, pauli, [qubit])
            assert np.max(np.abs(out.amplitudes - expected.amplitudes)) <= 1e-15

    def test_no_error_returns_input(self):
        state = product_state(["x+", "up"])
        assert apply_noise_layer(state, 0.0, np.random.default_rng(0)) is state


def noisy_probability(psi_init, layers, psi_final, noise):
    """Survival probability after every layer of one noisy circuit."""
    p = trajectory_survivals(psi_init, layers, [len(layers)], psi_final, noise)
    return float(p[0])


class TestRunNoisyProbability:
    def test_gamma_zero_exact(self):
        psi = product_state(["up", "up"])
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        layers = compile_layers(2, [[LocalGate((0,), h)], [LocalGate((1,), h)]])
        assert len(layers) == 2
        noise = NoiseConfig(gamma=0.0, n_trajectories=3, master_seed=7)
        p = noisy_probability(psi, layers, psi, noise)
        assert abs(p - 0.25) < 1e-12

    def test_single_noise_layer_identity_circuit(self):
        # X and Y errors kill the overlap with |up>, Z keeps it: 1 - 2g/3
        gamma = 0.3
        psi = product_state(["up"])
        layers = compile_layers(1, [[]])
        assert len(layers) == 1
        noise = NoiseConfig(gamma=gamma, n_trajectories=20000, master_seed=11)
        p = noisy_probability(psi, layers, psi, noise)
        expected = 1 - 2 * gamma / 3
        sigma = np.sqrt(expected * (1 - expected) / noise.n_trajectories)
        assert abs(p - expected) < 3 * sigma

    def test_doubling_trajectories_halves_variance(self):
        gamma = 0.2
        psi = product_state(["up", "down"])
        layers = compile_layers(2, [[], [], []])
        estimates = {n: [] for n in (64, 128)}
        for n in estimates:
            for seed in range(150):
                noise = NoiseConfig(gamma=gamma, n_trajectories=n, master_seed=1000 + seed)
                p = noisy_probability(psi, layers, psi, noise)
                estimates[n].append(p)
        var_ratio = np.var(estimates[64]) / np.var(estimates[128])
        assert 1.4 < var_ratio < 2.9

    def test_bit_identical_reruns(self):
        psi = product_state(["x+", "up"])
        layers = compile_layers(2, [[], []])
        noise = NoiseConfig(gamma=0.4, n_trajectories=50, master_seed=3)
        p1 = noisy_probability(psi, layers, psi, noise)
        p2 = noisy_probability(psi, layers, psi, noise)
        assert p1 == p2

    def test_thread_count_invariance(self):
        psi = product_state(["x+", "up", "down"])
        layers = [[], [], [], []]
        noise = NoiseConfig(gamma=0.3, n_trajectories=64, master_seed=12)
        results = [
            trajectory_survivals(psi, layers, [0, 2, 4], psi, noise, threads=t)
            for t in (1, 3, 8)
        ]
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(results[0], results[2])

    def test_record_points_out_of_range(self):
        psi = product_state(["up"])
        noise = NoiseConfig(gamma=0.1, n_trajectories=2)
        with pytest.raises(ValueError):
            trajectory_survivals(psi, [[]], [2], psi, noise)


class TestSampleShots:
    def test_certain_outcomes(self):
        rng = np.random.default_rng(0)
        assert sample_shots(1.0, 17, rng) == 1.0
        assert sample_shots(0.0, 17, rng) == 0.0

    def test_binomial_std(self):
        p, shots = 0.3, 10**4
        estimates = [
            sample_shots(p, shots, np.random.default_rng(seed)) for seed in range(200)
        ]
        measured = np.std(estimates)
        expected = np.sqrt(p * (1 - p) / shots)
        assert abs(measured - expected) < 0.15 * expected

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            sample_shots(1.2, 10, np.random.default_rng(0))


class TestMitigateRescale:
    def test_gamma_zero_identity(self):
        value, clamped = mitigate_rescale(0.37, 0.0, 8, 100)
        assert value == 0.37 and not clamped

    def test_reference_value(self):
        # 0.5 / (0.997)^120, direct evaluation of the rescaling formula
        value, clamped = mitigate_rescale(0.5, 3e-3, 12, 10)
        assert abs(value - 0.5 / (1 - 3e-3) ** 120) < 1e-12
        assert abs(value - 0.7170525868936306) < 1e-10
        assert not clamped

    def test_clamping_flag(self):
        value, clamped = mitigate_rescale(0.9, 0.1, 4, 10)
        assert value == 1.0 and clamped

    def test_blow_up_guard(self):
        with pytest.raises(NumericsError, match="mitigation blow-up"):
            mitigate_rescale(0.5, 0.5, 8, 10)


class TestStatisticalErrorModel:
    class _Trace:
        def __init__(self, times, p_plus, p_minus):
            self.times = times
            self.p_plus = p_plus
            self.p_minus = p_minus

    def test_unit_probabilities(self):
        t = np.linspace(0, 2.0, 21)
        trace = self._Trace(t, np.ones_like(t), np.ones_like(t))
        pred = statistical_error_model(trace, shots=400, h=0.1)
        assert abs(pred - 2 * 2.0 / (0.1 * 20)) < 1e-12

    def test_quadrupling_shots_halves_prediction(self):
        t = np.linspace(0, 1.0, 11)
        trace = self._Trace(t, np.full_like(t, 0.5), np.full_like(t, 0.25))
        a = statistical_error_model(trace, shots=100, h=0.05)
        b = statistical_error_model(trace, shots=400, h=0.05)
        assert abs(a / b - 2.0) < 1e-12

    def test_zero_probability_rejected(self):
        t = np.linspace(0, 1.0, 3)
        trace = self._Trace(t, np.array([1.0, 0.0, 1.0]), np.ones(3))
        with pytest.raises(NumericsError):
            statistical_error_model(trace, shots=100, h=0.05)
