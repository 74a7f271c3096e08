"""Tests for depolarizing trajectories, shot sampling and mitigation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loschmidt.noise as noise_module
from loschmidt.exceptions import NumericsError
from loschmidt.noise import (
    NoiseConfig,
    PauliOp,
    apply_noise_layer,
    mitigate_rescale,
    sample_shots,
    statistical_error_model,
    trajectory_survivals,
)
from loschmidt.ite import build_ite_plan_general
from loschmidt.model import SIGMA_X, SIGMA_Y, SIGMA_Z, tfim
from loschmidt.statevector import (
    GateStack,
    StateVector,
    _compile_stack,
    _run_layers,
    apply_layer,
    apply_matrix,
    circuit_survivals,
    product_state,
)
from loschmidt.trotter import build_plan
from test_compiled_plans import SEEDS, _random_state, chains

PROPERTY = settings(max_examples=30, deadline=None, database=None, derandomize=True)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


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

            def random(self, shape):
                # (layers, qubits), as _draw_errors asks for it
                return np.where(np.arange(shape[-1]) == self.qubit, 0.0, np.ones(shape))

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
        layers = _compile_stack(2, GateStack(((0,), (1,)), (h, h)), [(0,), (1,)])
        assert len(layers) == 2
        noise = NoiseConfig(gamma=0.0, n_trajectories=3, master_seed=7)
        p = noisy_probability(psi, layers, psi, noise)
        assert abs(p - 0.25) < 1e-12

    def test_single_noise_layer_identity_circuit(self):
        # X and Y errors kill the overlap with |up>, Z keeps it: 1 - 2g/3
        gamma = 0.3
        psi = product_state(["up"])
        layers = [()]  # one layer without gates
        assert len(layers) == 1
        noise = NoiseConfig(gamma=gamma, n_trajectories=20000, master_seed=11)
        p = noisy_probability(psi, layers, psi, noise)
        expected = 1 - 2 * gamma / 3
        sigma = np.sqrt(expected * (1 - expected) / noise.n_trajectories)
        assert abs(p - expected) < 3 * sigma

    def test_doubling_trajectories_halves_variance(self):
        gamma = 0.2
        psi = product_state(["up", "down"])
        layers = [()] * 3
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
        layers = [()] * 2
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

    def test_record_points_out_of_order(self):
        # a descending entry would be recorded after the last layer
        psi = product_state(["x+", "up"])
        layers = build_plan(tfim(2, 1.0, 0.5), 0.1, 0.1, 2).compiled * 5
        assert len(layers) == 15
        noise = NoiseConfig(gamma=0.1, n_trajectories=2)
        with pytest.raises(ValueError, match="ascending"):
            trajectory_survivals(psi, layers, [6, 2], psi, noise)


def stream_base(master_seed):
    return np.random.SeedSequence(master_seed).generate_state(1, np.uint64)[0]


def reference_trajectory(psi, layers, record_after, bra, gamma, rng):
    """One stream version 2 trajectory, one state at a time.

    Draws random((L, N)) < gamma, then integers(0, 3, (L, N)); after layer
    l the Pauli picks[l, q] acts on every hit qubit q through
    ``apply_matrix``.  Returns the survivals at the record points and the
    draws as ``PauliOp`` codes (0 none, 1 X, 2 Y, 3 Z).
    """
    n_layers, n = len(layers), psi.n_qubits
    hits = rng.random((n_layers, n)) < gamma
    picks = rng.integers(0, 3, (n_layers, n))
    state, out = psi, []
    for k in range(n_layers + 1):
        out += [abs(np.vdot(bra.amplitudes, state.amplitudes)) ** 2] * record_after.count(k)
        if k < n_layers:
            state = apply_layer(state, layers[k])
            for q in np.flatnonzero(hits[k]):
                state = apply_matrix(state, PAULIS[picks[k, q]], [q])
    return np.array(out), np.where(hits, picks + 1, 0)


@st.composite
def noisy_circuits(draw):
    """Two Trotter steps of a random chain on N <= 6 sites, random initial
    and final states, and ascending record points (every layer count, or a
    few with repeats)."""
    spec = draw(chains(max_sites=6))
    rng = np.random.default_rng(draw(SEEDS))
    layers = build_plan(spec, 0.1, 0.1, draw(st.sampled_from([1, 2]))).compiled * 2
    record = list(range(len(layers) + 1))
    if draw(st.booleans()):
        record = sorted(draw(st.lists(st.integers(0, len(layers)), min_size=1, max_size=4)))
    psi, bra = (_random_state(rng, spec.n_sites, draw(st.booleans())) for _ in range(2))
    return psi, layers, record, bra


def rows_of(state, n_rows):
    """A fresh (n_rows, 2^N) batch whose rows are ``state``."""
    return np.repeat(state.amplitudes[None], n_rows, axis=0)


def with_paulis(layers, errors):
    """``layers`` with the (B, L, N) codes ``errors`` as one ``PauliOp``
    after each layer, whether or not any of them fires."""
    return [(*layer, PauliOp(errors[:, k])) for k, layer in enumerate(layers)]


class TestPauliOp:
    @PROPERTY
    @given(n=st.integers(1, 6), n_rows=st.integers(1, 5), seed=SEEDS)
    def test_rows_match_apply_matrix(self, n, n_rows, seed):
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 4, (n_rows, n)).astype(np.int8)
        amps = rng.normal(size=(n_rows, 2**n)) + 1j * rng.normal(size=(n_rows, 2**n))
        expected = []
        for row, vector in zip(codes, amps):
            state = StateVector(n, vector)
            for qubit in np.flatnonzero(row):
                state = apply_matrix(state, PAULIS[row[qubit] - 1], [qubit])
            expected.append(state.amplitudes)
        PauliOp(codes).apply(amps)
        assert np.array_equal(amps, np.array(expected))


class TestBatchedTrajectories:
    @PROPERTY
    @given(circuit=noisy_circuits(), gamma=st.sampled_from([0.1, 0.5]),
           n_traj=st.integers(1, 9), seed=SEEDS)
    def test_rows_match_reference_loop(self, circuit, gamma, n_traj, seed):
        psi, layers, record, bra = circuit
        base = stream_base(seed)
        refs = [
            reference_trajectory(psi, layers, record, bra, gamma,
                                 np.random.default_rng(base ^ np.uint64(k)))
            for k in range(n_traj)
        ]
        rows = np.array([survivals for survivals, _ in refs])
        errors = np.array([drawn for _, drawn in refs])
        batched = circuit_survivals(
            rows_of(psi, n_traj), with_paulis(layers, errors), record, [bra.amplitudes])
        assert batched.shape == (n_traj, 1, len(record))
        assert batched[:, 0].tobytes() == rows.tobytes()
        noise = NoiseConfig(gamma=gamma, n_trajectories=n_traj, master_seed=seed)
        mean = trajectory_survivals(psi, layers, record, bra, noise)
        assert mean.tobytes() == rows.mean(axis=0).tobytes()

    def test_chunk_size_does_not_change_output(self, monkeypatch):
        # at N = 4 one block spans the state, the case numpy runs as GEMV
        n = 4
        psi = product_state(["x+", "up", "y-", "down"])
        layers = build_plan(tfim(n, 1.0, 0.5), 0.1, 0.1, 2).compiled * 2
        noise = NoiseConfig(gamma=0.1, n_trajectories=1000, master_seed=5)
        outputs = set()
        for rows, threads in ((1, 1), (7, 1), (7, 2), (1000, 1)):
            monkeypatch.setattr(noise_module, "_CHUNK_AMPS", rows << n)
            out = trajectory_survivals(psi, layers, [0, 3, len(layers)], psi, noise, threads)
            outputs.add(out.tobytes())
        assert len(outputs) == 1

    def test_memory_bounded_by_chunk(self, monkeypatch):
        n, n_traj, rows = 8, 1000, 64
        monkeypatch.setattr(noise_module, "_CHUNK_AMPS", rows << n)
        psi = product_state(["up"] * n)
        layers = build_plan(tfim(n, 1.0, 0.5), 0.3, 0.3, 1).compiled * 5
        record = list(range(0, len(layers) + 1, 5))
        noise = NoiseConfig(gamma=3e-3, n_trajectories=n_traj, master_seed=9)
        tracemalloc.start()
        try:
            trajectory_survivals(psi, layers, record, psi, noise)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one chunk's buffer and the temporary of an in-place matmul, its
        # int8 draws, the per-trajectory rows and their concatenation; all
        # 1000 trajectories in one buffer would take 8 MB
        chunk = 2 * 16 * (rows << n)
        draws = rows * len(layers) * n
        results = 2 * 8 * n_traj * len(record)
        assert peak <= chunk + draws + results + 64 * 1024

    def test_gamma_zero_rows_equal_noiseless_run(self):
        # the rows of a batch without Paulis get the same arithmetic, bit
        # for bit, and so do rows whose PauliOps fire nothing; the
        # noiseless backend reads the same overlaps off one evolution of
        # the bra under the adjoint step, recorded against the three kets;
        # at h = 0 the two ITE kets are psi as well
        psi = product_state(["x+", "up", "down"])
        spec = tfim(3, 1.0, 0.5)
        step = build_plan(spec, 0.1, 0.1, 2)
        layers = step.compiled * 3
        record = [k * step.layers_per_step for k in range(4)]
        batched = circuit_survivals(rows_of(psi, 4), layers, record, [psi.amplitudes])
        assert batched.tobytes() == np.repeat(batched[:1], 4, axis=0).tobytes()
        zeros = np.zeros((4, len(layers), 3), dtype=np.int8)
        silent = circuit_survivals(
            rows_of(psi, 4), with_paulis(layers, zeros), record, [psi.amplitudes])
        assert silent.tobytes() == batched.tobytes()
        kets = [psi.amplitudes, *build_ite_plan_general(spec, psi, 0.0).kets()]
        noiseless = circuit_survivals(rows_of(psi, 1), step.adjoint * 3, record, kets)[0]
        assert noiseless.shape == (3, 4)
        assert np.max(np.abs(batched[0] - noiseless)) < 1e-12

    def test_finals_share_one_evolution(self):
        # each final vector's column equals a one-final run of its own
        psi, bra = product_state(["x+", "y-", "down"]), product_state(["y+", "up", "x-"])
        layers = build_plan(tfim(3, 1.0, 0.5), 0.1, 0.1, 1).compiled * 2
        errors = np.zeros((2, len(layers), 3), dtype=np.int8)
        errors[1, 1, 0] = 2
        circuit = with_paulis(layers, errors)
        finals = [psi.amplitudes, bra.amplitudes]
        both = circuit_survivals(rows_of(psi, 2), circuit, [0, 1, 4], finals)
        for f, final in enumerate(finals):
            alone = circuit_survivals(rows_of(psi, 2), circuit, [0, 1, 4], [final])
            assert both[:, f].tobytes() == alone[:, 0].tobytes()

    def test_runner_evolves_the_rows_it_is_given(self):
        # the caller's array ends as the rows after the whole circuit, the
        # state _run_layers returns
        psi = product_state(["x+", "y-", "down"])
        layers = build_plan(tfim(3, 1.0, 0.5), 0.1, 0.1, 2).compiled * 2
        amps = rows_of(psi, 2)
        circuit_survivals(amps, layers, [], [])
        expected = _run_layers(psi, layers).amplitudes
        assert amps.tobytes() == np.repeat(expected[None], 2, axis=0).tobytes()


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

    def test_array_draws_each_entry_in_order(self):
        p = np.array([0.1, 0.5, 0.0, 1.0, 0.33])
        rng = np.random.default_rng(5)
        one_by_one = [sample_shots(float(x), 1000, rng) for x in p]
        whole = sample_shots(p, 1000, np.random.default_rng(5))
        assert isinstance(whole, np.ndarray) and whole.tobytes() == np.array(one_by_one).tobytes()
        assert isinstance(sample_shots(0.5, 1000, rng), float)

    @pytest.mark.parametrize("bad", [-0.1, 1.2, np.nan])
    def test_array_out_of_range(self, bad):
        with pytest.raises(ValueError, match="outside"):
            sample_shots(np.array([0.5, bad]), 10, np.random.default_rng(0))

    @pytest.mark.parametrize("shots", [0, 2.5, -3])
    def test_shots_must_be_a_positive_integer(self, shots):
        # 0 divided by zero, 2.5 truncated the binomial count and then
        # divided by 2.5, -3 failed inside numpy
        with pytest.raises(ValueError, match="shots must be a positive integer"):
            sample_shots(0.5, shots, np.random.default_rng(0))


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

    @pytest.mark.parametrize("p_hat, gamma", [(np.nan, 0.01), (0.5, np.nan)])
    def test_nan_raises(self, p_hat, gamma):
        with pytest.raises(ValueError, match="nonnegative"):
            mitigate_rescale(p_hat, gamma, 4, 2)


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
