"""Stochastic single-qubit depolarizing noise, shot sampling, mitigation.

The depolarizing channel of rate gamma applies one of X, Y, Z (probability
gamma/3 each) independently to every qubit after every circuit layer.  It is
unraveled exactly by discrete Pauli insertion into Monte Carlo wavefunction
trajectories; survival probabilities are the trajectory average of
|<psi_final|state>|^2.

Determinism contract: the master seed is hashed once into a 64-bit stream
base and trajectory k draws from a generator seeded with ``base XOR k``
(hashing first keeps nearby master seeds statistically independent).  Every
trajectory consumes a fixed number of random variates per layer regardless
of which errors fire, and the average is a fixed-order reduction over the
trajectory index, so results are bit-identical no matter how trajectories
are dispatched.

Rescaling mitigation divides a survival probability by (1-gamma)^(N*D), the
probability that no error occurred anywhere in a depth-D circuit on N
qubits, and clamps the result to [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NumericsError
from .statevector import StateVector, apply_layer


@dataclass
class NoiseConfig:
    """Depolarizing rate, trajectory count, shot budget and master seed."""

    gamma: float
    n_trajectories: int = 1000
    shots: int | None = None
    master_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must satisfy 0 <= gamma < 1")
        if self.n_trajectories < 1:
            raise ValueError("n_trajectories must be >= 1")
        if self.shots is not None and self.shots < 1:
            raise ValueError("shots must be >= 1 when given")


def _pauli_x(tensor, axis):
    return np.flip(tensor, axis=axis)


def _pauli_z(tensor, axis):
    out = tensor.copy()
    idx = [slice(None)] * tensor.ndim
    idx[axis] = 1
    out[tuple(idx)] *= -1
    return out


def _pauli_y(tensor, axis):
    out = np.flip(tensor, axis=axis).copy()
    idx0 = [slice(None)] * tensor.ndim
    idx1 = [slice(None)] * tensor.ndim
    idx0[axis] = 0
    idx1[axis] = 1
    out[tuple(idx0)] *= -1j  # was |1>, Y|1> = -i|0>
    out[tuple(idx1)] *= 1j
    return out


_PAULI_ACTIONS = (_pauli_x, _pauli_y, _pauli_z)


def apply_noise_layer(state: StateVector, gamma: float, rng) -> StateVector:
    """One round of the depolarizing channel: per qubit, with probability
    gamma apply a uniformly chosen Pauli.

    Always draws 2 variates per qubit so the consumed stream length does not
    depend on which errors fire.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must satisfy 0 <= gamma < 1")
    n = state.n_qubits
    hits = rng.random(n) < gamma
    picks = rng.integers(0, 3, size=n)
    if not np.any(hits):
        return state
    tensor = state.amplitudes.reshape([2] * n)
    for qubit in np.nonzero(hits)[0]:
        tensor = _PAULI_ACTIONS[picks[qubit]](tensor, n - 1 - int(qubit))
    return StateVector(n, np.ascontiguousarray(tensor.reshape(-1)))


def _run_trajectory(args) -> None:
    psi_init, layers, record_after, final, gamma, seed, rows, traj = args
    rng = np.random.default_rng(seed)
    state = psi_init
    pointer = 0
    for k, layer in enumerate(layers):
        while pointer < len(record_after) and record_after[pointer] == k:
            rows[traj, pointer] = abs(np.vdot(final, state.amplitudes)) ** 2
            pointer += 1
        state = apply_layer(state, layer)
        state = apply_noise_layer(state, gamma, rng)
    while pointer < len(record_after):
        rows[traj, pointer] = abs(np.vdot(final, state.amplitudes)) ** 2
        pointer += 1


def trajectory_survivals(
    psi_init: StateVector,
    layers,
    record_after,
    psi_final: StateVector,
    noise: NoiseConfig,
    threads: int = 1,
) -> np.ndarray:
    """Trajectory-averaged survival probabilities of a layered circuit.

    ``layers`` are compiled layers (``compile_layers``).  ``record_after``
    lists layer counts (0 <= k <= len(layers)) after which
    |<psi_final|state>|^2 is recorded; an entry 0 records the bare initial
    state.  Noise fires after every layer.  Returns the average over
    ``noise.n_trajectories`` trajectories for each recording point; the
    result does not depend on ``threads`` (pre-assigned streams, fixed-order
    reduction).
    """
    record_after = list(record_after)
    if any(k < 0 or k > len(layers) for k in record_after):
        raise ValueError("record_after entries must lie within the layer range")
    final = psi_final.amplitudes
    base = np.random.SeedSequence(noise.master_seed).generate_state(1, np.uint64)[0]
    rows = np.empty((noise.n_trajectories, len(record_after)))
    work = [
        (psi_init, layers, record_after, final, noise.gamma, base ^ np.uint64(traj), rows, traj)
        for traj in range(noise.n_trajectories)
    ]
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(_run_trajectory, work))
    else:
        for item in work:
            _run_trajectory(item)
    return rows.mean(axis=0)


def sample_shots(p: float, shots: int, rng) -> float:
    """Finite-measurement estimate of a probability: binomial(M, p)/M."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    return float(rng.binomial(shots, p)) / shots


def mitigate_rescale(
    p_hat: float, gamma: float, n_qubits: int, depth: int
) -> tuple[float, bool]:
    """Divide a survival probability by (1-gamma)^(N*D), clamped to [0, 1].

    Returns the mitigated value and a flag telling whether clamping fired.
    Raises when the rescaling factor underflows past 1e-12 (the mitigation
    has no signal left to recover at that depth).
    """
    if p_hat < 0 or gamma < 0 or n_qubits < 0 or depth < 0:
        raise ValueError("mitigation inputs must be nonnegative")
    factor = (1.0 - gamma) ** (n_qubits * depth)
    if factor < 1e-12:
        raise NumericsError("mitigation blow-up: depth too large for rate")
    value = p_hat / factor
    clamped = value > 1.0 or value < 0.0
    return min(max(value, 0.0), 1.0), clamped


def statistical_error_model(trace, shots: int, h: float) -> float:
    """Order-of-magnitude shot-noise prediction I*t/(h*sqrt(M)) for the
    integrated phase at the end of a trace.

    I is the time average of 1/sqrt(p_+) + 1/sqrt(p_-) over the trace, so
    I*t is the plain integral of that quantity; the model is constant-free
    and intentionally conservative.
    """
    p_plus = np.asarray(trace.p_plus, dtype=float)
    p_minus = np.asarray(trace.p_minus, dtype=float)
    if np.any(p_plus <= 0) or np.any(p_minus <= 0):
        raise NumericsError("statistical error model undefined: zero probability in trace")
    integrand = 1.0 / np.sqrt(p_plus) + 1.0 / np.sqrt(p_minus)
    integral = float(np.trapezoid(integrand, np.asarray(trace.times, dtype=float)))
    if len(trace.times) == 1:
        integral = 0.0
    return integral / (h * np.sqrt(shots))
