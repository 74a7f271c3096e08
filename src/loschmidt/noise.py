"""Stochastic single-qubit depolarizing noise, shot sampling, mitigation.

The depolarizing channel of rate gamma applies one of X, Y, Z (probability
gamma/3 each) independently to every qubit after every circuit layer.  It is
unraveled exactly by discrete Pauli insertion into Monte Carlo wavefunction
trajectories; survival probabilities are the trajectory average of
|<psi_final|state>|^2.  ``circuit_survivals`` runs one layered circuit,
either noiseless or as one such trajectory, so the noiseless and the noisy
backends share it.

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


def apply_noise_layer(state: StateVector, gamma: float, rng) -> StateVector:
    """One round of the depolarizing channel: per qubit, with probability
    gamma apply a uniformly chosen Pauli.

    Always draws 2 variates per qubit so the consumed stream length does not
    depend on which errors fire.  Returns ``state`` itself when none fires.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must satisfy 0 <= gamma < 1")
    n = state.n_qubits
    hits = rng.random(n) < gamma
    picks = rng.integers(0, 3, size=n)
    if not np.any(hits):
        return state
    amps = state.amplitudes.copy()
    for qubit in np.nonzero(hits)[0]:
        # axis 1 is the qubit's bit, as in the compiled gate kernel
        view = amps.reshape(-1, 2, 1 << int(qubit))
        pick = picks[qubit]
        if pick != 2:  # X and Y flip the qubit
            view[:] = view[:, ::-1].copy()
        if pick == 1:
            view[:, 0] *= -1j  # was |1>, Y|1> = -i|0>
            view[:, 1] *= 1j
        elif pick == 2:
            view[:, 1] *= -1
    return StateVector(n, amps)


def circuit_survivals(
    state: StateVector, layers, record_after, psi_final: StateVector, gamma=0.0, rng=None
) -> np.ndarray:
    """|<psi_final|state>|^2 of a layered circuit at its record points.

    ``layers`` are compiled layers (``compile_layers``); ``record_after``
    lists ascending layer counts (0 <= k <= len(layers)) after which the
    overlap is recorded, so an entry 0 records the bare initial state.  With
    ``rng`` a depolarizing layer of rate ``gamma`` follows every circuit
    layer, which makes the run one Monte Carlo trajectory; without it the
    circuit is noiseless.
    """
    if any(k < 0 or k > len(layers) for k in record_after):
        raise ValueError("record_after entries must lie within the layer range")
    final = psi_final.amplitudes
    out = np.empty(len(record_after))
    pointer = 0
    for k, layer in enumerate(layers):
        while pointer < len(record_after) and record_after[pointer] == k:
            out[pointer] = abs(np.vdot(final, state.amplitudes)) ** 2
            pointer += 1
        state = apply_layer(state, layer)
        if rng is not None:
            state = apply_noise_layer(state, gamma, rng)
    while pointer < len(record_after):
        out[pointer] = abs(np.vdot(final, state.amplitudes)) ** 2
        pointer += 1
    return out


def trajectory_survivals(
    psi_init: StateVector,
    layers,
    record_after,
    psi_final: StateVector,
    noise: NoiseConfig,
    threads: int = 1,
) -> np.ndarray:
    """Trajectory-averaged survival probabilities of a layered circuit.

    Each trajectory is one ``circuit_survivals`` run with noise after every
    layer.  Returns the average over ``noise.n_trajectories`` trajectories
    for each recording point; the result does not depend on ``threads``
    (pre-assigned streams, fixed-order reduction).
    """
    record_after = list(record_after)
    base = np.random.SeedSequence(noise.master_seed).generate_state(1, np.uint64)[0]

    def trajectory(traj: int) -> np.ndarray:
        rng = np.random.default_rng(base ^ np.uint64(traj))
        return circuit_survivals(psi_init, layers, record_after, psi_final, noise.gamma, rng)

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(trajectory, range(noise.n_trajectories)))
    else:
        rows = [trajectory(traj) for traj in range(noise.n_trajectories)]
    return np.array(rows).mean(axis=0)


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
