"""Stochastic single-qubit depolarizing noise, shot sampling, mitigation.

The depolarizing channel of rate gamma applies one of X, Y, Z (probability
gamma/3 each) independently to every qubit after every circuit layer.  It is
unraveled exactly by discrete Pauli insertion into Monte Carlo wavefunction
trajectories; survival probabilities are the trajectory average of
|<psi_final|state>|^2.  ``circuit_survivals`` runs one layered circuit on
states held as the rows of one (B, 2^N) array, in place: noiselessly as one
row, or as B trajectories with their own Paulis after every layer, so the
noiseless and the noisy backends share it.  ``trajectory_survivals`` runs
the trajectories through it one chunk of at most ``_CHUNK_AMPS`` amplitudes
after another.

Determinism contract, stream version 2:

* Trajectories.  The master seed is hashed once into a 64-bit stream base,
  ``SeedSequence(master_seed).generate_state(1, uint64)[0]`` (hashing keeps
  nearby master seeds statistically independent), and trajectory k draws
  from ``default_rng(base XOR k)``.  On a circuit of L layers and N qubits
  it draws once, before it runs: ``random((L, N)) < gamma`` marks the qubits
  hit after each layer, then ``integers(0, 3, (L, N))`` picks their Paulis
  (0 X, 1 Y, 2 Z).
* Shots.  Each probability family (r, p+, p-) has one generator,
  ``default_rng(SeedSequence(seed, spawn_key=(family,)))``, and one binomial
  draw per grid point in grid order (``sample_shots`` on the whole series).

The draws do not depend on which errors fire or on the chunking, and the
average is a fixed-order reduction over the trajectory index, so results
are bit-identical at any chunk size.
Version 1 drew 2N variates per trajectory and layer (``apply_noise_layer``)
and one shot generator per grid point; noisy and shot-sampled outputs differ
between the versions.  ``apply_noise_layer`` keeps its version 1 draws as
the public one-state round of the channel.

Rescaling mitigation divides a survival probability by (1-gamma)^(N*D), the
probability that no error occurred anywhere in a depth-D circuit on N
qubits, and clamps the result to [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NumericsError
from .statevector import StateVector
# perfbench/tracer.py counts gates and noise rounds by patching
# ``apply_layer`` here and ``apply_noise_layer`` below.  The batched runner
# calls neither, so on noisy runs its statevector.gates,
# statevector.bytes_computed, noise.noise_layers and noise.fire_ratio read 0.
from .statevector import apply_layer  # noqa: F401

#: Amplitudes in one chunk of trajectories: a chunk is
#: max(1, _CHUNK_AMPS // 2^N) trajectories.  A chunk's buffer and the input
#: copy numpy makes for an in-place block matmul peak at 2 * _CHUNK_AMPS
#: amplitudes (2 MiB).  At N = 8, 11 and 14 with 1000 trajectories, chunks
#: of 2^14 to 2^18 amplitudes ran equally fast; 2^20 and 2^22 ran slower at
#: N = 14.
_CHUNK_AMPS = 1 << 16


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


def _apply_errors(amps: np.ndarray, errors: np.ndarray) -> None:
    """Apply the Paulis of a (B, N) error array (0 none, 1 X, 2 Y, 3 Z) to
    the rows of a (B, 2^N) batch, in place."""
    for qubit in np.flatnonzero(errors.any(axis=0)):
        # axis 2 is the qubit's bit, as in the compiled gate kernel
        view = amps.reshape(len(amps), -1, 2, 1 << int(qubit))
        rows = np.flatnonzero(errors[:, qubit])
        paulis = errors[rows, qubit]
        flip = rows[paulis != 3]  # X and Y flip the qubit
        if flip.size:
            view[flip] = view[flip, :, ::-1]
        ys = rows[paulis == 2]
        if ys.size:
            view[ys, :, 0] *= -1j  # was |1>, Y|1> = -i|0>
            view[ys, :, 1] *= 1j
        zs = rows[paulis == 3]
        if zs.size:
            view[zs, :, 1] *= -1


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
    _apply_errors(amps[None], np.where(hits, picks + 1, 0)[None])
    return StateVector(n, amps)


def _draw_errors(rng, n_layers: int, n_qubits: int, gamma: float) -> np.ndarray:
    """One trajectory's Paulis on a circuit of ``n_layers`` layers, drawn at
    once (stream version 2): an (n_layers, n_qubits) int8 array, 0 where no
    error fires, else 1 X, 2 Y, 3 Z."""
    hits = rng.random((n_layers, n_qubits)) < gamma
    picks = rng.integers(0, 3, (n_layers, n_qubits))
    return np.where(hits, picks + 1, 0).astype(np.int8)


def circuit_survivals(
    state: StateVector, layers, record_after, psi_final: StateVector, errors=None
) -> np.ndarray:
    """|<psi_final|row>|^2 of a layered circuit at its record points, one
    row of the result per trajectory.

    ``layers`` are compiled layers (``compile_layers``); ``record_after``
    lists ascending layer counts (0 <= k <= len(layers)) after which the
    overlap is recorded, so an entry 0 records the bare initial state.
    ``errors`` is a (B, len(layers), N) array of the Paulis that act after
    each layer of B trajectories (0 none, 1 X, 2 Y, 3 Z).  All B rows start
    as ``state`` and run in place in one (B, 2^N) buffer.  Without
    ``errors`` the circuit runs noiselessly as one row.  Returns a
    (B, len(record_after)) array.
    """
    if any(k < 0 or k > len(layers) for k in record_after):
        raise ValueError("record_after entries must lie within the layer range")
    n_rows = 1 if errors is None else len(errors)
    amps = np.empty((n_rows, len(state.amplitudes)), dtype=complex)
    amps[:] = state.amplitudes
    fired = [False] * len(layers) if errors is None else errors.any(axis=(0, 2)).tolist()
    final = psi_final.amplitudes
    out = np.empty((n_rows, len(record_after)))

    def record(column):
        for row in range(n_rows):
            out[row, column] = abs(np.vdot(final, amps[row])) ** 2

    pointer = 0
    for k, layer in enumerate(layers):
        while pointer < len(record_after) and record_after[pointer] == k:
            record(pointer)
            pointer += 1
        for op in layer:
            op.apply(amps)
        if fired[k]:
            _apply_errors(amps, errors[:, k])
    while pointer < len(record_after):
        record(pointer)
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

    The trajectories run one chunk after another, each chunk as
    max(1, ``_CHUNK_AMPS`` // 2^N) rows of ``circuit_survivals`` with its
    trajectories' version 2 draws.  Returns the average over
    ``noise.n_trajectories`` trajectories for each recording point; the
    result does not depend on the chunk size (pre-assigned streams,
    fixed-order reduction).  ``threads`` is accepted and ignored, for the
    callers that still pass it (perfbench/run.py): the chunks run serially,
    so memory stays at one chunk.
    """
    record_after = list(record_after)
    n_qubits, n_layers = psi_init.n_qubits, len(layers)
    base = np.random.SeedSequence(noise.master_seed).generate_state(1, np.uint64)[0]
    size = max(1, _CHUNK_AMPS >> n_qubits)
    parts = []
    for start in range(0, noise.n_trajectories, size):
        chunk = range(start, min(start + size, noise.n_trajectories))
        errors = np.empty((len(chunk), n_layers, n_qubits), dtype=np.int8)
        for row, traj in enumerate(chunk):
            rng = np.random.default_rng(base ^ np.uint64(traj))
            errors[row] = _draw_errors(rng, n_layers, n_qubits, noise.gamma)
        parts.append(circuit_survivals(psi_init, layers, record_after, psi_final, errors))
    return np.concatenate(parts).mean(axis=0)


def sample_shots(p, shots: int, rng):
    """Finite-measurement estimate of a probability: binomial(M, p)/M.

    ``p`` is one probability (returns a float) or an array of them (returns
    an array, one binomial draw per entry in order).
    """
    values = np.asarray(p, dtype=float)
    # written so that nan fails
    outside = ~((values >= 0.0) & (values <= 1.0))
    if np.any(outside):
        raise ValueError(f"probability {values[outside].flat[0]} outside [0, 1]")
    if values.ndim == 0:
        return float(rng.binomial(shots, p)) / shots
    return rng.binomial(shots, values) / shots


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
