"""Stochastic single-qubit depolarizing noise, shot sampling, mitigation.

The depolarizing channel of rate gamma applies one of X, Y, Z (probability
gamma/3 each) independently to every qubit after every circuit layer.  It is
unraveled exactly by discrete Pauli insertion into Monte Carlo wavefunction
trajectories; survival probabilities are the trajectory average of
|<psi_final|state>|^2.  Each jump is one more op of the circuit:
``PauliOp`` holds the Paulis of one layer for the rows of a batch, as
codes 0 (none), 1 (X), 2 (Y) and 3 (Z), and only this module builds or
reads those codes.  ``trajectory_survivals`` runs B trajectories as the
rows of one (B, 2^N) array through ``statevector.circuit_survivals``, the
one circuit runner, one chunk of at most ``_CHUNK_AMPS`` amplitudes after
another, with a ``PauliOp`` after each layer where a row of the chunk has
an error.  The noisy backend runs it at gamma > 0; where no Pauli can
fire, ``run_phase_experiment`` calls the runner with no Pauli ops.

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
Version 1 drew 2N variates per trajectory and layer and one shot generator
per grid point; noisy and shot-sampled outputs differ between the versions.
``apply_noise_layer``, the public one-state round of the channel, draws one
layer of a version 2 trajectory.

Rescaling mitigation divides a survival probability by (1-gamma)^(N*D), the
probability that no error occurred anywhere in a depth-D circuit on N
qubits, and clamps the result to [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import NoiseConfig, _count  # noqa: F401  (the noise block; config owns its checks)
from .exceptions import NumericsError
from .statevector import StateVector, circuit_survivals
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


@dataclass(frozen=True, eq=False)
class PauliOp:
    """The Paulis that act on the rows of a (B, 2^N) batch after one layer:
    ``codes`` is a (B, N) array, row b's entry for qubit q 0 (none), 1 (X),
    2 (Y) or 3 (Z), applied to row b."""

    codes: np.ndarray

    def apply(self, amps: np.ndarray) -> None:
        for qubit in np.flatnonzero(self.codes.any(axis=0)):
            # axis 2 is the qubit's bit, as in the compiled gate kernel
            view = amps.reshape(len(amps), -1, 2, 1 << int(qubit))
            rows = np.flatnonzero(self.codes[:, qubit])
            paulis = self.codes[rows, qubit]
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

    One layer of one version 2 trajectory: its Paulis are
    ``_draw_errors(rng, 1, N, gamma)``, so the consumed stream length does
    not depend on which errors fire.  Returns ``state`` itself when none
    fires.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must satisfy 0 <= gamma < 1")
    errors = _draw_errors(rng, 1, state.n_qubits, gamma)
    if not errors.any():
        return state
    amps = state.amplitudes.copy()
    PauliOp(errors).apply(amps[None])
    return StateVector(state.n_qubits, amps)


def _draw_errors(rng, n_layers: int, n_qubits: int, gamma: float) -> np.ndarray:
    """One trajectory's Paulis on a circuit of ``n_layers`` layers, drawn at
    once (stream version 2): an (n_layers, n_qubits) int8 array, 0 where no
    error fires, else 1 X, 2 Y, 3 Z."""
    hits = rng.random((n_layers, n_qubits)) < gamma
    picks = rng.integers(0, 3, (n_layers, n_qubits))
    return np.where(hits, picks + 1, 0).astype(np.int8)


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
    max(1, ``_CHUNK_AMPS`` // 2^N) rows, all starting as ``psi_init``, of
    ``circuit_survivals``: the chunk's version 2 draws become one
    ``PauliOp`` after each layer where any of its trajectories has an
    error.  Returns the average over ``noise.n_trajectories`` trajectories
    for each recording point; the result does not depend on the chunk size
    (pre-assigned streams, fixed-order reduction).  ``threads`` is accepted
    and ignored, for the callers that still pass it (perfbench/run.py): the
    chunks run serially, so memory stays at one chunk.
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
        fired = errors.any(axis=(0, 2)).tolist()
        circuit = [(*layer, PauliOp(errors[:, k])) if fired[k] else layer
                   for k, layer in enumerate(layers)]
        amps = np.repeat(psi_init.amplitudes[None], len(chunk), axis=0)
        parts.append(circuit_survivals(amps, circuit, record_after, [psi_final.amplitudes])[:, 0])
    return np.concatenate(parts).mean(axis=0)


def sample_shots(p, shots: int, rng):
    """Finite-measurement estimate of a probability: binomial(M, p)/M.

    ``p`` is one probability (returns a float) or an array of them (returns
    an array, one binomial draw per entry in order).  ``shots`` must be a
    positive integer.
    """
    if not _count(shots):
        raise ValueError(f"shots must be a positive integer, got {shots!r}")
    values = np.asarray(p, dtype=float)
    # written so that nan fails
    outside = ~((values >= 0.0) & (values <= 1.0))
    if np.any(outside):
        raise ValueError(f"probability {values[outside].flat[0]} outside [0, 1]")
    # on a 0-d array the draw is a Python int, so one probability gives a float
    return rng.binomial(shots, values) / shots


def mitigate_rescale(
    p_hat: float, gamma: float, n_qubits: int, depth: int
) -> tuple[float, bool]:
    """Divide a survival probability by (1-gamma)^(N*D), clamped to [0, 1].

    Returns the mitigated value and a flag telling whether clamping fired.
    Raises when the rescaling factor underflows past 1e-12 (the mitigation
    has no signal left to recover at that depth).
    """
    # written so that nan fails
    if not (p_hat >= 0 and gamma >= 0 and n_qubits >= 0 and depth >= 0):
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
