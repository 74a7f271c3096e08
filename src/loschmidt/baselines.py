"""Comparison protocols and the resource-cost calculator.

``hadamard_test`` simulates the standard ancilla interference circuit: the
(N+1)-qubit register applies Hadamard, optionally S^dag, the Trotterized
evolution controlled on the ancilla, Hadamard again, and measures the
ancilla; 2 p0 - 1 estimates Re G(t) (or Im G(t) with the S^dag branch).
With the ancilla as the most significant qubit the register is two halves,
and the controlled evolution is the compiled Trotter plan run on the
ancilla-1 half alone; the swap-network overhead of running it on hardware
enters only the cost calculator.

``sequential_interferometry`` transfers a known reference phase through a
chain of product states differing by single spin flips, interfering each
consecutive pair in superposition states (|psi_i> + e^{i theta}|psi_j>)/sqrt(2).
Each chain state is evolved once; by linearity the evolved superposition is
the same combination of the evolved pair.  Two theta values per pair fix the
unknown cosine phase.

``resource_cost`` evaluates the circuit-depth and measurement-count scaling
formulas of the three methods with unit prefactors; the outputs are
comparative estimates, not absolute predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import _count, _finite, _nonnegative, _order, _positive
from .exceptions import NumericsError
from .model import HamiltonianSpec
from .noise import sample_shots
from .statevector import StateVector, inner_product
from .trotter import build_plan, evolve


@dataclass
class CostInput:
    """Parameters of the scaling formulas: system size N, evolution time t,
    target additive error epsilon, Trotter order p, spatial dimension d,
    amplitude scale r, and the statistical factor I (or its sequential
    analogue)."""

    method: str
    n_sites: int
    t: float
    epsilon: float
    order: int = 2
    dimension: int = 1
    r: float = 1.0
    i_factor: float = 1.0

    def __post_init__(self):
        if self.method not in ("hadamard", "sequential", "this_work"):
            raise ValueError("method must be hadamard, sequential or this_work")
        for name, accepts, what in _COST_INPUT_CHECKS:
            value = getattr(self, name)
            if not accepts(value):
                raise ValueError(f"{name} must be {what}, got {value!r}")


#: each number of CostInput, with the predicate of its key in the config's
#: ``cost`` block: values the scaling laws can take
_COST_INPUT_CHECKS = (
    ("n_sites", _count, "a positive integer"),
    ("t", _nonnegative, "a nonnegative number"),
    ("epsilon", _positive, "a positive number"),
    ("order", _order, "one of 1, 2, 4"),
    ("dimension", _count, "a positive integer"),
    ("r", _nonnegative, "a nonnegative number"),
    ("i_factor", _finite, "a finite number"),
)


@dataclass
class CostEstimate:
    depth: float
    measurements: float


def resource_cost(inp: CostInput) -> CostEstimate:
    """Unit-prefactor evaluation of the depth/measurement scaling laws."""
    n, t, eps, p = inp.n_sites, inp.t, inp.epsilon, inp.order
    d, r, i_fac = inp.dimension, inp.r, inp.i_factor
    if inp.method == "hadamard":
        depth = t ** (1 + 1 / p) * n ** (1 + 1 / d + 1 / p) / eps ** (1 / p)
        meas = 1 / eps**2
    elif inp.method == "sequential":
        depth = r ** (1 / p) * t ** (1 + 1 / p) * n ** (2 / p) / eps ** (1 / p)
        meas = i_fac**2 * r**2 * n**2 / eps**2
    else:
        depth = r ** (1 / p) * t ** (1 + 2 / p) * n ** (1 / p) / eps ** (1 / p)
        meas = i_fac**2 * r**3 * t**3 * n / eps**3
    return CostEstimate(depth=float(depth), measurements=float(meas))


def hadamard_test(
    spec: HamiltonianSpec,
    psi: StateVector,
    t: float,
    tau: float,
    order: int = 2,
    part: str = "real",
    shots: int | None = None,
    rng=None,
) -> float:
    """Ancilla-interference estimate of Re or Im <psi| U_trotter(t) |psi>.

    ``shots=None`` returns the exact-probability value (M -> infinity);
    otherwise the ancilla measurement is sampled ``shots`` times from
    ``rng``, which is then required.
    """
    if part not in ("real", "imag"):
        raise ValueError("part must be 'real' or 'imag'")
    _check_rng(shots, rng)
    # after the first Hadamard both halves of the register hold psi/sqrt(2);
    # S^dag and the controlled evolution act on the ancilla-1 half only
    half = psi.amplitudes / np.sqrt(2)
    branch = StateVector(psi.n_qubits, -1j * half if part == "imag" else half)
    evolved = evolve(branch, build_plan(spec, t, tau, order)).amplitudes
    # the last Hadamard leaves (a0 + a1)/sqrt(2) on the ancilla-0 half
    p_zero = float(np.linalg.norm(half + evolved) ** 2) / 2
    return 2.0 * _estimate(p_zero, shots, rng) - 1.0


@dataclass
class InterferometryResult:
    """Chained phase plus per-step diagnostics."""

    phase: float
    step_phases: list[float]
    magnitudes: list[tuple[float, float, float]]  # (r_ii, r_ij, r_jj) per step
    i_tilde: float
    fallback_steps: list[int]


def _survival(bra: StateVector, ket: StateVector) -> float:
    return float(np.abs(np.vdot(bra.amplitudes, ket.amplitudes)) ** 2)


def _check_rng(shots, rng) -> None:
    """Shots are drawn from a caller's generator, never an unseeded one."""
    if shots is not None and rng is None:
        raise ValueError("shots need an rng: pass a seeded numpy Generator")


def _estimate(p: float, shots, rng) -> float:
    """``p`` itself without shots, else its shot estimate (clipped to [0, 1]
    first, since exact probabilities carry rounding error)."""
    if shots is None:
        return p
    return sample_shots(min(max(p, 0.0), 1.0), shots, rng)


def sequential_interferometry(
    spec: HamiltonianSpec,
    psi_sequence,
    t: float,
    tau: float,
    order: int = 2,
    anchor_phase: float = 0.0,
    thetas=(0.0, np.pi / 2),
    shots: int | None = None,
    rng=None,
    fallback_threshold: float = 1e-3,
) -> InterferometryResult:
    """Transfer the phase of <psi_0|U(t)|psi_0> along a chain of states.

    ``psi_sequence`` lists product states from the reference to the target,
    consecutive entries orthogonal (single spin flips).  Per pair (i, j) the
    superposition (|psi_i> + e^{i theta}|psi_j>)/sqrt(2) is evolved and
    projected onto psi_i, then onto psi_j; two theta values per projection
    fix first phi_ij - phi_ii and then phi_jj - phi_ij.  When the cross
    magnitude r_ij falls below ``fallback_threshold`` the pair is linked in
    one solve by projecting onto the unshifted superposition instead.
    ``shots=None`` uses the exact probabilities; otherwise each is sampled
    ``shots`` times from ``rng``, which is then required.

    The two-step solver identifies <psi_j|U|psi_i> with <psi_i|U|psi_j>,
    exact when the evolution matrix is symmetric in the computational basis
    (real Hamiltonian terms, as for the built-in chain).
    """
    _check_rng(shots, rng)
    th0, th1 = float(thetas[0]), float(thetas[1])
    if abs(np.sin(th1 - th0)) < 1e-9:
        raise ValueError("theta values must differ by a non-multiple of pi")
    # cos(chi + th) = cos(th) cos(chi) - sin(th) sin(chi), at th0 and th1
    solve_matrix = np.array([[np.cos(th0), -np.sin(th0)], [np.cos(th1), -np.sin(th1)]])
    states = list(psi_sequence)
    if len(states) == 0:
        raise ValueError("empty state sequence")
    if len(states) == 1:
        return InterferometryResult(anchor_phase, [], [], 0.0, [])
    plan = build_plan(spec, t, tau, order)
    evolved = [evolve(s, plan) for s in states]

    phi = anchor_phase
    step_phases: list[float] = []
    mags: list[tuple[float, float, float]] = []
    fallbacks: list[int] = []
    inv_r_tilde_sq_sum = 0.0

    for idx in range(len(states) - 1):
        psi_i, psi_j = states[idx], states[idx + 1]
        if abs(inner_product(psi_i, psi_j)) > 1e-9:
            raise ValueError("consecutive states must be orthogonal")
        r_ii = np.sqrt(_estimate(_survival(psi_i, evolved[idx]), shots, rng))
        r_ij = np.sqrt(_estimate(_survival(psi_i, evolved[idx + 1]), shots, rng))
        r_jj = np.sqrt(_estimate(_survival(psi_j, evolved[idx + 1]), shots, rng))
        mags.append((float(r_ii), float(r_ij), float(r_jj)))

        def evolved_superposition(theta):
            # U (psi_i + e^{i theta} psi_j)/sqrt(2), by linearity
            amps = evolved[idx].amplitudes + np.exp(1j * theta) * evolved[idx + 1].amplitudes
            return StateVector(spec.n_sites, amps / np.sqrt(2))

        def two_angle_phase(bra, r_a, r_b, weight):
            # chi from m = [r_a^2 + r_b^2 + 2 r_a r_b cos(chi + th)] / weight,
            # the projection onto bra measured at th0 and th1
            cs = []
            for th in (th0, th1):
                m = _estimate(_survival(bra, evolved_superposition(th)), shots, rng)
                cs.append(np.clip((weight * m - r_a**2 - r_b**2) / (2 * r_a * r_b), -1, 1))
            cos_chi, sin_chi = np.linalg.solve(solve_matrix, cs)
            return float(np.arctan2(sin_chi, cos_chi))

        if r_ij > fallback_threshold and min(r_ii, r_jj) > fallback_threshold:
            # step 1 projects onto psi_i (chi = phi_ij - phi_ii), step 2
            # onto psi_j (chi = phi_jj - phi_ij)
            step = two_angle_phase(psi_i, r_ii, r_ij, 2) + two_angle_phase(psi_j, r_jj, r_ij, 2)
            inv_r_tilde_sq_sum += 1.0 / (r_ii * r_ij) + 1.0 / (r_ij * r_jj)
        else:
            # r_ij ~ 0: project onto the theta = 0 superposition, which
            # links phi_jj to phi_ii directly (chi = phi_jj - phi_ii, with
            # weight 4)
            if r_ii * r_jj < fallback_threshold**2:
                raise NumericsError(
                    f"unresolvable step {idx}: fallback amplitudes vanish as well"
                )
            fallbacks.append(idx)
            bra = StateVector(spec.n_sites, (psi_i.amplitudes + psi_j.amplitudes) / np.sqrt(2))
            step = two_angle_phase(bra, r_ii, r_jj, 4)
            inv_r_tilde_sq_sum += 2.0 / (r_ii * r_jj)
        step_phases.append(float(step))
        phi += step

    i_tilde = inv_r_tilde_sq_sum / (len(states) - 1)
    return InterferometryResult(
        phase=float(phi),
        step_phases=step_phases,
        magnitudes=mags,
        i_tilde=float(i_tilde),
        fallback_steps=fallbacks,
    )
