"""Short imaginary-time evolution on product states.

exp(+-h H) is not unitary, but on a product state each local term H_m can be
traded for a local unitary plus a classically tracked constant,

    exp(+-h H_m) |psi>  ~=  c_m V_m |psi>,
    c_m = sqrt(<psi| exp(+-2 h H_m) |psi>),

accurate to first order in h.  The product over all terms approximates the
full imaginary-time step; the constants are accumulated as a log-sum so that
N-fold products survive large N.

Two constructions are provided:

* ``build_ite_plan_tfim`` — the closed form for the transverse-field Ising
  chain acting on a computational-basis product state.  The ferromagnetic
  bonds are diagonal and contribute only the scalar exp(+-h <H_zz>); each
  transverse-field site contributes a rotation by theta = arctan tanh(h g/2)
  and a factor sqrt(cosh(h g)).

* ``build_ite_plan_general`` — works for any product state and any 1- or
  2-site Hermitian terms.  For each term a Hermitian generator B is
  completed from the defining relation B |psi> = i (H_m - <H_m>) |psi> on
  the local support (minimal completion: everything outside the forced
  column/row is zero), and the gate is exp(-i * sign * B * h).

Plans fingerprint the state they were built for and refuse application to a
different one: the gates are only meaningful for that state.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .exceptions import NumericsError
from .model import HamiltonianSpec, SIGMA_X
from .statevector import LocalGate, StateVector, apply_layer, compile_layers, pack_layers
from .trotter import _exp_gate, _is_identity


def ite_angle(h: float, g: float) -> float:
    """Rotation angle theta = arctan(tanh(h g / 2)) of one transverse-field
    site under exp(h g S^x); odd in h."""
    return float(np.arctan(np.tanh(h * g / 2.0)))


@dataclass(frozen=True, eq=False)
class ItePlan:
    """Local unitaries plus the log of the total rescaling constant.

    ``layers`` is the census of physical layers; ``compiled`` holds their
    execution form, built once at construction.
    """

    sign: int
    h: float
    n_sites: int
    gates: list[LocalGate] = field(repr=False)
    log_c_total: float
    psi_fingerprint: bytes = field(repr=False)
    layers: list[list[LocalGate]] = field(repr=False)
    compiled: tuple[tuple, ...] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "compiled", compile_layers(self.n_sites, self.layers))

    @property
    def c_total(self) -> float:
        return float(np.exp(self.log_c_total))

    @property
    def n_layers(self) -> int:
        return len(self.layers)


def _fingerprint(state: StateVector) -> bytes:
    return hashlib.sha256(np.ascontiguousarray(state.amplitudes).tobytes()).digest()


def apply_ite(plan: ItePlan, state: StateVector) -> StateVector:
    """Apply the plan's gates (not the scalar constant) to the state it was
    built for."""
    if _fingerprint(state) != plan.psi_fingerprint:
        raise ValueError("ITE plan applied to a different state than it was built for")
    for layer in plan.compiled:
        state = apply_layer(state, layer)
    return state


def _basis_bits(psi: StateVector) -> list[int]:
    """Bit string of a computational-basis product state, or raise."""
    amps = psi.amplitudes
    idx = int(np.argmax(np.abs(amps)))
    on_basis = abs(abs(amps[idx]) - 1.0) < 1e-12 and np.all(
        np.abs(np.delete(amps, idx)) < 1e-12
    )
    if not on_basis:
        raise ValueError("requires computational-basis product state")
    return [(idx >> i) & 1 for i in range(psi.n_qubits)]


def _check_sign(sign: int) -> int:
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return sign


def build_ite_plan_tfim(
    spec: HamiltonianSpec, psi: StateVector, h: float, sign: int
) -> ItePlan:
    """Closed-form plan for exp(sign*h*H) of the Ising chain on a basis
    product state.

    Diagonal ("zz") terms contribute only exp(sign*h*<H_zz>) to the constant.
    Each transverse-field term a*sigma^x rotates its site by sign*theta
    towards the flipped state and contributes sqrt(cosh(2 a h)) -- for the
    standard field term a = g/2 that is the usual sqrt(cosh(h g)).
    """
    sign = _check_sign(sign)
    bits = _basis_bits(psi)
    log_c = 0.0
    gates: list[LocalGate] = []
    for term in spec.terms:
        mat = term.matrix
        if np.max(np.abs(mat - np.diag(np.diagonal(mat)))) < 1e-12:
            # diagonal term: basis state is an eigenstate
            loc = sum(bits[s] << j for j, s in enumerate(term.support))
            log_c += sign * h * float(mat[loc, loc].real)
            continue
        if len(term.support) == 1 and np.max(np.abs(mat - mat[0, 1].real * SIGMA_X)) < 1e-12:
            a = float(mat[0, 1].real)  # term = a * sigma^x
            theta = sign * ite_angle(h, 2.0 * a)
            log_c += 0.5 * np.log(np.cosh(2.0 * a * h))
            site = term.support[0]
            c, s = np.cos(theta), np.sin(theta)
            if bits[site] == 0:
                rot = np.array([[c, -s], [s, c]])
            else:
                rot = np.array([[c, s], [-s, c]])
            if abs(theta) > 0:
                gates.append(LocalGate((site,), rot))
            continue
        raise ValueError(
            "requires a transverse-field Ising structure "
            "(diagonal bonds plus sigma^x site terms)"
        )
    return ItePlan(sign, h, psi.n_qubits, gates, log_c, _fingerprint(psi), pack_layers(gates))


def _local_vectors(psi: StateVector) -> list[np.ndarray]:
    """Single-site factors of a product state, or raise for entangled input."""
    n = psi.n_qubits
    tensor = psi.amplitudes.reshape([2] * n)
    vecs = []
    for site in range(n):
        axis = n - 1 - site
        mat = np.moveaxis(tensor, axis, 0).reshape(2, -1)
        rho = mat @ mat.conj().T
        evals, evecs = np.linalg.eigh(rho)
        if evals[0] > 1e-10:
            raise ValueError("requires product state")
        vecs.append(evecs[:, 1])
    # verify reconstruction (catches classically correlated inputs)
    recon = vecs[0]
    for v in vecs[1:]:
        recon = np.kron(v, recon)
    if abs(abs(np.vdot(recon, psi.amplitudes)) - 1.0) > 1e-10:
        raise ValueError("requires product state")
    return vecs


def _expm_hermitian(mat: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eigh(mat)
    return (evecs * np.exp(evals)) @ evecs.conj().T


def build_ite_plan_general(
    spec: HamiltonianSpec, psi: StateVector, h: float, sign: int
) -> ItePlan:
    """First-order plan for exp(sign*h*H) on an arbitrary product state.

    Per term: the constant is sqrt(<psi| exp(sign*2h*H_m) |psi>) evaluated on
    the 2- or 4-dimensional support, and the gate is exp(-i*sign*B*h) with
    the minimally completed Hermitian B satisfying
    B |psi> = i (H_m - <H_m>) |psi> on the support.  In a basis whose first
    vector is the local restriction phi of psi only the first column/row of
    B is forced; with v = i (H_m - <H_m>) phi (orthogonal to phi) the
    minimal completion is B = v phi^dag + phi v^dag.  Gates keep the term
    order of the spec.
    """
    sign = _check_sign(sign)
    locals_ = _local_vectors(psi)
    if h == 0.0:
        return ItePlan(sign, 0.0, psi.n_qubits, [], 0.0, _fingerprint(psi), [])
    log_c = 0.0
    gates: list[LocalGate] = []
    for term in spec.terms:
        if len(term.support) > 2:
            raise ValueError("term support larger than 2 sites is unsupported")
        phi = locals_[term.support[0]]
        for s in term.support[1:]:
            phi = np.kron(locals_[s], phi)
        mat = term.matrix
        c_sq = np.vdot(phi, _expm_hermitian(sign * 2.0 * h * mat) @ phi).real
        if c_sq <= 0:
            raise NumericsError("nonpositive rescaling constant")
        log_c += 0.5 * np.log(c_sq)

        mean = np.vdot(phi, mat @ phi).real
        v = 1j * (mat @ phi - mean * phi)
        b = np.outer(v, phi.conj()) + np.outer(phi, v.conj())

        gate = _exp_gate(b, sign * h)
        if not _is_identity(gate):
            gates.append(LocalGate(term.support, gate))
    layers = pack_layers(gates, ordered=True)
    return ItePlan(sign, h, psi.n_qubits, gates, log_c, _fingerprint(psi), layers)
