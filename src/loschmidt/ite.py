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

Both start from the state's site vectors, factored in O(N + 2^N) from the
amplitudes one bit flip away from the largest one; a state that the outer
product of those vectors does not reproduce is rejected.  A plan keeps the
(N, 2) site vectors, not the 2^N amplitudes, and refuses application to a
state whose overlap with their product does not have modulus one: the gates
are only meaningful for the state the plan was built for, up to a global
phase.  The gate layers are compiled for the kernel on first use, so a
caller that reads only ``log_c_total`` (the dense oracle) compiles nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import NumericsError
from .model import HamiltonianSpec, SIGMA_X
from .statevector import LocalGate, StateVector, compile_layers, pack_layers, unitary_gates
# perfbench/tracer.py counts gates by patching ``apply_layer`` here;
# ``apply_ite`` runs the compiled ops itself, so the gates it applies are
# not counted.
from .statevector import apply_layer  # noqa: F401
from .trotter import _exp_gates, _gates_in_term_order, _stacks_by_width

#: tolerance on |<site-vector product|state>| = 1
_PRODUCT_ATOL = 1e-10


def ite_angle(h: float, g: float) -> float:
    """Rotation angle theta = arctan(tanh(h g / 2)) of one transverse-field
    site under exp(h g S^x); odd in h."""
    return float(np.arctan(np.tanh(h * g / 2.0)))


@dataclass(frozen=True, eq=False)
class ItePlan:
    """Local unitaries plus the log of the total rescaling constant.

    ``layers`` is the census of physical layers; ``compiled`` holds their
    execution form, built on first use.  ``site_vectors`` are the (N, 2)
    factors of the product state the plan was built for.
    """

    sign: int
    h: float
    n_sites: int
    gates: list[LocalGate] = field(repr=False)
    log_c_total: float
    site_vectors: np.ndarray = field(repr=False)
    layers: list[list[LocalGate]] = field(repr=False)

    @cached_property
    def compiled(self) -> tuple[tuple, ...]:
        return compile_layers(self.n_sites, self.layers)

    @property
    def c_total(self) -> float:
        return float(np.exp(self.log_c_total))

    @property
    def n_layers(self) -> int:
        return len(self.layers)


def _is_product_of(vecs: np.ndarray, state: StateVector) -> bool:
    """Whether |<v_{N-1} x ... x v_0|state>| = 1 within ``_PRODUCT_ATOL``,
    contracting one site at a time from the most significant."""
    if state.n_qubits != len(vecs):
        return False
    rest = state.amplitudes
    for vec in vecs[::-1]:
        rest = vec.conj() @ rest.reshape(2, -1)
    # written so that a nan overlap fails
    return bool(abs(abs(rest[0]) - 1.0) <= _PRODUCT_ATOL)


def _site_vectors(psi: StateVector) -> np.ndarray:
    """(N, 2) normalized single-site factors of a product state, or raise.

    With ``top`` the index of the largest amplitude, site i's factor is
    proportional to the pair of amplitudes at ``top`` with bit i cleared and
    set; the outer product of the factors must reproduce the state.
    """
    amps = psi.amplitudes
    top = int(np.argmax(np.abs(amps)))
    bits = 1 << np.arange(psi.n_qubits)
    vecs = np.stack([amps[top & ~bits], amps[top | bits]], axis=1)
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    if not _is_product_of(vecs, psi):
        raise ValueError("requires product state")
    return vecs


def apply_ite(plan: ItePlan, state: StateVector) -> StateVector:
    """Apply the plan's gates (not the scalar constant) to the state it was
    built for, or to a global-phase copy of it, in place on one copy of the
    amplitudes."""
    if not _is_product_of(plan.site_vectors, state):
        raise ValueError("ITE plan applied to a different state than it was built for")
    amps = state.amplitudes.copy()
    for layer in plan.compiled:
        for op in layer:
            op.apply(amps)
    return StateVector(state.n_qubits, amps)


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
    vecs = _site_vectors(psi)
    mags = np.abs(vecs)
    if np.any(mags.min(axis=1) >= 1e-12):
        raise ValueError("requires computational-basis product state")
    bits = mags.argmax(axis=1).tolist()
    log_c = 0.0
    sites, rotations = [], []
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
                sites.append((site,))
                rotations.append(rot)
            continue
        raise ValueError(
            "requires a transverse-field Ising structure "
            "(diagonal bonds plus sigma^x site terms)"
        )
    gates = unitary_gates(sites, np.reshape(rotations, (-1, 2, 2)))
    return ItePlan(sign, h, psi.n_qubits, gates, log_c, vecs, pack_layers(gates))


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
    order of the spec.  The terms of one support width share one batched
    eigendecomposition of their matrices (for every c^2) and one of their
    generators B (for every gate).
    """
    sign = _check_sign(sign)
    vecs = _site_vectors(psi)
    if h == 0.0:
        return ItePlan(sign, 0.0, psi.n_qubits, [], 0.0, vecs, [])
    terms = spec.terms
    if any(len(term.support) > 2 for term in terms):
        raise ValueError("term support larger than 2 sites is unsupported")
    c_sq = np.empty(len(terms))
    parts = []
    for idx, mats in _stacks_by_width(terms):
        supports = np.array([terms[k].support for k in idx])
        # phi = v[s_1] x v[s_0]: the first support site is the least significant
        phi = vecs[supports[:, 0]]
        if supports.shape[1] == 2:
            phi = (vecs[supports[:, 1], :, None] * phi[:, None, :]).reshape(len(idx), 4)
        energies, vectors = np.linalg.eigh(mats)
        weights = np.abs((vectors.conj().swapaxes(1, 2) @ phi[:, :, None])[:, :, 0]) ** 2
        c_sq[idx] = np.sum(weights * np.exp(sign * 2.0 * h * energies), axis=1)

        h_phi = (mats @ phi[:, :, None])[:, :, 0]
        mean = np.sum(phi.conj() * h_phi, axis=1).real
        v = 1j * (h_phi - mean[:, None] * phi)
        b = v[:, :, None] * phi.conj()[:, None, :] + phi[:, :, None] * v.conj()[:, None, :]
        parts.append((idx, _exp_gates(b, sign * h)))
    if np.any(c_sq <= 0):
        raise NumericsError("nonpositive rescaling constant")
    # summed left to right in term order, as a term-by-term accumulation would
    log_c = sum((0.5 * np.log(c_sq)).tolist(), 0.0)
    gates = _gates_in_term_order(terms, parts)
    return ItePlan(sign, h, psi.n_qubits, gates, log_c, vecs, pack_layers(gates, ordered=True))
