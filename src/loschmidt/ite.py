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

Each builder returns one ``ItePair`` for both signs, from one
factorisation of the state into its (N, 2) site vectors, in O(N + 2^N)
from the amplitudes one bit flip away from the largest one; a state that
the outer product of those vectors does not reproduce is rejected.  The
pair computes both log constants at construction.  Its canonical form is
one pair of checked gate stacks on one support tuple (term order, after
the identity drop and one batched unitarity check), built on first use by
the same constructor as a Trotter plan's; the general form takes one
``eigh`` of the term matrices (for both constants) and one of the
generators B (for both signs' gates) per support width.  The layer index,
the census ``n_layers``, ``compiled`` (one layer tuple per sign, so errors
can act between layers) and the block schedule of ``kets()`` (V+- psi
grown from the site vectors in blocks of up to five sites, for circuits
with no error between the ITE layers) are each derived once from the
shared supports.  The pair keeps the site vectors, not the 2^N amplitudes,
and ``apply_ite`` refuses a state whose overlap with their product does not
have modulus one: the gates are only meaningful for the state the pair was
built for, up to a global phase.  A caller that reads only ``log_c`` (the
dense oracle) builds no gates.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import NumericsError
from .model import HamiltonianSpec, SIGMA_X
from .statevector import (
    GateStack,
    StateVector,
    _block_schedule,
    _compile_stack,
    _layer_index,
    _product_ket,
    _run_layers,
)
# perfbench/tracer.py counts gates by patching ``apply_layer`` here;
# ``apply_ite`` calls the runner directly, so the gates it applies are not
# counted.
from .statevector import apply_layer  # noqa: F401
from .trotter import _exp_gates, _stack_in_term_order, _stacks_by_width

#: tolerance on |<site-vector product|state>| = 1
_PRODUCT_ATOL = 1e-10


def ite_angle(h: float, g: float) -> float:
    """Rotation angle theta = arctan(tanh(h g / 2)) of one transverse-field
    site under exp(h g S^x); odd in h."""
    return float(np.arctan(np.tanh(h * g / 2.0)))


@dataclass(frozen=True, eq=False)
class ItePair:
    """The local unitaries of exp(+hH) and exp(-hH) on one product state,
    with ``log_c``, the logs of their rescaling constants (plus, minus).

    ``stacks`` (plus, minus) is built on first use by ``build_stacks`` and
    checked to put both signs' gates on one support tuple: the signs differ
    only in the sign of h inside each gate.  The ordered ``layer_index``
    and ``n_layers``, ``compiled`` (the ops of each layer, one tuple per
    sign, for circuits with errors between layers) and the block schedule
    of ``kets()`` are derived once from those supports.  ``kets()`` grows
    both signs' gates on the product of the ``site_vectors``, the (N, 2)
    factors of the state the pair was built for, for circuits with no error
    between the ITE layers.  A caller that reads only ``log_c`` (the dense
    oracle) builds no gates.
    """

    n_sites: int
    log_c: tuple[float, float]
    site_vectors: np.ndarray = field(repr=False)
    build_stacks: Callable[[], tuple[GateStack, GateStack]] = field(repr=False)

    @cached_property
    def stacks(self) -> tuple[GateStack, GateStack]:
        plus, minus = self.build_stacks()
        if plus.supports != minus.supports:
            raise NumericsError("the plus and minus ITE gates act on different supports")
        return plus, GateStack(plus.supports, minus.matrices)

    @property
    def supports(self) -> tuple[tuple[int, ...], ...]:
        return self.stacks[0].supports

    @cached_property
    def layer_index(self) -> list[tuple[int, ...]]:
        # gates keep their term order; on the 1-site gates of the closed
        # form this is the same packing as for commuting gates
        return _layer_index(self.supports, ordered=True)

    @property
    def n_layers(self) -> int:
        return len(self.layer_index)

    @cached_property
    def compiled(self) -> tuple[tuple[tuple, ...], ...]:
        return tuple([_compile_stack(self.n_sites, s, self.layer_index) for s in self.stacks])

    def kets(self) -> tuple[np.ndarray, ...]:
        """The amplitudes of each sign's gates applied to the product of the
        site vectors, grown from site 0 (``_product_ket``) on one block
        schedule: V+- psi, up to a global phase, with no error between the
        layers."""
        schedule = _block_schedule(self.supports)
        return tuple([_product_ket(self.site_vectors, s, schedule) for s in self.stacks])

    # perfbench/tracer.py counts the pair's gates through this name
    @property
    def gates(self) -> tuple[tuple[int, ...], ...]:
        return self.supports + self.supports


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


def apply_ite(pair: ItePair, state: StateVector) -> tuple[StateVector, ...]:
    """Apply each sign's gates (not the scalar constants) to the state the
    pair was built for, or to a global-phase copy of it, each in place on
    one copy of the amplitudes: (V+ state, V- state)."""
    if not _is_product_of(pair.site_vectors, state):
        raise ValueError("ITE plan applied to a different state than it was built for")
    return tuple([_run_layers(state, layers) for layers in pair.compiled])


def build_ite_plan_tfim(spec: HamiltonianSpec, psi: StateVector, h: float) -> ItePair:
    """Closed-form plans for exp(+-h*H) of the Ising chain on a basis product
    state.

    Diagonal ("zz") terms contribute only exp(sign*h*<H_zz>) to the constant.
    Each transverse-field term a*sigma^x rotates its site by sign*theta
    towards the flipped state and contributes sqrt(cosh(2 a h)) -- for the
    standard field term a = g/2 that is the usual sqrt(cosh(h g)).
    """
    vecs = _site_vectors(psi)
    mags = np.abs(vecs)
    if np.any(mags.min(axis=1) >= 1e-12):
        raise ValueError("requires computational-basis product state")
    bits = mags.argmax(axis=1).tolist()
    log_plus = log_minus = 0.0
    idx, turns = [], []
    for k, term in enumerate(spec.terms):
        mat = term.matrix
        if np.max(np.abs(mat - np.diag(np.diagonal(mat)))) < 1e-12:
            # diagonal term: basis state is an eigenstate
            loc = sum(bits[s] << j for j, s in enumerate(term.support))
            energy = h * float(mat[loc, loc].real)
            log_plus += energy
            log_minus -= energy
            continue
        if len(term.support) == 1 and np.max(np.abs(mat - mat[0, 1].real * SIGMA_X)) < 1e-12:
            a = float(mat[0, 1].real)  # term = a * sigma^x
            log_cosh = 0.5 * np.log(np.cosh(2.0 * a * h))
            log_plus += log_cosh
            log_minus += log_cosh
            idx.append(k)
            turns.append((ite_angle(h, 2.0 * a), bits[term.support[0]]))
            continue
        raise ValueError(
            "requires a transverse-field Ising structure "
            "(diagonal bonds plus sigma^x site terms)"
        )

    def rotations(sign: int) -> np.ndarray:
        turned = []
        for angle, bit in turns:
            c, s = np.cos(sign * angle), np.sin(sign * angle)
            turned.append([[c, -s], [s, c]] if bit == 0 else [[c, s], [-s, c]])
        # a theta = 0 rotation is the identity, which the stack drops
        return np.array(turned, dtype=complex).reshape(-1, 2, 2)

    def stacks() -> tuple[GateStack, ...]:
        return tuple([_stack_in_term_order(spec.terms, [(idx, rotations(sign))])
                      for sign in (1, -1)])

    return ItePair(psi.n_qubits, (log_plus, log_minus), vecs, stacks)


def build_ite_plan_general(spec: HamiltonianSpec, psi: StateVector, h: float) -> ItePair:
    """First-order plans for exp(+-h*H) on an arbitrary product state.

    Per term: the constant is sqrt(<psi| exp(sign*2h*H_m) |psi>) evaluated on
    the 2- or 4-dimensional support, and the gate is exp(-i*sign*B*h) with
    the minimally completed Hermitian B satisfying
    B |psi> = i (H_m - <H_m>) |psi> on the support.  In a basis whose first
    vector is the local restriction phi of psi only the first column/row of
    B is forced; with v = i (H_m - <H_m>) phi (orthogonal to phi) the
    minimal completion is B = v phi^dag + phi v^dag.  Gates keep the term
    order of the spec.  The terms of one support width share one batched
    eigendecomposition of their matrices (for both signs' c^2) and one of
    their generators B (for both signs' gates, which differ only in the
    sign of h in the phases).
    """
    vecs = _site_vectors(psi)
    if h == 0.0:
        return ItePair(psi.n_qubits, (0.0, 0.0), vecs, lambda: (GateStack((), ()),) * 2)
    terms = spec.terms
    if any(len(term.support) > 2 for term in terms):
        raise ValueError("term support larger than 2 sites is unsupported")
    c_sq = np.empty((2, len(terms)))  # rows: plus, minus
    widths = []
    for idx, mats in _stacks_by_width(terms):
        supports = np.array([terms[k].support for k in idx])
        # phi = v[s_1] x v[s_0]: the first support site is the least significant
        phi = vecs[supports[:, 0]]
        if supports.shape[1] == 2:
            phi = (vecs[supports[:, 1], :, None] * phi[:, None, :]).reshape(len(idx), 4)
        energies, vectors = np.linalg.eigh(mats)
        weights = np.abs((vectors.conj().swapaxes(1, 2) @ phi[:, :, None])[:, :, 0]) ** 2
        for row, sign in zip(c_sq, (1, -1)):
            row[idx] = np.sum(weights * np.exp(sign * 2.0 * h * energies), axis=1)
        widths.append((idx, mats, phi))
    if np.any(c_sq <= 0):
        raise NumericsError("nonpositive rescaling constant")

    def stacks() -> tuple[GateStack, GateStack]:
        parts = []  # (term indices, plus gates, minus gates) per width
        for idx, mats, phi in widths:
            h_phi = (mats @ phi[:, :, None])[:, :, 0]
            mean = np.sum(phi.conj() * h_phi, axis=1).real
            v = 1j * (h_phi - mean[:, None] * phi)
            b = v[:, :, None] * phi.conj()[:, None, :] + phi[:, :, None] * v.conj()[:, None, :]
            parts.append((idx, *_exp_gates(b, h, -h)))
        return (_stack_in_term_order(terms, [(idx, plus) for idx, plus, _ in parts]),
                _stack_in_term_order(terms, [(idx, minus) for idx, _, minus in parts]))

    # summed left to right in term order, as a term-by-term accumulation would
    log_c = tuple(sum((0.5 * np.log(row)).tolist(), 0.0) for row in c_sq)
    return ItePair(psi.n_qubits, log_c, vecs, stacks)
