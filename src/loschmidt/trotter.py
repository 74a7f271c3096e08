"""Real-time Trotter circuits of order 1, 2 and 4 for local 1D Hamiltonians.

One step alternates between the term groups of the Hamiltonian (for the
Ising chain: the ferromagnetic bonds, then the transverse field).  Within a
group the commuting terms are packed into brickwork layers of disjoint
supports; the layer census is what the noise model and the rescaling
mitigation exponent count, so it is fixed at plan build time and never
re-derived.

Order 2 is the symmetric splitting A/2 B A/2; order 4 is the Suzuki
recursion on the order-2 step.  A plan holds the step's distinct checked
gates as one ``GateStack`` and one tuple of gate indices per physical layer,
compiled once at construction through ``_compile_stack``, so noise still
has one insertion point per physical layer.  The mirrored tail of a
symmetric step and the repeated outer steps of order 4 repeat the index
tuples of their first occurrence, and so share its compiled ops, including
each folded diagonal layer's phase vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import HamiltonianSpec
from .statevector import (
    GateStack,
    StateVector,
    _check_unitary,
    _compile_stack,
    _layer_index,
    _run_layers,
)
# perfbench/tracer.py counts gates by patching ``apply_layer`` here; ``evolve``
# calls the runner directly, so the gates it applies are not counted.
from .statevector import apply_layer  # noqa: F401

#: coefficient of the Suzuki order-4 recursion U2(a t)^2 U2((1-4a) t) U2(a t)^2
_SUZUKI_A = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))

_IDENTITY_ATOL = 1e-12


def _exp_gates(mats: np.ndarray, *thetas: float) -> list[np.ndarray]:
    """exp(-i theta M) for each Hermitian matrix of a stack, one stack per
    theta, from one batched eigendecomposition."""
    energies, vectors = np.linalg.eigh(mats)
    adjoint = vectors.conj().swapaxes(1, 2)
    return [(vectors * np.exp(-1j * theta * energies)[:, None, :]) @ adjoint for theta in thetas]


def _stacks_by_width(terms):
    """(term indices, stacked term matrices), one pair per support width
    present in ``terms``."""
    for width in (1, 2):
        idx = [k for k, term in enumerate(terms) if len(term.support) == width]
        if idx:
            yield idx, np.stack([terms[k].matrix for k in idx])


def _stack_in_term_order(terms, parts) -> GateStack:
    """The checked ``GateStack`` on the terms' supports from (term indices,
    gate stack) parts, in term order; gates that equal the identity are
    dropped.  The kept gates of a part are checked for unitarity together."""
    kept = {}
    for idx, stack in parts:
        identity = np.max(np.abs(stack - np.eye(stack.shape[-1])), axis=(1, 2)) < _IDENTITY_ATOL
        mats = stack[~identity]
        _check_unitary(mats)
        kept.update(zip([k for k, drop in zip(idx, identity) if not drop], mats))
    order = sorted(kept)
    return GateStack(tuple(terms[k].support for k in order), tuple(kept[k] for k in order))


def _group_layers(spec: HamiltonianSpec, label: str, dt: float, gates: GateStack):
    """Brickwork layers of exp(-i dt H_j) for all terms of one group, as
    tuples of indices into ``gates`` (a ``GateStack`` of lists), which gets
    the group's checked gates appended.

    Gates that equal the identity (zero-coefficient terms) are dropped, so
    they neither cost work nor count as noise locations.
    """
    terms = [term for term in spec.terms if term.group == label]
    parts = [(idx, *_exp_gates(mats, dt)) for idx, mats in _stacks_by_width(terms)]
    group = _stack_in_term_order(terms, parts)
    start = len(gates.supports)
    gates.supports.extend(group.supports)
    gates.matrices.extend(group.matrices)
    return _layer_index(group.supports, start=start)


def _step_layers(spec: HamiltonianSpec, dt: float, order: int, gates: GateStack):
    """The layer index of one step; its gates are appended to ``gates``."""
    labels = spec.group_labels()
    if order == 1:
        return [layer for label in labels for layer in _group_layers(spec, label, dt, gates)]
    if order == 2:
        if len(labels) == 1:
            return _group_layers(spec, labels[0], dt, gates)
        head = [
            layer for label in labels[:-1] for layer in _group_layers(spec, label, dt / 2, gates)
        ]
        middle = _group_layers(spec, labels[-1], dt, gates)
        return head + middle + head[::-1]
    if order == 4:
        outer = _step_layers(spec, _SUZUKI_A * dt, 2, gates)
        inner = _step_layers(spec, (1 - 4 * _SUZUKI_A) * dt, 2, gates)
        return outer + outer + inner + outer + outer
    raise ValueError(f"unsupported Trotter order {order}; choose 1, 2 or 4")


@dataclass(frozen=True, eq=False)
class TrotterPlan:
    """Gate layers of one Trotter step, repeated ``n_steps``.

    ``gate_stack`` holds the step's distinct checked gates and
    ``layer_index`` one tuple of gate indices per physical layer, the census
    of the step.  ``compiled`` holds their execution form, built once at
    construction.
    """

    order: int
    tau: float
    n_steps: int
    n_sites: int
    gate_stack: GateStack = field(repr=False)
    layer_index: tuple[tuple[int, ...], ...] = field(repr=False)
    compiled: tuple[tuple, ...] = field(init=False, repr=False)

    def __post_init__(self):
        compiled = _compile_stack(self.n_sites, self.gate_stack, self.layer_index)
        object.__setattr__(self, "compiled", compiled)

    # perfbench/tracer.py counts the gates of a step through this name
    @property
    def step_layers(self) -> tuple[tuple[int, ...], ...]:
        return self.layer_index

    @property
    def layers_per_step(self) -> int:
        """Physical layer count of one step (the noise-insertion census)."""
        return len(self.layer_index)


def build_plan(spec: HamiltonianSpec, t: float, tau: float, order: int = 2) -> TrotterPlan:
    """Trotter plan covering total time ``t`` in steps of ``tau``.

    ``t/tau`` must be an integer to within 4 ulp; the layer decomposition of
    a single step is built once and reused for every step.
    """
    if t < 0:
        raise ValueError("total time must be nonnegative")
    if tau <= 0:
        raise ValueError("Trotter step must be positive")
    ratio = t / tau
    n_steps = int(round(ratio))
    if abs(ratio - n_steps) > 4 * np.finfo(float).eps * max(1.0, abs(ratio)):
        raise ValueError(f"incommensurate step: t/tau = {ratio} is not an integer")
    gates = GateStack([], [])
    index = _step_layers(spec, tau, order, gates) if n_steps > 0 else []
    stack = GateStack(tuple(gates.supports), tuple(gates.matrices))
    return TrotterPlan(order, tau, n_steps, spec.n_sites, stack, tuple(index))


def evolve(state: StateVector, plan: TrotterPlan, n_steps: int | None = None) -> StateVector:
    """Apply ``n_steps`` Trotter steps (default: the plan's full count) to
    one copy of the amplitudes; zero steps return ``state`` itself, a
    negative count raises ``ValueError``."""
    if 2**plan.n_sites != state.amplitudes.shape[0]:
        raise ValueError("state size does not match plan")
    k = plan.n_steps if n_steps is None else n_steps
    if k < 0:
        raise ValueError(f"n_steps must be nonnegative, got {k}")
    if k == 0:
        return state
    return _run_layers(state, plan.compiled * k)
