"""Real-time Trotter circuits of order 1, 2 and 4 for local 1D Hamiltonians.

One step alternates between the term groups of the Hamiltonian (for the
Ising chain: the ferromagnetic bonds, then the transverse field).  Within a
group the commuting terms are packed into brickwork layers of disjoint
supports; the layer census is what the noise model and the rescaling
mitigation exponent count, so it is fixed at plan build time and never
re-derived.

Order 2 is the symmetric splitting A/2 B A/2; order 4 is the Suzuki
recursion on the order-2 step.  A plan compiles its step once, layer for
layer, into the form ``apply_layer`` runs (see ``compile_layers``), so noise
still has one insertion point per physical layer.  The mirrored tail of a
symmetric step holds the head's layer objects, and so shares their compiled
form, including each folded diagonal layer's phase vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import HamiltonianSpec
from .statevector import LocalGate, StateVector, compile_layers, pack_layers, unitary_gates
# perfbench/tracer.py counts gates by patching ``apply_layer`` here; ``evolve``
# runs the compiled ops itself, so the gates it applies are not counted.
from .statevector import apply_layer  # noqa: F401

#: coefficient of the Suzuki order-4 recursion U2(a t)^2 U2((1-4a) t) U2(a t)^2
_SUZUKI_A = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))

_IDENTITY_ATOL = 1e-12


def _exp_gates(mats: np.ndarray, theta: float) -> np.ndarray:
    """exp(-i theta M) for each Hermitian matrix of a stack, by one batched
    eigendecomposition."""
    energies, vectors = np.linalg.eigh(mats)
    phases = np.exp(-1j * theta * energies)[:, None, :]
    return (vectors * phases) @ vectors.conj().swapaxes(1, 2)


def _stacks_by_width(terms):
    """(term indices, stacked term matrices), one pair per support width
    present in ``terms``."""
    for width in (1, 2):
        idx = [k for k, term in enumerate(terms) if len(term.support) == width]
        if idx:
            yield idx, np.stack([terms[k].matrix for k in idx])


def _gates_in_term_order(terms, parts) -> list[LocalGate]:
    """LocalGates on the terms' supports from (term indices, gate stack)
    parts, in term order; gates that equal the identity are dropped.  The
    kept gates of a stack are checked for unitarity together."""
    gates = {}
    for idx, stack in parts:
        identity = np.max(np.abs(stack - np.eye(stack.shape[-1])), axis=(1, 2)) < _IDENTITY_ATOL
        kept = [k for k, drop in zip(idx, identity) if not drop]
        gates.update(zip(kept, unitary_gates([terms[k].support for k in kept], stack[~identity])))
    return [gates[k] for k in sorted(gates)]


def _group_layers(spec: HamiltonianSpec, label: str, dt: float) -> list[list[LocalGate]]:
    """Brickwork layers of exp(-i dt H_j) for all terms of one group.

    Gates that equal the identity (zero-coefficient terms) are dropped, so
    they neither cost work nor count as noise locations.
    """
    terms = [term for term in spec.terms if term.group == label]
    parts = [(idx, _exp_gates(mats, dt)) for idx, mats in _stacks_by_width(terms)]
    return pack_layers(_gates_in_term_order(terms, parts))


def _step_layers(spec: HamiltonianSpec, dt: float, order: int) -> list[list[LocalGate]]:
    labels = spec.group_labels()
    if order == 1:
        layers = []
        for label in labels:
            layers.extend(_group_layers(spec, label, dt))
        return layers
    if order == 2:
        if len(labels) == 1:
            return _group_layers(spec, labels[0], dt)
        head = []
        for label in labels[:-1]:
            head.extend(_group_layers(spec, label, dt / 2))
        middle = _group_layers(spec, labels[-1], dt)
        tail = head[::-1]
        return head + middle + tail
    if order == 4:
        outer = _step_layers(spec, _SUZUKI_A * dt, 2)
        inner = _step_layers(spec, (1 - 4 * _SUZUKI_A) * dt, 2)
        return outer + outer + inner + outer + outer
    raise ValueError(f"unsupported Trotter order {order}; choose 1, 2 or 4")


@dataclass(frozen=True, eq=False)
class TrotterPlan:
    """Gate layers of one Trotter step, repeated ``n_steps``.

    ``step_layers`` is the census of physical layers; ``compiled`` holds
    their execution form, built once at construction.
    """

    order: int
    tau: float
    n_steps: int
    n_sites: int
    step_layers: tuple[tuple[LocalGate, ...], ...] = field(repr=False)
    compiled: tuple[tuple, ...] = field(init=False, repr=False)

    def __post_init__(self):
        # compile before copying, so layers shared by the mirrored tail
        # are still the same objects
        object.__setattr__(self, "compiled", compile_layers(self.n_sites, self.step_layers))
        object.__setattr__(
            self, "step_layers", tuple(tuple(layer) for layer in self.step_layers)
        )

    @property
    def layers_per_step(self) -> int:
        """Physical layer count of one step (the noise-insertion census)."""
        return len(self.step_layers)


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
    layers = _step_layers(spec, tau, order) if n_steps > 0 else []
    return TrotterPlan(order, tau, n_steps, spec.n_sites, layers)


def evolve(state: StateVector, plan: TrotterPlan, n_steps: int | None = None) -> StateVector:
    """Apply ``n_steps`` Trotter steps (default: the plan's full count) to
    one copy of the amplitudes; zero steps return ``state`` itself."""
    if 2**plan.n_sites != state.amplitudes.shape[0]:
        raise ValueError("state size does not match plan")
    k = plan.n_steps if n_steps is None else n_steps
    if k <= 0:
        return state
    amps = state.amplitudes.copy()
    for _ in range(k):
        for layer in plan.compiled:
            for op in layer:
                op.apply(amps)
    return StateVector(state.n_qubits, amps)
