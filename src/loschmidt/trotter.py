"""Real-time Trotter circuits of order 1, 2 and 4 for local 1D Hamiltonians.

One step alternates between the term groups of the Hamiltonian (for the
Ising chain: the ferromagnetic bonds, then the transverse field).  Within a
group the commuting terms are packed into brickwork layers of disjoint
supports; the layer census is what the noise model and the rescaling
mitigation exponent count, so it is fixed at plan build time and never
re-derived.

Order 2 is the symmetric splitting A/2 B A/2; order 4 is the Suzuki
recursion on the order-2 step.  ``_substeps`` states a step as data, and
``build_plan`` builds the gates of each distinct (group, fraction) once.  A
plan holds the step's distinct checked gates as one ``GateStack`` and one
tuple of gate indices per physical layer.  It owns both execution forms of
the step, each compiled on first use through ``_compile_stack``:
``compiled``, the step U with one op tuple per physical layer, so noise
still has one insertion point per physical layer (trajectories and
``evolve``), and ``adjoint``, the step U^dagger that noiseless runs evolve
the bra under: the same stack with each matrix replaced by its conjugate
transpose, on the layer index reversed.  The mirrored tail of a symmetric
step and the repeated outer steps of order 4 repeat the index tuples of
their first occurrence, and so share its compiled ops, including each
folded diagonal layer's phase vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import _nonnegative, _positive
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


def _substeps(labels, order: int) -> list[tuple[str, float, int]]:
    """One step as (group, fraction of tau, layer direction) triples: the
    groups in turn (order 1); A/2 B A/2 split at the last group, whose
    mirrored tail runs the head's layers backwards (order 2); the Suzuki
    recursion U2(a tau)^2 U2((1-4a) tau) U2(a tau)^2 on it (order 4)."""
    if order == 1:
        return [(label, 1.0, 1) for label in labels]
    if order == 2:
        head = [(label, 0.5, 1) for label in labels[:-1]]
        return head + [(labels[-1], 1.0, 1)] + [(label, w, -1) for label, w, _ in head[::-1]]
    if order == 4:
        weights = (_SUZUKI_A, _SUZUKI_A, 1 - 4 * _SUZUKI_A, _SUZUKI_A, _SUZUKI_A)
        return [(label, weight * w, way)
                for weight in weights for label, w, way in _substeps(labels, 2)]
    raise ValueError(f"unsupported Trotter order {order}; choose 1, 2 or 4")


@dataclass(frozen=True, eq=False)
class TrotterPlan:
    """Gate layers of one Trotter step, repeated ``n_steps``.

    ``gate_stack`` holds the step's distinct checked gates and
    ``layer_index`` one tuple of gate indices per physical layer, the census
    of the step.  ``compiled`` (the step) and ``adjoint`` (its inverse) are
    their execution forms, each built on first use, so a run compiles only
    the form it executes.
    """

    n_steps: int
    n_sites: int
    gate_stack: GateStack = field(repr=False)
    layer_index: tuple[tuple[int, ...], ...] = field(repr=False)

    @cached_property
    def compiled(self) -> tuple[tuple, ...]:
        """The ops of each layer of the step, in order."""
        return _compile_stack(self.n_sites, self.gate_stack, self.layer_index)

    @cached_property
    def adjoint(self) -> tuple[tuple, ...]:
        """The ops of each layer of U^dagger: the layers in reverse order,
        each gate its conjugate transpose (stored C-contiguous).  The gates
        of one layer act on disjoint sites, so each layer is its own gates'
        adjoint."""
        # on 2x2 and 4x4 gates this beats np.conjugate(mat.T, order="C"),
        # whose keyword handling costs more than the copy
        matrices = tuple([mat.conj().T.copy() for mat in self.gate_stack.matrices])
        stack = GateStack(self.gate_stack.supports, matrices)
        return _compile_stack(self.n_sites, stack, self.layer_index[::-1])

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

    ``t`` must be a finite nonnegative number and ``tau`` a finite positive
    one, by config's rules (``_nonnegative``, ``_positive``: a bool is
    neither), and ``t/tau`` an integer to within 4 ulp; the layer
    decomposition of a single step is built once and reused for every step.
    """
    if not _nonnegative(t):
        raise ValueError("total time must be nonnegative")
    if not _positive(tau):
        raise ValueError("Trotter step must be positive")
    ratio = t / tau
    n_steps = int(round(ratio))
    if abs(ratio - n_steps) > 4 * np.finfo(float).eps * max(1.0, abs(ratio)):
        raise ValueError(f"incommensurate step: t/tau = {ratio} is not an integer")
    substeps = _substeps(spec.group_labels(), order) if n_steps > 0 else []
    # the brickwork of exp(-i weight tau H_j) over one group's terms, once
    # per distinct (group, weight); gates equal to the identity are dropped,
    # so they neither cost work nor count as noise locations
    supports, matrices, layers = [], [], {}
    for label, weight, _ in substeps:
        if (label, weight) not in layers:
            terms = [term for term in spec.terms if term.group == label]
            parts = [(idx, *_exp_gates(mats, weight * tau))
                     for idx, mats in _stacks_by_width(terms)]
            group = _stack_in_term_order(terms, parts)
            layers[label, weight] = _layer_index(group.supports, start=len(supports))
            supports += group.supports
            matrices += group.matrices
    index = tuple(layer for label, weight, way in substeps
                  for layer in layers[label, weight][::way])
    stack = GateStack(tuple(supports), tuple(matrices))
    return TrotterPlan(n_steps, spec.n_sites, stack, index)


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
