"""Dense N-qubit statevector and local gate application kernels.

Conventions
-----------
Qubit ``i`` maps to bit ``i`` of the amplitude index, i.e. qubit 0 is the
*least significant* bit.  A gate or local matrix acting on sites
``(a, b)`` uses the same convention internally: the first listed site is the
least significant bit of the local matrix index.  ``|up>`` is the basis
vector ``(1, 0)`` (eigenvalue +1 of sigma^z).

Every plan runs through one loop, ``circuit_survivals``: each layer of a
circuit is a short tuple of ops, run in place and in order on the rows of
a (B, 2^N) array that the caller owns, and the overlaps of the rows with a
list of final vectors are recorded between layers.  ``_run_layers``
(``apply_layer``, ``evolve`` and ``apply_ite``) runs it on one copy of a
state with no record points; the noiseless series runs it on a copy of
the bra, and the noisy trajectories on rows of psi, with each layer's
Paulis as one more op (``noise.PauliOp``).  The only ops run outside it
are ``_product_ket``'s in-place blocks.
Every plan compiles through one entry, ``_compile_stack``: its
checked ``GateStack`` (supports in term order, one matrix each) and a
layer index over the supports (``_layer_index``), each distinct layer of
the index compiled once by the core ``_compile_placed`` from its (lowest
site, matrix) pairs.  An
all-diagonal layer becomes one elementwise multiply by a 2^N phase vector,
built as an outer-product chain: the gate diagonals, lowest site first,
each multiply the vector of the sites below them, and ``np.tile`` repeats
it over sites no gate covers.  The other layers fuse their disjoint gates
into blocks of at most ``_FUSE_SITES`` adjacent sites, each one matrix
applied along axis 1 of the amplitudes viewed as ``(2^(N-lo-w), 2^w,
2^lo)``, without transposes.

A stack whose gates run with nothing between them on a product state has
a second form, ``_product_ket``: the ordered product of its gates applied
to v_{N-1} x ... x v_0, computed from the (N, 2) site vectors on a state
that grows from site 0.  ``_block_schedule`` groups the gate indices of
a support tuple into blocks of at most ``_FUSE_SITES`` adjacent sites, with
no layer boundaries (the general ITE staircase of N ordered layers becomes
ceil((N-1)/4) blocks); it reads only the supports, so the two ITE stacks
of one pair share one schedule.
A block reaching above the sites the state holds so far builds its matrix
only on the columns of the sites it holds, its new sites entering as their
site vectors, and one matmul writes the larger state; a block inside them
runs in place.  For the ITE staircase every block grows the state, so the
ket costs about one write of the full state.

The adjoint circuit U^dagger compiles through the same entry, from the
stack with each matrix its conjugate transpose and the layer index reversed
(``TrotterPlan.adjoint``).  Noiseless runs use it to evolve the bra once
instead of three kets, since <bra|U^k x> = <(U^dagger)^k bra|x>.

An op acts on any C-contiguous array whose last axis holds 2^N amplitudes:
a single state of shape ``(2^N,)`` or a batch of states as the rows of a
``(B, 2^N)`` array, which the Monte Carlo trajectories use.  Each row gets
the same arithmetic as a lone state.

``apply_matrix`` is the general kernel for one-off operators outside any
plan: any 2^k x 2^k matrix on any distinct sites, through a transpose of
the full state.  It serves the two-sided ``operator_a``, expectation
values and the spin flips of the sequential baseline's chain, and it is
the per-gate reference the compiled ops are tested against.

Every operation on a ``StateVector`` returns a new state and never mutates
its inputs; ops mutate the array they are given.  Results are deterministic
for a fixed input regardless of how callers dispatch work.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

_ATOL_UNITARY = 1e-10

#: Widest block, in sites, that one compiled op covers.  Measured at N=14 for
#: a one-site gate at lo = 1..4, the (rows, 2, 2^lo) view is 3-8x slower than
#: a 32-wide GEMM on contiguous rows, and a 32-wide block costs about what
#: one one-site op costs.  Blocks of 4 or 6 sites made a step slower at
#: N = 8, 14 and 20.
_FUSE_SITES = 5

#: Most sites a config may ask of the statevector backends, as
#: ``model.ORACLE_MAX_SITES`` caps the oracle.  A state is 16 * 2^N bytes,
#: and a noiseless run at N = 22 raised the peak resident set by 5.91
#: states.  At that rate N = 24 needs about 1.6 GB and N = 26 about 6.3 GB,
#: too much beside other work on an 8 GB machine; the method is scoped to
#: N of 20-24.
STATEVECTOR_MAX_SITES = 24

_SQ2 = 1.0 / np.sqrt(2.0)

#: Named single-qubit states usable in ``product_state``.
AXIS_STATES = {
    "z+": np.array([1.0, 0.0], dtype=complex),
    "z-": np.array([0.0, 1.0], dtype=complex),
    "up": np.array([1.0, 0.0], dtype=complex),
    "down": np.array([0.0, 1.0], dtype=complex),
    "x+": np.array([_SQ2, _SQ2], dtype=complex),
    "x-": np.array([_SQ2, -_SQ2], dtype=complex),
    "y+": np.array([_SQ2, 1j * _SQ2], dtype=complex),
    "y-": np.array([_SQ2, -1j * _SQ2], dtype=complex),
}


@dataclass(frozen=True)
class StateVector:
    """An N-qubit pure state as a dense array of 2^N complex amplitudes."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.n_qubits,):
            raise ValueError(
                f"amplitude array of shape {amps.shape} does not match "
                f"{self.n_qubits} qubits"
            )
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def _site_indices(sites) -> tuple[int, ...]:
    """``sites`` as a tuple of ints; a site that is not an integer, or is a
    bool, raises ``ValueError`` rather than being truncated."""
    sites = tuple(sites)
    if not all(isinstance(s, numbers.Integral) and not isinstance(s, bool) for s in sites):
        raise ValueError(f"site indices must be integers, got {sites}")
    return tuple([int(s) for s in sites])


def _check_unitary(mats: np.ndarray) -> None:
    """Raise unless every matrix of a stack (or one matrix) is unitary."""
    gram = mats.conj().swapaxes(-1, -2) @ mats
    dev = np.abs(gram - np.eye(mats.shape[-1])).max(initial=0.0)
    # written so that a nan entry fails
    if not dev <= _ATOL_UNITARY:
        raise ValueError(f"matrix deviates from unitarity by {dev:.2e}")


class GateStack(NamedTuple):
    """The checked gates of a plan: ``supports`` in term order (group by
    group, for a Trotter step) and one matrix per support, after gates equal
    to the identity were dropped and the rest passed one batched unitarity
    check.  A plan's compiled ops are derived from it and its layer
    index."""

    supports: tuple[tuple[int, ...], ...]
    matrices: tuple[np.ndarray, ...]


def _resolve_orientation(spec) -> np.ndarray:
    if isinstance(spec, str):
        key = spec.lower()
        if key not in AXIS_STATES:
            raise ValueError(f"unknown axis state {spec!r}")
        return AXIS_STATES[key].copy()
    vec = np.asarray(spec, dtype=complex).reshape(-1)
    if vec.shape != (2,):
        raise ValueError("orientation must be a named axis state or a 2-component pair")
    nrm = np.linalg.norm(vec)
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"orientation vector has norm {nrm}, expected 1")
    return vec / nrm


def product_state(orientations) -> StateVector:
    """Tensor product of single-qubit states, one orientation per site.

    Each orientation is a name from ``AXIS_STATES`` ("up", "down", "x+", ...)
    or a normalized 2-component complex pair.  Site ``i`` of the list is
    qubit ``i`` (least significant bit of the amplitude index).
    """
    if len(orientations) == 0:
        raise ValueError("zero qubits")
    vecs = [_resolve_orientation(o) for o in orientations]
    return StateVector(len(vecs), _grow(vecs[0], vecs[1:]))


def basis_state(n_qubits: int, index: int) -> StateVector:
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[index] = 1.0
    return StateVector(n_qubits, amps)


def apply_matrix(state: StateVector, matrix: np.ndarray, sites) -> StateVector:
    """Apply a 2^k x 2^k matrix to ``sites`` of the state (general kernel).

    For one-off operators outside any plan (no Trotter plan runs through
    it).  The first listed site is the least significant bit of the local
    index.  Sites must be distinct and in range; ``k`` is not restricted to
    2, so a user ``operator_a`` may act on more than two sites.
    """
    sites = _site_indices(sites)
    n = state.n_qubits
    if len(set(sites)) != len(sites):
        raise ValueError("duplicate sites in gate support")
    if any(s < 0 or s >= n for s in sites):
        raise ValueError(f"gate support {sites} out of range for {n} qubits")
    k = len(sites)
    mat = np.asarray(matrix, dtype=complex)
    if mat.shape != (2**k, 2**k):
        raise ValueError("matrix dimension does not match number of sites")

    # reshape to one axis per qubit; axis (n-1-q) holds qubit q
    psi = state.amplitudes.reshape([2] * n)
    site_axes = [n - 1 - s for s in sites]
    rest_axes = [a for a in range(n) if a not in site_axes]
    # move the site axes to the back with site[0] last, so the flattened
    # local index is q_{s0} + 2 q_{s1} + ... as in the matrix convention
    perm = rest_axes + site_axes[::-1]
    psi = np.transpose(psi, perm).reshape(-1, 2**k)
    psi = psi @ mat.T
    psi = np.transpose(psi.reshape([2] * n), np.argsort(perm))
    return StateVector(n, np.ascontiguousarray(psi.reshape(-1)))


def inner_product(bra: StateVector, ket: StateVector) -> complex:
    """<bra|ket> = sum_i conj(bra_i) ket_i."""
    if bra.n_qubits != ket.n_qubits:
        raise ValueError("states act on different numbers of qubits")
    return complex(np.vdot(bra.amplitudes, ket.amplitudes))


def _layer_index(supports, ordered: bool = False, start: int = 0) -> list[tuple[int, ...]]:
    """Indices of ``supports``, counted from ``start``, grouped into layers
    of pairwise-disjoint supports, in input order within a layer.

    With ``ordered=False`` (commuting gates) each support goes into the
    earliest layer that has no site conflict, which packs a nearest-neighbour
    bond group into the usual even/odd brickwork.  With ``ordered=True`` the
    relative order of overlapping supports is preserved: a support is placed
    after the last layer touching any of its sites.
    """
    layers: list[list[int]] = []
    occupied: list[set[int]] = []  # the sites of each layer, for brickwork
    free: dict[int, int] = {}  # per site, the layer after the last touching it
    for k, support in enumerate(supports, start):
        if ordered:
            idx = max([free.get(s, 0) for s in support])
            for s in support:
                free[s] = idx + 1
        else:
            idx = 0
            while idx < len(occupied) and not occupied[idx].isdisjoint(support):
                idx += 1
            if idx == len(occupied):
                occupied.append(set())
            occupied[idx].update(support)
        if idx == len(layers):
            layers.append([])
        layers[idx].append(k)
    return [tuple(layer) for layer in layers]


@dataclass(frozen=True, eq=False)
class PhaseOp:
    """A folded all-diagonal layer: multiply by the full 2^N diagonal (of
    every row, for a batch)."""

    phase: np.ndarray

    def apply(self, amps: np.ndarray) -> None:
        amps *= self.phase


@dataclass(frozen=True, eq=False)
class BlockOp:
    """A matrix on the adjacent sites lo..lo+w-1, site lo as its LSB.

    ``shape`` is ``(2^(N-lo-w), 2^w)`` for lo = 0, where the op is one GEMM
    on contiguous rows, and ``(2^(N-lo-w), 2^w, 2^lo)`` otherwise.  A batch
    is viewed as a stack of B such arrays, so every row gets the matmul a
    lone state gets.  One flat GEMM over the batch would not match it bit
    for bit: numpy hands a one-row product to GEMV.
    """

    shape: tuple[int, ...]
    matrix: np.ndarray

    def apply(self, amps: np.ndarray) -> None:
        view = amps.reshape((-1,) + self.shape)
        if len(self.shape) == 2:
            np.matmul(view, self.matrix.T, out=view)
        else:
            np.matmul(self.matrix, view, out=view)


_SWAP_SITES_IX = np.ix_([0, 2, 1, 3], [0, 2, 1, 3])

#: the unit matrix a block's kron chain starts from
_ONE = np.ones((1, 1), dtype=complex)

#: identities on the gaps of k sites a block covers but no gate of it does,
#: indexed by k < _FUSE_SITES
_EYES = tuple(np.eye(1 << k) for k in range(_FUSE_SITES))


def _lsb_first(support, matrix) -> tuple[int, np.ndarray]:
    """(lo, matrix) of a gate or term on ``support``, with the lowest
    support site as the LSB of the index."""
    if len(support) == 1:
        return support[0], matrix
    a, b = support
    if abs(a - b) != 1:
        raise ValueError(f"compiled gates act on adjacent sites, not {support}")
    if a < b:
        return a, matrix
    return b, matrix[_SWAP_SITES_IX]


def _lo(item) -> int:
    return item[0]


def _width(matrix: np.ndarray) -> int:
    return matrix.shape[0].bit_length() - 1


def _is_diagonal(matrix: np.ndarray) -> bool:
    return np.count_nonzero(matrix) == np.count_nonzero(matrix.diagonal())


def _kron(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """``np.kron`` of two matrices, without its per-call overhead."""
    out = high[:, None, :, None] * low[None, :, None, :]
    return out.reshape(high.shape[0] * low.shape[0], high.shape[1] * low.shape[1])


def _phase_vector(n_qubits: int, placed) -> np.ndarray:
    """The 2^N diagonal of a layer of diagonal gates, sorted by site, as an
    outer-product chain from site 0 up: each gate's diagonal is the high
    factor of the vector below it, and ``np.tile`` fills the sites no gate
    covers.  Every entry is ``1 * d_first * ... * d_last`` in site order."""
    phase = _ONE[0]
    site = 0
    for lo, mat in placed:
        if lo > site:
            phase = np.tile(phase, 1 << (lo - site))
        phase = (phase[None, :] * np.diagonal(mat)[:, None]).reshape(-1)
        site = lo + _width(mat)
    if site < n_qubits:
        phase = np.tile(phase, 1 << (n_qubits - site))
    return phase


def _block_op(n_qubits: int, start: int, members) -> BlockOp:
    """Fuse disjoint gates, sorted by site, into one op starting at ``start``;
    sites no gate covers get the identity."""
    matrix = _ONE
    site = start
    for lo, mat in members:
        if lo > site:
            matrix = _kron(_EYES[lo - site], matrix)
        # mat * _ONE is _kron(mat, _ONE) entry for entry, without its views
        matrix = mat * _ONE if matrix is _ONE else _kron(mat, matrix)
        site = lo + _width(mat)
    rows, dim = 1 << (n_qubits - site), 1 << (site - start)
    shape = (rows, dim) if start == 0 else (rows, dim, 1 << start)
    return BlockOp(shape, matrix)


def _compile_placed(n_qubits: int, placed) -> tuple:
    """The ops of one layer from its (lo, matrix) pairs sorted by lo, each
    matrix on the adjacent sites lo.. with site lo as its LSB: one
    ``PhaseOp`` when every matrix is diagonal, else one ``BlockOp`` per
    block of at most ``_FUSE_SITES`` sites."""
    ends = [lo + _width(mat) for lo, mat in placed]
    if ends and max(ends) > n_qubits:
        raise ValueError(f"gate support out of range for {n_qubits} qubits")
    for (lo, _), end in zip(placed[1:], ends):
        if lo < end:
            raise ValueError("layer contains gates with overlapping supports")
    if placed and all(_is_diagonal(mat) for _, mat in placed):
        return (PhaseOp(_phase_vector(n_qubits, placed)),)
    blocks: list[tuple[int, list]] = []
    for (lo, mat), hi in zip(placed, ends):
        if blocks and hi - blocks[-1][0] <= _FUSE_SITES:
            blocks[-1][1].append((lo, mat))
        else:
            # the first block reaches down to site 0 when it fits, so no op
            # runs on a view with fewer than 2^_FUSE_SITES columns but one
            start = 0 if not blocks and hi <= _FUSE_SITES else lo
            blocks.append((start, [(lo, mat)]))
    return tuple([_block_op(n_qubits, start, members) for start, members in blocks])


def _compile_stack(n_qubits: int, stack: GateStack, index) -> tuple[tuple, ...]:
    """The ops of a checked stack's layers, one entry per layer of ``index``
    (tuples of gate indices, as ``_layer_index`` returns).  A layer that
    recurs in ``index`` (the mirrored tail of a symmetric Trotter step) is
    compiled once, and its ops are shared."""
    placed = list(map(_lsb_first, stack.supports, stack.matrices))
    ops = {
        layer: _compile_placed(n_qubits, sorted([placed[k] for k in layer], key=_lo))
        for layer in dict.fromkeys(index)
    }
    return tuple([ops[layer] for layer in index])


def _block_schedule(supports) -> list[list]:
    """The ordered product of gates on adjacent-site ``supports``, in that
    order, as blocks of at most ``_FUSE_SITES`` adjacent sites: ``[start,
    stop, members]`` in run order, ``members`` the indices of the block's
    gates in order.  It reads only the supports, so stacks on the same
    supports share one schedule.

    A gate may move back past the blocks after the last one that touches
    its sites, since it commutes with them, and join any block among those
    and that last one whose span, united with the gate's sites, still fits.
    It joins the one it widens least (the latest of equals), since an op's
    cost grows as 2^width, or else opens a block at the end."""
    blocks: list[list] = []
    for k, support in enumerate(supports):
        lo, hi = min(support), max(support) + 1
        best, growth = None, _FUSE_SITES
        for block in reversed(blocks):
            start, stop, _ = block
            first, last = min(start, lo), max(stop, hi)
            widened = (last - first) - (stop - start)
            if last - first <= _FUSE_SITES and widened < growth:
                best, growth = block, widened
            if lo < stop and start < hi:
                break  # the gate does not commute back past this block
        if best is None:
            best = [lo, hi, []]
            blocks.append(best)
        best[:2] = min(best[0], lo), max(best[1], hi)
        best[2].append(k)
    return blocks


def _grow(amps: np.ndarray, vecs) -> np.ndarray:
    """The amplitudes with the sites of ``vecs`` added above them: each
    vector in turn is the high factor of an outer product, the operands and
    their order those of ``np.kron(vec, amps)``."""
    for vec in vecs:
        amps = (vec[:, None] * amps[None, :]).reshape(-1)
    return amps


def _product_ket(site_vectors: np.ndarray, stack: GateStack, schedule) -> np.ndarray:
    """The amplitudes of a checked stack's ordered product applied to the
    product state v_{N-1} x ... x v_0 of the (N, 2) ``site_vectors``,
    computed on a state that grows from site 0.

    The state holds the sites below ``held``.  Each block of ``schedule``
    (``_block_schedule`` of the stack's supports), in run order:

    * inside the held sites, runs in place as a ``BlockOp``;
    * reaching above them, first adds the sites below its start that no
      block touched, then builds its matrix only on the columns of the sites
      it already holds, with its new sites entering as their site vectors,
      and one matmul writes the larger state.

    Sites that no block reaches are multiplied in at the end.  The result is
    the gates applied to ``product_state(site_vectors)`` with the same
    global phase."""
    n_qubits = len(site_vectors)
    placed = list(map(_lsb_first, stack.supports, stack.matrices))
    amps, held = _ONE[0], 0
    for start, stop, indices in schedule:
        if stop > n_qubits:
            raise ValueError(f"gate support out of range for {n_qubits} qubits")
        members = [placed[k] for k in indices]
        if stop <= held:
            dim = 1 << (stop - start)
            shape = (1 << (held - stop), dim) + ((1 << start,) if start else ())
            BlockOp(shape, _gates_times(np.eye(dim, dtype=complex), stop, members)).apply(amps)
            continue
        if start > held:
            amps, held = _grow(amps, site_vectors[held:start]), start
        # columns: the held sites start..held-1 of the block; rows: all of
        # its sites, the new ones in their site vectors
        new = _grow(_ONE[0], site_vectors[held:stop])
        matrix = _gates_times(_kron(new[:, None], _EYES[held - start]), stop, members)
        amps = (matrix @ amps.reshape(-1, 1 << start)).reshape(-1)
        held = stop
    return _grow(amps, site_vectors[held:])


def _gates_times(matrix: np.ndarray, stop: int, members) -> np.ndarray:
    """The (lo, matrix) gates of a block ending below site ``stop``, in
    turn, times ``matrix``, whose rows are the block's sites, the first as
    the LSB: each gate acts on the row bits lo.., above the column bits in
    the flat index."""
    for lo, mat in members:
        view = matrix.reshape(1 << (stop - lo - _width(mat)), len(mat), -1)
        matrix = np.matmul(mat, view).reshape(matrix.shape)
    return matrix


def circuit_survivals(amps: np.ndarray, layers, record_after, finals) -> np.ndarray:
    """|<f|row>|^2 of a layered circuit at its record points, for each
    final vector f of ``finals`` (2^N amplitude arrays) and each row of
    ``amps``.

    ``amps`` is a C-contiguous (B, 2^N) array that the caller owns: the ops
    of each layer run on it in place, in order, so it ends as the rows
    after the whole circuit.  ``layers`` are tuples of ops, each with an
    in-place ``apply(amps)``: a plan's ``compiled`` or ``adjoint``, to
    which the noisy trajectories append their ``noise.PauliOp``s.
    ``record_after`` lists ascending layer counts (0 <= k <= len(layers))
    after which the overlaps are recorded, so an entry 0 records the rows
    as given.  Returns a (B, len(finals),
    len(record_after)) array.
    """
    if any(k < 0 or k > len(layers) for k in record_after):
        raise ValueError("record_after entries must lie within the layer range")
    if list(record_after) != sorted(record_after):
        raise ValueError("record_after entries must be ascending")
    out = np.empty((len(amps), len(finals), len(record_after)))

    def record(column):
        for row, vector in enumerate(amps):
            for f, final in enumerate(finals):
                out[row, f, column] = abs(np.vdot(final, vector)) ** 2

    pointer = 0
    for k, layer in enumerate(layers):
        while pointer < len(record_after) and record_after[pointer] == k:
            record(pointer)
            pointer += 1
        for op in layer:
            op.apply(amps)
    while pointer < len(record_after):
        record(pointer)
        pointer += 1
    return out


def _run_layers(state: StateVector, layers) -> StateVector:
    """Apply compiled layers in order to one copy of the amplitudes, through
    the circuit runner with no record points."""
    amps = state.amplitudes.copy()
    circuit_survivals(amps[None], layers, (), ())
    return StateVector(state.n_qubits, amps)


def apply_layer(state: StateVector, layer) -> StateVector:
    """Apply one compiled layer."""
    return _run_layers(state, (layer,))
