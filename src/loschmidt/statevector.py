"""Dense N-qubit statevector and local gate application kernels.

Conventions
-----------
Qubit ``i`` maps to bit ``i`` of the amplitude index, i.e. qubit 0 is the
*least significant* bit.  A ``LocalGate`` or local matrix acting on sites
``(a, b)`` uses the same convention internally: the first listed site is the
least significant bit of the local matrix index.  ``|up>`` is the basis
vector ``(1, 0)`` (eigenvalue +1 of sigma^z).

Two kernels apply gates.  ``apply_matrix`` takes any 2^k x 2^k matrix on
any distinct sites; the Hadamard-test baseline needs it for gates controlled
by a non-adjacent ancilla.  Plans instead run compiled layers through
``apply_layer``: ``compile_layers`` turns each layer of gates on adjacent
sites into a short tuple of ops that act in place on one contiguous copy of
the amplitudes.  An all-diagonal layer becomes one elementwise multiply by a
precomputed 2^N phase vector.  The other layers fuse their disjoint gates
into blocks of at most ``_FUSE_SITES`` adjacent sites, each one matrix
applied along axis 1 of the amplitudes viewed as
``(2^(N-lo-w), 2^w, 2^lo)``, without transposes.

Every operation returns a new state and never mutates its inputs.  Results
are deterministic for a fixed input regardless of how callers dispatch
work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_ATOL_UNITARY = 1e-10

#: Widest block, in sites, that one compiled op covers.  Measured at N=14 for
#: a one-site gate at lo = 1..4, the (rows, 2, 2^lo) view is 3-8x slower than
#: a 32-wide GEMM on contiguous rows, and a 32-wide block costs about what
#: one one-site op costs.  Blocks of 4 or 6 sites made a step slower at
#: N = 8, 14 and 20.
_FUSE_SITES = 5

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


@dataclass(frozen=True)
class LocalGate:
    """A 1- or 2-site matrix with the sites it acts on.

    The first support site corresponds to the least significant bit of the
    local matrix index.  When ``unitary`` is set (the default) the matrix is
    checked against U^dag U = 1 at construction.
    """

    support: tuple[int, ...]
    matrix: np.ndarray
    unitary: bool = True

    def __post_init__(self):
        support = tuple(int(s) for s in self.support)
        if len(support) not in (1, 2):
            raise ValueError("gate support must be 1 or 2 sites")
        if len(set(support)) != len(support):
            raise ValueError("gate support sites must be distinct")
        mat = np.asarray(self.matrix, dtype=complex)
        dim = 2 ** len(support)
        if mat.shape != (dim, dim):
            raise ValueError(f"gate matrix shape {mat.shape} does not match support {support}")
        if self.unitary:
            dev = np.max(np.abs(mat.conj().T @ mat - np.eye(dim)))
            if dev > _ATOL_UNITARY:
                raise ValueError(f"matrix flagged unitary deviates from unitarity by {dev:.2e}")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "matrix", mat)


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
    amps = vecs[0]
    for vec in vecs[1:]:
        # site k is the LSB of np.kron's second factor
        amps = np.kron(vec, amps)
    return StateVector(len(vecs), amps)


def basis_state(n_qubits: int, index: int) -> StateVector:
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[index] = 1.0
    return StateVector(n_qubits, amps)


def apply_matrix(state: StateVector, matrix: np.ndarray, sites) -> StateVector:
    """Apply a 2^k x 2^k matrix to ``sites`` of the state (general kernel).

    The first listed site is the least significant bit of the local index.
    Sites must be distinct and in range; ``k`` is not restricted to 2, which
    the controlled-evolution baselines rely on.
    """
    sites = [int(s) for s in sites]
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


def apply_gate(state: StateVector, gate: LocalGate) -> StateVector:
    """Apply a local gate; all sites outside its support are untouched."""
    return apply_matrix(state, gate.matrix, gate.support)


def inner_product(bra: StateVector, ket: StateVector) -> complex:
    """<bra|ket> = sum_i conj(bra_i) ket_i."""
    if bra.n_qubits != ket.n_qubits:
        raise ValueError("states act on different numbers of qubits")
    return complex(np.vdot(bra.amplitudes, ket.amplitudes))


def pack_layers(gates, ordered: bool = False) -> list[list[LocalGate]]:
    """Group gates into layers of pairwise-disjoint supports.

    With ``ordered=False`` (commuting gates) each gate goes into the earliest
    layer that has no site conflict, which packs a nearest-neighbour bond
    group into the usual even/odd brickwork.  With ``ordered=True`` the
    relative order of overlapping gates is preserved: a gate is placed after
    the last layer touching any of its sites.
    """
    layers: list[list[LocalGate]] = []
    occupied: list[set[int]] = []
    last_touch: dict[int, int] = {}
    for gate in gates:
        if ordered:
            start = 1 + max((last_touch.get(s, -1) for s in gate.support), default=-1)
            idx = start
        else:
            idx = 0
            while idx < len(layers) and any(s in occupied[idx] for s in gate.support):
                idx += 1
        while idx >= len(layers):
            layers.append([])
            occupied.append(set())
        layers[idx].append(gate)
        occupied[idx].update(gate.support)
        for s in gate.support:
            last_touch[s] = idx
    return [layer for layer in layers if layer]


@dataclass(frozen=True, eq=False)
class PhaseOp:
    """A folded all-diagonal layer: multiply by the full 2^N diagonal."""

    phase: np.ndarray

    def apply(self, amps: np.ndarray) -> None:
        amps *= self.phase


@dataclass(frozen=True, eq=False)
class BlockOp:
    """A matrix on the adjacent sites lo..lo+w-1, site lo as its LSB.

    ``shape`` is ``(2^(N-lo-w), 2^w)`` for lo = 0, where the op is one GEMM
    on contiguous rows, and ``(2^(N-lo-w), 2^w, 2^lo)`` otherwise.
    """

    shape: tuple[int, ...]
    matrix: np.ndarray

    def apply(self, amps: np.ndarray) -> None:
        view = amps.reshape(self.shape)
        if len(self.shape) == 2:
            np.matmul(view, self.matrix.T, out=view)
        else:
            np.matmul(self.matrix, view, out=view)


_SWAP_SITES = np.array([0, 2, 1, 3])


def _lsb_first(gate) -> tuple[int, np.ndarray]:
    """(lo, matrix) of a ``LocalGate`` or ``LocalTerm``, with the lowest
    support site as the LSB of the index."""
    if len(gate.support) == 1:
        return gate.support[0], gate.matrix
    a, b = gate.support
    if abs(a - b) != 1:
        raise ValueError(f"compiled gates act on adjacent sites, not {gate.support}")
    if a < b:
        return a, gate.matrix
    return b, gate.matrix[np.ix_(_SWAP_SITES, _SWAP_SITES)]


def _width(matrix: np.ndarray) -> int:
    return matrix.shape[0].bit_length() - 1


def _is_diagonal(matrix: np.ndarray) -> bool:
    return not np.any(matrix - np.diag(np.diagonal(matrix)))


def _kron(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """``np.kron`` of two matrices, without its per-call overhead."""
    out = high[:, None, :, None] * low[None, :, None, :]
    return out.reshape(high.shape[0] * low.shape[0], high.shape[1] * low.shape[1])


def _block_op(n_qubits: int, start: int, members) -> BlockOp:
    """Fuse disjoint gates, sorted by site, into one op starting at ``start``;
    sites no gate covers get the identity."""
    matrix = np.ones((1, 1), dtype=complex)
    site = start
    for lo, mat in members:
        if lo > site:
            matrix = _kron(np.eye(1 << (lo - site)), matrix)
        matrix = _kron(mat, matrix)
        site = lo + _width(mat)
    rows, dim = 1 << (n_qubits - site), 1 << (site - start)
    shape = (rows, dim) if start == 0 else (rows, dim, 1 << start)
    return BlockOp(shape, matrix)


def _compile_layer(n_qubits: int, gates) -> tuple:
    placed = sorted((_lsb_first(g) for g in gates), key=lambda item: item[0])
    ends = [lo + _width(mat) for lo, mat in placed]
    if any(end > n_qubits for end in ends):
        raise ValueError(f"gate support out of range for {n_qubits} qubits")
    if any(lo < end for (lo, _), end in zip(placed[1:], ends)):
        raise ValueError("layer contains gates with overlapping supports")
    if placed and all(_is_diagonal(mat) for _, mat in placed):
        phase = np.ones(2**n_qubits, dtype=complex)
        for lo, mat in placed:
            phase.reshape(-1, mat.shape[0], 1 << lo)[...] *= np.diagonal(mat)[:, None]
        return (PhaseOp(phase),)
    blocks: list[tuple[int, list]] = []
    for lo, mat in placed:
        hi = lo + _width(mat)
        if blocks and hi - blocks[-1][0] <= _FUSE_SITES:
            blocks[-1][1].append((lo, mat))
        else:
            # the first block reaches down to site 0 when it fits, so no op
            # runs on a view with fewer than 2^_FUSE_SITES columns but one
            start = 0 if not blocks and hi <= _FUSE_SITES else lo
            blocks.append((start, [(lo, mat)]))
    return tuple(_block_op(n_qubits, start, members) for start, members in blocks)


def compile_layers(n_qubits: int, layers) -> tuple[tuple, ...]:
    """Execution form of gate layers for ``apply_layer``, one entry per layer.

    Gates must act on one site or two adjacent sites, with pairwise-disjoint
    supports within a layer.  A layer object that recurs in ``layers`` (the
    mirrored tail of a symmetric Trotter step) is compiled once and shared.
    """
    compiled: dict[int, tuple] = {}
    out = []
    for layer in layers:
        if id(layer) not in compiled:
            compiled[id(layer)] = _compile_layer(n_qubits, layer)
        out.append(compiled[id(layer)])
    return tuple(out)


def apply_layer(state: StateVector, layer) -> StateVector:
    """Apply one compiled layer: one copy of the amplitudes, ops in place."""
    amps = state.amplitudes.copy()
    for op in layer:
        op.apply(amps)
    return StateVector(state.n_qubits, amps)
