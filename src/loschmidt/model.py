"""Local 1D Hamiltonians and the dense small-N oracle.

The transverse-field Ising chain

    H = -J sum_i S^z_i S^z_{i+1} + g sum_i S^x_i,      S = sigma / 2,

with open boundaries is the built-in model; arbitrary chains of Hermitian
1- and 2-site terms are supported through the same ``HamiltonianSpec``.
Coefficients are folded into the term matrices, so user-defined Hamiltonians
need no special cases.

``amplitude_series`` evaluates <psi'| exp(-i H z) |psi> at complex times
``z = t - i*beta`` (``exact_amplitude`` at one) by eigendecomposition of
the dense matrix: the project-wide ground truth for every approximate
pipeline, capped at 12 sites.  The dense H is diagonalised in the symmetry
blocks of whichever of the global spin flip prod X and the mirror
i -> N-1-i leave it exactly invariant: 4 quarter-size blocks when both do,
as for the TFIM at any couplings, 2 when one does, and one full ``eigh``
for any other H.  Either way the cached eigensystem holds ascending
energies and full-space orthonormal eigenvectors, records the number of
symmetry blocks (1, 2 or 4 for the shipped models) in its ``sectors``, and
meets states only in ``_eigen_product``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .exceptions import NumericsError
from .statevector import StateVector, _lsb_first, _site_indices, apply_matrix

ORACLE_MAX_SITES = 12

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_ATOL_HERMITIAN = 1e-12

#: entries of one exp(-i z E) block in ``amplitude_series`` (16 MB complex)
_SERIES_BLOCK = 2**20


@dataclass(eq=False)
class LocalTerm:
    """One Hermitian term of a local Hamiltonian.

    ``support`` lists 1 or 2 site indices; for 2-site terms the first site is
    the least significant bit of the 4x4 matrix index.  ``group`` tags the
    Trotter layer the term belongs to (e.g. "zz" vs "x").
    """

    support: tuple[int, ...]
    matrix: np.ndarray
    group: str = ""

    def __post_init__(self):
        self.support = _site_indices(self.support)
        if len(self.support) not in (1, 2):
            raise ValueError("term support must be 1 or 2 sites")
        mat = np.asarray(self.matrix, dtype=complex)
        dim = 2 ** len(self.support)
        if mat.shape != (dim, dim):
            raise ValueError("term matrix shape does not match support")
        if np.max(np.abs(mat - mat.conj().T)) > _ATOL_HERMITIAN:
            raise ValueError("term matrix is not Hermitian")
        self.matrix = mat

    def _moved(self, support: tuple[int, ...]) -> LocalTerm:
        """The term on ``support``, a tuple of ints as wide as its own,
        sharing its matrix, which is not checked again."""
        if len(support) != len(self.support):
            raise ValueError("a moved term keeps the width of its support")
        term = copy.copy(self)
        term.support = support
        return term


@dataclass(eq=False)
class HamiltonianSpec:
    """A 1D local Hamiltonian as a list of 1- and 2-site terms."""

    n_sites: int
    terms: tuple[LocalTerm, ...]

    def __post_init__(self):
        self.terms = tuple(self.terms)
        for term in self.terms:
            if any(s < 0 or s >= self.n_sites for s in term.support):
                raise ValueError(f"term support {term.support} out of range")
            if len(term.support) == 2 and abs(term.support[0] - term.support[1]) != 1:
                raise ValueError("2-site terms must act on adjacent sites")

    def group_labels(self) -> list[str]:
        """Distinct group tags in order of first appearance."""
        labels: list[str] = []
        for term in self.terms:
            if term.group not in labels:
                labels.append(term.group)
        return labels


def tfim(n_sites: int, J: float, g: float) -> HamiltonianSpec:
    """Open-boundary transverse-field Ising chain in spin-1/2 convention.

    Bonds carry -J/4 sigma^z sigma^z (group "zz"), sites carry g/2 sigma^x
    (group "x").
    """
    if n_sites < 2:
        raise ValueError("tfim requires n_sites >= 2")
    # each of the two matrices is checked once, on its first term
    zz = LocalTerm((0, 1), -J / 4.0 * np.kron(SIGMA_Z, SIGMA_Z), "zz")
    x = LocalTerm((0,), g / 2.0 * SIGMA_X, "x")
    terms = [zz._moved((i, i + 1)) for i in range(n_sites - 1)]
    terms += [x._moved((i,)) for i in range(n_sites)]
    return HamiltonianSpec(n_sites, tuple(terms))


def _embed(term: LocalTerm, n: int) -> np.ndarray:
    lo, matrix = _lsb_first(term.support, term.matrix)
    width = len(term.support)
    return np.kron(np.eye(2 ** (n - lo - width)), np.kron(matrix, np.eye(2**lo)))


def dense_matrix(spec: HamiltonianSpec) -> np.ndarray:
    """Sum of embedded local terms as a dense Hermitian 2^N x 2^N matrix.

    Each term is added into a strided view of the output that is diagonal in
    the sites above and below its support: O(2^N 4^k) work per k-site term
    and no 4^N temporary.  Each diagonal entry is then the sum of its terms'
    contributions in sorted order, so it depends only on their multiset: a
    symmetry that permutes the terms, as the mirror permutes the bonds,
    leaves H bitwise invariant for any couplings.
    """
    if spec.n_sites > ORACLE_MAX_SITES:
        raise ValueError(f"oracle size limit: n_sites {spec.n_sites} > {ORACLE_MAX_SITES}")
    n = spec.n_sites
    full = np.zeros((2**n, 2**n), dtype=complex)
    diagonals = np.zeros((len(spec.terms), 2**n), dtype=complex)
    for term, diagonal in zip(spec.terms, diagonals):
        lo, matrix = _lsb_first(term.support, term.matrix)
        width = len(term.support)
        shape = (2 ** (n - lo - width), 2**width, 2**lo)
        block = np.einsum("aibajb->aijb", full.reshape(shape + shape))  # view of full
        block += matrix[None, :, :, None]
        diagonal.reshape(shape)[:] = np.diagonal(matrix)[None, :, None]
    total = np.zeros(2**n, dtype=complex)
    for contributions in np.sort(diagonals, axis=0):
        total += contributions
    np.fill_diagonal(full, total)
    return full


class Eigensystem(NamedTuple):
    """Ascending energies and full-space orthonormal eigenvectors (columns)
    of a dense H, with the number of symmetry blocks they were found in
    (1, 2 or 4 for the shipped models)."""

    energies: np.ndarray
    vectors: np.ndarray
    sectors: int


def _symmetries(full: np.ndarray, n_sites: int) -> list[np.ndarray]:
    """The basis permutations among the spin flip prod X (a -> 2^N - 1 - a)
    and the mirror i -> N-1-i (bit reversal) that leave ``full`` exactly
    invariant, H[p[i], p[j]] == H[i, j], identities dropped.  Comparing over
    the nonzeros of H suffices: p is a bijection, so an invariant H has as
    many nonzeros as its permuted copy."""
    index = np.arange(len(full))
    candidates = (index[::-1], index.reshape((2,) * n_sites).transpose().ravel())
    rows, cols = np.divmod(np.flatnonzero(full != 0), len(full))
    values = full[rows, cols]
    return [p for p in candidates
            if np.any(p != index) and np.array_equal(full[p[rows], p[cols]], values)]


@lru_cache(maxsize=8)
def _eigensystem(spec: HamiltonianSpec) -> Eigensystem:
    """Eigenpairs of ``dense_matrix(spec)``, cached per spec object.  A real
    H (the TFIM, any chain of real terms) goes through the real-symmetric
    solver and has real eigenvectors.

    H is solved in the symmetry blocks (Sandvik, arXiv:1101.3281, sec. 4)
    of the group G generated by what ``_symmetries`` finds.  The flip and
    the mirror are commuting involutions, so G is Z2^m with m <= 2, and
    ``sectors`` counts the non-empty blocks: 1, 2 or 4 for the shipped
    models, and 3 at N=2 with both symmetries, whose fourth block is empty.
    Without either symmetry H takes one full ``eigh``.

    In the block of a character chi of G, the orbit O of a representative
    r (its least index) gives the orbit-basis column b -> chi(g_b) / sqrt(|O|)
    on b in O, where g_b maps r to b; the column vanishes when chi is -1 on
    an element fixing r.  As H commutes with G, the block B^T H B is
    [i, j] -> sum_g chi(g) H[r_i, g(r_j)] / sqrt(s_i s_j), with s the
    stabiliser sizes, gathered from the rows of H at the representatives.
    Each eigenvector B u is written as one whole row of a single 2^N x 2^N
    matrix, at the place of its energy in ascending order, and the vectors
    are that matrix's transpose: orthonormal full-space columns in the
    order of the energies."""
    full = dense_matrix(spec)
    if not full.imag.any():
        full = full.real
    symmetries = _symmetries(full, spec.n_sites)
    if not symmetries:
        energies, vectors = np.linalg.eigh(full)
        return Eigensystem(energies, vectors, 1)
    # images[g, a] = g(a), the element g composing the symmetries whose
    # bits it sets, and chi_c(g) = (-1)^|c & g| for the characters of Z2^m
    images = np.arange(len(full))[None, :]
    for p in symmetries:
        images = np.concatenate([images, p[images]])
    group = np.arange(len(images))
    characters = np.where(np.bitwise_count(group[:, None] & group) % 2, -1.0, 1.0)
    reps, orbit = np.unique(images.min(axis=0), return_inverse=True)
    fixed = images[:, reps] == reps
    stabiliser = fixed.sum(axis=0)
    kept = characters @ fixed > 0
    # row b of a block's B U is amplitude[c, b] U[slot[c, b]]: chi(g_b) with
    # g_b(b) = r, as G is involutive; zero, at any valid slot, off kept orbits
    slot = (np.cumsum(kept, axis=1) - 1)[:, orbit]
    amplitude = (characters[:, images.argmin(axis=0)] * kept[:, orbit]
                 * np.sqrt(stabiliser / len(group))[orbit])
    blocks = characters @ np.take(full[reps], images[:, reps], axis=1)  # [i, c, j]
    del full
    weight = 1.0 / np.sqrt(stabiliser)
    blocks *= np.outer(weight, weight)[:, None, :]
    solved = [(c, np.linalg.eigh(blocks[:, c].take(index, 0).take(index, 1)))
              for c, index in enumerate(map(np.flatnonzero, kept)) if index.size]
    # freed before the output matrix is allocated, like H above
    dtype = blocks.dtype
    del blocks
    energies = np.concatenate([e for _, (e, _) in solved])
    order = np.argsort(energies, kind="stable")
    position = np.argsort(order)
    eigvec_rows = np.empty((len(orbit),) * 2, dtype)
    start = 0
    for c, (_, u) in solved:
        stop = start + u.shape[1]
        eigvec_rows[position[start:stop]] = np.take(u.T, slot[c], axis=1) * amplitude[c]
        start = stop
    return Eigensystem(energies[order], eigvec_rows.T, len(solved))


def _eigen_product(states: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``states @ matrix`` for V.conj() (V^dag a) or V.T (V a), as rows, on the
    real and imaginary parts in one product: numpy would cast a real V to complex."""
    parts = np.stack([states.real, states.imag])
    real, imag = (parts.reshape(-1, len(matrix)) @ matrix).reshape(parts.shape)
    return real + 1j * imag


def exact_amplitude(
    spec: HamiltonianSpec,
    psi_final: StateVector,
    psi_init: StateVector,
    z: complex,
) -> complex:
    """``amplitude_series`` at one complex time z = t - i*beta; a positive
    imaginary part inserts exp(+Im(z) H), so z = t + ih gives exp(-iHt) exp(+hH)."""
    return complex(amplitude_series(spec, psi_final, psi_init, [z])[0])


def amplitude_series(
    spec: HamiltonianSpec,
    psi_final: StateVector,
    psi_init: StateVector,
    z_values,
) -> np.ndarray:
    """<psi_final| exp(-i H z) |psi_init> over complex times.

    ``z_values`` is a flat array of K times, or a (K, R) grid whose columns
    differ from the first by constants, z[:, r] = z[:, 0] + d_r, such as the
    strip t, t + ih, t - ih; the result has the shape of the grid (flat for
    flat input).  Since exp(-i z[:, r] E) = exp(-i z[:, 0] E) exp(-i d_r E),
    one phase table of the first column serves every column, each against
    the weights scaled by its exp(-i d_r E).  The table is built in blocks of
    at most ``_SERIES_BLOCK`` entries, so memory stays bounded in the grid.
    Raises ``ValueError`` when the column offsets are not constant."""
    energies, vectors, _ = _eigensystem(spec)
    states = np.stack([psi_final.amplitudes, psi_init.amplitudes])
    c_final, c_init = _eigen_product(states, vectors.conj())
    z_values = np.asarray(z_values, dtype=complex)
    grid = z_values if z_values.ndim == 2 else z_values.reshape(-1, 1)
    offsets = grid - grid[:, :1]
    if np.any(offsets != offsets[:1]):
        raise ValueError("columns of a complex-time grid must differ by constants")
    weights = (np.conj(c_final) * c_init)[:, None] * np.exp(-1j * np.outer(energies, offsets[:1]))
    out = np.empty(grid.shape, dtype=complex)
    rows = max(1, _SERIES_BLOCK // energies.size)
    for start in range(0, len(grid), rows):
        table = np.outer(grid[start:start + rows, 0], energies)
        table *= -1j
        np.exp(table, out=table)
        out[start:start + rows] = table @ weights
    return out if z_values.ndim == 2 else out[:, 0]


def oracle_evolve(spec: HamiltonianSpec, state: StateVector, t: float) -> StateVector:
    """exp(-iHt) |state> from the dense eigendecomposition."""
    energies, vectors, _ = _eigensystem(spec)
    coeffs = np.exp(-1j * energies * t) * _eigen_product(state.amplitudes, vectors.conj())
    return StateVector(spec.n_sites, _eigen_product(coeffs, vectors.T))


def oracle_phase_series(
    spec: HamiltonianSpec,
    psi_final: StateVector,
    psi_init: StateVector,
    times,
) -> tuple[np.ndarray, np.ndarray]:
    """Magnitudes and continuously unwrapped phases of the exact amplitude.

    The phase starts in (-pi, pi] at the first grid point and accumulates
    arg increments between neighbours, so it is directly comparable to the
    integrated phase of the reconstruction pipeline (valid as long as the
    phase advances by less than pi per step).
    """
    g = amplitude_series(spec, psi_final, psi_init, np.asarray(times, dtype=float))
    r = np.abs(g)
    phi = np.empty_like(r)
    phi[0] = np.angle(g[0])
    increments = np.angle(g[1:] / g[:-1])
    phi[1:] = phi[0] + np.cumsum(increments)
    return r, phi


def expectation(spec: HamiltonianSpec, state: StateVector) -> float:
    """Real part of <psi|H|psi>; raises when the imaginary residue is not
    tiny."""
    if 2**spec.n_sites != state.amplitudes.shape[0]:
        raise ValueError("state size does not match Hamiltonian")
    acc = 0.0 + 0.0j
    for term in spec.terms:
        h_psi = apply_matrix(state, term.matrix, term.support)
        acc += np.vdot(state.amplitudes, h_psi.amplitudes)
    if not abs(acc.imag) < 1e-10:
        raise NumericsError(
            f"expectation of Hermitian operator has imaginary part {acc.imag:.3e}"
        )
    return float(acc.real)
