"""Local 1D Hamiltonians and the dense small-N oracle.

The transverse-field Ising chain

    H = -J sum_i S^z_i S^z_{i+1} + g sum_i S^x_i,      S = sigma / 2,

with open boundaries is the built-in model; arbitrary chains of Hermitian
1- and 2-site terms are supported through the same ``HamiltonianSpec``.
Coefficients are folded into the term matrices, so user-defined Hamiltonians
need no special cases.

``exact_amplitude`` evaluates <psi'| exp(-i H z) |psi> at complex time
``z = t - i*beta`` by eigendecomposition of the dense matrix.  It is the
project-wide ground truth that every approximate pipeline is tested against,
and is capped at 12 sites.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import NumericsError
from .statevector import StateVector

ORACLE_MAX_SITES = 12

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

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
        self.support = tuple(int(s) for s in self.support)
        if len(self.support) not in (1, 2):
            raise ValueError("term support must be 1 or 2 sites")
        mat = np.asarray(self.matrix, dtype=complex)
        dim = 2 ** len(self.support)
        if mat.shape != (dim, dim):
            raise ValueError("term matrix shape does not match support")
        if np.max(np.abs(mat - mat.conj().T)) > _ATOL_HERMITIAN:
            raise ValueError("term matrix is not Hermitian")
        self.matrix = mat


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
    zz = -J / 4.0 * np.kron(SIGMA_Z, SIGMA_Z)
    x = g / 2.0 * SIGMA_X
    terms = [LocalTerm((i, i + 1), zz, "zz") for i in range(n_sites - 1)]
    terms += [LocalTerm((i,), x, "x") for i in range(n_sites)]
    return HamiltonianSpec(n_sites, tuple(terms))


def _lsb_first(term: LocalTerm) -> np.ndarray:
    """Term matrix with the lower site as the least significant local bit."""
    if len(term.support) == 2 and term.support[0] > term.support[1]:
        return term.matrix.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    return term.matrix


def _embed(term: LocalTerm, n: int) -> np.ndarray:
    lo = min(term.support)
    width = len(term.support)
    return np.kron(
        np.eye(2 ** (n - lo - width)), np.kron(_lsb_first(term), np.eye(2**lo))
    )


def dense_matrix(spec: HamiltonianSpec) -> np.ndarray:
    """Sum of embedded local terms as a dense Hermitian 2^N x 2^N matrix.

    Each term is added into a strided view of the output that is diagonal in
    the sites above and below its support: O(2^N 4^k) work per k-site term
    and no 4^N temporary.
    """
    if spec.n_sites > ORACLE_MAX_SITES:
        raise ValueError(f"oracle size limit: n_sites {spec.n_sites} > {ORACLE_MAX_SITES}")
    n = spec.n_sites
    full = np.zeros((2**n, 2**n), dtype=complex)
    for term in spec.terms:
        lo, width = min(term.support), len(term.support)
        shape = (2 ** (n - lo - width), 2**width, 2**lo)
        block = np.einsum("aibajb->aijb", full.reshape(shape + shape))  # view of full
        block += _lsb_first(term)[None, :, :, None]
    return full


@lru_cache(maxsize=8)
def _eigensystem(spec: HamiltonianSpec):
    """Eigenpairs of ``dense_matrix(spec)``, cached per spec object.  A real
    H (the TFIM, any chain of real terms) goes through the real-symmetric
    solver and has real eigenvectors."""
    full = dense_matrix(spec)
    if not full.imag.any():
        full = full.real
    energies, vectors = np.linalg.eigh(full)
    return energies, vectors


def exact_amplitude(
    spec: HamiltonianSpec,
    psi_final: StateVector,
    psi_init: StateVector,
    z: complex,
) -> complex:
    """<psi_final| exp(-i H z) |psi_init> at complex time z = t - i*beta.

    Positive imaginary part of ``z`` inserts exp(+Im(z) H), i.e.
    ``z = t + i*h`` corresponds to exp(-iHt) exp(+hH).
    """
    energies, vectors = _eigensystem(spec)
    c_final = vectors.conj().T @ psi_final.amplitudes
    c_init = vectors.conj().T @ psi_init.amplitudes
    return complex(np.sum(np.conj(c_final) * c_init * np.exp(-1j * energies * z)))


def amplitude_series(
    spec: HamiltonianSpec,
    psi_final: StateVector,
    psi_init: StateVector,
    z_values,
) -> np.ndarray:
    """``exact_amplitude`` over an array of complex times (one shared
    eigendecomposition).  The phase table exp(-i z E) is built in blocks of
    at most ``_SERIES_BLOCK`` entries, so memory stays bounded in the grid."""
    energies, vectors = _eigensystem(spec)
    c_final = vectors.conj().T @ psi_final.amplitudes
    c_init = vectors.conj().T @ psi_init.amplitudes
    weights = np.conj(c_final) * c_init
    z_values = np.asarray(z_values, dtype=complex).ravel()
    out = np.empty(z_values.size, dtype=complex)
    rows = max(1, _SERIES_BLOCK // energies.size)
    for start in range(0, z_values.size, rows):
        table = np.outer(z_values[start:start + rows], energies)
        table *= -1j
        np.exp(table, out=table)
        out[start:start + rows] = table @ weights
    return out


def oracle_evolve(spec: HamiltonianSpec, state: StateVector, t: float) -> StateVector:
    """exp(-iHt) |state> from the dense eigendecomposition."""
    energies, vectors = _eigensystem(spec)
    coeffs = vectors.conj().T @ state.amplitudes
    return StateVector(spec.n_sites, vectors @ (np.exp(-1j * energies * t) * coeffs))


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
    from .statevector import apply_matrix

    acc = 0.0 + 0.0j
    for term in spec.terms:
        h_psi = apply_matrix(state, term.matrix, term.support)
        acc += np.vdot(state.amplitudes, h_psi.amplitudes)
    if not abs(acc.imag) < 1e-10:
        raise NumericsError(
            f"expectation of Hermitian operator has imaginary part {acc.imag:.3e}"
        )
    return float(acc.real)
