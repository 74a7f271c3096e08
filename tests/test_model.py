"""Tests for Hamiltonian construction and the dense complex-time oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from test_compiled_plans import PROPERTY, chains

from loschmidt.exceptions import NumericsError
from loschmidt.model import (
    HamiltonianSpec,
    LocalTerm,
    SIGMA_X,
    SIGMA_Y,
    _eigensystem,
    _embed,
    amplitude_series,
    dense_matrix,
    exact_amplitude,
    expectation,
    oracle_phase_series,
    tfim,
)
from loschmidt.statevector import StateVector, product_state

RNG = np.random.default_rng(7)


def random_hermitian(dim, rng=RNG):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def random_tfim_product(n, rng=RNG):
    spec = tfim(n, float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.2, 1.0)))
    psi = product_state(["up"] * n)
    return spec, psi


class TestTfim:
    def test_two_site_ising_ground_energy(self):
        # eigenvalues of -(sigma^z x sigma^z)/4 are +-1/4, each twice
        eigs = np.linalg.eigvalsh(dense_matrix(tfim(2, 1.0, 0.0)))
        assert abs(eigs[0] + 0.25) < 1e-12
        assert np.allclose(sorted(eigs), [-0.25, -0.25, 0.25, 0.25])

    def test_two_free_spins_spectrum(self):
        eigs = np.linalg.eigvalsh(dense_matrix(tfim(2, 0.0, 1.0)))
        assert np.allclose(sorted(eigs), [-1.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_term_structure(self):
        spec = tfim(5, 1.0, 0.5)
        zz = [t for t in spec.terms if t.group == "zz"]
        x = [t for t in spec.terms if t.group == "x"]
        assert len(zz) == 4 and len(x) == 5
        assert all(len(t.support) == 2 for t in zz)
        assert np.allclose(x[0].matrix, 0.25 * SIGMA_X)
        # open boundary: no (4, 0) bond
        assert all(abs(t.support[0] - t.support[1]) == 1 for t in zz)

    def test_large_chain_constructs_without_dense(self):
        # the N=24 instance of the applications section is representable;
        # only the dense oracle is capped
        spec = tfim(24, 1.0, 0.5)
        assert len(spec.terms) == 23 + 24
        with pytest.raises(ValueError, match="oracle size limit"):
            dense_matrix(spec)

    def test_too_small(self):
        with pytest.raises(ValueError):
            tfim(1, 1.0, 0.5)


class TestDenseMatrix:
    def test_two_site_ising_diagonal(self):
        mat = dense_matrix(tfim(2, 1.0, 0.0))
        assert np.allclose(mat, np.diag([-0.25, 0.25, 0.25, -0.25]))

    def test_zero_terms(self):
        spec = HamiltonianSpec(3, ())
        assert np.allclose(dense_matrix(spec), 0.0)

    def test_hermitian_for_random_terms(self):
        for _ in range(5):
            n = int(RNG.integers(2, 6))
            terms = []
            for _ in range(int(RNG.integers(1, 5))):
                if RNG.random() < 0.5:
                    site = int(RNG.integers(0, n))
                    terms.append(LocalTerm((site,), random_hermitian(2)))
                else:
                    i = int(RNG.integers(0, n - 1))
                    terms.append(LocalTerm((i, i + 1), random_hermitian(4)))
            mat = dense_matrix(HamiltonianSpec(n, tuple(terms)))
            assert np.max(np.abs(mat - mat.conj().T)) < 1e-10

    def test_descending_support_matches_swapped(self):
        # a term given on (1, 0) equals the bit-swapped term on (0, 1)
        m = random_hermitian(4)
        swapped = m.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
        a = dense_matrix(HamiltonianSpec(2, (LocalTerm((1, 0), m),)))
        b = dense_matrix(HamiltonianSpec(2, (LocalTerm((0, 1), swapped),)))
        assert np.allclose(a, b)

    @PROPERTY
    @given(chains())
    def test_equals_sum_of_kron_embedded_terms(self, spec):
        # random 1- and 2-site terms at N <= 8, reversed supports included
        expected = np.zeros((2**spec.n_sites,) * 2, dtype=complex)
        for term in spec.terms:
            expected += _embed(term, spec.n_sites)
        built = dense_matrix(spec)
        assert built.dtype == complex
        np.testing.assert_array_equal(built, expected)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            LocalTerm((0,), np.array([[0, 1], [0, 0]], dtype=complex))

    def test_non_adjacent_rejected(self):
        with pytest.raises(ValueError, match="adjacent"):
            HamiltonianSpec(4, (LocalTerm((0, 2), random_hermitian(4)),))


class TestExactAmplitude:
    def test_z_zero_is_overlap(self):
        spec = tfim(3, 1.0, 0.5)
        psi = product_state(["up", "down", "up"])
        phi = product_state(["x+", "x+", "x+"])
        expected = np.vdot(phi.amplitudes, psi.amplitudes)
        assert abs(exact_amplitude(spec, phi, psi, 0.0) - expected) < 1e-12

    def test_single_site_real_time(self):
        # H = g S^x on one site: <up|exp(-iHt)|up> = cos(gt/2)
        g = 0.7
        spec = HamiltonianSpec(1, (LocalTerm((0,), g / 2 * SIGMA_X),))
        psi = product_state(["up"])
        for t in (0.3, 1.1, 2.5):
            amp = exact_amplitude(spec, psi, psi, t)
            assert abs(amp - np.cos(g * t / 2)) < 1e-12

    def test_single_site_imaginary_time(self):
        # z = -i h inserts exp(-hH): <up|exp(-h g S^x)|up> = cosh(hg/2)
        g, h = 0.7, 0.35
        spec = HamiltonianSpec(1, (LocalTerm((0,), g / 2 * SIGMA_X),))
        psi = product_state(["up"])
        amp = exact_amplitude(spec, psi, psi, -1j * h)
        assert abs(amp - np.cosh(h * g / 2)) < 1e-12

    def test_magnitude_bounded_by_one_real_time(self):
        spec, psi = random_tfim_product(5)
        for t in np.linspace(0, 8, 17):
            assert abs(exact_amplitude(spec, psi, psi, t)) <= 1 + 1e-12

    def test_time_reversal_conjugation(self):
        spec, psi = random_tfim_product(4)
        for t in (0.4, 1.7):
            forward = exact_amplitude(spec, psi, psi, t)
            backward = exact_amplitude(spec, psi, psi, -t)
            assert abs(backward - np.conj(forward)) < 1e-12

    def test_cauchy_riemann_midpoint_identity(self):
        # finite-difference d(ln r)/d(beta) matches finite-difference
        # d(phi)/dt with O(h^2) error: empirical exponent 2 +- 0.2
        for n in (4, 6, 8):
            spec = tfim(n, 1.0, 0.5)
            psi = product_state(["up"] * n)
            t0 = 0.8
            errors = []
            steps = [0.1, 0.05, 0.025]
            for h in steps:
                r_minus = abs(exact_amplitude(spec, psi, psi, t0 - 1j * h))
                r_plus = abs(exact_amplitude(spec, psi, psi, t0 + 1j * h))
                d_beta = (np.log(r_minus) - np.log(r_plus)) / (2 * h)
                g_minus = exact_amplitude(spec, psi, psi, t0 - h)
                g_plus = exact_amplitude(spec, psi, psi, t0 + h)
                d_t = np.angle(g_plus / g_minus) / (2 * h)
                errors.append(abs(d_beta - d_t))
            slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
            assert abs(slope - 2.0) < 0.2


class TestExpectation:
    def test_tfim_all_up(self):
        for n, J, g in [(2, 1.0, 0.5), (5, 1.3, 0.7), (8, 0.9, 0.2)]:
            spec = tfim(n, J, g)
            psi = product_state(["up"] * n)
            assert abs(expectation(spec, psi) - (-J * (n - 1) / 4)) < 1e-12

    def test_matches_dense_oracle(self):
        spec, _ = random_tfim_product(5)
        amps = RNG.normal(size=32) + 1j * RNG.normal(size=32)
        amps /= np.linalg.norm(amps)
        state = product_state(["up"] * 5)
        state = type(state)(5, amps)
        dense = np.vdot(amps, dense_matrix(spec) @ amps).real
        assert abs(expectation(spec, state) - dense) < 1e-10

    def test_zero_hamiltonian(self):
        spec = HamiltonianSpec(3, ())
        psi = product_state(["x+", "y-", "down"])
        assert expectation(spec, psi) == 0.0

    def test_eigenstate_gives_eigenvalue(self):
        spec = tfim(4, 1.0, 0.5)
        energies, vectors = np.linalg.eigh(dense_matrix(spec))
        k = 3
        state = product_state(["up"] * 4)
        state = type(state)(4, vectors[:, k])
        assert abs(expectation(spec, state) - energies[k]) < 1e-10

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            expectation(tfim(3, 1, 0.5), product_state(["up"] * 4))

    def test_imaginary_residue_raises(self):
        # terms are checked Hermitian at construction; one altered afterwards
        # gives <psi|i*1|psi> = i, which must raise even under python -O
        term = LocalTerm((0,), SIGMA_X)
        term.matrix = 1j * np.eye(2)
        with pytest.raises(NumericsError, match="imaginary part"):
            expectation(HamiltonianSpec(1, (term,)), product_state(["x+"]))


class TestOraclePhaseSeries:
    def test_matches_pointwise_angle_for_slow_phase(self):
        spec = tfim(4, 1.0, 0.5)
        psi = product_state(["up"] * 4)
        times = np.linspace(0, 2, 41)
        r, phi = oracle_phase_series(spec, psi, psi, times)
        for k in (0, 10, 25):
            g = exact_amplitude(spec, psi, psi, times[k])
            assert abs(r[k] - abs(g)) < 1e-12
            # phases agree modulo 2 pi
            assert abs(np.exp(1j * phi[k]) - np.exp(1j * np.angle(g))) < 1e-10


def _complex_eigh_series(spec, bra, ket, z_values):
    """V exp(-i E z) V^dag from the complex solver, independent of the
    oracle's cache and of its choice of solver."""
    energies, vectors = np.linalg.eigh(dense_matrix(spec))
    weights = np.conj(vectors.conj().T @ bra.amplitudes) * (vectors.conj().T @ ket.amplitudes)
    return np.array([np.sum(weights * np.exp(-1j * energies * z)) for z in z_values])


def _random_unit_state(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(n, amps / np.linalg.norm(amps))


class TestAmplitudeSeries:
    Z_VALUES = np.concatenate([
        np.linspace(0.0, 6.0, 25) + 0j,
        np.linspace(0.0, 6.0, 25) + 0.05j,
        np.linspace(0.0, 6.0, 25) - 0.05j,
    ])

    def test_real_tfim_uses_real_eigenvectors_and_matches(self):
        rng = np.random.default_rng(41)
        spec = tfim(6, 1.0, 0.5)
        bra, ket = _random_unit_state(rng, 6), _random_unit_state(rng, 6)
        assert _eigensystem(spec)[1].dtype == np.float64
        got = amplitude_series(spec, bra, ket, self.Z_VALUES)
        want = _complex_eigh_series(spec, bra, ket, self.Z_VALUES)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_sigma_y_term_keeps_complex_solver_and_matches(self):
        rng = np.random.default_rng(43)
        base = tfim(5, 1.0, 0.5)
        spec = HamiltonianSpec(5, base.terms + (LocalTerm((2,), 0.3 * SIGMA_Y, "y"),))
        bra, ket = _random_unit_state(rng, 5), _random_unit_state(rng, 5)
        assert _eigensystem(spec)[1].dtype == np.complex128
        got = amplitude_series(spec, bra, ket, self.Z_VALUES)
        want = _complex_eigh_series(spec, bra, ket, self.Z_VALUES)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_blocks_agree_with_pointwise_amplitude(self, monkeypatch):
        # blocks of 7 rows: a ragged last block and several full ones
        import loschmidt.model as model_module

        spec = tfim(4, 1.0, 0.5)
        psi = product_state(["up"] * 4)
        monkeypatch.setattr(model_module, "_SERIES_BLOCK", 7 * 16)
        z_values = np.linspace(0.0, 3.0, 30) + 0.02j
        got = amplitude_series(spec, psi, psi, z_values)
        want = [exact_amplitude(spec, psi, psi, z) for z in z_values]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_memory_bounded_in_grid_length(self):
        # one K x 2^N phase table would be 20000 * 1024 * 16 B = 328 MB
        spec = tfim(10, 1.0, 0.5)
        psi = product_state(["up"] * 10)
        times = np.arange(20000) * 0.01
        tracemalloc.start()
        try:
            series = amplitude_series(spec, psi, psi, times)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert series.shape == (20000,)
        assert peak < 100e6
