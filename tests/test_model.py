"""Tests for Hamiltonian construction and the dense complex-time oracle."""

import sys
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_compiled_plans import PROPERTY, SEEDS, chains

import loschmidt.model as model_module
from loschmidt.exceptions import NumericsError
from loschmidt.model import (
    HamiltonianSpec,
    LocalTerm,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _eigensystem,
    _embed,
    amplitude_series,
    dense_matrix,
    exact_amplitude,
    expectation,
    oracle_evolve,
    oracle_phase_series,
    tfim,
)
from loschmidt.spectral import exact_ldos
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

    def test_each_matrix_checked_once(self, monkeypatch):
        # 27 terms share two matrices: each is checked on its first term only
        checked = []
        original = LocalTerm.__post_init__

        def counted(term):
            checked.append(term.support)
            original(term)

        monkeypatch.setattr(LocalTerm, "__post_init__", counted)
        spec = tfim(14, 1.0, 0.5)
        assert checked == [(0, 1), (0,)]
        assert [t.support for t in spec.terms] == (
            [(i, i + 1) for i in range(13)] + [(i,) for i in range(14)])
        assert len({id(t.matrix) for t in spec.terms}) == 2
        assert [t.group for t in spec.terms] == ["zz"] * 13 + ["x"] * 14

    def test_moved_term_keeps_its_width(self):
        with pytest.raises(ValueError, match="width"):
            LocalTerm((0,), SIGMA_X)._moved((0, 1))

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
        # random 1- and 2-site terms at N <= 8, reversed supports included;
        # off the diagonal the terms add in term order, on it in sorted order
        expected = np.zeros((2**spec.n_sites,) * 2, dtype=complex)
        diagonals = []
        for term in spec.terms:
            expected += _embed(term, spec.n_sites)
            diagonals.append(np.diagonal(_embed(term, spec.n_sites)))
        if diagonals:
            np.fill_diagonal(expected, [
                sum(sorted(entry, key=lambda z: (z.real, z.imag)), 0j)
                for entry in zip(*diagonals)
            ])
        built = dense_matrix(spec)
        # real terms give a real H, bitwise the real part of the complex sum
        real = not any(term.matrix.imag.any() for term in spec.terms)
        assert built.dtype == (float if real else complex)
        np.testing.assert_array_equal(built, expected)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            LocalTerm((0,), np.array([[0, 1], [0, 0]], dtype=complex))

    def test_non_adjacent_rejected(self):
        with pytest.raises(ValueError, match="adjacent"):
            HamiltonianSpec(4, (LocalTerm((0, 2), random_hermitian(4)),))

    @pytest.mark.parametrize("support", [(0.7,), (True,), (0, 1.0), (np.float64(1.0),)])
    def test_term_site_must_be_an_integer(self, support):
        with pytest.raises(ValueError, match="site indices must be integers"):
            LocalTerm(support, np.eye(2 ** len(support)))

    def test_numpy_integer_support_stays_valid(self):
        term = LocalTerm((np.int64(1), np.int64(0)), np.eye(4))
        assert term.support == (1, 0) and all(type(s) is int for s in term.support)


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
        points = [0, 10, 25]
        for k, g in zip(points, _complex_eigh_series(spec, psi, psi, times[points])):
            assert abs(r[k] - abs(g)) < 1e-12
            # phases agree modulo 2 pi
            assert abs(np.exp(1j * phi[k]) - np.exp(1j * np.angle(g))) < 1e-10


def _complex_eigh_series(spec, bra, ket, z_values):
    """V exp(-i E z) V^dag from the complex solver, independent of the
    oracle's cache and of its choice of solver."""
    energies, vectors = np.linalg.eigh(dense_matrix(spec).astype(complex))
    weights = np.conj(vectors.conj().T @ bra.amplitudes) * (vectors.conj().T @ ket.amplitudes)
    return np.array([np.sum(weights * np.exp(-1j * energies * z)) for z in z_values])


def _check_points_and_ldos(spec, bra, ket, z_values, width=0.08):
    """``exact_amplitude`` at each z, and the ``exact_ldos`` densities of
    ket, against the complex solver."""
    points = [exact_amplitude(spec, bra, ket, z) for z in z_values]
    np.testing.assert_allclose(points, _complex_eigh_series(spec, bra, ket, z_values),
                               rtol=0, atol=1e-12)
    energies, vectors = np.linalg.eigh(dense_matrix(spec))
    spectrum = exact_ldos(spec, ket, width)
    gauss = np.exp(-0.5 * (np.subtract.outer(spectrum.energies, energies) / width) ** 2)
    weights = np.abs(vectors.conj().T @ ket.amplitudes) ** 2
    np.testing.assert_allclose(spectrum.densities, gauss @ weights / (width * np.sqrt(2.0 * np.pi)),
                               rtol=0, atol=1e-12)


def _random_unit_state(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(n, amps / np.linalg.norm(amps))


class TestAmplitudeSeries:
    Z_VALUES = np.concatenate([
        np.linspace(0.0, 6.0, 25) + 0j,
        np.linspace(0.0, 6.0, 25) + 0.05j,
        np.linspace(0.0, 6.0, 25) - 0.05j,
    ])

    #: the same times as a (25, 3) strip t, t + 0.05i, t - 0.05i
    Z_GRID = Z_VALUES.reshape(3, 25).T

    def _check_flat_and_grid(self, spec, bra, ket):
        got = amplitude_series(spec, bra, ket, self.Z_VALUES)
        want = _complex_eigh_series(spec, bra, ket, self.Z_VALUES)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        grid = amplitude_series(spec, bra, ket, self.Z_GRID)
        assert grid.shape == (25, 3)
        np.testing.assert_allclose(grid, got.reshape(3, 25).T, rtol=0, atol=1e-12)
        _check_points_and_ldos(spec, bra, ket, self.Z_VALUES[::7])

    def test_real_tfim_uses_real_eigenvectors_and_matches(self):
        rng = np.random.default_rng(41)
        spec = tfim(6, 1.0, 0.5)
        bra, ket = _random_unit_state(rng, 6), _random_unit_state(rng, 6)
        assert _eigensystem(spec)[1].dtype == np.float64
        self._check_flat_and_grid(spec, bra, ket)

    def test_sigma_y_term_keeps_complex_solver_and_matches(self):
        rng = np.random.default_rng(43)
        base = tfim(5, 1.0, 0.5)
        spec = HamiltonianSpec(5, base.terms + (LocalTerm((2,), 0.3 * SIGMA_Y, "y"),))
        bra, ket = _random_unit_state(rng, 5), _random_unit_state(rng, 5)
        assert _eigensystem(spec)[1].dtype == np.complex128
        self._check_flat_and_grid(spec, bra, ket)

    def test_grid_columns_must_differ_by_constants(self):
        spec = tfim(3, 1.0, 0.5)
        psi = product_state(["up"] * 3)
        t = np.linspace(0.0, 1.0, 5)
        grid = t[:, None] + 0.05j * np.array([0.0, 1.0, -1.0])
        grid[2, 1] += 1e-12
        with pytest.raises(ValueError, match="differ by constants"):
            amplitude_series(spec, psi, psi, grid)
        with pytest.raises(ValueError, match="differ by constants"):
            amplitude_series(spec, psi, psi, np.stack([t, 2.0 * t], axis=1))

    def test_blocks_agree_with_the_complex_solver(self, monkeypatch):
        # blocks of 7 rows: a ragged last block and several full ones
        import loschmidt.model as model_module

        spec = tfim(4, 1.0, 0.5)
        psi = product_state(["up"] * 4)
        monkeypatch.setattr(model_module, "_SERIES_BLOCK", 7 * 16)
        z_values = np.linspace(0.0, 3.0, 30) + 0.02j
        got = amplitude_series(spec, psi, psi, z_values)
        want = _complex_eigh_series(spec, psi, psi, z_values)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        # the (K, 3) strip goes through the same blocks of its first column
        strip = z_values[:, None] + 0.03j * np.array([0.0, 1.0, -1.0])
        got = amplitude_series(spec, psi, psi, strip)
        want = _complex_eigh_series(spec, psi, psi, strip.ravel()).reshape(strip.shape)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_real_h_makes_no_complex_copy_of_the_eigenvectors(self):
        # a complex copy of the real 1024 x 1024 eigenvectors would be 16 MiB
        spec = tfim(10, 1.0, 0.5)
        psi = product_state(["up"] * 10)
        assert _eigensystem(spec).vectors.dtype == np.float64
        tracemalloc.start()
        try:
            series = amplitude_series(spec, psi, psi, np.arange(64) * 0.1)
            evolved = oracle_evolve(spec, psi, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert series.shape == (64,) and evolved.n_qubits == 10
        assert peak < 4 * 2**20

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


def _per_entry_series(*args):
    """``amplitude_series`` on its per-entry phase table, one complex exp
    per entry: the reference of the factored table."""
    with patch.object(model_module, "_FACTORED_MIN_ROWS", sys.maxsize):
        return amplitude_series(*args)


class TestFactoredPhaseTable:
    """A real arithmetic grid of at least ``_FACTORED_MIN_ROWS`` times builds
    its phase table from two small tables; every other grid keeps the
    per-entry table, bit for bit."""

    @PROPERTY
    @given(spec=st.one_of(chains(max_sites=6), st.just(tfim(8, 1.0, 0.5))), seed=SEEDS,
           t0=st.floats(-50.0, 50.0), step=st.floats(1e-3, 0.5),
           k=st.integers(model_module._FACTORED_MIN_ROWS, 2001), block_rows=st.integers(1, 40),
           h=st.sampled_from([0.0, 0.05]))
    def test_within_rounding_of_the_per_entry_table(self, spec, seed, t0, step, k, block_rows, h):
        # blocks of up to 40 rows split the groups of m rows at their ends
        rng = np.random.default_rng(seed)
        bra, ket = (_random_unit_state(rng, spec.n_sites) for _ in range(2))
        times = t0 + np.arange(k) * step
        assert model_module._grid_step(times + 0j) is not None
        grid = times[:, None] + 1j * h * np.array([0.0, 1.0, -1.0])
        with patch.object(model_module, "_SERIES_BLOCK", block_rows * 2**spec.n_sites):
            factored = amplitude_series(spec, bra, ket, grid)
            reference = _per_entry_series(spec, bra, ket, grid)
        top = np.max(np.abs(_eigensystem(spec).energies))
        # the weights of the t -+ ih columns grow by up to exp(h max|E|)
        bound = 1e-13 * (1.0 + top * np.max(np.abs(times))) * np.exp(h * top)
        assert np.max(np.abs(factored - reference)) <= bound

    def test_every_grid_of_a_run_takes_the_factored_table(self):
        # run_phase_experiment's grids: k tau, shifted by a prefix of steps
        for tau in (0.001, 0.01, 0.02, 0.05, 0.1, 0.3):
            for k in (16, 201, 2001):
                for prefix in (0, 1, 17):
                    times = np.arange(k) * tau + prefix * tau
                    step = model_module._grid_step(times + 0j)
                    assert step == pytest.approx(tau, rel=1e-12)

    def _assert_bitwise_per_entry(self, grid):
        spec = tfim(6, 1.0, 0.5)
        rng = np.random.default_rng(5)
        bra, ket = _random_unit_state(rng, 6), _random_unit_state(rng, 6)
        assert np.array_equal(amplitude_series(spec, bra, ket, grid),
                              _per_entry_series(spec, bra, ket, grid))

    def test_a_grid_off_arithmetic_keeps_the_per_entry_table(self):
        times = np.arange(201) * 0.05
        times[100] += 1e-9
        assert model_module._grid_step(times + 0j) is None
        self._assert_bitwise_per_entry(times)
        self._assert_bitwise_per_entry(times[:, None] + 0.01j * np.array([0.0, 1.0, -1.0]))

    def test_a_complex_first_column_keeps_the_per_entry_table(self):
        times = np.arange(201) * 0.05 + 0.01j
        assert model_module._grid_step(times) is None
        self._assert_bitwise_per_entry(times)
        self._assert_bitwise_per_entry(times[:, None] + np.array([0.0, 0.02j]))

    def test_a_short_grid_keeps_the_per_entry_table(self):
        times = np.arange(model_module._FACTORED_MIN_ROWS - 1) * 0.05
        assert model_module._grid_step(times + 0j) is None
        self._assert_bitwise_per_entry(times)
        self._assert_bitwise_per_entry(np.array([0.7]))

    def test_columns_that_differ_by_more_than_constants_still_refused(self):
        spec = tfim(3, 1.0, 0.5)
        psi = product_state(["up"] * 3)
        t = np.arange(201) * 0.05
        with pytest.raises(ValueError, match="differ by constants"):
            amplitude_series(spec, psi, psi, np.stack([t, 2.0 * t], axis=1))


#: 2-site terms that commute with X (x) X: real ones, and Y (x) Z, which is
#: imaginary, so a chain holding it takes the complex solver
_FLIP_BONDS_REAL = (np.kron(SIGMA_X, SIGMA_X), np.kron(SIGMA_Y, SIGMA_Y),
                    np.kron(SIGMA_Z, SIGMA_Z))
_FLIP_BONDS_COMPLEX = (np.kron(SIGMA_Y, SIGMA_Z), np.kron(SIGMA_Z, SIGMA_Y))


@st.composite
def flip_chains(draw, complex_bonds, z_field=False, palindromic=False, max_sites=8):
    """A chain on 1..max_sites sites that commutes with the global flip
    prod X: random XX, YY, ZZ (and with ``complex_bonds`` YZ, ZY) bonds,
    some with reversed supports, and X fields; with ``z_field`` one Z field
    breaks the flip.  Random bonds break the mirror i -> n-1-i; with
    ``palindromic`` every term also appears mirrored, with dyadic
    coefficients, which add exactly, so the dense H is bitwise invariant
    under the mirror."""
    n = draw(st.integers(1, max_sites))
    rng = np.random.default_rng(draw(SEEDS))

    def coefficient(low, high):
        return rng.integers(8 * low, 8 * high + 1) / 8 if palindromic else rng.uniform(low, high)

    terms = []
    for i in range(n - 1):
        support = (i + 1, i) if draw(st.booleans()) else (i, i + 1)
        for matrix in _FLIP_BONDS_REAL:
            terms.append(LocalTerm(support, coefficient(-1, 1) * matrix))
        if complex_bonds:
            # positive, so that no sum of mirrored terms cancels the
            # imaginary part of a chain of two or more sites
            for matrix in _FLIP_BONDS_COMPLEX:
                terms.append(LocalTerm(support, coefficient(0.5, 1) * matrix))
    terms += [LocalTerm((i,), coefficient(-1, 1) * SIGMA_X) for i in range(n)]
    if z_field:
        site = draw(st.integers(0, n - 1))
        terms.append(LocalTerm((site,), coefficient(0.5, 1) * SIGMA_Z))
    if palindromic:
        terms += [LocalTerm(tuple(n - 1 - i for i in term.support), term.matrix)
                  for term in terms]
    rng.shuffle(terms)
    return HamiltonianSpec(n, tuple(terms))


def _group_blocks(n, flip, mirror):
    """Non-empty symmetry blocks of an n-site H that keeps the flip and/or
    the mirror.  Each of them that is not the identity (the flip from one
    site, the mirror from two) doubles the count, but at two sites the
    block even under the flip and odd under the mirror is empty."""
    flip, mirror = flip and n >= 1, mirror and n >= 2
    return 2 ** (flip + mirror) - (flip and mirror and n == 2)


def _reference_eigh(spec):
    """One full eigh of the dense H, on the real solver when H is real: the
    oracle without symmetry blocks."""
    full = dense_matrix(spec)
    return np.linalg.eigh(full if full.imag.any() else full.real)


class TestSymmetryBlocks:
    """The oracle's flip x mirror symmetry blocks against one full eigh of H."""

    #: a (K, 3) strip t, t + 0.05i, t - 0.05i, and the same times flat
    Z_GRID = np.linspace(0.0, 6.0, 13)[:, None] + 0.05j * np.array([0.0, 1.0, -1.0])
    Z_VALUES = Z_GRID.T.ravel()

    @staticmethod
    def _check_eigensystem(spec, energies, vectors):
        """Ascending energies of H, and orthonormal eigenvectors."""
        full = dense_matrix(spec)
        assert np.all(np.diff(energies) >= 0)
        np.testing.assert_allclose(energies, np.linalg.eigvalsh(full), rtol=0, atol=1e-12)
        np.testing.assert_allclose(vectors.T.conj() @ vectors, np.eye(len(energies)),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(full @ vectors, vectors * energies, rtol=0, atol=1e-12)

    def _check_oracle(self, spec, seed):
        """Amplitudes, evolution and LDOS of the oracle against the complex
        solver on the full H."""
        rng = np.random.default_rng(seed)
        bra, ket = _random_unit_state(rng, spec.n_sites), _random_unit_state(rng, spec.n_sites)
        want = _complex_eigh_series(spec, bra, ket, self.Z_VALUES)
        np.testing.assert_allclose(amplitude_series(spec, bra, ket, self.Z_VALUES), want,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(amplitude_series(spec, bra, ket, self.Z_GRID),
                                   want.reshape(3, -1).T, rtol=0, atol=1e-12)
        energies, vectors = np.linalg.eigh(dense_matrix(spec))
        evolved = vectors @ (np.exp(-1.3j * energies) * (vectors.conj().T @ ket.amplitudes))
        np.testing.assert_allclose(oracle_evolve(spec, ket, 1.3).amplitudes, evolved,
                                   rtol=0, atol=1e-12)
        _check_points_and_ldos(spec, bra, ket, self.Z_VALUES[::5])

    def _check_blocks(self, spec, seed, sectors, dtype):
        energies, vectors, got = _eigensystem(spec)
        assert got == sectors
        assert vectors.dtype == dtype
        self._check_eigensystem(spec, energies, vectors)
        self._check_oracle(spec, seed)

    @PROPERTY
    @given(spec=flip_chains(complex_bonds=False), seed=SEEDS)
    def test_real_flip_chain_in_two_real_blocks(self, spec, seed):
        self._check_blocks(spec, seed, 2, np.float64)

    @PROPERTY
    @given(spec=flip_chains(complex_bonds=True), seed=SEEDS)
    def test_complex_flip_chain_in_two_complex_blocks(self, spec, seed):
        dtype = np.complex128 if spec.n_sites > 1 else np.float64
        self._check_blocks(spec, seed, 2, dtype)

    @PROPERTY
    @given(spec=flip_chains(complex_bonds=False, palindromic=True), seed=SEEDS)
    def test_real_palindromic_chain_in_the_blocks_of_both(self, spec, seed):
        self._check_blocks(spec, seed, _group_blocks(spec.n_sites, True, True), np.float64)

    @PROPERTY
    @given(spec=flip_chains(complex_bonds=True, palindromic=True), seed=SEEDS)
    def test_complex_palindromic_chain_in_the_blocks_of_both(self, spec, seed):
        dtype = np.complex128 if spec.n_sites > 1 else np.float64
        self._check_blocks(spec, seed, _group_blocks(spec.n_sites, True, True), dtype)

    @PROPERTY
    @given(spec=st.one_of(flip_chains(complex_bonds=False, z_field=True, palindromic=True),
                          flip_chains(complex_bonds=True, z_field=True, palindromic=True)),
           seed=SEEDS)
    def test_mirror_without_the_flip_in_its_two_blocks(self, spec, seed):
        energies, vectors, sectors = _eigensystem(spec)
        assert sectors == _group_blocks(spec.n_sites, False, True)
        self._check_eigensystem(spec, energies, vectors)
        self._check_oracle(spec, seed)

    @PROPERTY
    @given(spec=st.one_of(flip_chains(complex_bonds=False, z_field=True),
                          flip_chains(complex_bonds=True, z_field=True), chains()),
           seed=SEEDS)
    def test_without_the_symmetry_one_full_eigh_as_before(self, spec, seed):
        energies, vectors, sectors = _eigensystem(spec)
        want_energies, want_vectors = _reference_eigh(spec)
        assert sectors == 1
        assert vectors.dtype == want_vectors.dtype
        assert energies.tobytes() == want_energies.tobytes()
        assert vectors.tobytes() == want_vectors.tobytes()
        self._check_eigensystem(spec, energies, vectors)
        self._check_oracle(spec, seed)

    @pytest.mark.parametrize("n, sectors", [(2, 3), (3, 4), (6, 4), (7, 4), (8, 4)])
    def test_tfim_takes_the_blocks_of_flip_and_mirror(self, n, sectors):
        # at N=2 the states |01> +- |10> and |00> +- |11> leave the block
        # even under the flip and odd under the mirror empty
        assert _group_blocks(n, True, True) == sectors
        self._check_blocks(tfim(n, 1.0, 0.5), n, sectors, np.float64)

    @pytest.mark.parametrize("n", [6, 8])
    @pytest.mark.parametrize("J", [0.1, 0.3, 0.7, 1.3])
    def test_tfim_keeps_the_mirror_at_any_coupling(self, n, J):
        # the mirror reverses the order of the bonds; each diagonal entry
        # sums its bond terms in sorted order, so H stays bitwise invariant
        spec = tfim(n, J, 0.5)
        full = dense_matrix(spec)
        mirror = np.arange(2**n).reshape((2,) * n).transpose().ravel()
        assert full[np.ix_(mirror, mirror)].tobytes() == full.tobytes()
        energies, vectors, sectors = _eigensystem(spec)
        assert sectors == 4
        self._check_eigensystem(spec, energies, vectors)

    def test_single_site(self):
        # H = g X: the mirror is the identity and the flip blocks are the
        # 1x1 blocks +g and -g, with X eigenvectors (1, +-1) / sqrt(2)
        g = 0.7
        spec = HamiltonianSpec(1, (LocalTerm((0,), g * SIGMA_X),))
        energies, vectors, sectors = _eigensystem(spec)
        assert sectors == 2
        np.testing.assert_allclose(energies, [-g, g], rtol=0, atol=1e-15)
        np.testing.assert_allclose(np.abs(vectors.T @ [1.0, -1.0]), [np.sqrt(2.0), 0.0],
                                   rtol=0, atol=1e-15)
        self._check_eigensystem(spec, energies, vectors)
        self._check_oracle(spec, 1)
        z_field = HamiltonianSpec(1, (LocalTerm((0,), g * SIGMA_X + 0.2 * SIGMA_Z),))
        assert _eigensystem(z_field).sectors == 1
        self._check_oracle(z_field, 2)

    def test_zero_sites_keep_their_one_state(self):
        # the 1x1 H of no sites: flip and mirror are the identity there
        energies, vectors, sectors = _eigensystem(HamiltonianSpec(0, ()))
        assert (energies.tolist(), vectors.tolist(), sectors) == ([0.0], [[1.0]], 1)
        self._check_oracle(HamiltonianSpec(0, ()), 0)
