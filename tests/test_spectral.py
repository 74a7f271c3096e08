"""Tests for the LDOS transforms."""

import json
import tracemalloc

import numpy as np
import pytest

import loschmidt.model as model_module
import loschmidt.spectral as spectral_module
from loschmidt.cli import main
from loschmidt.model import amplitude_series, dense_matrix, expectation, tfim
from loschmidt.spectral import exact_ldos, ldos_dft
from loschmidt.statevector import StateVector, product_state


class TestLdosDft:
    def test_single_mode_on_grid(self):
        # G(t) = e^{-i E0 t} with E0 on the bin grid: all weight in one bin
        tau, k_pts = 0.25, 17
        t = np.arange(k_pts) * tau
        n_bins = 2 * k_pts - 1
        eta = 2 * np.pi / (n_bins * tau)
        e0 = 4 * eta
        spectrum = ldos_dft(np.exp(-1j * e0 * t), tau, hermitian_extend=True)
        peak = np.argmax(spectrum.densities)
        assert abs(spectrum.energies[peak] - e0) < 1e-9
        weight_in_peak = spectrum.densities[peak] * spectrum.eta
        assert weight_in_peak >= 0.99 * spectrum.total_weight()

    def test_constant_amplitude_zero_bin(self):
        tau = 0.3
        spectrum = ldos_dft(np.ones(21), tau, hermitian_extend=True)
        peak = np.argmax(spectrum.densities)
        assert abs(spectrum.energies[peak]) < 1e-12

    def test_grid_consistency(self):
        # eta * n_bins = 2 pi / tau, and eta = pi / t_max with extension
        tau, k_pts = 0.3, 34
        spectrum = ldos_dft(np.ones(k_pts), tau, hermitian_extend=True)
        n_bins = len(spectrum.energies)
        assert abs(spectrum.eta * n_bins - 2 * np.pi / tau) < 1e-12
        t_max = (k_pts - 1) * tau
        assert abs(spectrum.eta - np.pi / t_max) < 0.02 * spectrum.eta

    def test_normalization_exact_for_oracle_input(self):
        n = 6
        spec = tfim(n, 1.0, 0.5)
        psi = product_state(["up"] * n)
        tau, t_max = 0.3, 9.9
        t = np.arange(0, t_max + 1e-9, tau)
        g = amplitude_series(spec, psi, psi, t)
        spectrum = ldos_dft(g, tau, hermitian_extend=True)
        assert abs(spectrum.total_weight() - 1.0) < 0.02
        assert spectrum.max_imag_residue < 1e-10

    def test_window_shift_is_relabeling(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=15) + 1j * rng.normal(size=15)
        a = ldos_dft(g, 0.2, hermitian_extend=True, center_energy=0.0)
        b = ldos_dft(g, 0.2, hermitian_extend=True, center_energy=-7.0)
        assert abs(np.sum(a.densities) - np.sum(b.densities)) < 1e-10
        assert np.all(np.abs(b.energies + 7.0) <= np.pi / 0.2 + 1e-9)

    def test_extension_equals_explicit_symmetric_series(self):
        # the hermitian extension is pure data preparation: transforming an
        # explicitly symmetrized series gives identical densities
        rng = np.random.default_rng(11)
        g = rng.normal(size=9) + 1j * rng.normal(size=9)
        g[0] = 1.0 + 0j
        tau = 0.4
        auto = ldos_dft(g, tau, hermitian_extend=True)
        t_ext = np.concatenate([-np.arange(8, 0, -1) * tau, np.arange(9) * tau])
        series = np.concatenate([np.conj(g[:0:-1]), g])
        manual = (tau / (2 * np.pi)) * (
            np.exp(1j * np.outer(auto.energies, t_ext)) @ series
        )
        np.testing.assert_allclose(auto.densities, manual.real, atol=1e-12)

    def test_ground_energy_visible_at_n10(self):
        n = 10
        spec = tfim(n, 1.0, 0.5)
        psi = product_state(["up"] * n)
        tau, t_max = 0.3, 10.0
        t = np.arange(0, t_max + 1e-9, tau)
        g = amplitude_series(spec, psi, psi, t)
        center = expectation(spec, psi)
        spectrum = ldos_dft(g, tau, hermitian_extend=True, center_energy=center)
        e0 = np.linalg.eigvalsh(dense_matrix(spec))[0]
        visible = spectrum.energies[spectrum.densities > 0.1]
        assert len(visible) > 0
        assert abs(visible.min() - e0) <= spectrum.eta

    def test_without_extension(self):
        # one-sided series: eta = 2 pi / (K tau), peak still at the mode
        tau, k_pts = 0.25, 32
        t = np.arange(k_pts) * tau
        eta = 2 * np.pi / (k_pts * tau)
        e0 = 5 * eta
        spectrum = ldos_dft(np.exp(-1j * e0 * t), tau, hermitian_extend=False)
        assert len(spectrum.energies) == k_pts
        assert abs(spectrum.eta - eta) < 1e-12
        peak = np.argmax(spectrum.densities)
        assert abs(spectrum.energies[peak] - e0) < 1e-9
        # a one-sided transform is genuinely complex off the peak
        assert spectrum.max_imag_residue > 0

    def test_nonuniform_grid_rejected(self):
        with pytest.raises(ValueError, match="non-uniform"):
            ldos_dft(np.ones(4), 0.1, times=np.array([0.0, 0.1, 0.25, 0.3]))

    @pytest.mark.parametrize("taper_width", [0.0, -1.0])
    def test_nonpositive_taper_rejected(self, taper_width):
        g = np.exp(-1j * 0.3 * np.arange(10) * 0.1)
        with pytest.raises(ValueError, match="taper_width must be positive"):
            ldos_dft(g, 0.1, taper_width=taper_width)

    def test_taper_damps_tail_ringing(self):
        tau, k_pts = 0.25, 40
        t = np.arange(k_pts) * tau
        e0 = 0.7
        g = np.exp(-1j * e0 * t)  # e0 off the bin grid: leakage ringing
        plain = ldos_dft(g, tau, hermitian_extend=True)
        tapered = ldos_dft(g, tau, hermitian_extend=True, taper_width=3.0)
        far = np.abs(plain.energies - e0) > 2.0
        assert np.max(np.abs(tapered.densities[far])) < np.max(np.abs(plain.densities[far]))


def _direct_ldos(g, tau, hermitian_extend, center_energy, taper_width):
    """d_l = (tau / 2 pi) sum_j s_j exp(i E_l t_j) as an explicit phase matrix
    on the shifted, sorted energy window."""
    g = np.asarray(g, dtype=complex)
    if taper_width is not None:
        g = g * np.exp(-0.5 * (np.arange(len(g)) * tau / taper_width) ** 2)
    if hermitian_extend:
        t_j = np.arange(-(len(g) - 1), len(g)) * tau
        series = np.concatenate([np.conj(g[:0:-1]), g])
    else:
        t_j = np.arange(len(g)) * tau
        series = g
    n = len(series)
    base = np.arange(n) * (2 * np.pi / (n * tau))
    period = 2 * np.pi / tau
    energies = np.sort(base - period * np.round((base - center_energy) / period))
    return energies, (tau / (2 * np.pi)) * (np.exp(1j * np.outer(energies, t_j)) @ series)


class TestLdosDftAgainstDirectSum:
    @pytest.mark.parametrize("k_pts", [2, 3, 16, 17, 64, 101])
    @pytest.mark.parametrize("hermitian_extend", [True, False])
    @pytest.mark.parametrize("center_energy,taper_width", [(0.0, None), (-3.7, None),
                                                           (2.2, 0.8)])
    def test_matches(self, k_pts, hermitian_extend, center_energy, taper_width):
        rng = np.random.default_rng(k_pts)
        g = rng.normal(size=k_pts) + 1j * rng.normal(size=k_pts)
        g[0] = 1.0
        tau = 0.07
        spectrum = ldos_dft(g, tau, hermitian_extend=hermitian_extend,
                            center_energy=center_energy, taper_width=taper_width)
        energies, densities = _direct_ldos(g, tau, hermitian_extend, center_energy,
                                           taper_width)
        np.testing.assert_allclose(spectrum.energies, energies, rtol=0, atol=1e-12)
        np.testing.assert_allclose(spectrum.densities, densities.real, rtol=0, atol=1e-12)
        assert abs(spectrum.max_imag_residue - np.max(np.abs(densities.imag))) < 1e-12

    def test_memory_bounded_in_grid_length(self):
        # a direct transform at K=5000 holds a 9999^2 phase matrix (1.6 GB)
        g = np.exp(-1j * 0.3 * np.arange(5000) * 0.01)
        tracemalloc.start()
        try:
            spectrum = ldos_dft(g, 0.01, hermitian_extend=True, center_energy=0.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(spectrum.energies) == 9999
        assert peak < 100e6


class TestLdosCommandEigensystem:
    def test_one_dense_matrix_per_run(self, tmp_path, monkeypatch):
        # the oracle series and the exact reference share one eigensystem
        calls = []
        original = model_module.dense_matrix

        def counted(spec):
            calls.append(spec)
            return original(spec)

        monkeypatch.setattr(model_module, "dense_matrix", counted)
        monkeypatch.setattr(spectral_module, "dense_matrix", counted)
        doc = {
            "model": {"model": "tfim", "n": 5, "J": 1.0, "g": 0.5},
            "states": {"psi": "up"},
            "algorithm": {"tau": 0.1, "h": 0.01, "t_max": 2.0, "backend": "exact_oracle"},
            "spectral": {"hermitian_extend": True, "width": 0.08},
        }
        cfg = tmp_path / "ldos.json"
        cfg.write_text(json.dumps(doc))
        assert main(["ldos", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "ldos_reference.csv").exists()
        assert len(calls) == 1


class TestExactLdos:
    def test_eigenstate_single_gaussian(self):
        spec = tfim(4, 1.0, 0.5)
        energies, vectors = np.linalg.eigh(dense_matrix(spec))
        k = 2
        psi = StateVector(4, vectors[:, k])
        spectrum = exact_ldos(spec, psi, width=0.05)
        peak = spectrum.energies[np.argmax(spectrum.densities)]
        assert abs(peak - energies[k]) < 0.05 / 8 + 1e-12
        assert abs(np.max(spectrum.densities) - 1 / (0.05 * np.sqrt(2 * np.pi))) < 1e-2

    def test_unit_normalization(self):
        spec = tfim(5, 1.0, 0.5)
        psi = product_state(["up"] * 5)
        spectrum = exact_ldos(spec, psi, width=0.08)
        integral = np.trapezoid(spectrum.densities, spectrum.energies)
        assert abs(integral - 1.0) < 1e-3

    def test_peak_locations_match_dft(self):
        n = 6
        spec = tfim(n, 1.0, 0.5)
        psi = product_state(["up"] * n)
        t = np.arange(0, 12.0 + 1e-9, 0.3)
        g = amplitude_series(spec, psi, psi, t)
        center = expectation(spec, psi)
        dft = ldos_dft(g, 0.3, hermitian_extend=True, center_energy=center)
        ref = exact_ldos(spec, psi, width=0.08)
        # the dominant feature sits at the same energy within one bin
        assert abs(
            dft.energies[np.argmax(dft.densities)]
            - ref.energies[np.argmax(ref.densities)]
        ) <= dft.eta

    def test_size_cap(self):
        with pytest.raises(ValueError, match="oracle size limit"):
            exact_ldos(tfim(13, 1.0, 0.5), product_state(["up"] * 13), 0.08)
