"""Local density of states from time series of the Loschmidt amplitude.

The LDOS d(E) = <psi| delta(E - H) |psi> is the Fourier transform of
G(t) = <psi| exp(-iHt) |psi>.  With samples g_k = G(k tau), k = 0..K-1, the
discrete transform

    d_l = (tau / 2 pi) sum_k g_k exp(i E_l t_k)

approximates the density on an energy grid of resolution eta = 2 pi / t_max.
When psi' = psi the symmetry G(-t) = G(t)* doubles the effective evolution
time (eta = pi / t_max).  The spectrum is periodic with period 2 pi / tau;
the reported window is shifted so that it covers the mean energy of the
initial state (a pure bin relabeling).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import HamiltonianSpec, _eigen_product, _eigensystem
from .model import dense_matrix  # noqa: F401  (perfbench/tracer.py patches it here)
from .statevector import StateVector


@dataclass
class LdosSpectrum:
    """Energy grid with density values.

    ``eta`` is the grid spacing (energy resolution) and
    ``max_imag_residue`` the largest imaginary part discarded when taking
    the real densities (tiny for Hermitian-symmetric input).  The window
    ``ldos_dft`` centred on its ``center_energy`` shows in ``energies``.
    """

    energies: np.ndarray
    densities: np.ndarray
    eta: float
    max_imag_residue: float = 0.0

    def total_weight(self) -> float:
        """eta * sum(densities); approximates the LDOS normalization 1."""
        return float(self.eta * np.sum(self.densities))


def ldos_dft(
    g_samples,
    tau: float,
    hermitian_extend: bool = True,
    center_energy: float = 0.0,
    times=None,
    taper_width: float | None = None,
) -> LdosSpectrum:
    """Discrete Fourier transform of amplitude samples into an LDOS.

    ``g_samples[k]`` is G(k tau) starting at t = 0.  With
    ``hermitian_extend`` (valid only when psi' = psi) the series is extended
    to negative times via G(-t) = G(t)*.  ``times`` may be passed for
    validation; the grid must be uniform with spacing tau starting at 0.
    ``taper_width`` optionally multiplies the samples by a Gaussian
    exp(-(t/w)^2/2) before transforming (off by default); it must be
    positive.
    """
    g = np.asarray(g_samples, dtype=complex)
    if g.ndim != 1 or len(g) < 2:
        raise ValueError("need at least 2 amplitude samples")
    if tau <= 0:
        raise ValueError("tau must be positive")
    if times is not None:
        times = np.asarray(times, dtype=float)
        if len(times) != len(g):
            raise ValueError("times and samples differ in length")
        steps = np.diff(times)
        if abs(times[0]) > 1e-12 or np.max(np.abs(steps - tau)) > 1e-9 * max(1.0, tau):
            raise ValueError("non-uniform grid: samples must sit at t = k tau")

    if taper_width is not None:
        if not taper_width > 0:
            raise ValueError("taper_width must be positive")
        t_grid = np.arange(len(g)) * tau
        g = g * np.exp(-0.5 * (t_grid / taper_width) ** 2)

    # d_l = (tau / 2 pi) sum_j s_j exp(i E_l t_j) with t_j = (j - off) tau and
    # E_l = l eta: an inverse FFT times a ramp.  The window shift below moves
    # E_l by multiples of 2 pi / tau, which leaves every exp(i E_l t_j) as is.
    if hermitian_extend:
        series = np.concatenate([np.conj(g[:0:-1]), g])
        off = len(g) - 1
    else:
        series = g
        off = 0

    n_bins = len(series)
    eta = 2.0 * np.pi / (n_bins * tau)
    bins = np.arange(n_bins)
    ramp = np.exp(-2j * np.pi * ((bins * off) % n_bins) / n_bins)
    densities = (tau * n_bins / (2.0 * np.pi)) * np.fft.ifft(series) * ramp
    base = bins * eta
    period = 2.0 * np.pi / tau
    energies = base - period * np.round((base - center_energy) / period)
    order = np.argsort(energies)
    energies = energies[order]
    densities = densities[order]
    residue = float(np.max(np.abs(densities.imag)))
    return LdosSpectrum(
        energies=energies,
        densities=densities.real,
        eta=eta,
        max_imag_residue=residue,
    )


def exact_ldos(spec: HamiltonianSpec, psi: StateVector, width: float) -> LdosSpectrum:
    """Gaussian-broadened exact LDOS from the cached dense eigensystem.

    d(E) = sum_k |<E_k|psi>|^2 N(E - E_k; width) on a grid extending a few
    widths past the spectrum edges; normalized to unit integral.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    energies, vectors, _ = _eigensystem(spec)
    weights = np.abs(_eigen_product(psi.amplitudes, vectors.conj())) ** 2
    lo = energies[0] - 6 * width
    hi = energies[-1] + 6 * width
    step = width / 8.0
    grid = np.arange(lo, hi + step, step)
    # one grid x 2^N buffer, updated in place
    gauss = np.subtract.outer(grid, energies)
    gauss /= width
    np.square(gauss, out=gauss)
    gauss *= -0.5
    np.exp(gauss, out=gauss)
    gauss /= width * np.sqrt(2.0 * np.pi)
    densities = gauss @ weights
    return LdosSpectrum(energies=grid, densities=densities, eta=float(step))
