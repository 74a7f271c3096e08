"""Seeded workload inputs, their references, and readers for CLI outputs.

A workload is one CLI subcommand on one generated config.  The program sees
only the config file; the benchmark seed decides the tilted product state
(``trotter_n14``, ``oracle_ldos_n8``) or the noise and shot streams
(``noisy_n8``).  ``tiny=True`` shrinks N and K for the harness smoke test.

References are computed outside any timed region:

* ``trotter_n14``: the complex Trotter overlap <psi|U_tau^k|psi>, stepped
  with the library's own ``build_plan``/``evolve``/``inner_product``, so
  ``g_err`` isolates the reconstruction error;
* ``noisy_n8`` and ``oracle_ldos_n8``: the dense oracle ``amplitude_series``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Largest polar angle (rad) of a site in the seeded tilted product state.
MAX_TILT = 0.3


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    n_sites: int
    tau: float
    h: float
    t_max: float
    tolerance: float  # largest accepted max_k |G_rec - G_ref|
    output: str  # CSV the CLI writes, relative to --out

    @property
    def n_points(self) -> int:
        return int(np.floor(self.t_max / self.tau + 1e-9)) + 1

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_points) * self.tau


def workload(name: str, tiny: bool = False) -> Workload:
    """Fixed shape of a workload; ``tiny`` keeps its code path at small N, K."""
    if name == "trotter_n14":
        return Workload(name, "phase", 4 if tiny else 14, 0.05, 0.05,
                        0.2 if tiny else 0.1, 2e-3, "phase.csv")
    if name == "noisy_n8":
        return Workload(name, "noise", 3 if tiny else 8, 0.3, 0.3,
                        0.6 if tiny else 1.5, 0.25, "phase.csv")
    if name == "oracle_ldos_n8":
        return Workload(name, "ldos", 4 if tiny else 8, 0.02, 0.01,
                        0.1 if tiny else 4.0, 1e-3, "ldos.csv")
    raise ValueError(f"unknown workload {name!r}")


def _tilted_state(n_sites: int, seed: int) -> list:
    """Per-site [[re, im], [re, im]] pairs: polar angle in [0, MAX_TILT],
    uniform azimuth."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(n_sites,)))
    theta = rng.uniform(0.0, MAX_TILT, n_sites)
    azimuth = rng.uniform(0.0, 2.0 * np.pi, n_sites)
    sites = []
    for th, az in zip(theta, azimuth):
        c, s = np.cos(th / 2.0), np.sin(th / 2.0)
        sites.append([[float(c), 0.0], [float(s * np.cos(az)), float(s * np.sin(az))]])
    return sites


def config_document(wl: Workload, seed: int, tiny: bool = False) -> dict:
    """The JSON config the CLI receives for workload ``wl`` and ``seed``."""
    model = {"model": "tfim", "n": wl.n_sites, "J": 1.0, "g": 0.5}
    algorithm = {"tau": wl.tau, "h": wl.h, "t_max": wl.t_max}
    if wl.name == "trotter_n14":
        return {
            "model": model,
            "states": {"psi": _tilted_state(wl.n_sites, seed)},
            "algorithm": {**algorithm, "order": 2, "ite_mode": "general_bj",
                          "backend": "statevector_trotter"},
            "seed": seed,
        }
    if wl.name == "noisy_n8":
        # configs/noise.json with t_max 1.5 and 4 trajectories; the config
        # seed drives the noise master seed and the shot streams
        return {
            "model": model,
            "states": {"psi": "up"},
            "algorithm": {**algorithm, "order": 1},
            "noise": {"gamma": 3e-3, "n_trajectories": 5 if tiny else 4,
                      "shots": 1000000},
            "seed": seed,
        }
    return {
        "model": model,
        "states": {"psi": _tilted_state(wl.n_sites, seed)},
        "algorithm": {**algorithm, "backend": "exact_oracle", "ite_mode": "general_bj"},
        "spectral": {"hermitian_extend": True, "width": 0.08},
        "seed": seed,
    }


def write_config(wl: Workload, seed: int, directory: Path, tiny: bool = False) -> Path:
    path = Path(directory) / "workload_config.json"
    path.write_text(json.dumps(config_document(wl, seed, tiny)), encoding="utf-8")
    return path


def cli_argv(wl: Workload, config: Path, outdir: Path) -> list[str]:
    argv = [wl.command, "--config", str(config), "--out", str(outdir)]
    if wl.command == "noise":
        argv += ["--threads", "1"]
    return argv


def reference_amplitudes(wl: Workload, doc) -> np.ndarray:
    """G_ref(t_k) for the parsed run document ``doc`` of workload ``wl``."""
    from loschmidt import amplitude_series, build_plan, evolve, inner_product

    exp = doc.experiment
    times = wl.times
    if wl.name != "trotter_n14":
        return amplitude_series(exp.spec, exp.psi, exp.psi, times)
    step = build_plan(exp.spec, exp.tau, exp.tau, exp.order)
    g = np.empty(len(times), dtype=complex)
    state = exp.psi
    g[0] = inner_product(exp.psi, state)
    for k in range(1, len(times)):
        state = evolve(state, step, n_steps=1)
        g[k] = inner_product(exp.psi, state)
    return g


def _read_columns(path: Path) -> dict[str, np.ndarray]:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    if not rows:
        raise ValueError(f"{path.name} has no rows")
    return {key: np.array([float(r[key]) for r in rows]) for key in rows[0]}


def recovered_amplitudes(wl: Workload, outdir: Path) -> np.ndarray:
    """G_rec(t_k) read back from what the CLI wrote.

    ``phase.csv`` carries ``re_g``/``im_g``.  ``ldos.csv`` carries the
    densities d_l = (tau/2pi) sum_j s_j exp(i E_l t_j) of the Hermitian-
    extended series s_j = G(j tau), j = -(K-1)..K-1, on the relabelled bins
    E_l = l eta (mod 2pi/tau).  That transform is invertible, so
    s_j = (2pi / (tau n)) sum_l d_l exp(-2pi i l j / n) recovers G.
    """
    cols = _read_columns(Path(outdir) / wl.output)
    if wl.command != "ldos":
        if not np.allclose(cols["t"], wl.times, rtol=0, atol=1e-12):
            raise ValueError("phase.csv time grid differs from the workload grid")
        return cols["re_g"] + 1j * cols["im_g"]
    n_bins = 2 * wl.n_points - 1
    if len(cols["E"]) != n_bins:
        raise ValueError(f"ldos.csv has {len(cols['E'])} bins, expected {n_bins}")
    eta = 2.0 * np.pi / (n_bins * wl.tau)
    bins = np.mod(np.rint(cols["E"] / eta).astype(np.int64), n_bins)
    if len(np.unique(bins)) != n_bins:
        raise ValueError("ldos.csv energies do not cover every bin once")
    by_bin = np.empty(n_bins)
    by_bin[bins] = cols["d"]
    series = (2.0 * np.pi / (wl.tau * n_bins)) * np.fft.fft(by_bin)
    return series[: wl.n_points]
