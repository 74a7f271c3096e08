"""Layer timings of the loschmidt pipeline, best-of-k with the spread.

    PYTHONPATH=src python tools/layers.py                      # N = 8 and 14
    PYTHONPATH=src python tools/layers.py --sizes 8 14 20 --repeats 15

Each layer runs ``--repeats`` times on the same inputs; the JSON written to
stdout gives, per layer, the best, median and worst wall time in ms.  The
inputs are the TFIM (J = 1, g = 0.5) on a seeded product state whose sites
tilt by up to 0.3 rad from up, as in the ``trotter_n14`` benchmark workload.

Per size N: one order-2 Trotter step (``evolve``), the general ITE build
(``ite_build``: the pair, both signs' constants, and its stacks), the
pair's per-layer compile and apply of the plus stack, both kets grown from
the site vectors (``ite_ket``: the pair's ``kets()``, as noiseless runs
call it), the whole noiseless three-family evaluation of r^2, p+ and p- at
K = 11 grid points (``noiseless_series``: both ITE kets, then
``statevector.circuit_survivals`` on a copy of the bra under the adjoint
step, the call ``run_phase_experiment`` makes), one round of the
depolarizing channel (``noise_layer``: a ``PauliOp`` on one row when a
Pauli fires), and, for N <= 12, the dense-oracle eigensystem, an
``amplitude_series`` strip at K = 201 and ``exact_ldos`` (width 0.08) on
the cached eigensystem, with a K = 2001 strip at N = 12.  Once,
independent of N: shot sampling, ``reconstruct_trace`` and ``ldos_dft`` on
a K-point series.

OpenBLAS runs one thread unless ``OPENBLAS_NUM_THREADS`` is set, as in the
benchmark harness.  The numbers only compare within one run on one machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from loschmidt.ite import build_ite_plan_general  # noqa: E402
from loschmidt.model import ORACLE_MAX_SITES, _eigensystem, amplitude_series, tfim  # noqa: E402
from loschmidt.noise import apply_noise_layer, sample_shots  # noqa: E402
from loschmidt.reconstruct import reconstruct_trace  # noqa: E402
from loschmidt.spectral import exact_ldos, ldos_dft  # noqa: E402
from loschmidt.statevector import (  # noqa: E402
    _compile_stack,
    _run_layers,
    circuit_survivals,
    product_state,
)
from loschmidt.trotter import build_plan, evolve  # noqa: E402

#: the step and shift of the trotter_n14 workload
TAU = H = 0.05


def tilted_state(n: int, seed: int):
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(n,)))
    theta, azimuth = rng.uniform(0.0, 0.3, n), rng.uniform(0.0, 2 * np.pi, n)
    return product_state([[np.cos(a / 2), np.sin(a / 2) * np.exp(1j * b)]
                          for a, b in zip(theta, azimuth)])


def timed(fn, repeats: int) -> dict:
    """Best, median and worst wall time of ``repeats`` calls, in ms."""
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - start)
    return {"best_ms": round(1e3 * min(walls), 4),
            "median_ms": round(1e3 * statistics.median(walls), 4),
            "worst_ms": round(1e3 * max(walls), 4)}


def noiseless_series(psi, step, pair, n_points: int) -> np.ndarray:
    """r^2, p+ and p- of the noiseless backend at ``n_points`` grid points:
    one row, a copy of the bra psi, under the adjoint step, recorded
    against psi, V+ psi and V- psi.  A test holds it to the series that
    ``run_phase_experiment`` computes, byte for byte."""
    depths = [k * step.layers_per_step for k in range(n_points)]
    kets = [psi.amplitudes, *pair.kets()]
    return circuit_survivals(
        psi.amplitudes[None].copy(), step.adjoint * (n_points - 1), depths, kets)[0]


def size_layers(n: int, seed: int, repeats: int) -> dict:
    spec, psi = tfim(n, 1.0, 0.5), tilted_state(n, seed)
    step = build_plan(spec, TAU, TAU, 2)
    pair = build_ite_plan_general(spec, psi, H)
    stack, index = pair.stacks[0], pair.layer_index
    rng = np.random.default_rng(seed)
    out = {
        "ite_gates": len(stack.supports),
        "ite_layers": pair.n_layers,
        "trotter_step": timed(lambda: evolve(psi, step), repeats),
        "ite_build": timed(lambda: build_ite_plan_general(spec, psi, H).stacks, repeats),
        "ite_compile_layers": timed(lambda: _compile_stack(n, stack, index), repeats),
        "ite_apply_layers": timed(lambda: _run_layers(psi, pair.compiled[0]), repeats),
        "ite_ket": timed(pair.kets, repeats),
        "noiseless_series": timed(lambda: noiseless_series(psi, step, pair, 11), repeats),
        "noise_layer": timed(lambda: apply_noise_layer(psi, 0.05, rng), repeats),
    }
    if n <= ORACLE_MAX_SITES:
        strip = np.arange(2001)[:, None] * TAU + 1j * H * np.array([0.0, 1.0, -1.0])

        def eigensystem():
            _eigensystem.cache_clear()
            _eigensystem(spec)

        out["oracle_eigensystem"] = timed(eigensystem, repeats)
        out["amplitude_series_k201"] = timed(
            lambda: amplitude_series(spec, psi, psi, strip[:201]), repeats)
        out["exact_ldos"] = timed(lambda: exact_ldos(spec, psi, 0.08), repeats)
        if n == ORACLE_MAX_SITES:
            out["amplitude_series_k2001"] = timed(
                lambda: amplitude_series(spec, psi, psi, strip), repeats)
    return out


def series_layers(seed: int, repeats: int, n_points: int = 2001) -> dict:
    """Layers that see only a K-point series, on the exact amplitudes of an
    8-site chain."""
    spec, psi = tfim(8, 1.0, 0.5), tilted_state(8, seed)
    times = np.arange(n_points) * TAU
    strip = times[:, None] + 1j * H * np.array([0.0, 1.0, -1.0])
    g, g_plus, g_minus = amplitude_series(spec, psi, psi, strip).T
    p = np.clip(np.abs(g) ** 2, 0.0, 1.0)
    rng = np.random.default_rng(seed)
    return {
        "n_points": n_points,
        "sample_shots": timed(lambda: sample_shots(p, 10**6, rng), repeats),
        "reconstruct_trace": timed(lambda: reconstruct_trace(
            times, np.abs(g), np.abs(g_plus) ** 2, np.abs(g_minus) ** 2, 0.0, 0.0, H), repeats),
        "ldos_dft": timed(lambda: ldos_dft(g, TAU, times=times), repeats),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[8, 14])
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.repeats < 1 or min(args.sizes) < 2:
        parser.error("--repeats must be positive and every size at least 2")
    record = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__,
                    "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"]},
        "repeats": args.repeats,
        "seed": args.seed,
        "sizes": {f"N={n}": size_layers(n, args.seed, args.repeats) for n in args.sizes},
        "series": series_layers(args.seed, args.repeats),
    }
    json.dump(record, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
