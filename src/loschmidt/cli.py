"""Batch experiment runner.

Subcommands::

    loschmidt amplitude  --config cfg.json --out DIR   # r(t), p+-(t) only
    loschmidt phase      --config cfg.json --out DIR   # full reconstruction
    loschmidt noise      --config cfg.json --out DIR   # phase with noise block
    loschmidt two-sided  --config cfg.json --out DIR   # operator insertion
    loschmidt scaling    --config cfg.json --out DIR   # error-collapse sweeps
    loschmidt ldos       --config cfg.json --out DIR   # spectrum + reference
    loschmidt baseline   --config cfg.json --out DIR --method hadamard|sequential
    loschmidt cost       --config cfg.json --out DIR   # resource-cost table

Every run writes a resolved-config snapshot (re-ingestable) and a run-info
record with the library version next to its data files.  Numbers are
emitted with 17 significant digits and LF line endings; identical configs
and seeds reproduce byte-identical files at any ``--threads``, while values
from the dense oracle can move at rounding level with the BLAS thread count.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import CostInput, hadamard_test, resource_cost, sequential_interferometry
from .config import _ALGORITHM_CHECKS, _NOISE_CHECKS, ExperimentConfig, RunDocument, load_config
from .exceptions import ConfigError, LoschmidtError
from .model import (
    ORACLE_MAX_SITES,
    SIGMA_X,
    _eigensystem,
    exact_amplitude,
    expectation,
    oracle_evolve,
    oracle_phase_series,
    tfim,
)
from .reconstruct import PhaseTrace, run_phase_experiment
from .spectral import exact_ldos, ldos_dft
from .statevector import apply_matrix, product_state
from .trotter import build_plan, evolve

PHASE_HEADER = ["t", "r", "p_plus", "p_minus", "dphi_dt", "phi", "re_g", "im_g"]
NOISE_EXTRA_HEADER = [
    "p_plus_raw", "p_minus_raw", "p_plus_mitigated", "p_minus_mitigated", "clamped",
]


_CSV_SPECS = {"d": "%d", "s": "%s", "f": "%.17g"}


def _kind(value) -> str:
    """CSV kind of one value: "d" for bools and ints, "s" for strings, else "f"."""
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return "d"
    return "s" if isinstance(value, str) else "f"


def _csv_column(column):
    """(%-format spec, Python values) of one CSV column.  A column mixing
    numbers and strings, or ints and floats, is rendered value by value."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "biuf":
        return ("%.17g" if column.dtype.kind == "f" else "%d"), column.tolist()
    values = list(column)
    kinds = {_kind(v) for v in values}
    if len(kinds) == 1:
        return _CSV_SPECS[kinds.pop()], values
    return "%s", [_CSV_SPECS[_kind(v)] % v for v in values]


def write_csv(path: Path, header, columns) -> None:
    """Rectangular CSV with '.'-decimal 17-significant-digit floats, LF.
    Creates the output directory, so a run that fails before its first
    write leaves none."""
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = [_csv_column(column) for column in columns]
    row_format = ",".join(spec for spec, _ in columns) + "\n"
    rows = zip(*(values for _, values in columns))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        handle.write("".join(row_format % row for row in rows))


def _trace_columns(trace: PhaseTrace, with_noise: bool):
    header = list(PHASE_HEADER)
    cols = [
        trace.times, trace.r, trace.p_plus, trace.p_minus,
        trace.dphi_dt, trace.phi, trace.g_complex.real, trace.g_complex.imag,
    ]
    if with_noise:
        header += NOISE_EXTRA_HEADER
        cols += [
            trace.p_plus_raw, trace.p_minus_raw,
            trace.p_plus_mitigated, trace.p_minus_mitigated,
            trace.clamped,
        ]
    return header, cols


def _trace_health(trace: PhaseTrace) -> dict:
    """Floored points, repaired crossings and crossings skipped at the series
    boundary of a trace, for runinfo.json."""
    return {
        "floored": trace.floored,
        "crossings": trace.crossings,
        "correction_phases": trace.correction_phases,
        "skipped_crossings": trace.skipped_crossings,
    }


def _resolved_document(doc: RunDocument) -> dict:
    """Config snapshot with every default made explicit: the algorithm,
    noise and seed values the run used, and the resolved command blocks."""
    exp = doc.experiment
    resolved = json.loads(json.dumps(doc.raw))  # deep copy
    resolved["algorithm"] = {key: getattr(exp, key) for key, _, _ in _ALGORITHM_CHECKS}
    resolved["seed"] = exp.seed
    if exp.noise is not None:
        noise = {**vars(exp.noise), "seed": exp.noise.master_seed}
        resolved["noise"] = {key: noise[key] for key, _, _ in _NOISE_CHECKS}
    resolved.update(spectral=doc.spectral, baseline=doc.baseline, cost=doc.cost)
    if doc.sweep is not None:
        resolved["sweep"] = doc.sweep
    return resolved


def _oracle_record(exp: ExperimentConfig) -> dict:
    """``oracle_sectors`` of a run on the ``exact_oracle`` backend: how many
    symmetry blocks the dense H was solved in (1, 2 or 4 for the shipped
    models), read from the eigensystem the run cached; empty for the other
    backends."""
    if exp.backend != "exact_oracle":
        return {}
    return {"oracle_sectors": _eigensystem(exp.spec).sectors}


def _emit_run_records(outdir: Path, doc: RunDocument, command: str, extra=None):
    outdir.mkdir(parents=True, exist_ok=True)
    info = {"version": __version__, "command": command}
    if extra:
        info.update(extra)
    for name, record in (("resolved_config.json", _resolved_document(doc)), ("runinfo.json", info)):
        # one write of the whole text, not json.dump's stream of chunks
        text = json.dumps(record, indent=2, sort_keys=True) + "\n"
        with open(outdir / name, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def cmd_amplitude(doc: RunDocument, outdir: Path) -> int:
    trace = run_phase_experiment(doc.experiment)
    write_csv(
        outdir / "amplitude.csv",
        ["t", "r", "p_plus", "p_minus"],
        [trace.times, trace.r, trace.p_plus, trace.p_minus],
    )
    _emit_run_records(outdir, doc, "amplitude", _oracle_record(doc.experiment))
    return 0


def cmd_phase(doc: RunDocument, outdir: Path, command="phase") -> int:
    exp = doc.experiment
    if command == "noise" and exp.noise is None:
        raise ConfigError("the noise command requires a noise block")
    trace = run_phase_experiment(exp)
    header, cols = _trace_columns(trace, with_noise=exp.backend == "noisy")
    write_csv(outdir / "phase.csv", header, cols)
    _emit_run_records(outdir, doc, command, {**_trace_health(trace), **_oracle_record(exp)})
    return 0


def _anchor(exp: ExperimentConfig, reference) -> float:
    """The config's anchor, else the angle of the oracle amplitude ``reference()``;
    ConfigError beyond ORACLE_MAX_SITES or when |G| < 1e-12 (rounding noise)."""
    if exp.anchor is not None:
        return exp.anchor
    if exp.spec.n_sites > ORACLE_MAX_SITES:
        raise ConfigError(f"the anchor must be supplied beyond {ORACLE_MAX_SITES} sites")
    g = reference()
    if abs(g) < 1e-12:
        raise ConfigError("the oracle anchor amplitude vanishes; supply an anchor")
    return float(np.angle(g))


def _two_sided_states(doc: RunDocument):
    """Measurement-side state A^dag exp(-iHt') psi' per backend fidelity,
    plus the anchor phase."""
    exp = doc.experiment
    if doc.operator_a is None:
        raise ConfigError("two-sided runs need states.operator_a")
    sites, matrix = doc.operator_a
    t_prime = doc.t_prime
    steps = t_prime / exp.tau
    prefix_steps = int(round(steps))
    if abs(steps - prefix_steps) > 1e-9:
        raise ConfigError("t_prime must be an integer multiple of tau")
    psi_ref = exp.psi_final if exp.psi_final is not None else exp.psi

    if exp.backend == "exact_oracle":
        evolved = oracle_evolve(exp.spec, psi_ref, t_prime)
    else:
        plan = build_plan(exp.spec, t_prime, exp.tau, exp.order)
        evolved = evolve(psi_ref, plan)
    bra = apply_matrix(evolved, matrix.conj().T, sites)

    def reference():  # on the oracle backend, bra already is the oracle bra
        oracle_bra = bra if exp.backend == "exact_oracle" else apply_matrix(
            oracle_evolve(exp.spec, psi_ref, t_prime), matrix.conj().T, sites)
        return exact_amplitude(exp.spec, oracle_bra, exp.psi, t_prime)

    return bra, prefix_steps, _anchor(exp, reference)


def cmd_two_sided(doc: RunDocument, outdir: Path) -> int:
    bra, prefix_steps, anchor = _two_sided_states(doc)
    exp = replace(doc.experiment, psi_final=bra, prefix_steps=prefix_steps, anchor=anchor)
    trace = run_phase_experiment(exp)
    header, cols = _trace_columns(trace, with_noise=exp.backend == "noisy")
    write_csv(outdir / "two_sided.csv", header, cols)
    # the snapshot records the anchor the run used, so a replay reproduces it
    _emit_run_records(outdir, replace(doc, experiment=exp), "two-sided",
                      {"t_prime": doc.t_prime, "anchor": anchor, **_trace_health(trace),
                       **_oracle_record(exp)})
    return 0


def cmd_scaling(doc: RunDocument, outdir: Path) -> int:
    """Phase error against the oracle over the sweep's sizes and h or tau
    values: each point is the config's experiment with the tfim chain of
    that size, the named ``psi`` on every site, and the swept value.  What
    cannot carry over to another size is refused: a per-site ``psi`` list,
    ``psi_final``, a noise block, a backend other than
    ``statevector_trotter``; so is an anchor, which would shift every
    phase error by its distance from arg G(0) = 0."""
    exp = doc.experiment
    if doc.sweep is None:
        raise ConfigError("scaling runs need a sweep block")
    # the sweep block was checked at load
    kind = doc.sweep["kind"]
    n_values = doc.sweep["n_values"]
    values = doc.sweep["values"]
    t_max = doc.sweep["t_max"]
    model_block = doc.raw["model"]
    if model_block.get("model") != "tfim":
        raise ConfigError("scaling sweeps support the built-in tfim model only")
    psi_name = doc.raw["states"]["psi"]
    if not isinstance(psi_name, str):
        raise ConfigError("scaling sweeps need a named states.psi, not a per-site list")
    if exp.psi_final is not None:
        raise ConfigError("scaling sweeps compare psi with itself; remove states.psi_final")
    if exp.noise is not None:
        raise ConfigError("scaling sweeps run noiseless circuits; remove the noise block")
    if exp.backend != "statevector_trotter":
        raise ConfigError(
            f"scaling sweeps run the statevector_trotter backend, not {exp.backend!r}"
        )
    if exp.anchor is not None:
        raise ConfigError("scaling sweeps anchor at arg G(0) = 0; remove algorithm.anchor")

    rows = []
    exponents = []
    for n in n_values:
        spec = tfim(n, model_block["J"], model_block["g"])
        psi = product_state([psi_name] * n)
        errs = []
        for value in values:
            tau = value if kind == "tau" else exp.tau
            h = value if kind == "h" else exp.h
            cfg = replace(exp, spec=spec, psi=psi, tau=tau, h=h, t_max=t_max)
            trace = run_phase_experiment(cfg)
            _, phi_or = oracle_phase_series(spec, psi, psi, trace.times)
            err = float(np.max(np.abs(trace.phi - phi_or)))
            power = exp.order if kind == "tau" else 2
            rows.append((kind, n, h, tau, exp.order, err, err / (n * value**power)))
            errs.append(err)
        if len(values) > 1:
            exponents.append(
                (n, float(np.polyfit(np.log(values), np.log(errs), 1)[0]))
            )

    write_csv(
        outdir / "scaling_points.csv",
        ["kind", "N", "h", "tau", "order", "max_abs_dphi", "normalized"],
        list(zip(*rows)),
    )
    summary_rows = [("exponent", f"N={n}", e) for n, e in exponents]
    norm = {(r[1], r[2] if kind == "h" else r[3]): r[6] for r in rows}
    for value in values:
        scaled = [norm[(n, value)] for n in n_values]
        spread = (max(scaled) - min(scaled)) / float(np.mean(scaled))
        summary_rows.append(("cross_n_spread", f"{kind}={value:g}", spread))
    write_csv(
        outdir / "scaling_summary.csv",
        ["metric", "label", "value"],
        list(zip(*summary_rows)),
    )
    _emit_run_records(outdir, doc, "scaling")
    return 0


def cmd_ldos(doc: RunDocument, outdir: Path) -> int:
    exp = doc.experiment
    hermitian = doc.spectral["hermitian_extend"]
    if hermitian and exp.psi_final is not None:
        raise ConfigError("hermitian_extend requires psi_final = psi")
    trace = run_phase_experiment(exp)
    center = expectation(exp.spec, exp.psi)
    spectrum = ldos_dft(
        trace.g_complex, exp.tau,
        hermitian_extend=hermitian,
        center_energy=center,
        times=trace.times,
        taper_width=doc.spectral["taper_width"],
    )
    write_csv(outdir / "ldos.csv", ["E", "d"], [spectrum.energies, spectrum.densities])
    extra = {
        "eta": spectrum.eta, "window_center": center,
        "imag_residue": spectrum.max_imag_residue, **_trace_health(trace),
    }
    if exp.spec.n_sites <= ORACLE_MAX_SITES:
        width = doc.spectral["width"]
        reference = exact_ldos(exp.spec, exp.psi, width)
        write_csv(
            outdir / "ldos_reference.csv",
            ["E", "d"],
            [reference.energies, reference.densities],
        )
        extra["reference_width"] = width
        extra["oracle_sectors"] = _eigensystem(exp.spec).sectors
    _emit_run_records(outdir, doc, "ldos", extra)
    return 0


def cmd_baseline(doc: RunDocument, outdir: Path, method: str) -> int:
    exp = doc.experiment
    rng = np.random.default_rng(np.random.SeedSequence(exp.seed, spawn_key=(17,)))
    shots = doc.baseline["shots"]
    if method == "hadamard":
        parts = [doc.baseline["part"]] if "part" in doc.baseline else ["real", "imag"]
        estimates = [
            hadamard_test(exp.spec, exp.psi, exp.t_max, exp.tau, exp.order,
                          part, shots, rng)
            for part in parts
        ]
        columns = [parts, [exp.t_max] * len(parts), estimates]
        header = ["part", "t", "estimate"]
        if exp.spec.n_sites <= ORACLE_MAX_SITES:
            g = exact_amplitude(exp.spec, exp.psi, exp.psi, exp.t_max)
            refs = [g.real if p == "real" else g.imag for p in parts]
            columns.append(refs)
            header.append("oracle")
        write_csv(outdir / "baseline_hadamard.csv", header, columns)
        _emit_run_records(outdir, doc, "baseline hadamard")
        return 0
    if method == "sequential":
        flip_sites = doc.baseline.get("flip_sites")
        if not flip_sites:
            raise ConfigError("baseline.flip_sites is required for the sequential method")
        chain = [exp.psi]
        for site in flip_sites:
            chain.append(apply_matrix(chain[-1], SIGMA_X, (site,)))
        anchor = _anchor(exp, lambda: exact_amplitude(exp.spec, exp.psi, exp.psi, exp.t_max))
        thetas = doc.baseline["thetas"]
        result = sequential_interferometry(
            exp.spec, chain, exp.t_max, exp.tau, exp.order,
            anchor_phase=anchor,
            thetas=tuple(thetas),
            shots=shots,
            rng=rng,
            fallback_threshold=doc.baseline["fallback_threshold"],
        )
        steps = list(range(len(result.step_phases)))
        write_csv(
            outdir / "baseline_sequential.csv",
            ["step", "r_ii", "r_ij", "r_jj", "step_phase", "fallback"],
            [
                steps,
                [m[0] for m in result.magnitudes],
                [m[1] for m in result.magnitudes],
                [m[2] for m in result.magnitudes],
                result.step_phases,
                [s in result.fallback_steps for s in steps],
            ],
        )
        extra = {"phase": result.phase, "i_tilde": result.i_tilde, "anchor": anchor}
        if exp.spec.n_sites <= ORACLE_MAX_SITES:
            extra["oracle_phase"] = float(
                np.angle(exact_amplitude(exp.spec, chain[-1], chain[-1], exp.t_max))
            )
        _emit_run_records(outdir, doc, "baseline sequential", extra)
        return 0
    raise ConfigError(f"unknown baseline method {method!r}")


def cmd_cost(doc: RunDocument, outdir: Path) -> int:
    block = doc.cost
    n_list = block["n"] if isinstance(block["n"], list) else [block["n"]]
    t, eps, order, dim = block["t"], block["epsilon"], block["p"], block["d"]
    r, i_factor = block["r"], block["i_factor"]
    rows = []
    for n in n_list:
        for method in ("hadamard", "sequential", "this_work"):
            est = resource_cost(CostInput(method, n, t, eps, order, dim, r, i_factor))
            rows.append((method, n, t, eps, order, dim, r, i_factor,
                         est.depth, est.measurements))
    write_csv(
        outdir / "cost.csv",
        ["method", "N", "t", "epsilon", "p", "d", "r", "i_factor",
         "depth", "measurements"],
        list(zip(*rows)),
    )
    _emit_run_records(outdir, doc, "cost")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loschmidt",
        description="Phase reconstruction of Loschmidt amplitudes from "
        "magnitude measurements at complex times.",
    )
    parser.add_argument("command", choices=[
        "amplitude", "phase", "two-sided", "scaling", "ldos", "noise",
        "baseline", "cost",
    ])
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored, for callers that still "
                             "pass it (the perfbench workloads): trajectory "
                             "chunks run serially, so results do not depend on it")
    parser.add_argument("--method", choices=["hadamard", "sequential"],
                        help="baseline method (baseline command only)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = load_config(args.config)
        if args.seed is not None:
            # through replace, so the override meets the config's seed checks
            noise = doc.experiment.noise
            if noise is not None and doc.raw["noise"].get("seed") is None:
                noise = replace(noise, master_seed=args.seed)
            doc.experiment = replace(doc.experiment, seed=args.seed, noise=noise)
        outdir = Path(args.out)
        if args.command == "amplitude":
            return cmd_amplitude(doc, outdir)
        if args.command in ("phase", "noise"):
            return cmd_phase(doc, outdir, args.command)
        if args.command == "two-sided":
            return cmd_two_sided(doc, outdir)
        if args.command == "scaling":
            return cmd_scaling(doc, outdir)
        if args.command == "ldos":
            return cmd_ldos(doc, outdir)
        if args.command == "baseline":
            if args.method is None:
                raise ConfigError("baseline requires --method hadamard|sequential")
            return cmd_baseline(doc, outdir, args.method)
        if args.command == "cost":
            return cmd_cost(doc, outdir)
        raise ConfigError(f"unknown command {args.command}")
    except (ConfigError, ValueError) as exc:
        # a ValueError is a precondition of a library call failing on bad inputs
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LoschmidtError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
