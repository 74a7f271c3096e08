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
and seeds reproduce byte-identical files at any thread count.

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
from .config import ExperimentConfig, RunDocument, load_config
from .exceptions import ConfigError, LoschmidtError
from .model import (
    ORACLE_MAX_SITES,
    exact_amplitude,
    expectation,
    oracle_evolve,
    oracle_phase_series,
)
from .reconstruct import PhaseTrace, run_phase_experiment
from .spectral import exact_ldos, ldos_dft
from .statevector import StateVector, apply_matrix, product_state
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
    """Rectangular CSV with '.'-decimal 17-significant-digit floats, LF."""
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
    """Floored points and repaired crossings of a trace, for runinfo.json."""
    return {
        "floored": trace.floored,
        "crossings": trace.crossings,
        "correction_phases": trace.correction_phases,
    }


def _resolved_document(doc: RunDocument) -> dict:
    """Config snapshot with every algorithm default made explicit."""
    exp = doc.experiment
    resolved = json.loads(json.dumps(doc.raw))  # deep copy
    resolved["algorithm"] = {
        "tau": exp.tau,
        "h": exp.h,
        "t_max": exp.t_max,
        "order": exp.order,
        "rule": exp.rule,
        "ite_mode": exp.ite_mode,
        "backend": exp.backend,
        "shots": exp.shots,
        "zero_correction": exp.zero_correction,
        "threshold": exp.threshold,
        "anchor": exp.anchor,
    }
    resolved["seed"] = exp.seed
    if exp.noise is not None:
        resolved["noise"] = {
            "gamma": exp.noise.gamma,
            "n_trajectories": exp.noise.n_trajectories,
            "shots": exp.noise.shots,
            "seed": exp.noise.master_seed,
        }
    return resolved


def _emit_run_records(outdir: Path, doc: RunDocument, command: str, extra=None):
    with open(outdir / "resolved_config.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_resolved_document(doc), fh, indent=2, sort_keys=True)
        fh.write("\n")
    info = {"version": __version__, "command": command}
    if extra:
        info.update(extra)
    with open(outdir / "runinfo.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(info, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_amplitude(doc: RunDocument, outdir: Path) -> int:
    trace = run_phase_experiment(doc.experiment)
    write_csv(
        outdir / "amplitude.csv",
        ["t", "r", "p_plus", "p_minus"],
        [trace.times, trace.r, trace.p_plus, trace.p_minus],
    )
    _emit_run_records(outdir, doc, "amplitude")
    return 0


def cmd_phase(doc: RunDocument, outdir: Path, command="phase") -> int:
    exp = doc.experiment
    if command == "noise" and exp.noise is None:
        raise ConfigError("the noise command requires a noise block")
    trace = run_phase_experiment(exp)
    header, cols = _trace_columns(trace, with_noise=exp.backend == "noisy")
    write_csv(outdir / "phase.csv", header, cols)
    _emit_run_records(outdir, doc, command, _trace_health(trace))
    return 0


def _two_sided_states(doc: RunDocument):
    """Measurement-side state A^dag exp(-iHt') psi' per backend fidelity,
    plus the oracle anchor phase."""
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

    if exp.anchor is not None:
        anchor = exp.anchor
    elif exp.spec.n_sites <= ORACLE_MAX_SITES:
        oracle_bra = apply_matrix(oracle_evolve(exp.spec, psi_ref, t_prime), matrix.conj().T, sites)
        reference = exact_amplitude(exp.spec, oracle_bra, exp.psi, t_prime)
        if abs(reference) < 1e-12:
            raise ConfigError(
                "two-sided anchor amplitude vanishes at t'; supply an anchor "
                "or choose a different t'"
            )
        anchor = float(np.angle(reference))
    else:
        raise ConfigError("two-sided anchor must be supplied beyond the oracle size limit")
    return bra, prefix_steps, anchor


def cmd_two_sided(doc: RunDocument, outdir: Path) -> int:
    bra, prefix_steps, anchor = _two_sided_states(doc)
    exp = replace(doc.experiment, bra_state=bra, prefix_steps=prefix_steps, anchor=anchor)
    trace = run_phase_experiment(exp)
    header, cols = _trace_columns(trace, with_noise=exp.backend == "noisy")
    write_csv(outdir / "two_sided.csv", header, cols)
    # the snapshot records the anchor the run used, so a replay reproduces it
    _emit_run_records(outdir, replace(doc, experiment=exp), "two-sided",
                      {"t_prime": doc.t_prime, "anchor": anchor, **_trace_health(trace)})
    return 0


def cmd_scaling(doc: RunDocument, outdir: Path) -> int:
    exp = doc.experiment
    if doc.sweep is None:
        raise ConfigError("scaling runs need a sweep block")
    kind = doc.sweep["kind"]
    if kind not in ("h", "tau"):
        raise ConfigError("sweep.kind must be 'h' or 'tau'")
    n_values = [int(n) for n in doc.sweep["n_values"]]
    values = [float(v) for v in doc.sweep["values"]]
    if not n_values or not values:
        raise ConfigError("sweep lists must be non-empty")
    t_max = float(doc.sweep.get("t_max", exp.t_max))

    rows = []
    exponents = []
    for n in n_values:
        from .model import tfim

        model_block = doc.raw["model"]
        if model_block.get("model") != "tfim":
            raise ConfigError("scaling sweeps support the built-in tfim model only")
        spec = tfim(n, float(model_block["J"]), float(model_block["g"]))
        psi = product_state(["up"] * n)
        errs = []
        for value in values:
            tau = value if kind == "tau" else exp.tau
            h = value if kind == "h" else exp.h
            cfg = ExperimentConfig(
                spec=spec, psi=psi, tau=tau, h=h, t_max=t_max,
                order=exp.order, rule=exp.rule, ite_mode=exp.ite_mode,
                backend="statevector_trotter", seed=exp.seed,
            )
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
    trace = run_phase_experiment(exp)
    hermitian = bool(doc.spectral.get("hermitian_extend", True))
    if hermitian and exp.psi_final is not None:
        raise ConfigError("hermitian_extend requires psi_final = psi")
    taper = doc.spectral.get("taper_width")
    center = expectation(exp.spec, exp.psi)
    spectrum = ldos_dft(
        trace.g_complex, exp.tau,
        hermitian_extend=hermitian,
        center_energy=center,
        times=trace.times,
        taper_width=float(taper) if taper is not None else None,
    )
    write_csv(outdir / "ldos.csv", ["E", "d"], [spectrum.energies, spectrum.densities])
    extra = {"eta": spectrum.eta, "window_center": center}
    if exp.spec.n_sites <= ORACLE_MAX_SITES:
        width = float(doc.spectral.get("width", 0.08))
        reference = exact_ldos(exp.spec, exp.psi, width)
        write_csv(
            outdir / "ldos_reference.csv",
            ["E", "d"],
            [reference.energies, reference.densities],
        )
        extra["reference_width"] = width
    _emit_run_records(outdir, doc, "ldos", extra)
    return 0


def cmd_baseline(doc: RunDocument, outdir: Path, method: str) -> int:
    exp = doc.experiment
    rng = np.random.default_rng(np.random.SeedSequence(exp.seed, spawn_key=(17,)))
    shots = doc.baseline.get("shots")
    shots = int(shots) if shots is not None else None
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
            prev = chain[-1]
            amps = apply_matrix(prev, np.array([[0, 1], [1, 0]], dtype=complex), (int(site),))
            chain.append(StateVector(exp.spec.n_sites, amps.amplitudes))
        if exp.anchor is not None:
            anchor = exp.anchor
        elif exp.spec.n_sites <= ORACLE_MAX_SITES:
            anchor = float(np.angle(exact_amplitude(exp.spec, exp.psi, exp.psi, exp.t_max)))
        else:
            raise ConfigError("sequential anchor must be supplied beyond the oracle size")
        thetas = doc.baseline.get("thetas", (0.0, np.pi / 2))
        result = sequential_interferometry(
            exp.spec, chain, exp.t_max, exp.tau, exp.order,
            anchor_phase=anchor,
            thetas=tuple(float(x) for x in thetas),
            shots=shots,
            rng=rng,
            fallback_threshold=float(doc.baseline.get("fallback_threshold", 1e-3)),
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
    n_list = block.get("n", [8, 16, 32, 64])
    n_list = [int(n) for n in (n_list if isinstance(n_list, list) else [n_list])]
    t = float(block.get("t", 4.0))
    eps = float(block.get("epsilon", 0.01))
    order = int(block.get("p", 2))
    dim = int(block.get("d", 1))
    r = float(block.get("r", 1.0))
    i_factor = float(block.get("i_factor", 1.0))
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
            doc.experiment.seed = args.seed
            if doc.experiment.noise is not None and (
                doc.raw.get("noise", {}).get("seed") is None
            ):
                doc.experiment.noise.master_seed = args.seed
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # precondition violations surfacing from library calls on bad inputs
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LoschmidtError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
