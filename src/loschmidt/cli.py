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

``COMMANDS`` lists the commands once, for the parser and the dispatch.
``--method`` belongs to ``baseline``, which requires it; every other
command refuses it.  ``--seed`` replaces the config's seed as the config
loads (``load_config``), so the noise block and the snapshot see it like a
seed written in the file.

Each handler computes and writes nothing: called as ``handler(doc, name)``,
it returns ``(doc, tables, extra)``, the document whose snapshot the run
records, its CSV tables as ``{file name: (header, columns)}`` and the keys
it adds to runinfo.json.  ``main`` then hands them to ``write_run``, the one
writer, so nothing is written until the command has finished and a command
that fails leaves no output directory.  ``scaling`` takes its points from
``RunDocument.sweep_points``, which checks every sweep rule, the oracle's
12-site cap included, before the first state is built; the command only
runs and tabulates them.

Every run writes a resolved-config snapshot (re-ingestable) and a run-info
record with the library version next to its data files.  Numbers are
emitted with 17 significant digits and LF line endings; identical configs
and seeds reproduce byte-identical files at any ``--threads``, while values
from the dense oracle can move at rounding level with the BLAS thread count.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.  An
``--out`` that cannot be made or written is a configuration error, like an
unreadable ``--config``; a write that fails partway may leave behind the
files already written.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import CostInput, hadamard_test, resource_cost, sequential_interferometry
from .config import ExperimentConfig, RunDocument, load_config
from .exceptions import ConfigError, LoschmidtError
from .model import (
    ORACLE_MAX_SITES,
    SIGMA_X,
    _eigensystem,
    exact_amplitude,
    expectation,
    oracle_evolve,
    oracle_phase_series,
)
from .reconstruct import ANCHOR_FLOOR, run_phase_experiment
from .spectral import exact_ldos, ldos_dft
from .statevector import apply_matrix
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
    """Rectangular CSV with '.'-decimal 17-significant-digit floats, LF, in
    an existing directory."""
    columns = [_csv_column(column) for column in columns]
    row_format = ",".join(spec for spec, _ in columns) + "\n"
    rows = zip(*(values for _, values in columns))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        handle.write("".join(row_format % row for row in rows))


def _oracle_record(exp: ExperimentConfig) -> dict:
    """``oracle_sectors`` of a run on the ``exact_oracle`` backend: how many
    symmetry blocks the dense H was solved in (1, 2 or 4 for the shipped
    models), read from the eigensystem the run cached; empty for the other
    backends."""
    if exp.backend != "exact_oracle":
        return {}
    return {"oracle_sectors": _eigensystem(exp.spec).sectors}


def _anchor(exp: ExperimentConfig, reference) -> float:
    """The config's anchor, else the angle of the oracle amplitude ``reference()``;
    ConfigError beyond ORACLE_MAX_SITES or when |G| < ANCHOR_FLOOR."""
    if exp.anchor is not None:
        return exp.anchor
    if exp.spec.n_sites > ORACLE_MAX_SITES:
        raise ConfigError(f"the anchor must be supplied beyond {ORACLE_MAX_SITES} sites")
    g = reference()
    if abs(g) < ANCHOR_FLOOR:
        raise ConfigError("the oracle anchor amplitude vanishes; supply an anchor")
    return float(np.angle(g))


def _two_sided_experiment(doc: RunDocument) -> ExperimentConfig:
    """The config's experiment measured against A^dag exp(-iHt') psi', per
    backend fidelity, from t' on and with its anchor phase."""
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

    @cache
    def oracle_bra():
        return apply_matrix(oracle_evolve(exp.spec, psi_ref, t_prime), matrix.conj().T, sites)

    # the anchor is settled, or refused, before the bra is evolved
    anchor = _anchor(exp, lambda: exact_amplitude(exp.spec, oracle_bra(), exp.psi, t_prime))
    if exp.backend == "exact_oracle":
        bra = oracle_bra()  # evolved once, for the anchor and the run
    else:
        plan = build_plan(exp.spec, exp.tau, exp.tau, exp.order)
        bra = apply_matrix(evolve(psi_ref, plan, prefix_steps), matrix.conj().T, sites)
    return replace(exp, psi_final=bra, prefix_steps=prefix_steps, anchor=anchor)


def run_trace(csv_name: str, doc: RunDocument, command: str):
    """Run the experiment of ``doc`` for the amplitude, phase, noise or
    two-sided command and return its trace as the table ``csv_name``, with
    its health (``PhaseTrace.health``) for runinfo.json.  ``amplitude``
    keeps t, r and p+- alone, whose p+- are the floored values the health
    names; the others keep the whole trace, with the raw and mitigated
    columns when the run filled them (the noisy backend).  ``two-sided``
    runs ``_two_sided_experiment``, and its snapshot records the anchor the
    run used, so a replay reproduces it."""
    extra = {}
    if command == "noise" and doc.experiment.noise is None:
        raise ConfigError("the noise command requires a noise block")
    if command == "two-sided":
        doc = replace(doc, experiment=_two_sided_experiment(doc))
        extra = {"t_prime": doc.t_prime, "anchor": doc.experiment.anchor}
    exp = doc.experiment
    trace = run_phase_experiment(exp)
    header, columns = list(PHASE_HEADER), [
        trace.times, trace.r, trace.p_plus, trace.p_minus,
        trace.dphi_dt, trace.phi, trace.g_complex.real, trace.g_complex.imag,
    ]
    if trace.clamped is not None:
        header += NOISE_EXTRA_HEADER
        columns += [
            trace.p_plus_raw, trace.p_minus_raw,
            trace.p_plus_mitigated, trace.p_minus_mitigated,
            trace.clamped,
        ]
    if command == "amplitude":
        del header[4:], columns[4:]
    return doc, {csv_name: (header, columns)}, {**extra, **trace.health, **_oracle_record(exp)}


def cmd_scaling(doc: RunDocument, command: str):
    """Phase error against the oracle at each point of the sweep
    (``RunDocument.sweep_points``, which refuses a sweep before its first
    point runs), normalized by N h^2 or N tau^order; the summary fits each
    size's error exponent over the swept values and the spread across sizes
    of each value's normalized error."""
    points = doc.sweep_points()
    kind, values = doc.sweep["kind"], doc.sweep["values"]
    power = doc.experiment.order if kind == "tau" else 2
    rows = []
    for n, value, exp in points:
        trace = run_phase_experiment(exp)
        _, phi_or = oracle_phase_series(exp.spec, exp.psi, exp.psi, trace.times)
        err = float(np.max(np.abs(trace.phi - phi_or)))
        rows.append((kind, n, exp.h, exp.tau, exp.order, err, err / (n * value**power)))

    # each size's points are len(values) consecutive rows
    sizes = [rows[i:i + len(values)] for i in range(0, len(rows), len(values))]
    summary_rows = [
        ("exponent", f"N={size[0][1]}",
         float(np.polyfit(np.log(values), np.log([row[5] for row in size]), 1)[0]))
        for size in sizes if len(values) > 1
    ]
    for value, column in zip(values, zip(*sizes)):
        scaled = [row[6] for row in column]
        spread = (max(scaled) - min(scaled)) / float(np.mean(scaled))
        summary_rows.append(("cross_n_spread", f"{kind}={value:g}", spread))
    table = (["kind", "N", "h", "tau", "order", "max_abs_dphi", "normalized"], list(zip(*rows)))
    summary = (["metric", "label", "value"], list(zip(*summary_rows)))
    return doc, {"scaling_points.csv": table, "scaling_summary.csv": summary}, {}


def cmd_ldos(doc: RunDocument, command: str):
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
    tables = {"ldos.csv": (["E", "d"], [spectrum.energies, spectrum.densities])}
    extra = {
        "eta": spectrum.eta, "window_center": center,
        "imag_residue": spectrum.max_imag_residue, **trace.health,
    }
    if exp.spec.n_sites <= ORACLE_MAX_SITES:
        width = doc.spectral["width"]
        reference = exact_ldos(exp.spec, exp.psi, width)
        tables["ldos_reference.csv"] = (["E", "d"], [reference.energies, reference.densities])
        extra["reference_width"] = width
        extra["oracle_sectors"] = _eigensystem(exp.spec).sectors
    return doc, tables, extra


def _baseline_rng(exp: ExperimentConfig):
    """The generator of a baseline's shots."""
    return np.random.default_rng(np.random.SeedSequence(exp.seed, spawn_key=(17,)))


def cmd_hadamard(doc: RunDocument, command: str):
    exp = doc.experiment
    rng = _baseline_rng(exp)
    parts = [doc.baseline["part"]] if "part" in doc.baseline else ["real", "imag"]
    estimates = [
        hadamard_test(exp.spec, exp.psi, exp.t_max, exp.tau, exp.order,
                      part, doc.baseline["shots"], rng)
        for part in parts
    ]
    columns = [parts, [exp.t_max] * len(parts), estimates]
    header = ["part", "t", "estimate"]
    if exp.spec.n_sites <= ORACLE_MAX_SITES:
        g = exact_amplitude(exp.spec, exp.psi, exp.psi, exp.t_max)
        columns.append([g.real if p == "real" else g.imag for p in parts])
        header.append("oracle")
    return doc, {"baseline_hadamard.csv": (header, columns)}, {}


def cmd_sequential(doc: RunDocument, command: str):
    exp = doc.experiment
    rng = _baseline_rng(exp)
    flip_sites = doc.baseline.get("flip_sites")
    if not flip_sites:
        raise ConfigError("baseline.flip_sites is required for the sequential method")
    chain = [exp.psi]
    for site in flip_sites:
        chain.append(apply_matrix(chain[-1], SIGMA_X, (site,)))
    anchor = _anchor(exp, lambda: exact_amplitude(exp.spec, exp.psi, exp.psi, exp.t_max))
    result = sequential_interferometry(
        exp.spec, chain, exp.t_max, exp.tau, exp.order,
        anchor_phase=anchor,
        thetas=tuple(doc.baseline["thetas"]),
        shots=doc.baseline["shots"],
        rng=rng,
        fallback_threshold=doc.baseline["fallback_threshold"],
    )
    steps = list(range(len(result.step_phases)))
    table = (
        ["step", "r_ii", "r_ij", "r_jj", "step_phase", "fallback"],
        [
            steps,
            *zip(*result.magnitudes),  # r_ii, r_ij, r_jj
            result.step_phases,
            [s in result.fallback_steps for s in steps],
        ],
    )
    extra = {"phase": result.phase, "i_tilde": result.i_tilde, "anchor": anchor}
    if exp.spec.n_sites <= ORACLE_MAX_SITES:
        extra["oracle_phase"] = float(
            np.angle(exact_amplitude(exp.spec, chain[-1], chain[-1], exp.t_max))
        )
    return doc, {"baseline_sequential.csv": table}, extra


def cmd_cost(doc: RunDocument, command: str):
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
    header = ["method", "N", "t", "epsilon", "p", "d", "r", "i_factor",
              "depth", "measurements"]
    return doc, {"cost.csv": (header, list(zip(*rows)))}, {}


def write_run(outdir: Path, command: str, doc: RunDocument, tables: dict, extra: dict) -> None:
    """Make ``outdir`` and write a finished run into it: each table through
    ``write_csv``, then the snapshot of ``doc`` and the run-info record."""
    outdir.mkdir(parents=True, exist_ok=True)
    for name, (header, columns) in tables.items():
        write_csv(outdir / name, header, columns)
    info = {"version": __version__, "command": command, **extra}
    for name, record in (("resolved_config.json", doc.resolved()), ("runinfo.json", info)):
        # one write of the whole text, not json.dump's stream of chunks
        text = json.dumps(record, indent=2, sort_keys=True) + "\n"
        (outdir / name).write_text(text, encoding="utf-8", newline="\n")


#: every run the CLI makes, under the name its runinfo.json records: the
#: command, followed for baseline by its --method.  Each entry is called as
#: ``handler(doc, name)`` and returns ``(doc, tables, extra)`` for ``write_run``.
COMMANDS = {
    "amplitude": partial(run_trace, "amplitude.csv"),
    "phase": partial(run_trace, "phase.csv"),
    "two-sided": partial(run_trace, "two_sided.csv"),
    "scaling": cmd_scaling,
    "ldos": cmd_ldos,
    "noise": partial(run_trace, "phase.csv"),
    "baseline hadamard": cmd_hadamard,
    "baseline sequential": cmd_sequential,
    "cost": cmd_cost,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loschmidt",
        description="Phase reconstruction of Loschmidt amplitudes from "
        "magnitude measurements at complex times.",
    )
    words = [name.split() for name in COMMANDS]
    parser.add_argument("command", choices=list(dict.fromkeys(w[0] for w in words)))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored, for callers that still "
                             "pass it (the perfbench workloads): trajectory "
                             "chunks run serially, so results do not depend on it")
    parser.add_argument("--method", choices=[w[1] for w in words if len(w) > 1],
                        help="method of the command that takes one (baseline)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    name = " ".join(filter(None, (args.command, args.method)))
    try:
        if name not in COMMANDS:
            methods = [key.split()[1] for key in COMMANDS if key.startswith(f"{args.command} ")]
            if methods:
                raise ConfigError(f"{args.command} requires --method {'|'.join(methods)}")
            raise ConfigError(f"{args.command} takes no --method")
        doc, tables, extra = COMMANDS[name](load_config(args.config, args.seed), name)
        try:
            write_run(Path(args.out), name, doc, tables, extra)
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}") from exc
        return 0
    except (ConfigError, ValueError) as exc:
        # a ValueError is a precondition of a library call failing on bad inputs
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LoschmidtError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
