"""Spans and counters recorded around the library's public functions.

The library is not edited: ``instrument`` replaces each public function at
the name its calling module looks it up by (``loschmidt.trotter.apply_layer``,
``loschmidt.reconstruct.evolve``, ``loschmidt.cli.ldos_dft``, ...) with a
wrapper that records a span (name, start, end, parent) plus counters, and
restores the originals on exit.  A span's self time is its duration minus
the time its child spans cover.  Spans are kept in memory; ``layer_metrics``
folds them into the per-layer metrics named in BENCHMARK.json.

Spans nest through one stack, so a traced solve must run on one thread.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from collections import Counter, defaultdict

import numpy as np

#: bytes of one complex128 amplitude
_AMP = 16


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index, child time]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.extremes: dict[str, float] = {}
        self.captured: dict[str, tuple] = {}

    def wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += span[2] - span[1]
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def keep_min(self, key, value):
        self.extremes[key] = min(self.extremes.get(key, np.inf), float(value))

    def keep_max(self, key, value):
        self.extremes[key] = max(self.extremes.get(key, -np.inf), float(value))

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds, self seconds."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for name, start, end, _parent, child in self.spans:
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child
        return dict(out)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _gates(tracer, args, kwargs, _result):
    layer = _arg(args, kwargs, 1, "layer")
    n_amps = _arg(args, kwargs, 0, "state").amplitudes.shape[0]
    tracer.counts["statevector.gates"] += len(layer)
    tracer.counts["statevector.gate_amps"] += len(layer) * n_amps


def _trotter_plan(tracer, _args, _kwargs, plan):
    tracer.keep_max("trotter.gates_per_step", sum(len(layer) for layer in plan.step_layers))


def _ite_plan(tracer, _args, _kwargs, plan):
    tracer.counts["ite.gates"] += len(plan.gates)


def _trajectories(tracer, args, kwargs, _result):
    tracer.counts["noise.trajectories"] += _arg(args, kwargs, 4, "noise").n_trajectories
    tracer.captured.setdefault("trajectory_survivals", (args, kwargs))


def _noise_layer(tracer, args, kwargs, result):
    tracer.counts["noise.noise_layers"] += 1
    # apply_noise_layer hands its input back unchanged when no Pauli fired
    tracer.counts["noise.fired_layers"] += result is not _arg(args, kwargs, 0, "state")


def _mitigated(tracer, _args, _kwargs, result):
    tracer.counts["noise.clamped"] += bool(result[1])


def _trace_inputs(tracer, args, kwargs, _result):
    p_plus = np.asarray(_arg(args, kwargs, 2, "p_plus"), dtype=float)
    p_minus = np.asarray(_arg(args, kwargs, 3, "p_minus"), dtype=float)
    tracer.counts["reconstruct.points"] += len(p_plus)
    tracer.counts["reconstruct.floored_points"] += int(np.sum((p_plus <= 0) | (p_minus <= 0)))
    tracer.keep_min("reconstruct.min_p", min(p_plus.min(), p_minus.min()))


def _detected(tracer, _args, _kwargs, crossings):
    tracer.counts["reconstruct.crossings_detected"] += len(crossings)


def _repaired(tracer, _args, _kwargs, trace):
    tracer.counts["reconstruct.crossings_repaired"] += len(trace.crossings)


def _oracle_bytes(tracer, args, kwargs, result):
    n_amps = _arg(args, kwargs, 1, "psi_final").amplitudes.shape[0]
    tracer.counts["model.oracle_bytes_computed"] += len(result) * n_amps * _AMP


def _ldos(tracer, _args, _kwargs, spectrum):
    n_bins = len(spectrum.energies)
    tracer.counts["spectral.ldos_dft_bytes_computed"] += n_bins * n_bins * _AMP
    tracer.keep_max("spectral.imag_residue", spectrum.max_imag_residue)


def _csv_bytes(tracer, args, kwargs, _result):
    tracer.counts["cli.csv_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


#: (module, attribute, span name, counter hook) for every wrapped call site
PATCHES = (
    ("trotter", "apply_layer", "statevector.apply_layer", _gates),
    ("noise", "apply_layer", "statevector.apply_layer", _gates),
    ("ite", "apply_layer", "statevector.apply_layer", _gates),
    ("reconstruct", "inner_product", "statevector.inner_product", None),
    ("reconstruct", "build_plan", "trotter.build_plan", _trotter_plan),
    ("reconstruct", "evolve", "trotter.evolve", None),
    ("reconstruct", "build_ite_plan_general", "ite.build_plan", _ite_plan),
    ("reconstruct", "build_ite_plan_tfim", "ite.build_plan", _ite_plan),
    ("reconstruct", "apply_ite", "ite.apply_ite", None),
    ("reconstruct", "trajectory_survivals", "noise.trajectory_survivals", _trajectories),
    ("noise", "apply_noise_layer", "noise.apply_noise_layer", _noise_layer),
    ("reconstruct", "sample_shots", "noise.sample_shots", None),
    ("reconstruct", "mitigate_rescale", "noise.mitigate_rescale", _mitigated),
    ("cli", "run_phase_experiment", "reconstruct.run_phase_experiment", None),
    ("reconstruct", "reconstruct_trace", "reconstruct.reconstruct_trace", _trace_inputs),
    ("reconstruct", "detect_zeros", "reconstruct.detect_zeros", _detected),
    ("reconstruct", "correct_phase_jumps", "reconstruct.correct_phase_jumps", _repaired),
    ("reconstruct", "amplitude_series", "model.amplitude_series", _oracle_bytes),
    ("model", "dense_matrix", "model.dense_matrix", None),
    ("spectral", "dense_matrix", "model.dense_matrix", None),
    ("cli", "ldos_dft", "spectral.ldos_dft", _ldos),
    ("cli", "exact_ldos", "spectral.exact_ldos", None),
    ("cli", "load_config", "config.load_config", None),
    ("cli", "write_csv", "cli.write_csv", _csv_bytes),
)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers of ``PATCHES`` for the duration of the block."""
    saved = []
    try:
        for module_name, attr, span, hook in PATCHES:
            module = importlib.import_module(f"loschmidt.{module_name}")
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span, original, hook))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced solve.  ``*_self_s`` is self time,
    other ``*_s`` values are inclusive span durations; a layer the workload
    never enters reads 0."""
    spans = tracer.totals()
    counts, extremes = tracer.counts, tracer.extremes

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def self_time(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    gate_amps = counts["statevector.gate_amps"]
    layers = counts["noise.noise_layers"]
    return {
        "statevector.gates": counts["statevector.gates"],
        "statevector.self_s": self_time("statevector.apply_layer")
        + self_time("statevector.inner_product"),
        "statevector.ns_per_gate_amp": (
            1e9 * self_time("statevector.apply_layer") / gate_amps if gate_amps else 0.0
        ),
        "statevector.bytes_computed": 2 * _AMP * gate_amps,
        "trotter.evolve_calls": calls("trotter.evolve"),
        "trotter.evolve_self_s": self_time("trotter.evolve"),
        "trotter.gates_per_step": int(extremes.get("trotter.gates_per_step", 0)),
        "trotter.build_plan_s": total("trotter.build_plan"),
        "ite.build_s": total("ite.build_plan"),
        "ite.apply_s": total("ite.apply_ite"),
        "ite.gates": counts["ite.gates"],
        "noise.trajectories": counts["noise.trajectories"],
        "noise.trajectory_survivals_s": total("noise.trajectory_survivals"),
        "noise.noise_layers": layers,
        "noise.noise_layer_self_s": self_time("noise.apply_noise_layer"),
        "noise.fire_ratio": counts["noise.fired_layers"] / layers if layers else 0.0,
        "noise.sample_shots_calls": calls("noise.sample_shots"),
        "noise.sample_shots_s": total("noise.sample_shots"),
        "noise.mitigate_calls": calls("noise.mitigate_rescale"),
        "noise.mitigate_s": total("noise.mitigate_rescale"),
        "noise.clamped": counts["noise.clamped"],
        "reconstruct.run_phase_experiment_self_s": self_time("reconstruct.run_phase_experiment"),
        "reconstruct.reconstruct_trace_s": total("reconstruct.reconstruct_trace"),
        "reconstruct.points": counts["reconstruct.points"],
        "reconstruct.crossings_detected": counts["reconstruct.crossings_detected"],
        "reconstruct.crossings_repaired": counts["reconstruct.crossings_repaired"],
        "reconstruct.floored_points": counts["reconstruct.floored_points"],
        "reconstruct.min_p": extremes.get("reconstruct.min_p", 0.0),
        "model.amplitude_series_calls": calls("model.amplitude_series"),
        "model.amplitude_series_s": total("model.amplitude_series"),
        "model.dense_matrix_calls": calls("model.dense_matrix"),
        "model.dense_matrix_s": total("model.dense_matrix"),
        "model.oracle_bytes_computed": counts["model.oracle_bytes_computed"],
        "spectral.ldos_dft_s": total("spectral.ldos_dft"),
        "spectral.ldos_dft_bytes_computed": counts["spectral.ldos_dft_bytes_computed"],
        "spectral.exact_ldos_s": total("spectral.exact_ldos"),
        "spectral.imag_residue": extremes.get("spectral.imag_residue", 0.0),
        "config.load_config_s": total("config.load_config"),
        "cli.write_csv_s": total("cli.write_csv"),
        "cli.csv_bytes": counts["cli.csv_bytes"],
    }
