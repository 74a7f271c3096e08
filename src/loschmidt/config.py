"""Experiment configuration: typed object plus strict JSON schema.

A run is described by a single JSON document (no environment variables);
unknown keys are rejected so that a stored config replays exactly.  The
``model`` block is either the built-in chain

    {"model": "tfim", "n": 6, "J": 1.0, "g": 0.5}

or an explicit term list with matrices as nested [re, im] pairs

    {"model": "terms", "n": 3,
     "terms": [{"support": [0, 1], "matrix": [[..], ..], "group": "zz"}]}

State specifications are either a single named axis state applied to every
site ("up", "z+", "x-", ...) or a per-site list mixing names and normalized
[re, im] component pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .exceptions import ConfigError
from .model import ORACLE_MAX_SITES, HamiltonianSpec, LocalTerm, tfim
from .noise import NoiseConfig
from .statevector import StateVector, product_state

_RULES = ("simpson", "trapezoid")
_ITE_MODES = ("tfim_closed_form", "general_bj")
_BACKENDS = ("exact_oracle", "statevector_trotter", "noisy")
_ORDERS = (1, 2, 4)


@dataclass
class ExperimentConfig:
    """Validated inputs of one phase-reconstruction run."""

    spec: HamiltonianSpec
    psi: StateVector
    tau: float
    h: float
    t_max: float
    psi_final: StateVector | None = None
    bra_state: StateVector | None = None
    prefix_steps: int = 0
    order: int = 2
    rule: str = "simpson"
    ite_mode: str = "tfim_closed_form"
    backend: str = "statevector_trotter"
    shots: int | None = None
    zero_correction: bool = True
    threshold: float | None = None
    anchor: float | None = None
    noise: NoiseConfig | None = None
    seed: int = 0

    def __post_init__(self):
        if self.rule not in _RULES:
            raise ConfigError(f"rule must be one of {_RULES}")
        if self.ite_mode not in _ITE_MODES:
            raise ConfigError(f"ite_mode must be one of {_ITE_MODES}")
        if self.backend not in _BACKENDS:
            raise ConfigError(f"backend must be one of {_BACKENDS}")
        if self.order not in _ORDERS:
            raise ConfigError(f"order must be one of {_ORDERS}")
        if self.tau <= 0 or self.h <= 0:
            raise ConfigError("tau and h must be positive")
        if self.t_max < 0:
            raise ConfigError("t_max must be nonnegative")
        if self.shots is not None and self.shots < 1:
            raise ConfigError("shots must be >= 1 when given")
        if self.threshold is not None and self.threshold <= 0:
            raise ConfigError("threshold must be positive when given")
        if self.backend == "noisy" and self.noise is None:
            raise ConfigError("noisy backend requires a noise block")
        if self.backend == "exact_oracle" and self.spec.n_sites > ORACLE_MAX_SITES:
            raise ConfigError(
                f"exact_oracle backend is capped at {ORACLE_MAX_SITES} sites, "
                f"got {self.spec.n_sites}"
            )


def _require_keys(block: dict, allowed: set[str], required: set[str], where: str):
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")
    missing = required - set(block)
    if missing:
        raise ConfigError(f"missing keys {sorted(missing)} in {where}")


def _complex_matrix(raw, where: str) -> np.ndarray:
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ConfigError(f"{where}: matrix must be square with [re, im] entries")
    return arr[..., 0] + 1j * arr[..., 1]


def parse_model(block: Any) -> HamiltonianSpec:
    if not isinstance(block, dict):
        raise ConfigError("model block must be an object")
    kind = block.get("model")
    if kind == "tfim":
        _require_keys(block, {"model", "n", "J", "g"}, {"model", "n", "J", "g"}, "model")
        try:
            return tfim(int(block["n"]), float(block["J"]), float(block["g"]))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if kind == "terms":
        _require_keys(block, {"model", "n", "terms"}, {"model", "n", "terms"}, "model")
        terms = []
        for idx, raw in enumerate(block["terms"]):
            _require_keys(
                raw, {"support", "matrix", "group"}, {"support", "matrix"}, f"terms[{idx}]"
            )
            try:
                terms.append(
                    LocalTerm(
                        tuple(int(s) for s in raw["support"]),
                        _complex_matrix(raw["matrix"], f"terms[{idx}]"),
                        str(raw.get("group", "")),
                    )
                )
            except ValueError as exc:
                raise ConfigError(f"terms[{idx}]: {exc}") from exc
        try:
            return HamiltonianSpec(int(block["n"]), tuple(terms))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError("model must be 'tfim' or 'terms'")


def parse_state(raw: Any, n_sites: int, where: str) -> StateVector:
    if isinstance(raw, str):
        raw = [raw] * n_sites
    if not isinstance(raw, list) or len(raw) != n_sites:
        raise ConfigError(f"{where}: expected a name or a list of {n_sites} site states")
    site_specs = []
    for entry in raw:
        if isinstance(entry, str):
            site_specs.append(entry)
        else:
            arr = np.asarray(entry, dtype=float)
            if arr.shape != (2, 2):
                raise ConfigError(f"{where}: site entries are names or 2x[re, im] pairs")
            site_specs.append(arr[:, 0] + 1j * arr[:, 1])
    try:
        return product_state(site_specs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


_ALGORITHM_KEYS = {
    "tau", "h", "t_max", "order", "rule", "ite_mode", "backend", "shots",
    "zero_correction", "threshold", "anchor",
}
_NOISE_KEYS = {"gamma", "n_trajectories", "shots", "seed"}
_STATE_KEYS = {"psi", "psi_final", "operator_a", "t_prime"}
_SPECTRAL_KEYS = {"hermitian_extend", "width", "taper_width"}
_BASELINE_KEYS = {"flip_sites", "thetas", "fallback_threshold", "part", "shots"}
_COST_KEYS = {"n", "t", "epsilon", "p", "d", "r", "i_factor"}
_SWEEP_KEYS = {"kind", "n_values", "values", "t_max"}
_TOP_KEYS = {
    "model", "states", "algorithm", "noise", "sweep", "seed", "spectral",
    "baseline", "cost",
}


def parse_noise(block: Any, default_seed: int) -> NoiseConfig:
    if not isinstance(block, dict):
        raise ConfigError("noise block must be an object")
    _require_keys(block, _NOISE_KEYS, {"gamma", "n_trajectories"}, "noise")
    try:
        return NoiseConfig(
            gamma=float(block["gamma"]),
            n_trajectories=int(block["n_trajectories"]),
            shots=int(block["shots"]) if block.get("shots") is not None else None,
            master_seed=int(block.get("seed", default_seed)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_operator(block: Any, n_sites: int):
    """Local unitary insertion: {"sites": [...], "name": "x"|"y"|"z"} or an
    explicit matrix {"sites": [...], "matrix": [[..]]}. Returns (sites, matrix)."""
    from .model import SIGMA_X, SIGMA_Y, SIGMA_Z

    if not isinstance(block, dict):
        raise ConfigError("operator_a must be an object")
    _require_keys(block, {"sites", "name", "matrix"}, {"sites"}, "operator_a")
    if "name" in block and "matrix" in block:
        raise ConfigError("operator_a takes a name or a matrix, not both")
    sites = tuple(int(s) for s in block["sites"])
    if any(s < 0 or s >= n_sites for s in sites):
        raise ConfigError("operator_a sites out of range")
    if "name" in block:
        named = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}
        name = str(block["name"]).lower()
        if name not in named or len(sites) != 1:
            raise ConfigError("named operators are single-site x, y or z")
        return sites, named[name]
    if "matrix" not in block:
        raise ConfigError("operator_a needs a name or a matrix")
    mat = _complex_matrix(block["matrix"], "operator_a")
    if mat.shape != (2 ** len(sites),) * 2:
        raise ConfigError("operator_a matrix does not match its sites")
    dev = np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])))
    if dev > 1e-10:
        raise ConfigError("operator_a must be unitary")
    return sites, mat


def _finite(value) -> bool:
    """A finite JSON number; a bool (an int in Python) is not one."""
    return (
        not isinstance(value, bool)
        and isinstance(value, (int, float))
        and -float("inf") < value < float("inf")
    )


def _nonnegative(value) -> bool:
    return _finite(value) and value >= 0


def _positive(value) -> bool:
    return _finite(value) and value > 0


def _integer(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, int)


def _count(value) -> bool:
    return _integer(value) and value >= 1


def _check_values(block: dict, checks, where: str) -> None:
    """Raise unless each key of ``block`` named in ``checks`` (key,
    predicate, description) holds a value the predicate accepts."""
    for key, accepts, what in checks:
        if key in block and not accepts(block[key]):
            raise ConfigError(f"{where}.{key} must be {what}, got {block[key]!r}")


def _list_of(accepts):
    """Predicate of a non-empty list whose entries ``accepts`` takes."""
    return lambda value: isinstance(value, list) and bool(value) and all(map(accepts, value))


def _check_spectral(block: dict) -> None:
    """``hermitian_extend`` is a JSON bool, ``width`` a positive number and
    ``taper_width`` a positive number or null (no taper)."""
    if not isinstance(block.get("hermitian_extend", True), bool):
        raise ConfigError("spectral.hermitian_extend must be true or false")
    for key in ("width", "taper_width"):
        if key not in block or (key == "taper_width" and block[key] is None):
            continue
        if not _positive(block[key]):
            raise ConfigError(f"spectral.{key} must be a positive number, got {block[key]!r}")


#: the cost block's keys: N is one count or a list of them, the rest numbers
_COST_CHECKS = (
    ("n", lambda v: _count(v) or _list_of(_count)(v),
     "a positive integer or a non-empty list of them"),
    ("t", _nonnegative, "a nonnegative number"),
    ("epsilon", _positive, "a positive number"),
    ("p", lambda v: _integer(v) and v in _ORDERS, "one of 1, 2, 4"),
    ("d", _count, "a positive integer"),
    ("r", _nonnegative, "a nonnegative number"),
    ("i_factor", _finite, "a finite number"),
)

_SWEEP_CHECKS = (
    ("kind", lambda v: v in ("h", "tau"), "'h' or 'tau'"),
    # the scaling sweep runs the built-in chain, which needs two sites
    ("n_values", _list_of(lambda v: _integer(v) and v >= 2),
     "a non-empty list of integers >= 2"),
    ("values", _list_of(_positive), "a non-empty list of positive numbers"),
    ("t_max", _nonnegative, "a nonnegative number"),
)


def _baseline_checks(n_sites: int):
    return (
        ("flip_sites", lambda v: isinstance(v, list) and all(
            _integer(s) and 0 <= s < n_sites for s in v),
         f"a list of sites in [0, {n_sites})"),
        ("thetas", lambda v: isinstance(v, list) and len(v) == 2 and all(map(_finite, v)),
         "a list of two finite numbers"),
        ("fallback_threshold", _nonnegative, "a nonnegative number"),
        ("part", lambda v: v in ("real", "imag"), "'real' or 'imag'"),
        ("shots", lambda v: v is None or _count(v), "a positive integer or null"),
    )


@dataclass
class RunDocument:
    """Fully parsed config file: the experiment config plus CLI-level blocks
    (two-sided operator, sweep description, spectral / baseline / cost
    options) that individual subcommands interpret."""

    experiment: ExperimentConfig
    raw: dict = field(repr=False, default_factory=dict)
    operator_a: tuple | None = None
    t_prime: float = 0.0
    sweep: dict | None = None
    spectral: dict = field(default_factory=dict)
    baseline: dict = field(default_factory=dict)
    cost: dict = field(default_factory=dict)


def parse_document(doc: Any) -> RunDocument:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    _require_keys(doc, _TOP_KEYS, {"model", "states", "algorithm"}, "config")
    spec = parse_model(doc["model"])

    states = doc["states"]
    if not isinstance(states, dict):
        raise ConfigError("states block must be an object")
    _require_keys(states, _STATE_KEYS, {"psi"}, "states")
    psi = parse_state(states["psi"], spec.n_sites, "states.psi")
    psi_final = None
    if states.get("psi_final") is not None:
        psi_final = parse_state(states["psi_final"], spec.n_sites, "states.psi_final")
    operator_a = None
    if states.get("operator_a") is not None:
        operator_a = parse_operator(states["operator_a"], spec.n_sites)
    t_prime = float(states.get("t_prime") or 0.0)

    algo = doc["algorithm"]
    if not isinstance(algo, dict):
        raise ConfigError("algorithm block must be an object")
    _require_keys(algo, _ALGORITHM_KEYS, {"tau", "h", "t_max"}, "algorithm")
    if not isinstance(algo.get("zero_correction", True), bool):
        raise ConfigError("algorithm.zero_correction must be true or false")

    seed = int(doc.get("seed", 0))
    noise = None
    if doc.get("noise") is not None:
        noise = parse_noise(doc["noise"], seed)
        declared = algo.get("backend")
        if declared is None:
            algo = dict(algo)
            algo["backend"] = "noisy"
        elif declared != "noisy":
            raise ConfigError(
                "a noise block requires backend 'noisy' (or leave backend unset)"
            )

    sweep = doc.get("sweep")
    if sweep is not None:
        if not isinstance(sweep, dict):
            raise ConfigError("sweep block must be an object")
        _require_keys(sweep, _SWEEP_KEYS, {"kind", "n_values", "values"}, "sweep")
        _check_values(sweep, _SWEEP_CHECKS, "sweep")
    spectral = doc.get("spectral") or {}
    if not isinstance(spectral, dict):
        raise ConfigError("spectral block must be an object")
    _require_keys(spectral, _SPECTRAL_KEYS, set(), "spectral")
    _check_spectral(spectral)
    baseline = doc.get("baseline") or {}
    if not isinstance(baseline, dict):
        raise ConfigError("baseline block must be an object")
    _require_keys(baseline, _BASELINE_KEYS, set(), "baseline")
    _check_values(baseline, _baseline_checks(spec.n_sites), "baseline")
    cost = doc.get("cost") or {}
    if not isinstance(cost, dict):
        raise ConfigError("cost block must be an object")
    _require_keys(cost, _COST_KEYS, set(), "cost")
    _check_values(cost, _COST_CHECKS, "cost")

    try:
        experiment = ExperimentConfig(
            spec=spec,
            psi=psi,
            psi_final=psi_final,
            tau=float(algo["tau"]),
            h=float(algo["h"]),
            t_max=float(algo["t_max"]),
            order=int(algo.get("order", 2)),
            rule=str(algo.get("rule", "simpson")),
            ite_mode=str(algo.get("ite_mode", "tfim_closed_form")),
            backend=str(algo.get("backend", "statevector_trotter")),
            shots=int(algo["shots"]) if algo.get("shots") is not None else None,
            zero_correction=algo.get("zero_correction", True),
            threshold=(
                float(algo["threshold"]) if algo.get("threshold") is not None else None
            ),
            anchor=float(algo["anchor"]) if algo.get("anchor") is not None else None,
            noise=noise,
            seed=seed,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"algorithm block: {exc}") from exc
    return RunDocument(
        experiment=experiment,
        raw=doc,
        operator_a=operator_a,
        t_prime=t_prime,
        sweep=sweep,
        spectral=spectral,
        baseline=baseline,
        cost=cost,
    )


def load_config(path) -> RunDocument:
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_document(doc)
