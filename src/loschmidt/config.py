"""Experiment configuration: typed objects plus strict JSON schema.

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

Each value is checked once, by type and range, in the table of its block
(``_check_values``), and then used as given: it is never coerced, so
``"order": 2.9`` or ``"tau": "0.05"`` is an error.  ``ExperimentConfig`` and
``NoiseConfig`` run their blocks' tables, for Python callers as for JSON.
The tables of the command blocks (``spectral``, ``baseline``, ``cost``,
``sweep``) also hold each key's default, after its check; those blocks are
resolved at load, so the commands and the resolved-config snapshot
(``RunDocument.resolved``) read one set of values.

The load ranges hold for every command.  The rules of one command that
need more than one block live with the document too: the scaling sweep's
(``RunDocument.sweep_points``), the dense oracle's 12-site cap on its sizes
included, are all checked before its first state is built.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field, replace
from numbers import Integral, Real
from typing import Any

import numpy as np

from .exceptions import ConfigError
from .model import ORACLE_MAX_SITES, SIGMA_X, SIGMA_Y, SIGMA_Z, HamiltonianSpec, LocalTerm, tfim
from .statevector import STATEVECTOR_MAX_SITES, StateVector, _check_unitary, product_state

_RULES = ("simpson", "trapezoid")
_ITE_MODES = ("tfim_closed_form", "general_bj")
_BACKENDS = ("exact_oracle", "statevector_trotter", "noisy")
_ORDERS = (1, 2, 4)
_NAMED_OPERATORS = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


def _finite(value) -> bool:
    """A finite real number; a bool (an int in Python) is not one."""
    return not isinstance(value, bool) and isinstance(value, Real) and abs(value) < float("inf")


def _nonnegative(value) -> bool:
    return _finite(value) and value >= 0


def _positive(value) -> bool:
    return _finite(value) and value > 0


def _integer(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, Integral)


def _count(value) -> bool:
    return _integer(value) and value >= 1


def _seed(value) -> bool:
    return _integer(value) and value >= 0


def _order(value) -> bool:
    """A Trotter order: 1, 2 or 4."""
    return _integer(value) and value in _ORDERS


def _one_of(options):
    return lambda value: isinstance(value, str) and value in options


def _optional(accepts):
    """Predicate of null or a value ``accepts`` takes."""
    return lambda value: value is None or accepts(value)


def _list_of(accepts):
    """Predicate of a non-empty list whose entries ``accepts`` takes."""
    return lambda value: isinstance(value, list) and bool(value) and all(map(accepts, value))


def _one_or_list(accepts):
    """Predicate of a value ``accepts`` takes or a non-empty list of them."""
    return lambda value: accepts(value) or _list_of(accepts)(value)


def _list(length: int, accepts):
    """Predicate of a list of ``length`` entries that ``accepts`` takes."""
    return lambda value: (
        isinstance(value, list) and len(value) == length and all(map(accepts, value))
    )


_pair = _list(2, _finite)  # one complex number as [re, im]
_spinor = _list(2, _pair)  # one site's state as two [re, im] components


def _square_matrix(value) -> bool:
    """A non-empty square matrix of [re, im] pairs."""
    return isinstance(value, list) and _list_of(_list(len(value), _pair))(value)


def _complex(pairs) -> np.ndarray:
    """The complex array of checked nested [re, im] pairs."""
    arr = np.array(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _check_values(block: dict, checks, where: str) -> None:
    """Raise unless each key of ``block`` named in ``checks`` (key,
    predicate, description, and for a command block's key with a default
    that default) holds a value the predicate accepts.  ``where`` is the
    block's JSON path, empty for the top level."""
    for key, accepts, what, *_ in checks:
        if key in block and not accepts(block[key]):
            path = f"{where}.{key}" if where else key
            raise ConfigError(f"{path} must be {what}, got {block[key]!r}")


#: the algorithm block, as the fields of ExperimentConfig
_ALGORITHM_CHECKS = (
    ("tau", _positive, "a positive number"),
    ("h", _positive, "a positive number"),
    ("t_max", _nonnegative, "a nonnegative number"),
    ("order", _order, "one of 1, 2, 4"),
    ("rule", _one_of(_RULES), f"one of {_RULES}"),
    ("ite_mode", _one_of(_ITE_MODES), f"one of {_ITE_MODES}"),
    ("backend", _one_of(_BACKENDS), f"one of {_BACKENDS}"),
    ("shots", _optional(_count), "a positive integer or null"),
    ("zero_correction", lambda v: isinstance(v, bool), "true or false"),
    ("threshold", _optional(_positive), "a positive number or null"),
    ("anchor", _optional(_finite), "a finite number or null"),
)

#: the top-level values, also fields of ExperimentConfig
_TOP_CHECKS = (("seed", _seed, "a nonnegative integer"),)

#: the fields of ExperimentConfig that no config key sets: ``prefix_steps``
#: is the two-sided command's count of steps before the grid
_RUN_CHECKS = (("prefix_steps", _seed, "a nonnegative integer"),)

#: the noise block, as the fields of NoiseConfig (``seed`` is master_seed)
_NOISE_CHECKS = (
    ("gamma", lambda v: _finite(v) and 0 <= v < 1, "a number in [0, 1)"),
    ("n_trajectories", _count, "a positive integer"),
    ("shots", _optional(_count), "a positive integer or null"),
    ("seed", _seed, "a nonnegative integer (it defaults to the config's seed)"),
)


@dataclass
class NoiseConfig:
    """Depolarizing rate, trajectory count, shot budget and master seed: the
    ``noise`` block, whose ``seed`` defaults to the config's ``seed``."""

    gamma: float
    n_trajectories: int = 1000
    shots: int | None = None
    master_seed: int = 0

    def __post_init__(self):
        _check_values({**vars(self), "seed": self.master_seed}, _NOISE_CHECKS, "noise")


@dataclass
class ExperimentConfig:
    """Validated inputs of one phase-reconstruction run."""

    spec: HamiltonianSpec
    psi: StateVector
    tau: float
    h: float
    t_max: float
    psi_final: StateVector | None = None
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
        _check_values(vars(self), _ALGORITHM_CHECKS, "algorithm")
        _check_values(vars(self), _TOP_CHECKS + _RUN_CHECKS, "")
        if self.backend == "noisy" and self.noise is None:
            raise ConfigError("noisy backend requires a noise block")
        if self.noise is not None and self.backend != "noisy":
            raise ConfigError("a noise block requires backend 'noisy' (or leave backend unset)")
        if self.noise is not None and self.shots is not None:
            raise ConfigError("algorithm.shots is not read next to a noise block; set noise.shots")
        if self.threshold is not None and not self.zero_correction:
            raise ConfigError("algorithm.threshold is not read with zero_correction off")
        if self.backend == "exact_oracle" and self.spec.n_sites > ORACLE_MAX_SITES:
            raise ConfigError(
                f"exact_oracle backend is capped at {ORACLE_MAX_SITES} sites, "
                f"got {self.spec.n_sites}"
            )


def _keys(checks) -> set[str]:
    """The keys a table checks: the keys its block may hold."""
    return {key for key, *_ in checks}


def _with_defaults(block: dict, checks) -> dict:
    """A copy of a checked block with each absent key that has a default in
    ``checks`` set to it."""
    defaults = {key: copy.deepcopy(rest[0]) for key, _, _, *rest in checks if rest}
    return {**defaults, **block}


def _checked_block(block: Any, where: str, allowed, required=frozenset(), checks=()) -> dict:
    """``block`` once it is an object with keys among ``allowed``, all of
    ``required``, and values the ``checks`` table accepts."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")
    missing = required - set(block)
    if missing:
        raise ConfigError(f"missing keys {sorted(missing)} in {where}")
    _check_values(block, checks, where)
    return block


def _sites(least: int):
    """Predicate of a site count from ``least`` to ``STATEVECTOR_MAX_SITES``,
    checked before any state of that size is allocated."""
    return lambda value: _integer(value) and least <= value <= STATEVECTOR_MAX_SITES


_TFIM_CHECKS = (
    ("n", _sites(2), f"an integer in [2, {STATEVECTOR_MAX_SITES}]"),
    ("J", _finite, "a finite number"),
    ("g", _finite, "a finite number"),
)

_TERMS_CHECKS = (
    ("n", _sites(1), f"an integer in [1, {STATEVECTOR_MAX_SITES}]"),
    ("terms", lambda v: isinstance(v, list), "a list of terms"),
)

_TERM_CHECKS = (
    ("support", _list_of(_integer), "a non-empty list of site indices"),
    ("matrix", _square_matrix, "a square matrix of [re, im] pairs"),
    ("group", lambda v: isinstance(v, str), "a string"),
)


def parse_model(block: Any) -> HamiltonianSpec:
    if not isinstance(block, dict):
        raise ConfigError("model block must be an object")
    kind = block.get("model")
    if kind == "tfim":
        _checked_block(block, "model", {"model", "n", "J", "g"}, {"n", "J", "g"}, _TFIM_CHECKS)
        return tfim(block["n"], block["J"], block["g"])
    if kind != "terms":
        raise ConfigError("model must be 'tfim' or 'terms'")
    _checked_block(block, "model", {"model", "n", "terms"}, {"n", "terms"}, _TERMS_CHECKS)
    terms = []
    for idx, raw in enumerate(block["terms"]):
        where = f"model.terms[{idx}]"
        _checked_block(raw, where, _keys(_TERM_CHECKS), {"support", "matrix"}, _TERM_CHECKS)
        try:
            terms.append(
                LocalTerm(tuple(raw["support"]), _complex(raw["matrix"]), raw.get("group", ""))
            )
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    try:
        return HamiltonianSpec(block["n"], tuple(terms))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_state(raw: Any, n_sites: int, where: str) -> StateVector:
    """The product state of a checked name or per-site list."""
    sites = [raw] * n_sites if isinstance(raw, str) else raw
    try:
        return product_state([s if isinstance(s, str) else _complex(s) for s in sites])
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _state_checks(n_sites: int):
    # a name for every site, or per site a name or two [re, im] components
    sites = _list(n_sites, lambda v: isinstance(v, str) or _spinor(v))

    def state(value):
        return isinstance(value, str) or sites(value)

    what = f"a name or a list of {n_sites} site states (names or [[re, im], [re, im]])"
    return (
        ("psi", state, what),
        ("psi_final", _optional(state), f"{what} or null"),
        ("t_prime", _optional(_nonnegative), "a nonnegative number or null"),
    )


def _operator_checks(n_sites: int):
    return (
        ("sites", _list_of(lambda s: _integer(s) and 0 <= s < n_sites),
         f"a non-empty list of sites in [0, {n_sites})"),
        ("name", lambda v: isinstance(v, str) and v.lower() in _NAMED_OPERATORS,
         "'x', 'y' or 'z'"),
        ("matrix", _square_matrix, "a square matrix of [re, im] pairs"),
    )


def parse_operator(block: Any, n_sites: int):
    """Local unitary insertion: {"sites": [...], "name": "x"|"y"|"z"} or an
    explicit matrix {"sites": [...], "matrix": [[..]]}. Returns (sites, matrix)."""
    checks = _operator_checks(n_sites)
    _checked_block(block, "states.operator_a", _keys(checks), {"sites"}, checks)
    sites = tuple(block["sites"])
    if ("name" in block) == ("matrix" in block):
        raise ConfigError("operator_a takes a name or a matrix")
    if "name" in block:
        if len(sites) != 1:
            raise ConfigError("named operators act on a single site")
        return sites, _NAMED_OPERATORS[block["name"].lower()]
    mat = _complex(block["matrix"])
    if mat.shape != (2 ** len(sites),) * 2:
        raise ConfigError("operator_a matrix does not match its sites")
    try:
        _check_unitary(mat)
    except ValueError as exc:
        raise ConfigError(f"operator_a must be unitary: {exc}") from exc
    return sites, mat


def parse_noise(block: Any, default_seed: int) -> NoiseConfig:
    """The noise block; ``NoiseConfig`` checks its values."""
    _checked_block(block, "noise", _keys(_NOISE_CHECKS), {"gamma", "n_trajectories"})
    return NoiseConfig(
        block["gamma"], block["n_trajectories"], block.get("shots"),
        block.get("seed", default_seed),
    )


_TOP_KEYS = {
    "model", "states", "algorithm", "noise", "sweep", "seed", "spectral",
    "baseline", "cost",
}

#: ``hermitian_extend`` a JSON bool, ``width`` (of the oracle reference)
#: a positive number and ``taper_width`` a positive number or null (no taper)
_SPECTRAL_CHECKS = (
    ("hermitian_extend", lambda v: isinstance(v, bool), "true or false", True),
    ("width", _positive, "a positive number", 0.08),
    ("taper_width", _optional(_positive), "a positive number or null", None),
)

#: the numbers of the scaling laws, each as (``baselines.CostInput`` field,
#: ``cost`` block key, predicate, description, default): the values the laws
#: can take.  ``CostInput`` checks its fields with this table, and the cost
#: block's table is derived from it.
_COST_FIELDS = (
    ("n_sites", "n", _count, "a positive integer", [8, 16, 32, 64]),
    ("t", "t", _nonnegative, "a nonnegative number", 4.0),
    ("epsilon", "epsilon", _positive, "a positive number", 0.01),
    ("order", "p", _order, "one of 1, 2, 4", 2),
    ("dimension", "d", _count, "a positive integer", 1),
    ("r", "r", _nonnegative, "a nonnegative number", 1.0),
    ("i_factor", "i_factor", _finite, "a finite number", 1.0),
)

#: the cost block's keys, whose N is one size or a list of them
_COST_CHECKS = tuple(
    (key, _one_or_list(accepts), f"{what} or a non-empty list of them", default)
    if key == "n" else (key, accepts, what, default)
    for _, key, accepts, what, default in _COST_FIELDS
)

#: ``t_max`` defaults to the algorithm block's, which ``parse_document`` sets
_SWEEP_CHECKS = (
    ("kind", _one_of(("h", "tau")), "'h' or 'tau'"),
    # the scaling sweep runs the built-in chain, which needs two sites
    ("n_values", _list_of(_sites(2)),
     f"a non-empty list of integers in [2, {STATEVECTOR_MAX_SITES}]"),
    ("values", _list_of(_positive), "a non-empty list of positive numbers"),
    ("t_max", _nonnegative, "a nonnegative number"),
)


def _baseline_checks(n_sites: int):
    # without ``part`` the Hadamard test estimates both parts; the
    # sequential method requires ``flip_sites``
    return (
        ("flip_sites", lambda v: isinstance(v, list) and all(
            _integer(s) and 0 <= s < n_sites for s in v),
         f"a list of sites in [0, {n_sites})"),
        ("thetas", _list(2, _finite), "a list of two finite numbers", [0.0, float(np.pi / 2)]),
        ("fallback_threshold", _nonnegative, "a nonnegative number", 1e-3),
        ("part", _one_of(("real", "imag")), "'real' or 'imag'"),
        ("shots", _optional(_count), "a positive integer or null", None),
    )


@dataclass
class RunDocument:
    """Fully parsed config file: the experiment config plus CLI-level blocks
    (two-sided operator, sweep description, spectral / baseline / cost
    options) that individual subcommands interpret, each with its defaults
    filled in."""

    experiment: ExperimentConfig
    raw: dict = field(repr=False)
    operator_a: tuple | None
    t_prime: float
    sweep: dict | None
    spectral: dict
    baseline: dict
    cost: dict

    def sweep_points(self):
        """The points of the scaling sweep, as a lazy iterator of ``(n,
        value, experiment)``: for each size of ``sweep.n_values`` and each
        swept value, the config's experiment with the tfim chain of the
        document's ``J`` and ``g`` on ``n`` sites, its named ``psi`` on
        every site, the sweep's ``t_max`` and ``value`` as its ``h`` or
        ``tau``.  A size's chain and state are built when its first point
        is reached.

        Every sweep rule is checked here, before the iterator is returned
        and before any state is built.  What cannot carry over to another
        size is refused: a model other than tfim, a per-site ``psi`` list,
        ``psi_final``, a noise block and a backend other than
        ``statevector_trotter``; so is an anchor, which would shift every
        phase error by its distance from arg G(0) = 0, and a size the
        dense oracle, which each point is compared with, cannot take."""
        exp, model, psi = self.experiment, self.raw["model"], self.raw["states"]["psi"]
        if self.sweep is None:
            raise ConfigError("scaling runs need a sweep block")
        if model["model"] != "tfim":
            raise ConfigError("scaling sweeps support the built-in tfim model only")
        if not isinstance(psi, str):
            raise ConfigError("scaling sweeps need a named states.psi, not a per-site list")
        if exp.psi_final is not None:
            raise ConfigError("scaling sweeps compare psi with itself; remove states.psi_final")
        if exp.noise is not None:
            raise ConfigError("scaling sweeps run noiseless circuits; remove the noise block")
        if exp.backend != "statevector_trotter":
            raise ConfigError("scaling sweeps run the statevector_trotter backend, "
                              f"not {exp.backend!r}")
        if exp.anchor is not None:
            raise ConfigError("scaling sweeps anchor at arg G(0) = 0; remove algorithm.anchor")
        kind, n_values, values, t_max = (
            self.sweep[key] for key in ("kind", "n_values", "values", "t_max"))
        if max(n_values) > ORACLE_MAX_SITES:
            raise ConfigError(f"scaling sweeps compare with the oracle, capped at "
                              f"{ORACLE_MAX_SITES} sites; sweep.n_values holds {max(n_values)}")

        def points():
            for n in n_values:
                spec, ket = tfim(n, model["J"], model["g"]), product_state([psi] * n)
                for value in values:
                    yield n, value, replace(exp, spec=spec, psi=ket, t_max=t_max, **{kind: value})

        return points()

    def resolved(self) -> dict:
        """Config snapshot with every default made explicit: the algorithm,
        noise and seed values the run used, and the resolved command
        blocks.  It loads again as the same run."""
        exp = self.experiment
        resolved = json.loads(json.dumps(self.raw))  # deep copy
        resolved["algorithm"] = {key: getattr(exp, key) for key, _, _ in _ALGORITHM_CHECKS}
        resolved["seed"] = exp.seed
        if exp.noise is not None:
            noise = {**vars(exp.noise), "seed": exp.noise.master_seed}
            resolved["noise"] = {key: noise[key] for key, _, _ in _NOISE_CHECKS}
        resolved.update(spectral=self.spectral, baseline=self.baseline, cost=self.cost)
        if self.sweep is not None:
            resolved["sweep"] = self.sweep
        return resolved


def _optional_block(doc: dict, name: str, checks) -> dict:
    """A command-level block with its defaults, which are all it holds when
    the block is absent or null."""
    block = doc.get(name)
    if block is not None:
        _checked_block(block, name, _keys(checks), checks=checks)
    return _with_defaults(block or {}, checks)


def parse_document(doc: Any, seed: int | None = None) -> RunDocument:
    """The run document of a JSON config.  ``seed``, when given, replaces
    the config's ``seed`` (the ``--seed`` flag), in a noise block without a
    seed of its own too; the config's seed is still checked, so a file that
    does not load alone does not load with a replacement either."""
    _checked_block(doc, "config", _TOP_KEYS, {"model", "states", "algorithm"})
    spec = parse_model(doc["model"])
    n_sites = spec.n_sites

    checks = _state_checks(n_sites)  # operator_a is a block of its own
    states = _checked_block(doc["states"], "states", _keys(checks) | {"operator_a"}, {"psi"},
                            checks)
    psi = parse_state(states["psi"], n_sites, "states.psi")
    psi_final = None
    if states.get("psi_final") is not None:
        psi_final = parse_state(states["psi_final"], n_sites, "states.psi_final")
    operator_a = None
    if states.get("operator_a") is not None:
        operator_a = parse_operator(states["operator_a"], n_sites)

    # ExperimentConfig checks the algorithm values, NoiseConfig the noise block
    algo = _checked_block(doc["algorithm"], "algorithm", _keys(_ALGORITHM_CHECKS),
                          {"tau", "h", "t_max"})
    _check_values(doc, _TOP_CHECKS, "")
    seed = doc.get("seed", 0) if seed is None else seed
    noise = None
    if doc.get("noise") is not None:
        noise = parse_noise(doc["noise"], seed)
        algo = {"backend": "noisy", **algo}

    sweep = doc.get("sweep")
    if sweep is not None:
        _checked_block(sweep, "sweep", _keys(_SWEEP_CHECKS), {"kind", "n_values", "values"},
                       _SWEEP_CHECKS)
        sweep = {"t_max": algo["t_max"], **sweep}
    experiment = ExperimentConfig(
        spec=spec, psi=psi, psi_final=psi_final, noise=noise, seed=seed, **algo
    )
    return RunDocument(
        experiment=experiment,
        raw=doc,
        operator_a=operator_a,
        t_prime=states.get("t_prime") or 0.0,
        sweep=sweep,
        spectral=_optional_block(doc, "spectral", _SPECTRAL_CHECKS),
        baseline=_optional_block(doc, "baseline", _baseline_checks(n_sites)),
        cost=_optional_block(doc, "cost", _COST_CHECKS),
    )


def _unique_keys(pairs) -> dict:
    """One JSON object of a config file; a key it repeats is refused, since
    JSON would keep the last value and drop the first without a word."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"config repeats key {key!r} in one object")
        obj[key] = value
    return obj


def load_config(path, seed: int | None = None) -> RunDocument:
    """The run document of the JSON config file at ``path``; ``seed`` as
    in ``parse_document``.  A key repeated in any object is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_document(doc, seed)
