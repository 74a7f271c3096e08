"""Every refusal of the library, each reached by a case that matches its
message, and the finite-number rule of its scalar guards.

A guard on a number reads config's predicates (``_positive``,
``_nonnegative``): nan, infinity and bools fail it as they fail a config
value.  A check of a deviation is written so that nan fails.  The ITE pair
refuses rescaling constants that are not finite, and the CLI reports that
as a numerical failure (exit 3) before anything is written.
"""

import json

import numpy as np
import pytest

from loschmidt.baselines import CostInput, sequential_interferometry
from loschmidt.cli import main
from loschmidt.config import _COST_CHECKS, _COST_FIELDS, ExperimentConfig, parse_document
from loschmidt.exceptions import ConfigError, NumericsError
from loschmidt.ite import ItePair, build_ite_plan_general, build_ite_plan_tfim
from loschmidt.model import SIGMA_X, SIGMA_Z, HamiltonianSpec, LocalTerm, tfim
from loschmidt.noise import apply_noise_layer, statistical_error_model
from loschmidt.reconstruct import (
    PhaseTrace,
    correct_phase_jumps,
    detect_zeros,
    integrate_phase,
    reconstruct_trace,
    run_phase_experiment,
)
from loschmidt.spectral import exact_ldos, ldos_dft
from loschmidt.statevector import (
    StateVector,
    _compile_placed,
    apply_matrix,
    product_state,
)
from loschmidt.trotter import build_plan

NAN, INF = float("nan"), float("inf")

#: what a finite-number guard refuses beyond its range: nan, both
#: infinities and the bools, which Python counts as the integers 0 and 1
NOT_FINITE = [NAN, INF, -INF, True, False]

SPEC = tfim(2, 1.0, 0.5)
UP = product_state(["up", "up"])


def _trace(g):
    """A trace of the amplitudes ``g`` on the grid k * 0.1, at zero phase
    velocity and unit p+-."""
    g = np.asarray(g, dtype=complex)
    ones, zeros = np.ones(len(g)), np.zeros(len(g))
    return PhaseTrace(np.arange(len(g)) * 0.1, np.abs(g), ones, ones, zeros, np.angle(g), g)


def _dip_trace():
    """A trace whose r dips to 1e-5 at index 10 of 21."""
    g = 1.0 + 0.1 * np.cos(3.0 * np.arange(21) * 0.1)
    g[10] = 1e-5
    return _trace(g)


#: (case, call, exception, message) for each refusal that no other test
#: reaches
REFUSALS = [
    ("chain thetas a multiple of pi apart",
     lambda: sequential_interferometry(SPEC, [UP], 1.0, 0.1, thetas=(0.0, np.pi)),
     ValueError, "^theta values must differ by a non-multiple of pi$"),
    ("empty chain",
     lambda: sequential_interferometry(SPEC, [], 1.0, 0.1),
     ValueError, "^empty state sequence$"),
    ("term on three sites",
     lambda: LocalTerm((0, 1, 2), np.eye(8)),
     ValueError, "^term support must be 1 or 2 sites$"),
    ("term matrix wider than its support",
     lambda: LocalTerm((0,), np.eye(4)),
     ValueError, "^term matrix shape does not match support$"),
    ("term past the chain",
     lambda: HamiltonianSpec(2, (LocalTerm((2,), SIGMA_Z),)),
     ValueError, r"^term support \(2,\) out of range$"),
    ("noise rate of one",
     lambda: apply_noise_layer(UP, 1.0, np.random.default_rng(0)),
     ValueError, "^gamma must satisfy 0 <= gamma < 1$"),
    ("unknown integration rule",
     lambda: integrate_phase([0.0, 1.0], 0.1, rule="midpoint"),
     ValueError, "^unknown integration rule 'midpoint'$"),
    ("zero of order three",
     # every one-sided derivative lies below a threshold of 1e9
     lambda: correct_phase_jumps(_dip_trace(), [10], 1e9),
     NumericsError, "^zero of order > 2 at index 10: correction unsupported$"),
    ("flat before the crossing",
     # g[9] == g[10] at zero phase velocity: the first derivative before
     # the crossing is exactly 0, the one after it is large
     lambda: correct_phase_jumps(_trace([1.0] * 11 + [5.0] * 10), [10], 1e-3),
     NumericsError, "^vanishing pre-crossing derivative at index 10$"),
    ("series of different lengths",
     lambda: reconstruct_trace([0.0, 0.1], [1.0], [1.0], [1.0], 0.0, 0.0, 0.1),
     ValueError, "^series lengths differ$"),
    ("grid after t = 0 without an anchor",
     lambda: run_phase_experiment(ExperimentConfig(SPEC, UP, 0.1, 0.1, 0.2, prefix_steps=1)),
     ConfigError, "^anchor must be supplied when the grid does not start at t = 0$"),
    ("one amplitude sample",
     lambda: ldos_dft([1.0], 0.1),
     ValueError, "^need at least 2 amplitude samples$"),
    ("times of another length",
     lambda: ldos_dft([1.0, 1.0], 0.1, times=[0.0]),
     ValueError, "^times and samples differ in length$"),
    ("amplitudes of another size",
     lambda: StateVector(2, np.zeros(3)),
     ValueError, r"^amplitude array of shape \(3,\) does not match 2 qubits$"),
    ("orientation of three components",
     lambda: product_state([[1.0, 0.0, 0.0]]),
     ValueError, "^orientation must be a named axis state or a 2-component pair$"),
    ("orientation of norm sqrt 2",
     lambda: product_state([[1.0, 1.0]]),
     ValueError, "^orientation vector has norm 1.414"),
    ("matrix of another width than its sites",
     lambda: apply_matrix(UP, np.eye(4), (0,)),
     ValueError, "^matrix dimension does not match number of sites$"),
    ("compiled gate past the register",
     lambda: _compile_placed(2, [(1, np.kron(SIGMA_X, SIGMA_X))]),
     ValueError, "^gate support out of range for 2 qubits$"),
    ("negative total time",
     lambda: build_plan(SPEC, -0.1, 0.1),
     ValueError, "^total time must be nonnegative$"),
    ("zero Trotter step",
     lambda: build_plan(SPEC, 1.0, 0.0),
     ValueError, "^Trotter step must be positive$"),
]


@pytest.mark.parametrize("call, error, message",
                         [case[1:] for case in REFUSALS], ids=[case[0] for case in REFUSALS])
def test_each_refusal_is_reached_with_its_message(call, error, message):
    with pytest.raises(error, match=message):
        call()


#: (guard, call of a bad value, message): each scalar guard of the library
#: that reads config's predicates, apart from the zero-repair thresholds and
#: ``taper_width``, whose tests in test_reconstruct and test_spectral take
#: these values
SCALAR_GUARDS = [
    ("build_plan t", lambda v: build_plan(SPEC, v, 0.1), "^total time must be nonnegative$"),
    ("build_plan tau", lambda v: build_plan(SPEC, 1.0, v), "^Trotter step must be positive$"),
    ("integrate_phase tau", lambda v: integrate_phase([0.0, 1.0], v), "^tau must be positive$"),
    ("reconstruct_trace h",
     lambda v: reconstruct_trace([0.0, 0.1], [1.0, 1.0], [0.5, 0.5], [0.5, 0.5], 0.0, 0.0, v),
     "^h must be positive$"),
    ("ldos_dft tau", lambda v: ldos_dft([1.0, 0.5], v), "^tau must be positive$"),
    ("exact_ldos width", lambda v: exact_ldos(SPEC, UP, v), "^width must be positive$"),
]


@pytest.mark.parametrize("value", NOT_FINITE, ids=repr)
@pytest.mark.parametrize("call, message",
                         [guard[1:] for guard in SCALAR_GUARDS], ids=[g[0] for g in SCALAR_GUARDS])
def test_scalar_guards_refuse_what_config_refuses(call, message, value):
    with pytest.raises(ValueError, match=message):
        call(value)


@pytest.mark.parametrize("call", [
    # each guard still takes a numpy float and an int, as config does
    lambda: build_plan(SPEC, np.float64(0.3), 0.1),
    lambda: build_plan(SPEC, 0, np.float64(0.1)),
    lambda: integrate_phase([0.0, 1.0], 1),
    lambda: reconstruct_trace([0.0], [1.0], [0.5], [0.5], 0.0, 0.0, np.float64(0.1)),
    lambda: detect_zeros(_dip_trace(), np.float64(1e-3)),
    lambda: ldos_dft([1.0, 0.5], np.float64(0.1), taper_width=2),
    lambda: exact_ldos(SPEC, UP, np.float64(0.5)),
], ids=["t", "tau", "integrate_phase", "h", "threshold", "ldos_dft", "exact_ldos"])
def test_scalar_guards_take_numpy_floats_and_ints(call):
    call()


class TestDeviationChecksFailOnNan:
    """Checks of a deviation against a tolerance, written so that nan
    fails."""

    def test_term_with_a_nan_entry_is_not_hermitian(self):
        with pytest.raises(ValueError, match="^term matrix is not Hermitian$"):
            LocalTerm((0,), np.array([[NAN, 0.0], [0.0, 1.0]]))

    def test_orientation_with_a_nan_norm_is_refused(self):
        with pytest.raises(ValueError, match="^orientation vector has norm nan"):
            product_state([[NAN, 0.0]])

    @pytest.mark.parametrize("field", ["p_plus", "p_minus"])
    def test_error_model_refuses_a_nan_probability(self, field):
        trace = _trace(np.ones(3))
        setattr(trace, field, np.array([1.0, NAN, 1.0]))
        with pytest.raises(NumericsError, match="zero probability in trace"):
            statistical_error_model(trace, shots=100, h=0.1)


#: a 2-site chain with a 400 sigma^z term on site 0, which exp(+-2 h H_m)
#: overflows at h = 1
Z400 = HamiltonianSpec(2, (
    LocalTerm((0, 1), -0.25 * np.kron(SIGMA_Z, SIGMA_Z), "zz"),
    LocalTerm((0,), 400.0 * SIGMA_Z, "z"),
    LocalTerm((1,), 0.5 * SIGMA_X, "x"),
))


#: the ITE builders meet an overflow on the way to a refused constant, and
#: refuse it the same way where numpy's warnings are raised as errors (as
#: under ``PYTHONWARNINGS=error::RuntimeWarning``)
RUNTIME_WARNINGS_RAISE = pytest.mark.filterwarnings("error::RuntimeWarning")


@RUNTIME_WARNINGS_RAISE
class TestItePairConstants:
    """``ItePair`` refuses rescaling constants that are not finite."""

    @pytest.mark.parametrize("log_c", [(NAN, 0.0), (0.0, INF), (-INF, 0.0)], ids=repr)
    def test_the_pair_refuses_them(self, log_c):
        vecs = np.array([[1.0, 0.0]], dtype=complex)
        with pytest.raises(NumericsError, match="^ITE rescaling constants are not finite"):
            ItePair(1, log_c, vecs, lambda: None)

    def test_closed_form_whose_cosh_overflows(self):
        # cosh(2 a h) with a = g/2 = 1000 and h = 1
        with pytest.raises(NumericsError, match=r"log c = \(inf, inf\)$"):
            build_ite_plan_tfim(tfim(2, 1.0, 2000.0), UP, 1.0)

    def test_general_form_whose_weights_meet_an_infinity(self):
        # on up, exp(2 h * 400) overflows for the plus sign, and the zero
        # weight of the other eigenvector times exp(+800) is nan for minus
        with pytest.raises(NumericsError, match=r"log c = \(inf, nan\)$"):
            build_ite_plan_general(Z400, UP, 1.0)


def _overflow_configs():
    """The closed form on configs/phase.json's chain at g = 2000, and the
    general form on the 400 sigma^z chain, both at h = 1."""
    closed = {
        "model": {"model": "tfim", "n": 6, "J": 1.0, "g": 2000.0},
        "states": {"psi": "up"},
        "algorithm": {"tau": 0.1, "h": 1.0, "t_max": 0.3, "order": 2,
                      "rule": "simpson", "backend": "statevector_trotter"},
        "seed": 7,
    }
    terms = [{"support": list(term.support), "group": term.group,
              "matrix": [[[z.real, z.imag] for z in row] for row in term.matrix.tolist()]}
             for term in Z400.terms]
    general = {
        "model": {"model": "terms", "n": 2, "terms": terms},
        "states": {"psi": "up"},
        "algorithm": {"tau": 0.1, "h": 1.0, "t_max": 0.3, "ite_mode": "general_bj"},
        "seed": 7,
    }
    return {"closed_form": closed, "general_bj": general}


@RUNTIME_WARNINGS_RAISE
@pytest.mark.parametrize("backend", ["statevector_trotter", "exact_oracle"])
@pytest.mark.parametrize("name", ["closed_form", "general_bj"])
def test_an_ite_overflow_exits_3_and_writes_nothing(tmp_path, capsys, name, backend):
    doc = _overflow_configs()[name]
    doc["algorithm"]["backend"] = backend
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["phase", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(
        "numerical failure: ITE rescaling constants are not finite")
    assert not out.exists()


@pytest.mark.parametrize("field, key, accepts, what, default", _COST_FIELDS,
                         ids=[row[0] for row in _COST_FIELDS])
def test_cost_input_and_the_cost_block_read_one_table(field, key, accepts, what, default):
    kwargs = dict(method="hadamard", n_sites=8, t=1.0, epsilon=0.01)
    kwargs[field] = NAN
    with pytest.raises(ValueError, match=f"^{field} must be {what}, got nan$"):
        CostInput(**kwargs)
    cost_keys = [check[0] for check in _COST_CHECKS]
    assert cost_keys == [row[1] for row in _COST_FIELDS]
    doc = {"model": {"model": "tfim", "n": 2, "J": 1.0, "g": 0.5}, "states": {"psi": "up"},
           "algorithm": {"tau": 0.1, "h": 0.1, "t_max": 1.0}, "cost": {key: NAN}}
    with pytest.raises(ConfigError, match=f"^cost.{key} must be {what}"):
        parse_document(doc)
    assert parse_document({**doc, "cost": {}}).cost[key] == default


@pytest.mark.parametrize("method", ["hadamard", "sequential", "this_work"])
def test_cost_input_defaults_are_the_cost_blocks(method):
    doc = {"model": {"model": "tfim", "n": 2, "J": 1.0, "g": 0.5}, "states": {"psi": "up"},
           "algorithm": {"tau": 0.1, "h": 0.1, "t_max": 1.0}, "cost": {"n": 8}}
    block = parse_document(doc).cost
    given = CostInput(method, block["n"], block["t"], block["epsilon"])
    for field, key, *_ in _COST_FIELDS:
        assert getattr(given, field) == block[key], field
