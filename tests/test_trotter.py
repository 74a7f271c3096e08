"""Tests for the Trotter decomposition plans."""

import numpy as np
import pytest

import loschmidt.reconstruct as reconstruct_module
import loschmidt.trotter as trotter_module
from loschmidt.config import ExperimentConfig, NoiseConfig
from loschmidt.ite import build_ite_plan_general, build_ite_plan_tfim
from loschmidt.model import dense_matrix, tfim
from loschmidt.reconstruct import run_phase_experiment
from loschmidt.statevector import GateStack, StateVector, product_state
from loschmidt.trotter import TrotterPlan, _stack_in_term_order, build_plan, evolve

RNG = np.random.default_rng(31)


def random_state(n, rng=RNG):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(n, amps / np.linalg.norm(amps))


def dense_propagator(spec, t):
    energies, vectors = np.linalg.eigh(dense_matrix(spec))
    return (vectors * np.exp(-1j * energies * t)) @ vectors.conj().T


def one_step_error(spec, tau, order, state):
    plan = build_plan(spec, tau, tau, order)
    approx = evolve(state, plan)
    exact = dense_propagator(spec, tau) @ state.amplitudes
    return np.linalg.norm(approx.amplitudes - exact)


class TestBuildPlan:
    def test_zero_time_is_identity(self):
        plan = build_plan(tfim(3, 1.0, 0.5), 0.0, 0.1, 2)
        assert plan.n_steps == 0
        state = random_state(3)
        assert np.allclose(evolve(state, plan).amplitudes, state.amplitudes)

    def test_single_group_exact(self):
        # g = 0 leaves only the commuting zz bonds: one step is exact
        spec = tfim(4, 1.0, 0.0)
        state = random_state(4)
        for order in (1, 2, 4):
            assert one_step_error(spec, 0.37, order, state) < 1e-12

    def test_zero_coefficient_gates_dropped(self):
        plan = build_plan(tfim(4, 1.0, 0.0), 0.1, 0.1, 1)
        supports = plan.gate_stack.supports
        assert supports and all(len(s) == 2 for s in supports)  # no x gates present

    def test_one_step_order_scaling(self):
        spec = tfim(4, 1.0, 0.5)
        state = random_state(4)
        taus = [0.1, 0.05, 0.025]
        for order in (1, 2):
            errs = [one_step_error(spec, tau, order, state) for tau in taus]
            slope = np.polyfit(np.log(taus), np.log(errs), 1)[0]
            assert abs(slope - (order + 1)) < 0.3

    def test_incommensurate_step(self):
        with pytest.raises(ValueError, match="incommensurate"):
            build_plan(tfim(3, 1, 0.5), 1.0, 0.3, 2)

    def test_unknown_order(self):
        with pytest.raises(ValueError, match="order"):
            build_plan(tfim(3, 1, 0.5), 1.0, 0.1, 3)

    def test_layer_census_tfim(self):
        spec = tfim(6, 1.0, 0.5)
        assert build_plan(spec, 0.1, 0.1, 1).layers_per_step == 3
        assert build_plan(spec, 0.1, 0.1, 2).layers_per_step == 5
        assert build_plan(spec, 0.1, 0.1, 4).layers_per_step == 25

    def test_layers_have_disjoint_supports(self):
        for order in (1, 2, 4):
            plan = build_plan(tfim(7, 1.0, 0.5), 0.2, 0.2, order)
            for layer in plan.layer_index:
                sites = [s for k in layer for s in plan.gate_stack.supports[k]]
                assert len(sites) == len(set(sites))


    def test_gate_stack_checked_for_unitarity(self):
        spec = tfim(3, 1.0, 0.5)
        stack = np.stack([np.eye(2), np.diag([1.0, 1j]), np.diag([1.0, 1.001])]).astype(complex)
        with pytest.raises(ValueError, match="deviates from unitarity by 2.00e-03"):
            _stack_in_term_order(spec.terms, [([2, 3, 4], stack)])
        # the identity is dropped, the rest keep term order
        gates = _stack_in_term_order(spec.terms, [([4, 3], stack[:2])])
        assert gates.supports == (spec.terms[3].support,)
        assert len(gates.matrices) == 1 and np.array_equal(gates.matrices[0], stack[1])


class TestPlanForm:
    # step_layers and ItePair.gates are the names the benchmark tracer reads

    @pytest.mark.parametrize("order", [1, 2, 4])
    def test_step_layers_are_the_layer_census(self, order):
        plan = build_plan(tfim(5, 1.0, 0.5), 0.2, 0.1, order)
        assert plan.step_layers is plan.layer_index

    @pytest.mark.parametrize("builder", [build_ite_plan_general, build_ite_plan_tfim])
    def test_ite_gates_are_the_stack_supports(self, builder):
        pair = builder(tfim(5, 1.0, 0.5), product_state(["up"] * 5), 0.1)
        sites = ((0,), (1,), (2,), (3,), (4,))
        assert pair.stacks[0].supports == pair.stacks[1].supports == sites
        assert pair.gates == sites + sites

    def test_mirrored_tail_repeats_the_head_index(self):
        plan = build_plan(tfim(6, 1.0, 0.5), 0.1, 0.1, 2)
        index = plan.layer_index
        assert index[:2] == index[3:][::-1] and plan.compiled[:2] == plan.compiled[3:][::-1]
        # each distinct gate is stored once
        used = sorted({k for layer in index for k in layer})
        assert used == list(range(len(plan.gate_stack.supports)))

    @pytest.mark.parametrize("backend, gamma, form", [
        ("statevector_trotter", None, "adjoint"),
        ("noisy", 0.0, "adjoint"),
        ("noisy", 0.1, "compiled"),
    ])
    def test_run_compiles_only_the_form_it_executes(self, monkeypatch, backend, gamma, form):
        # noiseless runs evolve the bra under U^dagger, trajectories run U layer
        # by layer; each compiles its form once and never the other
        plans, calls = [], []

        def build(*args, _original=reconstruct_module.build_plan):
            plans.append(_original(*args))
            return plans[-1]

        def compile_stack(*args, _original=trotter_module._compile_stack):
            calls.append(args)
            return _original(*args)

        monkeypatch.setattr(reconstruct_module, "build_plan", build)
        monkeypatch.setattr(trotter_module, "_compile_stack", compile_stack)
        noise = None if gamma is None else NoiseConfig(gamma=gamma, n_trajectories=2)
        run_phase_experiment(ExperimentConfig(
            spec=tfim(4, 1.0, 0.5), psi=product_state(["x+", "up", "y-", "down"]),
            tau=0.05, h=0.05, t_max=0.2, prefix_steps=2, anchor=0.0, order=1,
            ite_mode="general_bj", backend=backend, noise=noise,
        ))
        (plan,) = plans
        other = {"compiled": "adjoint", "adjoint": "compiled"}[form]
        assert form in vars(plan) and other not in vars(plan)
        (_, stack, index), = calls
        way = -1 if form == "adjoint" else 1
        assert list(index) == list(plan.layer_index[::way])
        assert stack.supports == plan.gate_stack.supports


class TestEvolve:
    def test_zero_steps_unchanged(self):
        plan = build_plan(tfim(3, 1, 0.5), 0.5, 0.1, 2)
        state = random_state(3)
        out = evolve(state, plan, n_steps=0)
        assert out is state

    def test_negative_steps_rejected(self):
        plan = build_plan(tfim(3, 1, 0.5), 0.5, 0.1, 2)
        with pytest.raises(ValueError, match="nonnegative"):
            evolve(random_state(3), plan, n_steps=-2)

    def test_unitarity_round_trip(self):
        spec = tfim(5, 1.0, 0.5)
        state = random_state(5)
        forward = build_plan(spec, 1.0, 0.05, 2)
        stack = forward.gate_stack
        backward = TrotterPlan(
            forward.n_steps,
            forward.n_sites,
            GateStack(stack.supports, tuple(m.conj().T for m in stack.matrices)),
            forward.layer_index[::-1],
        )
        out = evolve(evolve(state, forward), backward)
        assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 20 * 1e-10

    def test_norm_preserved_100_steps(self):
        plan = build_plan(tfim(4, 1.0, 0.5), 10.0, 0.1, 2)
        out = evolve(random_state(4), plan)
        assert abs(out.norm() - 1.0) < 1e-10

    def test_overlap_with_oracle(self):
        spec = tfim(6, 1.0, 0.5)
        psi = product_state(["up"] * 6)
        plan = build_plan(spec, 1.0, 0.01, 2)
        approx = evolve(psi, plan)
        exact = dense_propagator(spec, 1.0) @ psi.amplitudes
        overlap = abs(np.vdot(exact, approx.amplitudes))
        assert overlap >= 1 - 1e-6

    def test_global_error_order_scaling(self):
        # fixed total time, scaling of || U_trotter - exp(-iHt) || psi
        spec = tfim(4, 1.0, 0.5)
        state = random_state(4)
        t = 1.0
        for order in (1, 2):
            errs = []
            taus = [0.1, 0.05, 0.025]
            for tau in taus:
                plan = build_plan(spec, t, tau, order)
                approx = evolve(state, plan)
                exact = dense_propagator(spec, t) @ state.amplitudes
                errs.append(np.linalg.norm(approx.amplitudes - exact))
            slope = np.polyfit(np.log(taus), np.log(errs), 1)[0]
            assert abs(slope - order) < 0.3

    def test_order4_beats_order2(self):
        spec = tfim(4, 1.0, 0.5)
        state = random_state(4)
        e2 = one_step_error(spec, 0.2, 2, state)
        e4 = one_step_error(spec, 0.2, 4, state)
        assert e4 < e2 / 10

    def test_size_mismatch(self):
        plan = build_plan(tfim(3, 1, 0.5), 0.1, 0.1, 1)
        with pytest.raises(ValueError):
            evolve(random_state(4), plan)
