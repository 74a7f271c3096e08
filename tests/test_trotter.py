"""Tests for the Trotter decomposition plans."""

import numpy as np
import pytest

from loschmidt.model import dense_matrix, tfim
from loschmidt.statevector import StateVector, product_state
from loschmidt.trotter import TrotterPlan, _gates_in_term_order, build_plan, evolve

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
        labels = {g.support for layer in plan.step_layers for g in layer}
        assert all(len(s) == 2 for s in labels)  # no x gates present

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
            for layer in plan.step_layers:
                sites = [s for g in layer for s in g.support]
                assert len(sites) == len(set(sites))


    def test_gate_stack_checked_for_unitarity(self):
        spec = tfim(3, 1.0, 0.5)
        stack = np.stack([np.eye(2), np.diag([1.0, 1j]), np.diag([1.0, 1.001])]).astype(complex)
        with pytest.raises(ValueError, match="deviates from unitarity by 2.00e-03"):
            _gates_in_term_order(spec.terms, [([2, 3, 4], stack)])
        # the identity is dropped, the rest keep term order
        gates = _gates_in_term_order(spec.terms, [([4, 3], stack[:2])])
        assert [g.support for g in gates] == [spec.terms[3].support]
        assert np.array_equal(gates[0].matrix, stack[1])


class TestEvolve:
    def test_zero_steps_unchanged(self):
        plan = build_plan(tfim(3, 1, 0.5), 0.5, 0.1, 2)
        state = random_state(3)
        out = evolve(state, plan, n_steps=0)
        assert out is state

    def test_unitarity_round_trip(self):
        spec = tfim(5, 1.0, 0.5)
        state = random_state(5)
        forward = build_plan(spec, 1.0, 0.05, 2)
        backward = TrotterPlan(
            forward.order,
            forward.tau,
            forward.n_steps,
            forward.n_sites,
            [
                [type(g)(g.support, g.matrix.conj().T) for g in layer]
                for layer in reversed(forward.step_layers)
            ],
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
