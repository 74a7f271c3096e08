"""Tests for the local-unitary imaginary-time evolution plans."""

import numpy as np
import pytest

import loschmidt.ite as ite_module
from loschmidt.config import ExperimentConfig, NoiseConfig
from loschmidt.ite import (
    apply_ite,
    build_ite_plan_general,
    build_ite_plan_tfim,
    ite_angle,
)
from loschmidt.model import HamiltonianSpec, LocalTerm, SIGMA_X, dense_matrix, tfim
from loschmidt.reconstruct import run_phase_experiment
from loschmidt.statevector import StateVector, product_state
from test_compiled_plans import _ite_plan

RNG = np.random.default_rng(99)


def dense_imaginary_step(spec, h, sign, psi):
    mat = dense_matrix(spec)
    evals, evecs = np.linalg.eigh(mat)
    prop = (evecs * np.exp(sign * h * evals)) @ evecs.conj().T
    return prop @ psi.amplitudes


def plan_output(plan, psi):
    return plan.c_total * apply_ite(plan, psi).amplitudes


class TestIteAngle:
    def test_zero(self):
        assert ite_angle(0.0, 0.7) == 0.0

    def test_reference_value(self):
        # arctan(tanh(0.1 * 0.5 / 2)), frozen from the closed form
        assert abs(ite_angle(0.1, 0.5) - 0.024989589839025925) < 1e-12

    def test_odd_in_h(self):
        for h, g in [(0.1, 0.5), (0.3, 1.2)]:
            assert ite_angle(-h, g) == -ite_angle(h, g)


class TestTfimPlan:
    def test_h_zero(self):
        psi = product_state(["up"] * 3)
        pair = build_ite_plan_tfim(tfim(3, 1.0, 0.5), psi, 0.0)
        assert pair.plus.c_total == pair.minus.c_total == 1.0
        assert not pair.gates
        out = apply_ite(pair.plus, psi)
        assert np.allclose(out.amplitudes, psi.amplitudes)

    def test_c_total_closed_form(self):
        # N=2, J=1, g=0.5, h=0.1, sign=+: exp(-0.025) * cosh(0.05)
        psi = product_state(["up", "up"])
        plan = build_ite_plan_tfim(tfim(2, 1.0, 0.5), psi, 0.1).plus
        assert abs(plan.c_total - np.exp(-0.025) * np.cosh(0.05)) < 1e-12
        assert abs(plan.c_total - 0.9765293034264908) < 1e-10

    def test_c_total_brute_force_product(self):
        # c^2 = <psi|e^{2hH_zz}|psi> * prod_i <psi|e^{2hg S^x_i}|psi>,
        # dense 2x2/4x4 exponentials as the independent oracle
        n, J, g, h = 4, 1.3, 0.7, 0.08
        psi = product_state(["up"] * n)
        spec = tfim(n, J, g)
        zz = -J / 4 * np.kron(np.diag([1, -1]), np.diag([1, -1]))
        c_sq = 1.0
        for _ in range(n - 1):
            c_sq *= np.exp(2 * h * zz[0, 0].real)
        sx_exp = np.cosh(h * g)  # <up| e^{2h (g/2) sigma^x} |up>
        c_sq *= sx_exp**n
        plan = build_ite_plan_tfim(spec, psi, h).plus
        assert abs(plan.c_total - np.sqrt(c_sq)) < 1e-12

    def test_z_plus_closed_form_both_signs(self):
        n, J, g, h = 6, 1.0, 0.5, 0.1
        psi = product_state(["up"] * n)
        for sign, plan in zip((1, -1), build_ite_plan_tfim(tfim(n, J, g), psi, h)):
            expected = (
                np.exp(-sign * h * J / 4 * (n - 1) / n) * np.sqrt(np.cosh(h * g))
            ) ** n
            assert abs(plan.c_total - expected) < 1e-12

    def test_vector_error_order_h_squared(self):
        n = 6
        spec = tfim(n, 1.0, 0.5)
        psi = product_state(["up"] * n)
        for sign in (1, -1):
            errs = []
            steps = [0.1, 0.05, 0.025]
            for h in steps:
                plan = _ite_plan(build_ite_plan_tfim, spec, psi, h, sign)
                exact = dense_imaginary_step(spec, h, sign, psi)
                errs.append(np.linalg.norm(plan_output(plan, psi) - exact))
            slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
            assert abs(slope - 2.0) < 0.3

    def test_works_for_down_sites(self):
        spec = tfim(4, 1.0, 0.5)
        psi = product_state(["up", "down", "down", "up"])
        h = 0.05
        plan = build_ite_plan_tfim(spec, psi, h).plus
        exact = dense_imaginary_step(spec, h, 1, psi)
        assert np.linalg.norm(plan_output(plan, psi) - exact) < 5e-3

    def test_c_product_bound(self):
        # c(+h) c(-h) >= 1 for the all-up state (cosh factors dominate)
        psi = product_state(["up"] * 5)
        spec = tfim(5, 1.0, 0.5)
        for h in (0.05, 0.1, 0.3):
            plus, minus = build_ite_plan_tfim(spec, psi, h)
            assert plus.c_total * minus.c_total >= 1.0

    def test_rejects_non_basis_state(self):
        psi = product_state(["x+", "up"])
        with pytest.raises(ValueError, match="computational-basis"):
            build_ite_plan_tfim(tfim(2, 1.0, 0.5), psi, 0.1)

    def test_fingerprint_guard(self):
        psi = product_state(["up", "up"])
        other = product_state(["up", "down"])
        plan = build_ite_plan_tfim(tfim(2, 1.0, 0.5), psi, 0.1).plus
        with pytest.raises(ValueError, match="different state"):
            apply_ite(plan, other)

    def test_guard_rejects_other_qubit_count(self):
        plan = build_ite_plan_tfim(tfim(2, 1.0, 0.5), product_state(["up"] * 2), 0.1).plus
        with pytest.raises(ValueError, match="different state"):
            apply_ite(plan, product_state(["up"] * 3))


class TestGeneralPlan:
    def test_h_zero(self):
        psi = product_state(["x+", "up", "y-"])
        pair = build_ite_plan_general(tfim(3, 1.0, 0.5), psi, 0.0)
        assert pair.plus.c_total == pair.minus.c_total == 1.0
        assert not pair.gates

    def test_single_term_constant(self):
        # H = S^x on one site, psi = |up>, h = 0.1:
        # c = sqrt(<up| e^{2h S^x} |up>) = sqrt(cosh(0.1))
        spec = HamiltonianSpec(1, (LocalTerm((0,), SIGMA_X / 2),))
        psi = product_state(["up"])
        plan = build_ite_plan_general(spec, psi, 0.1).plus
        assert abs(plan.c_total - np.sqrt(np.cosh(0.1))) < 1e-12

    def test_matches_tfim_plan_to_h_squared(self):
        # the two constructions may not differ by more than O(h^2); on the
        # all-up state they actually agree to O(h^3) (the closed-form angle
        # arctan tanh(hg/2) and the generator angle hg/2 share two orders),
        # so the fitted exponent is bounded below rather than pinned
        n = 5
        spec = tfim(n, 1.0, 0.5)
        psi = product_state(["up"] * n)
        dists = []
        steps = [0.1, 0.05, 0.025]
        for h in steps:
            a = apply_ite(build_ite_plan_tfim(spec, psi, h).plus, psi).amplitudes
            b = apply_ite(build_ite_plan_general(spec, psi, h).plus, psi).amplitudes
            phase = np.vdot(a, b)
            phase /= abs(phase)
            dists.append(np.linalg.norm(a * phase - b))
        slope = np.polyfit(np.log(steps), np.log(dists), 1)[0]
        assert slope > 2.0 - 0.3
        assert dists[0] < 10 * steps[0] ** 2

    def test_vector_error_order_h_squared_generic_state(self):
        n = 4
        spec = tfim(n, 0.9, 0.6)
        psi = product_state(["x+", "y+", "up", "x-"])
        errs = []
        steps = [0.1, 0.05, 0.025]
        for h in steps:
            plan = build_ite_plan_general(spec, psi, h).minus
            exact = dense_imaginary_step(spec, h, -1, psi)
            errs.append(np.linalg.norm(plan_output(plan, psi) - exact))
        slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
        assert abs(slope - 2.0) < 0.3

    def test_first_derivative_exactness(self):
        # d/dh of the plan output at h=0 matches d/dh of exp(sign h H) psi,
        # checked by symmetric differences shrinking as h^2
        n = 4
        spec = tfim(n, 1.0, 0.5)
        psi = product_state(["x+", "up", "down", "y-"])
        derivs = []
        for h in (0.05, 0.025):
            plus, minus = (plan_output(plan, psi) for plan in build_ite_plan_general(spec, psi, h))
            fd_plan = (plus - minus) / (2 * h)
            exact_plus = dense_imaginary_step(spec, h, 1, psi)
            exact_minus = dense_imaginary_step(spec, h, -1, psi)
            fd_exact = (exact_plus - exact_minus) / (2 * h)
            derivs.append(np.linalg.norm(fd_plan - fd_exact))
        # both derivative estimates approach H psi; their gap is O(h^2)
        assert derivs[1] < derivs[0] / 2.5

    def test_gate_acts_correctly_on_psi_only(self):
        # the defining relation holds on psi even though the gate is not
        # exp(-h H) globally
        raw = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
        m = (raw + raw.conj().T) / 2
        spec = HamiltonianSpec(2, (LocalTerm((0, 1), m),))
        psi = product_state(["x+", "y-"])
        h = 0.02
        plan = build_ite_plan_general(spec, psi, h).minus
        out = plan_output(plan, psi)
        exact = dense_imaginary_step(spec, h, -1, psi)
        assert np.linalg.norm(out - exact) < 5 * h**2

    def test_rejects_entangled_state(self):
        amps = np.zeros(4, dtype=complex)
        amps[0] = amps[3] = 1 / np.sqrt(2)
        bell = StateVector(2, amps)
        with pytest.raises(ValueError, match="product state"):
            build_ite_plan_general(tfim(2, 1.0, 0.5), bell, 0.1)

    def test_rejects_wide_term(self):
        class FakeTerm:
            support = (0, 1, 2)
            matrix = np.eye(8)

        class FakeSpec:
            n_sites = 3
            terms = (FakeTerm(),)

        psi = product_state(["up"] * 3)
        with pytest.raises(ValueError, match="support larger"):
            build_ite_plan_general(FakeSpec(), psi, 0.1)


class TestLazyCompile:
    @staticmethod
    def _config(backend, **kwargs):
        return ExperimentConfig(
            spec=tfim(4, 1.0, 0.5), psi=product_state(["x+", "up", "y-", "down"]),
            tau=0.05, h=0.05, t_max=0.2, ite_mode="general_bj", backend=backend, **kwargs,
        )

    def test_oracle_backend_compiles_no_ite_layers(self, monkeypatch):
        def refuse(*_args):
            raise RuntimeError("ITE layers compiled")

        monkeypatch.setattr(ite_module, "_compile_stack", refuse)
        trace = run_phase_experiment(self._config("exact_oracle"))
        assert np.all(np.isfinite(trace.phi))

    @pytest.mark.parametrize("backend, gamma, form", [
        ("statevector_trotter", None, "_product_ket"),
        ("noisy", 0.0, "_product_ket"),
        ("noisy", 0.1, "_compile_stack"),
    ])
    def test_backend_builds_one_form_of_both_plans(self, monkeypatch, backend, gamma, form):
        # noiseless circuits grow the ket from the site vectors, circuits
        # where a Pauli can fire between ITE layers run the per-layer
        # compile; neither builds the other form
        calls = {"_product_ket": [], "_compile_stack": []}
        for name, calls_of in calls.items():
            def counted(*args, _original=getattr(ite_module, name), _calls=calls_of):
                _calls.append(args[1])
                return _original(*args)

            monkeypatch.setattr(ite_module, name, counted)
        noise = None if gamma is None else NoiseConfig(gamma=gamma, n_trajectories=2)
        run_phase_experiment(self._config(backend, noise=noise))
        assert len(calls[form]) == 2 and all(stack.supports for stack in calls[form])
        assert all(not other for name, other in calls.items() if name != form)

    #: a product state each ITE construction accepts
    STATES = {"general_bj": ["x+", "up", "y-", "down"], "tfim_closed_form": ["up"] * 4}

    def _mode_config(self, ite_mode, backend, **kwargs):
        return ExperimentConfig(
            spec=tfim(4, 1.0, 0.5), psi=product_state(self.STATES[ite_mode]),
            tau=0.05, h=0.05, t_max=0.2, ite_mode=ite_mode, backend=backend, **kwargs,
        )

    @pytest.mark.parametrize("ite_mode", sorted(STATES))
    def test_oracle_backend_builds_no_ite_gates(self, monkeypatch, ite_mode):
        def refuse(*_args):
            raise RuntimeError("ITE gates built")

        # both stacks go through _stack_in_term_order, the general one also
        # through _exp_gates
        monkeypatch.setattr(ite_module, "_exp_gates", refuse)
        monkeypatch.setattr(ite_module, "_stack_in_term_order", refuse)
        trace = run_phase_experiment(self._mode_config(ite_mode, "exact_oracle"))
        assert np.all(np.isfinite(trace.phi))

    @pytest.mark.parametrize("ite_mode", sorted(STATES))
    def test_oracle_constants_equal_statevector_plans(self, monkeypatch, ite_mode):
        import loschmidt.reconstruct as reconstruct_module

        name = {"general_bj": "build_ite_plan_general",
                "tfim_closed_form": "build_ite_plan_tfim"}[ite_mode]
        original = getattr(ite_module, name)
        pairs = []

        def kept(*args):
            pairs.append(original(*args))
            return pairs[-1]

        monkeypatch.setattr(reconstruct_module, name, kept)
        run_phase_experiment(self._mode_config(ite_mode, "exact_oracle"))
        run_phase_experiment(self._mode_config(ite_mode, "statevector_trotter"))
        oracle, plans = pairs  # one build per run
        # bit for bit: the constant does not depend on whether gates are built
        assert [p.log_c_total for p in oracle] == [p.log_c_total for p in plans]
        assert oracle.plus.log_c_total != oracle.minus.log_c_total
        assert all("gate_stack" not in vars(p) for p in oracle)
        assert all("gate_stack" in vars(p) and p.gate_stack.supports for p in plans)

    @pytest.mark.parametrize("ite_mode", sorted(STATES))
    @pytest.mark.parametrize("backend, gamma", [
        ("exact_oracle", None), ("statevector_trotter", None), ("noisy", 0.0), ("noisy", 0.1),
    ])
    def test_state_factored_once_per_run(self, monkeypatch, ite_mode, backend, gamma):
        calls = []

        def counted(psi, _original=ite_module._site_vectors):
            calls.append(psi)
            return _original(psi)

        monkeypatch.setattr(ite_module, "_site_vectors", counted)
        noise = None if gamma is None else NoiseConfig(gamma=gamma, n_trajectories=2)
        config = self._mode_config(ite_mode, backend, noise=noise)
        run_phase_experiment(config)
        assert calls == [config.psi]

    def test_compiled_once_per_plan(self):
        psi = product_state(["x+", "up", "y-"])
        plan = build_ite_plan_general(tfim(3, 1.0, 0.5), psi, 0.1).plus
        assert plan.compiled is plan.compiled
