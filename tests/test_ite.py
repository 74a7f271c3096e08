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

RNG = np.random.default_rng(99)


def dense_imaginary_step(spec, h, sign, psi):
    mat = dense_matrix(spec)
    evals, evecs = np.linalg.eigh(mat)
    prop = (evecs * np.exp(sign * h * evals)) @ evecs.conj().T
    return prop @ psi.amplitudes


def pair_outputs(pair, psi):
    """c+ V+ psi and c- V- psi."""
    return [np.exp(log_c) * out.amplitudes for log_c, out in zip(pair.log_c, apply_ite(pair, psi))]


def plan_output(pair, psi, sign):
    """c V psi of exp(sign*h*H) out of the pair."""
    return pair_outputs(pair, psi)[0 if sign == 1 else 1]


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
        assert pair.log_c == (0.0, 0.0)
        assert not pair.gates
        for out in apply_ite(pair, psi):
            assert np.allclose(out.amplitudes, psi.amplitudes)

    def test_c_total_closed_form(self):
        # N=2, J=1, g=0.5, h=0.1, sign=+: exp(-0.025) * cosh(0.05)
        psi = product_state(["up", "up"])
        c_plus = np.exp(build_ite_plan_tfim(tfim(2, 1.0, 0.5), psi, 0.1).log_c[0])
        assert abs(c_plus - np.exp(-0.025) * np.cosh(0.05)) < 1e-12
        assert abs(c_plus - 0.9765293034264908) < 1e-10

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
        c_plus = np.exp(build_ite_plan_tfim(spec, psi, h).log_c[0])
        assert abs(c_plus - np.sqrt(c_sq)) < 1e-12

    def test_z_plus_closed_form_both_signs(self):
        n, J, g, h = 6, 1.0, 0.5, 0.1
        psi = product_state(["up"] * n)
        for sign, log_c in zip((1, -1), build_ite_plan_tfim(tfim(n, J, g), psi, h).log_c):
            expected = (
                np.exp(-sign * h * J / 4 * (n - 1) / n) * np.sqrt(np.cosh(h * g))
            ) ** n
            assert abs(np.exp(log_c) - expected) < 1e-12

    def test_vector_error_order_h_squared(self):
        n = 6
        spec = tfim(n, 1.0, 0.5)
        psi = product_state(["up"] * n)
        for sign in (1, -1):
            errs = []
            steps = [0.1, 0.05, 0.025]
            for h in steps:
                pair = build_ite_plan_tfim(spec, psi, h)
                exact = dense_imaginary_step(spec, h, sign, psi)
                errs.append(np.linalg.norm(plan_output(pair, psi, sign) - exact))
            slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
            assert abs(slope - 2.0) < 0.3

    def test_works_for_down_sites(self):
        spec = tfim(4, 1.0, 0.5)
        psi = product_state(["up", "down", "down", "up"])
        h = 0.05
        pair = build_ite_plan_tfim(spec, psi, h)
        exact = dense_imaginary_step(spec, h, 1, psi)
        assert np.linalg.norm(plan_output(pair, psi, 1) - exact) < 5e-3

    def test_c_product_bound(self):
        # c(+h) c(-h) >= 1 for the all-up state (cosh factors dominate)
        psi = product_state(["up"] * 5)
        spec = tfim(5, 1.0, 0.5)
        for h in (0.05, 0.1, 0.3):
            log_plus, log_minus = build_ite_plan_tfim(spec, psi, h).log_c
            assert np.exp(log_plus) * np.exp(log_minus) >= 1.0

    def test_rejects_non_basis_state(self):
        psi = product_state(["x+", "up"])
        with pytest.raises(ValueError, match="computational-basis"):
            build_ite_plan_tfim(tfim(2, 1.0, 0.5), psi, 0.1)

    def test_fingerprint_guard(self):
        psi = product_state(["up", "up"])
        other = product_state(["up", "down"])
        pair = build_ite_plan_tfim(tfim(2, 1.0, 0.5), psi, 0.1)
        with pytest.raises(ValueError, match="different state"):
            apply_ite(pair, other)

    def test_guard_rejects_other_qubit_count(self):
        pair = build_ite_plan_tfim(tfim(2, 1.0, 0.5), product_state(["up"] * 2), 0.1)
        with pytest.raises(ValueError, match="different state"):
            apply_ite(pair, product_state(["up"] * 3))


class TestGeneralPlan:
    def test_h_zero(self):
        psi = product_state(["x+", "up", "y-"])
        pair = build_ite_plan_general(tfim(3, 1.0, 0.5), psi, 0.0)
        assert pair.log_c == (0.0, 0.0)
        assert not pair.gates

    def test_single_term_constant(self):
        # H = S^x on one site, psi = |up>, h = 0.1:
        # c = sqrt(<up| e^{2h S^x} |up>) = sqrt(cosh(0.1))
        spec = HamiltonianSpec(1, (LocalTerm((0,), SIGMA_X / 2),))
        psi = product_state(["up"])
        c_plus = np.exp(build_ite_plan_general(spec, psi, 0.1).log_c[0])
        assert abs(c_plus - np.sqrt(np.cosh(0.1))) < 1e-12

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
            a = apply_ite(build_ite_plan_tfim(spec, psi, h), psi)[0].amplitudes
            b = apply_ite(build_ite_plan_general(spec, psi, h), psi)[0].amplitudes
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
            pair = build_ite_plan_general(spec, psi, h)
            exact = dense_imaginary_step(spec, h, -1, psi)
            errs.append(np.linalg.norm(plan_output(pair, psi, -1) - exact))
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
            plus, minus = pair_outputs(build_ite_plan_general(spec, psi, h), psi)
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
        out = plan_output(build_ite_plan_general(spec, psi, h), psi, -1)
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
        # noiseless circuits grow the kets from the site vectors, circuits
        # where a Pauli can fire between ITE layers run the per-layer
        # compile; neither builds the other form
        calls = {"_product_ket": [], "_compile_stack": []}
        for name, calls_of in calls.items():
            def counted(*args, _original=getattr(ite_module, name), _calls=calls_of):
                _calls.append(args)
                return _original(*args)

            monkeypatch.setattr(ite_module, name, counted)
        noise = None if gamma is None else NoiseConfig(gamma=gamma, n_trajectories=2)
        run_phase_experiment(self._config(backend, noise=noise))
        assert len(calls[form]) == 2 and all(args[1].supports for args in calls[form])
        assert all(not other for name, other in calls.items() if name != form)
        # both signs' stacks on one support tuple, with one block schedule
        # (kets) or one layer index (compile)
        (_, plus, plus_order), (_, minus, minus_order) = calls[form]
        assert plus.supports is minus.supports and plus_order is minus_order
        assert not any(np.array_equal(a, b) for a, b in zip(plus.matrices, minus.matrices))

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
        # bit for bit: the constants do not depend on whether gates are built
        assert oracle.log_c == plans.log_c
        assert oracle.log_c[0] != oracle.log_c[1]
        assert "stacks" not in vars(oracle)
        assert "stacks" in vars(plans) and plans.supports

    @pytest.mark.parametrize("ite_mode", sorted(STATES))
    @pytest.mark.parametrize("backend, gamma", [
        ("exact_oracle", None), ("statevector_trotter", None), ("noisy", 0.0), ("noisy", 0.1),
    ])
    def test_state_factored_once_per_run(self, monkeypatch, ite_mode, backend, gamma):
        # the sign-independent work of the two ITE circuits runs once: the
        # factorisation, the generators' eigh per support width (general
        # form), the block schedule of the grown kets (noiseless) and the
        # layer index (gamma > 0)
        calls = {name: [] for name in
                 ("_site_vectors", "_exp_gates", "_block_schedule", "_layer_index")}
        for name, calls_of in calls.items():
            def counted(*args, _original=getattr(ite_module, name), _calls=calls_of, **kwargs):
                _calls.append(args)
                return _original(*args, **kwargs)

            monkeypatch.setattr(ite_module, name, counted)
        noise = None if gamma is None else NoiseConfig(gamma=gamma, n_trajectories=2)
        config = self._mode_config(ite_mode, backend, noise=noise)
        run_phase_experiment(config)
        assert calls["_site_vectors"] == [(config.psi,)]
        gates = backend != "exact_oracle"
        widths = {len(term.support) for term in config.spec.terms}
        assert len(calls["_exp_gates"]) == (len(widths) if gates and ite_mode == "general_bj" else 0)
        assert len(calls["_block_schedule"]) == (1 if gates and not gamma else 0)
        assert len(calls["_layer_index"]) == (1 if gamma else 0)

    def test_compiled_once_per_plan(self):
        psi = product_state(["x+", "up", "y-"])
        pair = build_ite_plan_general(tfim(3, 1.0, 0.5), psi, 0.1)
        assert pair.compiled is pair.compiled
