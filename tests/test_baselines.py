"""Tests for the Hadamard-test and interferometry baselines and cost laws."""

import numpy as np
import pytest

from loschmidt.baselines import (
    CostInput,
    hadamard_test,
    resource_cost,
    sequential_interferometry,
)
from loschmidt.exceptions import NumericsError
from loschmidt.model import exact_amplitude, tfim
from loschmidt.statevector import product_state

RNG = np.random.default_rng(4242)


class TestHadamardTest:
    def test_t_zero_real_is_one(self):
        spec = tfim(3, 1.0, 0.5)
        psi = product_state(["up"] * 3)
        # p0 = 1 exactly: no sampling spread even with shots
        est = hadamard_test(spec, psi, 0.0, 0.1, 2, "real",
                            shots=100, rng=np.random.default_rng(0))
        assert est == 1.0

    def test_t_zero_imag_is_zero(self):
        spec = tfim(3, 1.0, 0.5)
        psi = product_state(["up"] * 3)
        assert abs(hadamard_test(spec, psi, 0.0, 0.1, 2, "imag")) < 1e-12
        shots = 4000
        est = hadamard_test(spec, psi, 0.0, 0.1, 2, "imag",
                            shots=shots, rng=np.random.default_rng(1))
        assert abs(est) < 3 / np.sqrt(shots) * 2

    def test_exact_mode_matches_oracle(self):
        spec = tfim(4, 1.0, 0.5)
        psi = product_state(["up"] * 4)
        g = exact_amplitude(spec, psi, psi, 1.0)
        for part, ref in (("real", g.real), ("imag", g.imag)):
            est = hadamard_test(spec, psi, 1.0, 0.01, 2, part)
            assert abs(est - ref) < 1e-3

    def test_sampled_mode_converges(self):
        spec = tfim(3, 1.0, 0.5)
        psi = product_state(["up"] * 3)
        exact = hadamard_test(spec, psi, 0.7, 0.01, 2, "real")
        shots = 20000
        est = hadamard_test(spec, psi, 0.7, 0.01, 2, "real",
                            shots=shots, rng=np.random.default_rng(7))
        assert abs(est - exact) < 3 * 2 / np.sqrt(shots)

    def test_invalid_part(self):
        with pytest.raises(ValueError):
            hadamard_test(tfim(2, 1, 0.5), product_state(["up"] * 2),
                          0.1, 0.1, 2, "abs")


def test_shots_without_an_rng_are_refused():
    # shots are drawn from the caller's generator, never an unseeded one
    spec = tfim(2, 1.0, 0.5)
    chain = [product_state(["up", "up"]), product_state(["down", "up"])]
    with pytest.raises(ValueError, match="rng"):
        hadamard_test(spec, chain[0], 0.1, 0.1, 2, "real", shots=100)
    with pytest.raises(ValueError, match="rng"):
        sequential_interferometry(spec, chain, 0.1, 0.1, shots=100)
    # exact calls need none
    assert abs(hadamard_test(spec, chain[0], 0.0, 0.1, 2, "real") - 1.0) < 1e-12
    sequential_interferometry(spec, chain, 0.1, 0.1)


class TestSequentialInterferometry:
    def test_empty_chain_returns_anchor(self):
        spec = tfim(3, 1.0, 0.5)
        psi = product_state(["up"] * 3)
        res = sequential_interferometry(spec, [psi], 1.0, 0.05, anchor_phase=0.37)
        assert res.phase == 0.37
        assert res.step_phases == []

    def test_t_zero_all_phases_zero(self):
        spec = tfim(3, 1.0, 0.5)
        chain = [
            product_state(["up", "up", "up"]),
            product_state(["down", "up", "up"]),
            product_state(["down", "down", "up"]),
        ]
        res = sequential_interferometry(spec, chain, 0.0, 0.05, anchor_phase=0.0)
        assert abs(res.phase) < 1e-9

    def test_two_flip_chain_matches_oracle(self):
        spec = tfim(4, 1.0, 0.5)
        chain = [
            product_state(["up"] * 4),
            product_state(["down", "up", "up", "up"]),
            product_state(["down", "down", "up", "up"]),
        ]
        anchor = float(np.angle(exact_amplitude(spec, chain[0], chain[0], 1.0)))
        res = sequential_interferometry(spec, chain, 1.0, 0.01, anchor_phase=anchor)
        target = np.angle(exact_amplitude(spec, chain[-1], chain[-1], 1.0))
        diff = (res.phase - target + np.pi) % (2 * np.pi) - np.pi
        assert abs(diff) < 1e-3
        assert res.fallback_steps == []
        assert res.i_tilde > 0

    def test_agrees_with_phase_pipeline(self):
        # method cross-check: the interferometry phase of a flipped state
        # matches the primary reconstruction run on that state
        from loschmidt.config import ExperimentConfig
        from loschmidt.reconstruct import run_phase_experiment

        spec = tfim(4, 1.0, 0.5)
        chain = [product_state(["up"] * 4), product_state(["down", "up", "up", "up"])]
        anchor = float(np.angle(exact_amplitude(spec, chain[0], chain[0], 1.0)))
        res = sequential_interferometry(spec, chain, 1.0, 0.01, anchor_phase=anchor)
        cfg = ExperimentConfig(spec=spec, psi=chain[1], tau=0.01, h=0.01, t_max=1.0)
        trace = run_phase_experiment(cfg)
        diff = (res.phase - trace.phi[-1] + np.pi) % (2 * np.pi) - np.pi
        assert abs(diff) < 2e-3

    def test_fallback_branch(self):
        # at short times the single-flip cross amplitude is genuinely tiny,
        # so the pair is linked by the direct superposition interference
        spec = tfim(4, 1.0, 0.5)
        chain = [
            product_state(["up"] * 4),
            product_state(["down", "up", "up", "up"]),
        ]
        t = 0.2
        anchor = float(np.angle(exact_amplitude(spec, chain[0], chain[0], t)))
        res = sequential_interferometry(
            spec, chain, t, 0.01, anchor_phase=anchor, fallback_threshold=0.1
        )
        assert res.fallback_steps == [0]
        target = np.angle(exact_amplitude(spec, chain[-1], chain[-1], t))
        diff = (res.phase - target + np.pi) % (2 * np.pi) - np.pi
        # fallback neglects the cross amplitude: systematic O(r_ij) error
        assert abs(diff) < 0.2

    def test_unresolvable_step(self):
        spec = tfim(2, 1.0, 0.5)
        chain = [product_state(["up", "up"]), product_state(["down", "down"])]
        with pytest.raises(NumericsError, match="unresolvable"):
            sequential_interferometry(
                spec, chain, 1.0, 0.05, fallback_threshold=1.1
            )

    def test_nonorthogonal_rejected(self):
        spec = tfim(2, 1.0, 0.5)
        chain = [product_state(["up", "up"]), product_state(["x+", "up"])]
        with pytest.raises(ValueError, match="orthogonal"):
            sequential_interferometry(spec, chain, 0.5, 0.05)


class TestResourceCost:
    def test_depth_ratio_n_doubling(self):
        # hadamard / this_work depth ratio gains 2^(1 + 1/d) per N doubling
        for d in (1, 2):
            ratios = []
            for n in (8, 16):
                h = resource_cost(CostInput("hadamard", n, 4.0, 0.01, 2, d)).depth
                w = resource_cost(CostInput("this_work", n, 4.0, 0.01, 2, d)).depth
                ratios.append(h / w)
            assert abs(ratios[1] / ratios[0] - 2 ** (1 + 1 / d)) < 1e-12

    def test_epsilon_scaling_of_depth(self):
        # epsilon -> epsilon / 2^p doubles every depth
        for method in ("hadamard", "sequential", "this_work"):
            for p in (1, 2, 4):
                a = resource_cost(CostInput(method, 10, 3.0, 0.01, p)).depth
                b = resource_cost(CostInput(method, 10, 3.0, 0.01 / 2**p, p)).depth
                assert abs(b / a - 2.0) < 1e-12

    def test_this_work_measurement_cube_law(self):
        a = resource_cost(CostInput("this_work", 10, 3.0, 0.02)).measurements
        b = resource_cost(CostInput("this_work", 10, 3.0, 0.01)).measurements
        assert abs(b / a - 8.0) < 1e-12

    def test_monotone_in_n_t_inverse_epsilon(self):
        for _ in range(1000):
            method = ("hadamard", "sequential", "this_work")[int(RNG.integers(3))]
            n = int(RNG.integers(2, 200))
            t = float(RNG.uniform(0.1, 50))
            eps = float(RNG.uniform(1e-4, 0.5))
            p = (1, 2, 4)[int(RNG.integers(3))]
            d = int(RNG.integers(1, 4))
            base = CostInput(method, n, t, eps, p, d)
            a = resource_cost(base)
            bigger_n = resource_cost(CostInput(method, n + 5, t, eps, p, d))
            bigger_t = resource_cost(CostInput(method, n, t * 1.5, eps, p, d))
            smaller_eps = resource_cost(CostInput(method, n, t, eps / 2, p, d))
            for other in (bigger_n, bigger_t, smaller_eps):
                assert other.depth >= a.depth - 1e-12
                assert other.measurements >= a.measurements - 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            CostInput("magic", 4, 1.0, 0.1)
        with pytest.raises(ValueError):
            CostInput("hadamard", 4, 1.0, -0.1)
        # what the scaling laws cannot take: a negative size or time gave a
        # TypeError (a complex power) or a negative depth or count, and a
        # nan factor a nan count
        for method in ("hadamard", "sequential", "this_work"):
            for field, value in (("n_sites", -4), ("n_sites", 0), ("n_sites", 2.5),
                                 ("t", -1.0), ("r", -1.0), ("i_factor", float("nan")),
                                 ("i_factor", float("inf")), ("epsilon", float("nan")),
                                 ("order", 2.0), ("dimension", 0), ("n_sites", True)):
                kwargs = dict(method=method, n_sites=8, t=1.0, epsilon=0.01)
                kwargs[field] = value
                with pytest.raises(ValueError, match=f"^{field} must be"):
                    resource_cost(CostInput(**kwargs))
