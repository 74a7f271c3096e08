"""Oracle-differential properties of compiled plans on random adjacent terms.

Random chains of N <= 8 sites carry Hermitian 1- and 2-site terms in custom
groups, with reversed supports and both diagonal and dense matrices.  The
compiled kernels are checked against dense products of ``_embed``-ed gate
matrices, folded diagonal layers against their gates applied one by one,
the plan census against an independent statement of the step layout, the
batched ITE plan builders against a term-by-term construction, and the
baselines against circuits that evolve every state they interfere.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loschmidt.noise as noise_module
from loschmidt.baselines import _solve_two_angle, hadamard_test, sequential_interferometry
from loschmidt.config import ExperimentConfig
from loschmidt.ite import apply_ite, build_ite_plan_general, build_ite_plan_tfim, ite_angle
from loschmidt.model import HamiltonianSpec, LocalTerm, _embed, tfim
from loschmidt.noise import NoiseConfig
from loschmidt.reconstruct import run_phase_experiment
from loschmidt.statevector import (
    LocalGate,
    PhaseOp,
    StateVector,
    apply_gate,
    apply_layer,
    apply_matrix,
    basis_state,
    compile_layers,
    pack_layers,
    product_state,
)
from loschmidt.trotter import _SUZUKI_A, build_plan, evolve

PROPERTY = settings(max_examples=40, deadline=None, database=None, derandomize=True)
SEEDS = st.integers(0, 2**32 - 1)


def _exp_gate(matrix, theta):
    """exp(-i theta M) of one Hermitian matrix (reference for the batched
    builders)."""
    energies, vectors = np.linalg.eigh(matrix)
    return (vectors * np.exp(-1j * theta * energies)) @ vectors.conj().T


def _is_identity(matrix):
    return bool(np.max(np.abs(matrix - np.eye(matrix.shape[0]))) < 1e-12)


def _unit(vec):
    return vec / np.linalg.norm(vec)


def _random_hermitian(rng, dim, diagonal):
    if diagonal:
        return np.diag(rng.normal(size=dim)).astype(complex)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


@st.composite
def chains(draw, max_sites=8):
    """A random adjacent Hamiltonian on 2..max_sites sites."""
    n = draw(st.integers(2, max_sites))
    rng = np.random.default_rng(draw(SEEDS))
    terms = []
    for _ in range(draw(st.integers(1, 2 * n))):
        width = draw(st.sampled_from([1, 2]))
        lo = draw(st.integers(0, n - width))
        support = tuple(range(lo, lo + width))
        if width == 2 and draw(st.booleans()):
            support = support[::-1]
        mat = _random_hermitian(rng, 2**width, draw(st.booleans()))
        terms.append(LocalTerm(support, mat, draw(st.sampled_from("abc"))))
    return HamiltonianSpec(n, tuple(terms))


def _random_state(rng, n, product):
    if product:
        return product_state([_unit(rng.normal(size=2) + 1j * rng.normal(size=2))
                              for _ in range(n)])
    return StateVector(n, _unit(rng.normal(size=2**n) + 1j * rng.normal(size=2**n)))


@st.composite
def chain_and_state(draw, product=None, max_sites=8):
    spec = draw(chains(max_sites))
    if product is None:
        product = draw(st.booleans())
    rng = np.random.default_rng(draw(SEEDS))
    return spec, _random_state(rng, spec.n_sites, product)


@st.composite
def product_states(draw, n):
    """Product states mixing basis sites (exact-zero components, some with a
    phase) and random complex sites."""
    rng = np.random.default_rng(draw(SEEDS))
    sites = []
    for kind in draw(st.lists(st.sampled_from(["up", "down", "up~", "down~", "complex"]),
                              min_size=n, max_size=n)):
        phase = np.exp(2j * np.pi * rng.uniform())
        if kind in ("up", "down"):
            sites.append(kind)
        elif kind == "up~":
            sites.append([phase, 0.0])
        elif kind == "down~":
            sites.append([0.0, phase])
        else:
            sites.append(_unit(rng.normal(size=2) + 1j * rng.normal(size=2)))
    return product_state(sites)


@st.composite
def chain_and_product_state(draw):
    spec = draw(chains())
    return spec, draw(product_states(spec.n_sites))


@st.composite
def disjoint_layers(draw, diagonal=None):
    """(n, gates) with pairwise-disjoint adjacent supports, some reversed."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(SEEDS))
    gates, site = [], 0
    while site < n:
        width = draw(st.integers(0, min(2, n - site)))
        if width == 0:
            site += 1
            continue
        support = tuple(range(site, site + width))
        if width == 2 and draw(st.booleans()):
            support = support[::-1]
        is_diag = draw(st.booleans()) if diagonal is None else diagonal
        herm = _random_hermitian(rng, 2**width, is_diag)
        gates.append(LocalGate(support, _exp_gate(herm, float(rng.uniform(0.1, 2.0)))))
        site += width
    return n, gates


def _embedded_product(layers, n, state):
    amps = state.amplitudes
    for layer in layers:
        for gate in layer:
            amps = _embed(SimpleNamespace(support=gate.support, matrix=gate.matrix), n) @ amps
    return amps


def reference_step_layers(spec, dt, order):
    """Independent statement of one step's layout: the group brickworks in
    order (order 1), A/2 B A/2 split at the last group (order 2), and
    U2(a dt)^2 U2((1-4a) dt) U2(a dt)^2 (order 4)."""

    def group(label, t):
        gates = [LocalGate(term.support, _exp_gate(term.matrix, t))
                 for term in spec.terms if term.group == label]
        return pack_layers([g for g in gates if not _is_identity(g.matrix)])

    labels = spec.group_labels()
    if order == 1:
        return [layer for label in labels for layer in group(label, dt)]
    if order == 2:
        if len(labels) == 1:
            return group(labels[0], dt)
        head = [layer for label in labels[:-1] for layer in group(label, dt / 2)]
        return head + group(labels[-1], dt) + head[::-1]
    outer = reference_step_layers(spec, _SUZUKI_A * dt, 2)
    inner = reference_step_layers(spec, (1 - 4 * _SUZUKI_A) * dt, 2)
    return outer * 2 + inner + outer * 2


def reference_ite_plan(spec, psi, h, sign):
    """The term-by-term general ITE construction: site vectors from each
    site's reduced density matrix, then per term one dense exponential for
    c^2 and one for the gate.  Returns ([(support, gate)], log_c_total)."""
    n = psi.n_qubits
    tensor = psi.amplitudes.reshape([2] * n)
    vecs = []
    for site in range(n):
        mat = np.moveaxis(tensor, n - 1 - site, 0).reshape(2, -1)
        evals, evecs = np.linalg.eigh(mat @ mat.conj().T)
        assert evals[0] <= 1e-10
        vecs.append(evecs[:, 1])
    log_c, gates = 0.0, []
    for term in spec.terms:
        phi = vecs[term.support[0]]
        for s in term.support[1:]:
            phi = np.kron(vecs[s], phi)
        mat = term.matrix
        evals, evecs = np.linalg.eigh(sign * 2.0 * h * mat)
        c_sq = np.vdot(phi, (evecs * np.exp(evals)) @ evecs.conj().T @ phi).real
        log_c += 0.5 * np.log(c_sq)
        mean = np.vdot(phi, mat @ phi).real
        v = 1j * (mat @ phi - mean * phi)
        gate = _exp_gate(np.outer(v, phi.conj()) + np.outer(phi, v.conj()), sign * h)
        if not _is_identity(gate):
            gates.append((term.support, gate))
    return gates, log_c


def _embedded_pair(n, lo, pair, rng):
    """An n-site state with the 4-vector ``pair`` on sites lo, lo+1 and
    random single-site factors elsewhere."""
    amps = np.ones(1, dtype=complex)
    for site in range(n):
        if site == lo:
            amps = np.kron(pair, amps)
        elif site != lo + 1:
            amps = np.kron(_unit(rng.normal(size=2) + 1j * rng.normal(size=2)), amps)
    return StateVector(n, amps)


def _non_product_states():
    rng = np.random.default_rng(5)
    ghz = np.zeros(16, dtype=complex)
    ghz[[0, 15]] = 1 / np.sqrt(2)
    w = np.zeros(16, dtype=complex)
    w[[1, 2, 4, 8]] = 0.5
    product = product_state([_unit(rng.normal(size=2) + 1j * rng.normal(size=2)) for _ in range(4)])
    return {
        "bell": _embedded_pair(5, 2, np.array([1, 0, 0, 1]) / np.sqrt(2), rng),
        "ghz": StateVector(4, ghz),
        "w": StateVector(4, w),
        "unnormalized": StateVector(4, 1.5 * product.amplitudes),
        "unnormalized_basis": StateVector(4, 1.5 * basis_state(4, 6).amplitudes),
    }


class TestItePlanBuilders:
    @PROPERTY
    @given(case=chain_and_product_state(), sign=st.sampled_from([1, -1]),
           h=st.sampled_from([0.02, 0.3]))
    def test_general_plan_matches_term_by_term_construction(self, case, sign, h):
        spec, psi = case
        plan = build_ite_plan_general(spec, psi, h, sign)
        ref_gates, ref_log_c = reference_ite_plan(spec, psi, h, sign)
        assert [g.support for g in plan.gates] == [support for support, _ in ref_gates]
        for gate, (_, ref) in zip(plan.gates, ref_gates):
            assert np.max(np.abs(gate.matrix - ref)) < 1e-12
        assert abs(plan.log_c_total - ref_log_c) < 1e-12

    @PROPERTY
    @given(n=st.integers(2, 8), seed=SEEDS, sign=st.sampled_from([1, -1]))
    def test_tfim_plan_reads_bits_of_phased_basis_state(self, n, seed, sign):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=n)
        phases = np.exp(2j * np.pi * rng.uniform(size=n))
        psi = product_state([[p, 0.0] if b == 0 else [0.0, p] for b, p in zip(bits, phases)])
        index = int(np.argmax(np.abs(psi.amplitudes)))
        assert index == sum(int(b) << i for i, b in enumerate(bits))
        g = float(rng.uniform(0.2, 1.5))
        spec = tfim(n, float(rng.uniform(0.5, 1.5)), g)
        plan = build_ite_plan_tfim(spec, psi, 0.1, sign)
        # each field gate turns its site's basis vector towards the flipped one
        theta = sign * ite_angle(0.1, g)
        assert len(plan.gates) == n
        for gate in plan.gates:
            (site,) = gate.support
            column = gate.matrix[:, bits[site]]
            assert abs(column[bits[site]] - np.cos(theta)) < 1e-12
            assert abs(column[1 - bits[site]] - np.sin(theta)) < 1e-12
        ref = build_ite_plan_tfim(spec, basis_state(n, index), 0.1, sign)
        assert plan.log_c_total == ref.log_c_total
        assert [g.support for g in plan.gates] == [g.support for g in ref.gates]
        assert all(np.array_equal(g.matrix, r.matrix) for g, r in zip(plan.gates, ref.gates))

    @pytest.mark.parametrize("builder", [build_ite_plan_general, build_ite_plan_tfim])
    @pytest.mark.parametrize("kind", sorted(_non_product_states()))
    def test_rejects_non_product_input(self, builder, kind):
        psi = _non_product_states()[kind]
        with pytest.raises(ValueError, match="product state"):
            builder(tfim(psi.n_qubits, 1.0, 0.5), psi, 0.1, 1)

    @PROPERTY
    @given(case=chain_and_product_state(), phase=st.floats(0.0, 2 * np.pi))
    def test_apply_ite_accepts_state_and_global_phase_copy(self, case, phase):
        spec, psi = case
        plan = build_ite_plan_general(spec, psi, 0.05, -1)
        out = apply_ite(plan, psi).amplitudes
        turn = np.exp(1j * phase)
        rotated = apply_ite(plan, StateVector(psi.n_qubits, turn * psi.amplitudes)).amplitudes
        assert np.max(np.abs(rotated - turn * out)) < 1e-12


class TestCompiledKernel:
    @PROPERTY
    @given(case=chain_and_state(), order=st.sampled_from([1, 2, 4]),
           tau=st.sampled_from([0.05, 0.3]), steps=st.integers(1, 2))
    def test_evolve_matches_embedded_gate_product(self, case, order, tau, steps):
        spec, psi = case
        plan = build_plan(spec, steps * tau, tau, order)
        expected = _embedded_product(plan.step_layers * steps, spec.n_sites, psi)
        out = evolve(psi, plan)
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-12

    @staticmethod
    def _check_against_gates(n, gates, compiled, seed, product):
        state = _random_state(np.random.default_rng(seed), n, product)
        expected = state
        for gate in gates:
            expected = apply_gate(expected, gate)
        out = apply_layer(state, compiled)
        assert np.max(np.abs(out.amplitudes - expected.amplitudes)) < 1e-12

    @PROPERTY
    @given(layer=disjoint_layers(), seed=SEEDS, product=st.booleans())
    def test_compiled_layer_equals_gates_one_by_one(self, layer, seed, product):
        n, gates = layer
        (compiled,) = compile_layers(n, [gates])
        self._check_against_gates(n, gates, compiled, seed, product)

    @PROPERTY
    @given(layer=disjoint_layers(diagonal=True), seed=SEEDS, product=st.booleans())
    def test_folded_diagonal_layer_equals_gates_one_by_one(self, layer, seed, product):
        n, gates = layer
        (compiled,) = compile_layers(n, [gates])
        if gates:
            assert len(compiled) == 1 and isinstance(compiled[0], PhaseOp)
        self._check_against_gates(n, gates, compiled, seed, product)

    @PROPERTY
    @given(case=chain_and_state(product=True), sign=st.sampled_from([1, -1]))
    def test_ite_plan_matches_embedded_gate_product(self, case, sign):
        spec, psi = case
        plan = build_ite_plan_general(spec, psi, 0.05, sign)
        assert len(plan.compiled) == plan.n_layers
        expected = _embedded_product(plan.layers, spec.n_sites, psi)
        out = apply_ite(plan, psi)
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-12

    def test_non_adjacent_gate_rejected(self):
        with pytest.raises(ValueError, match="adjacent"):
            compile_layers(4, [[LocalGate((0, 2), np.eye(4))]])


class TestPlanCensus:
    @PROPERTY
    @given(spec=chains(), order=st.sampled_from([1, 2, 4]))
    def test_step_layers_match_reference_layout(self, spec, order):
        plan = build_plan(spec, 0.1, 0.1, order)
        reference = reference_step_layers(spec, 0.1, order)
        assert plan.layers_per_step == len(reference) == len(plan.compiled)
        for layer, ref in zip(plan.step_layers, reference):
            assert [g.support for g in layer] == [g.support for g in ref]
            assert all(np.array_equal(g.matrix, r.matrix) for g, r in zip(layer, ref))

    @pytest.mark.parametrize("order, layers_per_step", [(1, 3), (2, 5), (4, 25)])
    def test_mirrored_tail_shares_phase_vectors(self, order, layers_per_step):
        plan = build_plan(tfim(6, 1.0, 0.5), 0.1, 0.1, order)
        assert plan.layers_per_step == len(plan.compiled) == layers_per_step
        phases = {id(op.phase) for layer in plan.compiled for op in layer
                  if isinstance(op, PhaseOp)}
        # two zz brickwork layers per distinct step; Suzuki has two such steps
        assert len(phases) == {1: 2, 2: 2, 4: 4}[order]

    @pytest.mark.parametrize("order", [1, 2, 4])
    def test_noise_draws_once_per_physical_layer(self, monkeypatch, order):
        # every trajectory draws its Paulis once per circuit, one noise
        # round per physical layer
        calls = []
        original = noise_module._draw_errors

        def counted(rng, n_layers, n_qubits, gamma):
            calls.extend([1] * n_layers)
            return original(rng, n_layers, n_qubits, gamma)

        monkeypatch.setattr(noise_module, "_draw_errors", counted)
        spec, psi = tfim(3, 1.0, 0.5), product_state(["up"] * 3)
        n_traj, tau, t_max = 2, 0.1, 0.2
        run_phase_experiment(ExperimentConfig(
            spec=spec, psi=psi, tau=tau, h=0.1, t_max=t_max, order=order,
            backend="noisy", noise=NoiseConfig(gamma=0.1, n_trajectories=n_traj),
        ))
        steps = round(t_max / tau)
        trotter_layers = steps * build_plan(spec, tau, tau, order).layers_per_step
        ite_layers = build_ite_plan_tfim(spec, psi, 0.1, +1).n_layers
        assert len(calls) == n_traj * (3 * trotter_layers + 2 * ite_layers)


_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S_DAGGER = np.diag([1, -1j])


def reference_hadamard_test(spec, psi, t, tau, order, part, shots=None, rng=None):
    """The ancilla circuit on the (N+1)-qubit register, every Trotter gate
    controlled by the ancilla (qubit N) as a 2^(k+1) block matrix."""
    n = spec.n_sites
    full = apply_matrix(StateVector(n + 1, np.kron([1, 0], psi.amplitudes)), _HADAMARD, (n,))
    if part == "imag":
        full = apply_matrix(full, _S_DAGGER, (n,))
    plan = build_plan(spec, t, tau, order)
    for layer in plan.step_layers * plan.n_steps:
        for gate in layer:
            dim = gate.matrix.shape[0]
            controlled = np.eye(2 * dim, dtype=complex)
            controlled[dim:, dim:] = gate.matrix
            full = apply_matrix(full, controlled, (*gate.support, n))
    full = apply_matrix(full, _HADAMARD, (n,))
    p_zero = float(np.sum(np.abs(full.amplitudes[: 2**n]) ** 2))
    if shots is not None:
        p_zero = rng.binomial(shots, min(max(p_zero, 0.0), 1.0)) / shots
    return 2.0 * p_zero - 1.0


def reference_sequential(spec, chain, t, tau, anchor, thetas, threshold, shots=None, rng=None):
    """(phase, step phases) of the interferometry chain, with every
    superposition prepared and evolved as a state of its own."""
    plan = build_plan(spec, t, tau, 2)

    def measure(bra, ket):
        p = abs(np.vdot(bra.amplitudes, ket.amplitudes)) ** 2
        return p if shots is None else rng.binomial(shots, min(max(p, 0.0), 1.0)) / shots

    def superposition(a, b, theta):
        amps = (a.amplitudes + np.exp(1j * theta) * b.amplitudes) / np.sqrt(2)
        return StateVector(spec.n_sites, amps)

    phi, steps = anchor, []
    for a, b in zip(chain, chain[1:]):
        ua, ub = evolve(a, plan), evolve(b, plan)
        r_ii, r_ij, r_jj = (np.sqrt(measure(x, y)) for x, y in ((a, ua), (a, ub), (b, ub)))
        evolved = [evolve(superposition(a, b, th), plan) for th in thetas]
        if r_ij > threshold and min(r_ii, r_jj) > threshold:
            step = 0.0
            for bra, r_own in ((a, r_ii), (b, r_jj)):
                cs = [np.clip((2 * measure(bra, ket) - r_own**2 - r_ij**2) / (2 * r_own * r_ij),
                              -1, 1) for ket in evolved]
                step += _solve_two_angle(cs[0], cs[1], *thetas)
        else:
            bra = superposition(a, b, 0.0)
            cs = [np.clip((4 * measure(bra, ket) - r_ii**2 - r_jj**2) / (2 * r_ii * r_jj), -1, 1)
                  for ket in evolved]
            step = _solve_two_angle(cs[0], cs[1], *thetas)
        steps.append(step)
        phi += step
    return phi, steps


class TestPlanRunners:
    @PROPERTY
    @given(case=chain_and_state(max_sites=6), order=st.sampled_from([1, 2, 4]),
           part=st.sampled_from(["real", "imag"]), tau=st.sampled_from([0.05, 0.3]),
           steps=st.integers(0, 3))
    def test_hadamard_test_matches_controlled_gate_circuit(self, case, order, part, tau, steps):
        spec, psi = case
        args = (spec, psi, steps * tau, tau, order, part)
        assert abs(hadamard_test(*args) - reference_hadamard_test(*args)) < 1e-12

    @PROPERTY
    @given(case=chain_and_state(max_sites=6), part=st.sampled_from(["real", "imag"]),
           seed=SEEDS)
    def test_sampled_hadamard_test_matches_circuit(self, case, part, seed):
        spec, psi = case
        args = (spec, psi, 0.6, 0.2, 2, part, 1000)
        sampled = hadamard_test(*args, np.random.default_rng(seed))
        assert sampled == reference_hadamard_test(*args, np.random.default_rng(seed))

    @pytest.mark.parametrize("t, threshold, n_flips, fallback", [
        # the flip chain of configs/baseline.json
        (1.0, 1e-3, 2, False),
        # the chain of test_baselines.py::test_fallback_branch
        (0.2, 0.1, 1, True),
    ])
    @pytest.mark.parametrize("shots", [None, 10_000])
    def test_sequential_matches_explicit_superpositions(
        self, t, threshold, n_flips, fallback, shots
    ):
        spec = tfim(4, 1.0, 0.5)
        chain = [product_state(["down"] * k + ["up"] * (4 - k)) for k in range(n_flips + 1)]
        thetas = (0.0, np.pi / 2)
        res = sequential_interferometry(
            spec, chain, t, 0.01, anchor_phase=0.3, thetas=thetas, shots=shots,
            rng=np.random.default_rng(11), fallback_threshold=threshold,
        )
        phase, steps = reference_sequential(
            spec, chain, t, 0.01, 0.3, thetas, threshold, shots, np.random.default_rng(11)
        )
        assert bool(res.fallback_steps) == fallback
        if shots is None:
            assert abs(res.phase - phase) < 1e-12
            assert np.max(np.abs(np.subtract(res.step_phases, steps))) < 1e-12
        else:
            assert res.phase == phase and res.step_phases == steps

    @PROPERTY
    @given(case=chain_and_state(), order=st.sampled_from([1, 2, 4]), steps=st.integers(0, 3),
           partial=st.booleans())
    def test_evolve_equals_layer_loop(self, case, order, steps, partial):
        spec, psi = case
        plan = build_plan(spec, 3 * 0.1, 0.1, order)
        n_steps = steps if partial else None
        expected = psi
        for _ in range(plan.n_steps if n_steps is None else n_steps):
            for layer in plan.compiled:
                expected = apply_layer(expected, layer)
        out = evolve(psi, plan, n_steps)
        assert out.amplitudes.tobytes() == expected.amplitudes.tobytes()

    @PROPERTY
    @given(case=chain_and_product_state(), sign=st.sampled_from([1, -1]),
           h=st.sampled_from([0.0, 0.05, 0.4]))
    def test_apply_ite_equals_layer_loop(self, case, sign, h):
        spec, psi = case
        plan = build_ite_plan_general(spec, psi, h, sign)
        expected = psi
        for layer in plan.compiled:
            expected = apply_layer(expected, layer)
        assert apply_ite(plan, psi).amplitudes.tobytes() == expected.amplitudes.tobytes()
