"""Oracle-differential properties of compiled plans on random adjacent terms.

Random chains of N <= 8 sites carry Hermitian 1- and 2-site terms in custom
groups, with reversed supports and both diagonal and dense matrices.  The
compiled kernels are checked against dense products of ``_embed``-ed gate
matrices, folded diagonal layers against their gates applied one by one,
the plan census against an independent statement of the step layout, the
batched ITE plan builders against a term-by-term construction (and each
pair's minus gates against the adjoints of its plus gates), every plan's
compiled ops against a gate-by-gate reference compile of its layers (bit for
bit), and the baselines against circuits that evolve every state they
interfere.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import loschmidt.noise as noise_module
from loschmidt.baselines import hadamard_test, sequential_interferometry
from loschmidt.config import ExperimentConfig
from loschmidt.exceptions import NumericsError
from loschmidt.ite import ItePair, apply_ite, build_ite_plan_general, build_ite_plan_tfim, ite_angle
from loschmidt.model import HamiltonianSpec, LocalTerm, _embed, tfim
from loschmidt.noise import NoiseConfig
from loschmidt.reconstruct import run_phase_experiment
from loschmidt.statevector import (
    BlockOp,
    GateStack,
    PhaseOp,
    StateVector,
    _compile_stack,
    _block_schedule,
    _layer_index,
    _product_ket,
    _run_layers,
    apply_layer,
    apply_matrix,
    basis_state,
    product_state,
)
from loschmidt.trotter import _SUZUKI_A, build_plan, evolve

PROPERTY = settings(max_examples=40, deadline=None, database=None, derandomize=True)
SEEDS = st.integers(0, 2**32 - 1)


def _ite_plan(builder, spec, psi, h, sign):
    """The gate stack, log constant and compiled layers of exp(sign*h*H)
    out of the builder's pair, which is ``pair``; ``index`` is the sign's
    entry in the pair's (plus, minus) tuples."""
    pair = builder(spec, psi, h)
    index = 0 if sign == 1 else 1
    return SimpleNamespace(pair=pair, index=index, gate_stack=pair.stacks[index],
                           log_c=pair.log_c[index], compiled=pair.compiled[index])


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
def chain_and_product_state(draw, max_sites=8):
    spec = draw(chains(max_sites))
    return spec, draw(product_states(spec.n_sites))


@st.composite
def disjoint_layers(draw, diagonal=None):
    """(n, gates): (support, matrix) pairs on pairwise-disjoint adjacent
    supports, some reversed."""
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
        gates.append((support, _exp_gate(herm, float(rng.uniform(0.1, 2.0)))))
        site += width
    return n, gates


def _compile_layer(n, gates):
    """The compiled ops of (support, matrix) pairs as one layer."""
    stack = GateStack(tuple([s for s, _ in gates]), tuple([m for _, m in gates]))
    return _compile_stack(n, stack, [tuple(range(len(gates)))])


def _plan_layers(stack, index):
    """The (support, matrix) pairs of each layer of a stack's layer index."""
    return [[(stack.supports[k], stack.matrices[k]) for k in layer] for layer in index]


def _embedded_product(layers, n, state):
    amps = state.amplitudes
    for layer in layers:
        for support, matrix in layer:
            amps = _embed(SimpleNamespace(support=support, matrix=matrix), n) @ amps
    return amps


def reference_step_layers(spec, dt, order):
    """Independent statement of one step's layout: the group brickworks in
    order (order 1), A/2 B A/2 split at the last group (order 2), and
    U2(a dt)^2 U2((1-4a) dt) U2(a dt)^2 (order 4)."""

    def group(label, t):
        gates = [(term.support, _exp_gate(term.matrix, t))
                 for term in spec.terms if term.group == label]
        gates = [(s, m) for s, m in gates if not _is_identity(m)]
        index = _reference_pack([s for s, _ in gates], ordered=False)
        return [[gates[k] for k in layer] for layer in index]

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
    c^2 and one for the gate.  Returns ([(support, gate)], log c)."""
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


def _assert_adjoint_pair(pair):
    """Both stacks of a pair share one support tuple, and each minus gate is
    the adjoint of its plus gate."""
    plus, minus = pair.stacks
    assert plus.supports is minus.supports is pair.supports
    assert len(plus.matrices) == len(minus.matrices) == len(pair.supports)
    for forward, backward in zip(plus.matrices, minus.matrices):
        assert np.max(np.abs(backward - forward.conj().T)) < 1e-12


class TestItePlanBuilders:
    @PROPERTY
    @given(case=chain_and_product_state(max_sites=6), h=st.sampled_from([0.05, 0.4]))
    def test_general_pair_is_adjoint(self, case, h):
        spec, psi = case
        _assert_adjoint_pair(build_ite_plan_general(spec, psi, h))

    @PROPERTY
    @given(n=st.integers(2, 6), seed=SEEDS, h=st.sampled_from([0.05, 0.4]))
    def test_closed_form_pair_is_adjoint(self, n, seed, h):
        # the closed form applies to the Ising chain on a basis state
        rng = np.random.default_rng(seed)
        psi = basis_state(n, int(rng.integers(0, 2**n)))
        spec = tfim(n, float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.2, 1.5)))
        pair = build_ite_plan_tfim(spec, psi, h)
        assert len(pair.supports) == n
        _assert_adjoint_pair(pair)

    def test_stacks_on_different_supports_rejected(self):
        # the two signs share one layer index and one block schedule, so
        # their gates must act on one support tuple
        gate = _exp_gate(_random_hermitian(np.random.default_rng(0), 2, False), 0.1)
        stacks = (GateStack(((0,),), (gate,)), GateStack(((1,),), (gate.conj().T,)))
        pair = ItePair(2, (0.0, 0.0), np.eye(2, dtype=complex), lambda: stacks)
        with pytest.raises(NumericsError, match="different supports"):
            pair.kets()

    @PROPERTY
    @given(case=chain_and_product_state(), sign=st.sampled_from([1, -1]),
           h=st.sampled_from([0.02, 0.3]))
    def test_general_plan_matches_term_by_term_construction(self, case, sign, h):
        spec, psi = case
        plan = _ite_plan(build_ite_plan_general, spec, psi, h, sign)
        ref_gates, ref_log_c = reference_ite_plan(spec, psi, h, sign)
        stack = plan.gate_stack
        assert list(stack.supports) == [support for support, _ in ref_gates]
        for matrix, (_, ref) in zip(stack.matrices, ref_gates):
            assert np.max(np.abs(matrix - ref)) < 1e-12
        assert abs(plan.log_c - ref_log_c) < 1e-12

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
        plan = _ite_plan(build_ite_plan_tfim, spec, psi, 0.1, sign)
        # each field gate turns its site's basis vector towards the flipped one
        theta = sign * ite_angle(0.1, g)
        stack = plan.gate_stack
        assert len(stack.supports) == n
        for (site,), matrix in zip(*stack):
            column = matrix[:, bits[site]]
            assert abs(column[bits[site]] - np.cos(theta)) < 1e-12
            assert abs(column[1 - bits[site]] - np.sin(theta)) < 1e-12
        ref = _ite_plan(build_ite_plan_tfim, spec, basis_state(n, index), 0.1, sign)
        assert plan.log_c == ref.log_c
        assert stack.supports == ref.gate_stack.supports
        assert all(map(np.array_equal, stack.matrices, ref.gate_stack.matrices))

    @pytest.mark.parametrize("builder", [build_ite_plan_general, build_ite_plan_tfim])
    @pytest.mark.parametrize("kind", sorted(_non_product_states()))
    def test_rejects_non_product_input(self, builder, kind):
        psi = _non_product_states()[kind]
        with pytest.raises(ValueError, match="product state"):
            builder(tfim(psi.n_qubits, 1.0, 0.5), psi, 0.1)

    @PROPERTY
    @given(case=chain_and_product_state(), phase=st.floats(0.0, 2 * np.pi))
    def test_apply_ite_accepts_state_and_global_phase_copy(self, case, phase):
        spec, psi = case
        pair = build_ite_plan_general(spec, psi, 0.05)
        turn = np.exp(1j * phase)
        rotated = apply_ite(pair, StateVector(psi.n_qubits, turn * psi.amplitudes))
        for out, new in zip(apply_ite(pair, psi), rotated):
            assert np.max(np.abs(new.amplitudes - turn * out.amplitudes)) < 1e-12


class TestCompiledKernel:
    @PROPERTY
    @given(case=chain_and_state(), order=st.sampled_from([1, 2, 4]),
           tau=st.sampled_from([0.05, 0.3]), steps=st.integers(1, 2))
    def test_evolve_matches_embedded_gate_product(self, case, order, tau, steps):
        spec, psi = case
        plan = build_plan(spec, steps * tau, tau, order)
        layers = _plan_layers(plan.gate_stack, plan.layer_index)
        expected = _embedded_product(layers * steps, spec.n_sites, psi)
        out = evolve(psi, plan)
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-12

    @staticmethod
    def _check_against_gates(n, gates, compiled, seed, product):
        state = _random_state(np.random.default_rng(seed), n, product)
        expected = state
        for support, matrix in gates:
            expected = apply_matrix(expected, matrix, support)
        out = apply_layer(state, compiled)
        assert np.max(np.abs(out.amplitudes - expected.amplitudes)) < 1e-12

    @PROPERTY
    @given(layer=disjoint_layers(), seed=SEEDS, product=st.booleans())
    def test_compiled_layer_equals_gates_one_by_one(self, layer, seed, product):
        n, gates = layer
        (compiled,) = _compile_layer(n, gates)
        self._check_against_gates(n, gates, compiled, seed, product)

    @PROPERTY
    @given(layer=disjoint_layers(diagonal=True), seed=SEEDS, product=st.booleans())
    def test_folded_diagonal_layer_equals_gates_one_by_one(self, layer, seed, product):
        n, gates = layer
        (compiled,) = _compile_layer(n, gates)
        if gates:
            assert len(compiled) == 1 and isinstance(compiled[0], PhaseOp)
        self._check_against_gates(n, gates, compiled, seed, product)

    @PROPERTY
    @given(case=chain_and_state(product=True), sign=st.sampled_from([1, -1]))
    def test_ite_plan_matches_embedded_gate_product(self, case, sign):
        spec, psi = case
        plan = _ite_plan(build_ite_plan_general, spec, psi, 0.05, sign)
        assert len(plan.compiled) == plan.pair.n_layers
        expected = _embedded_product(
            _plan_layers(plan.gate_stack, plan.pair.layer_index), spec.n_sites, psi
        )
        out = apply_ite(plan.pair, psi)[plan.index]
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-12

    def test_non_adjacent_gate_rejected(self):
        with pytest.raises(ValueError, match="adjacent"):
            _compile_stack(4, GateStack(((0, 2),), (np.eye(4),)), [(0,)])


class TestPlanCensus:
    @PROPERTY
    @given(spec=chains(), order=st.sampled_from([1, 2, 4]))
    def test_step_layers_match_reference_layout(self, spec, order):
        plan = build_plan(spec, 0.1, 0.1, order)
        reference = reference_step_layers(spec, 0.1, order)
        assert plan.layers_per_step == len(reference) == len(plan.compiled)
        for layer, ref in zip(_plan_layers(plan.gate_stack, plan.layer_index), reference):
            assert [s for s, _ in layer] == [s for s, _ in ref]
            assert all(np.array_equal(m, r) for (_, m), (_, r) in zip(layer, ref))

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
        ite_layers = build_ite_plan_tfim(spec, psi, 0.1).n_layers
        assert len(calls) == n_traj * (3 * trotter_layers + 2 * ite_layers)


def _reference_pack(supports, ordered):
    """Layering as a per-gate scan of site sets, as tuples of indices into
    ``supports``: the earliest layer without a conflict (brickwork), or the
    layer after the last one touching a site of the gate (ordered)."""
    layers, last_touch = [], {}
    for k, support in enumerate(supports):
        if ordered:
            idx = 1 + max(last_touch.get(s, -1) for s in support)
        else:
            idx = 0
            while idx < len(layers) and any(
                s in supports[j] for j in layers[idx] for s in support
            ):
                idx += 1
        if idx == len(layers):
            layers.append([])
        layers[idx].append(k)
        for s in support:
            last_touch[s] = idx
    return [tuple(layer) for layer in layers]


def _reference_compile_layer(n, gates):
    """One layer's ops as (kind, shape, array), built gate by gate: a folded
    diagonal layer multiplies a 2^N vector of ones by each gate's diagonal
    in place, a block is an np.kron chain over np.eye gaps."""
    placed = []
    for support, mat in gates:
        if len(support) == 2 and support[0] > support[1]:
            mat = mat[np.ix_([0, 2, 1, 3], [0, 2, 1, 3])]
        placed.append((min(support), mat))
    placed.sort(key=lambda item: item[0])
    widths = [mat.shape[0].bit_length() - 1 for _, mat in placed]
    if placed and all(not np.any(m - np.diag(np.diagonal(m))) for _, m in placed):
        phase = np.ones(2**n, dtype=complex)
        for lo, mat in placed:
            phase.reshape(-1, mat.shape[0], 1 << lo)[...] *= np.diagonal(mat)[:, None]
        return [("phase", phase.shape, phase)]
    blocks = []
    for (lo, mat), width in zip(placed, widths):
        hi = lo + width
        if blocks and hi - blocks[-1][0] <= 5:
            blocks[-1][1].append((lo, mat))
        else:
            blocks.append((0 if not blocks and hi <= 5 else lo, [(lo, mat)]))
    ops = []
    for start, members in blocks:
        matrix, site = np.ones((1, 1), dtype=complex), start
        for lo, mat in members:
            if lo > site:
                matrix = np.kron(np.eye(1 << (lo - site)), matrix)
            matrix = np.kron(mat, matrix)
            site = lo + mat.shape[0].bit_length() - 1
        rows, dim = 1 << (n - site), 1 << (site - start)
        ops.append(("block", (rows, dim) if start == 0 else (rows, dim, 1 << start), matrix))
    return ops


def _assert_same_ops(compiled, layers, n):
    """``compiled`` equals the reference compile of ``layers`` op for op,
    bit for bit."""
    assert len(compiled) == len(layers)
    for ops, layer in zip(compiled, layers):
        reference = _reference_compile_layer(n, layer)
        assert len(ops) == len(reference)
        for op, (kind, shape, array) in zip(ops, reference):
            if kind == "phase":
                assert type(op) is PhaseOp
                got = op.phase
            else:
                assert type(op) is BlockOp and op.shape == shape
                got = op.matrix
            assert got.dtype == array.dtype and got.shape == array.shape
            assert got.tobytes() == array.tobytes()


class TestCompileEquivalence:
    """Plans compiled from their gate stacks against the gate-by-gate
    reference compile of their layers."""

    @PROPERTY
    @given(spec=chains(), order=st.sampled_from([1, 2, 4]), tau=st.sampled_from([0.05, 0.7]))
    def test_trotter_plan_ops(self, spec, order, tau):
        plan = build_plan(spec, tau, tau, order)
        layers = _plan_layers(plan.gate_stack, plan.layer_index)
        _assert_same_ops(plan.compiled, layers, spec.n_sites)
        for layer, ref in zip(layers, reference_step_layers(spec, tau, order)):
            assert [s for s, _ in layer] == [s for s, _ in ref]

    @PROPERTY
    @given(case=chain_and_product_state(), sign=st.sampled_from([1, -1]),
           h=st.sampled_from([0.02, 0.3]))
    def test_general_ite_plan_ops(self, case, sign, h):
        spec, psi = case
        plan = _ite_plan(build_ite_plan_general, spec, psi, h, sign)
        index = _reference_pack(plan.gate_stack.supports, ordered=True)
        _assert_same_ops(plan.compiled, _plan_layers(plan.gate_stack, index), spec.n_sites)
        assert plan.pair.n_layers == len(index)
        assert plan.pair.layer_index == index

    @PROPERTY
    @given(n=st.integers(2, 8), seed=SEEDS, sign=st.sampled_from([1, -1]))
    def test_closed_form_ite_plan_ops(self, n, seed, sign):
        rng = np.random.default_rng(seed)
        psi = basis_state(n, int(rng.integers(0, 2**n)))
        spec = tfim(n, float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.2, 1.5)))
        plan = _ite_plan(build_ite_plan_tfim, spec, psi, 0.1, sign)
        index = _reference_pack(plan.gate_stack.supports, ordered=True)
        _assert_same_ops(plan.compiled, _plan_layers(plan.gate_stack, index), n)
        assert plan.pair.n_layers == len(index)
        assert plan.pair.layer_index == index

    @PROPERTY
    @given(layer=disjoint_layers(), seed=SEEDS)
    def test_single_layer_stack_ops(self, layer, seed):
        n, gates = layer
        _assert_same_ops(_compile_layer(n, gates), [gates], n)
        # the brickwork packing agrees with the reference on a shuffled list
        shuffled = [gates[k][0] for k in np.random.default_rng(seed).permutation(len(gates))]
        assert _layer_index(shuffled) == _reference_pack(shuffled, ordered=False)

    def test_diagonal_layer_with_uncovered_sites(self):
        rng = np.random.default_rng(3)
        phases = [np.diag(np.exp(1j * rng.uniform(0, 6, 2**w))) for w in (2, 1, 2)]
        # sites 0, 3, 4 and 8 carry no gate; (6, 5) is a reversed support
        gates = [((1, 2), phases[0]), ((6, 5), phases[2]), ((7,), phases[1])]
        (ops,) = _compile_layer(9, gates)
        assert len(ops) == 1 and isinstance(ops[0], PhaseOp)
        _assert_same_ops((ops,), [gates], 9)

    def test_block_entries_keep_the_signed_zeros_of_the_kron_chain(self):
        # the chain starts from the 1x1 unit, which turns an entry (-0.0, -0.0)
        # into (+0.0, -0.0); the kron with a dense gate keeps the difference
        zero = complex(-0.0, -0.0)
        first = np.array([[1.0, zero], [zero, -1j]])
        dense = _exp_gate(_random_hermitian(np.random.default_rng(4), 4, False), 0.3)
        for n, gates in ((3, [((0,), first), ((1, 2), dense)]),
                         (9, [((6,), first), ((7, 8), dense)])):
            _assert_same_ops(_compile_layer(n, gates), [gates], n)


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
    for layer in _plan_layers(plan.gate_stack, plan.layer_index) * plan.n_steps:
        for support, matrix in layer:
            dim = matrix.shape[0]
            controlled = np.eye(2 * dim, dtype=complex)
            controlled[dim:, dim:] = matrix
            full = apply_matrix(full, controlled, (*support, n))
    full = apply_matrix(full, _HADAMARD, (n,))
    p_zero = float(np.sum(np.abs(full.amplitudes[: 2**n]) ** 2))
    if shots is not None:
        p_zero = rng.binomial(shots, min(max(p_zero, 0.0), 1.0)) / shots
    return 2.0 * p_zero - 1.0


def _two_angle_chi(cs, thetas):
    """chi from cos(chi + th) = c at the two (th, c) pairs."""
    a = np.array([[np.cos(th), -np.sin(th)] for th in thetas])
    cos_chi, sin_chi = np.linalg.solve(a, cs)
    return float(np.arctan2(sin_chi, cos_chi))


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
                step += _two_angle_chi(cs, thetas)
        else:
            bra = superposition(a, b, 0.0)
            cs = [np.clip((4 * measure(bra, ket) - r_ii**2 - r_jj**2) / (2 * r_ii * r_jj), -1, 1)
                  for ket in evolved]
            step = _two_angle_chi(cs, thetas)
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
    @given(case=chain_and_product_state(), h=st.sampled_from([0.0, 0.05, 0.4]))
    def test_apply_ite_equals_layer_loop(self, case, h):
        spec, psi = case
        pair = build_ite_plan_general(spec, psi, h)
        outs = apply_ite(pair, psi)
        assert len(outs) == len(pair.compiled) == 2
        for out, layers in zip(outs, pair.compiled):
            expected = psi
            for layer in layers:
                expected = apply_layer(expected, layer)
            assert out.amplitudes.tobytes() == expected.amplitudes.tobytes()


@st.composite
def ordered_stacks(draw):
    """(n, GateStack) of random unitaries on adjacent 1- and 2-site supports
    in any order, some reversed; a support may repeat the one before it or
    sit one site from it, so staircases that overflow a block are common."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(SEEDS))
    supports = []
    for _ in range(draw(st.integers(1, 40))):
        move = draw(st.sampled_from(["repeat", "step", "any"])) if supports else "any"
        if move == "repeat":
            supports.append(supports[-1])
            continue
        width = draw(st.integers(1, min(2, n)))
        if move == "step":
            lo = min(max(min(supports[-1]) + draw(st.sampled_from([-1, 1])), 0), n - width)
        else:
            lo = draw(st.integers(0, n - width))
        support = tuple(range(lo, lo + width))
        if width == 2 and draw(st.booleans()):
            support = support[::-1]
        supports.append(support)
    mats = [_exp_gate(_random_hermitian(rng, 2 ** len(s), False), float(rng.uniform(0.1, 2.0)))
            for s in supports]
    return n, GateStack(tuple(supports), tuple(mats))


def _tilted_tfim_pair(n):
    """The general ITE pair (h = 0.05) of the TFIM on a product state whose
    sites tilt by up to 0.3 rad from up, with a random azimuth."""
    rng = np.random.default_rng(3)
    theta, azimuth = rng.uniform(0.0, 0.3, n), rng.uniform(0.0, 2 * np.pi, n)
    psi = product_state([[np.cos(a / 2), np.sin(a / 2) * np.exp(1j * b)]
                         for a, b in zip(theta, azimuth)])
    return build_ite_plan_general(tfim(n, 1.0, 0.5), psi, 0.05)


def _random_site_vectors(rng, n):
    return np.array([_unit(rng.normal(size=2) + 1j * rng.normal(size=2)) for _ in range(n)])


def _stack_of(supports, seed=0):
    """A GateStack of random unitaries on ``supports``."""
    rng = np.random.default_rng(seed)
    return GateStack(tuple(supports), tuple(
        _exp_gate(_random_hermitian(rng, 2 ** len(s), False), 1.0) for s in supports))


class TestProductKet:
    """The ITE kets grown from the site vectors against the gates applied
    one by one and the per-layer form, and the block schedule of the TFIM
    staircase."""

    @staticmethod
    def _assert_kets_equal_compiled(pair):
        # kets() and compiled are both (plus, minus)
        product = product_state(pair.site_vectors)
        kets = pair.kets()
        assert len(kets) == len(pair.compiled) == 2
        for ket, layers in zip(kets, pair.compiled):
            expected = _run_layers(product, layers).amplitudes
            assert np.max(np.abs(ket - expected)) < 1e-12

    @PROPERTY
    @given(case=chain_and_product_state(), h=st.sampled_from([0.05, 0.4]))
    def test_ket_equals_compiled(self, case, h):
        spec, psi = case
        pair = build_ite_plan_general(spec, psi, h)
        self._assert_kets_equal_compiled(pair)

    #: a staircase that overflows its first block: (4, 3) may join that
    #: block, which covers it, only by moving back past the block of (4, 5)
    OVERFLOW = (6, _stack_of(((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (4, 3))))
    #: the first gate sits above site 0, so sites 0..2 are added untouched
    #: before its block
    ABOVE_ZERO = (6, _stack_of(((3, 4), (5, 4), (4,))))
    #: (4, 3) overlaps the block (4, 9) and cannot join it, so its block
    #: (3, 5) runs in place on nine held sites; site 9, which no gate
    #: touches, is multiplied in at the end
    IN_PLACE = (10, _stack_of(((0, 1), (1, 2), (2, 3), (3, 4),
                              (4, 5), (5, 6), (6, 7), (7, 8), (4, 3))))
    #: no gate: the ket is the plain product
    EMPTY = (4, GateStack((), ()))

    @settings(PROPERTY, max_examples=150)
    @given(case=ordered_stacks(), seed=SEEDS)
    @example(case=OVERFLOW, seed=0)
    @example(case=ABOVE_ZERO, seed=1)
    @example(case=IN_PLACE, seed=2)
    @example(case=EMPTY, seed=3)
    def test_ket_equals_gates_one_by_one(self, case, seed):
        n, stack = case
        vecs = _random_site_vectors(np.random.default_rng(seed), n)
        expected = _gates_one_by_one(product_state(vecs), zip(*stack))
        ket = _product_ket(vecs, stack, _block_schedule(stack.supports))
        assert np.max(np.abs(ket - expected.amplitudes)) < 1e-12

    @pytest.mark.parametrize("case, spans", [
        (ABOVE_ZERO, [(3, 6)]),
        (IN_PLACE, [(0, 5), (4, 9), (3, 5)]),
        (EMPTY, []),
    ])
    def test_examples_reach_their_paths(self, case, spans):
        assert [(start, stop) for start, stop, _ in _block_schedule(case[1].supports)] == spans

    @pytest.mark.parametrize("n, spans", [
        (8, [(0, 5), (4, 8)]),
        (14, [(0, 5), (4, 9), (8, 13), (12, 14)]),
    ])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_tfim_staircase_blocks(self, n, spans, sign):
        # bonds (0, 1), (1, 2), ... then the fields: blocks of five sites
        # overlapping by one, each field joining the block that covers it,
        # so every block grows the state
        pair = _tilted_tfim_pair(n)
        assert pair.n_layers == n
        blocks = _block_schedule(pair.stacks[0 if sign == 1 else 1].supports)
        assert [(start, stop) for start, stop, _ in blocks] == spans
        # every gate index once, in term order within a block
        members = [k for _, _, indices in blocks for k in indices]
        assert sorted(members) == list(range(2 * n - 1))
        assert all(indices == sorted(indices) for _, _, indices in blocks)

    def test_one_layer_plans_keep_their_compile(self):
        psi = basis_state(6, 0b010011)
        closed = build_ite_plan_tfim(tfim(6, 1.0, 0.5), psi, 0.1)
        empty = build_ite_plan_general(tfim(6, 1.0, 0.5), psi, 0.0)
        assert (closed.n_layers, empty.n_layers) == (1, 0)
        for pair in (closed, empty):
            self._assert_kets_equal_compiled(pair)
        for ket in empty.kets():
            assert np.array_equal(ket, product_state(empty.site_vectors).amplitudes)

    def test_out_of_range_gate_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            stack = _stack_of([(2, 3)])
            _product_ket(_random_site_vectors(np.random.default_rng(0), 3), stack,
                         _block_schedule(stack.supports))


def _gates_one_by_one(state, gates):
    """``state`` after the (support, matrix) pairs, in order, each through
    ``apply_matrix``."""
    for support, matrix in gates:
        state = apply_matrix(state, matrix, support)
    return state


def reference_series(spec, psi, bra, tau, order, h, prefix_steps, n_points):
    """|<bra| U^(prefix_steps + k) x>|^2 for x = psi, V+ psi, V- psi as three
    forward circuits, each gate of the ITE plans and of the step applied one
    by one."""
    step = build_plan(spec, tau, tau, order)
    step_gates = [g for layer in _plan_layers(step.gate_stack, step.layer_index) for g in layer]
    kets = [psi] + [
        _gates_one_by_one(psi, zip(*stack)) for stack in build_ite_plan_general(spec, psi, h).stacks
    ]
    out = np.empty((3, n_points))
    for row, ket in enumerate(kets):
        for _ in range(prefix_steps):
            ket = _gates_one_by_one(ket, step_gates)
        for k in range(n_points):
            if k:
                ket = _gates_one_by_one(ket, step_gates)
            out[row, k] = abs(np.vdot(bra.amplitudes, ket.amplitudes)) ** 2
    return out


def transposed_reference(spec, psi, bra, tau, order, h, prefix_steps, n_points):
    """The same series by the former evaluation: w = conj(bra) under the
    step's gates transposed (on the reversed layer index), first
    ``prefix_steps`` times and then once between grid points, each point
    read as the plain dot products of w with psi, V+ psi and V- psi."""
    step = build_plan(spec, tau, tau, order)
    stack = step.gate_stack
    flipped = GateStack(stack.supports, tuple([np.ascontiguousarray(m.T) for m in stack.matrices]))
    back = _compile_stack(spec.n_sites, flipped, step.layer_index[::-1])
    kets = [psi.amplitudes, *build_ite_plan_general(spec, psi, h).kets()]
    w = StateVector(spec.n_sites, bra.amplitudes.conj())
    out = np.empty((3, n_points))
    for k in range(-prefix_steps, n_points):
        if k > -prefix_steps:
            w = _run_layers(w, back)
        if k >= 0:
            for row, ket in enumerate(kets):
                out[row, k] = abs(np.dot(ket, w.amplitudes)) ** 2
    return out


def noiseless_trace(spec, psi, bra, tau, order, h, prefix_steps, n_points):
    """The trace of a ``statevector_trotter`` run on ``n_points`` grid
    points."""
    trace = run_phase_experiment(ExperimentConfig(
        spec=spec, psi=psi, psi_final=bra, tau=tau, h=h, t_max=(n_points - 1) * tau,
        prefix_steps=prefix_steps, anchor=0.0, order=order, ite_mode="general_bj",
        zero_correction=False,
    ))
    assert len(trace) == n_points
    return trace


#: five sites of dense random terms in two groups, one support reversed, so
#: no gate is symmetric and the step's layers are not a palindrome at order 1
RANDOM_CHAIN = HamiltonianSpec(5, tuple(
    LocalTerm(support, _random_hermitian(np.random.default_rng(k), 2 ** len(support), False), group)
    for k, (support, group) in enumerate(
        [((0, 1), "a"), ((2, 1), "a"), ((3, 4), "a"), ((1,), "b"), ((4,), "b"), ((2, 3), "b")])
))


class TestAdjointEvaluation:
    """The noiseless series read off the bra evolved under the adjoint
    step, against forward circuits and against the former transposed
    evaluation, and the adjoint ops themselves."""

    @PROPERTY
    @given(spec=chains(max_sites=6), order=st.sampled_from([1, 2, 4]),
           prefix_steps=st.sampled_from([0, 3]), n_points=st.sampled_from([1, 2, 7]),
           seed=SEEDS)
    def test_series_match_forward_circuits(self, spec, order, prefix_steps, n_points, seed):
        rng = np.random.default_rng(seed)
        psi, bra = (_random_state(rng, spec.n_sites, product=True) for _ in range(2))
        tau, h = 0.2, 0.1
        trace = noiseless_trace(spec, psi, bra, tau, order, h, prefix_steps, n_points)
        series = np.array([trace.r ** 2, trace.p_plus, trace.p_minus])
        expected = reference_series(spec, psi, bra, tau, order, h, prefix_steps, n_points)
        assert np.max(np.abs(series - expected)) < 1e-12

    @staticmethod
    def _assert_equals_transposed(spec, psi, bra, order, prefix_steps, n_points):
        # bit for bit: conj(bra) under U^T is the conjugate of bra under
        # U^dagger entry for entry, and vdot(x, w) is the conjugate of
        # dot(x, conj(w)) term for term
        tau, h = 0.2, 0.1
        trace = noiseless_trace(spec, psi, bra, tau, order, h, prefix_steps, n_points)
        expected = transposed_reference(spec, psi, bra, tau, order, h, prefix_steps, n_points)
        assert trace.r.tobytes() == np.sqrt(expected[0]).tobytes()
        assert trace.p_plus.tobytes() == expected[1].tobytes()
        assert trace.p_minus.tobytes() == expected[2].tobytes()

    @PROPERTY
    @given(spec=chains(max_sites=8), order=st.sampled_from([1, 2, 4]),
           prefix_steps=st.sampled_from([0, 3]), seed=SEEDS)
    def test_series_equal_transposed_evaluation(self, spec, order, prefix_steps, seed):
        rng = np.random.default_rng(seed)
        psi, bra = (_random_state(rng, spec.n_sites, product=True) for _ in range(2))
        self._assert_equals_transposed(spec, psi, bra, order, prefix_steps, 5)

    @pytest.mark.parametrize("order", [1, 2, 4])
    def test_tfim_n14_equals_transposed_evaluation(self, order):
        rng = np.random.default_rng(order)
        psi, bra = (_random_state(rng, 14, product=True) for _ in range(2))
        self._assert_equals_transposed(tfim(14, 1.0, 0.5), psi, bra, order, 2, 4)

    @PROPERTY
    @given(spec=chains(max_sites=6), order=st.sampled_from([1, 2, 4]), seed=SEEDS)
    @example(spec=tfim(6, 1.0, 0.5), order=2, seed=0)
    @example(spec=RANDOM_CHAIN, order=1, seed=0)
    def test_adjoint_step_is_the_adjoint_pairing(self, spec, order, seed):
        # <U^dagger a|b> = <a|U b> for the step U, each op of the plan's
        # adjoint form the matching op of its forward form conjugate-
        # transposed, stored C-contiguous, and shared where the forward op
        # is shared
        step = build_plan(spec, 0.3, 0.3, order)
        back = step.adjoint
        rng = np.random.default_rng(seed)
        a, b = (_random_state(rng, spec.n_sites, product=False) for _ in range(2))
        w = _run_layers(a, back).amplitudes
        forward = np.vdot(a.amplitudes, _run_layers(b, step.compiled).amplitudes)
        assert abs(np.vdot(w, b.amplitudes) - forward) < 1e-13
        ops = [op for layer in step.compiled[::-1] for op in layer]
        flipped = [op for layer in back for op in layer]
        assert [type(op) for op in flipped] == [type(op) for op in ops]
        for op, new in zip(ops, flipped):
            if isinstance(op, PhaseOp):
                assert np.array_equal(new.phase, op.phase.conj())
            else:
                assert new.shape == op.shape and new.matrix.flags.c_contiguous
                assert np.array_equal(new.matrix, op.matrix.conj().T)
        shared = [[new is other for other in flipped] for new in flipped]
        assert shared == [[op is other for other in ops] for op in ops]
