"""Tests for the dense statevector and gate application kernels."""

import numpy as np
import pytest

from loschmidt.statevector import (
    AXIS_STATES,
    GateStack,
    StateVector,
    _check_unitary,
    _compile_stack,
    _layer_index,
    _site_indices,
    apply_layer,
    apply_matrix,
    inner_product,
    product_state,
)

RNG = np.random.default_rng(20240817)

X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def random_state(n, rng=RNG):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(n, amps / np.linalg.norm(amps))


def random_unitary(dim, rng=RNG):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def embed_dense(matrix, sites, n):
    """Independent oracle: embed a local matrix into the full 2^n space by
    summing over basis transitions."""
    k = len(sites)
    full = np.zeros((2**n, 2**n), dtype=complex)
    for col in range(2**n):
        loc = sum(((col >> s) & 1) << j for j, s in enumerate(sites))
        base = col
        for s in sites:
            base &= ~(1 << s)
        for locp in range(2**k):
            row = base
            for j, s in enumerate(sites):
                row |= ((locp >> j) & 1) << s
            full[row, col] += matrix[locp, loc]
    return full


class TestProductState:
    def test_single_up(self):
        state = product_state(["up"])
        assert np.allclose(state.amplitudes, [1, 0])

    def test_two_up(self):
        state = product_state(["up", "up"])
        expected = np.zeros(4)
        expected[0] = 1
        assert np.allclose(state.amplitudes, expected)

    def test_x_plus(self):
        state = product_state(["x+"])
        assert np.allclose(state.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_down_sets_site_bit(self):
        # site 1 down -> amplitude at index 2 (bit 1 set)
        state = product_state(["up", "down", "up"])
        assert state.amplitudes[2] == 1.0

    def test_zero_qubits(self):
        with pytest.raises(ValueError, match="zero qubits"):
            product_state([])

    def test_norm_one(self):
        state = product_state(["x+", "y-", "down", [0.6, 0.8j]])
        assert abs(state.norm() - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 5, 11])
    def test_amplitudes_equal_kron_chain_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        names = ["up", "down", "x+", "x-", "y+", "y-"]
        sites = []
        for k in range(n):
            if k % 2:
                vec = rng.normal(size=2) + 1j * rng.normal(size=2)
                sites.append(vec / np.linalg.norm(vec))
            else:
                sites.append(names[rng.integers(len(names))])
        vecs = [
            AXIS_STATES[s] if isinstance(s, str) else s / np.linalg.norm(s) for s in sites
        ]
        expected = vecs[0]
        for vec in vecs[1:]:
            expected = np.kron(vec, expected)
        assert product_state(sites).amplitudes.tobytes() == expected.tobytes()


class TestApplyGate:
    def test_identity(self):
        state = random_state(3)
        out = apply_matrix(state, np.eye(2), (1,))
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_pauli_x_site0(self):
        state = product_state(["up", "up"])
        out = apply_matrix(state, X, (0,))
        expected = np.zeros(4)
        expected[1] = 1
        assert np.allclose(out.amplitudes, expected)

    def test_hadamard_involution(self):
        state = random_state(4)
        out = apply_matrix(apply_matrix(state, H, (0,)), H, (0,))
        assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-12

    def test_out_of_range(self):
        state = random_state(2)
        with pytest.raises(ValueError, match="out of range"):
            apply_matrix(state, X, (2,))

    def test_duplicate_sites(self):
        state = random_state(2)
        with pytest.raises(ValueError, match="duplicate"):
            apply_matrix(state, np.eye(4), (1, 1))
        # a compiled gate needs two adjacent, hence distinct, sites
        with pytest.raises(ValueError, match="adjacent"):
            _compile_stack(2, GateStack(((1, 1),), (np.eye(4),)), [(0,)])

    def test_matches_dense_embedding(self):
        # locality oracle: gate application == dense 2^N x 2^N matrix action
        for n in range(2, 7):
            state = random_state(n)
            for _ in range(4):
                k = int(RNG.integers(1, 3))
                sites = tuple(RNG.choice(n, size=k, replace=False))
                mat = random_unitary(2**k)
                out = apply_matrix(state, mat, sites)
                expected = embed_dense(mat, sites, n) @ state.amplitudes
                assert np.max(np.abs(out.amplitudes - expected)) < 1e-12

    def test_norm_preservation(self):
        for _ in range(10):
            n = int(RNG.integers(1, 7))
            state = random_state(n)
            k = min(n, int(RNG.integers(1, 3)))
            sites = tuple(RNG.choice(n, size=k, replace=False))
            out = apply_matrix(state, random_unitary(2**k), sites)
            assert abs(out.norm() - 1.0) < 1e-10

    def test_disjoint_supports_commute(self):
        for n in (4, 6):
            state = random_state(n)
            g1, s1 = random_unitary(4), (0, 1)
            g2, s2 = random_unitary(4), (n - 2, n - 1)
            ab = apply_matrix(apply_matrix(state, g1, s1), g2, s2)
            ba = apply_matrix(apply_matrix(state, g2, s2), g1, s1)
            assert np.max(np.abs(ab.amplitudes - ba.amplitudes)) < 1e-12

    def test_nonunitary_matrix_fails_the_unitarity_check(self):
        with pytest.raises(ValueError, match="unitar"):
            _check_unitary(np.array([[1, 0], [0, 2.0]]))
        # one bad matrix fails the batched check of a stack
        with pytest.raises(ValueError, match="unitar"):
            _check_unitary(np.stack([H, np.array([[1, 0], [0, 2.0]]), X]))
        _check_unitary(np.stack([H, X]))

    @pytest.mark.parametrize("site", [1.9, 0.7, True, np.float64(1.0), "1"])
    def test_gate_site_must_be_an_integer(self, site):
        with pytest.raises(ValueError, match="site indices must be integers"):
            _site_indices((site,))

    @pytest.mark.parametrize("site", [1.9, 0.7, True, np.float64(1.0)])
    def test_apply_matrix_site_must_be_an_integer(self, site):
        with pytest.raises(ValueError, match="site indices must be integers"):
            apply_matrix(product_state(["up", "up"]), X, [site])

    def test_numpy_integer_sites_stay_valid(self):
        state = product_state(["up", "up"])
        out = apply_matrix(state, X, (np.int64(1),))
        assert out.amplitudes[2] == 1
        assert np.array_equal(apply_matrix(state, X, [np.int32(1)]).amplitudes, out.amplitudes)

    def test_nan_matrix_fails_the_unitarity_check(self):
        with pytest.raises(ValueError, match="unitar"):
            _check_unitary(np.array([[1.0, 0.0], [0.0, np.nan]]))


class TestInnerProduct:
    def test_self_overlap(self):
        state = random_state(5)
        assert abs(inner_product(state, state) - 1.0) < 1e-12

    def test_orthogonal(self):
        up = product_state(["up"])
        down = product_state(["down"])
        assert inner_product(up, down) == 0

    def test_conjugate_symmetry(self):
        for _ in range(5):
            a, b = random_state(4), random_state(4)
            assert abs(inner_product(a, b) - np.conj(inner_product(b, a))) < 1e-12

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(random_state(2), random_state(3))


class TestLayers:
    def test_layer_index_brickwork(self):
        layers = _layer_index([(i, i + 1) for i in range(5)])
        assert layers == [(0, 2, 4), (1, 3)]

    def test_layer_index_ordered_preserves_overlap_order(self):
        layers = _layer_index([(i, i + 1) for i in range(3)], ordered=True)
        assert layers == [(0,), (1,), (2,)]

    def test_layer_index_counts_from_start(self):
        assert _layer_index([(0, 1), (1, 2), (2, 3)], start=7) == [(7, 9), (8,)]

    def test_layer_disjointness_enforced(self):
        stack = GateStack(((0, 1), (1,)), (np.eye(4), np.eye(2)))
        with pytest.raises(ValueError, match="overlapping"):
            _compile_stack(3, stack, [(0, 1)])

    def test_apply_layer_equals_sequential(self):
        state = random_state(4)
        stack = GateStack(((0, 1), (2, 3)), (random_unitary(4), random_unitary(4)))
        (compiled,) = _compile_stack(4, stack, [(0, 1)])
        out = apply_layer(state, compiled)
        seq = state
        for support, matrix in zip(*stack):
            seq = apply_matrix(seq, matrix, support)
        assert np.allclose(out.amplitudes, seq.amplitudes)
