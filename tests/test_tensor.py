"""Oracle tests for the operator basis and tensor plumbing.

The multiplication law, traces and embeddings are all checked against direct
numpy constructions (matrix products, explicit Kronecker products), never
against the module's own formulas.
"""

import cmath
import math

import numpy as np
import pytest

from ellrmx.elliptic import LatticeIndex
from ellrmx.tensor import (
    TensorOperator,
    basis_t,
    basis_t_raw,
    embed,
    embed_matrix,
    kappa,
    kappa_raw,
    kron_all,
    lambda_shift,
    matrix_unit,
    permute_components,
    q_clock,
)
from support import all_indices


class TestMatrixUnit:
    def test_idempotent(self):
        e11 = matrix_unit(1, 1, 3)
        assert np.array_equal(e11 @ e11, e11)

    def test_product_rule(self):
        m = 3
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                for k in range(1, m + 1):
                    for l in range(1, m + 1):
                        prod = matrix_unit(i, j, m) @ matrix_unit(k, l, m)
                        expect = (1.0 if j == k else 0.0) * matrix_unit(i, l, m)
                        assert np.array_equal(prod, expect)

    def test_completeness(self):
        m = 4
        total = sum(matrix_unit(i, i, m) for i in range(1, m + 1))
        assert np.array_equal(total, np.eye(m))

    def test_range_check(self):
        with pytest.raises(IndexError):
            matrix_unit(0, 1, 3)
        with pytest.raises(IndexError):
            matrix_unit(1, 4, 3)


class TestClockShift:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_order_n(self, n):
        q = np.linalg.matrix_power(q_clock(n), n)
        lam = np.linalg.matrix_power(lambda_shift(n), n)
        assert np.max(np.abs(q - np.eye(n))) <= 1e-13
        assert np.max(np.abs(lam - np.eye(n))) <= 1e-13

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_exchange_relation(self, n):
        q, lam = q_clock(n), lambda_shift(n)
        lhs = lam @ q
        rhs = cmath.exp(2j * math.pi / n) * (q @ lam)
        assert np.max(np.abs(lhs - rhs)) <= 1e-13


class TestBasisT:
    def test_identity_at_zero(self):
        for n in (2, 3, 4):
            assert np.max(np.abs(basis_t(LatticeIndex(0, 0, n)) - np.eye(n))) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_group_law_exhaustive(self, n):
        # Product label formed by unreduced integer sums of the canonical
        # representatives; this is the version that holds identically.
        for a in all_indices(n):
            for b in all_indices(n):
                lhs = basis_t(a) @ basis_t(b)
                rhs = kappa(a, b) * basis_t_raw(a.a1 + b.a1, a.a2 + b.a2, n)
                assert np.max(np.abs(lhs - rhs)) <= 1e-13

    def test_reduced_label_differs_by_sign(self):
        # Representative shift by n in one component flips a sign whenever the
        # other component is odd; this is why the group law needs raw sums.
        assert np.max(np.abs(basis_t_raw(2, 1, 2) + basis_t_raw(0, 1, 2))) <= 1e-14
        prod = basis_t_raw(1, 0, 2) @ basis_t_raw(1, 1, 2)
        wrong = kappa_raw((1, 0), (1, 1), 2) * basis_t_raw(0, 1, 2)
        assert np.max(np.abs(prod - wrong)) > 1.0

    @pytest.mark.parametrize("n", [2, 3])
    def test_representative_shift_signs(self, n):
        for a in all_indices(n):
            t = basis_t(a)
            shift1 = basis_t_raw(a.a1 + n, a.a2, n)
            shift2 = basis_t_raw(a.a1, a.a2 + n, n)
            assert np.max(np.abs(shift1 - (-1) ** a.a2 * t)) <= 1e-13
            assert np.max(np.abs(shift2 - (-1) ** a.a1 * t)) <= 1e-13

    @pytest.mark.parametrize("n", [2, 3])
    def test_traces(self, n):
        for a in all_indices(n):
            tr = np.trace(basis_t(a))
            expect = n if a.pair == (0, 0) else 0.0
            assert abs(tr - expect) <= 1e-13

    @pytest.mark.parametrize("n", [2, 3])
    def test_trace_orthogonality(self, n):
        # tr(T_a T_b) vanishes unless a+b = 0 mod n; on the diagonal pairs the
        # value is n up to the representative sign of T at the raw sum a+b.
        for a in all_indices(n):
            for b in all_indices(n):
                tr = np.trace(basis_t(a) @ basis_t(b))
                if ((a.a1 + b.a1) % n, (a.a2 + b.a2) % n) != (0, 0):
                    assert abs(tr) <= 1e-12
                else:
                    c1, c2 = (a.a1 + b.a1) // n, (a.a2 + b.a2) // n
                    sign = (-1) ** (n * c1 * c2)
                    expect = n * kappa(a, b) * sign
                    assert abs(tr - expect) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_pairing_with_integer_negation(self, n):
        for a in all_indices(n):
            t_neg = basis_t_raw(-a.a1, -a.a2, n)
            assert abs(np.trace(basis_t(a) @ t_neg) - n) <= 1e-12


class TestKappa:
    def test_zero_characteristic(self):
        for n in (2, 3):
            for b in all_indices(n):
                assert kappa(LatticeIndex(0, 0, n), b) == 1.0

    @pytest.mark.parametrize("n", [2, 3])
    def test_inverse_pairs(self, n):
        for a in all_indices(n):
            for b in all_indices(n):
                prod = kappa(a, b) * kappa(b, a)
                assert abs(prod - 1.0) <= 1e-14
                assert abs(abs(kappa(a, b)) - 1.0) <= 1e-14

    def test_frozen_value(self):
        val = kappa(LatticeIndex(1, 0, 2), LatticeIndex(0, 1, 2))
        assert abs(val - (-1j)) <= 1e-15


class TestEmbed:
    def test_single_slot(self):
        rng = np.random.default_rng(41)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        got = embed_matrix(a, (1,), (2, 2, 2))
        expect = kron_all(a, np.eye(2), np.eye(2))
        assert np.max(np.abs(got - expect)) <= 1e-14

    def test_two_slot_split(self):
        rng = np.random.default_rng(43)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        got = embed_matrix(np.kron(a, b), (1, 3), (2, 4, 3))
        expect = kron_all(a, np.eye(4), b)
        assert np.max(np.abs(got - expect)) <= 1e-13

    def test_reversed_slots(self):
        rng = np.random.default_rng(44)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        # operator factor order (slot2, slot1): kron(a, b) with a on slot 2
        got = embed_matrix(np.kron(a, b), (2, 1), (2, 3))
        expect = kron_all(b, a)
        assert np.max(np.abs(got - expect)) <= 1e-13

    def test_identity_embedding(self):
        got = embed_matrix(np.eye(3), (2,), (2, 3, 2))
        assert np.max(np.abs(got - np.eye(12))) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            embed_matrix(np.eye(2), (1,), (3, 3))
        with pytest.raises(ValueError):
            embed_matrix(np.eye(2), (0,), (2, 2))


class TestPermute:
    def test_identity_permutation(self):
        rng = np.random.default_rng(47)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        op = TensorOperator((2, 3), m)
        out = permute_components(op, (1, 2))
        assert np.array_equal(out.data, op.data)

    def test_swap_against_kron_oracle(self):
        rng = np.random.default_rng(53)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        op = TensorOperator((2, 3), np.kron(a, b))
        out = permute_components(op, (2, 1))
        assert out.dims == (3, 2)
        assert np.max(np.abs(out.data - np.kron(b, a))) <= 1e-13

    def test_transposition_involution(self):
        rng = np.random.default_rng(59)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        op = TensorOperator((2, 2, 2), m)
        back = permute_components(permute_components(op, (2, 1, 3)), (2, 1, 3))
        assert np.max(np.abs(back.data - op.data)) == 0.0

    def test_transport_of_slots(self):
        rng = np.random.default_rng(61)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        placed_first = embed(a, (1,), (2, 3))
        moved = permute_components(placed_first, (2, 1))
        direct = embed(a, (2,), (3, 2))
        assert np.max(np.abs(moved.data - direct.data)) <= 1e-14

    def test_three_cycle_with_distinct_dims(self):
        rng = np.random.default_rng(67)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        c = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        op = TensorOperator((2, 3, 4), kron_all(a, b, c))
        # factor in slot 1 -> slot 2, slot 2 -> slot 3, slot 3 -> slot 1
        out = permute_components(op, (2, 3, 1))
        expect = kron_all(c, a, b)
        assert out.dims == (4, 2, 3)
        assert np.max(np.abs(out.data - expect)) <= 1e-13

    def test_invalid_permutation(self):
        op = TensorOperator((2, 2), np.eye(4))
        with pytest.raises(ValueError):
            permute_components(op, (1, 1))


class TestTensorOperator:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TensorOperator((2, 2), np.eye(3))

    def test_immutable_data(self):
        op = TensorOperator((2,), np.eye(2))
        with pytest.raises(ValueError):
            op.data[0, 0] = 5.0

    def test_matmul(self):
        rng = np.random.default_rng(71)
        a = rng.normal(size=(4, 4)) + 0j
        b = rng.normal(size=(4, 4)) + 0j
        prod = TensorOperator((2, 2), a) @ TensorOperator((2, 2), b)
        assert np.max(np.abs(prod.data - a @ b)) <= 1e-14
        with pytest.raises(ValueError):
            TensorOperator((2, 2), a) @ TensorOperator((4,), b)
