"""Oracle tests for the R-matrix builders and their exchange identities.

The N=2 vertex matrix is compared against a fully written-out four-term sum
whose kernel values come from mpmath, not from this package.  Exchange
identities are exercised at small sizes with pole-avoiding random draws;
exhaustive trial counts live in the acceptance suite.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest

from ellrmx.elliptic import (
    DELTA_MIN,
    EllipticContext,
    all_indices,
    kronecker_phi,
    lattice_distance,
    omega,
    varphi,
)
from ellrmx.tensor import TensorOperator, basis_t_raw, matrix_unit, permute_components
from ellrmx.rmatrix import (
    DynamicalParams,
    IdentityCheck,
    bb_l_operator_rll_residual,
    dybe_residual_felder,
    dybe_residual_slnm,
    felder_dynamical_l_residual,
    r_bb,
    r_felder,
    r_slnm,
    relative_residual,
    shifted_r,
    slnm_reduction_residual_m1,
    slnm_reduction_residual_n1,
    weight_projectors,
    ybe_residual,
    zero_weight_residual,
)

TAU = 0.3 + 0.8j
CTX = EllipticContext(TAU)


def phi_oracle(u, x, tau):
    """Independent kernel evaluation via mpmath's theta functions."""
    q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
    th = lambda v: mpmath.jtheta(1, mpmath.pi * mpmath.mpc(v), q)
    thp0 = mpmath.pi * mpmath.jtheta(1, 0, q, derivative=1)
    return complex(thp0 * th(u + x) / (th(u) * th(x)))


def draw(rng, tau=TAU):
    return rng.uniform(0, 1) + (0.1 + 0.8 * rng.uniform()) * tau


def sample_point_set(rng, m, n, n_z=3, tau=TAU):
    """Draw hbar, q (length m) and z's with every needed argument pole-free."""
    omegas = [omega(a, EllipticContext(tau)) for a in all_indices(n)]
    while True:
        hbar = draw(rng, tau)
        q = [draw(rng, tau) for _ in range(m)]
        z = [draw(rng, tau) for _ in range(n_z)]
        exprs = [hbar, n * hbar] + [hbar + w for w in omegas]
        exprs += z
        exprs += [z[i] - z[j] for i in range(n_z) for j in range(n_z) if i != j]
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                for d in (-1, 0, 1):
                    base = q[i] - q[j] + d * hbar
                    exprs += [base + w for w in omegas]
                    exprs.append(n * base)
        if all(lattice_distance(e, tau) >= DELTA_MIN for e in exprs):
            return hbar, tuple(q), z


class TestRbbAgainstOracle:
    def test_n1_is_scalar_kernel(self):
        u, h = 0.41 + 0.22 * TAU, 0.17 + 0.31 * TAU
        got = r_bb(h, u, 1, CTX)
        assert got.shape == (1, 1)
        assert abs(got[0, 0] - phi_oracle(u, h, TAU)) <= 1e-11 * abs(got[0, 0])

    def test_n2_four_term_sum(self):
        # All four terms written out by hand for tau = i.
        tau = 1j
        ctx = EllipticContext(tau)
        h, u = 0.17 + 0.05j, 0.41
        ident = np.eye(2)
        lam = np.array([[0, 1], [1, 0]], dtype=complex)
        qmat = np.diag([1.0, -1.0]).astype(complex)
        t11 = np.array([[0, 1j], [-1j, 0]])
        # characteristic -> (T, T at negated characteristic)
        terms = {
            (0, 0): (ident, ident),
            (0, 1): (lam, lam),
            (1, 0): (qmat, qmat),
            (1, 1): (t11, t11),
        }
        expect = np.zeros((4, 4), dtype=complex)
        for (a1, a2), (t, tneg) in terms.items():
            w = (a1 + a2 * tau) / 2
            coeff = phi_oracle(u, h + w, tau) * cmath.exp(1j * math.pi * a2 * u)
            expect += coeff * np.kron(t, tneg)
        got = r_bb(h, u, 2, ctx)
        assert np.max(np.abs(got - expect)) <= 1e-10 * np.max(np.abs(expect))

    def test_negated_characteristic_factor_n2(self):
        # For N=2 the negated representatives reproduce the same matrices;
        # cross-check one N=3 pair where integer negation matters.
        from ellrmx.tensor import basis_t_raw

        t = basis_t_raw(-1, -1, 3)
        t_red = basis_t_raw(2, 2, 3)
        assert np.max(np.abs(t + t_red)) <= 1e-13  # opposite signs

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_the_characteristic_loop(self, n):
        hbar, u = 0.21 + 0.13j, 0.37 + 0.29j
        want = sum(
            varphi(a.a1, a.a2, u, hbar, n, CTX)
            * np.kron(basis_t_raw(a.a1, a.a2, n), basis_t_raw(-a.a1, -a.a2, n))
            for a in all_indices(n)
        )
        got = r_bb(hbar, u, n, CTX)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def kron_r_slnm(hbar, u, q, n, ctx):
    """The composite matrix as a sum of Kronecker products in the grouping
    (M, M, N, N), conjugated into site order (M, N, M, N) afterwards."""
    m = len(q)
    ab12 = np.zeros((m * m * n * n,) * 2, dtype=complex)
    eye_nn = np.eye(n * n, dtype=complex)
    for i in range(1, m + 1):
        eii = matrix_unit(i, i, m)
        ab12 += np.kron(np.kron(eii, eii), r_bb(hbar, u, n, ctx))
        for j in range(1, m + 1):
            if i == j:
                continue
            qij = q[i - 1] - q[j - 1]
            exchange = np.kron(matrix_unit(i, j, m), matrix_unit(j, i, m))
            ab12 += np.kron(exchange, r_bb(qij, u, n, ctx))
            scalar = n * kronecker_phi(n * hbar, -n * qij, ctx)
            ab12 += scalar * np.kron(np.kron(eii, matrix_unit(j, j, m)), eye_nn)
    return permute_components(TensorOperator((m, m, n, n), ab12), (1, 3, 2, 4)).data


class TestYbe:
    @pytest.mark.parametrize("n", [2, 3])
    def test_vertex_ybe(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(3):
            hbar, _, z = sample_point_set(rng, 1, n)
            check = ybe_residual(hbar, z[0], z[1], z[2], n, CTX)
            assert check.residual <= 1e-9

    def test_l_operator_reading(self):
        rng = np.random.default_rng(105)
        hbar, _, z = sample_point_set(rng, 1, 2)
        check = bb_l_operator_rll_residual(hbar, z[0], z[1], 2, CTX)
        assert check.residual <= 1e-9

    @pytest.mark.parametrize("n", [2, 3])
    def test_associative_exchange_identity(self, n):
        # R12^x(z12) R23^y(z23) = R13^y(z13) R12^{x-y}(z12)
        #                         + R23^{y-x}(z23) R13^x(z13)
        # with the superscript in the kernel slot and sites embedded in C^n^3.
        rng = np.random.default_rng(130 + n)
        eye = np.eye(n, dtype=complex)

        def emb13(mat):
            m4 = mat.reshape(n, n, n, n)
            out = np.einsum("ab,ikjl->iakjbl", eye, m4)
            return out.reshape(n**3, n**3)

        while True:
            x, y = draw(rng), draw(rng)
            z = [draw(rng) for _ in range(3)]
            z12, z13, z23 = z[0] - z[1], z[0] - z[2], z[1] - z[2]
            need = [x, y, x - y, z12, z13, z23]
            need += [v + omega(a, CTX) for v in (x, y, x - y) for a in all_indices(n)]
            if all(lattice_distance(v, TAU) >= DELTA_MIN for v in need):
                break
        lhs = np.kron(r_bb(x, z12, n, CTX), eye) @ np.kron(eye, r_bb(y, z23, n, CTX))
        rhs = emb13(r_bb(y, z13, n, CTX)) @ np.kron(r_bb(x - y, z12, n, CTX), eye)
        rhs += np.kron(eye, r_bb(y - x, z23, n, CTX)) @ emb13(r_bb(x, z13, n, CTX))
        assert relative_residual(lhs, rhs).residual <= 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_pair_product_is_scalar(self, n):
        # R^x(z) R^{-x}(z) is a multiple of the identity; the multiple equals
        # n^2 E2(z) minus the characteristic sum of E2 at the shifted kernel
        # argument, hence its x-dependence matches n^2 E2(n x) by telescoping.
        from ellrmx.elliptic import eisenstein_e2

        rng = np.random.default_rng(140 + n)
        while True:
            x, z = draw(rng), draw(rng)
            need = [x, z, n * x]
            need += [x + omega(a, CTX) for a in all_indices(n)]
            if all(lattice_distance(v, TAU) >= DELTA_MIN for v in need):
                break
        prod = r_bb(x, z, n, CTX) @ r_bb(-x, z, n, CTX)
        scale = np.trace(prod) / (n * n)
        assert np.abs(prod - scale * np.eye(n * n)).max() <= 1e-10 * abs(scale)
        expect = n * n * eisenstein_e2(z, CTX) - sum(
            eisenstein_e2(x + omega(a, CTX), CTX) for a in all_indices(n)
        )
        assert abs(scale - expect) <= 1e-10 * abs(scale)


class TestFelder:
    def test_m1_is_scalar_kernel(self):
        u, h = 0.41 + 0.22 * TAU, 0.17 + 0.31 * TAU
        got = r_felder(h, u, (0.3 + 0.2 * TAU,), CTX)
        assert got.shape == (1, 1)
        assert abs(got[0, 0] - phi_oracle(u, h, TAU)) <= 1e-11 * abs(got[0, 0])

    def test_m2_entries_against_oracle(self):
        rng = np.random.default_rng(107)
        hbar, q, z = sample_point_set(rng, 2, 1)
        u = z[0] - z[1]
        got = r_felder(hbar, u, q, CTX)
        q12 = q[0] - q[1]
        # basis order on C^2 x C^2: (11, 12, 21, 22)
        expect = np.zeros((4, 4), dtype=complex)
        expect[0, 0] = expect[3, 3] = phi_oracle(u, hbar, TAU)
        expect[1, 2] = phi_oracle(u, q12, TAU)
        expect[2, 1] = phi_oracle(u, -q12, TAU)
        expect[1, 1] = phi_oracle(hbar, -q12, TAU)
        expect[2, 2] = phi_oracle(hbar, q12, TAU)
        assert np.max(np.abs(got - expect)) <= 1e-10 * np.max(np.abs(expect))

    @pytest.mark.parametrize("m", [2, 3])
    def test_dynamical_ybe(self, m):
        rng = np.random.default_rng(110 + m)
        hbar, q, z = sample_point_set(rng, m, 1)
        check = dybe_residual_felder(hbar, z[0], z[1], z[2], q, CTX)
        assert check.residual <= 1e-9

    @pytest.mark.parametrize("m", [1, 3])
    def test_matches_the_matrix_unit_loop(self, m):
        hbar, u = 0.21 + 0.13j, 0.37 + 0.29j
        q = (0.13 + 0.09j, 0.58 + 0.41j, 0.77 + 0.33j)[:m]
        want = np.zeros((m * m, m * m), dtype=complex)
        for i in range(1, m + 1):
            eii = matrix_unit(i, i, m)
            want += kronecker_phi(u, hbar, CTX) * np.kron(eii, eii)
            for j in range(1, m + 1):
                if i != j:
                    qij = q[i - 1] - q[j - 1]
                    eij, eji = matrix_unit(i, j, m), matrix_unit(j, i, m)
                    want += kronecker_phi(u, qij, CTX) * np.kron(eij, eji)
                    ejj = matrix_unit(j, j, m)
                    want += kronecker_phi(hbar, -qij, CTX) * np.kron(eii, ejj)
        got = r_felder(hbar, u, q, CTX)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_zero_weight(self):
        rng = np.random.default_rng(113)
        hbar, q, z = sample_point_set(rng, 3, 1)
        assert zero_weight_residual(hbar, z[0] - z[1], q, CTX) <= 1e-12

    @pytest.mark.parametrize("m", [2, 3])
    def test_dynamical_l_operator_reading(self, m):
        rng = np.random.default_rng(116 + m)
        hbar, q, z = sample_point_set(rng, m, 1)
        check = felder_dynamical_l_residual(hbar, z[0], z[1], q, CTX)
        assert check.residual <= 1e-9


class TestSlnm:
    def test_reduction_to_vertex(self):
        rng = np.random.default_rng(119)
        hbar, q, z = sample_point_set(rng, 1, 2)
        assert slnm_reduction_residual_m1(hbar, z[0] - z[1], q[0], 2, CTX) <= 1e-12

    def test_reduction_to_dynamical(self):
        rng = np.random.default_rng(121)
        hbar, q, z = sample_point_set(rng, 3, 1)
        assert slnm_reduction_residual_n1(hbar, z[0] - z[1], q, CTX) <= 1e-12

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 3)])
    def test_dynamical_ybe(self, n, m):
        rng = np.random.default_rng(120 + 10 * n + m)
        hbar, q, z = sample_point_set(rng, m, n)
        check = dybe_residual_slnm(hbar, z[0], z[1], z[2], q, n, CTX)
        assert check.residual <= 1e-9

    @pytest.mark.parametrize("n,m", [(3, 2), (2, 3), (1, 3), (3, 1), (2, 1)])
    def test_matches_the_kronecker_sum(self, n, m):
        rng = np.random.default_rng(130 + 10 * n + m)
        hbar, q, z = sample_point_set(rng, m, n)
        want = kron_r_slnm(hbar, z[0] - z[1], q, n, CTX)
        got = r_slnm(hbar, z[0] - z[1], q, n, CTX)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_mixed_scalar_rescaling(self):
        # The diagonal-diagonal coordinate block is n*phi(n*hbar, -n*qij)
        # times the identity on the vertex legs, not the unscaled scalar.
        rng = np.random.default_rng(127)
        hbar, q, z = sample_point_set(rng, 2, 2)
        n, m = 2, 2
        full = r_slnm(hbar, z[0] - z[1], q, n, CTX)
        grouped = permute_components(
            TensorOperator((m, n, m, n), full), (1, 3, 2, 4)
        ).data.reshape(m, m, n, n, m, m, n, n)
        qij = q[0] - q[1]
        sub = grouped[0, 1, :, :, 0, 1, :, :].reshape(n * n, n * n)
        expect = n * kronecker_phi(n * hbar, -n * qij, CTX) * np.eye(n * n)
        assert np.abs(sub - expect).max() <= 1e-12 * np.abs(expect).max()

    def test_site_ordering_block_structure(self):
        # The diagonal-E term with i=j=1 must act as R_vertex on the N-factors
        # of both sites when restricted to the first M-block.
        rng = np.random.default_rng(127)
        hbar, q, z = sample_point_set(rng, 2, 2)
        u = z[0] - z[1]
        m, n = 2, 2
        full = r_slnm(hbar, u, q, n, CTX)
        rv = r_bb(hbar, u, n, CTX)
        # site order (M, N, M, N); select M-indices (0, 0) on rows and columns
        tens = full.reshape(m, n, m, n, m, n, m, n)
        block = tens[0, :, 0, :, 0, :, 0, :].reshape(n * n, n * n)
        assert np.max(np.abs(block - rv)) <= 1e-12 * max(1.0, np.max(np.abs(rv)))


class TestShiftedR:
    def test_zero_shift(self):
        rng = np.random.default_rng(131)
        hbar, q, z = sample_point_set(rng, 2, 1)
        proj = weight_projectors(2)
        build = lambda qq: r_felder(hbar, z[0], qq, CTX)
        got = shifted_r(build, q, 0.0, proj)
        expect = np.kron(build(q), np.eye(2))
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))

    def test_single_weight(self):
        rng = np.random.default_rng(137)
        hbar, q, z = sample_point_set(rng, 1, 1)
        proj = weight_projectors(1)
        build = lambda qq: r_felder(hbar, z[0], qq, CTX)
        got = shifted_r(build, q, hbar, proj)
        expect = build(q)  # M=1 matrix has no coordinate dependence
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))

    def test_projector_completeness(self):
        proj = weight_projectors(3, 2)
        total = sum(proj)
        assert np.array_equal(total, np.eye(6))


class TestParamsAndReports:
    def test_pair_constructor_checks_length(self):
        with pytest.raises(ValueError):
            DynamicalParams.pair((0.1,), (0.2, 0.3), 0.05)

    def test_identity_check_validation(self):
        with pytest.raises(ValueError):
            IdentityCheck(-1.0)

    def test_relative_residual_floor(self):
        z = np.zeros((2, 2))
        check = relative_residual(z, z)
        assert check.residual == 0.0
