"""Oracle tests for the R-matrix builders and their exchange identities.

The N=2 vertex matrix is compared against a fully written-out four-term sum
whose kernel values come from mpmath, not from this package, and against
Baxter's eight-vertex weights in mpmath's four Jacobi thetas, which share
no code with the characteristic sum.  Exchange
identities are exercised at small sizes with pole-avoiding random draws;
exhaustive trial counts live in the acceptance suite.
"""

import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from ellrmx.elliptic import (
    DELTA_MIN,
    EllipticContext,
    PoleProximityError,
    kronecker_phi,
    lattice_distance,
    varphi,
)
from ellrmx.tensor import (
    TensorOperator,
    basis_t_raw,
    embed_matrix,
    matrix_unit,
    permute_components,
)
from ellrmx import rmatrix
from ellrmx.rmatrix import (
    DynamicalParams,
    _sector_plan,
    _sector_sides,
    _triple_points,
    bb_l_operator_rll_residual,
    dybe_residual_felder,
    dybe_residual_slnm,
    felder_dynamical_l_residual,
    mixed_scalar,
    r_bb,
    r_felder,
    r_slnm,
    relative_residual,
    slnm_reduction_residual_m1,
    slnm_reduction_residual_n1,
    ybe_residual,
    zero_weight_residual,
)
from support import all_indices, omega

TAU = 0.3 + 0.8j
CTX = EllipticContext(TAU)


def phi_oracle(u, x, tau):
    """Independent kernel evaluation via mpmath's theta functions."""
    q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
    th = lambda v: mpmath.jtheta(1, mpmath.pi * mpmath.mpc(v), q)
    thp0 = mpmath.pi * mpmath.jtheta(1, 0, q, derivative=1)
    return complex(thp0 * th(u + x) / (th(u) * th(x)))


def eight_vertex(h, u, tau) -> np.ndarray:
    """Baxter's eight-vertex matrix at Planck parameter ``h`` and spectral
    parameter ``u``: with phi_k = theta_1'(0) theta_k(u + h) / (theta_1(u)
    theta_k(h)), a = phi_1 + phi_2 on (00,00) and (11,11), b = phi_1 - phi_2
    on (01,01) and (10,10), c = phi_3 + phi_4 on (01,10) and (10,01), and
    d = phi_4 - phi_3 on (00,11) and (11,00)."""
    q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
    th = lambda k, v: mpmath.jtheta(k, mpmath.pi * mpmath.mpc(v), q)
    thp0 = mpmath.pi * mpmath.jtheta(1, 0, q, derivative=1)
    phi = [complex(thp0 * th(k, u + h) / (th(1, u) * th(k, h))) for k in (1, 2, 3, 4)]
    out = np.zeros((4, 4), dtype=complex)
    out[0, 0] = out[3, 3] = phi[0] + phi[1]
    out[1, 1] = out[2, 2] = phi[0] - phi[1]
    out[1, 2] = out[2, 1] = phi[2] + phi[3]
    out[0, 3] = out[3, 0] = phi[3] - phi[2]
    return out


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

    @pytest.mark.parametrize("tau", [TAU, 5.3 + 0.3j], ids=["default", "skew"])
    def test_n2_is_the_eight_vertex_matrix(self, tau):
        ctx = EllipticContext(tau)
        rng = np.random.default_rng(11)
        half_periods = [omega(a, ctx) for a in all_indices(2)]
        drawn = 0
        while drawn < 20:
            h, u = draw(rng, tau), draw(rng, tau)
            near = [u, u + h] + [h + w for w in half_periods]
            if min(lattice_distance(v, tau) for v in near) < DELTA_MIN:
                continue
            drawn += 1
            want = eight_vertex(h, u, tau)
            assert np.max(np.abs(r_bb(h, u, 2, ctx) - want)) <= 1e-12 * np.max(np.abs(want))

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
            assert ybe_residual(hbar, z[0], z[1], z[2], n, CTX) <= 1e-9

    def test_l_operator_reading(self):
        rng = np.random.default_rng(105)
        hbar, _, z = sample_point_set(rng, 1, 2)
        assert bb_l_operator_rll_residual(hbar, z[0], z[1], 2, CTX) <= 1e-9

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
        assert relative_residual(lhs, rhs) <= 1e-12

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
        assert dybe_residual_felder(hbar, z[0], z[1], z[2], q, CTX) <= 1e-9

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
    def test_zero_weight_reads_an_entry_off_the_weight_pattern(self, monkeypatch, m):
        # Every total weight projector E_ii (x) 1 + 1 (x) E_ii commutes
        # with R exactly, and an entry that moves weight breaks that; the
        # weight half of the residual is the mass of such entries.
        rng = np.random.default_rng(123 + m)
        hbar, q, z = sample_point_set(rng, m, 1)
        u, eye = z[0] - z[1], np.eye(m)
        totals = [
            np.kron(matrix_unit(i, i, m), eye) + np.kron(eye, matrix_unit(i, i, m))
            for i in range(1, m + 1)
        ]
        build = rmatrix.r_felder

        def leaked(*args):
            out = build(*args).copy()
            # row (1, 1), column (1, 2): the second site's weight moves
            out[..., 0, 1] += 1e-6
            return out

        r = build(hbar, u, q, CTX)
        assert max(np.linalg.norm(t @ r - r @ t) for t in totals) == 0.0
        monkeypatch.setattr(rmatrix, "r_felder", leaked)
        r = leaked(hbar, u, q, CTX)
        assert min(np.linalg.norm(t @ r - r @ t) for t in totals[:2]) > 0.0
        got = zero_weight_residual(hbar, u, q, CTX)
        assert got == pytest.approx(1e-6 / max(np.linalg.norm(r), 1.0), rel=1e-6)

    @pytest.mark.parametrize("m", [2, 3])
    def test_dynamical_l_operator_reading(self, m):
        rng = np.random.default_rng(116 + m)
        hbar, q, z = sample_point_set(rng, m, 1)
        assert felder_dynamical_l_residual(hbar, z[0], z[1], q, CTX) <= 1e-9


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
        assert dybe_residual_slnm(hbar, z[0], z[1], z[2], q, n, CTX) <= 1e-9

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


# The scalar builders as they were before the stacked builds, and the dense
# three-site path: every factor embedded in (C^d)^3, shifted factors as
# Kronecker sums over weight projectors, four (d^3 x d^3) products a side.


def scalar_bb_blocks(x, u, n, ctx):
    a1, a2 = np.divmod(np.arange(n * n), n)
    coeff = varphi(a1, a2, u, x[:, None], n, ctx)
    first = basis_t_raw(a1, a2, n)[:, :, None, :, None]
    pairs = first * basis_t_raw(-a1, -a2, n)[:, None, :, None, :]
    return (coeff[:, :, None, None, None, None] * pairs).sum(axis=1)


def scalar_r_bb(hbar, u, n, ctx):
    return scalar_bb_blocks(np.array([hbar], dtype=complex), u, n, ctx)[0].reshape(n * n, n * n)


def scalar_r_felder(hbar, u, q, ctx):
    m = len(q)
    i, j = np.nonzero(~np.eye(m, dtype=bool))
    qa = np.array(q, dtype=complex)
    qij = qa[i] - qa[j]
    k = len(qij)
    phi = kronecker_phi(
        np.repeat([u, u, hbar], [1, k, k]), np.concatenate([[hbar], qij, -qij]), ctx
    )
    out = np.zeros((m, m, m, m), dtype=complex)
    diag = np.arange(m)
    out[diag, diag, diag, diag] = phi[0]
    out[i, j, j, i] = phi[1 : k + 1]
    out[i, j, i, j] = phi[k + 1 :]
    return out.reshape(m * m, m * m)


def scalar_r_slnm(hbar, u, q, n, ctx):
    m = len(q)
    i, j = np.nonzero(~np.eye(m, dtype=bool))
    qa = np.array(q, dtype=complex)
    qij = qa[i] - qa[j]
    blocks = scalar_bb_blocks(np.concatenate([[hbar], qij]), u, n, ctx)
    mixed = mixed_scalar(np.full(qij.shape, hbar), qij, n, ctx)
    out = np.zeros((m, n) * 4, dtype=complex)
    diag = np.arange(m)
    out[diag, :, diag, :, diag, :, diag, :] = blocks[0]
    out[i, :, j, :, j, :, i, :] = blocks[1:]
    identity = np.eye(n * n).reshape((n,) * 4)
    out[i, :, j, :, i, :, j, :] = mixed[:, None, None, None, None] * identity
    dim = m * m * n * n
    return out.reshape(dim, dim)


def weight_projectors(m, n=1):
    """Projectors onto the M-weight components of one site (C^M or C^M x C^N)."""
    eye_n = np.eye(n, dtype=complex)
    return [np.kron(matrix_unit(k, k, m), eye_n) for k in range(1, m + 1)]


def shifted_r(builder, q, hbar, projectors):
    """Weight-resolved dynamical shift ``sum_k builder(q - hbar e_k) (x) P_k``,
    acting on (builder's two sites, shift site) in that factor order."""
    out = None
    for k, proj in enumerate(projectors):
        qk = tuple(v - hbar if i == k else v for i, v in enumerate(q))
        term = np.kron(builder(qk), proj)
        out = term if out is None else out + term
    return out


def three_site(op, slots, d):
    return embed_matrix(op, slots, (d, d, d))


def dense_sides(kind, hbar, z, q, n, ctx):
    """Both sides of the triple relation of ``kind`` ("ybe", "felder" or
    "slnm") as dense (d^3 x d^3) products."""
    z12, z13, z23 = z[0] - z[1], z[0] - z[2], z[1] - z[2]
    if kind == "ybe":
        r12, r13, r23 = (
            three_site(scalar_r_bb(hbar, u, n, ctx), slots, n)
            for u, slots in ((z12, (1, 2)), (z13, (1, 3)), (z23, (2, 3)))
        )
        return r12 @ r13 @ r23, r23 @ r13 @ r12
    m = len(q)
    if kind == "felder":
        d, proj = m, weight_projectors(m)
        r = lambda u, qq: scalar_r_felder(hbar, u, qq, ctx)
    else:
        d, proj = m * n, weight_projectors(m, n)
        r = lambda u, qq: scalar_r_slnm(hbar, u, qq, n, ctx)
    q = tuple(q)
    lhs = (
        three_site(r(z12, q), (1, 2), d)
        @ three_site(shifted_r(lambda qq: r(z13, qq), q, hbar, proj), (1, 3, 2), d)
        @ three_site(r(z23, q), (2, 3), d)
    )
    rhs = (
        three_site(shifted_r(lambda qq: r(z23, qq), q, hbar, proj), (2, 3, 1), d)
        @ three_site(r(z13, q), (1, 3), d)
        @ three_site(shifted_r(lambda qq: r(z12, qq), q, hbar, proj), (1, 2, 3), d)
    )
    return lhs, rhs


def triple_points(hbar, z, q):
    """``_triple_points`` of one trial."""
    return _triple_points(np.array([hbar]), *(np.array([v]) for v in z), np.array([q]))


def exchange_stack(kind, hbar, z, q, n, ctx):
    """The stack the residual of ``kind`` contracts, for one trial."""
    if kind == "ybe":
        r = r_bb(hbar, np.array([[z[0] - z[1], z[0] - z[2], z[1] - z[2]]]), n, ctx)
        return np.stack([r, r], axis=2)
    if kind == "felder":
        stack = r_felder(*triple_points(hbar, z, q), ctx)
    else:
        stack = r_slnm(*triple_points(hbar, z, q), n, ctx)
    return stack.reshape(1, 3, len(q) + 1, *stack.shape[1:])


def sector_triples(gather, m, d):
    """The triples (a d^2 + b d + c) of each sector of a plan class, read
    off the diagonals of its R12 and R13 blocks: (a, b) and (a, c)."""
    diag = np.arange(gather.shape[-1])
    ab = gather[0][:, diag, diag] // d**2
    ac = (gather[4][:, diag, diag] - (m + 1) * d**4) // d**2
    return ab * d + ac % d


def residual_of(kind, hbar, z, q, n, ctx):
    if kind == "ybe":
        return ybe_residual(hbar, *z, n, ctx)
    if kind == "felder":
        return dybe_residual_felder(hbar, *z, q, ctx)
    return dybe_residual_slnm(hbar, *z, q, n, ctx)


def raises_pole(fn):
    try:
        fn()
    except PoleProximityError:
        return True
    return False


SKEW = 5.3 + 0.3j
SIDE_SIZES = [(1, 1), (2, 1), (1, 3), (2, 2), (3, 2), (2, 3)]
SIDE_CASES = (
    [("slnm", n, m) for n, m in SIDE_SIZES]
    + [("felder", 1, m) for m in (1, 2, 3)]
    + [("ybe", n, 1) for n in (2, 3, 4)]
)


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


class TestSectorSides:
    @pytest.mark.parametrize("tau", [TAU, SKEW])
    @pytest.mark.parametrize("kind,n,m", SIDE_CASES)
    def test_sector_blocks_match_the_dense_oracle(self, kind, n, m, tau):
        ctx = EllipticContext(tau)
        rng = np.random.default_rng(200 + 10 * n + m)
        hbar, q, z = sample_point_set(rng, m, n, tau=tau)
        d = m * n
        classes, _ = _sector_plan(m, n)
        stack = exchange_stack(kind, hbar, z, q, n, ctx)
        part = stack.reshape(1, -1)
        triples = [sector_triples(gather, m, d) for gather in classes]
        # every triple in exactly one sector; m n sectors of n^2 triples,
        # m (m - 1) n of 3 n^2 and C(m, 3) n of 6 n^2
        assert np.array_equal(np.sort(np.concatenate([t.ravel() for t in triples])), np.arange(d**3))
        sizes = {t.shape[1]: len(t) for t in triples}
        want_sizes = {n * n: m * n, 3 * n * n: m * (m - 1) * n, 6 * n * n: math.comb(m, 3) * n}
        assert sizes == {s: k for s, k in want_sizes.items() if k}
        sectors = sum(sizes.values())
        assert sectors == math.comb(m + 2, 3) * n
        label = np.empty(d**3, dtype=int)
        label[np.concatenate([t.reshape(-1) for t in triples])] = np.repeat(
            np.arange(sectors), [t.shape[1] for t in triples for _ in t]
        )
        off = label[:, None] != label[None, :]
        dense = dense_sides(kind, hbar, z, q, n, ctx)
        assert all(np.all(side[off] == 0) for side in dense)
        for gather, tri in zip(classes, triples):
            for side, want in zip(_sector_sides(part, gather), dense):
                for block, rows in zip(side[0], tri):
                    oracle = want[np.ix_(rows, rows)]
                    assert np.linalg.norm(block - oracle) <= 1e-14 * np.linalg.norm(oracle)
        # relative_residual overwrites the left side
        residual = relative_residual(*dense)
        assert residual <= 1e-12
        assert abs(residual_of(kind, hbar, z, q, n, ctx) - residual) <= 1e-15

    @pytest.mark.parametrize(
        "kind,n,m", [("ybe", 2, 1), ("ybe", 3, 1), ("felder", 1, 2), ("felder", 1, 3)]
    )
    def test_own_l_residuals_are_the_triple_at_zero(self, kind, n, m):
        rng = np.random.default_rng(230 + n + m)
        hbar, q, z = sample_point_set(rng, m, n)
        z0 = (z[0], z[1], 0)
        dense = relative_residual(*dense_sides(kind, hbar, z0, q, n, CTX))
        if kind == "ybe":
            got = bb_l_operator_rll_residual(hbar, z[0], z[1], n, CTX)
        else:
            got = felder_dynamical_l_residual(hbar, z[0], z[1], q, CTX)
        assert got == residual_of(kind, hbar, z0, q, n, CTX)
        assert abs(got - dense) <= 1e-15

    @pytest.mark.parametrize(
        "kind,n,m", [("slnm", 2, 2), ("slnm", 1, 1), ("felder", 1, 2), ("ybe", 3, 1)]
    )
    def test_guards_trip_exactly_where_the_dense_builds_do(self, kind, n, m):
        # Unfiltered draws at a skewed tau, one argument each time put
        # within 0.1 of a lattice point: about half of them trip a guard.
        ctx = EllipticContext(SKEW)
        rng = np.random.default_rng(240 + 10 * n + m)
        outcomes = set()
        for _ in range(40):
            hbar, q = draw(rng, SKEW), [draw(rng, SKEW) for _ in range(m)]
            z = [draw(rng, SKEW) for _ in range(3)]
            near = rng.integers(-1, 2) + rng.integers(-1, 2) * SKEW
            near += 0.1 * rng.uniform() * cmath.exp(2j * math.pi * rng.uniform())
            which = rng.integers(3)
            if which == 0:
                hbar = near
            elif which == 1 or m == 1:
                z[2] = z[rng.integers(2)] - near
            else:
                q[-1] = q[0] - near
            old = raises_pole(lambda: dense_sides(kind, hbar, z, q, n, ctx))
            new = raises_pole(lambda: residual_of(kind, hbar, z, q, n, ctx))
            assert new == old
            outcomes.add(old)
        assert outcomes == {True, False}


def safe_draws(rng, count, width, n):
    """``count`` rows of ``width`` draws whose first entries, whose
    differences, their n-fold multiples and their shifts by the n-th
    lattice fractions all keep clear of the lattice."""
    omegas = np.array([omega(a, CTX) for a in all_indices(n)])
    rows = []
    while len(rows) < count:
        shape = (4 * count, width)
        cand = rng.uniform(0, 1, shape) + (0.1 + 0.8 * rng.uniform(size=shape)) * TAU
        diffs = (cand[:, :, None] - cand[:, None, :])[:, ~np.eye(width, dtype=bool)]
        near = [diffs[..., None] + omegas, n * diffs, cand[:, :1]]
        dist = [lattice_distance(v, TAU).reshape(len(cand), -1).min(axis=1) for v in near]
        ok = np.all(np.array(dist) >= DELTA_MIN, axis=0)
        rows.extend(cand[ok])
    return np.array(rows[:count])


class TestStackedBuilds:
    @pytest.mark.parametrize("n,m", SIDE_SIZES)
    def test_one_item_builds_match_the_scalar_builds_bit_for_bit(self, n, m):
        rng = np.random.default_rng(250 + 10 * n + m)
        hbar, q, z = sample_point_set(rng, m, n)
        u = z[0] - z[1]
        for got, want in (
            (r_slnm(hbar, u, q, n, CTX), scalar_r_slnm(hbar, u, q, n, CTX)),
            (r_felder(hbar, u, q, CTX), scalar_r_felder(hbar, u, q, CTX)),
            (r_bb(hbar, u, n, CTX), scalar_r_bb(hbar, u, n, CTX)),
        ):
            assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("n,m", SIDE_SIZES)
    def test_stacked_build_matches_the_loop_bit_for_bit(self, n, m):
        rng = np.random.default_rng(260 + 10 * n + m)
        hbar, q, z = sample_point_set(rng, m, n)
        hs, us, qs = triple_points(hbar, z, q)
        assert us.shape == (3 * (m + 1),) and qs.shape == (3 * (m + 1), m)
        assert np.array_equal(hs, np.full(us.shape, hbar))
        pairs = list(zip(us, map(tuple, qs)))
        assert np.array_equal(
            r_slnm(hbar, us, qs, n, CTX), [r_slnm(hbar, u, row, n, CTX) for u, row in pairs]
        )
        assert np.array_equal(
            r_felder(hbar, us, qs, CTX), [r_felder(hbar, u, row, CTX) for u, row in pairs]
        )
        assert np.array_equal(r_bb(hbar, us, n, CTX), [r_bb(hbar, u, n, CTX) for u in us])

    def test_large_stacks_match_one_item_builds_bit_for_bit(self):
        # Stacks long enough that every kernel array passes 256 KB, where
        # numpy may multiply in place into a temporary.
        rng = np.random.default_rng(270)
        hbar = 0.21 + 0.43 * TAU
        rows = safe_draws(rng, 8300, 3, 2)
        us, qs = rows[:, 0], rows[:, 1:]
        picks = [0, 1, 4150, 8299]
        slnm = r_slnm(hbar, us, qs, 1, CTX)
        felder = r_felder(hbar, us, qs, CTX)
        bb = r_bb(hbar, us, 2, CTX)
        for p in picks:
            assert np.array_equal(slnm[p], r_slnm(hbar, us[p], tuple(qs[p]), 1, CTX))
            assert np.array_equal(felder[p], r_felder(hbar, us[p], tuple(qs[p]), CTX))
            assert np.array_equal(bb[p], r_bb(hbar, us[p], 2, CTX))

    @pytest.mark.parametrize("n,m,bound_mib", [(3, 2, 3.57), (3, 3, 40.9)])
    def test_dybe_slnm_peaks_below_the_dense_path(self, n, m, bound_mib):
        # The bounds are the dense path's traced peaks at the same sizes.
        rng = np.random.default_rng(280 + m)
        hbar, q, z = sample_point_set(rng, m, n)
        dybe_residual_slnm(hbar, *z, q, n, CTX)  # fill the caches first
        tracemalloc.start()
        try:
            dybe_residual_slnm(hbar, *z, q, n, CTX)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2**20


# Each public residual as a call on (hbar, z, q) for a batch of trials
# (hbar and the rows of z one entry per trial, q one row), or for one
# trial's scalars, which broadcast.
RESIDUALS = {
    "ybe_residual": (3, 1, lambda h, z, q, n, ctx: ybe_residual(h, *z, n, ctx)),
    "bb_l_operator_rll_residual": (
        3, 1, lambda h, z, q, n, ctx: bb_l_operator_rll_residual(h, z[0], z[1], n, ctx)
    ),
    "dybe_residual_felder": (1, 3, lambda h, z, q, n, ctx: dybe_residual_felder(h, *z, q, ctx)),
    "felder_dynamical_l_residual": (
        1, 3, lambda h, z, q, n, ctx: felder_dynamical_l_residual(h, z[0], z[1], q, ctx)
    ),
    "dybe_residual_slnm": (2, 2, lambda h, z, q, n, ctx: dybe_residual_slnm(h, *z, q, n, ctx)),
    "zero_weight_residual": (
        1, 3, lambda h, z, q, n, ctx: zero_weight_residual(h, z[0] - z[1], q, ctx)
    ),
    "slnm_reduction_residual_m1": (
        3, 1,
        lambda h, z, q, n, ctx: slnm_reduction_residual_m1(
            h, z[0] - z[1], np.asarray(q)[..., 0][()], n, ctx
        ),
    ),
    "slnm_reduction_residual_n1": (
        1, 3, lambda h, z, q, n, ctx: slnm_reduction_residual_n1(h, z[0] - z[1], q, ctx)
    ),
}


def trial_sets(seed, count, m, n, tau=TAU):
    """``count`` pole-free trials as (hbar, z, q): 1-d arrays of hbar and
    of each z, and a (count, m) array of q."""
    rng = np.random.default_rng(seed)
    sets = [sample_point_set(rng, m, n, tau=tau) for _ in range(count)]
    hbar = np.array([h for h, _, _ in sets])
    z = np.array([zs for _, _, zs in sets]).T
    return hbar, z, np.array([q for _, q, _ in sets])


class TestTrialArrays:
    @pytest.mark.parametrize("tau", [TAU, SKEW], ids=["default-tau", "skew-tau"])
    @pytest.mark.parametrize("name", sorted(RESIDUALS))
    def test_one_trial_batches_equal_their_entries_bit_for_bit(self, name, tau):
        n, m, residual = RESIDUALS[name]
        ctx = EllipticContext(tau)
        hbar, z, q = trial_sets(290 + len(name), 5, m, n, tau)
        got = residual(hbar, z, q, n, ctx)
        assert isinstance(got, np.ndarray) and got.shape == (5,)
        for t in range(5):
            at = slice(t, t + 1)
            one = residual(hbar[at], z[:, at], q[at], n, ctx)
            scalars = residual(complex(hbar[t]), [complex(v) for v in z[:, t]], tuple(q[t]), n, ctx)
            for single in (one, scalars):
                assert isinstance(single, np.ndarray) and single.shape == (1,)
                assert single.tobytes() == got[at].tobytes(), t

    @pytest.mark.parametrize("n,m", SIDE_SIZES)
    def test_trial_arrays_of_hbar_and_q_equal_single_builds(self, n, m):
        hbar, z, q = trial_sets(300 + 10 * n + m, 4, m, n)
        u = z[0] - z[1]
        for stack, single in (
            (r_slnm(hbar, u, q, n, CTX), lambda t: r_slnm(hbar[t], u[t], tuple(q[t]), n, CTX)),
            (r_felder(hbar, u, q, CTX), lambda t: r_felder(hbar[t], u[t], tuple(q[t]), CTX)),
            (r_bb(hbar, u, n, CTX), lambda t: r_bb(hbar[t], u[t], n, CTX)),
        ):
            assert stack.shape[0] == 4
            for t in range(4):
                assert np.array_equal(stack[t], single(t))


class TestParamsAndReports:
    def test_pair_constructor_checks_length(self):
        with pytest.raises(ValueError):
            DynamicalParams((0.1,), (0.2, 0.3), 0.05)

    def test_relative_residual_floor(self):
        z = np.zeros((2, 2))
        assert relative_residual(z, z) == 0.0
