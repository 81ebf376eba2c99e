"""Three elliptic R-matrices and the residuals of their exchange identities.

The vertex R-matrix lives on C^N x C^N and is a characteristic sum over the
operator basis.  The dynamical R-matrix lives on C^M x C^M and depends on a
vector q of dynamical coordinates through matrix units.  The composite
R-matrix interleaves both structures on (C^M x C^N)^2; its canonical site
ordering places each M-factor immediately before its N-factor partner.

Dynamical shifts q -> q - hbar e_k inside a product are realized as finite
sums over weight projectors on the shifted tensor slot: conjugating by the
shift exponential acts diagonally on weight components, so the conjugated
operator is exactly sum_k R(q - hbar e_k) (x) P_k.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .elliptic import EllipticContext, kronecker_phi, varphi
from .tensor import basis_t_raw, embed_matrix, matrix_unit

QVector = tuple[complex, ...]


@dataclass(frozen=True)
class DynamicalParams:
    """One or two vectors of dynamical coordinates plus the Planck parameter.

    ``q2`` is None for single-set checks; the two-set form treats both
    vectors as independent coordinates.
    """

    q1: QVector
    q2: QVector | None
    hbar: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "q1", tuple(complex(v) for v in self.q1))
        if self.q2 is not None:
            if len(self.q2) != len(self.q1):
                raise ValueError("coordinate vectors must have equal length")
            object.__setattr__(self, "q2", tuple(complex(v) for v in self.q2))
        object.__setattr__(self, "hbar", complex(self.hbar))

    @classmethod
    def single(cls, q: Sequence[complex], hbar: complex) -> "DynamicalParams":
        return cls(tuple(q), None, hbar)

    @classmethod
    def pair(
        cls, q1: Sequence[complex], q2: Sequence[complex], hbar: complex
    ) -> "DynamicalParams":
        return cls(tuple(q1), tuple(q2), hbar)

    @property
    def m(self) -> int:
        return len(self.q1)


@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of a single identity evaluation."""

    residual: float

    def __post_init__(self) -> None:
        if not (self.residual >= 0):
            raise ValueError(f"negative or non-finite residual {self.residual}")


def relative_residual(lhs: np.ndarray, rhs: np.ndarray) -> IdentityCheck:
    """Frobenius defect of ``lhs == rhs`` scaled by the larger side (floor 1)."""
    norm = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1.0)
    return IdentityCheck(float(np.linalg.norm(lhs - rhs) / norm))


def r_bb(hbar: complex, u: complex, n: int, ctx: EllipticContext) -> np.ndarray:
    """Vertex R-matrix on C^n x C^n: characteristic sum of twisted kernels
    against basis pairs T_alpha (x) T_{-alpha}.

    The second basis factor uses the *integer* negation of the canonical
    representative; the product of the sign picked up by each factor under a
    representative change cancels, so each term is well defined.
    """
    return _bb_blocks(np.array([hbar], dtype=complex), u, n, ctx)[0].reshape(n * n, n * n)


def _bb_blocks(x: np.ndarray, u: complex, n: int, ctx: EllipticContext) -> np.ndarray:
    """:func:`r_bb` at every Planck parameter of the 1-d array ``x``, as
    ``[x, i1, i2, j1, j2]`` (row i1 i2, column j1 j2), from one kernel call."""
    a1, a2 = np.divmod(np.arange(n * n), n)
    coeff = varphi(a1, a2, u, x[:, None], n, ctx)
    # kron(T_a, T_-a) for every a, indexed [a, i, k, j, l]
    first = basis_t_raw(a1, a2, n)[:, :, None, :, None]
    pairs = first * basis_t_raw(-a1, -a2, n)[:, None, :, None, :]
    return (coeff[:, :, None, None, None, None] * pairs).sum(axis=1)


def r_felder(hbar: complex, u: complex, q: Sequence[complex], ctx: EllipticContext) -> np.ndarray:
    """Dynamical R-matrix on C^M x C^M for coordinates ``q``.

    Diagonal pairs carry the kernel at ``(u, hbar)``, exchange pairs the
    kernel at the coordinate difference, and diagonal-diagonal pairs the
    kernel at ``(hbar, -difference)``.
    """
    m = len(q)
    i, j = np.nonzero(~np.eye(m, dtype=bool))
    qa = np.array(q, dtype=complex)
    qij = qa[i] - qa[j]
    k = len(qij)
    phi = kronecker_phi(
        np.repeat([u, u, hbar], [1, k, k]), np.concatenate([[hbar], qij, -qij]), ctx
    )
    # entry [i, i', j, j'] of E_ii (x) E_ii, E_ij (x) E_ji and E_ii (x) E_jj
    out = np.zeros((m, m, m, m), dtype=complex)
    diag = np.arange(m)
    out[diag, diag, diag, diag] = phi[0]
    out[i, j, j, i] = phi[1 : k + 1]
    out[i, j, i, j] = phi[k + 1 :]
    return out.reshape(m * m, m * m)


def mixed_scalar(hbar: complex, x: complex, n: int, ctx: EllipticContext) -> complex:
    """Diagonal-diagonal coefficient of the composite R-matrix: ``n phi(n hbar, -n x)``.

    Reduces to the plain mixed coefficient ``phi(hbar, -x)`` at ``n == 1``;
    see :func:`r_slnm` for why the n-fold rescaling is forced.  Arrays
    broadcast.
    """
    return n * kronecker_phi(n * hbar, -n * x, ctx)


def r_slnm(
    hbar: complex, u: complex, q: Sequence[complex], n: int, ctx: EllipticContext
) -> np.ndarray:
    """Composite R-matrix on (C^M x C^N)^2 in canonical site order.

    Site order is (M, N, M, N): each site is one M-factor followed by its
    N-factor.  Every block is scattered straight into place; the vertex
    blocks come from one kernel call over hbar and all coordinate
    differences, the mixed scalars from another.

    Diagonal coordinate pairs carry the full vertex block, exchange pairs
    carry it at the coordinate difference, and diagonal-diagonal pairs carry
    the scalar ``n * phi(n*hbar, -n*qij)``.  The n-fold rescaling of the
    mixed scalar is forced by the weight-shifted braid identity: the
    weight-transfer defect between the outer sites is proportional to a
    single exchange block whose prefactor telescopes over characteristics,
    and it matches a product of two mixed scalars only at these arguments.
    At ``n == 1`` the scalar is the plain mixed coefficient of the
    coordinate-only R-matrix.
    """
    m = len(q)
    i, j = np.nonzero(~np.eye(m, dtype=bool))
    qa = np.array(q, dtype=complex)
    qij = qa[i] - qa[j]
    blocks = _bb_blocks(np.concatenate([[hbar], qij]), u, n, ctx)
    # hbar as an array too, so that m == 1 guards no unused argument
    mixed = mixed_scalar(np.full(qij.shape, hbar), qij, n, ctx)
    # entry [Ma, N1, Mb, N2, Ma', N1', Mb', N2'] of the diagonal blocks
    # E_ii (x) E_ii (x) R, exchange blocks E_ij (x) E_ji (x) R(qij) and
    # diagonal-diagonal scalars E_ii (x) E_jj (x) 1
    out = np.zeros((m, n) * 4, dtype=complex)
    diag = np.arange(m)
    out[diag, :, diag, :, diag, :, diag, :] = blocks[0]
    out[i, :, j, :, j, :, i, :] = blocks[1:]
    identity = np.eye(n * n).reshape((n,) * 4)
    out[i, :, j, :, i, :, j, :] = mixed[:, None, None, None, None] * identity
    dim = m * m * n * n
    return out.reshape(dim, dim)


def weight_projectors(m: int, n: int = 1) -> list[np.ndarray]:
    """Projectors onto the M-weight components of one site (C^M or C^M x C^N)."""
    eye_n = np.eye(n, dtype=complex)
    return [np.kron(matrix_unit(k, k, m), eye_n) for k in range(1, m + 1)]


def shifted_r(
    builder: Callable[[QVector], np.ndarray],
    q: Sequence[complex],
    hbar: complex,
    projectors: Sequence[np.ndarray],
) -> np.ndarray:
    """Weight-resolved dynamical shift: ``sum_k builder(q - hbar e_k) (x) P_k``.

    The result acts on (builder's two sites, shift site) in that factor
    order; the caller embeds it with the matching slot triple.
    """
    out = None
    for k, proj in enumerate(projectors):
        qk = tuple(v - hbar if i == k else v for i, v in enumerate(q))
        term = np.kron(builder(qk), proj)
        out = term if out is None else out + term
    return out


def _three_site(op: np.ndarray, slots: tuple[int, ...], site_dim: int) -> np.ndarray:
    return embed_matrix(op, slots, (site_dim, site_dim, site_dim))


def ybe_residual(
    hbar: complex, z1: complex, z2: complex, z3: complex, n: int, ctx: EllipticContext
) -> IdentityCheck:
    """Defect of the triple exchange relation for the vertex R-matrix."""
    r12 = _three_site(r_bb(hbar, z1 - z2, n, ctx), (1, 2), n)
    r13 = _three_site(r_bb(hbar, z1 - z3, n, ctx), (1, 3), n)
    r23 = _three_site(r_bb(hbar, z2 - z3, n, ctx), (2, 3), n)
    return relative_residual(r12 @ r13 @ r23, r23 @ r13 @ r12)


def dybe_residual_felder(
    hbar: complex,
    z1: complex,
    z2: complex,
    z3: complex,
    q: Sequence[complex],
    ctx: EllipticContext,
) -> IdentityCheck:
    """Defect of the dynamical triple exchange relation on C^M sites.

    Shifted insertions place the weight projector on the spectating site:
    the middle factor on the left, the outer factors on the right.
    """
    m = len(q)
    proj = weight_projectors(m)

    def r(u: complex, qq: Sequence[complex]) -> np.ndarray:
        return r_felder(hbar, u, qq, ctx)

    return _dynamical_triple(r, q, hbar, proj, m, z1, z2, z3)


def dybe_residual_slnm(
    hbar: complex,
    z1: complex,
    z2: complex,
    z3: complex,
    q: Sequence[complex],
    n: int,
    ctx: EllipticContext,
) -> IdentityCheck:
    """Defect of the dynamical triple exchange relation on composite sites."""
    m = len(q)
    proj = weight_projectors(m, n)

    def r(u: complex, qq: Sequence[complex]) -> np.ndarray:
        return r_slnm(hbar, u, qq, n, ctx)

    return _dynamical_triple(r, q, hbar, proj, m * n, z1, z2, z3)


def _dynamical_triple(
    r: Callable[[complex, QVector], np.ndarray],
    q: Sequence[complex],
    hbar: complex,
    proj: Sequence[np.ndarray],
    site_dim: int,
    z1: complex,
    z2: complex,
    z3: complex,
) -> IdentityCheck:
    q = tuple(q)
    z12, z13, z23 = z1 - z2, z1 - z3, z2 - z3
    lhs = (
        _three_site(r(z12, q), (1, 2), site_dim)
        @ _three_site(shifted_r(lambda qq: r(z13, qq), q, hbar, proj), (1, 3, 2), site_dim)
        @ _three_site(r(z23, q), (2, 3), site_dim)
    )
    rhs = (
        _three_site(shifted_r(lambda qq: r(z23, qq), q, hbar, proj), (2, 3, 1), site_dim)
        @ _three_site(r(z13, q), (1, 3), site_dim)
        @ _three_site(shifted_r(lambda qq: r(z12, qq), q, hbar, proj), (1, 2, 3), site_dim)
    )
    return relative_residual(lhs, rhs)


def zero_weight_residual(
    hbar: complex, u: complex, q: Sequence[complex], ctx: EllipticContext
) -> float:
    """Weight-zero defect of the dynamical R-matrix.

    Largest of: the commutator norms with the total weight projectors
    (E_ii (x) 1 + 1 (x) E_ii), and the change under a global coordinate
    translation q -> q + c (the matrix depends on q only through
    differences).
    """
    m = len(q)
    rf = r_felder(hbar, u, q, ctx)
    scale = max(float(np.linalg.norm(rf)), 1.0)
    worst = 0.0
    eye_m = np.eye(m, dtype=complex)
    for i in range(1, m + 1):
        eii = matrix_unit(i, i, m)
        total = np.kron(eii, eye_m) + np.kron(eye_m, eii)
        worst = max(worst, float(np.linalg.norm(total @ rf - rf @ total)) / scale)
    shift = 0.37 - 0.21j
    rf_shift = r_felder(hbar, u, tuple(v + shift for v in q), ctx)
    worst = max(worst, float(np.max(np.abs(rf_shift - rf))) / scale)
    return worst


def bb_l_operator_rll_residual(
    hbar: complex, z1: complex, z2: complex, n: int, ctx: EllipticContext
) -> IdentityCheck:
    """Defect of the exchange relation with the vertex R-matrix reused as a
    matrix L-operator on a third site: L_a(z) = R_{a3}(hbar, z)."""
    r12 = _three_site(r_bb(hbar, z1 - z2, n, ctx), (1, 2), n)
    l1 = _three_site(r_bb(hbar, z1, n, ctx), (1, 3), n)
    l2 = _three_site(r_bb(hbar, z2, n, ctx), (2, 3), n)
    return relative_residual(r12 @ l1 @ l2, l2 @ l1 @ r12)


def felder_dynamical_l_residual(
    hbar: complex, z1: complex, z2: complex, q: Sequence[complex], ctx: EllipticContext
) -> IdentityCheck:
    """Defect of the dynamical exchange relation with the dynamical R-matrix
    reused as its own L-operator on a third site.

    With L_a(z|q) = R_{a3}(hbar, z|q) the relation reads
    ``R_12(z12|q) L_1(z1|q - hbar^(2)) L_2(z2|q) =
    L_2(z2|q - hbar^(1)) L_1(z1|q) R_12(z12|q - hbar^(3))``.
    """
    m = len(q)
    proj = weight_projectors(m)
    q = tuple(q)

    def l_op(z: complex, qq: Sequence[complex]) -> np.ndarray:
        return r_felder(hbar, z, qq, ctx)

    z12 = z1 - z2
    lhs = (
        _three_site(r_felder(hbar, z12, q, ctx), (1, 2), m)
        @ _three_site(shifted_r(lambda qq: l_op(z1, qq), q, hbar, proj), (1, 3, 2), m)
        @ _three_site(l_op(z2, q), (2, 3), m)
    )
    rhs = (
        _three_site(shifted_r(lambda qq: l_op(z2, qq), q, hbar, proj), (2, 3, 1), m)
        @ _three_site(l_op(z1, q), (1, 3), m)
        @ _three_site(shifted_r(lambda qq: r_felder(hbar, z12, qq, ctx), q, hbar, proj), (1, 2, 3), m)
    )
    return relative_residual(lhs, rhs)


def slnm_reduction_residual_m1(
    hbar: complex, u: complex, q1: complex, n: int, ctx: EllipticContext
) -> float:
    """Elementwise gap between the composite matrix at M=1 and the vertex one."""
    a = r_slnm(hbar, u, (q1,), n, ctx)
    b = r_bb(hbar, u, n, ctx)
    return float(np.max(np.abs(a - b)))


def slnm_reduction_residual_n1(
    hbar: complex, u: complex, q: Sequence[complex], ctx: EllipticContext
) -> float:
    """Elementwise gap between the composite matrix at N=1 and the dynamical one."""
    a = r_slnm(hbar, u, q, 1, ctx)
    b = r_felder(hbar, u, q, ctx)
    return float(np.max(np.abs(a - b)))
