"""Three elliptic R-matrices and the residuals of their exchange identities.

The vertex R-matrix lives on C^N x C^N and is a characteristic sum over the
operator basis.  The dynamical R-matrix lives on C^M x C^M and depends on a
vector q of dynamical coordinates through matrix units.  The composite
R-matrix interleaves both structures on (C^M x C^N)^2; its canonical site
ordering places each M-factor immediately before its N-factor partner.

Every builder also takes a 1-d array of spectral parameters, with one
coordinate vector per entry, and builds the whole stack from one kernel
call.  Dynamical shifts q -> q - hbar e_k inside a product act diagonally
on the weight components of the shifted site, so a shifted factor is
``sum_k R(q - hbar e_k) (x) P_k``: the M-weight of the spectator site's
index picks the matrix.  The exchange residuals apply every factor site by
site and never embed one into the three-site space.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .elliptic import EllipticContext, kronecker_phi, varphi
from .tensor import basis_t_raw, matrix_unit

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

    @property
    def m(self) -> int:
        return len(self.q1)


def relative_residual(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Frobenius defect of ``lhs == rhs`` scaled by the larger side (floor 1)."""
    norm = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1.0)
    return float(np.linalg.norm(lhs - rhs) / norm)


def r_bb(hbar: complex, u, n: int, ctx: EllipticContext) -> np.ndarray:
    """Vertex R-matrix on C^n x C^n: characteristic sum of twisted kernels
    against basis pairs T_alpha (x) T_{-alpha}.  A 1-d array of ``u`` gives
    the stack of matrices.

    The second basis factor uses the *integer* negation of the canonical
    representative; the product of the sign picked up by each factor under a
    representative change cancels, so each term is well defined.
    """
    blocks = _bb_blocks(np.array([hbar], dtype=complex), np.asarray(u)[..., None], n, ctx)
    return blocks.reshape(np.shape(u) + (n * n, n * n))


def _bb_blocks(x: np.ndarray, u: np.ndarray, n: int, ctx: EllipticContext) -> np.ndarray:
    """:func:`r_bb` at the Planck parameters ``x`` and the spectral
    parameters ``u``, which broadcast, as ``[..., i1, i2, j1, j2]`` (row
    i1 i2, column j1 j2), from one kernel call."""
    a1, a2 = np.divmod(np.arange(n * n), n)
    coeff = varphi(a1, a2, u[..., None], x[..., None], n, ctx)
    # kron(T_a, T_-a) for every a, indexed [a, i, k, j, l]
    first = basis_t_raw(a1, a2, n)[:, :, None, :, None]
    pairs = first * basis_t_raw(-a1, -a2, n)[:, None, :, None, :]
    return (coeff[..., None, None, None, None] * pairs).sum(axis=-5)


def r_felder(hbar, u, q, ctx: EllipticContext) -> np.ndarray:
    """Dynamical R-matrix on C^M x C^M for coordinates ``q``; a 1-d array
    of ``u`` with a (K, M) array of ``q`` gives the K matrices, and
    ``hbar`` may be an array of ``u``'s shape.

    Diagonal pairs carry the kernel at ``(u, hbar)``, exchange pairs the
    kernel at the coordinate difference, and diagonal-diagonal pairs the
    kernel at ``(hbar, -difference)``.
    """
    u, q = np.asarray(u), np.asarray(q, dtype=complex)
    m = q.shape[-1]
    i, j = np.nonzero(~np.eye(m, dtype=bool))
    qij = q[..., i] - q[..., j]
    k = len(i)
    phi = kronecker_phi(
        np.repeat(np.stack(np.broadcast_arrays(u, u, hbar), axis=-1), [1, k, k], axis=-1),
        np.concatenate([_column(hbar, u.shape), qij, -qij], axis=-1),
        ctx,
    ).reshape(-1, 1 + 2 * k)
    # entry [i, i', j, j'] of E_ii (x) E_ii, E_ij (x) E_ji and E_ii (x) E_jj
    out = np.zeros((len(phi), m, m, m, m), dtype=complex)
    at, diag = np.arange(len(phi))[:, None], np.arange(m)
    out[at, diag, diag, diag, diag] = phi[:, :1]
    out[at, i, j, j, i] = phi[:, 1 : k + 1]
    out[at, i, j, i, j] = phi[:, k + 1 :]
    return out.reshape(u.shape + (m * m, m * m))


def _column(hbar, shape: tuple[int, ...]) -> np.ndarray:
    """``hbar`` (a scalar, or an array of ``shape``) as a complex array of
    ``shape + (1,)``."""
    return np.broadcast_to(np.asarray(hbar, dtype=complex)[..., None], shape + (1,))


def mixed_scalar(hbar: complex, x: complex, n: int, ctx: EllipticContext) -> complex:
    """Diagonal-diagonal coefficient of the composite R-matrix: ``n phi(n hbar, -n x)``.

    Reduces to the plain mixed coefficient ``phi(hbar, -x)`` at ``n == 1``;
    see :func:`r_slnm` for why the n-fold rescaling is forced.  Arrays
    broadcast.
    """
    return n * kronecker_phi(n * hbar, -n * x, ctx)


def r_slnm(hbar, u, q, n: int, ctx: EllipticContext) -> np.ndarray:
    """Composite R-matrix on (C^M x C^N)^2 in canonical site order; a 1-d
    array of ``u`` with a (K, M) array of ``q`` gives the K matrices, and
    ``hbar`` may be an array of ``u``'s shape.

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
    u, q = np.asarray(u), np.asarray(q, dtype=complex)
    m = q.shape[-1]
    i, j = np.nonzero(~np.eye(m, dtype=bool))
    qij = q[..., i] - q[..., j]
    column = _column(hbar, u.shape)
    x = np.concatenate([column, qij], axis=-1)
    blocks = _bb_blocks(x, u[..., None], n, ctx).reshape(-1, len(i) + 1, n, n, n, n)
    # hbar as an array too, so that m == 1 guards no unused argument
    mixed = mixed_scalar(np.broadcast_to(column, qij.shape), qij, n, ctx)
    # entry [Ma, N1, Mb, N2, Ma', N1', Mb', N2'] of the diagonal blocks
    # E_ii (x) E_ii (x) R, exchange blocks E_ij (x) E_ji (x) R(qij) and
    # diagonal-diagonal scalars E_ii (x) E_jj (x) 1
    out = np.zeros((len(blocks),) + (m, n) * 4, dtype=complex)
    at, diag = np.arange(len(blocks))[:, None], np.arange(m)
    out[at, diag, :, diag, :, diag, :, diag, :] = blocks[:, :1]
    out[at, i, :, j, :, j, :, i, :] = blocks[:, 1:]
    identity = np.eye(n * n).reshape((n,) * 4)
    out[at, i, :, j, :, i, :, j, :] = mixed.reshape(len(out), -1, 1, 1, 1, 1) * identity
    dim = m * m * n * n
    return out.reshape(u.shape + (dim, dim))


def _exchange_sides(
    r: np.ndarray, shifted: np.ndarray, weight: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of ``R12 S13 R23 = S23 R13 S12`` on three sites of dimension d.

    ``r`` stacks the two-site matrices R12, R13 and R23 (rows and columns
    ordered first site, second site).  A shifted factor S applies
    ``shifted[p, w]``, pair p's matrix, where the index of the third,
    spectating site has weight w; ``weight`` maps a site index to its
    weight.  S13 R23 and R13 S12 are batched over the spectator index, so
    no factor is embedded in the (d^3 x d^3) space.  Both sides come back
    indexed [a, b, c, a', b', c'] (row a b c, column a' b' c'); the right
    side is a transposed view.
    """
    d = len(weight)
    r12, r13, r23 = r.reshape(3, d, d, d, d)
    s12, s13, s23 = shifted[:, weight].reshape(3, d, d, d, d, d)
    # S13 R23 as [b, a, c, a', b', c'], then R12 with its columns as (b, a)
    x = np.matmul(s13.reshape(d, d**3, d), r23.reshape(d, d, d * d))
    lhs = r12.transpose(0, 1, 3, 2).reshape(d * d, d * d) @ x.reshape(d * d, d**4)
    del x
    # R13 S12 as [c', a, c, b, a', b'], then S23 with its columns as (c, b)
    y = np.matmul(r13.transpose(3, 0, 1, 2).reshape(d, d * d, d), s12.reshape(d, d, d**3))
    rhs = np.matmul(
        s23.transpose(0, 1, 2, 4, 3).reshape(d, d * d, d * d), y.reshape(d, d, d * d, d * d)
    )
    return lhs.reshape((d,) * 6), rhs.reshape((d,) * 6).transpose(1, 2, 3, 4, 5, 0)


def _triple_points(
    hbar: complex, z1: complex, z2: complex, z3: complex, q: Sequence[complex]
) -> tuple[np.ndarray, np.ndarray]:
    """Spectral parameters and coordinates of every factor of a dynamical
    triple, for one stacked build: the pairs 12, 13 and 23, each at ``q``
    and then at ``q - hbar e_k`` for every k."""
    m = len(q)
    qs = np.tile(np.array(q, dtype=complex), (m + 1, 1))
    qs[np.arange(1, m + 1), np.arange(m)] -= hbar
    return np.repeat([z1 - z2, z1 - z3, z2 - z3], m + 1), np.tile(qs, (3, 1))


def _dynamical_sides(stack: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_exchange_sides` of a stack built at :func:`_triple_points`,
    on sites whose M-weight is the index divided by ``n``."""
    m = len(stack) // 3 - 1
    stack = stack.reshape(3, m + 1, *stack.shape[1:])
    return _exchange_sides(stack[:, 0], stack[:, 1:], np.arange(m * n) // n)


def ybe_residual(
    hbar: complex, z1: complex, z2: complex, z3: complex, n: int, ctx: EllipticContext
) -> float:
    """Defect of the triple exchange relation for the vertex R-matrix."""
    r = r_bb(hbar, np.array([z1 - z2, z1 - z3, z2 - z3]), n, ctx)
    return relative_residual(*_exchange_sides(r, r[:, None], np.zeros(n, dtype=int)))


def dybe_residual_felder(
    hbar: complex,
    z1: complex,
    z2: complex,
    z3: complex,
    q: Sequence[complex],
    ctx: EllipticContext,
) -> float:
    """Defect of the dynamical triple exchange relation on C^M sites.

    Shifted insertions place the weight projector on the spectating site:
    the middle factor on the left, the outer factors on the right.
    """
    stack = r_felder(hbar, *_triple_points(hbar, z1, z2, z3, q), ctx)
    return relative_residual(*_dynamical_sides(stack, 1))


def dybe_residual_slnm(
    hbar: complex,
    z1: complex,
    z2: complex,
    z3: complex,
    q: Sequence[complex],
    n: int,
    ctx: EllipticContext,
) -> float:
    """Defect of the dynamical triple exchange relation on composite sites."""
    stack = r_slnm(hbar, *_triple_points(hbar, z1, z2, z3, q), n, ctx)
    return relative_residual(*_dynamical_sides(stack, n))


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
) -> float:
    """Defect of the exchange relation with the vertex R-matrix reused as a
    matrix L-operator on a third site, L_a(z) = R_{a3}(hbar, z): the triple
    relation at z3 = 0."""
    return ybe_residual(hbar, z1, z2, 0, n, ctx)


def felder_dynamical_l_residual(
    hbar: complex, z1: complex, z2: complex, q: Sequence[complex], ctx: EllipticContext
) -> float:
    """Defect of the dynamical exchange relation with the dynamical R-matrix
    reused as its own L-operator on a third site: the triple relation at
    z3 = 0.

    With L_a(z|q) = R_{a3}(hbar, z|q) the relation reads
    ``R_12(z12|q) L_1(z1|q - hbar^(2)) L_2(z2|q) =
    L_2(z2|q - hbar^(1)) L_1(z1|q) R_12(z12|q - hbar^(3))``.
    """
    return dybe_residual_felder(hbar, z1, z2, 0, q, ctx)


def slnm_reduction_residual_m1(
    hbar: complex, u: complex, q1: complex, n: int, ctx: EllipticContext
) -> float:
    """Elementwise gap between the composite matrix at M=1 and the vertex one."""
    a = r_slnm(hbar, u, (q1,), n, ctx)
    b = r_bb(hbar, u, n, ctx)
    return float(np.max(np.abs(a - b)))


def slnm_reduction_residual_n1(hbar, u, q, ctx: EllipticContext):
    """Elementwise gap between the composite matrix at N=1 and the dynamical
    one.  A 1-d array of ``u``, with ``hbar`` of its shape and a (K, M)
    array of ``q``, gives the K trials' gaps."""
    a = r_slnm(hbar, u, q, 1, ctx)
    b = r_felder(hbar, u, q, ctx)
    gap = np.max(np.abs(a - b), axis=(-2, -1))
    return gap if np.ndim(u) else float(gap)
