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
index picks the matrix.  The exchange residuals contract both sides
sector by sector (see :func:`_sector_plan`) and never form the three-site
space.  They take 1-d arrays of trial parameters, one entry per trial
(scalars broadcast), and return a 1-d array of one residual per trial:
every trial's matrices for one identity come from one stacked build, and
the sides from products with a leading trial axis, so that a trial's
residual does not depend on the batch it is in.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .elliptic import EllipticContext, kronecker_phi, varphi
from .tensor import basis_t_raw

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
    """Frobenius defect of ``lhs == rhs`` scaled by the larger side (floor 1).

    The difference overwrites ``lhs``, so that no third array of the sides'
    size is held; its elements keep ``lhs``'s order, that of a new array,
    so the norm keeps its bits.
    """
    norm = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1.0)
    np.subtract(lhs, rhs, out=lhs)
    return float(np.linalg.norm(lhs) / norm)


def r_bb(hbar, u, n: int, ctx: EllipticContext) -> np.ndarray:
    """Vertex R-matrix on C^n x C^n: characteristic sum of twisted kernels
    against basis pairs T_alpha (x) T_{-alpha}.  An array of ``u`` gives
    the stack of matrices, and ``hbar`` may be an array of ``u``'s shape.

    The second basis factor uses the *integer* negation of the canonical
    representative; the product of the sign picked up by each factor under a
    representative change cancels, so each term is well defined.
    """
    x = np.asarray(hbar, dtype=complex)[..., None]
    blocks = _bb_blocks(x, np.asarray(u)[..., None], n, ctx)
    return blocks.reshape(np.shape(u) + (n * n, n * n))


def _bb_blocks(x: np.ndarray, u: np.ndarray, n: int, ctx: EllipticContext) -> np.ndarray:
    """:func:`r_bb` at the Planck parameters ``x`` and the spectral
    parameters ``u``, which broadcast, as ``[..., i1, i2, j1, j2]`` (row
    i1 i2, column j1 j2), from one kernel call; the n^2 characteristic
    terms are summed in place, in the order of a sum over their axis."""
    a1, a2 = np.divmod(np.arange(n * n), n)
    coeff = varphi(a1, a2, u[..., None], x[..., None], n, ctx)[..., None, None, None, None]
    # kron(T_a, T_-a) for every a, indexed [a, i, k, j, l]
    first = basis_t_raw(a1, a2, n)[:, :, None, :, None]
    pairs = first * basis_t_raw(-a1, -a2, n)[:, None, :, None, :]
    out = coeff[..., 0, :, :, :, :] * pairs[0]
    for a in range(1, n * n):
        out += coeff[..., a, :, :, :, :] * pairs[a]
    return out


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


@functools.lru_cache(maxsize=4)
def _sector_plan(m: int, n: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Sector blocks of the exchange factors on three sites of dimension
    d = m n, each index a = i n + x with M-index i and N-index x.

    Every factor of ``R12 S13 R23 = S23 R13 S12`` keeps the multiset of the
    three M-indices and the N-index sum mod n, so both sides are block
    diagonal over C(m+2, 3) n sectors of (arrangements of the M-indices)
    n^2 triples.  Per sector size s, a (6, S, s, s) array locates the
    blocks of R12, S13, R23, S23, R13 and S12 in a trial's flattened stack
    (see :func:`_exchange_residuals`).  Where a factor's spectator changes,
    its block reads an entry outside its pair's pattern, as do the listed
    entries of a flattened two-site matrix that come last.
    """
    d = m * n
    weight, charge = np.divmod(np.arange(d), n)
    sites = np.indices((d,) * 3).reshape(3, -1)
    w = np.sort(weight[sites], axis=0)
    label = ((w[0] * m + w[1]) * m + w[2]) * n + charge[sites].sum(axis=0) % n
    order = np.argsort(label, kind="stable")
    size = np.bincount(label)
    size = size[size > 0]
    first = np.cumsum(size) - size
    matrix = d**4
    classes = []
    for s in sorted(set(size.tolist())):
        triples = sites[:, order[first[size == s, None] + np.arange(s)]]
        rows, cols = triples[..., :, None], triples[..., None, :]
        gather = []
        # pairs 12, 13 and 23 with their spectating sites
        for p, (x, y, z) in enumerate(((0, 1, 2), (0, 2, 1), (1, 2, 0))):
            entry = p * (m + 1) * matrix + (rows[x] * d + rows[y]) * d * d + cols[x] * d + cols[y]
            gather += [entry, entry + (1 + weight[rows[z]]) * matrix]
        classes.append(np.stack([gather[f] for f in (0, 3, 4, 5, 2, 1)]))
    pair = np.indices((d,) * 4).reshape(4, -1)
    same = np.sort(weight[pair[:2]], axis=0) == np.sort(weight[pair[2:]], axis=0)
    conserved = same.all(axis=0) & ((charge[pair[:2]].sum(0) - charge[pair[2:]].sum(0)) % n == 0)
    return tuple(classes), np.flatnonzero(~conserved)


def _squares(x: np.ndarray) -> np.ndarray:
    """Sum of the squared moduli of each ``x[t]``."""
    v = x.view(np.float64).reshape(len(x), 1, -1)
    return np.matmul(v, v.transpose(0, 2, 1)).ravel()


def _sector_sides(part: np.ndarray, gather: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both sides on the sectors ``gather`` of :func:`_sector_plan` for
    each trial of the flattened stacks ``part``, as [t, sector, i, j]."""
    block = lambda f: np.take(part, gather[f], axis=1)
    x = block(1) @ block(2)
    lhs = block(0) @ x
    del x
    y = block(4) @ block(5)
    return lhs, block(3) @ y


#: Entries (512 KiB) that a chunk of an exchange contraction holds at once:
#: per trial, the four blocks of the largest sector size that a side holds.
_CHUNK_ENTRIES = 1 << 15


def _exchange_residuals(stack: np.ndarray) -> np.ndarray:
    """:func:`relative_residual` of ``R12 S13 R23 = S23 R13 S12`` on three
    sites of dimension d, for each trial of a stack.

    ``stack[t, p]`` holds trial t's matrices of pair p (12, 13, 23; rows
    and columns ordered first site, second site): R at slot 0, and at slot
    1 + i the shifted factor S that applies where the spectating site's
    M-index is i.  The sides are the products of the factors' sector
    blocks, which hold all of a factor's entries in its pair's pattern.
    The norm of the entries outside it, exactly 0.0 on correct matrices,
    bounds the residual from below, so that a leaked entry fails the check
    whatever the matrices' scale.
    """
    k, _, slots = stack.shape[:3]
    d = math.isqrt(stack.shape[-1])
    classes, outside = _sector_plan(slots - 1, d // (slots - 1))
    flat = stack.reshape(k, -1)
    chunk = max(1, _CHUNK_ENTRIES // (4 * max(g[0].size for g in classes)))
    # squared norms of each trial's sides, of their difference and of its
    # matrices' entries outside their pattern
    total = np.zeros((k, 4))
    for at in range(0, k, chunk):
        part, here = flat[at : at + chunk], total[at : at + chunk]
        here[:, 3] = _squares(np.take(part.reshape(len(part), 3 * slots, -1), outside, axis=2))
        for gather in classes:
            lhs, rhs = _sector_sides(part, gather)
            here[:, 0] += _squares(lhs)
            here[:, 1] += _squares(rhs)
            here[:, 2] += _squares(np.subtract(lhs, rhs, out=lhs))
    norm = np.sqrt(total)
    relative = norm[:, 2] / np.maximum(np.maximum(norm[:, 0], norm[:, 1]), 1.0)
    return np.maximum(relative, norm[:, 3])


def _trials(*values) -> list[np.ndarray]:
    """Per-trial arguments (scalars broadcast) as 1-d arrays of one length."""
    return [np.atleast_1d(v) for v in np.broadcast_arrays(*values)]


def _dynamical_trials(q, *values) -> tuple[list[np.ndarray], np.ndarray]:
    """:func:`_trials` of ``values``, and the trials' coordinates ``q`` as a
    (K, M) array (one (M,) vector serves every trial)."""
    q = np.asarray(q, dtype=complex)
    values = _trials(*values, q[..., 0])[:-1]
    return values, np.broadcast_to(q, (len(values[0]), q.shape[-1]))


def _pair_points(z1, z2, z3) -> np.ndarray:
    """Spectral parameters of the pairs 12, 13 and 23 of each trial, (K, 3)."""
    return np.stack([z1 - z2, z1 - z3, z2 - z3], axis=-1)


def ybe_residual(hbar, z1, z2, z3, n: int, ctx: EllipticContext):
    """Defect of the triple exchange relation for the vertex R-matrix.

    1-d arrays of the arguments (one entry per trial; scalars broadcast)
    give one residual per trial from one stacked build.
    """
    hbar, z1, z2, z3 = _trials(hbar, z1, z2, z3)
    u = _pair_points(z1, z2, z3)
    r = r_bb(np.broadcast_to(hbar[:, None], u.shape), u, n, ctx)
    # every factor is its own shift at m = 1
    return _exchange_residuals(np.stack([r, r], axis=2))


def _triple_points(hbar, z1, z2, z3, q) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Planck parameters, spectral parameters and coordinates of every
    factor of K dynamical triples (1-d arrays, and ``q`` of shape (K, M)),
    for one stacked build: each trial's pairs 12, 13 and 23, each at ``q``
    and then at ``q - hbar e_k`` for every k."""
    m = q.shape[-1]
    qs = np.repeat(q[:, None], m + 1, axis=1)
    qs[:, np.arange(1, m + 1), np.arange(m)] -= hbar[:, None]
    u = np.repeat(_pair_points(z1, z2, z3), m + 1, axis=1)
    return np.repeat(hbar, u.shape[1]), u.ravel(), np.tile(qs, (1, 3, 1)).reshape(-1, m)


def _dynamical_residuals(build, hbar, z1, z2, z3, q):
    """Residuals of the dynamical triple exchange relation for the builder
    ``build(hbar, u, q)``, from one stacked build at :func:`_triple_points`.
    A (K, M) array of ``q`` goes with 1-d arrays of the other arguments."""
    (hbar, z1, z2, z3), q = _dynamical_trials(q, hbar, z1, z2, z3)
    stack = build(*_triple_points(hbar, z1, z2, z3, q))
    stack = stack.reshape(len(hbar), 3, q.shape[-1] + 1, *stack.shape[1:])
    return _exchange_residuals(stack)


def dybe_residual_felder(hbar, z1, z2, z3, q, ctx: EllipticContext):
    """Defect of the dynamical triple exchange relation on C^M sites.

    Shifted insertions place the weight projector on the spectating site:
    the middle factor on the left, the outer factors on the right.  1-d
    arrays of ``hbar`` and the points with a (K, M) array of ``q`` give one
    residual per trial.
    """
    return _dynamical_residuals(
        lambda h, u, qs: r_felder(h, u, qs, ctx), hbar, z1, z2, z3, q
    )


def dybe_residual_slnm(hbar, z1, z2, z3, q, n: int, ctx: EllipticContext):
    """Defect of the dynamical triple exchange relation on composite sites;
    arrays as for :func:`dybe_residual_felder`."""
    return _dynamical_residuals(
        lambda h, u, qs: r_slnm(h, u, qs, n, ctx), hbar, z1, z2, z3, q
    )


def zero_weight_residual(hbar, u, q, ctx: EllipticContext):
    """Weight-zero defect of the dynamical R-matrix.

    Largest of: the norm of the entries that break weight conservation
    (those outside the pattern of :func:`_sector_plan` at n = 1, where
    the multisets of row and column indices differ; R commutes with every
    total weight projector E_ii (x) 1 + 1 (x) E_ii exactly when they are
    zero), and the change under a global coordinate translation
    q -> q + c (the matrix depends on q only through differences), each
    over the larger of the matrix's norm and 1.  1-d arrays of ``hbar``
    and ``u`` with a (K, M) array of ``q`` give one defect per trial.
    """
    (hbar, u), q = _dynamical_trials(q, hbar, u)
    rf = r_felder(hbar, u, q, ctx)
    shift = 0.37 - 0.21j
    moved = np.max(np.abs(r_felder(hbar, u, q + shift, ctx) - rf), axis=(-2, -1))
    _, outside = _sector_plan(q.shape[-1], 1)
    leaked = np.sqrt(_squares(np.take(rf.reshape(len(rf), -1), outside, axis=1)))
    scale = np.maximum([np.linalg.norm(r) for r in rf], 1.0)
    return np.maximum(leaked, moved) / scale


def bb_l_operator_rll_residual(hbar, z1, z2, n: int, ctx: EllipticContext):
    """Defect of the exchange relation with the vertex R-matrix reused as a
    matrix L-operator on a third site, L_a(z) = R_{a3}(hbar, z): the triple
    relation at z3 = 0."""
    return ybe_residual(hbar, z1, z2, 0, n, ctx)


def felder_dynamical_l_residual(hbar, z1, z2, q, ctx: EllipticContext):
    """Defect of the dynamical exchange relation with the dynamical R-matrix
    reused as its own L-operator on a third site: the triple relation at
    z3 = 0.

    With L_a(z|q) = R_{a3}(hbar, z|q) the relation reads
    ``R_12(z12|q) L_1(z1|q - hbar^(2)) L_2(z2|q) =
    L_2(z2|q - hbar^(1)) L_1(z1|q) R_12(z12|q - hbar^(3))``.
    """
    return dybe_residual_felder(hbar, z1, z2, 0, q, ctx)


def slnm_reduction_residual_m1(hbar, u, q1, n: int, ctx: EllipticContext):
    """Elementwise gap between the composite matrix at M=1 and the vertex
    one.  1-d arrays of ``u``, ``hbar`` and ``q1`` give the trials' gaps."""
    hbar, u, q1 = _trials(hbar, u, q1)
    a = r_slnm(hbar, u, q1[:, None], n, ctx)
    return np.max(np.abs(a - r_bb(hbar, u, n, ctx)), axis=(-2, -1))


def slnm_reduction_residual_n1(hbar, u, q, ctx: EllipticContext):
    """Elementwise gap between the composite matrix at N=1 and the dynamical
    one.  1-d arrays of ``u`` and ``hbar`` with a (K, M) array of ``q``
    give the K trials' gaps."""
    (hbar, u), q = _dynamical_trials(q, hbar, u)
    a = r_slnm(hbar, u, q, 1, ctx)
    return np.max(np.abs(a - r_felder(hbar, u, q, ctx)), axis=(-2, -1))
