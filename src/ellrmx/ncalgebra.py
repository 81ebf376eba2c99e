"""L-operator ansatz, RLL defect spans, and their comparison.

The ansatz entries are linear in generators labelled (i, j, alpha) with
theta coefficients.  Moving a coefficient leftward past a generator shifts
its arguments by hbar on coordinate i of the first block and coordinate j
of the second.  In a two-letter word the second letter's theta argument
therefore moves by -1, 0 or +1 hbar.  The defect of the exchange relation
is assembled numerically from ansatz coefficients at those three shifts and
two R-matrices, as coefficient vectors over ordered two-letter words.  Each
set of such vectors becomes a :class:`RelationSet`, whose span is compared
against the closed-form relation families of :mod:`ellrmx.relations`
(rank, mutual inclusion, principal angles).  The relations are graded:
each vector is exactly zero outside one sector of words, so a set splits
into independent components with disjoint word supports, and every span
computation runs on small per-component SVDs.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .elliptic import (
    EllipticContext,
    LatticeIndex,
    guard_denominator,
    omega,
    omega_raw,
    theta,
)
from .relations import RelationVector, family_terms, family_tuples, generator_slot
from .rmatrix import DynamicalParams, r_slnm
from .tensor import basis_t, basis_t_raw

TWO_PI_I = 2j * cmath.pi


@dataclass(frozen=True)
class LConvention:
    """Ansatz convention: whether each L-term carries the exponential
    ``exp(2 pi i a2 z / n)`` alongside its theta coefficient."""

    exp_factor: bool = True


SHIFTS = (-1, 0, 1)


def l_operator(
    z: complex,
    q: DynamicalParams,
    n: int,
    conv: LConvention,
    ctx: EllipticContext,
) -> np.ndarray:
    """The composite-space ansatz as a table ``C[delta + 1, x, y, a]``.

    ``C[delta + 1, x, y, a]`` is the coefficient of the generator at slot
    ``a`` in entry (x, y) of the (m n) x (m n) ansatz, for a letter whose
    coefficient stands shifted by ``delta`` hbar (delta in -1, 0, +1).
    Entry block (i, j) houses the generators labelled (j, i, alpha) at
    ``generator_slot(j, i, alpha)``; each carries ``theta(z + q2_i - q1_j +
    omega_alpha + delta hbar)`` times the operator basis element at alpha,
    and with ``conv.exp_factor`` also ``exp(2 pi i alpha_2 z / n)``.
    """
    if q.q2 is None:
        raise ValueError("the ansatz needs two coordinate blocks")
    m = q.m
    a1, a2 = np.divmod(np.arange(n * n), n)
    # theta argument [delta + 1, alpha, i, j] of the generator (j, i, alpha)
    args = (
        (z + np.array(q.q2)[:, None]) - np.array(q.q1)
        + omega_raw(a1, a2, n, ctx.tau)[:, None, None]
        + np.array(SHIFTS)[:, None, None, None] * q.hbar
    )
    pref = np.exp(TWO_PI_I * a2 * z / n) if conv.exp_factor else np.ones(n * n)
    coeff = pref[:, None, None] * theta(args, ctx)
    t_mats = basis_t_raw(a1, a2, n)
    out = np.zeros((len(SHIFTS), m * n, m * n, m * m * n * n), dtype=complex)
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            block = coeff[:, :, i - 1, j - 1, None, None] * t_mats
            rows, cols = slice((i - 1) * n, i * n), slice((j - 1) * n, j * n)
            slots = generator_slot(j, i, (a1, a2), m, n)
            out[:, rows, cols, slots] = block.transpose(0, 2, 3, 1)
    return out


@functools.lru_cache(maxsize=2)
def _defect_table(
    n: int,
    m: int,
    params: DynamicalParams,
    z1: complex,
    z2: complex,
    conv: LConvention,
    ctx: EllipticContext,
) -> tuple[np.ndarray, np.ndarray]:
    """Word vectors of every matrix element of the exchange defect
    R(z1-z2 | q2) L1(z1) L2(z2) minus L2(z2) L1(z1) R(z1-z2 | q1).

    ``table[ao, bo, ai, bi]`` is the vector over ordered two-letter words
    (:func:`ellrmx.relations.word_slot` layout) of the element with
    composite indices (a_out, b_out, a_in, b_in).  In a word (a, a') the
    second letter's coefficient is shifted by ``[a'.j == a.j] - [a'.i ==
    a.i]`` hbar.  The right-hand R stands at q1: the entries a word meets
    depend only on ``q1_{a.i} - q1_{a'.i}``, which the word's shift ``hbar
    (e_{a.i} + e_{a'.i})`` leaves alone.  ``mass[ao, bo, ai, bi]`` is the
    norm over words of the summed term moduli, the scale against which a
    defect counts as an identical cancellation.  The two tables of the
    latest trial are memoized; results are read-only.
    """
    if params.q2 is None:
        raise ValueError("the exchange relation needs two coordinate blocks")
    if params.m != m:
        raise ValueError("coordinate vectors do not match m")
    d = m * n
    g = m * m * n * n
    z12 = z1 - z2
    la = l_operator(z1, params, n, conv, ctx)
    lb = l_operator(z2, params, n, conv, ctx)
    r_left = r_slnm(params.hbar, z12, params.q2, n, ctx).reshape(d, d, d, d)
    r_right = r_slnm(params.hbar, z12, params.q1, n, ctx).reshape(d, d, d, d)
    slot_i, slot_j = np.divmod(np.arange(g) // (n * n), m)
    # index along the SHIFTS axis of the second letter of each word (a, a')
    second = 1 + (slot_j[:, None] == slot_j) - (slot_i[:, None] == slot_i)
    table = np.empty((d, d, d, d, g, g), dtype=complex)
    mass_sq = np.zeros((d, d, d, d))
    # Slots sharing a first coordinate index are contiguous; one block of
    # words per (a.i, a'.i) pair bounds the contraction temporaries.
    span = g // m
    for k in range(m):
        first = slice(k * span, (k + 1) * span)
        for l in range(m):
            cols = np.arange(l * span, (l + 1) * span)
            shift = second[first, cols]
            # operands indexed [ao, bo, am, bm], [am, ai, a], [a, a', bm, bi]
            lhs = (r_left, la[1, :, :, first], lb[shift, :, :, cols])
            # operands indexed [bo, bm, a], [a, a', ao, am], [am, bm, ai, bi]
            rhs = (lb[1, :, :, first], la[shift, :, :, cols], r_right)
            table[..., first, cols] = _contract_lhs(*lhs) - _contract_rhs(*rhs)
            moduli = _contract_lhs(*map(np.abs, lhs)) + _contract_rhs(*map(np.abs, rhs))
            mass_sq += np.einsum("ABijab,ABijab->ABij", moduli, moduli)
    table = table.reshape(d, d, d, d, g * g)
    mass = np.sqrt(mass_sq)
    table.setflags(write=False)
    mass.setflags(write=False)
    return table, mass


def _contract_lhs(r_mat: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    return np.einsum("ABxy,xia,abyj->ABijab", r_mat, first, second, optimize=True)


def _contract_rhs(first: np.ndarray, second: np.ndarray, r_mat: np.ndarray) -> np.ndarray:
    return np.einsum("Bya,abAx,xyij->ABijab", first, second, r_mat, optimize=True)


@dataclass(frozen=True, eq=False)
class RelationSet:
    """Relation vectors stacked as rows, each normalized to unit length.

    Relations are projectively meaningful, so normalizing keeps the rank
    threshold honest when vector norms spread over orders of magnitude.
    The rows split into the connected components of their nonzero pattern:
    a component is a set of rows together with the word columns they
    touch.  Components have disjoint column supports, so the span is the
    direct sum of theirs; each takes one small thin SVD, on first use, and
    is cached.  An empty set is allowed (the 1 x 1 exchange relation is an
    exact identity) but cannot be compared.
    """

    rows: np.ndarray

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=complex)
        norms = _row_norms(rows)[:, None]
        if not (np.all(np.isfinite(rows)) and np.all(norms > 0)):
            raise ValueError("relation rows must be finite and nonzero")
        rows = rows / norms
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def of(cls, vectors: Sequence[RelationVector]) -> RelationSet:
        """The set of the given labelled vectors, in order."""
        dims = {v.coords.size for v in vectors}
        if len(dims) > 1:
            raise ValueError(f"mixed vector dimensions {sorted(dims)}")
        mat = np.array([v.coords for v in vectors], dtype=complex)
        return cls(mat.reshape(len(vectors), dims.pop() if dims else 0))

    def __len__(self) -> int:
        return self.rows.shape[0]

    @functools.cached_property
    def components(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(row indices, sorted word columns) of each component, in the
        order of their first columns.  Rows join by exact nonzeros."""
        r, c = np.nonzero(self.rows)
        root = _join_columns(r, c, self.rows.shape[1])
        first = np.searchsorted(r, np.arange(len(self)))
        cols = _distinct(c)
        return tuple(zip(_group_by(root[c[first]]), _group_by(root[cols], cols)))

    @functools.cached_property
    def bases(self) -> tuple[np.ndarray, ...]:
        """Orthonormal basis (as columns over the component's words) of the
        span of each component, cut at 1e-8 of the set's largest singular
        value; their widths sum to the rank."""
        svds = [
            np.linalg.svd(self.rows[np.ix_(rows, cols)], full_matrices=False)[1:]
            for rows, cols in self.components
        ]
        if not svds:
            raise ValueError("empty relation sets cannot be compared")
        cutoff = 1e-8 * max(sv[0] for sv, _ in svds)
        return tuple(vh[: int(np.sum(sv > cutoff))].T for sv, vh in svds)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """2-norms along the last axis, summed over the real and imaginary
    views: no temporaries the size of ``rows``."""
    return np.sqrt(
        np.einsum("...i,...i->...", rows.real, rows.real)
        + np.einsum("...i,...i->...", rows.imag, rows.imag)
    )


def _join_columns(groups: np.ndarray, cols: np.ndarray, width: int) -> np.ndarray:
    """Smallest column of the connected component of every column, where
    the columns of each group (``groups`` sorted, one entry per member
    column) are connected.  Hooks roots onto smaller ones until no pair
    of connected columns has two roots."""
    same = groups[1:] == groups[:-1]
    u, v = cols[:-1][same], cols[1:][same]
    root = np.arange(width)
    while True:
        while not np.array_equal(up := root[root], root):
            root = up
        ru, rv = root[u], root[v]
        split = ru != rv
        if not split.any():
            return root
        np.minimum.at(root, np.maximum(ru, rv)[split], np.minimum(ru, rv)[split])


def _group_by(labels: np.ndarray, items: np.ndarray | None = None) -> list[np.ndarray]:
    """``items`` (default: their positions) split by label, groups in label
    order, members in their original order."""
    if not labels.size:
        return []
    order = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.diff(labels[order])) + 1
    return np.split(order if items is None else items[order], starts)


def _distinct(indices: np.ndarray) -> np.ndarray:
    """Sorted distinct nonnegative indices.  Not ``np.unique``: it imports
    ``numpy.ma`` on first use, about 0.6 MB of resident memory."""
    ordered = np.sort(indices)
    return ordered[np.diff(ordered, prepend=-1) != 0]


def rll_defect(
    n: int,
    m: int,
    params: DynamicalParams,
    z1: complex,
    z2: complex,
    conv: LConvention,
    ctx: EllipticContext,
) -> RelationSet:
    """Defect vectors of the exchange relation for the L-ansatz.

    One row per matrix element of LHS minus RHS, evaluated at the numeric
    point.  Elements whose norm is at most 1e-12 of their own term mass
    are identical cancellations and are dropped; an exact identity (the
    1 x 1 case) gives an empty set.
    """
    table, mass = _defect_table(n, m, params, z1, z2, conv, ctx)
    keep = _row_norms(table) > 1e-12 * mass
    return RelationSet(table[keep])


def relation_vectors_reference(
    n: int, m: int, params: DynamicalParams, ctx: EllipticContext
) -> RelationSet:
    """Reference set of the four closed-form relation families of
    :func:`ellrmx.relations.family_terms`.

    Rows run over family 1 for every (j, i) (only for n >= 2), families 2
    and 3 in turn for every (i, j, k), and family 4 for every (i, k, j, l),
    each over every label pair (alpha outer, beta inner).  Identically
    cancelling label combinations are dropped, as are roundoff-sized
    vectors (norm at most 1e-9 of the largest).
    """
    if params.q2 is None:
        raise ValueError("the families need two coordinate blocks")
    if params.m != m:
        raise ValueError("coordinate vectors do not match m")
    ia, ib = np.divmod(np.arange(n**4), n * n)
    pairs = (ia // n, ia % n, ib // n, ib % n)

    def block(family: int) -> tuple[np.ndarray, np.ndarray]:
        return family_terms(family, family_tuples(family, m), pairs, n, params, ctx)

    blocks = [block(1)] if n > 1 else []
    if m > 1:
        # families 2 and 3 take turns over their shared index tuples
        blocks.append([np.stack(ab, axis=1) for ab in zip(block(2), block(3))])
        blocks.append(block(4))
    flat = [[a.reshape(-1, a.shape[-1]) for a in b] for b in blocks]
    g = m * m * n * n
    rows = np.zeros((sum(len(v) for v, _ in flat), g * g), dtype=complex)
    start = 0
    for values, words in flat:
        rows[np.arange(start, start + len(values))[:, None], words] = values
        start += len(values)
    norms = _row_norms(rows)
    # a non-finite row keeps every row, and the set rejects it
    keep = ~(norms <= 1e-9 * norms.max(initial=0.0))
    return RelationSet(rows[keep])


def span_rank(vectors: RelationSet) -> int:
    """Rank of the set: the summed widths of its component bases."""
    return sum(basis.shape[1] for basis in vectors.bases)


_Piece = tuple[np.ndarray, np.ndarray]


def _joint_blocks(
    a: RelationSet, b: RelationSet
) -> Iterator[tuple[np.ndarray, _Piece, _Piece]]:
    """The two sets restricted to each joint component of their rows.

    Yields the columns of each connected component of the union of both
    sets' nonzero patterns, and per set its (rows, basis) there: the row
    indices of its components inside, and their bases side by side on
    those columns.  Both spans are the direct sums of these pieces.
    """
    pieces = [
        (side, rows, cols, basis)
        for side, s in enumerate((a, b))
        for (rows, cols), basis in zip(s.components, s.bases)
    ]
    if a.rows.shape[1] != b.rows.shape[1]:
        raise ValueError("vector dimensions differ between the two sets")
    supports = [cols for _, _, cols, _ in pieces]
    groups = np.repeat(np.arange(len(pieces)), [cols.size for cols in supports])
    root = _join_columns(groups, np.concatenate(supports), a.rows.shape[1])
    for members in _group_by(np.array([root[cols[0]] for cols in supports])):
        inside = [pieces[k] for k in members]
        block = _distinct(np.concatenate([cols for _, _, cols, _ in inside]))
        yield block, *(_place(block, [p for p in inside if p[0] == side]) for side in (0, 1))


def _place(block: np.ndarray, pieces: list) -> _Piece:
    """Row indices of the given components, and their bases side by side
    on the columns of ``block``."""
    rows = [rows for _, rows, _, _ in pieces]
    width = sum(q.shape[1] for _, _, _, q in pieces)
    basis = np.zeros((block.size, width), dtype=complex)
    at = 0
    for _, _, cols, q in pieces:
        basis[np.searchsorted(block, cols), at : at + q.shape[1]] = q
        at += q.shape[1]
    return (np.concatenate(rows) if rows else np.zeros(0, dtype=int)), basis


def span_equal(a: RelationSet, b: RelationSet, tol: float) -> tuple[bool, float]:
    """Mutual-inclusion span test.

    Projects every vector of each set onto the span of the other; the
    metric is the worst relative least-squares residual, and the verdict is
    ``metric < tol``.  A row and its projection both lie on the row's
    joint component, so each projection is taken there.
    """
    worst = 0.0
    for block, (rows_a, qa), (rows_b, qb) in _joint_blocks(a, b):
        for s, rows, basis in ((a, rows_a, qb), (b, rows_b, qa)):
            if not rows.size:
                continue
            v = s.rows[np.ix_(rows, block)]
            res = v - (v @ basis.conj()) @ basis.T
            num = np.linalg.norm(res, axis=1)
            den = np.linalg.norm(v, axis=1)
            worst = max(worst, float(np.max(num / den)))
    return worst < tol, worst


def span_gap(a: RelationSet, b: RelationSet) -> float:
    """Largest principal-angle sine between the two spans (symmetric).

    Equals 0 for identical spans and reaches 1 when one span contains a
    direction orthogonal to the other, so rank mismatches surface as gaps
    of order one.  Both bases are block diagonal over the joint
    components, so the 2-norm is the largest over the blocks.
    """
    gap = 0.0
    for _, (_, qa), (_, qb) in _joint_blocks(a, b):
        for q, other in ((qa, qb), (qb, qa)):
            if q.shape[1]:
                res = q - other @ (other.conj().T @ q)
                gap = max(gap, float(np.linalg.norm(res, 2)))
    return gap


def component_ratio(
    i: int,
    j: int,
    k: int,
    alpha: LatticeIndex,
    beta: LatticeIndex,
    params: DynamicalParams,
    z1: complex,
    z2: complex,
    conv: LConvention,
    ctx: EllipticContext,
) -> np.ndarray:
    """Defect component with first-block steps i->j (one auxiliary space)
    and i->k (the other), projected onto the operator-basis pair (alpha,
    beta) and divided by its theta prefactors.

    The divisor is the product of the two letters' coefficient functions:
    ``theta(z2 + q2_i - q1_k + omega_beta) * theta(z1 + q2_i - q1_j + hbar
    + omega_alpha)`` together with their exponential factors when the
    convention carries them.  If the extraction is consistent the result
    does not depend on (z1, z2).
    """
    m = params.m
    n = alpha.n
    if j == k:
        raise ValueError("needs distinct first-block indices j != k")
    table, _ = _defect_table(n, m, params, z1, z2, conv, ctx)
    g = m * m * n * n
    ta = basis_t(alpha)
    tb = basis_t(beta)
    comp = np.zeros(g * g, dtype=complex)
    for r_out in range(n):
        for r_in in range(n):
            wa = np.conj(ta[r_out, r_in])
            if wa == 0:
                continue
            for s_out in range(n):
                for s_in in range(n):
                    wb = np.conj(tb[s_out, s_in])
                    if wb == 0:
                        continue
                    key = (
                        (i - 1) * n + r_out,
                        (i - 1) * n + s_out,
                        (j - 1) * n + r_in,
                        (k - 1) * n + s_in,
                    )
                    comp += wa * wb * table[key]
    comp /= n * n
    d_b = z2 + params.q2[i - 1] - params.q1[k - 1] + omega(beta, ctx)
    d_a = z1 + params.q2[i - 1] - params.q1[j - 1] + params.hbar + omega(alpha, ctx)
    guard_denominator("beta prefactor argument", d_b, ctx.tau)
    guard_denominator("alpha prefactor argument", d_a, ctx.tau)
    div = theta(d_b, ctx) * theta(d_a, ctx)
    if conv.exp_factor:
        div *= cmath.exp(TWO_PI_I * (alpha.a2 * z1 + beta.a2 * z2) / n)
    return comp / div


def defect_factorization_check(
    i: int,
    j: int,
    k: int,
    alpha: LatticeIndex,
    beta: LatticeIndex,
    params: DynamicalParams,
    z_samples: Sequence[tuple[complex, complex]],
    conv: LConvention,
    ctx: EllipticContext,
) -> float | None:
    """Worst relative variation of :func:`component_ratio` across z-samples.

    A small value certifies that the z-dependence of this defect component
    factorizes into the theta prefactors, leaving a z-free relation vector
    (proportional to the family-2 vector for the same labels).  Returns
    None at m == 1, where no pair j != k exists and the check is vacuous.
    """
    if params.m == 1:
        return None
    if len(z_samples) < 2:
        raise ValueError("need at least two z-samples")
    ratios = [
        component_ratio(i, j, k, alpha, beta, params, z1, z2, conv, ctx)
        for z1, z2 in z_samples
    ]
    ref = ratios[0]
    scale = float(np.max(np.abs(ref)))
    if scale == 0.0:
        return 0.0
    worst = 0.0
    for other in ratios[1:]:
        worst = max(worst, float(np.max(np.abs(other - ref))) / scale)
    return worst
