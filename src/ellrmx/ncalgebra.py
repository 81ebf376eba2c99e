"""L-operator ansatz, RLL defect relations, and the reference relations.

The ansatz entries are linear in generators labelled (i, j, alpha) with
theta coefficients.  Moving a coefficient leftward past a generator shifts
its arguments by hbar on coordinate i of the first block and coordinate j
of the second.  In a two-letter word the second letter's theta argument
therefore moves by -1, 0 or +1 hbar.  The defect of the exchange relation
is assembled numerically from ansatz coefficients at those three shifts and
two R-matrices, as coefficient vectors over ordered two-letter words: each
word of a defect element is one product on each side, gathered over the
nonzeros of the four factors, with its scale from the same pass.  One
cancellation rule, applied once, to words: a word at most
``CANCELLATION`` of its products' summed moduli is an identical
cancellation and holds 0.0.  The points of a batch of trials are gathered
together into one table, one row of values a point over the rows and
words that any of them keeps; the points of one (n, m) keep one nonzero
pattern.  Which rows a set has is decided in one place,
:meth:`ellrmx.spans.RelationSet.from_terms`, which drops a row with no
nonzero term: an element that cancels identically, or a reference relation
that is exactly zero.  The relations are graded, so almost every
coefficient is zero: each set is built and held as its terms only, becomes
a :class:`ellrmx.spans.RelationSet`, and is compared there against the
closed-form relation families of :mod:`ellrmx.relations` by
:func:`ellrmx.spans.span_bound`, which never factors the defect set.  A
defect table is a plain value that carries the points it was built at:
whoever builds it holds it for as long as the defect sets and the
factorization components are read from it, and nothing keeps it longer.
"""

from __future__ import annotations

import cmath
from typing import NamedTuple, Sequence

import numpy as np

from .elliptic import TWO_PI_I, EllipticContext, guard_denominator, omega_raw, theta
from .relations import family_terms, family_tuples, family_width, generator_slot
from .rmatrix import DynamicalParams, r_slnm
from .sklyanin import label_pair_chunks
# The span functions are re-exported: bench/tracer.py looks them up here,
# with the defect and reference builds they compare.
from .spans import CANCELLATION, RelationSet, span_equal, span_gap, span_rank
from .tensor import basis_t_raw

SHIFTS = (-1, 0, 1)


def l_operator(
    z: complex,
    q: DynamicalParams,
    n: int,
    ctx: EllipticContext,
) -> np.ndarray:
    """The composite-space ansatz as a table ``C[delta + 1, x, y, a]``.

    ``C[delta + 1, x, y, a]`` is the coefficient of the generator at slot
    ``a`` in entry (x, y) of the (m n) x (m n) ansatz, for a letter whose
    coefficient stands shifted by ``delta`` hbar (delta in -1, 0, +1).
    Entry block (i, j) houses the generators labelled (j, i, alpha) at
    ``generator_slot(j, i, alpha)``; each carries ``exp(2 pi i alpha_2 z /
    n) theta(z + q2_i - q1_j + omega_alpha + delta hbar)`` times the
    operator basis element at alpha.  The exponential is the factor of the
    nontrivial characteristic class: without it the exchange relation does
    not close.
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
    coeff = np.exp(TWO_PI_I * a2 * z / n)[:, None, None] * theta(args, ctx)
    t_mats = basis_t_raw(a1, a2, n)
    out = np.zeros((len(SHIFTS), m * n, m * n, m * m * n * n), dtype=complex)
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            block = coeff[:, :, i - 1, j - 1, None, None] * t_mats
            rows, cols = slice((i - 1) * n, i * n), slice((j - 1) * n, j * n)
            slots = generator_slot(j, i, (a1, a2), m, n)
            out[:, rows, cols, slots] = block.transpose(0, 2, 3, 1)
    return out


# Products of one gather, a side: the rows are taken a few a_out indices at
# a time, so that no run of rows holds more, or one a_out's worth where that
# is larger.
_CHUNK = 1 << 16


class DefectTable(NamedTuple):
    """The exchange defect at the points of a batch, as its nonzero terms,
    one row of ``values`` a point, with the vertex block size and the
    points it was built at (see :func:`defect_table`)."""

    rows: np.ndarray
    words: np.ndarray
    values: np.ndarray
    n: int
    params: tuple[DynamicalParams, ...]
    z1: tuple[complex, ...]
    z2: tuple[complex, ...]


def defect_table(
    n: int,
    m: int,
    params: Sequence[DynamicalParams],
    z1: Sequence[complex],
    z2: Sequence[complex],
    ctx: EllipticContext,
) -> DefectTable:
    """Nonzero word coefficients of every matrix element of the exchange
    defect R(z1-z2 | q2) L1(z1) L2(z2) minus L2(z2) L1(z1) R(z1-z2 | q1),
    at each point (params[t], z1[t], z2[t]) of a batch.

    Returns the terms, ``rows`` and ``words`` of K entries and ``values``
    of shape (T, K), sorted by (row, word), ``n``, and the T points they
    were built at.  The element with composite indices (a_out, b_out,
    a_in, b_in) is the row ``((ao d + bo) d + ai) d + bi``; over ordered
    two-letter words (:func:`ellrmx.relations.generator_slot` layout) it
    has ``values[t, k]`` at point t on ``words[k]`` where ``rows[k]`` is
    that row, and nothing elsewhere.  In a word (a, a') the second
    letter's coefficient is shifted by ``[a'.j == a.j] - [a'.i == a.i]``
    hbar.  The right-hand R stands at q1: the entries a word meets depend
    only on ``q1_{a.i} - q1_{a'.i}``, which the word's shift ``hbar
    (e_{a.i} + e_{a'.i})`` leaves alone.

    An entry of L holds a few generators, and each generator stands in
    one entry per row and per column, so a word of an element meets one
    product on each side.  The table is gathered over the nonzeros of the
    four factors, as the numbers have them: each nonzero (ao, bo, am, bm)
    of the left R times the L1 entries of row am and the L2 entries of row
    bm; each nonzero (am, bm, ai, bi) of the right R times the L2 entries
    of column bm and the L1 entries of column am.  Products are summed by
    (row, word), and a word whose sum is at most ``CANCELLATION`` of its
    products' summed moduli, summed in the same pass, is an identical
    cancellation and is dropped.  The arrays are read-only.

    All points come from one gather over the nonzeros of all their
    factors: one key computation and one sort, the products with a
    leading point axis.  The table keeps the words that any point keeps;
    a word that a point drops holds an exact 0.0 there.  The nonzero terms
    of each point equal a gather of that point alone bit for bit.
    """
    points = list(zip(params, z1, z2, strict=True))
    if any(p.q2 is None for p, _, _ in points):
        raise ValueError("the exchange relation needs two coordinate blocks")
    if any(p.m != m for p, _, _ in points):
        raise ValueError("coordinate vectors do not match m")
    d = m * n
    g = m * m * n * n
    count = len(points)
    # the ansatz at both spectral parameters of each point, in turn
    la, lb = map(np.stack, zip(*[
        (l_operator(za, p, n, ctx), l_operator(zb, p, n, ctx)) for p, za, zb in points
    ]))
    hbar, z12 = np.array([(p.hbar, za - zb) for p, za, zb in points]).T
    r_left, r_right = (
        r_slnm(hbar, z12, [getattr(p, q) for p, _, _ in points], n, ctx).reshape(-1, d, d, d, d)
        for q in ("q2", "q1")
    )
    slot_i, slot_j = np.divmod(np.arange(g) // (n * n), m)
    # index along the SHIFTS axis of the second letter of each word (a, a')
    shift = 1 + (slot_j[:, None] == slot_j) - (slot_i[:, None] == slot_i)
    left = np.nonzero(np.any(r_left != 0, axis=0))
    right = np.nonzero(np.any(r_right != 0, axis=0))
    a_rows, b_rows, b_cols = _entries(la, 0), _entries(lb, 0), _entries(lb, 1)
    key_shape = (d, d, d, d, g, g)
    # products a side per a_out and point
    per_row = count * len(left[0]) * a_rows[0].shape[1] * b_rows[0].shape[1] // d
    step = max(1, _CHUNK // max(1, per_row))
    # the left R's nonzeros run a_out first
    bounds = np.searchsorted(left[0], np.arange(0, d + step, step))
    chunks = []
    for lo, start, stop in zip(range(0, d, step), bounds, bounds[1:]):
        # [point, t, k, k'] pairs left R nonzero t with L1 entry k of its
        # row am and L2 entry k' of its row bm
        ao, bo, am, bm = (v[start:stop] for v in left)
        ai, a, ok_a = (v[am][:, :, None] for v in a_rows)
        bi, b, ok_b = (v[bm][:, None] for v in b_rows)
        ao, bo, am, bm = (v[:, None, None] for v in (ao, bo, am, bm))
        head = r_left[:, ao, bo, am, bm] * la[:, 1, am, ai, a]
        tail = lb[:, shift[a, b], bm, bi, b]
        ok = ok_a & ok_b
        lhs = np.ravel_multi_index((ao, bo, ai, bi, a, b), key_shape)[ok], (head * tail)[:, ok]
        # [point, t, k, k'] pairs right R nonzero t with L2 entry k of its
        # column bm and L1 entry k' of its column am, in rows lo to lo + step
        am, bm, ai, bi = right
        bo, a, ok_b = (v[bm][:, :, None] for v in b_cols)
        ao, b, ok_a = (v[am][:, None] for v in _entries(la[:, :, lo : lo + step], 1))
        ao += lo
        am, bm, ai, bi = (v[:, None, None] for v in right)
        head = lb[:, 1, bo, bm, a]
        tail = la[:, shift[a, b], ao, am, b]
        ok = ok_b & ok_a
        rhs = (
            np.ravel_multi_index((ao, bo, ai, bi, a, b), key_shape)[ok],
            -(head * tail * r_right[:, am, bm, ai, bi])[:, ok],
        )
        # left terms first: a word's value is then lhs - rhs, summed in order
        keys, values = (np.concatenate(pair, axis=-1) for pair in zip(lhs, rhs))
        del lhs, rhs, head, tail
        order = np.argsort(keys, kind="stable")
        keys, values = keys[order], values[:, order]
        first = np.flatnonzero(np.diff(keys, prepend=-1))
        keys, moduli = keys[first], np.add.reduceat(np.abs(values), first, axis=1)
        values = np.add.reduceat(values, first, axis=1)
        rows, words = np.divmod(keys, g * g)
        keep = np.abs(values) > CANCELLATION * moduli
        # the words any point keeps; a word that a point drops holds 0.0 there
        kept = keep.any(axis=0)
        chunks.append((rows[kept], words[kept], np.where(keep, values, 0.0)[:, kept]))
        # no run's sort is held through the next run, nor through the join
        del keys, order, values, moduli
    return DefectTable(*_joined(chunks), n, *map(tuple, zip(*points)))


def _joined(chunks: list[tuple]) -> list[np.ndarray]:
    """The (rows, words, values) of a gather from its runs of rows.  A
    field is joined, and its runs dropped, before the next, so that the
    table is never held twice."""
    fields = [list(field) for field in zip(*chunks)]
    chunks.clear()
    joined = []
    for field in fields:
        joined.append(np.concatenate(field, axis=-1))
        joined[-1].setflags(write=False)
        field.clear()
    return joined


def _entries(l_table: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero (entry, generator) pairs of ansatz tables ``C[point,
    delta + 1, x, y, a]``, nonzero at any point and shift, grouped by row
    x (axis 0) or column y (axis 1).

    Returns arrays indexed [index along ``axis``, k]: the other index of
    the k-th pair's entry, its generator slot, and whether the k-th pair
    exists (groups are padded to the longest one).
    """
    nonzero = np.any(l_table != 0, axis=(0, 1))
    if axis:
        nonzero = nonzero.transpose(1, 0, 2)
    group, other, slot = np.nonzero(nonzero)
    counts = np.bincount(group, minlength=len(nonzero))
    at = np.arange(len(group)) - np.repeat(np.cumsum(counts) - counts, counts)
    others, slots = np.zeros((2, len(nonzero), counts.max(initial=0)), dtype=int)
    ok = np.zeros(others.shape, dtype=bool)
    others[group, at], slots[group, at], ok[group, at] = other, slot, True
    return others, slots, ok


def rll_trial_bytes(n: int, m: int) -> int:
    """Predicted peak memory of one ``rll`` trial at (n, m), in bytes.

    A defect element has nonzeros on about n^3 words (on every word of its
    component at m == 1), so a point holds about d^4 n^3 terms.  A trial
    gathers one table of its two points, one row of values a point over
    the rows and words that either point keeps, and keeps it and its two
    blocked sets; blocking the terms of both, in one ``from_terms`` call,
    takes about as much again.  The gather's temporaries took about 200
    bytes per product a side, for one run of rows: at most ``_CHUNK``
    products a side over both points, or one a_out's d^3 n^3 and the
    products of the mixed R entries (256 bytes bounds both).  The
    reference set and the span workspaces took up to 40 MB more at (2, 6)
    and (1, 12), where the tables are small; 64 MB bounds that.  Beyond
    the interpreter, these two and that allowance, peak RSS came to 150 to
    270 bytes per d^4 n^3 at (n, m) = (3, 4), (4, 3), (5, 2) and (8, 1),
    when each point was gathered and blocked on its own; 300 bounds them.
    """
    d = m * n
    return 300 * d**4 * n**3 + 256 * max(_CHUNK, d**3 * n**3) + (64 << 20)


def rll_defect(table: DefectTable) -> tuple[RelationSet, ...]:
    """Defect vectors of the exchange relation for the L-ansatz, one set
    per point of the table.

    One row per matrix element of LHS minus RHS that has a nonzero word at
    the point: the table drops identical cancellations word by word, and
    :meth:`ellrmx.spans.RelationSet.from_terms` drops an element left
    without one.  An exact identity (the 1 x 1 case) gives an empty set.
    Points with the same nonzero pattern share one layout.
    """
    # (m^2 n^2)^2 two-letter words, as many as the d^4 elements
    size = (table.n * table.params[0].m) ** 4
    return RelationSet.from_terms(table.rows, table.words, table.values, size, size)


def reference_terms(n: int, m: int) -> int:
    """Number of terms in one reference set at (n, m) (see
    :func:`relation_vectors_reference`), before exact zeros are dropped."""
    families = (1, 2, 3, 4) if n > 1 else (2, 3, 4)
    return n**4 * sum(len(family_tuples(f, m)) * family_width(f, n) for f in families)


def relation_vectors_reference(
    n: int,
    m: int,
    params: Sequence[DynamicalParams],
    ctx: EllipticContext,
) -> tuple[RelationSet, ...]:
    """Reference sets of the four closed-form relation families of
    :func:`ellrmx.relations.family_terms`, one set per parameter set.

    Rows run over family 1 for every (j, i) (only for n >= 2), families 2
    and 3 in turn for every (i, j, k), and family 4 for every (i, k, j, l),
    each over every label pair (alpha outer, beta inner).  Relations that
    are exactly zero are dropped (by
    :meth:`ellrmx.spans.RelationSet.from_terms`): a family-1 relation whose
    Sklyanin constants cancel against their own assembly scale comes out
    that way, and the other families are single products.  Family 1 is
    built a chunk of label pairs at a time.

    The sets of all the trials are built together, and trials with the
    same nonzero pattern share one build of the set layout.
    """
    batch = list(params)
    for trial in batch:
        if trial.q2 is None:
            raise ValueError("the families need two coordinate blocks")
        if trial.m != m:
            raise ValueError("coordinate vectors do not match m")

    def block(family: int, pairs: tuple) -> tuple[np.ndarray, np.ndarray]:
        return family_terms(family, family_tuples(family, m), pairs, n, batch, ctx)

    # coefficients run [trial, ..., pair, term], words [..., pair, term]
    blocks = []
    if n > 1:
        # family 1 holds m^2 n^2 terms per label pair and trial
        per_pair = len(batch) * m * m * n * n
        chunks = [block(1, pairs) for pairs in label_pair_chunks(n, per_pair)]
        blocks.append([np.concatenate(part, axis=-2) for part in zip(*chunks)])
    if m > 1:
        ia, ib = np.divmod(np.arange(n**4), n * n)
        pairs = (ia // n, ia % n, ib // n, ib % n)
        # families 2 and 3 take turns over their shared index tuples
        pair23 = zip(block(2, pairs), block(3, pairs))
        blocks.append([np.stack(ab, axis=-3) for ab in pair23])
        blocks.append(block(4, pairs))
    trials = len(batch)
    words = [w.reshape(-1, w.shape[-1]) for _, w in blocks]
    size = sum(len(w) for w in words)
    # each row of a family block has as many terms as the block has columns
    rows = np.repeat(np.arange(size), [w.shape[1] for w in words for _ in w])
    words = np.concatenate([np.zeros(0, dtype=int)] + [w.ravel() for w in words])
    values = np.concatenate(
        [np.zeros((trials, 0), dtype=complex)] + [v.reshape(trials, -1) for v, _ in blocks],
        axis=-1,
    )
    del blocks
    return RelationSet.from_terms(rows, words, values, size, (m * m * n * n) ** 2)


def component_ratio(
    table: DefectTable,
    point: int,
    i: int,
    j: int,
    k: int,
    alpha: tuple[int, int],
    beta: tuple[int, int],
    ctx: EllipticContext,
) -> np.ndarray:
    """Defect component of the table at one of its points with first-block
    steps i->j (one auxiliary space) and i->k (the other), projected onto
    the operator-basis pair (alpha, beta), canonical integer
    characteristics (a1, a2) of the table's modulus, and divided by its
    theta prefactors.

    The divisor is the product of the two letters' coefficient functions
    at that point: ``theta(z2 + q2_i - q1_k + omega_beta) *
    theta(z1 + q2_i - q1_j + hbar + omega_alpha)`` times their exponential
    factors ``exp(2 pi i (alpha_2 z1 + beta_2 z2) / n)``.  If the
    extraction is consistent the result does not depend on (z1, z2).
    """
    rows, words, values, n, params, z1, z2 = table
    values, params, z1, z2 = values[point], params[point], z1[point], z2[point]
    if j == k:
        raise ValueError("needs distinct first-block indices j != k")
    d = n * params.m
    ta = basis_t_raw(*alpha, n)
    tb = basis_t_raw(*beta, n)
    # the d^4 elements' (m^2 n^2)^2 words
    comp = np.zeros(d**4, dtype=complex)
    # the nonzero entries of each basis element, row by row
    for r_out, r_in in np.argwhere(ta):
        for s_out, s_in in np.argwhere(tb):
            key = (i - 1) * n + r_out, (i - 1) * n + s_out, (j - 1) * n + r_in, (k - 1) * n + s_in
            lo, hi = np.searchsorted(rows, np.ravel_multi_index(key, (d,) * 4) + np.arange(2))
            weight = np.conj(ta[r_out, r_in]) * np.conj(tb[s_out, s_in])
            comp[words[lo:hi]] += weight * values[lo:hi]
    comp /= n * n
    d_b = z2 + params.q2[i - 1] - params.q1[k - 1] + omega_raw(*beta, n, ctx.tau)
    d_a = z1 + params.q2[i - 1] - params.q1[j - 1] + params.hbar + omega_raw(*alpha, n, ctx.tau)
    args = np.array([d_b, d_a])
    guard_denominator("(beta, alpha) prefactor argument", args, ctx.tau)
    th_b, th_a = theta(args, ctx)
    twist = cmath.exp(TWO_PI_I * (alpha[1] * z1 + beta[1] * z2) / n)
    return comp / (th_b * th_a * twist)


def defect_factorization_check(
    table: DefectTable,
    points: Sequence[int],
    i: int,
    j: int,
    k: int,
    alpha: tuple[int, int],
    beta: tuple[int, int],
    ctx: EllipticContext,
) -> float | None:
    """Worst relative variation of :func:`component_ratio` across the
    given points of the table, of one parameter set at different
    z-samples.

    A small value certifies that the z-dependence of this defect component
    factorizes into the theta prefactors, leaving a z-free relation vector
    (proportional to the family-2 vector for the same labels).  Returns
    None at m == 1, where no pair j != k exists and the check is vacuous.
    """
    if len(points) < 2:
        raise ValueError("need at least two z-samples")
    if len({table.params[p] for p in points}) != 1:
        raise ValueError("the points must share one parameter set")
    if table.params[points[0]].m == 1:
        return None
    ratios = [component_ratio(table, p, i, j, k, alpha, beta, ctx) for p in points]
    ref = ratios[0]
    scale = float(np.max(np.abs(ref)))
    if scale == 0.0:
        return 0.0
    return max(float(np.max(np.abs(other - ref))) for other in ratios[1:]) / scale
