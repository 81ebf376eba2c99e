"""Quadratic relation families attached to the elliptic R-matrices.

Closed-form relations as vectors over ordered two-letter words: the
coordinate exchange relations of the small dynamical algebra, and the
composite families on two independent coordinate sets that interpolate
between them and the vertex-type relations of :mod:`ellrmx.sklyanin`.
Everything here is closed-form bookkeeping evaluated at numeric
parameters.  The defect extraction these families are matched against
lives in :mod:`ellrmx.ncalgebra`.
"""

from __future__ import annotations

import cmath
from itertools import product
from typing import Sequence

import numpy as np

from .elliptic import (
    TWO_PI_I,
    EllipticContext,
    LatticeIndex,
    guard_denominator,
    kronecker_phi,
    omega_raw,
    theta,
)
from .rmatrix import DynamicalParams, mixed_scalar
# The sklyanin_* functions are re-exported: bench/tracer.py looks them up
# here, with the other relation tables.
from .sklyanin import (
    characteristics,
    label_arrays,
    sklyanin_coeffs,
    sklyanin_coeffs_eta,
    sklyanin_representation_residual,
)
from .spans import CANCELLATION, RelationSet
from .tensor import kappa_raw


def generator_slot(i, j, alpha: tuple, m: int, n: int):
    """Flat position of the generator labelled (i, j, alpha).

    Coordinates are 1-based; the characteristic is reduced mod n.  Layout
    is lexicographic in (i, j, a1, a2).  Integer arrays broadcast.  Over
    the ``g = m^2 n^2`` generators, the ordered two-letter word (first,
    second) sits at column ``first * g + second`` of the ``g^2`` words.
    """
    if not np.all((1 <= np.minimum(i, j)) & (np.maximum(i, j) <= m)):
        raise ValueError(f"coordinate indices ({i}, {j}) out of range for m = {m}")
    return ((i - 1) * m + (j - 1)) * n * n + (alpha[0] % n) * n + (alpha[1] % n)


def tv_relations(
    m: int,
    q1,
    q2,
    hbar,
    ctx: EllipticContext,
) -> tuple[RelationSet, ...]:
    """All coordinate-exchange relations for an m-point coordinate pair, as
    rows over the ordered words of the scalar (n == 1) generators, for each
    of T trials.

    Rows run over three kinds in turn: one commuting pair for each (i; j <
    k), one theta-ratio exchange for each (k; i < j) (the reversed pair is
    the same relation with inverted ratio), and one mixed relation for each
    ordered (i != k, j != l).  Degenerate index combinations are skipped
    rather than emitted as zero rows, so m == 1 gives an empty set.

    Coordinates of shape (T, m) and T values of ``hbar`` give the T
    trials' sets, built together.
    """
    p = np.asarray(q1, dtype=complex)
    s = np.asarray(q2, dtype=complex)
    if p.ndim != 2 or p.shape[1] != m or s.shape != p.shape:
        raise ValueError("coordinates must be (T, m) arrays")
    h = np.asarray(hbar, dtype=complex)[..., None]
    tau = ctx.tau
    # 1-based index tuples in loop order, the first axis varying slowest
    grid3 = np.indices((m,) * 3).reshape(3, -1) + 1
    grid4 = np.indices((m,) * 4).reshape(4, -1) + 1
    # (i; j < k) for the commuting pairs, (k; i < j) for the exchanges
    a, b, c = grid3[:, grid3[1] < grid3[2]]
    i, k, j, l = grid4[:, (grid4[0] != grid4[1]) & (grid4[2] != grid4[3])]
    x2 = p[..., b - 1] - p[..., c - 1]
    x, y = p[..., i - 1] - p[..., k - 1], s[..., j - 1] - s[..., l - 1]
    guard_denominator("shifted first-set difference", x2 + h, tau)
    guard_denominator("first-set difference", x, tau)
    guard_denominator("second-set difference", y, tau)
    args = [x2 - h, x2 + h, y - h, y, x - h, x, x + y, h]
    cuts = np.cumsum([v.shape[-1] for v in args])[:-1]
    th_x2m, th_x2p, th_ym, th_y, th_xm, th_x, th_xy, th_h = np.split(
        theta(np.concatenate(args, axis=-1), ctx), cuts, axis=-1
    )
    ratio = th_x2m / th_x2p
    front, back = th_ym / th_y, th_xm / th_x
    cross = th_h * th_xy / (th_x * th_y)
    rows = np.arange(a.size)
    mixed = np.arange(i.size) + 2 * a.size
    # each kind of term as (rows, letters (i, j, k, l) of its word
    # ((i, j), (k, l)), coefficients)
    terms = [
        (rows, (a, b, a, c), 1.0),
        (rows, (a, c, a, b), -1.0),
        (rows + a.size, (b, a, c, a), 1.0),
        (rows + a.size, (c, a, b, a), -ratio),
        (mixed, (i, j, k, l), front),
        (mixed, (k, l, i, j), -back),
        (mixed, (i, l, k, j), cross),
    ]
    i1, j1, i2, j2 = np.concatenate([np.stack(w) for _, w, _ in terms], axis=1)
    g = m * m
    return RelationSet.from_terms(
        np.concatenate([r for r, _, _ in terms]),
        generator_slot(i1, j1, (0, 0), m, 1) * g + generator_slot(i2, j2, (0, 0), m, 1),
        np.concatenate([np.broadcast_to(v, (len(p), r.size)) for r, _, v in terms], axis=-1),
        2 * a.size + i.size,
        g * g,
    )


def label_reduction_factor(
    raw: tuple, w, n: int, ctx: EllipticContext
) -> tuple[tuple, complex]:
    """Canonical cell and identification factor for a raw characteristic.

    A generator with index pair (a, b) enters the linear ansatz through
    ``theta(z + w + omega_delta) exp(2 pi i delta_2 z / n)`` times the raw
    basis operator, where ``w = q2_b - q1_a`` is the coordinate difference
    of its index pair.  That combination is quasi-periodic under label
    steps of n in either direction, so a raw-labelled generator equals the
    canonical-labelled one times the factor returned here.  Relation sums
    over shifted labels must apply it before coordinates of distinct raw
    labels landing in the same cell may be merged.  The components of
    ``raw`` may be integer arrays and ``w`` an array; they broadcast.
    """
    a1, a2 = raw
    r1, r2 = a1 % n, a2 % n
    k1 = (a1 - r1) // n
    k2 = (a2 - r2) // n
    shifted = w + omega_raw(r1, r2, n, ctx.tau)
    power = np.exp(
        1j * cmath.pi * (k1 * r2 + k2 * r1 + n * k1 * k2)
        - 1j * cmath.pi * ctx.tau * k2 * k2
        - TWO_PI_I * k2 * shifted
    )
    sign = 1 - 2 * ((k1 + k2) % 2)
    return (r1, r2), 1.0 / (sign * power)


def family_terms(
    family: int,
    idx: Sequence[tuple[int, ...]],
    pairs: tuple,
    n: int,
    params: Sequence[DynamicalParams],
    ctx: EllipticContext,
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients and word columns (:func:`generator_slot` layout) of the
    composite-family relations at the 1-based index tuples ``idx`` and the
    label pairs (a1, a2, b1, b2), integer arrays of shape (P,).

    Families:

    1. both generators share the coordinate pair (j, i); the relation is
       the shifted-parameter vertex-type exchange
       (:func:`ellrmx.sklyanin.sklyanin_coeffs_eta`) at ``eta = q2_i -
       q1_j``, which the generators' own coordinate shifts leave invariant
       (only for n >= 2: there are no vertex-type relations at n == 1).  A label
       pair whose bare constants all cancel to at most
       :data:`ellrmx.spans.CANCELLATION` of their assembly scale is an
       identity, and its relations come out exactly zero;
    2. shared second coordinate i, distinct first coordinates j != k;
    3. shared first coordinate i, distinct second coordinates j != k;
    4. no shared coordinate role: i != k in the second set, j != l in the
       first.

    The coefficients of T parameter sets are shaped (T, tuples, P, terms)
    and the words (tuples, P, terms): they depend on no parameter and are
    shared.  A relation's terms sit on distinct words.  Word labels are
    reduced to the canonical cell with :func:`label_reduction_factor`, so
    the relations are expressed over canonical generators.  Cross terms carrying the
    diagonal-diagonal scalar use :func:`ellrmx.rmatrix.mixed_scalar`,
    matching the composite R-matrix.  Each kernel runs once over the whole
    grid and every trial.
    """
    batch = list(params)
    m, tau = batch[0].m, ctx.tau
    hbar = np.array([b.hbar for b in batch])
    p, s = np.array([b.q1 for b in batch]), np.array([b.q2 for b in batch])
    # trial-dependent arrays run [trial, tuple, pair, term]
    h = hbar[:, None, None, None]
    cols = [v[:, None, None] for v in np.array(idx).T]
    a1, a2, b1, b2 = (v[:, None] for v in pairs)
    alpha, beta = (a1, a2), (b1, b2)
    g1, g2 = characteristics(n)
    kap = kappa_raw((g1, g2), alpha, n) * kappa_raw(beta, (g1, g2), n)
    at_g = omega_raw(g1, g2, n, tau)
    shift = omega_raw(b1 + g1 - a1, b2 + g2 - a2, n, tau)
    extra = []  # (coefficient, first letter, second letter) off the gamma sum
    # Kernel results and sums are named, so that numpy never multiplies in
    # place into a temporary (which can swap the operands): the bits then
    # do not depend on how many trials, label pairs or index tuples one
    # call takes.
    if family == 1:
        j, i = cols
        bare = sklyanin_coeffs(pairs, n, hbar, ctx)
        bare.values[np.abs(bare.values).max(axis=-1) <= CANCELLATION * bare.scale] = 0.0
        eta = (s[:, i - 1] - p[:, j - 1]).reshape(len(batch), -1)
        value = sklyanin_coeffs_eta(bare, eta, hbar, ctx).values
        letters = (j, i), (j, i)
    elif family == 2:
        i, j, k = cols
        x = p[:, j - 1] - p[:, k - 1]
        phi = kronecker_phi(h + at_g, x + shift, ctx)
        value = kap * phi
        letters = (j, i), (k, i)
        extra.append((-mixed_scalar(h, x, n, ctx), (k, i, beta), (j, i, alpha)))
    elif family == 3:
        i, j, k = cols
        x = s[:, j - 1] - s[:, k - 1]
        u = h + omega_raw(a1 - b1 - g1, a2 - b2 - g2, n, tau)
        phi = kronecker_phi(u, -x - at_g, ctx)
        value = kap * phi
        letters = (i, k), (i, j)
        extra.append((-mixed_scalar(h, x, n, ctx), (i, j, alpha), (i, k, beta)))
    else:
        i, j, k, l = cols
        x, y = s[:, i - 1] - s[:, k - 1], p[:, j - 1] - p[:, l - 1]
        phi = kronecker_phi(x + at_g, y + shift, ctx)
        value = kap * phi
        letters = (j, k), (l, i)
        extra.append((-mixed_scalar(h, y, n, ctx), (l, k, beta), (j, i, alpha)))
        extra.append((mixed_scalar(h, x, n, ctx), (j, i, alpha), (l, k, beta)))
    # A generator (c, d, .) sits at the coordinate difference q2_d - q1_c.
    # The identification factors are coefficient functions standing left of
    # the whole word, so the second letter's factor sees coordinates already
    # shifted by the first letter's signature.
    (c1, d1), (c2, d2) = letters
    w1 = s[:, d1 - 1] - p[:, c1 - 1]
    w2 = s[:, d2 - 1] - p[:, c2 - 1] + h * (1 * (d2 == d1) - (c2 == c1))
    lab1, x1 = label_reduction_factor((a1 - g1, a2 - g2), w1, n, ctx)
    lab2, x2 = label_reduction_factor((b1 + g1, b2 + g2), w2, n, ctx)
    g = m * m * n * n
    width = family_width(family, n)
    shape = (len(idx), pairs[0].size)
    values = np.empty((len(batch),) + shape + (width,), dtype=complex)
    words = np.empty(shape + (width,), dtype=int)
    # the gamma sum fills the first n^2 terms, each extra term one more
    spans = [slice(0, n * n)] + [slice(k, k + 1) for k in range(n * n, width)]
    terms = [(value * x1 * x2, (c1, d1, lab1), (c2, d2, lab2)), *extra]
    for at, (v, w1, w2) in zip(spans, terms, strict=True):
        values[..., at] = v
        words[..., at] = generator_slot(*w1, m, n) * g + generator_slot(*w2, m, n)
    return values, words


def family_width(family: int, n: int) -> int:
    """Terms per relation of a composite family (see :func:`family_terms`):
    the n^2 of the gamma sum and the family's terms off it."""
    return n * n + {1: 0, 2: 1, 3: 1, 4: 2}[family]


def family_tuples(family: int, m: int) -> list[tuple[int, ...]]:
    """The admissible 1-based index tuples of a composite family (see
    :func:`family_terms`), in the reference row order."""
    r = range(1, m + 1)
    if family == 1:
        return list(product(r, r))
    if family in (2, 3):
        return [t for t in product(r, r, r) if t[1] != t[2]]
    if family == 4:
        return [(i, j, k, l) for i, k, j, l in product(r, r, r, r) if i != k and j != l]
    raise ValueError(f"unknown family {family}")


def slnm_family_coeffs(
    family: int,
    indices: Sequence[int],
    alpha: LatticeIndex,
    beta: LatticeIndex,
    params: DynamicalParams,
    ctx: EllipticContext,
) -> tuple[np.ndarray, np.ndarray]:
    """One composite-family relation (see :func:`family_terms`) as its
    terms: the word columns and their coefficients.

    Family 1 takes the coordinate pair (j, i), families 2 and 3 the indices
    (i, j, k) and family 4 (i, j, k, l).  Index clashes raise ValueError.
    """
    pairs = label_arrays((alpha,), (beta,))
    n = alpha.n
    if params.q2 is None:
        raise ValueError("composite families need two coordinate sets")
    m = params.m
    idx = tuple(int(v) for v in indices)
    if idx not in family_tuples(family, m):
        raise ValueError(f"family {family} does not take the indices {idx} at m = {m}")
    if family == 1 and n == 1:
        raise ValueError("no vertex-type relations at n = 1")
    values, words = family_terms(family, [idx], pairs, n, [params], ctx)
    return words.ravel(), values.ravel()
