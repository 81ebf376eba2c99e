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
from dataclasses import dataclass
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from .elliptic import (
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
    bare_constants,
    characteristics,
    label_arrays,
    sklyanin_coeffs,
    sklyanin_coeffs_eta,
    sklyanin_representation_residual,
    theta_prefactors,
)
from .tensor import kappa_raw

TWO_PI_I = 2j * cmath.pi

# Ordered two-letter word: ((i, j, (a1, a2)), (k, l, (a1, a2))) with 1-based
# coordinate indices and canonical characteristics.
Word = tuple[tuple[int, int, tuple[int, int]], tuple[int, int, tuple[int, int]]]


class DegenerateRelationError(ValueError):
    """Raised when a requested relation collapses to the zero vector."""


def generator_slot(i, j, alpha: tuple, m: int, n: int):
    """Flat position of the generator labelled (i, j, alpha).

    Coordinates are 1-based; the characteristic is reduced mod n.  Layout
    is lexicographic in (i, j, a1, a2).  Integer arrays broadcast.
    """
    if not np.all((1 <= np.minimum(i, j)) & (np.maximum(i, j) <= m)):
        raise ValueError(f"coordinate indices ({i}, {j}) out of range for m = {m}")
    return ((i - 1) * m + (j - 1)) * n * n + (alpha[0] % n) * n + (alpha[1] % n)


def word_slot(word: Word, m: int, n: int) -> int:
    """Flat position of an ordered two-letter word in the tensor-square basis."""
    (i, j, a), (k, l, b) = word
    g = m * m * n * n
    return generator_slot(i, j, a, m, n) * g + generator_slot(k, l, b, m, n)


@dataclass(frozen=True)
class RelationVector:
    """One quadratic relation as a coefficient vector over ordered words.

    ``coords[word_slot(w, m, n)]`` is the coefficient of the word ``w``;
    the relation asserts that the weighted sum of words vanishes.  The
    vector must be finite with at least one nonzero entry.
    """

    label: str
    m: int
    n: int
    coords: np.ndarray

    def __post_init__(self) -> None:
        g = self.m * self.m * self.n * self.n
        arr = np.asarray(self.coords, dtype=complex)
        if arr.shape != (g * g,):
            raise ValueError(
                f"relation {self.label!r}: expected {g * g} coordinates, got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"relation {self.label!r} has non-finite coefficients")
        if not np.any(arr):
            raise DegenerateRelationError(f"relation {self.label!r} is identically zero")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coords", arr)

    @classmethod
    def from_terms(
        cls, terms: Mapping[Word, complex], m: int, n: int, label: str
    ) -> "RelationVector":
        g = m * m * n * n
        coords = np.zeros(g * g, dtype=complex)
        for word, value in terms.items():
            coords[word_slot(word, m, n)] += value
        return cls(label, m, n, coords)


_TV_KINDS = ("commuting-pair", "same-second-index", "mixed")


@dataclass(frozen=True)
class TVRelation:
    """One coordinate-exchange relation on the scalar (n == 1) generators.

    ``kind`` is one of ``"commuting-pair"`` (shared first coordinate),
    ``"same-second-index"`` (theta-ratio exchange across the first
    coordinates), or ``"mixed"`` (three-word relation moving both
    coordinates).  ``terms`` maps ordered coordinate words
    ``((i, j), (k, l))`` to coefficients.
    """

    kind: str
    indices: tuple[int, ...]
    terms: Mapping[tuple[tuple[int, int], tuple[int, int]], complex]

    def __post_init__(self) -> None:
        if self.kind not in _TV_KINDS:
            raise ValueError(f"unknown relation kind {self.kind!r}")
        object.__setattr__(self, "indices", tuple(int(v) for v in self.indices))
        object.__setattr__(self, "terms", dict(self.terms))

    def vector(self, m: int) -> RelationVector:
        zero = (0, 0)
        words: dict[Word, complex] = {
            ((i, j, zero), (k, l, zero)): value
            for ((i, j), (k, l)), value in self.terms.items()
        }
        return RelationVector.from_terms(
            words, m, 1, f"tv-{self.kind}-{self.indices}"
        )


def tv_relations(
    m: int,
    q1: Sequence[complex],
    q2: Sequence[complex],
    hbar: complex,
    ctx: EllipticContext,
) -> list[TVRelation]:
    """All coordinate-exchange relations for an m-point coordinate pair.

    Emitted per kind: one commuting pair for each (i; j < k), one
    theta-ratio exchange for each (k; i < j) (the reversed pair is the
    same relation with inverted ratio), and one mixed relation for each
    ordered (i != k, j != l).  Degenerate index combinations are skipped
    rather than emitted as zero rows, so m == 1 gives an empty list.
    """
    if len(q1) != m or len(q2) != m:
        raise ValueError("coordinate vectors must have length m")
    p = tuple(complex(v) for v in q1)
    s = tuple(complex(v) for v in q2)
    tau = ctx.tau
    out: list[TVRelation] = []
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            for k in range(j + 1, m + 1):
                out.append(
                    TVRelation(
                        "commuting-pair",
                        (i, j, k),
                        {((i, j), (i, k)): 1.0, ((i, k), (i, j)): -1.0},
                    )
                )
    for k in range(1, m + 1):
        for i in range(1, m + 1):
            for j in range(i + 1, m + 1):
                x = p[i - 1] - p[j - 1]
                guard_denominator("shifted first-set difference", x + hbar, tau)
                ratio = theta(x - hbar, ctx) / theta(x + hbar, ctx)
                out.append(
                    TVRelation(
                        "same-second-index",
                        (i, j, k),
                        {((i, k), (j, k)): 1.0, ((j, k), (i, k)): -ratio},
                    )
                )
    for i in range(1, m + 1):
        for k in range(1, m + 1):
            if k == i:
                continue
            for j in range(1, m + 1):
                for l in range(1, m + 1):
                    if l == j:
                        continue
                    x = p[i - 1] - p[k - 1]
                    y = s[j - 1] - s[l - 1]
                    guard_denominator("first-set difference", x, tau)
                    guard_denominator("second-set difference", y, tau)
                    front = theta(y - hbar, ctx) / theta(y, ctx)
                    back = theta(x - hbar, ctx) / theta(x, ctx)
                    cross = (
                        theta(hbar, ctx)
                        * theta(x + y, ctx)
                        / (theta(x, ctx) * theta(y, ctx))
                    )
                    out.append(
                        TVRelation(
                            "mixed",
                            (i, j, k, l),
                            {
                                ((i, j), (k, l)): front,
                                ((k, l), (i, j)): -back,
                                ((i, l), (k, j)): cross,
                            },
                        )
                    )
    return out


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
    om = omega_raw(r1, r2, n, ctx.tau)
    growth = (1 - 2 * ((k1 + k2) % 2)) * np.exp(
        1j * cmath.pi * (k1 * r2 + k2 * r1 + n * k1 * k2)
        - 1j * cmath.pi * ctx.tau * k2 * k2
        - TWO_PI_I * k2 * (w + om)
    )
    return (r1, r2), 1.0 / growth


def family_terms(
    family: int,
    idx: Sequence[tuple[int, ...]],
    pairs: tuple,
    n: int,
    params: DynamicalParams,
    ctx: EllipticContext,
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients and word columns (:func:`word_slot` layout) of the
    composite-family relations at the 1-based index tuples ``idx`` and the
    label pairs (a1, a2, b1, b2), integer arrays of shape (P,).

    Families:

    1. both generators share the coordinate pair (j, i); the relation is
       the shifted-parameter vertex-type exchange at ``eta = q2_i - q1_j``,
       which the generators' own coordinate shifts leave invariant (only
       for n >= 2: there are no vertex-type relations at n == 1);
    2. shared second coordinate i, distinct first coordinates j != k;
    3. shared first coordinate i, distinct second coordinates j != k;
    4. no shared coordinate role: i != k in the second set, j != l in the
       first.

    Both arrays are shaped (tuples, P, terms), and a relation's terms sit
    on distinct words.  Word labels are reduced to the canonical cell with
    :func:`label_reduction_factor`, so the relations are expressed over
    canonical generators.  Cross terms carrying the diagonal-diagonal
    scalar use :func:`ellrmx.rmatrix.mixed_scalar`, matching the composite
    R-matrix.  Each kernel runs once over the whole grid.
    """
    m, hbar, tau = params.m, params.hbar, ctx.tau
    p, s = np.array(params.q1), np.array(params.q2)
    cols = [v[:, None, None] for v in np.array(idx).T]
    a1, a2, b1, b2 = (v[:, None] for v in pairs)
    alpha, beta = (a1, a2), (b1, b2)
    g1, g2 = characteristics(n)
    kap = kappa_raw((g1, g2), alpha, n) * kappa_raw(beta, (g1, g2), n)
    at_g = omega_raw(g1, g2, n, tau)
    shift = omega_raw(b1 + g1 - a1, b2 + g2 - a2, n, tau)
    extra = []  # (coefficient, first letter, second letter) off the gamma sum
    if family == 1:
        j, i = cols
        value = (
            bare_constants(pairs, hbar, n, ctx)[0]
            * theta_prefactors(pairs, hbar, n, ctx)
            * np.exp(-TWO_PI_I * (a2 + b2) * (s[i - 1] - p[j - 1] - hbar) / n)
        )
        letters = (j, i), (j, i)
    elif family == 2:
        i, j, k = cols
        x = p[j - 1] - p[k - 1]
        value = kap * kronecker_phi(hbar + at_g, x + shift, ctx)
        letters = (j, i), (k, i)
        extra.append((-mixed_scalar(hbar, x, n, ctx), (k, i, beta), (j, i, alpha)))
    elif family == 3:
        i, j, k = cols
        x = s[j - 1] - s[k - 1]
        u = hbar + omega_raw(a1 - b1 - g1, a2 - b2 - g2, n, tau)
        value = kap * kronecker_phi(u, -x - at_g, ctx)
        letters = (i, k), (i, j)
        extra.append((-mixed_scalar(hbar, x, n, ctx), (i, j, alpha), (i, k, beta)))
    else:
        i, j, k, l = cols
        x, y = s[i - 1] - s[k - 1], p[j - 1] - p[l - 1]
        value = kap * kronecker_phi(x + at_g, y + shift, ctx)
        letters = (j, k), (l, i)
        extra.append((-mixed_scalar(hbar, y, n, ctx), (l, k, beta), (j, i, alpha)))
        extra.append((mixed_scalar(hbar, x, n, ctx), (j, i, alpha), (l, k, beta)))
    # A generator (c, d, .) sits at the coordinate difference q2_d - q1_c.
    # The identification factors are coefficient functions standing left of
    # the whole word, so the second letter's factor sees coordinates already
    # shifted by the first letter's signature.
    (c1, d1), (c2, d2) = letters
    w1 = s[d1 - 1] - p[c1 - 1]
    w2 = s[d2 - 1] - p[c2 - 1] + hbar * (1 * (d2 == d1) - (c2 == c1))
    lab1, x1 = label_reduction_factor((a1 - g1, a2 - g2), w1, n, ctx)
    lab2, x2 = label_reduction_factor((b1 + g1, b2 + g2), w2, n, ctx)
    g = m * m * n * n
    shape = (len(idx), pairs[0].size)
    values, words = [], []
    for v, w1, w2 in [(value * x1 * x2, (c1, d1, lab1), (c2, d2, lab2)), *extra]:
        w = generator_slot(*w1, m, n) * g + generator_slot(*w2, m, n)
        values.append(np.broadcast_to(v, shape + v.shape[2:]))
        words.append(np.broadcast_to(w, shape + w.shape[2:]))
    return np.concatenate(values, axis=-1), np.concatenate(words, axis=-1)


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
) -> RelationVector:
    """One composite-family relation (see :func:`family_terms`) as a vector
    over ordered words.

    Family 1 takes the coordinate pair (j, i), families 2 and 3 the indices
    (i, j, k) and family 4 (i, j, k, l).  Index clashes raise ValueError;
    an identically vanishing relation raises
    :class:`DegenerateRelationError`.
    """
    pairs = label_arrays(alpha, beta)
    n = alpha.n
    if params.q2 is None:
        raise ValueError("composite families need two coordinate sets")
    m = params.m
    idx = tuple(int(v) for v in indices)
    if idx not in family_tuples(family, m):
        raise ValueError(f"family {family} does not take the indices {idx} at m = {m}")
    if family == 1 and n == 1:
        raise ValueError("no vertex-type relations at n = 1")
    values, words = family_terms(family, [idx], pairs, n, params, ctx)
    g = m * m * n * n
    coords = np.zeros(g * g, dtype=complex)
    coords[words.ravel()] = values.ravel()
    return RelationVector(f"family{family}-{idx}-a{alpha.pair}-b{beta.pair}", m, n, coords)
