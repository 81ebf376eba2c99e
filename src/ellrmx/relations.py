"""Quadratic relation families attached to the elliptic R-matrices.

Closed-form tables for three presentations of the same algebraic data:
the vertex-type (index-characteristic) exchange relations in bare,
theta-rescaled, and shifted-parameter normalizations; the coordinate
exchange relations of the small dynamical algebra; and the composite
families on two independent coordinate sets that interpolate between
them.  Everything here is closed-form bookkeeping evaluated at numeric
parameters.  The defect extraction these families are matched against
lives in :mod:`ellrmx.ncalgebra`.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .elliptic import (
    EllipticContext,
    LatticeIndex,
    all_indices,
    eisenstein_e1,
    eisenstein_e2,
    guard_denominator,
    kronecker_phi,
    omega_raw,
    theta,
)
from .rmatrix import DynamicalParams, mixed_scalar
from .tensor import basis_t_raw, kappa_raw

TWO_PI_I = 2j * cmath.pi

# Ordered two-letter word: ((i, j, (a1, a2)), (k, l, (a1, a2))) with 1-based
# coordinate indices and canonical characteristics.
Word = tuple[tuple[int, int, tuple[int, int]], tuple[int, int, tuple[int, int]]]


class DegenerateRelationError(ValueError):
    """Raised when a requested relation collapses to the zero vector."""


def generator_slot(i: int, j: int, alpha: tuple[int, int], m: int, n: int) -> int:
    """Flat position of the generator labelled (i, j, alpha).

    Coordinates are 1-based; the characteristic is reduced mod n.  Layout
    is lexicographic in (i, j, a1, a2).
    """
    if not (1 <= i <= m and 1 <= j <= m):
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


@dataclass(frozen=True)
class SklyaninRelation:
    """Structure constants of one vertex-type exchange relation.

    ``coefficients`` maps the summation characteristic gamma to the weight
    of the word with integer indices ``(alpha - gamma, beta + gamma)``,
    where the arithmetic is carried out on canonical representatives
    without reduction (see :meth:`word`).

    ``scale`` records the magnitude of the largest single term that went
    into assembling the coefficients.  Some label pairs (alpha == beta at
    even order, for instance) cancel identically, leaving roundoff-sized
    coefficients; the scale lets consumers recognize those as trivially
    satisfied instead of dividing noise by noise.
    """

    alpha: LatticeIndex
    beta: LatticeIndex
    coefficients: Mapping[LatticeIndex, complex]
    scale: float = 0.0

    def __post_init__(self) -> None:
        if self.alpha.n != self.beta.n:
            raise ValueError("characteristics with mixed moduli")
        object.__setattr__(self, "coefficients", dict(self.coefficients))

    @property
    def n(self) -> int:
        return self.alpha.n

    def word(self, gamma: LatticeIndex) -> tuple[tuple[int, int], tuple[int, int]]:
        """Unreduced integer index pair of the quadratic word for gamma."""
        first = (self.alpha.a1 - gamma.a1, self.alpha.a2 - gamma.a2)
        second = (self.beta.a1 + gamma.a1, self.beta.a2 + gamma.a2)
        return first, second


def sklyanin_coeffs(
    alpha: LatticeIndex, beta: LatticeIndex, hbar: complex, ctx: EllipticContext
) -> SklyaninRelation:
    """Bare structure constants of the exchange relation labelled (alpha, beta).

    For nonzero beta each gamma weighs in with a commutation phase times a
    four-term combination of first Eisenstein values at hbar-shifted
    lattice fractions; for beta == 0 the combination is a difference of two
    second Eisenstein values.  The fractions follow the unreduced integer
    arithmetic of the word: the first Eisenstein function is only
    quasi-periodic, so representatives matter.  n == 1 has no relations
    and yields an empty table.
    """
    if alpha.n != beta.n:
        raise ValueError("characteristics with mixed moduli")
    n = alpha.n
    coeffs: dict[LatticeIndex, complex] = {}
    if n == 1:
        return SklyaninRelation(alpha, beta, coeffs)
    tau = ctx.tau
    a1, a2 = alpha.pair
    b1, b2 = beta.pair
    scale = 0.0

    def w(c1: int, c2: int) -> complex:
        return omega_raw(c1, c2, n, tau)

    if beta.pair != (0, 0):
        d1, d2 = a1 - b1, a2 - b2
        for gamma in all_indices(n):
            g1, g2 = gamma.pair
            parts = (
                eisenstein_e1(w(g1, g2) + hbar, ctx),
                -eisenstein_e1(w(d1 - g1, d2 - g2) + hbar, ctx),
                eisenstein_e1(w(a1 - g1, a2 - g2) + hbar, ctx),
                -eisenstein_e1(w(b1 + g1, b2 + g2) + hbar, ctx),
            )
            scale = max(scale, *(abs(p) for p in parts))
            coeffs[gamma] = kappa_raw(gamma.pair, (d1, d2), n) * sum(parts)
    else:
        for gamma in all_indices(n):
            g1, g2 = gamma.pair
            parts = (
                eisenstein_e2(w(g1, g2) + hbar, ctx),
                -eisenstein_e2(w(a1 - g1, a2 - g2) + hbar, ctx),
            )
            scale = max(scale, *(abs(p) for p in parts))
            coeffs[gamma] = kappa_raw(gamma.pair, alpha.pair, n) * sum(parts)
    return SklyaninRelation(alpha, beta, coeffs, scale)


def sklyanin_coeffs_eta(
    alpha: LatticeIndex,
    beta: LatticeIndex,
    eta: complex,
    hbar: complex,
    ctx: EllipticContext,
) -> SklyaninRelation:
    """Structure constants in the theta-rescaled, parameter-shifted form.

    Each bare coefficient picks up two theta factors at the hbar-shifted
    fractions of its own word, and the whole relation carries a single
    global phase in ``eta - hbar`` (the per-word phases collapse because
    the words all share the integer column sum ``alpha + beta``).  At
    ``eta == hbar`` only the rescaling remains.
    """
    base = sklyanin_coeffs(alpha, beta, hbar, ctx)
    n = alpha.n
    if n == 1:
        return base
    tau = ctx.tau
    phase = cmath.exp(-TWO_PI_I * (alpha.a2 + beta.a2) * (eta - hbar) / n)
    coeffs: dict[LatticeIndex, complex] = {}
    pref_max = 0.0
    for gamma, value in base.coefficients.items():
        first, second = base.word(gamma)
        pref = theta(hbar + omega_raw(first[0], first[1], n, tau), ctx) * theta(
            hbar + omega_raw(second[0], second[1], n, tau), ctx
        )
        pref_max = max(pref_max, abs(pref))
        coeffs[gamma] = value * pref * phase
    return SklyaninRelation(alpha, beta, coeffs, base.scale * pref_max)


def sklyanin_representation_residual(
    rel: SklyaninRelation,
    ctx: EllipticContext,
    *,
    hbar: complex | None = None,
    eta: complex | None = None,
) -> float:
    """Normalized norm of the relation evaluated in the basis representation.

    A generator with integer index d acts as the operator basis element at
    -d.  With ``hbar`` given each factor is divided by ``theta(hbar +
    omega_d)`` (the rescaled generators matching the theta-prefactor
    coefficients); with ``eta`` also given each factor carries the
    shifted-parameter phase.  The norm is divided by the sum of the term
    bounds or by the assembly scale, whichever is larger, so both a clean
    annihilation and an identically-cancelled relation come out at roughly
    machine epsilon.  Empty relations give 0.
    """
    if eta is not None and hbar is None:
        raise ValueError("the shifted-parameter form requires hbar")
    n = rel.n
    if not rel.coefficients:
        return 0.0
    tau = ctx.tau

    def rep(d: tuple[int, int]) -> np.ndarray:
        mat = basis_t_raw(-d[0], -d[1], n)
        if hbar is not None:
            mat = mat / theta(hbar + omega_raw(d[0], d[1], n, tau), ctx)
        if eta is not None:
            mat = mat * cmath.exp(TWO_PI_I * d[1] * (eta - hbar) / n)
        return mat

    acc = np.zeros((n, n), dtype=complex)
    mass = 0.0
    for gamma, value in rel.coefficients.items():
        first, second = rel.word(gamma)
        m1 = rep(first)
        m2 = rep(second)
        acc += value * (m1 @ m2)
        mass += abs(value) * float(np.linalg.norm(m1)) * float(np.linalg.norm(m2))
    den = max(mass, rel.scale)
    if den == 0.0:
        return 0.0
    return float(np.linalg.norm(acc)) / den


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
    raw: tuple[int, int], w: complex, n: int, ctx: EllipticContext
) -> tuple[tuple[int, int], complex]:
    """Canonical cell and identification factor for a raw characteristic.

    A generator with index pair (a, b) enters the linear ansatz through
    ``theta(z + w + omega_delta) exp(2 pi i delta_2 z / n)`` times the raw
    basis operator, where ``w = q2_b - q1_a`` is the coordinate difference
    of its index pair.  That combination is quasi-periodic under label
    steps of n in either direction, so a raw-labelled generator equals the
    canonical-labelled one times the factor returned here.  Relation sums
    over shifted labels must apply it before coordinates of distinct raw
    labels landing in the same cell may be merged.
    """
    a1, a2 = raw
    r1, r2 = a1 % n, a2 % n
    k1 = (a1 - r1) // n
    k2 = (a2 - r2) // n
    if k1 == 0 and k2 == 0:
        return (r1, r2), 1.0 + 0.0j
    om = omega_raw(r1, r2, n, ctx.tau)
    growth = ((-1) ** (k1 + k2)) * cmath.exp(
        1j * cmath.pi * (k1 * r2 + k2 * r1 + n * k1 * k2)
        - 1j * cmath.pi * ctx.tau * k2 * k2
        - TWO_PI_I * k2 * (w + om)
    )
    return (r1, r2), 1.0 / growth


def slnm_family_coeffs(
    family: int,
    indices: Sequence[int],
    alpha: LatticeIndex,
    beta: LatticeIndex,
    params: DynamicalParams,
    ctx: EllipticContext,
) -> RelationVector:
    """One composite-family relation as a vector over ordered words.

    Families:

    1. both generators share the coordinate pair (j, i); the relation is
       the shifted-parameter vertex-type exchange at ``eta = q2_i - q1_j``,
       which the generators' own coordinate shifts leave invariant;
    2. shared second coordinate i, distinct first coordinates j != k;
    3. shared first coordinate i, distinct second coordinates j != k;
    4. no shared coordinate role: i != k in the second set, j != l in the
       first.

    Word labels are reduced to the canonical cell with
    :func:`label_reduction_factor`, so the vector is expressed over
    canonical generators.  Cross terms carrying the diagonal-diagonal
    scalar use :func:`ellrmx.rmatrix.mixed_scalar`, matching the composite
    R-matrix.  Index clashes raise ValueError; batch builders skip those
    combinations instead of emitting zero rows.
    """
    if alpha.n != beta.n:
        raise ValueError("characteristics with mixed moduli")
    n = alpha.n
    if params.q2 is None:
        raise ValueError("composite families need two coordinate sets")
    m = params.m
    hbar = params.hbar
    p, s = params.q1, params.q2
    tau = ctx.tau
    idx = tuple(int(v) for v in indices)
    for v in idx:
        if not 1 <= v <= m:
            raise ValueError(f"coordinate index {v} out of range for m = {m}")
    a1, a2 = alpha.pair
    b1, b2 = beta.pair
    label = f"family{family}-{idx}-a{alpha.pair}-b{beta.pair}"
    terms: dict[Word, complex] = {}

    def add(word: Word, value: complex) -> None:
        terms[word] = terms.get(word, 0.0) + value

    def add_raw(
        ij1: tuple[int, int],
        raw1: tuple[int, int],
        w1: complex,
        ij2: tuple[int, int],
        raw2: tuple[int, int],
        w2: complex,
        value: complex,
    ) -> None:
        # The identification factors are coefficient functions standing left
        # of the whole word, so the second letter's factor sees coordinates
        # already shifted by the first letter's signature.
        w2 = w2 + hbar * ((ij2[1] == ij1[1]) - (ij2[0] == ij1[0]))
        lab1, x1 = label_reduction_factor(raw1, w1, n, ctx)
        lab2, x2 = label_reduction_factor(raw2, w2, n, ctx)
        add(((ij1[0], ij1[1], lab1), (ij2[0], ij2[1], lab2)), value * x1 * x2)

    def kap(g1: int, g2: int) -> complex:
        return kappa_raw((g1, g2), alpha.pair, n) * kappa_raw(beta.pair, (g1, g2), n)

    if family == 1:
        if len(idx) != 2:
            raise ValueError("family 1 takes a coordinate pair (j, i)")
        j, i = idx
        eta = s[i - 1] - p[j - 1]
        rel = sklyanin_coeffs_eta(alpha, beta, eta, hbar, ctx)
        if not rel.coefficients:
            raise ValueError("no vertex-type relations at n = 1")
        for gamma, value in rel.coefficients.items():
            first, second = rel.word(gamma)
            add_raw((j, i), first, eta, (j, i), second, eta, value)
    elif family == 2:
        if len(idx) != 3:
            raise ValueError("family 2 takes indices (i, j, k)")
        i, j, k = idx
        if j == k:
            raise ValueError("family 2 needs distinct first coordinates j != k")
        x = p[j - 1] - p[k - 1]
        w1 = s[i - 1] - p[j - 1]
        w2 = s[i - 1] - p[k - 1]
        for gamma in all_indices(n):
            g1, g2 = gamma.pair
            value = kap(g1, g2) * kronecker_phi(
                hbar + omega_raw(g1, g2, n, tau),
                x + omega_raw(b1 + g1 - a1, b2 + g2 - a2, n, tau),
                ctx,
            )
            add_raw(
                (j, i), (a1 - g1, a2 - g2), w1,
                (k, i), (b1 + g1, b2 + g2), w2, value,
            )
        add(((k, i, beta.pair), (j, i, alpha.pair)), -mixed_scalar(hbar, x, n, ctx))
    elif family == 3:
        if len(idx) != 3:
            raise ValueError("family 3 takes indices (i, j, k)")
        i, j, k = idx
        if j == k:
            raise ValueError("family 3 needs distinct second coordinates j != k")
        x = s[j - 1] - s[k - 1]
        w1 = s[k - 1] - p[i - 1]
        w2 = s[j - 1] - p[i - 1]
        for gamma in all_indices(n):
            g1, g2 = gamma.pair
            value = kap(g1, g2) * kronecker_phi(
                hbar + omega_raw(a1 - b1 - g1, a2 - b2 - g2, n, tau),
                -x - omega_raw(g1, g2, n, tau),
                ctx,
            )
            add_raw(
                (i, k), (a1 - g1, a2 - g2), w1,
                (i, j), (b1 + g1, b2 + g2), w2, value,
            )
        add(((i, j, alpha.pair), (i, k, beta.pair)), -mixed_scalar(hbar, x, n, ctx))
    elif family == 4:
        if len(idx) != 4:
            raise ValueError("family 4 takes indices (i, j, k, l)")
        i, j, k, l = idx
        if i == k or j == l:
            raise ValueError("family 4 needs i != k and j != l")
        x = s[i - 1] - s[k - 1]
        y = p[j - 1] - p[l - 1]
        w1 = s[k - 1] - p[j - 1]
        w2 = s[i - 1] - p[l - 1]
        for gamma in all_indices(n):
            g1, g2 = gamma.pair
            value = kap(g1, g2) * kronecker_phi(
                x + omega_raw(g1, g2, n, tau),
                y + omega_raw(b1 + g1 - a1, b2 + g2 - a2, n, tau),
                ctx,
            )
            add_raw(
                (j, k), (a1 - g1, a2 - g2), w1,
                (l, i), (b1 + g1, b2 + g2), w2, value,
            )
        add(((l, k, beta.pair), (j, i, alpha.pair)), -mixed_scalar(hbar, y, n, ctx))
        add(((j, i, alpha.pair), (l, k, beta.pair)), mixed_scalar(hbar, x, n, ctx))
    else:
        raise ValueError(f"unknown family {family}")
    return RelationVector.from_terms(terms, m, n, label)
