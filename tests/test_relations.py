"""Relation-family coefficient tables: representation and reduction checks.

The array builds are compared with a scalar oracle kept in this file: the
pair-by-pair, word-by-word construction of the Sklyanin constants, of the
composite families and of the coordinate-exchange relations, one kernel
call per coefficient, each relation a labelled object over symbolic words;
and the ``sklyanin-rep`` trial as a loop over label pairs.
"""

import cmath
import tracemalloc
from dataclasses import dataclass
from typing import Mapping

import numpy as np
import pytest

from ellrmx import sklyanin
from ellrmx.checks import (
    _RUNNERS,
    CheckConfig,
    _trial_seed,
)
from ellrmx.elliptic import (
    EllipticContext,
    LatticeIndex,
    PoleProximityError,
    eisenstein_e1,
    eisenstein_e2,
    guard_denominator,
    kronecker_phi,
    omega_raw,
    theta,
)
from ellrmx.ncalgebra import relation_vectors_reference
from ellrmx.relations import (
    family_terms,
    family_tuples,
    generator_slot,
    label_reduction_factor,
    slnm_family_coeffs,
    tv_relations,
)
from ellrmx.rmatrix import DynamicalParams, mixed_scalar
from ellrmx.sampling import sample_params
from ellrmx.sklyanin import (
    SklyaninTable,
    bare_constants,
    label_arrays,
    label_pair_chunks,
    sklyanin_coeffs,
    sklyanin_coeffs_eta,
    sklyanin_representation_residual,
    theta_prefactors,
)
from ellrmx.spans import RelationSet, span_rank
from ellrmx.tensor import basis_t_raw, kappa_raw
from support import all_indices

TAU = 0.3 + 0.8j
CTX = EllipticContext(TAU)
HBAR = 0.21 + 0.13j

Q1 = (0.13 + 0.09j, 0.58 + 0.41j)
Q2 = (0.31 + 0.63j, 0.05 + 0.27j)


def coords(vec) -> np.ndarray:
    """A relation vector over all of its words."""
    out = np.zeros(vec.width, dtype=complex)
    out[vec.words] = vec.values
    return out


def family_row(family, idx, alpha, beta, params, ctx=CTX) -> np.ndarray:
    """One composite-family relation over all of its words."""
    words, values = slnm_family_coeffs(family, idx, alpha, beta, params, ctx)
    out = np.zeros((params.m**2 * alpha.n**2) ** 2, dtype=complex)
    out[words] = values
    return out


def same_sets(a, b) -> bool:
    """Whether two relation sets agree bit for bit: components and blocks."""
    return (
        (a.size, a.width, len(a.components)) == (b.size, b.width, len(b.components))
        and all(
            np.array_equal(ra, rb) and np.array_equal(ca, cb)
            for (ra, ca), (rb, cb) in zip(a.components, b.components)
        )
        and all(np.array_equal(x, y) for x, y in zip(a.blocks, b.blocks))
    )


def dense_rows(s) -> np.ndarray:
    """The unit rows of a relation set over all of its words."""
    rows = np.zeros((len(s), s.width), dtype=complex)
    for (r, c), block in zip(s.components, s.blocks):
        rows[np.ix_(r, c)] = block
    return rows


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    inner = abs(np.vdot(a, b))
    return 1.0 - inner / (na * nb)


def word_of(rel, gamma):
    """Unreduced integer index pair ``(alpha - gamma, beta + gamma)`` of the
    word a Sklyanin coefficient stands on."""
    first = (rel.alpha.a1 - gamma.a1, rel.alpha.a2 - gamma.a2)
    second = (rel.beta.a1 + gamma.a1, rel.beta.a2 + gamma.a2)
    return first, second


# --- scalar oracle -------------------------------------------------------

# Ordered two-letter word: ((i, j, (a1, a2)), (k, l, (a1, a2))) with 1-based
# coordinate indices and canonical characteristics.


def word_slot(word, m: int, n: int) -> int:
    """Flat position of an ordered two-letter word in the tensor-square basis."""
    (i, j, a), (k, l, b) = word
    g = m * m * n * n
    return generator_slot(i, j, a, m, n) * g + generator_slot(k, l, b, m, n)


@dataclass(frozen=True)
class RelationVector:
    """One labelled relation as its terms over ordered words, sorted by word
    (:func:`word_slot` layout); every other word has coefficient zero."""

    label: str
    m: int
    n: int
    words: np.ndarray
    values: np.ndarray

    @property
    def width(self) -> int:
        return (self.m * self.m * self.n * self.n) ** 2

    @classmethod
    def from_terms(cls, terms, m, n, label) -> "RelationVector":
        """The relation with the given word coefficients; words that land on
        one slot add up."""
        coeffs: dict[int, complex] = {}
        for word, value in terms.items():
            slot = word_slot(word, m, n)
            coeffs[slot] = coeffs.get(slot, 0) + value
        words = np.array(list(coeffs), dtype=int)
        values = np.array(list(coeffs.values()), dtype=complex)
        order = np.argsort(words)
        return cls(label, m, n, words[order], values[order])


def set_of(vectors) -> RelationSet:
    """The set of the given labelled vectors, in order."""
    rows = np.repeat(np.arange(len(vectors)), [v.words.size for v in vectors])
    words = np.concatenate([np.zeros(0, dtype=int)] + [v.words for v in vectors])
    values = np.concatenate([np.zeros(0, dtype=complex)] + [v.values for v in vectors])
    width = vectors[0].width if vectors else 0
    (out,) = RelationSet.from_terms(rows, words, [values], len(vectors), width)
    return out


@dataclass(frozen=True)
class TVRelation:
    """One coordinate-exchange relation on the scalar (n == 1) generators:
    its kind, its index tuple, and its coefficients on ordered coordinate
    words ``((i, j), (k, l))``."""

    kind: str
    indices: tuple[int, ...]
    terms: Mapping[tuple[tuple[int, int], tuple[int, int]], complex]

    def vector(self, m: int) -> RelationVector:
        zero = (0, 0)
        words = {
            ((i, j, zero), (k, l, zero)): value
            for ((i, j), (k, l)), value in self.terms.items()
        }
        return RelationVector.from_terms(words, m, 1, f"tv-{self.kind}-{self.indices}")


def oracle_tv_relations(m, q1, q2, hbar, ctx) -> list[TVRelation]:
    """The coordinate-exchange relations one labelled relation at a time,
    with the same coefficient formulas as the set build.

    Each theta value is a one-entry array, so that its products run
    numpy's array loops as in the set build: numpy's scalar arithmetic
    rounds complex products differently."""
    p = tuple(complex(v) for v in q1)
    s = tuple(complex(v) for v in q2)
    tau = ctx.tau

    def th(u):
        return theta(np.array([u]), ctx)

    out: list[TVRelation] = []
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            for k in range(j + 1, m + 1):
                terms = {((i, j), (i, k)): 1.0, ((i, k), (i, j)): -1.0}
                out.append(TVRelation("commuting-pair", (i, j, k), terms))
    for k in range(1, m + 1):
        for i in range(1, m + 1):
            for j in range(i + 1, m + 1):
                x = p[i - 1] - p[j - 1]
                guard_denominator("shifted first-set difference", x + hbar, tau)
                ratio = th(x - hbar) / th(x + hbar)
                terms = {((i, k), (j, k)): 1.0, ((j, k), (i, k)): -ratio[0]}
                out.append(TVRelation("same-second-index", (i, j, k), terms))
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
                    front = th(y - hbar) / th(y)
                    back = th(x - hbar) / th(x)
                    cross = th(hbar) * th(x + y) / (th(x) * th(y))
                    terms = {
                        ((i, j), (k, l)): front[0],
                        ((k, l), (i, j)): -back[0],
                        ((i, l), (k, j)): cross[0],
                    }
                    out.append(TVRelation("mixed", (i, j, k, l), terms))
    return out


@dataclass(frozen=True)
class SklyaninRelation:
    """Structure constants of one vertex-type exchange relation.

    ``coefficients`` maps the summation characteristic gamma to the weight
    of the word with integer indices ``(alpha - gamma, beta + gamma)``;
    ``scale`` is the magnitude of the largest single term that went into
    them.
    """

    alpha: LatticeIndex
    beta: LatticeIndex
    coefficients: Mapping[LatticeIndex, complex]
    scale: float = 0.0

    @property
    def n(self) -> int:
        return self.alpha.n


def relation_of(table: SklyaninTable, p: int = 0) -> SklyaninRelation:
    """Row ``p`` of a table as one relation."""
    n = table.n
    a1, a2, b1, b2 = (int(v[p]) for v in table.pairs)
    values = dict(zip(all_indices(n), table.values[p].tolist()))
    alpha, beta = LatticeIndex(a1, a2, n), LatticeIndex(b1, b2, n)
    return SklyaninRelation(alpha, beta, values, float(table.scale[p]))


def table_of(rel: SklyaninRelation) -> SklyaninTable:
    """One relation as a one-row table."""
    values = np.array([[rel.coefficients.get(g, 0j) for g in all_indices(rel.n)]], complex)
    pairs = label_arrays((rel.alpha,), (rel.beta,))
    return SklyaninTable(rel.n, pairs, values, np.array([rel.scale]))


def residual_of(rel: SklyaninRelation, ctx=CTX, **kwargs) -> float:
    """The representation residual of one relation."""
    return float(sklyanin_representation_residual(table_of(rel), ctx, **kwargs)[0])


def oracle_sklyanin(alpha, beta, hbar, ctx):
    """Bare Sklyanin constants, one Eisenstein call per term."""
    n = alpha.n
    coeffs, scale = {}, 0.0
    if n == 1:
        return SklyaninRelation(alpha, beta, coeffs)
    (a1, a2), (b1, b2) = alpha.pair, beta.pair
    d1, d2 = a1 - b1, a2 - b2
    for gamma in all_indices(n):
        g1, g2 = gamma.pair
        raws = [(g1, g2), (d1 - g1, d2 - g2), (a1 - g1, a2 - g2), (b1 + g1, b2 + g2)]
        fn, signs = eisenstein_e1, (1, -1, 1, -1)
        if beta.pair == (0, 0):
            fn, signs, raws = eisenstein_e2, (1, -1), [(g1, g2), (a1 - g1, a2 - g2)]
        parts = [
            sg * fn(omega_raw(*c, n, ctx.tau) + hbar, ctx) for sg, c in zip(signs, raws)
        ]
        scale = max(scale, *(abs(v) for v in parts))
        coeffs[gamma] = kappa_raw(gamma.pair, (d1, d2), n) * sum(parts)
    return SklyaninRelation(alpha, beta, coeffs, scale)


def oracle_sklyanin_eta(alpha, beta, eta, hbar, ctx):
    base = oracle_sklyanin(alpha, beta, hbar, ctx)
    n = alpha.n
    if n == 1:
        return base
    phase = cmath.exp(-2j * cmath.pi * (alpha.a2 + beta.a2) * (eta - hbar) / n)
    coeffs, pref_max = {}, 0.0
    for gamma, value in base.coefficients.items():
        first, second = word_of(base, gamma)
        pref = theta(hbar + omega_raw(*first, n, ctx.tau), ctx) * theta(
            hbar + omega_raw(*second, n, ctx.tau), ctx
        )
        pref_max = max(pref_max, abs(pref))
        coeffs[gamma] = value * pref * phase
    return SklyaninRelation(alpha, beta, coeffs, base.scale * pref_max)


def oracle_residual(rel, ctx, shift=None):
    """One relation in the basis representation, both letters of every
    word stacked: the one-pair form of the representation residual."""
    n = rel.n
    if not rel.coefficients:
        return 0.0
    g1, g2 = np.array([g.pair for g in rel.coefficients]).T
    values = np.array(list(rel.coefficients.values()))
    d1 = np.stack([rel.alpha.a1 - g1, rel.beta.a1 + g1])
    d2 = np.stack([rel.alpha.a2 - g2, rel.beta.a2 + g2])
    reps = basis_t_raw(-d1, -d2, n)
    if shift is not None:
        hbar, eta = shift
        reps = reps / theta(hbar + omega_raw(d1, d2, n, ctx.tau), ctx)[..., None, None]
        reps = reps * np.exp(2j * np.pi * d2 * (eta - hbar) / n)[..., None, None]
    acc = (values[:, None, None] * (reps[0] @ reps[1])).sum(axis=0)
    norms = np.linalg.norm(reps, axis=(2, 3))
    den = max(float(np.sum(np.abs(values) * norms[0] * norms[1])), rel.scale)
    if den == 0.0:
        return 0.0
    return float(np.linalg.norm(acc)) / den


def pair_by_pair_trial(n, hbar, eta, ctx):
    """The ``sklyanin-rep`` trial one label pair at a time, each pair's
    constants from a one-pair array build: the largest residual of the
    bare and the shifted relations."""
    gammas = all_indices(n)
    worst = 0.0
    for alpha in gammas:
        for beta in gammas:
            pairs = label_arrays((alpha,), (beta,))
            coeffs, scale = bare_constants(pairs, hbar, n, ctx)
            bare = SklyaninRelation(
                alpha, beta, dict(zip(gammas, coeffs[0].tolist())), float(scale[0])
            )
            pref = theta_prefactors(pairs, hbar, n, ctx)[0]
            phase = cmath.exp(-2j * cmath.pi * (alpha.a2 + beta.a2) * (eta - hbar) / n)
            values = coeffs[0] * pref * phase
            shifted = SklyaninRelation(
                alpha,
                beta,
                dict(zip(gammas, values.tolist())),
                float(scale[0]) * float(np.abs(pref).max()),
            )
            worst = max(
                worst,
                oracle_residual(bare, ctx),
                oracle_residual(shifted, ctx, (hbar, eta)),
            )
    return worst


def oracle_label(raw, w, n, ctx):
    a1, a2 = raw
    r1, r2 = a1 % n, a2 % n
    k1, k2 = (a1 - r1) // n, (a2 - r2) // n
    if k1 == 0 and k2 == 0:
        return (r1, r2), 1.0 + 0.0j
    om = omega_raw(r1, r2, n, ctx.tau)
    growth = ((-1) ** (k1 + k2)) * cmath.exp(
        1j * cmath.pi * (k1 * r2 + k2 * r1 + n * k1 * k2)
        - 1j * cmath.pi * ctx.tau * k2 * k2
        - 2j * cmath.pi * k2 * (w + om)
    )
    return (r1, r2), 1.0 / growth


def oracle_family(family, idx, alpha, beta, params, ctx):
    """One composite-family relation as a dict of words, term by term."""
    n, hbar, tau = alpha.n, params.hbar, ctx.tau
    p, s = params.q1, params.q2
    (a1, a2), (b1, b2) = alpha.pair, beta.pair
    terms = {}

    def add(word, value):
        terms[word] = terms.get(word, 0.0) + value

    def add_raw(ij1, raw1, w1, ij2, raw2, w2, value):
        w2 = w2 + hbar * ((ij2[1] == ij1[1]) - (ij2[0] == ij1[0]))
        lab1, x1 = oracle_label(raw1, w1, n, ctx)
        lab2, x2 = oracle_label(raw2, w2, n, ctx)
        add(((ij1[0], ij1[1], lab1), (ij2[0], ij2[1], lab2)), value * x1 * x2)

    def kap(g1, g2):
        return kappa_raw((g1, g2), alpha.pair, n) * kappa_raw(beta.pair, (g1, g2), n)

    def w(c1, c2):
        return omega_raw(c1, c2, n, tau)

    if family == 1:
        j, i = idx
        eta = s[i - 1] - p[j - 1]
        rel = oracle_sklyanin_eta(alpha, beta, eta, hbar, ctx)
        for gamma, value in rel.coefficients.items():
            first, second = word_of(rel, gamma)
            add_raw((j, i), first, eta, (j, i), second, eta, value)
        return terms
    if family == 2:
        i, j, k = idx
        x = p[j - 1] - p[k - 1]
        letters, ws = ((j, i), (k, i)), (s[i - 1] - p[j - 1], s[i - 1] - p[k - 1])
        args = lambda g1, g2: (hbar + w(g1, g2), x + w(b1 + g1 - a1, b2 + g2 - a2))
        extra = [(((k, i, beta.pair), (j, i, alpha.pair)), -mixed_scalar(hbar, x, n, ctx))]
    elif family == 3:
        i, j, k = idx
        x = s[j - 1] - s[k - 1]
        letters, ws = ((i, k), (i, j)), (s[k - 1] - p[i - 1], s[j - 1] - p[i - 1])
        args = lambda g1, g2: (hbar + w(a1 - b1 - g1, a2 - b2 - g2), -x - w(g1, g2))
        extra = [(((i, j, alpha.pair), (i, k, beta.pair)), -mixed_scalar(hbar, x, n, ctx))]
    else:
        i, j, k, l = idx
        x, y = s[i - 1] - s[k - 1], p[j - 1] - p[l - 1]
        letters, ws = ((j, k), (l, i)), (s[k - 1] - p[j - 1], s[i - 1] - p[l - 1])
        args = lambda g1, g2: (x + w(g1, g2), y + w(b1 + g1 - a1, b2 + g2 - a2))
        extra = [
            (((l, k, beta.pair), (j, i, alpha.pair)), -mixed_scalar(hbar, y, n, ctx)),
            (((j, i, alpha.pair), (l, k, beta.pair)), mixed_scalar(hbar, x, n, ctx)),
        ]
    for gamma in all_indices(n):
        g1, g2 = gamma.pair
        value = kap(g1, g2) * kronecker_phi(*args(g1, g2), ctx)
        first, second = (a1 - g1, a2 - g2), (b1 + g1, b2 + g2)
        add_raw(letters[0], first, ws[0], letters[1], second, ws[1], value)
    for word_, value in extra:
        add(word_, value)
    return terms


def oracle_reference(n, m, params, ctx):
    """Unit rows of the reference set, relation by relation.  Family-1
    relations whose bare constants cancel to 1e-9 of their own scale are
    dropped, as are relations that are exactly zero."""
    g = m * m * n * n
    r = range(1, m + 1)
    order = [(1, (j, i)) for j in r for i in r] if n > 1 else []
    for i in r:
        for j in r:
            for k in r:
                if j != k:
                    order += [(2, (i, j, k)), (3, (i, j, k))]
    for i in r:
        for k in r:
            for j in r:
                for l in r:
                    if k != i and l != j:
                        order.append((4, (i, j, k, l)))
    rows = []
    for family, idx in order:
        for alpha in all_indices(n):
            for beta in all_indices(n):
                if family == 1:
                    bare = oracle_sklyanin(alpha, beta, params.hbar, ctx)
                    if max(map(abs, bare.coefficients.values())) <= 1e-9 * bare.scale:
                        continue
                row = np.zeros(g * g, dtype=complex)
                for w, v in oracle_family(family, idx, alpha, beta, params, ctx).items():
                    row[word_slot(w, m, n)] += v
                if np.any(row):
                    rows.append(row)
    rows = np.array(rows).reshape(len(rows), g * g)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def bare_at(alpha, beta, hbar=HBAR):
    """The bare constants of one label pair, as a one-row table."""
    return sklyanin_coeffs(label_arrays((alpha,), (beta,)), alpha.n, hbar, CTX)


def all_pairs(n):
    """All n^4 label pairs as (a1, a2, b1, b2) integer arrays, alpha outer."""
    alpha, beta = np.divmod(np.arange(n**4), n * n)
    return (*np.divmod(alpha, n), *np.divmod(beta, n))


def trial_params(seed, n, m, tau=TAU):
    """The parameters of trial 0 of the ``relations`` check at this seed."""
    cfg = CheckConfig(check="relations", n=n, m=m, tau=tau)
    spec, ctx = _RUNNERS["relations"].spec(cfg), EllipticContext(tau)
    return sample_params(_trial_seed(seed, "relations", 0), spec, ctx)[0]


def crossed_beta0_coeffs(alpha, beta, hbar):
    """Theta-rescaled constants at eta == hbar with the sign of gamma flipped
    inside the first prefactor, the variant that breaks the beta == 0 branch
    for nonzero alpha."""
    base = relation_of(bare_at(alpha, beta, hbar))
    n = alpha.n
    coeffs = {}
    pref_max = 0.0
    for gamma, value in base.coefficients.items():
        _, second = word_of(base, gamma)
        first = (alpha.a1 + gamma.a1, alpha.a2 + gamma.a2)
        pref = theta(hbar + omega_raw(*first, n, TAU), CTX) * theta(
            hbar + omega_raw(*second, n, TAU), CTX
        )
        pref_max = max(pref_max, abs(pref))
        coeffs[gamma] = value * pref
    return SklyaninRelation(alpha, beta, coeffs, base.scale * pref_max)


class TestSlots:
    def test_generator_slots_cover_the_range(self):
        m, n = 2, 2
        seen = {
            generator_slot(i, j, (a1, a2), m, n)
            for i in (1, 2)
            for j in (1, 2)
            for a1 in (0, 1)
            for a2 in (0, 1)
        }
        assert seen == set(range(m * m * n * n))

    def test_characteristic_is_reduced(self):
        assert generator_slot(1, 1, (-1, 3), 2, 2) == generator_slot(1, 1, (1, 1), 2, 2)

    def test_out_of_range_coordinates_raise(self):
        with pytest.raises(ValueError):
            generator_slot(0, 1, (0, 0), 2, 2)
        with pytest.raises(ValueError):
            generator_slot(1, 3, (0, 0), 2, 2)

    def test_word_slots_are_distinct(self):
        m, n = 2, 1
        slots = set()
        labels = [(i, j, (0, 0)) for i in (1, 2) for j in (1, 2)]
        for g1 in labels:
            for g2 in labels:
                slots.add(word_slot((g1, g2), m, n))
        assert len(slots) == 16


class TestRelationVector:
    """Relations as terms, through :meth:`RelationSet.from_terms`."""

    def test_from_terms_accumulates(self):
        word_a = ((1, 1, (0, 0)), (1, 2, (0, 0)))
        word_b = ((1, 2, (0, 0)), (1, 1, (0, 0)))
        vec = RelationVector.from_terms({word_a: 1.5, word_b: -2.0}, 2, 1, "demo")
        assert coords(vec)[word_slot(word_a, 2, 1)] == 1.5
        assert coords(vec)[word_slot(word_b, 2, 1)] == -2.0
        # the set takes the terms in any order, and holds the unit row
        rows = np.zeros(2, dtype=int)
        (s,) = RelationSet.from_terms(rows, vec.words[::-1], [vec.values[::-1]], 1, 16)
        assert np.array_equal(dense_rows(s)[0], coords(vec) / 2.5)
        assert not s.blocks[0].flags.writeable

    def test_zero_vector_dropped(self):
        (s,) = RelationSet.from_terms(np.array([0, 1]), np.array([0, 2]), [[0j, 3]], 2, 4)
        assert len(s) == 1 and span_rank([s]) == [1]
        assert np.array_equal(dense_rows(s), [[0, 0, 1, 0]])

    def test_nonfinite_rejected(self):
        values = np.array([1.0, complex("nan")])
        with pytest.raises(ValueError, match="must be finite"):
            RelationSet.from_terms(np.array([0, 0]), np.array([0, 3]), [values], 1, 16)

    def test_wrong_length_rejected(self):
        ones = np.ones(4, dtype=complex)
        with pytest.raises(ValueError, match="values"):
            RelationSet.from_terms(np.zeros(5, dtype=int), np.arange(5), [ones], 1, 16)
        with pytest.raises(ValueError, match="word index outside the 16 words"):
            RelationSet.from_terms(np.array([0]), np.array([20]), [ones[:1]], 1, 16)
        with pytest.raises(ValueError, match="row index outside the 1 rows"):
            RelationSet.from_terms(np.array([1]), np.array([3]), [ones[:1]], 1, 16)
        with pytest.raises(ValueError, match="repeats a word"):
            RelationSet.from_terms(np.array([0, 0]), np.array([3, 3]), [ones[:2]], 1, 16)


class TestSklyaninBare:
    @pytest.mark.parametrize("n", [2, 3])
    def test_representation_annihilates_every_pair(self, n):
        table = sklyanin_coeffs(all_pairs(n), n, HBAR, CTX)
        nontrivial = int(np.sum(np.abs(table.values).sum(axis=1) > 1e-8))
        assert sklyanin_representation_residual(table, CTX).max() <= 1e-9
        assert nontrivial >= n**4 // 2

    @pytest.mark.parametrize("n", [2, 3])
    def test_beta_zero_alpha_zero_antisymmetry(self, n):
        zero = LatticeIndex(0, 0, n)
        rel = relation_of(bare_at(zero, zero))
        ref = max(abs(v) for v in rel.coefficients.values())
        for gamma, value in rel.coefficients.items():
            minus = LatticeIndex(-gamma.a1, -gamma.a2, n)
            assert abs(rel.coefficients[minus] + value) <= 1e-10 * max(ref, 1.0)

    def test_n1_is_empty(self):
        one = LatticeIndex(0, 0, 1)
        assert relation_of(bare_at(one, one)).coefficients == {}

    def test_mixed_moduli_raise(self):
        with pytest.raises(ValueError):
            bare_at(LatticeIndex(0, 1, 2), LatticeIndex(0, 1, 3))

    def test_coefficients_vary_smoothly_in_hbar(self):
        hb = 0.23 + 0.2j
        n = 2
        pairs = [
            (LatticeIndex(1, 0, n), LatticeIndex(0, 1, n)),
            (LatticeIndex(1, 1, n), LatticeIndex(0, 0, n)),
        ]
        for alpha, beta in pairs:
            base = relation_of(bare_at(alpha, beta, hb))
            bumped = relation_of(bare_at(alpha, beta, hb + 1e-8))
            ref = max(abs(v) for v in base.coefficients.values())
            delta = max(
                abs(bumped.coefficients[g] - v) for g, v in base.coefficients.items()
            )
            assert delta <= 1e-6 * max(ref, 1.0)


class TestSklyaninTheta:
    @pytest.mark.parametrize("n", [2, 3])
    def test_rescaled_representation(self, n):
        table = sklyanin_coeffs_eta(
            sklyanin_coeffs(all_pairs(n), n, HBAR, CTX), HBAR, HBAR, CTX
        )
        residual = sklyanin_representation_residual(table, CTX, shift=(HBAR, HBAR))
        assert residual.max() <= 1e-9

    @pytest.mark.parametrize("n", [2, 3])
    def test_shifted_parameter_representation(self, n):
        eta = 0.37 + 0.29j
        table = sklyanin_coeffs_eta(
            sklyanin_coeffs(all_pairs(n), n, HBAR, CTX), eta, HBAR, CTX
        )
        residual = sklyanin_representation_residual(table, CTX, shift=(HBAR, eta))
        assert residual.max() <= 1e-9

    def test_crossed_beta0_variant_fails_the_representation(self):
        n = 2
        alpha = LatticeIndex(1, 0, n)
        beta = LatticeIndex(0, 0, n)
        matched = sklyanin_coeffs_eta(bare_at(alpha, beta), HBAR, HBAR, CTX)
        crossed = crossed_beta0_coeffs(alpha, beta, HBAR)
        at_hbar = (HBAR, HBAR)
        assert sklyanin_representation_residual(matched, CTX, shift=at_hbar)[0] <= 1e-9
        assert residual_of(crossed, shift=at_hbar) > 1e-3

    def test_eta_form_is_bare_times_prefactors_at_eta_equal_hbar(self):
        n = 2
        alpha = LatticeIndex(1, 1, n)
        beta = LatticeIndex(0, 1, n)
        bare = relation_of(bare_at(alpha, beta))
        tilde = relation_of(sklyanin_coeffs_eta(bare_at(alpha, beta), HBAR, HBAR, CTX))
        for gamma, value in bare.coefficients.items():
            first, second = word_of(bare, gamma)
            pref = theta(HBAR + omega_raw(*first, n, TAU), CTX) * theta(
                HBAR + omega_raw(*second, n, TAU), CTX
            )
            assert tilde.coefficients[gamma] == pytest.approx(value * pref, rel=1e-12)

    def test_parameter_shift_is_one_global_phase(self):
        n = 3
        alpha = LatticeIndex(2, 1, n)
        beta = LatticeIndex(1, 2, n)
        eta = 0.44 - 0.18j
        at_hbar = relation_of(sklyanin_coeffs_eta(bare_at(alpha, beta), HBAR, HBAR, CTX))
        shifted = relation_of(sklyanin_coeffs_eta(bare_at(alpha, beta), eta, HBAR, CTX))
        phase = cmath.exp(
            -2j * cmath.pi * (alpha.a2 + beta.a2) * (eta - HBAR) / n
        )
        for gamma, value in at_hbar.coefficients.items():
            assert shifted.coefficients[gamma] == pytest.approx(
                value * phase, rel=1e-12
            )

    def test_residual_is_scale_invariant(self):
        n = 2
        alpha = LatticeIndex(1, 0, n)
        beta = LatticeIndex(0, 1, n)
        table = bare_at(alpha, beta)
        scaled = SklyaninTable(n, table.pairs, (7 - 3j) * table.values, np.zeros(1))
        a = sklyanin_representation_residual(table, CTX)[0]
        b = sklyanin_representation_residual(scaled, CTX)[0]
        assert a == pytest.approx(b, rel=1e-12)


def sklyanin_draw(seed, n, tau=TAU):
    """The parameters of trial 0 of the ``sklyanin-rep`` check at this seed."""
    cfg = CheckConfig(check="sklyanin-rep", n=n, m=1, tau=tau)
    params, zs = sample_params(
        _trial_seed(seed, "sklyanin-rep", 0),
        _RUNNERS["sklyanin-rep"].spec(cfg),
        EllipticContext(tau),
    )
    return cfg, params, zs


def sklyanin_trial(cfg, params, zs, ctx):
    """The (residual, rank) outcome of one ``sklyanin-rep`` trial, as a
    batch of one."""
    return _RUNNERS["sklyanin-rep"].run(cfg, [(params, zs)], ctx)[0]


def chunk_residuals(n, hbar, eta):
    """Every pair's bare and shifted residual, chunk by chunk."""
    bare, shifted = [], []
    for pairs in label_pair_chunks(n, 4 * n**2):
        table = sklyanin_coeffs(pairs, n, hbar, CTX)
        bare.append(sklyanin_representation_residual(table, CTX))
        table = sklyanin_coeffs_eta(table, eta, hbar, CTX)
        shifted.append(sklyanin_representation_residual(table, CTX, shift=(hbar, eta)))
    return np.concatenate(bare), np.concatenate(shifted)


class TestSklyaninTable:
    """Many label pairs at once against the pair-by-pair oracle."""

    @pytest.mark.parametrize("tau", [TAU, 5.3 + 0.3j])
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_trial_matches_the_pair_by_pair_loop(self, n, tau):
        ctx = EllipticContext(tau)
        for seed in range(10 if n < 6 else 2):
            cfg, params, zs = sklyanin_draw(seed, n, tau)
            outcome = []
            for trial in (
                lambda: sklyanin_trial(cfg, params, zs, ctx)[0],
                lambda: pair_by_pair_trial(n, params.hbar, zs[0], ctx),
            ):
                try:
                    outcome.append(trial())
                except PoleProximityError:
                    outcome.append(None)
            got, want = outcome
            assert (got is None) == (want is None), seed
            if got is not None:
                assert abs(got - want) <= 1e-15, seed

    def test_rows_are_the_one_pair_relations(self):
        n = 3
        labels = all_indices(n)
        alphas, betas = labels[::2], labels[::-2]
        table = sklyanin_coeffs(label_arrays(alphas, betas), n, HBAR, CTX)
        eta = 0.37 + 0.29j
        shifted = sklyanin_coeffs_eta(table, eta, HBAR, CTX)
        residuals = sklyanin_representation_residual(shifted, CTX, shift=(HBAR, eta))
        for p, (alpha, beta) in enumerate(zip(alphas, betas)):
            for whole, one in (
                (table, bare_at(alpha, beta)),
                (shifted, sklyanin_coeffs_eta(bare_at(alpha, beta), eta, HBAR, CTX)),
            ):
                assert [v[p] for v in whole.pairs] == [v[0] for v in one.pairs]
                assert np.array_equal(whole.values[p], one.values[0])
                assert whole.scale[p] == one.scale[0]
            assert residuals[p] == sklyanin_representation_residual(
                one, CTX, shift=(HBAR, eta)
            )[0]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tables_of_several_trials_equal_single_trials_bit_for_bit(self, n):
        draws = [sklyanin_draw(seed, n)[1:] for seed in range(5)]
        hbar = np.array([params.hbar for params, _ in draws])
        eta = np.array([zs[0] for _, zs in draws])
        pairs = next(label_pair_chunks(n, 4 * n**2))
        bare = sklyanin_coeffs(pairs, n, hbar, CTX)
        shifted = sklyanin_coeffs_eta(bare, eta, hbar, CTX)
        # two etas per trial, as family 1 passes one per coordinate pair
        etas = np.stack([eta, eta + 0.07 - 0.02j], axis=1)
        per_pair = sklyanin_coeffs_eta(bare, etas, hbar, CTX)
        assert bare.values.shape == (5, n**4, n * n if n > 1 else 0)
        got = (
            bare,
            shifted,
            sklyanin_representation_residual(bare, CTX),
            sklyanin_representation_residual(shifted, CTX, shift=(hbar, eta)),
        )
        for t, (h, e) in enumerate(zip(hbar.tolist(), eta.tolist())):
            one = sklyanin_coeffs(pairs, n, h, CTX)
            one_shifted = sklyanin_coeffs_eta(one, e, h, CTX)
            want = (
                one,
                one_shifted,
                sklyanin_representation_residual(one, CTX),
                sklyanin_representation_residual(one_shifted, CTX, shift=(h, e)),
            )
            for table, single in zip(got[:2], want[:2]):
                assert np.array_equal(table.values[t], single.values)
                assert np.array_equal(table.scale[t], single.scale)
            for rows, single in zip(got[2:], want[2:]):
                assert np.array_equal(rows[t], single)
            for k, e in enumerate(etas[t].tolist() if n > 1 else []):
                single = sklyanin_coeffs_eta(one, e, h, CTX)
                assert np.array_equal(per_pair.values[t, k], single.values)
                assert np.array_equal(per_pair.scale[t, 0], single.scale)

    def test_n1_table_is_empty(self):
        one = LatticeIndex(0, 0, 1)
        table = sklyanin_coeffs(label_arrays([one, one], [one, one]), 1, HBAR, CTX)
        assert table.values.shape == (2, 0)
        assert relation_of(table, 1).coefficients == {}
        assert sklyanin_coeffs_eta(table, 0.3, HBAR, CTX) is table
        assert sklyanin_representation_residual(table, CTX).tolist() == [0.0, 0.0]

    def test_mismatched_labels_raise(self):
        a2, a3 = LatticeIndex(0, 1, 2), LatticeIndex(0, 1, 3)
        with pytest.raises(ValueError):
            label_arrays([a2, a2], [a2, a3])
        with pytest.raises(ValueError):
            label_arrays([a2, a2], [a2])

    def test_chunks_cover_every_pair_once_in_order(self, monkeypatch):
        monkeypatch.setattr(sklyanin, "_CHUNK", 7 * 3**4)
        chunks = list(label_pair_chunks(3, 3**4))
        assert [pairs[0].size for pairs in chunks] == [7] * 11 + [4]
        flat = [tuple(map(int, pair)) for pairs in chunks for pair in zip(*pairs)]
        labels = all_indices(3)
        assert flat == [alpha.pair + beta.pair for alpha in labels for beta in labels]

    def test_uneven_chunks_give_identical_results(self, monkeypatch):
        n = 3
        cfg, params, zs = sklyanin_draw(0, n)
        whole = chunk_residuals(n, params.hbar, zs[0])
        trial = sklyanin_trial(cfg, params, zs, CTX)
        assert len(list(label_pair_chunks(n, 4 * n**2))) == 1
        monkeypatch.setattr(sklyanin, "_CHUNK", 7 * 4 * n**2)
        assert len(list(label_pair_chunks(n, 4 * n**2))) == 12
        for got, want in zip(chunk_residuals(n, params.hbar, zs[0]), whole):
            assert np.array_equal(got, want)
        assert sklyanin_trial(cfg, params, zs, CTX) == trial

    def test_distinct_letters_give_the_bits_of_every_letter(self, monkeypatch):
        # each kernel runs once per distinct integer letter, then gathers
        n = 4
        _, params, zs = sklyanin_draw(0, n)
        hbar, eta = params.hbar, zs[0]
        pairs = next(label_pair_chunks(n, 4 * n**2))

        def outputs():
            table = sklyanin_coeffs(pairs, n, hbar, CTX)
            shifted = sklyanin_coeffs_eta(table, eta, hbar, CTX)
            residual = sklyanin_representation_residual(shifted, CTX, shift=(hbar, eta))
            return table.values, table.scale, shifted.values, shifted.scale, residual

        sizes = []
        for name in ("eisenstein_e1", "eisenstein_e2", "theta"):
            kernel = getattr(sklyanin, name)
            spy = lambda z, ctx, kernel=kernel: sizes.append(z.size) or kernel(z, ctx)
            monkeypatch.setattr(sklyanin, name, spy)
        distinct = outputs()
        # letter components lie in [-(2n - 2), 2n - 2]
        assert len(sizes) == 4 and max(sizes) <= (4 * n - 3) ** 2
        # every letter counted as distinct: one kernel entry per letter
        monkeypatch.setattr(
            sklyanin,
            "_distinct_letters",
            lambda d1, d2: (d1.ravel(), d2.ravel(), np.arange(d1.size).reshape(d1.shape)),
        )
        for got, want in zip(distinct, outputs()):
            assert np.array_equal(got, want)

    def test_row_residuals_match_the_oracle_at_n8(self):
        n = 8
        _, params, zs = sklyanin_draw(42, n)
        hbar, eta = params.hbar, zs[0]
        pairs = tuple(v[::64] for v in all_pairs(n))
        bare = sklyanin_coeffs(pairs, n, hbar, CTX)
        shifted = sklyanin_coeffs_eta(bare, eta, hbar, CTX)
        for table, shift in ((bare, None), (shifted, (hbar, eta))):
            got = sklyanin_representation_residual(table, CTX, shift=shift)
            want = [
                oracle_residual(relation_of(table, p), CTX, shift) for p in range(64)
            ]
            assert np.abs(got - want).max() <= 1e-15
        # coefficients that do not cancel pin the normalization, not only zero
        rng = np.random.default_rng(0)
        values = rng.normal(size=(64, n * n, 2)) @ np.array([1, 1j])
        noise = SklyaninTable(n, pairs, values, np.zeros(64))
        for shift in (None, (hbar, eta)):
            got = sklyanin_representation_residual(noise, CTX, shift=shift)
            want = [
                oracle_residual(relation_of(noise, p), CTX, shift) for p in range(64)
            ]
            assert np.allclose(got, want, rtol=1e-12, atol=0)

    def test_trial_temporaries_stay_bounded(self):
        # all 1296 pairs at n = 6 in one chunk would peak at about 19 MB traced
        for n in (6, 8):
            cfg, params, zs = sklyanin_draw(42, n)
            tracemalloc.start()
            try:
                residual, _ = sklyanin_trial(cfg, params, zs, CTX)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert residual <= 1e-9, n
            assert peak <= 16 * 2**20, n

    def test_residual_guards_its_theta_denominators(self):
        # gamma == alpha, column 2, puts the first letter at index 0, so
        # hbar itself divides
        n = 2
        table = bare_at(LatticeIndex(1, 0, n), LatticeIndex(0, 1, n))
        with pytest.raises(PoleProximityError, match=r"hbar \+ omega_d\[0, 0, 2\]"):
            sklyanin_representation_residual(table, CTX, shift=(0.01 + 0.01j,) * 2)

    def test_residual_guards_every_letter_once_and_names_the_first_bad_one(self, monkeypatch):
        # One guard pass over every letter; a failure names the first
        # offending letter of the [letter, pair, gamma] array.
        n = 2
        table = SklyaninTable(
            n, next(label_pair_chunks(n, 1)), np.ones((16, 4), dtype=complex), np.zeros(16)
        )
        cases = [
            (
                0.01 - omega_raw(1, 1, n, TAU),
                "hbar + omega_d[0, 0, 3] = -1.29-0.8j lies 0.01 from the zero lattice"
                " (minimum 0.05)",
            ),
            (
                1.02 + TAU - omega_raw(0, 1, n, TAU),
                "hbar + omega_d[0, 0, 1] = 1.02+0j lies 0.02 from the zero lattice"
                " (minimum 0.05)",
            ),
        ]
        for hbar, message in cases:
            with pytest.raises(PoleProximityError) as raised:
                sklyanin_representation_residual(table, CTX, shift=(hbar, 0.3 + 0.2j))
            assert str(raised.value) == message
        sizes = []
        guard = sklyanin.guard_denominator
        monkeypatch.setattr(
            sklyanin,
            "guard_denominator",
            lambda name, z, tau: sizes.append(np.size(z)) or guard(name, z, tau),
        )
        sklyanin_representation_residual(table, CTX, shift=(HBAR, 0.3 + 0.2j))
        # the 2 * 16 * 4 letters of the table, in one call
        assert sizes == [128]


def kinds_of(rels) -> dict[str, int]:
    kinds: dict[str, int] = {}
    for rel in rels:
        kinds[rel.kind] = kinds.get(rel.kind, 0) + 1
    return kinds


def tv_draw(seed, m, tau):
    """The parameters of trial 0 of the ``tv-reduce`` check at this seed."""
    cfg = CheckConfig(check="tv-reduce", n=1, m=m, tau=tau)
    return sample_params(
        _trial_seed(seed, "tv-reduce", 0), _RUNNERS["tv-reduce"].spec(cfg), EllipticContext(tau)
    )[0]


class TestTVRelations:
    """The set build against the labelled oracle relations."""

    def test_counts_and_kinds(self):
        rels = oracle_tv_relations(2, Q1, Q2, HBAR, CTX)
        assert kinds_of(rels) == {"commuting-pair": 2, "same-second-index": 2, "mixed": 4}
        assert [len(s) for s in tv_relations(2, [Q1], [Q2], [HBAR], CTX)] == [8]

        q1 = (0.11 + 0.07j, 0.43 + 0.36j, 0.74 + 0.68j)
        q2 = (0.29 + 0.55j, 0.61 + 0.22j, 0.07 + 0.49j)
        rels3 = oracle_tv_relations(3, q1, q2, HBAR, CTX)
        assert kinds_of(rels3) == {"commuting-pair": 9, "same-second-index": 9, "mixed": 36}
        assert [len(s) for s in tv_relations(3, [q1], [q2], [HBAR], CTX)] == [54]

    def test_m1_is_empty(self):
        (tv,) = tv_relations(1, [(0.2 + 0.3j,)], [(0.4 + 0.5j,)], [HBAR], CTX)
        assert len(tv) == 0 and not tv.components
        assert oracle_tv_relations(1, (0.2 + 0.3j,), (0.4 + 0.5j,), HBAR, CTX) == []

    @pytest.mark.parametrize("tau", [TAU, 5.3 + 0.3j])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_set_matches_the_oracle_bit_for_bit(self, m, tau):
        ctx = EllipticContext(tau)
        built = 0
        for seed in range(3):
            params = tv_draw(seed, m, tau)
            outcome = []
            args = (m, params.q1, params.q2, params.hbar, ctx)
            for build in (
                lambda: tv_relations(m, [params.q1], [params.q2], [params.hbar], ctx)[0],
                lambda: set_of([r.vector(m) for r in oracle_tv_relations(*args)]),
            ):
                try:
                    outcome.append(build())
                except PoleProximityError:
                    outcome.append(None)
            got, want = outcome
            assert (got is None) == (want is None), seed
            if got is not None:
                built += 1
                assert same_sets(got, want), seed
                assert span_rank([got]) == span_rank([want])
        assert built

    def test_theta_ratio_coefficient(self):
        rels = oracle_tv_relations(2, Q1, Q2, HBAR, CTX)
        rel = next(
            r
            for r in rels
            if r.kind == "same-second-index" and r.indices == (1, 2, 1)
        )
        x = Q1[0] - Q1[1]
        expected = -theta(x - HBAR, CTX) / theta(x + HBAR, CTX)
        assert rel.terms[((2, 1), (1, 1))] == pytest.approx(expected, rel=1e-12)
        assert rel.terms[((1, 1), (2, 1))] == 1.0

    def test_mixed_coefficients(self):
        rels = oracle_tv_relations(2, Q1, Q2, HBAR, CTX)
        rel = next(r for r in rels if r.kind == "mixed" and r.indices == (1, 1, 2, 2))
        x = Q1[0] - Q1[1]
        y = Q2[0] - Q2[1]
        assert rel.terms[((1, 1), (2, 2))] == pytest.approx(
            theta(y - HBAR, CTX) / theta(y, CTX), rel=1e-12
        )
        assert rel.terms[((2, 2), (1, 1))] == pytest.approx(
            -theta(x - HBAR, CTX) / theta(x, CTX), rel=1e-12
        )
        assert rel.terms[((1, 2), (2, 1))] == pytest.approx(
            theta(HBAR, CTX) * theta(x + y, CTX) / (theta(x, CTX) * theta(y, CTX)),
            rel=1e-12,
        )

    def test_reversed_mixed_tuples_add_no_rank(self):
        rels = oracle_tv_relations(2, Q1, Q2, HBAR, CTX)
        mixed = [coords(r.vector(2)) for r in rels if r.kind == "mixed"]
        half = [
            coords(r.vector(2))
            for r in rels
            if r.kind == "mixed" and r.indices[0] < r.indices[2]
        ]
        assert len(mixed) == 4 and len(half) == 2
        rank_all = np.linalg.matrix_rank(np.array(mixed), tol=1e-10)
        rank_half = np.linalg.matrix_rank(np.array(half), tol=1e-10)
        assert rank_all == rank_half

    def test_pole_guard_on_denominators(self):
        q1 = (0.2 + 0.3j, 0.2 + 0.3j + 0.01)
        with pytest.raises(PoleProximityError):
            tv_relations(2, [q1], [Q2], [HBAR], CTX)

    def test_pole_guard_on_shifted_and_second_set_differences(self):
        q1 = (0.2 + 0.3j, 0.2 + 0.3j + HBAR + 0.01)
        with pytest.raises(PoleProximityError, match="shifted first-set difference"):
            tv_relations(2, [q1], [Q2], [HBAR], CTX)
        q2 = (0.31 + 0.63j, 0.31 + 0.63j + 0.01)
        with pytest.raises(PoleProximityError, match="second-set difference"):
            tv_relations(2, [Q1], [q2], [HBAR], CTX)


class TestFamilyCoefficients:
    def params_n1(self):
        return DynamicalParams(Q1, Q2, HBAR)

    def tv(self, kind, indices):
        return next(
            r
            for r in oracle_tv_relations(2, Q1, Q2, HBAR, CTX)
            if r.kind == kind and r.indices == indices
        )

    def test_family2_reduces_to_theta_ratio_exchange(self):
        one = LatticeIndex(0, 0, 1)
        row = family_row(2, (1, 1, 2), one, one, self.params_n1())
        tv = self.tv("same-second-index", (1, 2, 1))
        assert cosine_distance(row, coords(tv.vector(2))) <= 1e-12

    def test_family3_reduces_to_commuting_pair(self):
        one = LatticeIndex(0, 0, 1)
        row = family_row(3, (1, 1, 2), one, one, self.params_n1())
        tv = self.tv("commuting-pair", (1, 1, 2))
        assert cosine_distance(row, coords(tv.vector(2))) <= 1e-12

    @pytest.mark.parametrize("indices", [(1, 1, 2, 2), (1, 2, 2, 1)])
    def test_family4_reduces_to_mixed(self, indices):
        one = LatticeIndex(0, 0, 1)
        i, j, k, l = indices
        row = family_row(4, indices, one, one, self.params_n1())
        tv = self.tv("mixed", (j, i, l, k))
        assert cosine_distance(row, coords(tv.vector(2))) <= 1e-12

    def test_family1_places_eta_coefficients_on_words(self):
        n = 2
        alpha = LatticeIndex(1, 0, n)
        beta = LatticeIndex(0, 1, n)
        params = self.params_n1()
        j, i = 1, 2
        eta = Q2[i - 1] - Q1[j - 1]
        row = family_row(1, (j, i), alpha, beta, params)
        rel = relation_of(sklyanin_coeffs_eta(bare_at(alpha, beta), eta, HBAR, CTX))
        for gamma, value in rel.coefficients.items():
            first, second = word_of(rel, gamma)
            lab1, x1 = label_reduction_factor(first, eta, n, CTX)
            lab2, x2 = label_reduction_factor(second, eta, n, CTX)
            word = ((j, i, lab1), (j, i, lab2))
            expected = value * x1 * x2
            assert row[word_slot(word, 2, n)] == pytest.approx(expected, rel=1e-12)

    def test_family2_n1_coefficient_values(self):
        one = LatticeIndex(0, 0, 1)
        row = family_row(2, (2, 1, 2), one, one, self.params_n1())
        x = Q1[0] - Q1[1]
        zero = (0, 0)
        lead = row[word_slot(((1, 2, zero), (2, 2, zero)), 2, 1)]
        cross = row[word_slot(((2, 2, zero), (1, 2, zero)), 2, 1)]
        assert lead == pytest.approx(kronecker_phi(HBAR, x, CTX), rel=1e-12)
        assert cross == pytest.approx(-kronecker_phi(HBAR, -x, CTX), rel=1e-12)

    def test_index_validation(self):
        one = LatticeIndex(0, 0, 1)
        params = self.params_n1()
        with pytest.raises(ValueError):
            slnm_family_coeffs(2, (1, 2, 2), one, one, params, CTX)
        with pytest.raises(ValueError):
            slnm_family_coeffs(4, (1, 1, 1, 2), one, one, params, CTX)
        with pytest.raises(ValueError):
            slnm_family_coeffs(5, (1, 1, 2), one, one, params, CTX)
        with pytest.raises(ValueError):
            slnm_family_coeffs(2, (1, 1, 3), one, one, params, CTX)
        single = DynamicalParams(Q1, None, HBAR)
        with pytest.raises(ValueError):
            slnm_family_coeffs(2, (1, 1, 2), one, one, single, CTX)

    def test_family1_rejects_n1(self):
        one = LatticeIndex(0, 0, 1)
        with pytest.raises(ValueError):
            slnm_family_coeffs(1, (1, 2), one, one, self.params_n1(), CTX)


class TestArrayBuildParity:
    """The array builds against the scalar oracle at the top of this file.

    Coefficients are compared relative to the largest entry of their row
    or relation: entries that are exact cancellations in the Sklyanin sums
    come out as roundoff in both builds, and only their scale is defined.
    """

    @pytest.mark.parametrize("seed", [0, 9])
    @pytest.mark.parametrize("nm", [(2, 2), (2, 3), (3, 2), (4, 1), (1, 4)])
    def test_reference_rows_match_the_oracle(self, nm, seed):
        n, m = nm
        params = trial_params(seed, n, m)
        got = dense_rows(*relation_vectors_reference(n, m, [params], CTX))
        want = oracle_reference(n, m, params, CTX)
        assert got.shape == want.shape
        scale = np.abs(want).max(axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)

    def test_pole_guards_trip_on_the_same_draws(self):
        tau = 5.3 + 0.3j
        ctx = EllipticContext(tau)
        tripped = []
        for seed in range(10):
            params = trial_params(seed, 2, 2, tau)
            outcome = []
            for build in (
                lambda: relation_vectors_reference(2, 2, [params], ctx),
                lambda: oracle_reference(2, 2, params, ctx),
            ):
                try:
                    build()
                    outcome.append(False)
                except PoleProximityError:
                    outcome.append(True)
            assert outcome[0] == outcome[1], seed
            tripped.append(outcome[0])
        assert any(tripped) and not all(tripped)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sklyanin_constants_match_the_oracle(self, n):
        eta = 0.37 + 0.29j
        for alpha in all_indices(n):
            for beta in all_indices(n):
                base = bare_at(alpha, beta)
                pairs = [
                    (relation_of(base), oracle_sklyanin(alpha, beta, HBAR, CTX)),
                    (
                        relation_of(sklyanin_coeffs_eta(base, eta, HBAR, CTX)),
                        oracle_sklyanin_eta(alpha, beta, eta, HBAR, CTX),
                    ),
                ]
                for got, want in pairs:
                    assert list(got.coefficients) == list(want.coefficients)
                    a = np.array(list(got.coefficients.values()))
                    b = np.array(list(want.coefficients.values()))
                    assert np.all(np.abs(a - b) <= 1e-12 * want.scale)
                    assert got.scale == pytest.approx(want.scale, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_vector_view_matches_the_oracle(self, n):
        params = DynamicalParams(Q1, Q2, HBAR)
        for family in ((1,) if n > 1 else ()) + (2, 3, 4):
            for idx in family_tuples(family, 2):
                got, want = [], []
                for alpha in all_indices(n):
                    for beta in all_indices(n):
                        terms = oracle_family(family, idx, alpha, beta, params, CTX)
                        row = np.zeros(4 ** 2 * n**4, dtype=complex)
                        for w, v in terms.items():
                            row[word_slot(w, 2, n)] += v
                        want.append(row)
                        got.append(family_row(family, idx, alpha, beta, params))
                got, want = np.array(got), np.array(want)
                assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("nm", [(2, 2), (3, 2), (1, 3)])
    def test_terms_of_a_relation_sit_on_distinct_words(self, nm):
        n, m = nm
        ia, ib = np.divmod(np.arange(n**4), n * n)
        pairs = (ia // n, ia % n, ib // n, ib % n)
        for family in ((1,) if n > 1 else ()) + (2, 3, 4):
            idx = family_tuples(family, m)
            _, words = family_terms(family, idx, pairs, n, [trial_params(0, n, m)], CTX)
            assert words.shape[:2] == (len(idx), n**4)
            assert np.all(np.diff(np.sort(words, axis=-1), axis=-1) > 0)

    def test_family_one_chunks_give_identical_rows(self, monkeypatch):
        n, m = 3, 2
        params = [trial_params(0, n, m)]
        (whole,) = relation_vectors_reference(n, m, params, CTX)
        # 7 of the 81 label pairs per chunk, m^2 n^2 terms each
        monkeypatch.setattr(sklyanin, "_CHUNK", 7 * m * m * n * n)
        assert len(list(label_pair_chunks(n, m * m * n * n))) == 12
        assert same_sets(*relation_vectors_reference(n, m, params, CTX), whole)

    @pytest.mark.parametrize("family", [2, 3, 4])
    def test_family_digits_do_not_depend_on_the_grid_size(self, family):
        # At (3, 4) each family's kernel result passes 256 KB, where numpy
        # may multiply in place into a temporary with the operands swapped.
        n, m = 3, 4
        params = [trial_params(0, n, m)]
        idx = family_tuples(family, m)
        ia, ib = np.divmod(np.arange(n**4), n * n)
        pairs = (ia // n, ia % n, ib // n, ib % n)
        assert len(idx) * n**6 * 16 >= 256 * 1024
        whole, words = family_terms(family, idx, pairs, n, params, CTX)
        for t, p in [(0, slice(0, 3)), (len(idx) - 1, slice(40, 41))]:
            part, part_words = family_terms(
                family, idx[t : t + 1], tuple(v[p] for v in pairs), n, params, CTX
            )
            assert np.array_equal(part[0, 0], whole[0, t, p])
            assert np.array_equal(part_words[0], words[t, p])

    def test_family_one_temporaries_stay_bounded(self):
        # all 2401 pairs at (7, 1) at once peak at about 51 MB traced
        n, m = 7, 1
        params = trial_params(42, n, m)
        tracemalloc.start()
        try:
            (vectors,) = relation_vectors_reference(n, m, [params], CTX)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(vectors) == n**4
        assert peak <= 40 * 2**20
