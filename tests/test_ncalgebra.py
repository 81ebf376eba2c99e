"""Exchange-defect engine: ansatz coefficients, defect table, span matching."""

import cmath
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ellrmx import checks, ncalgebra
from ellrmx.checks import _RUNNERS, SPAN_TOL, CheckConfig, _trial_seed
from ellrmx.elliptic import (
    EllipticContext,
    LatticeIndex,
    PoleProximityError,
    omega,
    theta,
)
from ellrmx.ncalgebra import (
    RelationSet,
    component_ratio,
    defect_factorization_check,
    defect_table,
    l_operator,
    relation_vectors_reference,
    rll_defect,
    span_equal,
    span_gap,
    span_rank,
)
from ellrmx.relations import (
    family_terms,
    family_tuples,
    generator_slot,
    slnm_family_coeffs,
    tv_relations,
)
from ellrmx.joints import compare
from ellrmx.rmatrix import DynamicalParams, r_slnm
from ellrmx.sampling import sample_params
from ellrmx.spans import span_bound
from ellrmx.tensor import basis_t
from support import all_indices, with_excess_row

TAU = 0.3 + 0.8j
CTX = EllipticContext(TAU)
HBAR = 0.21 + 0.13j

Z1 = 0.17 + 0.29j
Z2 = 0.53 + 0.11j

# Spectral-parameter pairs kept clear of every theta zero that the defect
# table or the component prefactors can meet at the coordinates below.
Z_SAMPLES = [
    (0.1126 + 0.3575j, 0.2481 - 0.2473j),
    (-0.1799 + 0.3362j, -0.4453 + 0.2891j),
    (0.2674 - 0.0289j, -0.1773 - 0.1994j),
    (-0.2206 - 0.0494j, 0.0041 + 0.0481j),
    (0.4460 + 0.2634j, 0.1100 + 0.4401j),
]


def params_for(m: int) -> DynamicalParams:
    q1 = tuple(0.11 + 0.07j + t * (0.37 + 0.19j) for t in range(m))
    q2 = tuple(0.29 + 0.55j + t * (0.41 + 0.23j) for t in range(m))
    return DynamicalParams(hbar=HBAR, q1=q1, q2=q2)


def defects_at(n, m, params, z1, z2, ctx=CTX) -> RelationSet:
    """The defect set of the table built at one point."""
    return rll_defect(defect_table(n, m, params, z1, z2, ctx))


def tables_at(params, z_samples, n=2) -> list:
    """The defect tables of one parameter set at each z-sample."""
    return [defect_table(n, params.m, params, z1, z2, CTX) for z1, z2 in z_samples]


def flat_ranks(n: int, m: int) -> int:
    g = m * m * n * n
    return g * (g - 1) // 2


def shifted(q, hbar, *coords):
    """``q`` with hbar added once per listed 1-based coordinate."""
    out = list(q)
    for k in coords:
        out[k - 1] += hbar
    return out


def dense_set(rows) -> RelationSet:
    """The set of the given dense rows."""
    rows = np.asarray(rows, dtype=complex)
    r, c = np.nonzero(rows)
    return RelationSet.from_terms(r, c, rows[r, c], rows.shape[0], rows.shape[1])


def dense_rows(s: RelationSet) -> np.ndarray:
    """The unit rows of a set over all of its words."""
    rows = np.zeros((len(s), s.width), dtype=complex)
    for (r, c), block in zip(s.components, s.blocks):
        rows[np.ix_(r, c)] = block
    return rows


def word_slot(word, m: int, n: int) -> int:
    """Flat position of an ordered two-letter word ((i, j, alpha), (k, l,
    beta)) in the tensor-square basis."""
    (i, j, a), (k, l, b) = word
    g = m * m * n * n
    return generator_slot(i, j, a, m, n) * g + generator_slot(k, l, b, m, n)


def family_row(family, idx, alpha, beta, params) -> np.ndarray:
    """One composite-family relation over all of its words."""
    words, values = slnm_family_coeffs(family, idx, alpha, beta, params, CTX)
    out = np.zeros((params.m**2 * alpha.n**2) ** 2, dtype=complex)
    out[words] = values
    return out


def table_row(table, key, n: int, m: int) -> np.ndarray:
    """One element of a sparse defect table over all of its words."""
    row = np.ravel_multi_index(key, (m * n,) * 4)
    out = np.zeros((m * m * n * n) ** 2, dtype=complex)
    at = table.rows == row
    out[table.words[at]] = table.values[at]
    return out


def letter(z, x, y, label, q1, q2, n):
    """Coefficient of the generator ``label`` in ansatz entry (x, y), with
    the coordinate blocks at ``q1`` and ``q2``."""
    gi, gj, alpha = label
    (i, r), (j, s) = divmod(x, n), divmod(y, n)
    t_rs = basis_t(alpha)[r, s]
    if (gi, gj) != (j + 1, i + 1) or t_rs == 0:
        return 0.0
    value = t_rs * theta(z + q2[i] - q1[j] + omega(alpha, CTX), CTX)
    return value * cmath.exp(2j * cmath.pi * alpha.a2 * z / n)


def oracle_element(key, n, m, params, z1, z2):
    """One defect element, word by word, and its mass.

    A coefficient standing right of a generator (i, j, alpha) sees q1_i and
    q2_j moved by hbar: the second letter sees the first letter's shift, the
    right-hand R sees both letters' shifts on q1.
    """
    ao, bo, ai, bi = key
    d = m * n
    q1, q2, hbar = params.q1, params.q2, params.hbar
    labels = [
        (i, j, alpha)
        for i in range(1, m + 1)
        for j in range(1, m + 1)
        for alpha in all_indices(n)
    ]
    r_left = r_slnm(hbar, z1 - z2, q2, n, CTX)
    r_right = {
        (k, l): r_slnm(hbar, z1 - z2, shifted(q1, hbar, k, l), n, CTX)
        for k in range(1, m + 1)
        for l in range(1, m + 1)
    }
    g = m * m * n * n
    row = np.zeros(g * g, dtype=complex)
    mass = np.zeros(g * g)
    for a in labels:
        q1s, q2s = shifted(q1, hbar, a[0]), shifted(q2, hbar, a[1])
        for b in labels:
            slot = word_slot(((a[0], a[1], a[2].pair), (b[0], b[1], b[2].pair)), m, n)
            r_ab = r_right[a[0], b[0]]
            for am in range(d):
                for bm in range(d):
                    lhs = (
                        r_left[ao * d + bo, am * d + bm]
                        * letter(z1, am, ai, a, q1, q2, n)
                        * letter(z2, bm, bi, b, q1s, q2s, n)
                    )
                    rhs = (
                        letter(z2, bo, bm, a, q1, q2, n)
                        * letter(z1, ao, am, b, q1s, q2s, n)
                        * r_ab[am * d + bm, ai * d + bi]
                    )
                    row[slot] += lhs - rhs
                    mass[slot] += abs(lhs) + abs(rhs)
    return row, float(np.linalg.norm(mass))


class TestShiftBookkeeping:
    def test_product_shifts_the_right_coefficient(self):
        rng = np.random.default_rng(7)
        for n, m in [(2, 1), (1, 2), (2, 2)]:
            d = m * n
            params = params_for(m)
            table = defect_table(n, m, params, Z1, Z2, CTX)
            assert table.n == n
            picks = rng.choice(d**4, size=8, replace=False)
            seen = 0.0
            for flat in picks:
                key = tuple(int(v) for v in np.unravel_index(flat, (d,) * 4))
                row, mass = oracle_element(key, n, m, params, Z1, Z2)
                got = table_row(table, key, n, m)
                assert np.max(np.abs(got - row)) <= 1e-12 * mass, key
                # the element keeps a word where the oracle's element rule
                # keeps the element
                assert (flat in table.rows) == (np.linalg.norm(row) > 1e-12 * mass), key
                seen = max(seen, mass)
            assert seen > 0.0


class TestAnsatzEntries:
    def test_entry_coefficients_match_formula(self):
        n, m = 2, 2
        params = params_for(m)
        i, j = 2, 1
        coeffs = l_operator(Z1, params, n, CTX)
        w = params.q2[i - 1] - params.q1[j - 1]
        for r in range(n):
            for s in range(n):
                entry = coeffs[:, (i - 1) * n + r, (j - 1) * n + s, :]
                expect = np.zeros_like(entry)
                for alpha in all_indices(n):
                    slot = generator_slot(j, i, alpha.pair, m, n)
                    for k, delta in enumerate((-1, 0, 1)):
                        arg = Z1 + w + omega(alpha, CTX) + delta * HBAR
                        value = theta(arg, CTX) * basis_t(alpha)[r, s]
                        expect[k, slot] = value * cmath.exp(2j * cmath.pi * alpha.a2 * Z1 / n)
                assert np.allclose(entry, expect, rtol=1e-13, atol=0.0)

    def test_operator_assembles_blocks(self):
        # entry block (i, j) houses exactly the generators labelled (j, i, alpha)
        n, m = 2, 2
        coeffs = l_operator(Z2, params_for(m), n, CTX)
        assert coeffs.shape == (3, m * n, m * n, m * m * n * n)
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                block = coeffs[:, (i - 1) * n : i * n, (j - 1) * n : j * n, :]
                used = set(np.flatnonzero(np.any(block != 0, axis=(0, 1, 2))))
                housed = {generator_slot(j, i, a.pair, m, n) for a in all_indices(n)}
                assert used == housed

    def test_entry_validation(self):
        single = DynamicalParams(params_for(2).q1, None, HBAR)
        with pytest.raises(ValueError):
            l_operator(Z1, single, 2, CTX)


class TestDefectSpans:
    def test_scalar_single_site_case_is_an_exact_identity(self):
        assert len(defects_at(1, 1, params_for(1), Z1, Z2)) == 0

    @pytest.mark.parametrize("nm", [(2, 1), (1, 2), (2, 2)])
    def test_defect_span_equals_reference_span(self, nm):
        n, m = nm
        params = params_for(m)
        defects = defects_at(n, m, params, Z1, Z2)
        reference = relation_vectors_reference(n, m, params, CTX)
        ok, metric = span_equal(defects, reference, 1e-8)
        assert ok, f"span mismatch at (n, m) = {nm}: metric {metric:.3e}"
        assert metric < 1e-10

    @pytest.mark.parametrize("nm", [(2, 1), (1, 2), (2, 2)])
    def test_defect_rank_counts_flat_quadratic_relations(self, nm):
        n, m = nm
        params = params_for(m)
        defects = defects_at(n, m, params, Z1, Z2)
        reference = relation_vectors_reference(n, m, params, CTX)
        assert span_rank(defects) == flat_ranks(n, m)
        assert span_rank(reference) == flat_ranks(n, m)

    def test_dropping_the_exponential_factor_breaks_closure(self, no_exp_factor):
        # Without exp(2 pi i a2 z / n) the defect span inflates past the
        # flat count and no longer matches the reference relations.
        n, m = 2, 1
        params = params_for(m)
        defects = defects_at(n, m, params, Z1, Z2)
        reference = relation_vectors_reference(n, m, params, CTX)
        assert span_rank(defects) > flat_ranks(n, m)
        ok, metric = span_equal(defects, reference, 1e-8)
        assert not ok
        assert metric > 0.1
        assert span_gap(defects, reference) > 0.5

    def test_defect_span_is_independent_of_spectral_parameters(self):
        n, m = 2, 2
        params = params_for(m)
        reference = relation_vectors_reference(n, m, params, CTX)
        first = None
        for z1, z2 in Z_SAMPLES:
            defects = defects_at(n, m, params, z1, z2)
            ok, metric = span_equal(defects, reference, 1e-8)
            assert ok, f"z pair ({z1}, {z2}): metric {metric:.3e}"
            if first is None:
                first = defects
            else:
                assert span_gap(defects, first) < 1e-8


class TestFactorization:
    def test_single_site_returns_none(self):
        out = defect_factorization_check(
            tables_at(params_for(1), Z_SAMPLES[:2]),
            1,
            1,
            2,
            LatticeIndex(0, 0, 2),
            LatticeIndex(0, 1, 2),
            CTX,
        )
        assert out is None

    def test_two_samples_required(self):
        with pytest.raises(ValueError):
            defect_factorization_check(
                tables_at(params_for(2), Z_SAMPLES[:1]),
                1,
                1,
                2,
                LatticeIndex(0, 0, 2),
                LatticeIndex(0, 1, 2),
                CTX,
            )

    @pytest.mark.parametrize("idx", [(1, 1, 2), (2, 2, 1)])
    @pytest.mark.parametrize("a", [(0, 0), (0, 1), (1, 1)])
    def test_component_ratio_is_z_free(self, idx, a):
        n = 2
        params = params_for(2)
        alpha = LatticeIndex(a[0], a[1], n)
        beta = LatticeIndex(0, 1, n)
        worst = defect_factorization_check(
            tables_at(params, Z_SAMPLES), *idx, alpha, beta, CTX
        )
        assert worst < 1e-9

    @pytest.mark.parametrize("idx", [(1, 1, 2), (2, 2, 1)])
    @pytest.mark.parametrize("a", [(0, 0), (0, 1), (1, 1)])
    def test_component_ratio_is_proportional_to_family_two(self, idx, a):
        n = 2
        params = params_for(2)
        alpha = LatticeIndex(a[0], a[1], n)
        beta = LatticeIndex(0, 1, n)
        (table,) = tables_at(params, Z_SAMPLES[:1])
        comp = component_ratio(table, *idx, alpha, beta, CTX)
        fam = family_row(2, idx, alpha, beta, params)
        support = np.abs(fam) > 1e-12 * np.max(np.abs(fam))
        ratios = comp[support] / fam[support]
        center = ratios.mean()
        assert np.max(np.abs(ratios - center)) / abs(center) < 1e-9
        assert np.max(np.abs(comp[~support])) / np.max(np.abs(comp)) < 1e-9

    def test_missing_exponential_breaks_factorization(self, no_exp_factor):
        n = 2
        params = params_for(2)
        worst = defect_factorization_check(
            tables_at(params, Z_SAMPLES[:2]),
            1,
            1,
            2,
            LatticeIndex(0, 1, n),
            LatticeIndex(0, 1, n),
            CTX,
        )
        assert worst > 1e-3

    def test_prefactor_near_a_zero_raises(self):
        n = 2
        params = params_for(2)
        # Put z2 + q2_1 - q1_2 within DELTA_MIN of the theta zero at 0.
        z2 = params.q1[1] - params.q2[0] + 0.01
        table = defect_table(n, 2, params, Z1, z2, CTX)
        with pytest.raises(PoleProximityError):
            component_ratio(table, 1, 1, 2, LatticeIndex(0, 0, n), LatticeIndex(0, 0, n), CTX)

    def test_tables_of_other_parameters_are_refused(self):
        other = replace(params_for(2), hbar=0.17 + 0.21j)
        tables = tables_at(params_for(2), Z_SAMPLES[:1]) + tables_at(other, Z_SAMPLES[1:2])
        with pytest.raises(ValueError):
            defect_factorization_check(
                tables, 1, 1, 2, LatticeIndex(0, 1, 2), LatticeIndex(0, 1, 2), CTX
            )


class TestSpanHelpers:
    def vec(self, hot, value=1.0, width=16):
        """A relation with one term, as a dense row."""
        return np.eye(1, width, hot, dtype=complex)[0] * value

    def test_an_empty_set_has_rank_zero(self):
        # from singular values alone, and as the width of its bases
        ranked, compared = dense_set(np.zeros((0, 16))), dense_set(np.zeros((0, 16)))
        assert span_gap(compared, compared) == 0.0
        assert compared.bases == ()
        assert span_rank(ranked) == span_rank(compared) == 0

    def test_empty_sets_lie_at_zero_from_each_other(self):
        empty, other = dense_set(np.zeros((0, 16))), dense_set(np.zeros((0, 16)))
        for a, b in ((empty, other), (empty, empty)):
            assert span_equal(a, b, 1e-8) == (True, 0.0)
            assert span_gap(a, b) == 0.0

    def test_an_empty_set_lies_at_one_from_any_other(self):
        empty = dense_set(np.zeros((0, 48)))
        rng = np.random.default_rng(13)
        full = dense_set(block_rows(rng, [list(range(k, k + 8)) for k in (0, 16)], 5, 3))
        for a, b in ((empty, full), (full, empty)):
            assert span_equal(a, b, 1e-8) == (False, 1.0)
            assert span_gap(a, b) == 1.0

    def test_sequences_mix_empty_and_nonempty_sets(self):
        rng = np.random.default_rng(11)
        blocks = [list(range(k, k + 8)) for k in range(0, 48, 8)]
        a, b = (dense_set(block_rows(rng, blocks, 5, rank)) for rank in (3, 2))
        e, f = dense_set(np.zeros((0, 48))), dense_set(np.zeros((0, 48)))
        firsts, seconds = [e, a, f, b, a, e], [f, e, b, a, a, e]
        want = [0.0, 1.0, 1.0, span_equal(b, a, 1e-8)[1], span_equal(a, a, 1e-8)[1], 0.0]
        assert [metric for _, metric in span_equal(firsts, seconds, 1e-8)] == want
        gaps = [0.0, 1.0, 1.0, span_gap(b, a), span_gap(a, a), 0.0]
        assert span_gap(firsts, seconds) == gaps
        assert span_rank(firsts) == [0, 18, 0, 12, 18, 0]
        assert span_equal([], [], 1e-8) == span_gap([], []) == span_bound([], []) == []

    def test_non_finite_terms_raise_and_zero_rows_are_dropped(self):
        rows = np.eye(2, 16, dtype=complex)
        rows[1, 3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            dense_set(rows)
        empty = dense_set(np.zeros((1, 16), dtype=complex))
        assert len(empty) == 0 and empty.components == () and span_rank(empty) == 0

    def test_rows_without_a_nonzero_term_are_dropped(self):
        # six rows over twelve words, chained into components by shared
        # words; row 1 is zero in every trial, row 3 in the second trial
        # and rows 0 and 5 in the third, so each trial keeps its own rows
        rng = np.random.default_rng(17)
        rows = np.repeat(np.arange(6), 3)
        words = np.array([0, 1, 2, 2, 3, 4, 5, 6, 7, 7, 8, 9, 9, 10, 11, 1, 10, 11])
        values = rng.standard_normal((3, 18)) + 1j * rng.standard_normal((3, 18))
        for t, zero in enumerate(([1], [1, 3], [0, 1, 5])):
            values[t, np.isin(rows, zero)] = 0.0
        sets = RelationSet.from_terms(rows, words, values, 6, 12)
        assert len({id(s.components) for s in sets}) == 3
        for got, own in zip(sets, values):
            alone = RelationSet.from_terms(rows, words, own, 6, 12)
            live = np.unique(rows[own != 0])
            terms = np.isin(rows, live)
            compact = RelationSet.from_terms(
                np.searchsorted(live, rows[terms]), words[terms], own[terms], live.size, 12
            )
            assert got.size == alone.size == compact.size == live.size
            for s in (got, alone):
                assert_same_set(s, compact)
                assert span_rank(s) == span_rank(compact)

    def test_mixed_dimensions_raise(self):
        small = dense_set([self.vec(0, width=1)])
        for compare in (lambda a, b: span_equal(a, b, 1e-8), span_gap):
            for wide in (dense_set([self.vec(0)]), dense_set(np.zeros((0, 16)))):
                with pytest.raises(ValueError, match="dimensions differ"):
                    compare(wide, small)

    def test_gap_vanishes_for_identical_spans(self):
        a = dense_set([self.vec(0), self.vec(1)])
        b = dense_set([self.vec(0, value=2.0 - 1.0j), self.vec(1, value=0.5j)])
        assert span_gap(a, b) < 1e-12
        ok, metric = span_equal(a, b, 1e-8)
        assert ok and metric < 1e-12

    def test_gap_reaches_one_for_orthogonal_directions(self):
        a = dense_set([self.vec(0)])
        b = dense_set([self.vec(1)])
        assert span_gap(a, b) == pytest.approx(1.0)
        ok, _ = span_equal(a, b, 1e-8)
        assert not ok

    def test_rank_ignores_dependent_rows(self):
        mixed = self.vec(0) + self.vec(1, value=1.0j)
        vectors = dense_set([self.vec(0), self.vec(1), mixed])
        assert span_rank(vectors) == 2

    def test_rank_after_a_comparison_is_the_basis_width(self):
        # Ranking a fresh set and comparing one both take the component
        # bases; the rank is their summed width either way.
        rows = [self.vec(0), self.vec(1), self.vec(0, value=3.0j)]
        ranked, compared = dense_set(rows), dense_set(rows)
        assert span_gap(compared, compared) < 1e-12
        width = sum(q.shape[1] for q in compared.bases)
        assert span_rank(ranked) == span_rank(compared) == width == 2

    def test_basis_survives_an_svd_that_does_not_converge(self, monkeypatch):
        # LAPACK's divide-and-conquer SVD failed on one 512 x 512 defect
        # block at (n, m) = (8, 1), seed 42, and not on its adjoint.  Here
        # the stacked call over both blocks fails, then the first block
        # alone; its adjoint and the second block go through.
        rng = np.random.default_rng(3)
        rows = block_rows(rng, [list(range(12)), list(range(12, 24))], 9, 4, dim=24)
        svd = np.linalg.svd
        for vectors in (True, False):
            stuck, fresh = dense_set(rows), dense_set(rows)
            calls = []

            def failing(a, *args, **kwargs):
                calls.append(a.shape)
                if len(calls) <= 2:
                    raise np.linalg.LinAlgError("SVD did not converge")
                return svd(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, "svd", failing)
            got = stuck.bases if vectors else span_rank(stuck)
            monkeypatch.setattr(np.linalg, "svd", svd)
            assert calls == [(2, 9, 12), (1, 9, 12), (1, 12, 9), (1, 9, 12)]
            if not vectors:
                assert got == span_rank(fresh) == 8
                continue
            for q, want in zip(got, fresh.bases):
                assert q.shape == want.shape == (12, 4)
                assert np.allclose(q @ q.conj().T, want @ want.conj().T, atol=1e-12)
            assert span_equal(stuck, fresh, 1e-8)[1] < 1e-12

    def test_sequences_give_each_sets_results_from_stacked_svds(self, monkeypatch):
        rng = np.random.default_rng(5)
        blocks = [list(range(k, k + 8)) for k in range(0, 48, 8)]
        rows = [block_rows(rng, blocks, 5, rank) for rank in (2, 3, 3)]
        other = [block_rows(rng, blocks, 4, 3) for _ in rows]
        ranks = [span_rank(dense_set(r)) for r in rows]
        metrics = [span_equal(dense_set(r), dense_set(o), 1e-8) for r, o in zip(rows, other)]
        shapes = []
        svd = np.linalg.svd

        def counting(a, *args, **kwargs):
            shapes.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        # every block of every set, 5 x 8 or 4 x 8: one call per shape
        assert span_rank([dense_set(r) for r in rows]) == ranks == [12, 18, 18]
        assert shapes == [(18, 5, 8)]
        got = span_equal([dense_set(r) for r in rows], [dense_set(o) for o in other], 1e-8)
        assert got == metrics
        # then the joints' coefficients C: no two pairs share a layout, so
        # each pair and direction is one call, rows on bases 3 wide one way
        # and 4 rows on bases of each set's width the other
        assert shapes[1:] == [
            (18, 5, 8), (18, 4, 8),
            (6, 5, 3), (6, 5, 3), (6, 5, 3), (6, 4, 2), (6, 4, 3), (6, 4, 3),
        ]
        # pairs that share their layouts share the one C call of a shape
        del shapes[:]

        def trials(stack):
            r, c = np.nonzero(stack[0])
            return RelationSet.from_terms(r, c, [s[r, c] for s in stack], *stack[0].shape)

        span_bound(trials(rows), trials(other))
        assert shapes == [(18, 4, 8), (18, 5, 3)]

    def test_trials_share_a_layout_only_where_their_zeros_agree(self):
        # three trials of the same terms; the second has an exact zero that
        # splits a component in two
        rows, words = np.array([0, 0, 1, 1, 2]), np.array([0, 1, 1, 2, 3])
        values = np.array(
            [[1, 2j, 3, 4, 5], [1, 2j, 0, 4, 5], [6, 7, 8j, 9, 1]], dtype=complex
        )
        sets = RelationSet.from_terms(rows, words, values, 3, 4)
        alone = [RelationSet.from_terms(rows, words, v, 3, 4) for v in values]
        assert [len(s.components) for s in sets] == [2, 3, 2]
        assert sets[0].components is sets[2].components
        for got, want in zip(sets, alone):
            assert np.array_equal(dense_rows(got), dense_rows(want))
            assert [b.shape for b in got.blocks] == [b.shape for b in want.blocks]

    def test_complex_row_space_projection_is_exact(self):
        # Residuals must use the row space itself, not its conjugate.
        n, m = 2, 2
        params = params_for(m)
        vectors = relation_vectors_reference(n, m, params, CTX)
        ok, metric = span_equal(vectors, vectors, 1e-8)
        assert ok and metric < 1e-12


def dense_basis(s: RelationSet) -> np.ndarray:
    """Orthonormal basis (as columns) of the whole span from one dense SVD."""
    _, sv, vh = np.linalg.svd(dense_rows(s), full_matrices=False)
    return vh[: int(np.sum(sv > 1e-8 * sv[0]))].T


def dense_equal(a: RelationSet, b: RelationSet) -> float:
    worst = 0.0
    for rows, basis in ((dense_rows(a), dense_basis(b)), (dense_rows(b), dense_basis(a))):
        v = rows.T
        res = v - basis @ (basis.conj().T @ v)
        num = np.linalg.norm(res, axis=0)
        worst = max(worst, float(np.max(num / np.linalg.norm(v, axis=0))))
    return worst


def dense_gap(a: RelationSet, b: RelationSet) -> float:
    qa, qb = dense_basis(a), dense_basis(b)
    ga = np.linalg.norm(qa - qb @ (qb.conj().T @ qa), 2)
    gb = np.linalg.norm(qb - qa @ (qa.conj().T @ qb), 2)
    return float(max(ga, gb))


def block_rows(rng, blocks, per_block, rank, dim=48):
    """Random complex rows, ``per_block`` in each block of columns, spanning
    ``rank`` random directions there."""
    rows = []
    for cols in blocks:
        span = rng.normal(size=(rank, len(cols))) + 1j * rng.normal(size=(rank, len(cols)))
        mix = rng.normal(size=(per_block, rank)) + 1j * rng.normal(size=(per_block, rank))
        block = np.zeros((per_block, dim), dtype=complex)
        block[:, cols] = mix @ span
        rows.append(block)
    return np.concatenate(rows)


class TestDenseOracleParity:
    """The component-wise span functions against the dense formulas."""

    BLOCKS = [list(range(k, k + 8)) for k in range(0, 48, 8)]
    HALVES = [list(range(k, k + 4)) for k in range(0, 48, 4)]

    def assert_parity(self, a: RelationSet, b: RelationSet) -> None:
        for s in (a, b):
            assert span_rank(s) == dense_basis(s).shape[1]
        assert span_equal(a, b, 1e-8)[1] == pytest.approx(dense_equal(a, b), abs=1e-12)
        assert span_gap(a, b) == pytest.approx(dense_gap(a, b), abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_block_structured_sets(self, seed):
        rng = np.random.default_rng(seed)
        rows = block_rows(rng, self.BLOCKS, 5, 3)
        a = dense_set(rows)
        # same span, rows remixed inside each block: metrics at roundoff
        mix = np.kron(np.eye(len(self.BLOCKS)), np.ones((5, 5)))
        mix = mix * (rng.normal(size=mix.shape) + 1j * rng.normal(size=mix.shape))
        same = dense_set(mix @ rows)
        self.assert_parity(a, same)
        assert span_gap(a, same) < 1e-12
        # unrelated spans of another rank: metrics of order one
        other = dense_set(block_rows(rng, self.BLOCKS, 3, 2))
        self.assert_parity(a, other)
        assert span_gap(a, other) > 0.1
        assert len(a.components) == len(self.BLOCKS)

    @pytest.mark.parametrize("seed", range(3))
    def test_rows_straddling_blocks(self, seed):
        rng = np.random.default_rng(10 + seed)
        rows = block_rows(rng, self.BLOCKS, 4, 2)
        bridge = np.zeros((2, 48), dtype=complex)
        bridge[0, [3, 12]] = rng.normal(size=2) + 1j
        bridge[1, [20, 47]] = 1.0, -2.0j
        a = dense_set(np.concatenate([rows, bridge]))
        assert len(a.components) == len(self.BLOCKS) - 2
        b = dense_set(block_rows(rng, self.BLOCKS, 4, 3))
        self.assert_parity(a, b)
        self.assert_parity(a, dense_set(rows))

    @pytest.mark.parametrize("seed", range(3))
    def test_partitions_that_differ(self, seed):
        # b splits each of a's blocks in two; its span lies inside a's.
        rng = np.random.default_rng(20 + seed)
        fine = block_rows(rng, self.HALVES, 3, 2)
        coarse = np.concatenate([fine, block_rows(rng, self.BLOCKS, 2, 2)])
        a, b = dense_set(coarse), dense_set(fine)
        assert len(a.components) < len(b.components)
        self.assert_parity(a, b)
        self.assert_parity(b, a)
        self.assert_parity(b, dense_set(fine[::-1]))

    def test_rank_cutoff_is_the_whole_sets(self):
        # A 100-fold repeated row puts the set's largest singular value at
        # 10, so a direction at 3.5e-8 in another component falls below
        # the cutoff although it clears 1e-8 of its own component's.
        rows = np.zeros((102, 4), dtype=complex)
        rows[:100, 0] = 1.0
        rows[100, 1] = 1.0
        rows[101, 1:3] = 1.0, 5e-8
        a = dense_set(rows)
        assert span_rank(a) == dense_basis(a).shape[1] == 2
        self.assert_parity(a, dense_set(np.eye(3, 4, dtype=complex)))

    def test_gap_needs_the_joint_components(self):
        # Per set, {e0} and {e1} are two components and {e0 + e1} one; only
        # their union sees the direction e0 - e1 that b lacks.
        a = dense_set(np.eye(2, 4, dtype=complex))
        b = dense_set(np.array([[1.0, 1.0, 0.0, 0.0]], dtype=complex))
        assert (len(a.components), len(b.components)) == (2, 1)
        self.assert_parity(a, b)
        assert span_gap(a, b) == pytest.approx(1.0)
        assert span_equal(a, b, 1e-8)[1] == pytest.approx(2**-0.5)


class TestSectorDimensions:
    """Each component of a defect or reference set is one coordinate
    sector's worth of relations: inside one sector, closed under swapping
    the two letters, of rank (words - diagonal words) / 2."""

    @staticmethod
    def sector(word: int, n: int, m: int) -> tuple:
        g = m * m * n * n
        (i1, j1), (i2, j2) = (divmod(s // (n * n), m) for s in divmod(word, g))
        return tuple(sorted((i1, i2))), tuple(sorted((j1, j2)))

    @pytest.mark.parametrize("nm", [(2, 2), (3, 1), (1, 3)])
    def test_components_are_sector_dimension_counts(self, nm):
        n, m = nm
        g = m * m * n * n
        params = params_for(m)
        sets = (
            defects_at(n, m, params, Z1, Z2),
            relation_vectors_reference(n, m, params, CTX),
        )
        for s in sets:
            assert span_rank(s) == flat_ranks(n, m)
            for (_, cols), basis in zip(s.components, s.bases):
                assert len({self.sector(int(w), n, m) for w in cols}) == 1
                first, second = np.divmod(cols, g)
                assert np.array_equal(np.sort(second * g + first), cols)
                diagonal = int(np.sum(first == second))
                assert basis.shape[1] == (cols.size - diagonal) // 2


class TestReferenceVectors:
    def test_no_vertex_family_at_n_one(self):
        # Family 1 is the only family with words whose two letters share
        # their coordinate pair; at n = 2 it is there.
        for n in (1, 2):
            g = 4 * n * n
            rows = dense_rows(relation_vectors_reference(n, 2, params_for(2), CTX))
            first, second = np.divmod(np.arange(g * g), g)
            same_pair = first // (n * n) == second // (n * n)
            assert np.any(rows[:, same_pair]) == (n > 1)

    def test_scalar_case_has_no_relations(self):
        assert len(relation_vectors_reference(1, 1, params_for(1), CTX)) == 0

    def test_requires_two_coordinate_blocks(self):
        single = DynamicalParams(params_for(2).q1, None, HBAR)
        with pytest.raises(ValueError):
            relation_vectors_reference(2, 2, single, CTX)


    def test_trials_that_drop_other_rows_get_their_own_layout(self, monkeypatch):
        # Trial 1 loses its first relation: it is built apart from trials 0
        # and 2, and every trial equals its own build bit for bit.
        params = [params_for(2), replace(params_for(2), hbar=0.17 + 0.21j), params_for(2)]
        family_terms = ncalgebra.family_terms

        def dropping(family, idx, pairs, n, batch, ctx):
            values, words = family_terms(family, idx, pairs, n, batch, ctx)
            if family == 2:
                values = values.copy()
                for t, p in enumerate(batch):
                    if p.hbar == params[1].hbar:
                        values[t, 0, 0] = 0.0
            return values, words

        monkeypatch.setattr(ncalgebra, "family_terms", dropping)
        built = relation_vectors_reference(2, 2, params, CTX)
        alone = [relation_vectors_reference(2, 2, [p], CTX)[0] for p in params]
        assert [len(s) for s in built] == [len(s) for s in alone] == [240, 239, 240]
        assert built[0].components is built[2].components is not built[1].components
        for got, want in zip(built, alone):
            assert np.array_equal(dense_rows(got), dense_rows(want))


def dense_defect_table(n, m, params, z1, z2, ctx, r_matrix=r_slnm):
    """The dense defect table ``table[ao, bo, ai, bi]`` over all g^2 words,
    the masses, and the summed product moduli of every word: einsum
    contractions of the dense operands, one block of words per (a.i, a'.i)
    pair, written into one d^4 x g^2 array.  The ansatz is looked up in
    :mod:`ellrmx.ncalgebra`, so that a patched one reaches both tables."""
    d, g = m * n, m * m * n * n
    la = ncalgebra.l_operator(z1, params, n, ctx)
    lb = ncalgebra.l_operator(z2, params, n, ctx)
    r_left = r_matrix(params.hbar, z1 - z2, params.q2, n, ctx).reshape(d, d, d, d)
    r_right = r_matrix(params.hbar, z1 - z2, params.q1, n, ctx).reshape(d, d, d, d)
    slot_i, slot_j = np.divmod(np.arange(g) // (n * n), m)
    second = 1 + (slot_j[:, None] == slot_j) - (slot_i[:, None] == slot_i)
    table = np.empty((d, d, d, d, g, g), dtype=complex)
    word_moduli = np.empty(table.shape)
    mass_sq = np.zeros((d, d, d, d))
    span = g // m

    def lhs(r_mat, first, second):
        return np.einsum("ABxy,xia,abyj->ABijab", r_mat, first, second, optimize=True)

    def rhs(first, second, r_mat):
        return np.einsum("Bya,abAx,xyij->ABijab", first, second, r_mat, optimize=True)

    for k in range(m):
        first = slice(k * span, (k + 1) * span)
        for l in range(m):
            cols = np.arange(l * span, (l + 1) * span)
            shift = second[first, cols]
            left = (r_left, la[1, :, :, first], lb[shift, :, :, cols])
            right = (lb[1, :, :, first], la[shift, :, :, cols], r_right)
            table[..., first, cols] = lhs(*left) - rhs(*right)
            moduli = lhs(*map(np.abs, left)) + rhs(*map(np.abs, right))
            word_moduli[..., first, cols] = moduli
            mass_sq += np.einsum("ABijab,ABijab->ABij", moduli, moduli)
    flat = (d, d, d, d, g * g)
    return table.reshape(flat), np.sqrt(mass_sq), word_moduli.reshape(flat)


def dense_norms(rows):
    return np.sqrt(
        np.einsum("...i,...i->...", rows.real, rows.real)
        + np.einsum("...i,...i->...", rows.imag, rows.imag)
    )


def dense_components(rows):
    """(rows, sorted columns) of each connected component of the nonzero
    pattern, ordered by smallest column, by union-find over columns."""
    parent = list(range(rows.shape[1]))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    supports = [np.flatnonzero(row) for row in rows]
    for cols in supports:
        for c in cols[1:]:
            a, b = find(int(cols[0])), find(int(c))
            parent[max(a, b)] = min(a, b)
    used = np.flatnonzero(np.any(rows != 0, axis=0))
    roots = sorted({find(int(c)) for c in used})
    return [
        (
            np.array([r for r, cols in enumerate(supports) if find(int(cols[0])) == root]),
            np.array([c for c in used if find(int(c)) == root]),
        )
        for root in roots
    ]


class DenseSet:
    """The dense relation set: unit rows over all words, one SVD per
    component of their nonzero pattern, cut at 1e-8 of the largest."""

    def __init__(self, rows):
        rows = np.asarray(rows, dtype=complex)
        norms = dense_norms(rows)[:, None]
        assert np.all(np.isfinite(rows)) and np.all(norms > 0)
        self.rows = rows / norms
        self.components = dense_components(self.rows)
        svds = [
            np.linalg.svd(self.rows[np.ix_(r, c)], full_matrices=False)[1:]
            for r, c in self.components
        ]
        cutoff = 1e-8 * max(sv[0] for sv, _ in svds)
        self.bases = [vh[: int(np.sum(sv > cutoff))].T for sv, vh in svds]

    def placed(self, joint):
        """Rows and bases of the components inside a joint component."""
        inside = [
            (r, c, q) for (r, c), q in zip(self.components, self.bases) if c[0] in joint
        ]
        basis = np.zeros((joint.size, sum(q.shape[1] for _, _, q in inside)), dtype=complex)
        at = 0
        for _, c, q in inside:
            basis[np.searchsorted(joint, c), at : at + q.shape[1]] = q
            at += q.shape[1]
        rows = np.concatenate([r for r, _, _ in inside] + [np.zeros(0, dtype=int)])
        return rows, basis


def dense_joint(a: DenseSet, b: DenseSet):
    for _, joint in dense_components(np.concatenate([a.rows, b.rows])):
        yield joint, a.placed(joint), b.placed(joint)


def dense_span_equal(a: DenseSet, b: DenseSet) -> float:
    worst = 0.0
    for joint, (rows_a, qa), (rows_b, qb) in dense_joint(a, b):
        for s, rows, basis in ((a, rows_a, qb), (b, rows_b, qa)):
            if rows.size:
                v = s.rows[np.ix_(rows, joint)]
                res = v - (v @ basis.conj()) @ basis.T
                num = np.linalg.norm(res, axis=1)
                worst = max(worst, float(np.max(num / np.linalg.norm(v, axis=1))))
    return worst


def dense_span_gap(a: DenseSet, b: DenseSet) -> float:
    gap = 0.0
    for _, (_, qa), (_, qb) in dense_joint(a, b):
        for q, other in ((qa, qb), (qb, qa)):
            if q.shape[1]:
                res = q - other @ (other.conj().T @ q)
                gap = max(gap, float(np.linalg.norm(res, 2)))
    return gap


def dense_reference(n, m, params, ctx) -> DenseSet:
    """The reference families written into rows over all words, roundoff
    rows (norm at most 1e-9 of the largest) dropped."""
    ia, ib = np.divmod(np.arange(n**4), n * n)
    pairs = (ia // n, ia % n, ib // n, ib % n)

    def block(family):
        return family_terms(family, family_tuples(family, m), pairs, n, params, ctx)

    blocks = [block(1)] if n > 1 else []
    if m > 1:
        blocks.append([np.stack(ab, axis=1) for ab in zip(block(2), block(3))])
        blocks.append(block(4))
    flat = [[a.reshape(-1, a.shape[-1]) for a in b] for b in blocks]
    g = m * m * n * n
    rows = np.zeros((sum(len(v) for v, _ in flat), g * g), dtype=complex)
    start = 0
    for values, words in flat:
        rows[np.arange(start, start + len(values))[:, None], words] = values
        start += len(values)
    norms = dense_norms(rows)
    return DenseSet(rows[norms > 1e-9 * norms.max()])


def trips(build, args) -> bool:
    """Whether the build raises a pole error on the arguments."""
    try:
        build(*args)
    except PoleProximityError:
        return True
    return False


def assert_gathered_matches(sparse, oracle):
    """The gathered table against the dense one.  The gather associates each
    triple product differently from the contractions, so values agree to
    1e-12 of their row's mass; every gathered term stands on a word the
    oracle's moduli reach, and the elements that keep a word are exactly
    those whose norm the oracle finds above 1e-12 of their mass.  Returns
    the gathered table expanded over all words and the oracle's kept
    elements."""
    table, mass, moduli = oracle
    rows, words, values = sparse[:3]
    got = np.zeros(table.shape, dtype=complex)
    flat = got.reshape(-1, table.shape[-1])
    flat[rows, words] = values
    assert np.all(np.abs(got - table) <= 1e-12 * mass[..., None])
    assert np.all(moduli.reshape(flat.shape)[rows, words] != 0)
    keep = dense_norms(table) > 1e-12 * mass
    assert np.array_equal(np.flatnonzero(keep), np.unique(rows))
    return got, keep


class TestSparseParity:
    """The gathered defect table and blocked sets against the dense table
    and the dense set: same values to roundoff, then the same kept rows,
    components, ranks and metrics."""

    # exp-off runs the wrong ansatz of the no_exp_factor fixture: its
    # defect span does not match the reference, so the span metrics are
    # compared at order one, not at roundoff
    @pytest.mark.parametrize("tau", [0.3 + 0.8j, 5.3 + 0.3j], ids=["default", "skew"])
    @pytest.mark.parametrize("exp_factor", [True, False], ids=["exp-on", "exp-off"])
    @pytest.mark.parametrize("nm", [(2, 2), (2, 3), (3, 2), (1, 3), (3, 1), (4, 1)])
    def test_sparse_sets_match_the_dense_ones(self, nm, exp_factor, tau, request):
        if not exp_factor:
            request.getfixturevalue("no_exp_factor")
        n, m = nm
        ctx = EllipticContext(tau)
        cfg = CheckConfig(check="rll", n=n, m=m, tau=tau)
        # the first rll draw of seed 42 on which no pole guard trips; on
        # every earlier one both builds trip one
        for trial in range(10):
            params, zs = sample_params(
                _trial_seed(42, "rll", trial), _RUNNERS["rll"].spec(cfg), ctx
            )
            builds = (
                (dense_defect_table, defect_table, (n, m, params, *zs[:2], ctx)),
                (dense_reference, relation_vectors_reference, (n, m, params, ctx)),
            )
            try:
                oracle = dense_defect_table(*builds[0][2])
                dense_ref = dense_reference(*builds[1][2])
                break
            except PoleProximityError:
                for dense, sparse, args in builds:
                    assert trips(dense, args) == trips(sparse, args)
        else:
            pytest.fail("no draw clear of the pole guards")
        sparse = defect_table(n, m, params, zs[0], zs[1], ctx)
        got, keep = assert_gathered_matches(sparse, oracle)
        dense = DenseSet(got[keep])
        defects = rll_defect(sparse)
        assert np.array_equal(dense_rows(defects), dense.rows)
        reference = relation_vectors_reference(n, m, params, ctx)
        assert np.array_equal(dense_rows(reference), dense_ref.rows)
        for s, o in ((defects, dense), (reference, dense_ref)):
            assert len(s.components) == len(o.components)
            for (r, c), (ro, co) in zip(s.components, o.components):
                assert np.array_equal(r, ro) and np.array_equal(c, co)
            assert span_rank(s) == sum(q.shape[1] for q in o.bases)
        metric = span_equal(defects, reference, 1e-8)[1]
        assert abs(metric - dense_span_equal(dense, dense_ref)) <= 1e-15
        gap = span_gap(defects, reference)
        assert abs(gap - dense_span_gap(dense, dense_ref)) <= 1e-15

    @pytest.mark.parametrize("nm", [(2, 3), (4, 1)])
    def test_one_a_out_at_a_time_gives_the_same_table(self, monkeypatch, nm):
        n, m = nm
        params = params_for(m)
        whole = defect_table(n, m, params, Z1, Z2, CTX)
        monkeypatch.setattr(ncalgebra, "_CHUNK", 1)
        runs = defect_table(n, m, params, Z1, Z2, CTX)
        for a, b in zip(whole[:4], runs[:4]):
            assert np.array_equal(a, b)

    def test_leaked_r_entry_is_gathered_and_fails_the_trial(self, monkeypatch):
        # One entry outside R's weight-conserving pattern: composite row
        # (0, 0) to column (0, 1) moves the N-weight from 0 to 1.  The gather
        # reads the nonzeros off the numbers, so the leak reaches the table
        # as it reaches the dense contraction, and the defect span no
        # longer matches the reference.
        n, m = 2, 2
        cfg = CheckConfig(check="rll", n=n, m=m)
        params, zs = sample_params(_trial_seed(42, "rll", 0), _RUNNERS["rll"].spec(cfg), CTX)

        def leaky(*args):
            # one matrix, or a stack of them for the points of a gather
            r = r_slnm(*args)
            assert np.all(r[..., 0, 1] == 0)
            r[..., 0, 1] = 0.5
            return r

        monkeypatch.setattr(ncalgebra, "r_slnm", leaky)
        sparse = defect_table(n, m, params, zs[0], zs[1], CTX)
        oracle = dense_defect_table(n, m, params, zs[0], zs[1], CTX, r_matrix=leaky)
        assert_gathered_matches(sparse, oracle)
        [(residual, _)] = _RUNNERS["rll"].run(cfg, [(params, zs)], CTX)
        assert residual > cfg.effective_tol("rll")


def rll_points(n, m, tau, draws=3):
    """The parameters and the two points of each of the first ``draws``
    seed-42 rll draws on which no pole guard of the gather trips."""
    ctx = EllipticContext(tau)
    cfg = CheckConfig(check="rll", n=n, m=m, tau=tau)
    out = []
    for trial in range(20):
        params, zs = sample_params(_trial_seed(42, "rll", trial), _RUNNERS["rll"].spec(cfg), ctx)
        points = [(params, zs[0], zs[1]), (params, zs[2], zs[3])]
        if not any(trips(defect_table, (n, m, *point, ctx)) for point in points):
            out += points
        if len(out) == 2 * draws:
            return out, ctx
    pytest.fail("too few draws clear of the pole guards")


def assert_same_bits(got, want) -> None:
    """The arrays agree in dtype, shape and every bit."""
    for x, y in zip(got, want, strict=True):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def assert_same_set(got: RelationSet, want: RelationSet) -> None:
    """The sets agree in size, width, components and every bit of their
    blocks."""
    assert (got.size, got.width) == (want.size, want.width)
    assert len(got.components) == len(want.components)
    for (rows, cols), (own_rows, own_cols) in zip(got.components, want.components):
        assert np.array_equal(rows, own_rows) and np.array_equal(cols, own_cols)
    assert_same_bits(got.blocks, want.blocks)


RULE_SIZES = [(2, 2), (2, 3), (3, 1), (1, 3)]
TAUS = pytest.mark.parametrize("tau", [0.3 + 0.8j, 5.3 + 0.3j], ids=["default", "skew"])


class TestCancellationRule:
    """A summed word at most ``CANCELLATION`` of its products' summed moduli
    is dropped.  Against the dense moduli, the dropped words are roundoff
    (1.5e-14 at most over 20 draws at eight sizes) and the kept words are
    far from it (5.3e-4 at least)."""

    @TAUS
    @pytest.mark.parametrize("nm", RULE_SIZES)
    def test_dropped_words_are_roundoff_and_kept_words_are_not(self, monkeypatch, nm, tau):
        n, m = nm
        points, ctx = rll_points(n, m, tau)
        g2 = (m * m * n * n) ** 2
        for point in points:
            kept = defect_table(n, m, *point, ctx)
            monkeypatch.setattr(ncalgebra, "CANCELLATION", 0.0)
            every = defect_table(n, m, *point, ctx)
            monkeypatch.undo()
            moduli = dense_defect_table(n, m, *point, ctx)[2].reshape(-1, g2)
            ratio = np.abs(every.values) / moduli[every.rows, every.words]
            keep = np.isin(every.rows * g2 + every.words, kept.rows * g2 + kept.words)
            assert np.array_equal(every.values[keep].view(float), kept.values.view(float))
            assert keep.sum() == len(kept.rows) and not keep.all()
            assert ratio[~keep].max() <= 1e-13
            assert ratio[keep].min() >= 1e-6

    @TAUS
    @pytest.mark.parametrize("nm", RULE_SIZES)
    def test_a_batch_shares_one_pattern_and_equals_single_gathers(self, nm, tau):
        n, m = nm
        points, ctx = rll_points(n, m, tau)
        batch = defect_table(n, m, *zip(*points), ctx)
        assert len(batch) == len(points) == 6
        for table, point in zip(batch, points):
            assert table.rows is batch[0].rows and table.words is batch[0].words
            alone = defect_table(n, m, *point, ctx)
            assert table[3:] == alone[3:] == (n, *point)
            assert_same_bits(table[:3], alone[:3])

    def test_points_that_keep_other_words_share_them_as_zeros(self, monkeypatch):
        # a patched R that moves an entry at the second point alone: that
        # table keeps words that cancel identically at the first, where
        # they leave a roundoff residue and the first holds 0.0; the
        # nonzero terms of each equal its own gather, and so does its set
        points, ctx = rll_points(2, 2, 0.3 + 0.8j, draws=1)

        def moved(hbar, u, q, n, ctx):
            r = r_slnm(hbar, u, q, n, ctx)
            second = np.isclose(u, points[1][1] - points[1][2])
            r[..., 0, 0] = np.where(second, 0.5, r[..., 0, 0])
            return r

        monkeypatch.setattr(ncalgebra, "r_slnm", moved)
        batch = defect_table(2, 2, *zip(*points), ctx)
        assert batch[1].rows is batch[0].rows and batch[1].words is batch[0].words
        assert np.count_nonzero(batch[1].values) > np.count_nonzero(batch[0].values)
        for table, point, vectors in zip(batch, points, rll_defect(batch)):
            alone = defect_table(2, 2, *point, ctx)
            assert table[3:] == alone[3:] == (2, *point)
            nonzero = table.values != 0
            assert_same_bits([a[nonzero] for a in table[:3]], alone[:3])
            assert_same_set(vectors, rll_defect(alone))


def placed_joints(a: RelationSet, b: RelationSet):
    """The joint components of two sets, found by union-find over their
    components' columns: per joint, its sorted columns and, per set, the
    (component, positions among the joint's columns) inside, in order."""
    pieces = [
        (side, k, cols)
        for side, s in enumerate((a, b))
        for k, (_, cols) in enumerate(s.components)
    ]
    parent = list(range(len(pieces)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    owner: dict[int, int] = {}
    for p, (_, _, cols) in enumerate(pieces):
        for c in cols.tolist():
            if c in owner:
                parent[find(p)] = find(owner[c])
            owner.setdefault(c, p)
    joints: dict[int, list[int]] = {}
    for p in range(len(pieces)):
        joints.setdefault(find(p), []).append(p)
    for members in joints.values():
        joint = np.unique(np.concatenate([pieces[p][2] for p in members]))
        inside = [pieces[p] for p in members]
        yield joint, *(
            [(k, np.searchsorted(joint, cols)) for s, k, cols in inside if s == side]
            for side in (0, 1)
        )


def place(width: int, pieces: list) -> np.ndarray:
    """Matrices whose rows run over the columns of a joint, side by side:
    each (positions, matrix) piece has its rows moved to those positions."""
    out = np.zeros((width, sum(q.shape[1] for _, q in pieces)), dtype=complex)
    at = 0
    for rows, q in pieces:
        out[rows, at : at + q.shape[1]] = q
        at += q.shape[1]
    return out


def placed_span_equal(a: RelationSet, b: RelationSet) -> float:
    """The inclusion metric joint by joint, one placed matrix pair at a time."""
    worst = 0.0
    for joint, pa, pb in placed_joints(a, b):
        for mine, other, (own, far) in ((pa, pb, (a, b)), (pb, pa, (b, a))):
            if not mine:
                continue
            v = np.ascontiguousarray(place(joint.size, [(c, own.blocks[k].T) for k, c in mine]).T)
            basis = place(joint.size, [(c, far.bases[k]) for k, c in other])
            res = v - (v @ basis.conj()) @ basis.T
            num, den = np.linalg.norm(res, axis=1), np.linalg.norm(v, axis=1)
            worst = max(worst, float(np.max(num / den)))
    return worst


def placed_span_gap(a: RelationSet, b: RelationSet) -> float:
    """The gap joint by joint, one placed basis pair at a time."""
    gap = 0.0
    for joint, pa, pb in placed_joints(a, b):
        qa, qb = (
            place(joint.size, [(c, s.bases[k]) for k, c in p]) for p, s in ((pa, a), (pb, b))
        )
        for q, other in ((qa, qb), (qb, qa)):
            if q.shape[1]:
                res = q - other @ (other.conj().T @ q)
                gap = max(gap, float(np.linalg.norm(res, 2)))
    return gap


class TestStackedComparisons:
    """``span_equal`` and ``span_gap`` on sequences stack the joints of one
    shape across pairs; every metric equals, bit for bit, the one that
    placing each joint's matrices alone gives."""

    def assert_oracle(self, firsts, seconds):
        equal = span_equal(firsts, seconds, 1e-8)
        gaps = span_gap(firsts, seconds)
        for (ok, metric), gap, a, b in zip(equal, gaps, firsts, seconds):
            assert metric == placed_span_equal(a, b) and ok == (metric < 1e-8)
            assert gap == placed_span_gap(a, b)

    @TAUS
    @pytest.mark.parametrize("nm", [(2, 2), (2, 3), (3, 1), (1, 3)])
    def test_rll_sets_shared_and_unshared_layouts(self, nm, tau):
        n, m = nm
        points, ctx = rll_points(n, m, tau, draws=2)
        defects = rll_defect(defect_table(n, m, *zip(*points), ctx))
        # the defect sets of one gather share a layout, the references not
        assert all(d.components is defects[0].components for d in defects)
        references = relation_vectors_reference(n, m, [p for p, _, _ in points[::2]], ctx)
        twice = [r for r in references for _ in (0, 1)]
        assert defects[0].components is not twice[0].components
        self.assert_oracle(list(defects) + list(defects[::2]), twice + list(defects[1::2]))

    @pytest.mark.parametrize("m", [2, 3])
    def test_tv_reduce_sets(self, m):
        spec = _RUNNERS["tv-reduce"].spec(CheckConfig(check="tv-reduce", n=1, m=m))
        batch = [sample_params(_trial_seed(42, "tv-reduce", t), spec, CTX)[0] for t in range(4)]
        families = relation_vectors_reference(1, m, batch, CTX)
        q1, q2, hbar = ([getattr(p, k) for p in batch] for k in ("q1", "q2", "hbar"))
        self.assert_oracle(list(families), list(tv_relations(m, q1, q2, hbar, CTX)))

    def test_joints_with_an_empty_side(self):
        # a alone in columns 0-7 and 16-23, b alone in 24-31, both in 8-15
        # where b splits a's component in two
        rng = np.random.default_rng(7)
        a_rows = block_rows(rng, [range(0, 8), range(8, 16), range(16, 24)], 5, 3, dim=32)
        b_rows = block_rows(rng, [range(8, 12), range(12, 16), range(24, 32)], 3, 2, dim=32)
        a, b = dense_set(a_rows), dense_set(b_rows)
        joints = list(placed_joints(a, b))
        assert sorted(bool(pa) + 2 * bool(pb) for _, pa, pb in joints) == [1, 1, 2, 3]
        self.assert_oracle([a, b, a], [b, a, dense_set(a_rows[::-1])])


def tv_trials(m: int, count: int = 4) -> tuple[list, list]:
    """The families and the TV relations of the first ``count`` seed-42
    tv-reduce draws at the default tau."""
    spec = _RUNNERS["tv-reduce"].spec(CheckConfig(check="tv-reduce", n=1, m=m))
    batch = [sample_params(_trial_seed(42, "tv-reduce", t), spec, CTX)[0] for t in range(count)]
    q1, q2, hbar = ([getattr(p, k) for p in batch] for k in ("q1", "q2", "hbar"))
    families = relation_vectors_reference(1, m, batch, CTX)
    return list(families), list(tv_relations(m, q1, q2, hbar, CTX))


def dense_bound(a: RelationSet, b: RelationSet) -> float:
    """The one-sided bound from dense rows: the Frobenius norm of a's unit
    rows off b's span over the smallest kept singular value of their
    coefficients C on b's basis, at most 1; 1.0 if C's rank is not b's."""
    rows, qb = dense_rows(a), dense_basis(b)
    sv = np.linalg.svd(rows @ qb.conj(), compute_uv=False)
    kept = sv[sv > 1e-8 * sv[0]]
    if kept.size != qb.shape[1]:
        return 1.0
    return min(1.0, float(np.linalg.norm(rows.T - qb @ (qb.conj().T @ rows.T)) / kept[-1]))


#: The error of a computed gap between spans that agree to roundoff: the
#: two sets' computed bases are themselves only that close.  At seed 42,
#: (2, 1) and the default tau, one gap read 7.3e-15 against a bound of
#: 5.3e-15.
GAP_ROUNDOFF = 1e-14


def rotated(s: RelationSet, angle: float, rng) -> RelationSet:
    """The set with each component's rows turned by a random unitary of
    its columns within about ``angle`` of the identity: the rank, the
    layout and the unit rows stay, and the span moves by about ``angle``."""
    rows, words, values = [], [], []
    for (r, c), block in zip(s.components, s.blocks):
        h = rng.normal(size=(c.size, c.size)) + 1j * rng.normal(size=(c.size, c.size))
        w, v = np.linalg.eigh(h + h.conj().T)
        turned = block @ (v * np.exp(1j * angle * w)) @ v.conj().T
        rows.append(np.repeat(r, c.size))
        words.append(np.tile(c, r.size))
        values.append(turned.ravel())
    rows, words, values = (np.concatenate(x) for x in (rows, words, values))
    return RelationSet.from_terms(rows, words, values, s.size, s.width)


class TestSpanBound:
    """``span_bound``, the one-sided certificate of ``rll``: a defect set's
    rows projected onto the reference bases, over the smallest kept
    singular value of the projection's coefficients.  By Wedin's theorem
    it bounds the principal-angle gap to the reference, and two sets'
    bounds sum to at least their gap."""

    BLOCKS = TestDenseOracleParity.BLOCKS
    HALVES = TestDenseOracleParity.HALVES

    @TAUS
    @pytest.mark.parametrize("nm", [(2, 1), (1, 2), (2, 2), (3, 1), (1, 3)])
    def test_bounds_cover_the_gaps_on_seed_42_draws(self, nm, tau):
        n, m = nm
        points, ctx = rll_points(n, m, tau)
        defects = rll_defect(defect_table(n, m, *zip(*points), ctx))
        references = relation_vectors_reference(n, m, [p for p, _, _ in points[::2]], ctx)
        # each defect set, and its span turned by an angle of about 1e-6
        rng = np.random.default_rng(42)
        turned = [rotated(d, 1e-6, rng) for d in defects]
        twice = [r for r in references for _ in (0, 1)]
        for sets, slack in ((defects, GAP_ROUNDOFF), (turned, 0.0)):
            bounds, ranks = zip(*span_bound(sets, twice))
            # the first sets are never factored
            assert not any({"rank", "bases"} & vars(d).keys() for d in sets)
            assert ranks == (flat_ranks(n, m),) * len(sets)
            for t, reference in enumerate(references):
                (d1, b1), (d2, b2) = zip(sets[2 * t : 2 * t + 2], bounds[2 * t : 2 * t + 2])
                assert span_rank(d1) == span_rank(d2) == span_rank(reference) == flat_ranks(n, m)
                gaps = span_gap([d1, d2, d1], [reference, reference, d2])
                assert b1 + slack >= gaps[0] and b2 + slack >= gaps[1]
                assert b1 + b2 + slack >= gaps[2]
                if sets is defects:
                    assert b1 < 1e-10 and b2 < 1e-10 and b1 + b2 < 1e-10
                else:
                    assert min(gaps) > 1e-8 and b1 + b2 < 1  # not a rank mismatch

    def test_empty_sets_read_zero_and_one(self):
        rng = np.random.default_rng(5)
        full = dense_set(block_rows(rng, self.BLOCKS, 5, 3))
        empty, other = dense_set(np.zeros((0, 48))), dense_set(np.zeros((0, 48)))
        assert span_bound(empty, other) == span_bound(empty, empty) == (0.0, 0)
        assert span_bound(empty, full) == span_bound(full, empty) == (1.0, 0)
        got = span_bound([empty, full, empty], [other, empty, full])
        assert got == [(0.0, 0), (1.0, 0), (1.0, 0)]

    def test_a_rank_mismatch_reads_one(self):
        # rows of two of the six blocks lie exactly in the whole span, and
        # the whole span's rows are not all in theirs: either way, 1.0
        rng = np.random.default_rng(6)
        rows = block_rows(rng, self.BLOCKS, 5, 3)
        whole, part = dense_set(rows), dense_set(rows[:10])
        basis, inside = dense_basis(whole), dense_rows(part).T
        assert np.linalg.norm(inside - basis @ (basis.conj().T @ inside)) < 1e-12
        assert span_rank(part) < span_rank(whole)
        # the whole set's coefficients on the part's basis have the part's
        # rank, and its rows off the part clamp the bound to 1
        assert span_bound(part, whole) == span_bound(whole, part) == (1.0, span_rank(part))

    @pytest.mark.parametrize("seed", range(3))
    def test_dense_oracle_and_wedin_on_equal_ranks(self, seed):
        # same span remixed (roundoff), another span of the same rank on
        # the same blocks, and one on blocks cut in halves (joints wider
        # than either set's components)
        rng = np.random.default_rng(30 + seed)
        rows = block_rows(rng, self.BLOCKS, 5, 2)
        a = dense_set(rows)
        mix = np.kron(np.eye(len(self.BLOCKS)), rng.normal(size=(5, 5)))
        others = [
            dense_set(mix @ rows),
            dense_set(block_rows(rng, self.BLOCKS, 4, 2)),
            dense_set(block_rows(rng, self.HALVES, 3, 1)),
        ]
        for b in others:
            assert span_rank(a) == span_rank(b) == 12
            for x, y in ((a, b), (b, a)):
                bound, rank = span_bound(x, y)
                assert bound == pytest.approx(dense_bound(x, y), rel=1e-9, abs=1e-13)
                assert bound >= span_gap(x, y) and rank == 12
        assert span_bound(a, others[0])[0] < 1e-13
        assert span_bound(a, others[1])[0] > 0.1
        got = span_bound([a] * 3 + others, others + [a] * 3)
        assert got == [span_bound(x, y) for x, y in zip([a] * 3 + others, others + [a] * 3)]

    @pytest.mark.parametrize("nm", [(2, 2), (3, 1), (1, 3)])
    def test_a_rank_excess_reads_above_the_tolerance(self, nm):
        # one more row with about 1e-7 off the reference: the defect set's
        # rank is r + 1, but its coefficients on the reference keep rank r,
        # so the bound reads the 1e-7 over sigma_r(C), not 1.0.  span_gap
        # counts the extra direction and reads 1; the bound covers the gap
        # of the set's top r right singular vectors instead (Wedin).
        n, m = nm
        (point, _), ctx = rll_points(n, m, 0.3 + 0.8j, draws=1)
        excess = with_excess_row(defects_at(n, m, *point, ctx))
        reference = relation_vectors_reference(n, m, point[0], ctx)
        bound, rank = span_bound(excess, reference)
        assert rank == span_rank(reference) == span_rank(excess) - 1 == flat_ranks(n, m)
        assert SPAN_TOL < bound <= 1
        assert bound == pytest.approx(dense_bound(excess, reference), rel=1e-6)
        top = np.linalg.svd(dense_rows(excess))[2][:rank].T
        qb = dense_basis(reference)
        assert bound >= np.linalg.norm(top - qb @ (qb.conj().T @ top), 2)
        assert span_gap(excess, reference) == pytest.approx(1.0)


class TestTVCertificate:
    """``tv-reduce`` certifies each TV set with ``span_bound`` against the
    families, as ``rll`` does each defect set against the reference."""

    def run_with(self, monkeypatch, m, change):
        """Three tv-reduce trials with each TV set passed through
        ``change``, and the families and changed sets the runner compared."""
        seen = {}

        def record(name, build):
            def wrapped(*args):
                seen[name] = build(*args)
                return seen[name]

            monkeypatch.setattr(checks, name, wrapped)

        record("relation_vectors_reference", relation_vectors_reference)
        record("tv_relations", lambda *args: tuple(map(change, tv_relations(*args))))
        rep = checks.run_single(CheckConfig("tv-reduce", m=m, trials=3), "tv-reduce", CTX)
        return rep, seen["relation_vectors_reference"], seen["tv_relations"]

    @pytest.mark.parametrize("m", [2, 3])
    def test_a_dropped_relation_reads_one(self, monkeypatch, m):
        # a relation alone in its component spans a direction no other one
        # does: without it the ranks differ
        def drop(tv):
            alone = next(rows[0] for rows, _ in tv.components if rows.size == 1)
            return dense_set(np.delete(dense_rows(tv), alone, axis=0))

        rep, families, _ = self.run_with(monkeypatch, m, drop)
        assert rep.residuals == (1.0,) * 3 and not rep.passed
        assert rep.rank == span_rank(families[0]) == flat_ranks(1, m)

    @pytest.mark.parametrize("m", [2, 3])
    def test_a_turned_span_reads_at_least_its_gap(self, monkeypatch, m):
        rng = np.random.default_rng(42)
        rep, families, turned = self.run_with(monkeypatch, m, lambda tv: rotated(tv, 1e-6, rng))
        assert not rep.passed
        for residual, tv, family in zip(rep.residuals, turned, families, strict=True):
            assert residual >= dense_gap(tv, family) and residual > SPAN_TOL

    @pytest.mark.parametrize("m", [2, 3])
    def test_compare_reads_one_residual_per_row_of_the_first_set(self, m):
        # on spans turned by about 1e-6, so that the residuals are not roundoff
        families, tvs = tv_trials(m)
        rng = np.random.default_rng(43)
        turned = [rotated(tv, 1e-6, rng) for tv in tvs]
        for firsts, seconds in ((turned, families), (families, turned)):
            got = compare(list(zip(firsts, seconds)))
            assert [v.shape for v, _ in got] == [(len(a),) for a in firsts]
            for (values, sv), a, b in zip(got, firsts, seconds):
                rows, basis = dense_rows(a).T, dense_basis(b)
                dense = np.linalg.norm(rows - basis @ (basis.conj().T @ rows), axis=0)
                assert np.sort(values) == pytest.approx(np.sort(dense), rel=1e-6)
                # beside them, the singular values of C = A Q^*, joint by joint
                dense = np.linalg.svd(rows.T @ basis.conj(), compute_uv=False)
                assert np.sort(sv)[::-1][: basis.shape[1]] == pytest.approx(dense, rel=1e-9)


def traced_peak(fn, *args) -> int:
    """Peak traced allocation, in bytes, of one call."""
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestMemory:
    """One trial stays far below the dense d^4 x g^2 storage."""

    def test_rll_trial_at_two_by_three(self):
        # One dense defect table is 27 MB here, and a trial held four such
        # tables and sets (130 MB); contracting blocks of words peaked near
        # 12 MB, the gathered trial one table at a time at 4.15 MiB, and
        # both tables from one gather, with stacked comparisons, at 3.4 MiB.
        cfg = CheckConfig(check="rll", n=2, m=3)
        params, zs = sample_params(_trial_seed(42, "rll", 0), _RUNNERS["rll"].spec(cfg), CTX)
        assert traced_peak(_RUNNERS["rll"].run, cfg, [(params, zs)], CTX) <= 4 * 2**20

    def test_rll_trial_at_three_by_three(self):
        # The trial peaked at 50.1 MiB when each gather ended in one
        # concatenation of its runs of rows and each table was built and
        # blocked on its own.
        cfg = CheckConfig(check="rll", n=3, m=3)
        params, zs = sample_params(_trial_seed(42, "rll", 0), _RUNNERS["rll"].spec(cfg), CTX)
        assert traced_peak(_RUNNERS["rll"].run, cfg, [(params, zs)], CTX) <= 48 * 2**20

    def test_reference_set_at_two_by_four(self):
        # the 4032 dense rows alone took 264 MB (761 MB peak); the terms
        # peak near 9 MB
        cfg = CheckConfig(check="relations", n=2, m=4)
        params, _ = sample_params(
            _trial_seed(42, "relations", 0), _RUNNERS["relations"].spec(cfg), CTX
        )
        peak = traced_peak(relation_vectors_reference, 2, 4, params, CTX)
        assert peak <= 40 * 2**20
