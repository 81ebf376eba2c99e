"""Exchange-defect engine: ansatz coefficients, defect table, span matching."""

import cmath

import numpy as np
import pytest

from ellrmx.elliptic import (
    EllipticContext,
    LatticeIndex,
    PoleProximityError,
    all_indices,
    omega,
    theta,
)
from ellrmx.ncalgebra import (
    LConvention,
    RelationSet,
    _defect_table,
    component_ratio,
    defect_factorization_check,
    l_operator,
    relation_vectors_reference,
    rll_defect,
    span_equal,
    span_gap,
    span_rank,
)
from ellrmx.relations import (
    RelationVector,
    generator_slot,
    slnm_family_coeffs,
    word_slot,
)
from ellrmx.rmatrix import DynamicalParams, r_slnm
from ellrmx.tensor import basis_t

TAU = 0.3 + 0.8j
CTX = EllipticContext(TAU)
HBAR = 0.21 + 0.13j
ON = LConvention(exp_factor=True)
OFF = LConvention(exp_factor=False)

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


def flat_ranks(n: int, m: int) -> int:
    g = m * m * n * n
    return g * (g - 1) // 2


def shifted(q, hbar, *coords):
    """``q`` with hbar added once per listed 1-based coordinate."""
    out = list(q)
    for k in coords:
        out[k - 1] += hbar
    return out


def letter(z, x, y, label, q1, q2, n, conv):
    """Coefficient of the generator ``label`` in ansatz entry (x, y), with
    the coordinate blocks at ``q1`` and ``q2``."""
    gi, gj, alpha = label
    (i, r), (j, s) = divmod(x, n), divmod(y, n)
    t_rs = basis_t(alpha)[r, s]
    if (gi, gj) != (j + 1, i + 1) or t_rs == 0:
        return 0.0
    value = t_rs * theta(z + q2[i] - q1[j] + omega(alpha, CTX), CTX)
    if conv.exp_factor:
        value *= cmath.exp(2j * cmath.pi * alpha.a2 * z / n)
    return value


def oracle_element(key, n, m, params, z1, z2, conv):
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
                        * letter(z1, am, ai, a, q1, q2, n, conv)
                        * letter(z2, bm, bi, b, q1s, q2s, n, conv)
                    )
                    rhs = (
                        letter(z2, bo, bm, a, q1, q2, n, conv)
                        * letter(z1, ao, am, b, q1s, q2s, n, conv)
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
            for conv in (ON, OFF):
                table, masses = _defect_table(n, m, params, Z1, Z2, conv, CTX)
                picks = rng.choice(d**4, size=8, replace=False)
                seen = 0.0
                for flat in picks:
                    key = tuple(int(v) for v in np.unravel_index(flat, (d,) * 4))
                    row, mass = oracle_element(key, n, m, params, Z1, Z2, conv)
                    assert np.max(np.abs(table[key] - row)) <= 1e-12 * mass, key
                    assert abs(masses[key] - mass) <= 1e-12 * mass, key
                    seen = max(seen, mass)
                assert seen > 0.0


class TestAnsatzEntries:
    @pytest.mark.parametrize("conv", [ON, OFF], ids=["exp-on", "exp-off"])
    def test_entry_coefficients_match_formula(self, conv):
        n, m = 2, 2
        params = params_for(m)
        i, j = 2, 1
        coeffs = l_operator(Z1, params, n, conv, CTX)
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
                        if conv.exp_factor:
                            value *= cmath.exp(2j * cmath.pi * alpha.a2 * Z1 / n)
                        expect[k, slot] = value
                assert np.allclose(entry, expect, rtol=1e-13, atol=0.0)

    def test_operator_assembles_blocks(self):
        # entry block (i, j) houses exactly the generators labelled (j, i, alpha)
        n, m = 2, 2
        coeffs = l_operator(Z2, params_for(m), n, ON, CTX)
        assert coeffs.shape == (3, m * n, m * n, m * m * n * n)
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                block = coeffs[:, (i - 1) * n : i * n, (j - 1) * n : j * n, :]
                used = set(np.flatnonzero(np.any(block != 0, axis=(0, 1, 2))))
                housed = {generator_slot(j, i, a.pair, m, n) for a in all_indices(n)}
                assert used == housed

    def test_entry_validation(self):
        single = DynamicalParams.single(params_for(2).q1, HBAR)
        with pytest.raises(ValueError):
            l_operator(Z1, single, 2, ON, CTX)


class TestDefectSpans:
    def test_scalar_single_site_case_is_an_exact_identity(self):
        assert len(rll_defect(1, 1, params_for(1), Z1, Z2, ON, CTX)) == 0
        assert len(rll_defect(1, 1, params_for(1), Z1, Z2, OFF, CTX)) == 0

    @pytest.mark.parametrize("nm", [(2, 1), (1, 2), (2, 2)])
    def test_defect_span_equals_reference_span(self, nm):
        n, m = nm
        params = params_for(m)
        defects = rll_defect(n, m, params, Z1, Z2, ON, CTX)
        reference = relation_vectors_reference(n, m, params, CTX)
        ok, metric = span_equal(defects, reference, 1e-8)
        assert ok, f"span mismatch at (n, m) = {nm}: metric {metric:.3e}"
        assert metric < 1e-10

    @pytest.mark.parametrize("nm", [(2, 1), (1, 2), (2, 2)])
    def test_defect_rank_counts_flat_quadratic_relations(self, nm):
        n, m = nm
        params = params_for(m)
        defects = rll_defect(n, m, params, Z1, Z2, ON, CTX)
        reference = relation_vectors_reference(n, m, params, CTX)
        assert span_rank(defects) == flat_ranks(n, m)
        assert span_rank(reference) == flat_ranks(n, m)

    def test_dropping_the_exponential_factor_breaks_closure(self):
        # Without exp(2 pi i a2 z / n) the defect span inflates past the
        # flat count and no longer matches the reference relations.
        n, m = 2, 1
        params = params_for(m)
        defects = rll_defect(n, m, params, Z1, Z2, OFF, CTX)
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
            defects = rll_defect(n, m, params, z1, z2, ON, CTX)
            ok, metric = span_equal(defects, reference, 1e-8)
            assert ok, f"z pair ({z1}, {z2}): metric {metric:.3e}"
            if first is None:
                first = defects
            else:
                assert span_gap(defects, first) < 1e-8


class TestFactorization:
    def test_single_site_returns_none(self):
        out = defect_factorization_check(
            1,
            1,
            2,
            LatticeIndex(0, 0, 2),
            LatticeIndex(0, 1, 2),
            params_for(1),
            Z_SAMPLES,
            ON,
            CTX,
        )
        assert out is None

    def test_two_samples_required(self):
        with pytest.raises(ValueError):
            defect_factorization_check(
                1,
                1,
                2,
                LatticeIndex(0, 0, 2),
                LatticeIndex(0, 1, 2),
                params_for(2),
                Z_SAMPLES[:1],
                ON,
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
            *idx, alpha, beta, params, Z_SAMPLES, ON, CTX
        )
        assert worst < 1e-9

    @pytest.mark.parametrize("idx", [(1, 1, 2), (2, 2, 1)])
    @pytest.mark.parametrize("a", [(0, 0), (0, 1), (1, 1)])
    def test_component_ratio_is_proportional_to_family_two(self, idx, a):
        n = 2
        params = params_for(2)
        alpha = LatticeIndex(a[0], a[1], n)
        beta = LatticeIndex(0, 1, n)
        z1, z2 = Z_SAMPLES[0]
        comp = component_ratio(*idx, alpha, beta, params, z1, z2, ON, CTX)
        fam = slnm_family_coeffs(2, idx, alpha, beta, params, CTX).coords
        support = np.abs(fam) > 1e-12 * np.max(np.abs(fam))
        ratios = comp[support] / fam[support]
        center = ratios.mean()
        assert np.max(np.abs(ratios - center)) / abs(center) < 1e-9
        assert np.max(np.abs(comp[~support])) / np.max(np.abs(comp)) < 1e-9

    def test_missing_exponential_breaks_factorization(self):
        n = 2
        params = params_for(2)
        worst = defect_factorization_check(
            1,
            1,
            2,
            LatticeIndex(0, 1, n),
            LatticeIndex(0, 1, n),
            params,
            Z_SAMPLES[:2],
            OFF,
            CTX,
        )
        assert worst > 1e-3

    def test_prefactor_near_a_zero_raises(self):
        n = 2
        params = params_for(2)
        # Put z2 + q2_1 - q1_2 within DELTA_MIN of the theta zero at 0.
        z2 = params.q1[1] - params.q2[0] + 0.01
        with pytest.raises(PoleProximityError):
            component_ratio(
                1,
                1,
                2,
                LatticeIndex(0, 0, n),
                LatticeIndex(0, 0, n),
                params,
                Z1,
                z2,
                ON,
                CTX,
            )


class TestSpanHelpers:
    def vec(self, label, hot, dim=16, value=1.0):
        coords = np.zeros(dim, dtype=complex)
        coords[hot] = value
        return RelationVector(label, 2, 1, coords)

    def test_empty_sets_cannot_be_compared(self):
        with pytest.raises(ValueError):
            span_rank(RelationSet.of([]))
        with pytest.raises(ValueError):
            span_equal(RelationSet.of([]), RelationSet.of([self.vec("a", 0)]), 1e-8)

    def test_non_finite_or_zero_rows_raise(self):
        rows = np.eye(2, 16, dtype=complex)
        rows[1, 3] = np.nan
        with pytest.raises(ValueError):
            RelationSet(rows)
        with pytest.raises(ValueError):
            RelationSet(np.zeros((1, 16), dtype=complex))

    def test_mixed_dimensions_raise(self):
        small = RelationVector("s", 1, 1, np.ones(1, dtype=complex))
        with pytest.raises(ValueError):
            span_rank(RelationSet.of([self.vec("a", 0), small]))

    def test_gap_vanishes_for_identical_spans(self):
        a = RelationSet.of([self.vec("a", 0), self.vec("b", 1)])
        b = RelationSet.of(
            [self.vec("c", 0, value=2.0 - 1.0j), self.vec("d", 1, value=0.5j)]
        )
        assert span_gap(a, b) < 1e-12
        ok, metric = span_equal(a, b, 1e-8)
        assert ok and metric < 1e-12

    def test_gap_reaches_one_for_orthogonal_directions(self):
        a = RelationSet.of([self.vec("a", 0)])
        b = RelationSet.of([self.vec("b", 1)])
        assert span_gap(a, b) == pytest.approx(1.0)
        ok, _ = span_equal(a, b, 1e-8)
        assert not ok

    def test_rank_ignores_dependent_rows(self):
        coords = np.zeros(16, dtype=complex)
        coords[0] = 1.0
        coords[1] = 1.0j
        mixed = RelationVector("m", 2, 1, coords)
        vectors = RelationSet.of([self.vec("a", 0), self.vec("b", 1), mixed])
        assert span_rank(vectors) == 2

    def test_rank_after_a_comparison_is_the_basis_width(self):
        # Ranking a fresh set and comparing one both take the component
        # bases; the rank is their summed width either way.
        rows = [self.vec("a", 0), self.vec("b", 1), self.vec("c", 0, value=3.0j)]
        ranked, compared = RelationSet.of(rows), RelationSet.of(rows)
        assert span_gap(compared, compared) < 1e-12
        width = sum(q.shape[1] for q in compared.bases)
        assert span_rank(ranked) == span_rank(compared) == width == 2

    def test_complex_row_space_projection_is_exact(self):
        # Residuals must use the row space itself, not its conjugate.
        n, m = 2, 2
        params = params_for(m)
        vectors = relation_vectors_reference(n, m, params, CTX)
        ok, metric = span_equal(vectors, vectors, 1e-8)
        assert ok and metric < 1e-12


def dense_basis(s: RelationSet) -> np.ndarray:
    """Orthonormal basis (as columns) of the whole span from one dense SVD."""
    _, sv, vh = np.linalg.svd(s.rows, full_matrices=False)
    return vh[: int(np.sum(sv > 1e-8 * sv[0]))].T


def dense_equal(a: RelationSet, b: RelationSet) -> float:
    worst = 0.0
    for rows, basis in ((a.rows, dense_basis(b)), (b.rows, dense_basis(a))):
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
        a = RelationSet(rows)
        # same span, rows remixed inside each block: metrics at roundoff
        mix = np.kron(np.eye(len(self.BLOCKS)), np.ones((5, 5)))
        mix = mix * (rng.normal(size=mix.shape) + 1j * rng.normal(size=mix.shape))
        same = RelationSet(mix @ rows)
        self.assert_parity(a, same)
        assert span_gap(a, same) < 1e-12
        # unrelated spans of another rank: metrics of order one
        other = RelationSet(block_rows(rng, self.BLOCKS, 3, 2))
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
        a = RelationSet(np.concatenate([rows, bridge]))
        assert len(a.components) == len(self.BLOCKS) - 2
        b = RelationSet(block_rows(rng, self.BLOCKS, 4, 3))
        self.assert_parity(a, b)
        self.assert_parity(a, RelationSet(rows))

    @pytest.mark.parametrize("seed", range(3))
    def test_partitions_that_differ(self, seed):
        # b splits each of a's blocks in two; its span lies inside a's.
        rng = np.random.default_rng(20 + seed)
        fine = block_rows(rng, self.HALVES, 3, 2)
        coarse = np.concatenate([fine, block_rows(rng, self.BLOCKS, 2, 2)])
        a, b = RelationSet(coarse), RelationSet(fine)
        assert len(a.components) < len(b.components)
        self.assert_parity(a, b)
        self.assert_parity(b, a)
        self.assert_parity(b, RelationSet(fine[::-1]))

    def test_rank_cutoff_is_the_whole_sets(self):
        # A 100-fold repeated row puts the set's largest singular value at
        # 10, so a direction at 3.5e-8 in another component falls below
        # the cutoff although it clears 1e-8 of its own component's.
        rows = np.zeros((102, 4), dtype=complex)
        rows[:100, 0] = 1.0
        rows[100, 1] = 1.0
        rows[101, 1:3] = 1.0, 5e-8
        a = RelationSet(rows)
        assert span_rank(a) == dense_basis(a).shape[1] == 2
        self.assert_parity(a, RelationSet(np.eye(3, 4, dtype=complex)))

    def test_gap_needs_the_joint_components(self):
        # Per set, {e0} and {e1} are two components and {e0 + e1} one; only
        # their union sees the direction e0 - e1 that b lacks.
        a = RelationSet(np.eye(2, 4, dtype=complex))
        b = RelationSet(np.array([[1.0, 1.0, 0.0, 0.0]], dtype=complex))
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
            rll_defect(n, m, params, Z1, Z2, ON, CTX),
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
            rows = relation_vectors_reference(n, 2, params_for(2), CTX).rows
            first, second = np.divmod(np.arange(g * g), g)
            same_pair = first // (n * n) == second // (n * n)
            assert np.any(rows[:, same_pair]) == (n > 1)

    def test_scalar_case_has_no_relations(self):
        assert len(relation_vectors_reference(1, 1, params_for(1), CTX)) == 0

    def test_requires_two_coordinate_blocks(self):
        single = DynamicalParams.single(params_for(2).q1, HBAR)
        with pytest.raises(ValueError):
            relation_vectors_reference(2, 2, single, CTX)
