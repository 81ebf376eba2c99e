"""Relation-family coefficient tables: representation and reduction checks."""

import cmath

import numpy as np
import pytest

from ellrmx.elliptic import (
    EllipticContext,
    LatticeIndex,
    PoleProximityError,
    all_indices,
    kronecker_phi,
    omega_raw,
    theta,
)
from ellrmx.relations import (
    DegenerateRelationError,
    RelationVector,
    SklyaninRelation,
    TVRelation,
    generator_slot,
    label_reduction_factor,
    sklyanin_coeffs,
    sklyanin_coeffs_eta,
    sklyanin_representation_residual,
    slnm_family_coeffs,
    tv_relations,
    word_slot,
)
from ellrmx.rmatrix import DynamicalParams

TAU = 0.3 + 0.8j
CTX = EllipticContext(TAU)
HBAR = 0.21 + 0.13j

Q1 = (0.13 + 0.09j, 0.58 + 0.41j)
Q2 = (0.31 + 0.63j, 0.05 + 0.27j)


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    inner = abs(np.vdot(a, b))
    return 1.0 - inner / (na * nb)


def crossed_beta0_coeffs(alpha, beta, hbar):
    """Theta-rescaled constants at eta == hbar with the sign of gamma flipped
    inside the first prefactor, the variant that breaks the beta == 0 branch
    for nonzero alpha."""
    base = sklyanin_coeffs(alpha, beta, hbar, CTX)
    n = alpha.n
    coeffs = {}
    pref_max = 0.0
    for gamma, value in base.coefficients.items():
        _, second = base.word(gamma)
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
    def test_from_terms_accumulates(self):
        word_a = ((1, 1, (0, 0)), (1, 2, (0, 0)))
        word_b = ((1, 2, (0, 0)), (1, 1, (0, 0)))
        vec = RelationVector.from_terms(
            {word_a: 1.5, word_b: -2.0}, 2, 1, "demo"
        )
        assert vec.coords[word_slot(word_a, 2, 1)] == 1.5
        assert vec.coords[word_slot(word_b, 2, 1)] == -2.0
        assert not vec.coords.flags.writeable

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateRelationError):
            RelationVector("null", 1, 1, np.zeros(1, dtype=complex))

    def test_nonfinite_rejected(self):
        coords = np.zeros(16, dtype=complex)
        coords[3] = complex("nan")
        with pytest.raises(ValueError):
            RelationVector("bad", 2, 1, coords)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            RelationVector("short", 2, 1, np.ones(5, dtype=complex))


class TestSklyaninBare:
    @pytest.mark.parametrize("n", [2, 3])
    def test_representation_annihilates_every_pair(self, n):
        worst = 0.0
        nontrivial = 0
        for alpha in all_indices(n):
            for beta in all_indices(n):
                rel = sklyanin_coeffs(alpha, beta, HBAR, CTX)
                if sum(abs(v) for v in rel.coefficients.values()) > 1e-8:
                    nontrivial += 1
                worst = max(worst, sklyanin_representation_residual(rel, CTX))
        assert worst <= 1e-9
        assert nontrivial >= n**4 // 2

    @pytest.mark.parametrize("n", [2, 3])
    def test_beta_zero_alpha_zero_antisymmetry(self, n):
        zero = LatticeIndex(0, 0, n)
        rel = sklyanin_coeffs(zero, zero, HBAR, CTX)
        ref = max(abs(v) for v in rel.coefficients.values())
        for gamma, value in rel.coefficients.items():
            assert abs(rel.coefficients[-gamma] + value) <= 1e-10 * max(ref, 1.0)

    def test_n1_is_empty(self):
        one = LatticeIndex(0, 0, 1)
        assert sklyanin_coeffs(one, one, HBAR, CTX).coefficients == {}

    def test_mixed_moduli_raise(self):
        with pytest.raises(ValueError):
            sklyanin_coeffs(LatticeIndex(0, 1, 2), LatticeIndex(0, 1, 3), HBAR, CTX)

    def test_coefficients_vary_smoothly_in_hbar(self):
        hb = 0.23 + 0.2j
        n = 2
        pairs = [
            (LatticeIndex(1, 0, n), LatticeIndex(0, 1, n)),
            (LatticeIndex(1, 1, n), LatticeIndex(0, 0, n)),
        ]
        for alpha, beta in pairs:
            base = sklyanin_coeffs(alpha, beta, hb, CTX)
            bumped = sklyanin_coeffs(alpha, beta, hb + 1e-8, CTX)
            ref = max(abs(v) for v in base.coefficients.values())
            delta = max(
                abs(bumped.coefficients[g] - v) for g, v in base.coefficients.items()
            )
            assert delta <= 1e-6 * max(ref, 1.0)


class TestSklyaninTheta:
    @pytest.mark.parametrize("n", [2, 3])
    def test_rescaled_representation(self, n):
        worst = 0.0
        for alpha in all_indices(n):
            for beta in all_indices(n):
                rel = sklyanin_coeffs_eta(alpha, beta, HBAR, HBAR, CTX)
                worst = max(
                    worst, sklyanin_representation_residual(rel, CTX, hbar=HBAR)
                )
        assert worst <= 1e-9

    @pytest.mark.parametrize("n", [2, 3])
    def test_shifted_parameter_representation(self, n):
        eta = 0.37 + 0.29j
        worst = 0.0
        for alpha in all_indices(n):
            for beta in all_indices(n):
                rel = sklyanin_coeffs_eta(alpha, beta, eta, HBAR, CTX)
                worst = max(
                    worst,
                    sklyanin_representation_residual(rel, CTX, hbar=HBAR, eta=eta),
                )
        assert worst <= 1e-9

    def test_crossed_beta0_variant_fails_the_representation(self):
        n = 2
        alpha = LatticeIndex(1, 0, n)
        beta = LatticeIndex(0, 0, n)
        matched = sklyanin_coeffs_eta(alpha, beta, HBAR, HBAR, CTX)
        crossed = crossed_beta0_coeffs(alpha, beta, HBAR)
        assert sklyanin_representation_residual(matched, CTX, hbar=HBAR) <= 1e-9
        assert sklyanin_representation_residual(crossed, CTX, hbar=HBAR) > 1e-3

    def test_eta_form_is_bare_times_prefactors_at_eta_equal_hbar(self):
        n = 2
        alpha = LatticeIndex(1, 1, n)
        beta = LatticeIndex(0, 1, n)
        bare = sklyanin_coeffs(alpha, beta, HBAR, CTX)
        tilde = sklyanin_coeffs_eta(alpha, beta, HBAR, HBAR, CTX)
        for gamma, value in bare.coefficients.items():
            first, second = bare.word(gamma)
            pref = theta(HBAR + omega_raw(*first, n, TAU), CTX) * theta(
                HBAR + omega_raw(*second, n, TAU), CTX
            )
            assert tilde.coefficients[gamma] == pytest.approx(value * pref, rel=1e-12)

    def test_parameter_shift_is_one_global_phase(self):
        n = 3
        alpha = LatticeIndex(2, 1, n)
        beta = LatticeIndex(1, 2, n)
        eta = 0.44 - 0.18j
        at_hbar = sklyanin_coeffs_eta(alpha, beta, HBAR, HBAR, CTX)
        shifted = sklyanin_coeffs_eta(alpha, beta, eta, HBAR, CTX)
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
        rel = sklyanin_coeffs(alpha, beta, HBAR, CTX)
        scaled = SklyaninRelation(
            alpha, beta, {g: (7 - 3j) * v for g, v in rel.coefficients.items()}
        )
        a = sklyanin_representation_residual(rel, CTX)
        b = sklyanin_representation_residual(scaled, CTX)
        assert a == pytest.approx(b, rel=1e-12)

    def test_eta_without_hbar_raises(self):
        rel = sklyanin_coeffs(
            LatticeIndex(1, 0, 2), LatticeIndex(0, 1, 2), HBAR, CTX
        )
        with pytest.raises(ValueError):
            sklyanin_representation_residual(rel, CTX, eta=0.3)


class TestTVRelations:
    def test_counts_and_kinds(self):
        rels = tv_relations(2, Q1, Q2, HBAR, CTX)
        kinds = {}
        for rel in rels:
            kinds[rel.kind] = kinds.get(rel.kind, 0) + 1
        assert kinds == {"commuting-pair": 2, "same-second-index": 2, "mixed": 4}

        q1 = (0.11 + 0.07j, 0.43 + 0.36j, 0.74 + 0.68j)
        q2 = (0.29 + 0.55j, 0.61 + 0.22j, 0.07 + 0.49j)
        rels3 = tv_relations(3, q1, q2, HBAR, CTX)
        kinds3 = {}
        for rel in rels3:
            kinds3[rel.kind] = kinds3.get(rel.kind, 0) + 1
        assert kinds3 == {"commuting-pair": 9, "same-second-index": 9, "mixed": 36}

    def test_m1_is_empty(self):
        assert tv_relations(1, (0.2 + 0.3j,), (0.4 + 0.5j,), HBAR, CTX) == []

    def test_theta_ratio_coefficient(self):
        rels = tv_relations(2, Q1, Q2, HBAR, CTX)
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
        rels = tv_relations(2, Q1, Q2, HBAR, CTX)
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
        rels = tv_relations(2, Q1, Q2, HBAR, CTX)
        mixed = [r.vector(2).coords for r in rels if r.kind == "mixed"]
        half = [
            r.vector(2).coords
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
            tv_relations(2, q1, Q2, HBAR, CTX)

    def test_pole_guard_on_shifted_and_second_set_differences(self):
        q1 = (0.2 + 0.3j, 0.2 + 0.3j + HBAR + 0.01)
        with pytest.raises(PoleProximityError, match="shifted first-set difference"):
            tv_relations(2, q1, Q2, HBAR, CTX)
        q2 = (0.31 + 0.63j, 0.31 + 0.63j + 0.01)
        with pytest.raises(PoleProximityError, match="second-set difference"):
            tv_relations(2, Q1, q2, HBAR, CTX)


class TestFamilyCoefficients:
    def params_n1(self):
        return DynamicalParams.pair(Q1, Q2, HBAR)

    def test_family2_reduces_to_theta_ratio_exchange(self):
        one = LatticeIndex(0, 0, 1)
        params = self.params_n1()
        vec = slnm_family_coeffs(2, (1, 1, 2), one, one, params, CTX)
        tv = next(
            r
            for r in tv_relations(2, Q1, Q2, HBAR, CTX)
            if r.kind == "same-second-index" and r.indices == (1, 2, 1)
        )
        assert cosine_distance(vec.coords, tv.vector(2).coords) <= 1e-12

    def test_family3_reduces_to_commuting_pair(self):
        one = LatticeIndex(0, 0, 1)
        params = self.params_n1()
        vec = slnm_family_coeffs(3, (1, 1, 2), one, one, params, CTX)
        tv = next(
            r
            for r in tv_relations(2, Q1, Q2, HBAR, CTX)
            if r.kind == "commuting-pair" and r.indices == (1, 1, 2)
        )
        assert cosine_distance(vec.coords, tv.vector(2).coords) <= 1e-12

    @pytest.mark.parametrize("indices", [(1, 1, 2, 2), (1, 2, 2, 1)])
    def test_family4_reduces_to_mixed(self, indices):
        one = LatticeIndex(0, 0, 1)
        params = self.params_n1()
        i, j, k, l = indices
        vec = slnm_family_coeffs(4, indices, one, one, params, CTX)
        tv = next(
            r
            for r in tv_relations(2, Q1, Q2, HBAR, CTX)
            if r.kind == "mixed" and r.indices == (j, i, l, k)
        )
        assert cosine_distance(vec.coords, tv.vector(2).coords) <= 1e-12

    def test_family1_places_eta_coefficients_on_words(self):
        n = 2
        alpha = LatticeIndex(1, 0, n)
        beta = LatticeIndex(0, 1, n)
        params = self.params_n1()
        j, i = 1, 2
        eta = Q2[i - 1] - Q1[j - 1]
        vec = slnm_family_coeffs(1, (j, i), alpha, beta, params, CTX)
        rel = sklyanin_coeffs_eta(alpha, beta, eta, HBAR, CTX)
        for gamma, value in rel.coefficients.items():
            first, second = rel.word(gamma)
            lab1, x1 = label_reduction_factor(first, eta, n, CTX)
            lab2, x2 = label_reduction_factor(second, eta, n, CTX)
            word = ((j, i, lab1), (j, i, lab2))
            expected = value * x1 * x2
            assert vec.coords[word_slot(word, 2, n)] == pytest.approx(
                expected, rel=1e-12
            )

    def test_family2_n1_coefficient_values(self):
        one = LatticeIndex(0, 0, 1)
        params = self.params_n1()
        vec = slnm_family_coeffs(2, (2, 1, 2), one, one, params, CTX)
        x = Q1[0] - Q1[1]
        zero = (0, 0)
        lead = vec.coords[word_slot(((1, 2, zero), (2, 2, zero)), 2, 1)]
        cross = vec.coords[word_slot(((2, 2, zero), (1, 2, zero)), 2, 1)]
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
        single = DynamicalParams.single(Q1, HBAR)
        with pytest.raises(ValueError):
            slnm_family_coeffs(2, (1, 1, 2), one, one, single, CTX)

    def test_family1_rejects_n1(self):
        one = LatticeIndex(0, 0, 1)
        with pytest.raises(ValueError):
            slnm_family_coeffs(1, (1, 2), one, one, self.params_n1(), CTX)
