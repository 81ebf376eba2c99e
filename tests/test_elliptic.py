"""Oracle tests for the elliptic kernel.

Two independent references are used: a brute-force evaluation of the defining
half-integer sum (no argument reduction, wide symmetric range) and mpmath's
Jacobi theta implementation.  Derivatives are additionally cross-checked by
finite differences.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ellrmx.elliptic as elliptic

from ellrmx.elliptic import (
    DELTA_MIN,
    EllipticContext,
    LatticeIndex,
    PoleProximityError,
    all_indices,
    guard_denominator,
    eisenstein_e1,
    eisenstein_e2,
    fay_coincident_residual,
    fay_pair_residual,
    fay_residual,
    kronecker_phi,
    lattice_distance,
    omega,
    theta,
    theta_d1,
    theta_d2,
    varphi,
)

TAU = 0.3 + 0.8j
CTX = EllipticContext(TAU)
CTX_SQ = EllipticContext(1j)


def theta_oracle(u, tau, big_k=100):
    """Defining sum evaluated directly over a wide symmetric index range."""
    total = 0.0 + 0.0j
    for k in range(-big_k, big_k):
        h = k + 0.5
        total += cmath.exp(1j * math.pi * tau * h * h + 2j * math.pi * h * (u + 0.5))
    return -total


def theta_mpmath(u, tau, derivative=0):
    """mpmath reference: the odd theta equals theta_1 at pi u with nome e^{i pi tau}."""
    q = mpmath.exp(1j * mpmath.pi * tau)
    val = mpmath.jtheta(1, mpmath.pi * mpmath.mpc(u), q, derivative=derivative)
    return complex(val) * math.pi**derivative


def sample_points(rng, count, tau=TAU):
    """Generic points in a band of the fundamental domain, poles avoided."""
    pts = []
    while len(pts) < count:
        z = rng.uniform(0, 1) + rng.uniform(0.1, 0.9) * tau
        if lattice_distance(z, tau) >= DELTA_MIN:
            pts.append(z)
    return pts


class TestThetaAgainstOracles:
    def test_direct_sum_matches(self):
        rng = np.random.default_rng(2)
        for u in sample_points(rng, 25):
            ref = theta_oracle(u, TAU)
            assert abs(theta(u, CTX) - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_direct_sum_matches_square_lattice(self):
        rng = np.random.default_rng(3)
        for u in sample_points(rng, 25, tau=1j):
            ref = theta_oracle(u, 1j)
            assert abs(theta(u, CTX_SQ) - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_mpmath_cross_check(self):
        rng = np.random.default_rng(5)
        for u in sample_points(rng, 15):
            ref = theta_mpmath(u, TAU)
            assert abs(theta(u, CTX) - ref) <= 1e-11 * max(1.0, abs(ref))

    def test_mpmath_derivatives(self):
        rng = np.random.default_rng(7)
        for u in sample_points(rng, 10):
            d1 = theta_mpmath(u, TAU, derivative=1)
            d2 = theta_mpmath(u, TAU, derivative=2)
            assert abs(theta_d1(u, CTX) - d1) <= 1e-10 * max(1.0, abs(d1))
            assert abs(theta_d2(u, CTX) - d2) <= 1e-10 * max(1.0, abs(d2))

    def test_finite_difference_derivatives(self):
        rng = np.random.default_rng(11)
        h = 1e-5
        for u in sample_points(rng, 8):
            fd1 = (theta(u + h, CTX) - theta(u - h, CTX)) / (2 * h)
            fd2 = (theta(u + h, CTX) - 2 * theta(u, CTX) + theta(u - h, CTX)) / h**2
            assert abs(theta_d1(u, CTX) - fd1) <= 1e-6
            assert abs(theta_d2(u, CTX) - fd2) <= 1e-4

    def test_theta_prime0_positive_real_check(self):
        ref = theta_mpmath(0.0, TAU, derivative=1)
        assert abs(CTX.theta_prime0 - ref) <= 1e-11 * abs(ref)


class TestThetaStructure:
    def test_odd(self):
        rng = np.random.default_rng(13)
        for u in sample_points(rng, 20):
            assert abs(theta(-u, CTX) + theta(u, CTX)) <= 1e-12 * max(1.0, abs(theta(u, CTX)))

    def test_zero_at_origin(self):
        assert abs(theta(0.0, CTX)) <= 1e-13

    def test_zeros_on_lattice(self):
        for m, n in [(1, 0), (0, 1), (2, -1), (-3, 2)]:
            z = m + n * TAU
            scale = abs(cmath.exp(-1j * math.pi * TAU * n * n))
            assert abs(theta(z, CTX)) <= 1e-10 * max(1.0, scale)

    def test_quasi_periodicity(self):
        rng = np.random.default_rng(17)
        for u in sample_points(rng, 10):
            base = theta(u, CTX)
            for m, n in [(1, 0), (0, 1), (1, 1), (-2, 3), (4, -2)]:
                fac = (-1) ** (m + n) * cmath.exp(
                    -1j * math.pi * TAU * n * n - 2j * math.pi * n * u
                )
                lhs = theta(u + m + n * TAU, CTX)
                rhs = fac * base
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_reduction_consistent_with_oracle_far_from_cell(self):
        # Large shifts stress the reduction path; oracle stays truncation-limited
        # there, so compare against the quasi-periodicity of the oracle instead.
        rng = np.random.default_rng(19)
        (u,) = sample_points(rng, 1)
        m, n = 5, -4
        fac = (-1) ** (m + n) * cmath.exp(-1j * math.pi * TAU * n * n - 2j * math.pi * n * u)
        ref = fac * theta_oracle(u, TAU)
        got = theta(u + m + n * TAU, CTX)
        assert abs(got - ref) <= 1e-11 * abs(ref)

    def test_derivatives_under_reduction(self):
        # Finite differences taken at the shifted point must agree with the
        # corrected derivative values returned there.
        u = 0.31 + 0.27 * TAU
        z = u + 2 - 3 * TAU
        h = 1e-5
        fd1 = (theta(z + h, CTX) - theta(z - h, CTX)) / (2 * h)
        fd2 = (theta(z + h, CTX) - 2 * theta(z, CTX) + theta(z - h, CTX)) / h**2
        assert abs(theta_d1(z, CTX) - fd1) <= 1e-4 * max(1.0, abs(fd1))
        assert abs(theta_d2(z, CTX) - fd2) <= 1e-2 * max(1.0, abs(fd2))


class TestContextValidation:
    def test_rejects_low_imag_tau(self):
        with pytest.raises(ValueError):
            EllipticContext(0.5 + 0.1j)

    def test_rejects_nonfinite_tau(self):
        with pytest.raises(ValueError):
            EllipticContext(complex("nan") + 1j)

    def test_rejects_insufficient_truncation(self):
        with pytest.raises(ValueError):
            EllipticContext(0.3j, trunc_k=5)

    def test_tail_bound_within_tol(self):
        assert CTX.tail_bound <= CTX.tol
        assert EllipticContext(0.3j).tail_bound <= 1e-12


class TestKroneckerPhi:
    def test_symmetric(self):
        rng = np.random.default_rng(23)
        pts = sample_points(rng, 10)
        for u, x in zip(pts[:5], pts[5:]):
            a = kronecker_phi(u, x, CTX)
            b = kronecker_phi(x, u, CTX)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_zero_at_opposite_arguments(self):
        x = 0.23 + 0.31 * TAU
        assert abs(kronecker_phi(x, -x, CTX)) <= 1e-12

    def test_periodic_in_first_argument(self):
        u, x = 0.21 + 0.4 * TAU, 0.55 + 0.2 * TAU
        a = kronecker_phi(u + 1, x, CTX)
        b = kronecker_phi(u, x, CTX)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

    def test_tau_shift_in_second_argument(self):
        u, x = 0.21 + 0.4 * TAU, 0.55 + 0.2 * TAU
        lhs = kronecker_phi(u, x + TAU, CTX)
        rhs = cmath.exp(-2j * math.pi * u) * kronecker_phi(u, x, CTX)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_simultaneous_tau_shift(self):
        u, x = 0.17 + 0.35 * TAU, 0.41 + 0.22 * TAU
        lhs = kronecker_phi(u + TAU, x + TAU, CTX)
        rhs = cmath.exp(-2j * math.pi * (u + x + TAU)) * kronecker_phi(u, x, CTX)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_ratio_of_opposite_second_arguments(self):
        # phi(h, x) / phi(h, -x) collapses to a ratio of two thetas.
        h, x = 0.13 + 0.19 * TAU, 0.47 + 0.33 * TAU
        lhs = kronecker_phi(h, x, CTX) / kronecker_phi(h, -x, CTX)
        rhs = theta(x + h, CTX) / theta(x - h, CTX)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_pole_guard_on_denominator_arguments(self):
        with pytest.raises(PoleProximityError):
            kronecker_phi(0.01, 0.3 + 0.3 * TAU, CTX)
        with pytest.raises(PoleProximityError):
            kronecker_phi(0.3 + 0.3 * TAU, 1.0 + TAU + 0.01, CTX)

    def test_no_guard_on_numerator_argument(self):
        # u + x on the lattice is a zero of the numerator, not a pole.
        x = 0.3 + 0.3 * TAU
        assert kronecker_phi(x, -x, CTX) == pytest.approx(0.0, abs=1e-12)


class TestVarphi:
    def test_well_defined_mod_n(self):
        u, x, n = 0.21 + 0.37 * TAU, 0.52 + 0.18 * TAU, 3
        for a1, a2 in [(0, 1), (2, 2), (1, 0)]:
            base = varphi(a1, a2, u, x, n, CTX)
            shifted1 = varphi(a1 + n, a2, u, x, n, CTX)
            shifted2 = varphi(a1, a2 + n, u, x, n, CTX)
            assert abs(shifted1 - base) <= 1e-11 * max(1.0, abs(base))
            assert abs(shifted2 - base) <= 1e-11 * max(1.0, abs(base))

    def test_zero_characteristic_reduces_to_phi(self):
        u, x = 0.21 + 0.37 * TAU, 0.52 + 0.18 * TAU
        a = varphi(0, 0, u, x, 4, CTX)
        b = kronecker_phi(u, x, CTX)
        assert abs(a - b) <= 1e-13 * max(1.0, abs(b))


class TestEisenstein:
    def test_e1_is_log_derivative(self):
        z = 0.29 + 0.41 * TAU
        ref = theta_d1(z, CTX) / theta(z, CTX)
        assert abs(eisenstein_e1(z, CTX) - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_e1_periodicities(self):
        z = 0.29 + 0.41 * TAU
        base = eisenstein_e1(z, CTX)
        assert abs(eisenstein_e1(z + 1, CTX) - base) <= 1e-11 * max(1.0, abs(base))
        shifted = eisenstein_e1(z + TAU, CTX)
        assert abs(shifted - (base - 2j * math.pi)) <= 1e-11 * max(1.0, abs(base))

    def test_e2_is_minus_e1_derivative(self):
        z = 0.33 + 0.28 * TAU
        h = 1e-5
        fd = (eisenstein_e1(z + h, CTX) - eisenstein_e1(z - h, CTX)) / (2 * h)
        assert abs(eisenstein_e2(z, CTX) + fd) <= 1e-6

    def test_pole_guard(self):
        for fn in (eisenstein_e1, eisenstein_e2):
            with pytest.raises(PoleProximityError, match=r"z = .* lies .* from the zero"):
                fn(1.0 + TAU + 0.01, CTX)

    def test_e2_elliptic_and_even(self):
        z = 0.26 + 0.44 * TAU
        base = eisenstein_e2(z, CTX)
        for shift in (1.0, TAU, 1 + TAU):
            assert abs(eisenstein_e2(z + shift, CTX) - base) <= 1e-11 * max(1.0, abs(base))
        assert abs(eisenstein_e2(-z, CTX) - base) <= 1e-12 * max(1.0, abs(base))


class TestFayIdentities:
    def test_three_term_identity(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            z, w, x, y = sample_points(rng, 4)
            if min(lattice_distance(v, TAU) for v in (z - w, x + y, x + y + z)) < DELTA_MIN:
                continue
            assert fay_residual(z, w, x, y, CTX) <= 1e-10

    def test_coincident_degeneration(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            z, x, y = sample_points(rng, 3)
            if min(lattice_distance(v, TAU) for v in (x + y, x + y + z)) < DELTA_MIN:
                continue
            assert fay_coincident_residual(z, x, y, CTX) <= 1e-10

    def test_pair_degeneration(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            z, x = sample_points(rng, 2)
            assert fay_pair_residual(z, x, CTX) <= 1e-10


class TestLatticeIndex:
    def test_reduces_to_canonical(self):
        a = LatticeIndex(5, -1, 3)
        assert a.pair == (2, 2)

    def test_arithmetic(self):
        a = LatticeIndex(1, 2, 3)
        b = LatticeIndex(2, 2, 3)
        assert (a + b).pair == (0, 1)
        assert (a - b).pair == (2, 0)
        assert (-a).pair == (2, 1)

    def test_mixed_moduli_rejected(self):
        with pytest.raises(ValueError):
            LatticeIndex(0, 0, 2) + LatticeIndex(0, 0, 3)

    def test_omega_value(self):
        ctx = EllipticContext(1j)
        val = omega(LatticeIndex(0, 1, 3), ctx)
        assert abs(val - 1j / 3) <= 1e-15

    def test_all_indices_count(self):
        assert len(all_indices(3)) == 9
        assert all_indices(2)[0].pair == (0, 0)


class TestLatticeDistance:
    def test_on_lattice_points(self):
        for m, n in [(0, 0), (1, 0), (-2, 3)]:
            assert lattice_distance(m + n * TAU, TAU) <= 1e-12

    def test_generic_point(self):
        assert lattice_distance(0.5, 1j) == pytest.approx(0.5)

    def test_near_far_ordering(self):
        near = lattice_distance(0.03 + 0.01j, TAU)
        far = lattice_distance(0.5 + 0.5 * TAU, TAU)
        assert near < DELTA_MIN < far

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.floats(-4, 4, allow_nan=False),
        st.floats(-4, 4, allow_nan=False),
        st.sampled_from([TAU, 5.3 + 0.3j]),
    )
    def test_upper_bound_on_the_true_distance(self, a, b, tau):
        z = a + b * tau
        m, n = np.meshgrid(np.arange(-6, 7), np.arange(-6, 7))
        nearest = np.min(np.abs(z - (round(a) + m) - (round(b) + n) * tau))
        assert lattice_distance(z, tau) >= nearest - 1e-12

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(
            st.complex_numbers(max_magnitude=50, allow_nan=False, allow_infinity=False),
            max_size=20,
        ),
        st.sampled_from([TAU, 5.3 + 0.3j]),
    )
    def test_array_form_is_bit_identical(self, values, tau):
        # Guard decisions, and so null trials, must not depend on the form.
        got = lattice_distance(np.array(values, dtype=complex), tau)
        assert got.tolist() == [lattice_distance(complex(v), tau) for v in values]


def kernel_cases(ctx):
    """(name, array form, scalar form) of every array-capable kernel."""
    h = 0.21 + 0.13j
    return [
        ("theta", lambda z: theta(z, ctx), lambda z: theta(z, ctx)),
        ("theta_d1", lambda z: theta_d1(z, ctx), lambda z: theta_d1(z, ctx)),
        ("theta_d2", lambda z: theta_d2(z, ctx), lambda z: theta_d2(z, ctx)),
        ("e1", lambda z: eisenstein_e1(z, ctx), lambda z: eisenstein_e1(z, ctx)),
        ("e2", lambda z: eisenstein_e2(z, ctx), lambda z: eisenstein_e2(z, ctx)),
        ("phi", lambda z: kronecker_phi(z, z[::-1], ctx),
         lambda z, w: kronecker_phi(z, w, ctx)),
        ("varphi", lambda z: varphi(1, 2, z, h, 3, ctx),
         lambda z: varphi(1, 2, z, h, 3, ctx)),
    ]


class TestArrayKernels:
    """Array arguments against the scalar path, entry by entry."""

    @staticmethod
    def points(tau, shape, seed=0):
        rng = np.random.default_rng(seed)
        size = int(np.prod(shape))
        z = rng.uniform(-1.5, 1.5, 4 * size) + tau * rng.uniform(-1.5, 1.5, 4 * size)
        z = z[lattice_distance(z, tau) >= DELTA_MIN]
        z = z[lattice_distance(z[::-1], tau) >= DELTA_MIN]  # phi's second argument
        return z[:size].reshape(shape)

    @pytest.mark.parametrize("tau", [TAU, 5.3 + 0.3j])
    @pytest.mark.parametrize("shape", [(), (0,), (7, 5)])
    def test_entries_match_the_scalar_form(self, tau, shape):
        ctx = EllipticContext(tau)
        z = self.points(tau, shape)
        flat = z.ravel()
        for name, array_form, scalar_form in kernel_cases(ctx):
            got = np.asarray(array_form(z.ravel()).reshape(shape) if name == "phi"
                             else array_form(z))
            assert got.shape == shape, name
            if name == "phi":
                pairs = zip(flat, flat[::-1])
                want = [scalar_form(complex(a), complex(b)) for a, b in pairs]
            else:
                want = [scalar_form(complex(v)) for v in flat]
            want = np.array(want, dtype=complex).reshape(shape)
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), name

    def test_scalars_give_python_complex(self):
        z = 0.31 + 0.47j
        for name, _, scalar_form in kernel_cases(CTX):
            value = scalar_form(z, 0.2 + 0.1j) if name == "phi" else scalar_form(z)
            assert type(value) is complex, name
        assert type(lattice_distance(z, TAU)) is float

    def test_series_runs_once_per_distinct_argument(self, monkeypatch):
        seen = []
        outer = np.multiply.outer

        class Spy:
            @staticmethod
            def outer(a, b):
                seen.append(len(a))
                return outer(a, b)

        monkeypatch.setattr(elliptic.np, "multiply", Spy)
        z = np.array([[0.2 + 0.3j, 0.4 + 0.1j], [0.2 + 0.3j, 0.2 + 0.3j]])
        assert theta(z, CTX)[1, 1] == theta(z, CTX)[0, 0]
        assert seen == [2, 2]

    def test_chunks_cover_every_argument(self, monkeypatch):
        monkeypatch.setattr(elliptic, "_CHUNK", 3)
        z = self.points(TAU, (11,), seed=4)
        want = [theta(complex(v), CTX) for v in z]
        np.testing.assert_allclose(theta(z, CTX), want, rtol=1e-12, atol=0)

    def test_guard_names_the_first_offending_entry(self):
        z = np.array([[0.4 + 0.3j, 0.3 + 0.2j], [1.0 + 0.01j, 0.02 + 0.0j]])
        with pytest.raises(PoleProximityError, match=r"x\[1, 0\] = 1\+0\.01j lies 0\.01 "):
            guard_denominator("x", z, TAU)
        guard_denominator("x", z[0], TAU)
        with pytest.raises(PoleProximityError, match=r"u\[2\]"):
            kronecker_phi(np.array([0.3, 0.4, TAU + 0.01]), 0.2 + 0.1j, CTX)
        with pytest.raises(PoleProximityError, match=r"z\[1, 0\]"):
            eisenstein_e1(z, CTX)
