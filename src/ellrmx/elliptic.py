"""Odd Jacobi theta function, Kronecker function and Eisenstein expressions.

Everything is computed from one rapidly convergent half-integer sum.  A frozen
EllipticContext pins the lattice parameter tau and the truncation order, and
caches the series data so repeated evaluations stay cheap.  Arguments are
reduced to the fundamental cell before summation; the quasi-periodicity factor
(including the correction terms it induces on derivatives) restores the value
at the original point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TWO_PI_I = 2j * math.pi

#: Minimum distance from the zero lattice allowed in denominators.
DELTA_MIN = 0.05


class PoleProximityError(ValueError):
    """An evaluation point sits too close to a lattice translate of a pole."""


def lattice_distance(z: complex, tau: complex) -> float:
    """Distance from ``z`` to the nearest point of ``Z + tau Z``.

    The distance is measured after splitting ``z = a + b tau`` in lattice
    coordinates and rounding both to the nearest integer, which is exact for
    the fundamental-cell geometry used here (Im tau bounded away from zero).
    """
    b = z.imag / tau.imag
    a = z.real - b * tau.real
    return abs((a - round(a)) + (b - round(b)) * tau)


@dataclass(frozen=True)
class EllipticContext:
    """Fixed lattice parameter plus series truncation for theta evaluations.

    Parameters
    ----------
    tau : complex
        Lattice parameter, ``Im tau >= 0.3``.
    trunc_k : int
        Number of terms kept in the half-integer theta sum.
    tol : float
        Upper bound the truncation tail must satisfy on the reduced-argument
        band; violating it raises at construction time.
    """

    tau: complex
    trunc_k: int = 30
    tol: float = 1e-12

    def __post_init__(self) -> None:
        t = complex(self.tau)
        if not (math.isfinite(t.real) and math.isfinite(t.imag)):
            raise ValueError("tau must be finite")
        if t.imag < 0.3:
            raise ValueError(f"Im tau = {t.imag:g} below the supported band (>= 0.3)")
        object.__setattr__(self, "tau", t)
        if self.trunc_k < 5:
            raise ValueError("trunc_k too small for a certified tail")
        if self.tail_bound > self.tol:
            raise ValueError(
                f"truncation tail {self.tail_bound:.3e} exceeds tol {self.tol:.3e}; "
                "raise trunc_k"
            )

    @cached_property
    def arg_band(self) -> float:
        """Largest |Im u| seen by the series after argument reduction."""
        return self.tau.imag / 2 + 0.05

    @cached_property
    def tail_bound(self) -> float:
        """Bound on the dropped tail of the second-derivative sum.

        The k-th term of the theta sum is bounded by
        ``2 exp(-pi Im tau (k+1/2)^2 + (2k+1) pi band)``; the second
        derivative multiplies it by ``((2k+1) pi)^2``.  Terms decay faster
        than geometrically, so the first dropped term times a geometric
        slack factor bounds the whole tail.
        """
        k = self.trunc_k
        y = self.tau.imag
        log_term = (
            -math.pi * y * (k + 0.5) ** 2
            + (2 * k + 1) * math.pi * self.arg_band
            + 2 * math.log((2 * k + 1) * math.pi)
            + math.log(2.0)
        )
        ratio = math.exp(-math.pi * y)  # decay ratio between successive terms is smaller
        return math.exp(log_term) / (1 - ratio)

    @cached_property
    def _series(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-term data for the truncated sum: sign, q-power and frequency."""
        k = np.arange(self.trunc_k)
        sign = (-1.0) ** k
        qpow = np.exp(1j * math.pi * self.tau * (k + 0.5) ** 2)
        freq = (2 * k + 1) * math.pi
        return sign, qpow, freq

    @cached_property
    def theta_prime0(self) -> complex:
        """Derivative of the odd theta function at the origin."""
        return theta_d1(0.0, self)


def _reduce(u: complex, tau: complex) -> tuple[complex, int, int]:
    """Split ``u = u_red + m + n tau`` with ``u_red`` in the fundamental cell."""
    n = round(u.imag / tau.imag)
    m = round((u - n * tau).real)
    return u - m - n * tau, m, n


def _theta_block(u: complex, ctx: EllipticContext) -> tuple[complex, complex, complex]:
    """Theta and its first two u-derivatives at ``u``, via argument reduction.

    The reduced point feeds the truncated sum; quasi-periodicity contributes
    the exponential factor and, through its u-dependence, the lower-order
    correction terms in the derivative formulas.
    """
    u_red, m, n = _reduce(u, ctx.tau)
    sign, qpow, freq = ctx._series
    phase = freq * u_red
    s = np.sin(phase)
    c = np.cos(phase)
    t0 = 2.0 * complex(np.dot(sign * qpow, s))
    t1 = 2.0 * complex(np.dot(sign * qpow * freq, c))
    t2 = -2.0 * complex(np.dot(sign * qpow * freq**2, s))
    if m == 0 and n == 0:
        return t0, t1, t2
    fac = cmath.exp(-1j * math.pi * ctx.tau * n * n - TWO_PI_I * n * u_red)
    if (m + n) % 2:
        fac = -fac
    w = TWO_PI_I * n
    return fac * t0, fac * (t1 - w * t0), fac * (t2 - 2 * w * t1 + w * w * t0)


def theta(u: complex, ctx: EllipticContext) -> complex:
    """Odd Jacobi theta function of ``u`` at the context's tau.

    Odd in ``u``, with simple zeros exactly on ``Z + tau Z`` and the
    quasi-periodicity ``theta(u + m + n tau) =
    (-1)^{m+n} exp(-i pi tau n^2 - 2 pi i n u) theta(u)``.
    """
    return _theta_block(u, ctx)[0]


def theta_d1(u: complex, ctx: EllipticContext) -> complex:
    """First derivative of :func:`theta` with respect to ``u``."""
    return _theta_block(u, ctx)[1]


def theta_d2(u: complex, ctx: EllipticContext) -> complex:
    """Second derivative of :func:`theta` with respect to ``u``."""
    return _theta_block(u, ctx)[2]


def guard_denominator(name: str, value: complex, tau: complex) -> None:
    """Raise :class:`PoleProximityError` if ``value``, a theta argument in
    a denominator, lies within ``DELTA_MIN`` of the zero lattice."""
    d = lattice_distance(value, tau)
    if d < DELTA_MIN:
        raise PoleProximityError(
            f"{name} = {value:.6g} lies {d:.3g} from the zero lattice "
            f"(minimum {DELTA_MIN})"
        )


def kronecker_phi(u: complex, x: complex, ctx: EllipticContext) -> complex:
    """Meromorphic weight-one kernel ``theta'(0) theta(u+x) / (theta(u) theta(x))``.

    Symmetric in its two arguments, 1-periodic in each, and multiplied by
    ``exp(-2 pi i u)`` when ``x`` shifts by tau.  Only the two denominator
    arguments are guarded against the zero lattice: the numerator may vanish
    (e.g. ``x = -u`` gives an honest zero).
    """
    guard_denominator("u", u, ctx.tau)
    guard_denominator("x", x, ctx.tau)
    return ctx.theta_prime0 * theta(u + x, ctx) / (theta(u, ctx) * theta(x, ctx))


def omega_raw(a1: int, a2: int, n: int, tau: complex) -> complex:
    """Lattice fraction ``(a1 + a2 tau) / n`` for integer characteristics."""
    return (a1 + a2 * tau) / n


def varphi(a1: int, a2: int, u: complex, x: complex, n: int, ctx: EllipticContext) -> complex:
    """Twisted kernel: :func:`kronecker_phi` at ``x`` shifted by ``(a1+a2 tau)/n``,
    times ``exp(2 pi i a2 u / n)``.

    The combination depends on ``(a1, a2)`` only modulo n, which is what makes
    it a legitimate function of a discrete characteristic.
    """
    shift = omega_raw(a1, a2, n, ctx.tau)
    return kronecker_phi(u, x + shift, ctx) * cmath.exp(TWO_PI_I * a2 * u / n)


def eisenstein_e1(z: complex, ctx: EllipticContext) -> complex:
    """Logarithmic derivative ``theta'(z)/theta(z)``.

    1-periodic; picks up ``-2 pi i`` under a tau shift.
    """
    guard_denominator("z", z, ctx.tau)
    t0, t1, _ = _theta_block(z, ctx)
    return t1 / t0


def eisenstein_e2(z: complex, ctx: EllipticContext) -> complex:
    """Weight-two function ``(theta'/theta)^2 - theta''/theta`` at ``z``.

    Equal to minus the derivative of :func:`eisenstein_e1`; fully elliptic
    and even.
    """
    guard_denominator("z", z, ctx.tau)
    t0, t1, t2 = _theta_block(z, ctx)
    return (t1 / t0) ** 2 - t2 / t0


def fay_residual(z: complex, w: complex, x: complex, y: complex, ctx: EllipticContext) -> float:
    """Normalized defect of the three-term quadratic kernel identity.

    ``phi(z,x) phi(w,y)`` should equal
    ``phi(z-w,x) phi(w,x+y) + phi(w-z,y) phi(z,x+y)``; the defect is divided
    by the largest of the three term magnitudes (and 1).
    """
    lhs = kronecker_phi(z, x, ctx) * kronecker_phi(w, y, ctx)
    t1 = kronecker_phi(z - w, x, ctx) * kronecker_phi(w, x + y, ctx)
    t2 = kronecker_phi(w - z, y, ctx) * kronecker_phi(z, x + y, ctx)
    scale = max(abs(lhs), abs(t1), abs(t2), 1.0)
    return abs(lhs - t1 - t2) / scale


def fay_coincident_residual(z: complex, x: complex, y: complex, ctx: EllipticContext) -> float:
    """Normalized defect of the first-argument degeneration of the identity.

    ``phi(z,x) phi(z,y)`` should equal
    ``phi(z,x+y) (E1(z) + E1(x) + E1(y) - E1(x+y+z))``.
    """
    lhs = kronecker_phi(z, x, ctx) * kronecker_phi(z, y, ctx)
    rhs = kronecker_phi(z, x + y, ctx) * (
        eisenstein_e1(z, ctx)
        + eisenstein_e1(x, ctx)
        + eisenstein_e1(y, ctx)
        - eisenstein_e1(x + y + z, ctx)
    )
    scale = max(abs(lhs), abs(rhs), 1.0)
    return abs(lhs - rhs) / scale


def fay_pair_residual(z: complex, x: complex, ctx: EllipticContext) -> float:
    """Normalized defect of the fully degenerate form: ``phi(z,x) phi(z,-x)``
    against ``E2(z) - E2(x)``."""
    lhs = kronecker_phi(z, x, ctx) * kronecker_phi(z, -x, ctx)
    rhs = eisenstein_e2(z, ctx) - eisenstein_e2(x, ctx)
    scale = max(abs(lhs), abs(rhs), 1.0)
    return abs(lhs - rhs) / scale


@dataclass(frozen=True)
class LatticeIndex:
    """Characteristic ``(a1, a2)`` modulo ``n``, stored on canonical
    representatives in ``{0, ..., n-1}``.

    Arithmetic (`+`, `-`, negation) reduces back to canonical form.  Code
    that needs unreduced integer combinations (the operator basis does, see
    :func:`ellrmx.tensor.basis_t_raw`) works with the raw components
    directly instead of through this type.
    """

    a1: int
    a2: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("modulus must be positive")
        object.__setattr__(self, "a1", self.a1 % self.n)
        object.__setattr__(self, "a2", self.a2 % self.n)

    def _check(self, other: "LatticeIndex") -> None:
        if self.n != other.n:
            raise ValueError(f"mixed moduli {self.n} and {other.n}")

    def __add__(self, other: "LatticeIndex") -> "LatticeIndex":
        self._check(other)
        return LatticeIndex(self.a1 + other.a1, self.a2 + other.a2, self.n)

    def __sub__(self, other: "LatticeIndex") -> "LatticeIndex":
        self._check(other)
        return LatticeIndex(self.a1 - other.a1, self.a2 - other.a2, self.n)

    def __neg__(self) -> "LatticeIndex":
        return LatticeIndex(-self.a1, -self.a2, self.n)

    @property
    def pair(self) -> tuple[int, int]:
        return (self.a1, self.a2)


def omega(alpha: LatticeIndex, ctx: EllipticContext) -> complex:
    """Lattice fraction attached to a canonical characteristic."""
    return omega_raw(alpha.a1, alpha.a2, alpha.n, ctx.tau)


def all_indices(n: int) -> list[LatticeIndex]:
    """All ``n^2`` canonical characteristics, row-major."""
    return [LatticeIndex(a1, a2, n) for a1 in range(n) for a2 in range(n)]
