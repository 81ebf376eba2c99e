"""Odd Jacobi theta function, Kronecker function and Eisenstein expressions.

Everything is computed from one rapidly convergent half-integer sum.  A frozen
EllipticContext pins the lattice parameter tau and the truncation order, and
caches the series weights so repeated evaluations stay cheap.  Arguments are
reduced to the fundamental cell before summation; the quasi-periodicity factor
(including the correction terms it induces on derivatives) restores the value
at the original point.

Every kernel accepts a Python scalar or a numpy array of arguments.  A scalar
returns a Python complex (a float for :func:`lattice_distance`) along a
scalar path; an array returns an array of the broadcast shape.  An array
evaluation sums the series once per distinct argument, in bounded chunks, and
its pole guards check every entry and name the first offending one.
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


def lattice_distance(z, tau: complex):
    """Upper bound on the distance from ``z`` to the zero lattice ``Z + tau Z``.

    ``z = a + b tau`` is split in lattice coordinates and both are rounded
    to the nearest integer; the result is the distance to that lattice
    point.  It is exact when the rounded point is the nearest one, and
    otherwise overestimates: at tau = 0.3+0.8i that happens for about an
    eighth of uniform points, by up to about 0.23.  An array returns the
    same floats, bit for bit, as the scalar form applied entrywise.
    """
    b = z.imag / tau.imag
    a = z.real - b * tau.real
    if not isinstance(z, np.ndarray):
        return abs((a - round(a)) + (b - round(b)) * tau)
    # The scalar form's complex arithmetic, spelled out in real parts.
    db = b - np.rint(b)
    return np.hypot((a - np.rint(a)) + db * tau.real, db * tau.imag)


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
    def _series(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-term data for the truncated sum: frequency, and the weights
        of the sines (theta), cosines (first derivative) and sines again
        (second derivative)."""
        k = np.arange(self.trunc_k)
        base = (-1.0) ** k * np.exp(1j * math.pi * self.tau * (k + 0.5) ** 2)
        freq = (2 * k + 1) * math.pi
        return freq, 2.0 * base, 2.0 * (base * freq), -2.0 * (base * freq**2)

    @cached_property
    def theta_prime0(self) -> complex:
        """Derivative of the odd theta function at the origin."""
        return theta_d1(0.0, self)


#: Distinct arguments summed at once by an array evaluation; bounds its
#: (arguments x trunc_k) complex temporaries to a few megabytes.
_CHUNK = 4096


def _dedup(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct entries of a flat array, in order of first appearance, and
    each entry's position among them."""
    first: dict[complex, int] = {}
    inverse = [first.setdefault(v, len(first)) for v in values.tolist()]
    return np.array(list(first), dtype=complex), np.array(inverse, dtype=np.intp)


def _theta_block(u, ctx: EllipticContext):
    """Theta and its first two u-derivatives at ``u``, via argument reduction.

    The reduced point feeds the truncated sum; quasi-periodicity contributes
    the exponential factor and, through its u-dependence, the lower-order
    correction terms in the derivative formulas.  An array is evaluated
    once per distinct entry.
    """
    tau = ctx.tau
    freq, w0, w1, w2 = ctx._series
    if not isinstance(u, np.ndarray):
        n = round(u.imag / tau.imag)
        m = round((u - n * tau).real)
        u_red = u - m - n * tau
        phase = freq * u_red
        s = np.sin(phase)
        t0 = complex(np.dot(w0, s))
        t1 = complex(np.dot(w1, np.cos(phase)))
        t2 = complex(np.dot(w2, s))
        if m == 0 and n == 0:
            return t0, t1, t2
        fac = cmath.exp(-1j * math.pi * tau * n * n - TWO_PI_I * n * u_red)
        if (m + n) % 2:
            fac = -fac
    else:
        points, inverse = _dedup(np.asarray(u, dtype=complex).ravel())
        n = np.rint(points.imag / tau.imag)
        m = np.rint((points - n * tau).real)
        u_red = points - m - n * tau
        t0, t1, t2 = np.empty((3, points.size), dtype=complex)
        for start in range(0, points.size, _CHUNK):
            chunk = slice(start, start + _CHUNK)
            phase = np.multiply.outer(u_red[chunk], freq)
            s = np.sin(phase)
            t0[chunk] = (w0 * s).sum(axis=-1)
            t1[chunk] = (w1 * np.cos(phase)).sum(axis=-1)
            t2[chunk] = (w2 * s).sum(axis=-1)
        fac = np.exp(-1j * math.pi * tau * n * n - TWO_PI_I * n * u_red)
        np.negative(fac, out=fac, where=(m + n) % 2 == 1)
    w = TWO_PI_I * n
    block = fac * t0, fac * (t1 - w * t0), fac * (t2 - 2 * w * t1 + w * w * t0)
    if not isinstance(u, np.ndarray):
        return block
    return tuple(v[inverse].reshape(u.shape) for v in block)


def theta(u, ctx: EllipticContext):
    """Odd Jacobi theta function of ``u`` at the context's tau.

    Odd in ``u``, with simple zeros exactly on ``Z + tau Z`` and the
    quasi-periodicity ``theta(u + m + n tau) =
    (-1)^{m+n} exp(-i pi tau n^2 - 2 pi i n u) theta(u)``.
    """
    return _theta_block(u, ctx)[0]


def theta_d1(u, ctx: EllipticContext):
    """First derivative of :func:`theta` with respect to ``u``."""
    return _theta_block(u, ctx)[1]


def theta_d2(u, ctx: EllipticContext):
    """Second derivative of :func:`theta` with respect to ``u``."""
    return _theta_block(u, ctx)[2]


def guard_denominator(name: str, value, tau: complex) -> None:
    """Raise :class:`PoleProximityError` if ``value``, a theta argument in
    a denominator, lies within ``DELTA_MIN`` of the zero lattice.  For an
    array every entry is checked, and the message names the first
    offending one by its index."""
    d = lattice_distance(value, tau)
    if isinstance(value, np.ndarray):
        bad = np.flatnonzero(d < DELTA_MIN)
        if not bad.size:
            return
        at = np.unravel_index(bad[0], d.shape)
        name = f"{name}[{', '.join(str(int(i)) for i in at)}]"
        value, d = complex(value[at]), float(d[at])
    if d < DELTA_MIN:
        raise PoleProximityError(
            f"{name} = {value:.6g} lies {d:.3g} from the zero lattice "
            f"(minimum {DELTA_MIN})"
        )


def kronecker_phi(u, x, ctx: EllipticContext):
    """Meromorphic weight-one kernel ``theta'(0) theta(u+x) / (theta(u) theta(x))``.

    Symmetric in its two arguments, 1-periodic in each, and multiplied by
    ``exp(-2 pi i u)`` when ``x`` shifts by tau.  Only the two denominator
    arguments are guarded against the zero lattice: the numerator may vanish
    (e.g. ``x = -u`` gives an honest zero).  Arrays broadcast.
    """
    guard_denominator("u", u, ctx.tau)
    guard_denominator("x", x, ctx.tau)
    if isinstance(u, np.ndarray) or isinstance(x, np.ndarray):
        t = theta(np.stack(np.broadcast_arrays(u + x, u, x)), ctx)
        return ctx.theta_prime0 * t[0] / (t[1] * t[2])
    return ctx.theta_prime0 * theta(u + x, ctx) / (theta(u, ctx) * theta(x, ctx))


def omega_raw(a1, a2, n: int, tau: complex):
    """Lattice fraction ``(a1 + a2 tau) / n`` for integer characteristics
    (integers or integer arrays, which broadcast)."""
    if isinstance(a1, np.ndarray) or isinstance(a2, np.ndarray):
        # Part by part, as Python divides a complex by an integer: numpy's
        # complex division would multiply by 1/n and round differently.
        return (a1 + a2 * tau.real) / n + 1j * (a2 * tau.imag / n)
    return (a1 + a2 * tau) / n


def varphi(a1, a2, u, x, n: int, ctx: EllipticContext):
    """Twisted kernel: :func:`kronecker_phi` at ``x`` shifted by ``(a1+a2 tau)/n``,
    times ``exp(2 pi i a2 u / n)``.

    The combination depends on ``(a1, a2)`` only modulo n, which is what makes
    it a legitimate function of a discrete characteristic.  Arrays of
    characteristics or arguments broadcast.
    """
    twist = TWO_PI_I * a2 * u / n
    twist = np.exp(twist) if isinstance(twist, np.ndarray) else cmath.exp(twist)
    return kronecker_phi(u, x + omega_raw(a1, a2, n, ctx.tau), ctx) * twist


def eisenstein_e1(z, ctx: EllipticContext):
    """Logarithmic derivative ``theta'(z)/theta(z)``.

    1-periodic; picks up ``-2 pi i`` under a tau shift.
    """
    guard_denominator("z", z, ctx.tau)
    t0, t1, _ = _theta_block(z, ctx)
    return t1 / t0


def eisenstein_e2(z, ctx: EllipticContext):
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
