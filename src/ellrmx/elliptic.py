"""Odd Jacobi theta function, Kronecker function and Eisenstein expressions.

Everything is computed from one rapidly convergent half-integer sum.  A
frozen EllipticContext pins the lattice parameter tau, works out from it
the fewest terms whose dropped tail stays under ``TAIL_TOL``, and caches
the series weights so repeated evaluations stay cheap.  Arguments are
reduced to the fundamental cell before summation; the quasi-periodicity
factor (including the correction terms it induces on derivatives) restores
the value at the original point.  Each kernel sums only the derivative
orders it reads: theta alone needs the sine series, the first derivative
adds the cosine series, and only the second-order kernels take all three.

Every kernel takes numpy arrays of arguments, and every argument takes the
same array path: a 0-d argument (a Python or numpy scalar) returns a numpy
scalar, an instance of complex (of float for :func:`lattice_distance`), and
an array returns an array of the broadcast shape.  The series is summed once
per distinct argument, in bounded chunks, and the pole guards check every
entry and name the first offending one.  The kernels compute on flat arrays
and shape their result last: numpy rounds a product of two complex scalars
differently from its array loops, so a 0-d call could otherwise differ from
the same entry of an array call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TWO_PI_I = 2j * math.pi

#: Minimum distance from the zero lattice allowed in denominators.
DELTA_MIN = 0.05

#: Smallest supported ``Im tau``: the convergence floor of the theta series.
MIN_IM_TAU = 0.3

#: Bound the dropped tail of the theta sum meets on the reduced-argument
#: band: under 1% of double roundoff on values of order one.
TAIL_TOL = 1e-18


class PoleProximityError(ValueError):
    """An evaluation point sits too close to a lattice translate of a pole."""


def lattice_distance(z, tau: complex):
    """Upper bound on the distance from ``z`` to the zero lattice ``Z + tau Z``.

    ``z = a + b tau`` is split in lattice coordinates and both are rounded
    to the nearest integer; the result is the distance to that lattice
    point.  It is exact when the rounded point is the nearest one, and
    otherwise overestimates: at tau = 0.3+0.8i that happens for about an
    eighth of uniform points, by up to about 0.23.  Only real arithmetic is
    used, so an entry's distance does not depend on the shape of ``z``.
    """
    b = z.imag / tau.imag
    a = z.real - b * tau.real
    db = b - np.rint(b)
    return np.hypot((a - np.rint(a)) + db * tau.real, db * tau.imag)


@dataclass(frozen=True)
class EllipticContext:
    """Fixed lattice parameter for theta evaluations.

    Parameters
    ----------
    tau : complex
        Lattice parameter, ``Im tau >= MIN_IM_TAU``.  The series keeps
        :attr:`terms` terms, the fewest whose dropped tail is at most
        ``TAIL_TOL`` on the reduced-argument band: 8 at ``Im tau = 0.3``,
        5 at ``Im tau = 0.8``.
    """

    tau: complex

    def __post_init__(self) -> None:
        t = complex(self.tau)
        if not (math.isfinite(t.real) and math.isfinite(t.imag)):
            raise ValueError("tau must be finite")
        if t.imag < MIN_IM_TAU:
            raise ValueError(
                f"Im tau = {t.imag:g} below the supported band (>= {MIN_IM_TAU})"
            )
        object.__setattr__(self, "tau", t)

    @cached_property
    def arg_band(self) -> float:
        """Largest |Im u| seen by the series after argument reduction."""
        return self.tau.imag / 2 + 0.05

    def tail_bound(self, k: int) -> float:
        """Bound on the dropped tail of the second-derivative sum cut after
        ``k`` terms.

        The k-th term of the theta sum is bounded by
        ``2 exp(-pi Im tau (k+1/2)^2 + (2k+1) pi band)``; the second
        derivative multiplies it by ``((2k+1) pi)^2``.  Terms decay faster
        than geometrically, so the first dropped term times a geometric
        slack factor bounds the whole tail.  A bound past the float range
        reads infinity.
        """
        y = self.tau.imag
        log_term = (
            -math.pi * y * (k + 0.5) ** 2
            + (2 * k + 1) * math.pi * self.arg_band
            + 2 * math.log((2 * k + 1) * math.pi)
            + math.log(2.0)
        )
        ratio = math.exp(-math.pi * y)  # decay ratio between successive terms is smaller
        try:
            return math.exp(log_term) / (1 - ratio)
        except OverflowError:
            return math.inf

    @cached_property
    def terms(self) -> int:
        """Fewest terms of the theta sum whose dropped tail meets ``TAIL_TOL``."""
        k = 0
        while self.tail_bound(k) > TAIL_TOL:
            k += 1
        return k

    @cached_property
    def _series(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-term data for the truncated sum: frequency, and the weights
        of the sines (theta), cosines (first derivative) and sines again
        (second derivative)."""
        k = np.arange(self.terms)
        base = (-1.0) ** k * np.exp(1j * math.pi * self.tau * (k + 0.5) ** 2)
        freq = (2 * k + 1) * math.pi
        return freq, 2.0 * base, 2.0 * (base * freq), -2.0 * (base * freq**2)

    @cached_property
    def theta_prime0(self) -> complex:
        """Derivative of the odd theta function at the origin."""
        return theta_d1(0.0, self)


#: Distinct arguments summed at once by an array evaluation; bounds each
#: of its (arguments x terms) complex temporaries to half a megabyte at
#: the most terms any supported tau needs (8, at the floor of Im tau).
_CHUNK = 4096


def _dedup(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct entries of a flat array, in sorted order, and each entry's
    position among them.

    A stable sort puts equal entries side by side in order of appearance,
    so each run keeps its first entry: of equal values that differ only in
    the sign of a zero part, the first one stands for all.
    """
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    first = np.empty(values.size, dtype=bool)
    first[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    inverse = np.empty(values.size, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ranked[first], inverse


def _theta_block(u, ctx: EllipticContext, order: int) -> tuple[np.ndarray, ...]:
    """Theta and its u-derivatives up to ``order`` (0, 1 or 2) at the
    entries of ``u``, each as a flat array, via argument reduction.

    The reduced point feeds the truncated sum; quasi-periodicity contributes
    the exponential factor and, through its u-dependence, the lower-order
    correction terms in the derivative formulas.  The series runs once per
    distinct entry, and only over the orders asked for; each order's
    arithmetic is the same at every ``order``, so its bits are too.  Every
    product is taken between named arrays, so that numpy never multiplies
    in place into a temporary (which can swap the operands): an entry's
    bits then do not depend on how many arguments one call takes.
    """
    tau = ctx.tau
    freq, w0, w1, w2 = ctx._series
    points, inverse = _dedup(np.asarray(u, dtype=complex).ravel())
    n = np.rint(points.imag / tau.imag)
    m = np.rint((points - n * tau).real)
    u_red = points - m - n * tau
    t = np.empty((order + 1, points.size), dtype=complex)
    for start in range(0, points.size, _CHUNK):
        chunk = slice(start, start + _CHUNK)
        phase = np.multiply.outer(u_red[chunk], freq)
        s = np.sin(phase)
        t[0, chunk] = (w0 * s).sum(axis=-1)
        if order == 2:
            t[2, chunk] = (w2 * s).sum(axis=-1)
        if order:
            # the cosines overwrite the sines, which are no longer needed
            t[1, chunk] = (w1 * np.cos(phase, out=s)).sum(axis=-1)
    fac = np.exp(-1j * math.pi * tau * n * n - TWO_PI_I * n * u_red)
    np.negative(fac, out=fac, where=(m + n) % 2 == 1)
    w = TWO_PI_I * n
    values = [t[0]]
    if order:
        values.append(t[1] - w * t[0])
    if order == 2:
        values.append(t[2] - 2 * w * t[1] + w * w * t[0])
    return tuple((fac * v)[inverse] for v in values)


def _shaped(values: np.ndarray, like):
    """Flat kernel values in the shape of ``like``: a numpy scalar for a
    0-d ``like``."""
    return values.reshape(np.shape(like))[()]


def theta(u, ctx: EllipticContext):
    """Odd Jacobi theta function of ``u`` at the context's tau.

    Odd in ``u``, with simple zeros exactly on ``Z + tau Z`` and the
    quasi-periodicity ``theta(u + m + n tau) =
    (-1)^{m+n} exp(-i pi tau n^2 - 2 pi i n u) theta(u)``.
    """
    return _shaped(_theta_block(u, ctx, 0)[0], u)


def theta_d1(u, ctx: EllipticContext):
    """First derivative of :func:`theta` with respect to ``u``."""
    return _shaped(_theta_block(u, ctx, 1)[1], u)


def theta_d2(u, ctx: EllipticContext):
    """Second derivative of :func:`theta` with respect to ``u``."""
    return _shaped(_theta_block(u, ctx, 2)[2], u)


def guard_denominator(name: str, value, tau: complex) -> None:
    """Raise :class:`PoleProximityError` if ``value``, a theta argument in
    a denominator, lies within ``DELTA_MIN`` of the zero lattice.  Every
    entry of an array is checked, and the message names the first
    offending one by its index."""
    value = np.asarray(value)
    d = lattice_distance(value, tau)
    bad = np.flatnonzero(d < DELTA_MIN)
    if not bad.size:
        return
    at = np.unravel_index(bad[0], value.shape)
    if at:
        name = f"{name}[{', '.join(str(int(i)) for i in at)}]"
    raise PoleProximityError(
        f"{name} = {complex(value[at]):.6g} lies {float(d[at]):.3g} from the "
        f"zero lattice (minimum {DELTA_MIN})"
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
    u, x = np.asarray(u, dtype=complex), np.asarray(x, dtype=complex)
    s = u + x
    # theta at u + x, u and x, each at its own shape, in one series call
    t = _theta_block(np.concatenate([s.ravel(), u.ravel(), x.ravel()]), ctx, 0)[0]
    t_s, t_u, t_x = np.split(t, [s.size, s.size + u.size])
    t_u, t_x = (
        np.broadcast_to(v.reshape(a.shape), s.shape).ravel() for v, a in ((t_u, u), (t_x, x))
    )
    return _shaped(ctx.theta_prime0 * t_s / (t_u * t_x), s)


def omega_raw(a1, a2, n: int, tau: complex):
    """Lattice fraction ``(a1 + a2 tau) / n`` for integer characteristics
    (integers or integer arrays, which broadcast); the real and imaginary
    parts are divided by n separately."""
    return (a1 + a2 * tau.real) / n + 1j * (a2 * tau.imag / n)


def varphi(a1, a2, u, x, n: int, ctx: EllipticContext):
    """Twisted kernel: :func:`kronecker_phi` at ``x`` shifted by ``(a1+a2 tau)/n``,
    times ``exp(2 pi i a2 u / n)``.

    The combination depends on ``(a1, a2)`` only modulo n, which is what makes
    it a legitimate function of a discrete characteristic.  Arrays of
    characteristics or arguments broadcast.
    """
    # u as an array and the product as a ufunc call, so that 0-d arguments
    # take numpy's array loops (see the module docstring)
    twist = np.exp(TWO_PI_I * a2 * np.asarray(u) / n)
    phi = kronecker_phi(u, x + omega_raw(a1, a2, n, ctx.tau), ctx)
    return np.multiply(phi, twist)


def eisenstein_e1(z, ctx: EllipticContext):
    """Logarithmic derivative ``theta'(z)/theta(z)``.

    1-periodic; picks up ``-2 pi i`` under a tau shift.
    """
    guard_denominator("z", z, ctx.tau)
    t0, t1 = _theta_block(z, ctx, 1)
    return _shaped(t1 / t0, z)


def eisenstein_e2(z, ctx: EllipticContext):
    """Weight-two function ``(theta'/theta)^2 - theta''/theta`` at ``z``.

    Equal to minus the derivative of :func:`eisenstein_e1`; fully elliptic
    and even.
    """
    guard_denominator("z", z, ctx.tau)
    t0, t1, t2 = _theta_block(z, ctx, 2)
    return _shaped((t1 / t0) ** 2 - t2 / t0, z)


def _scalar_product(a, b) -> np.ndarray:
    """``a * b`` rounded as numpy rounds a product of two complex scalars,
    without fused multiply-adds, at every entry of two arrays of one shape."""
    out = np.empty(np.shape(a), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _fay_defect(defect, *terms):
    """``|defect|`` over the largest of the term moduli and 1, each modulus
    the hypot that ``abs`` of a complex scalar takes."""
    scale = 1.0
    for t in terms:
        scale = np.maximum(scale, np.hypot(t.real, t.imag))
    return np.hypot(defect.real, defect.imag) / scale


def fay_residual(z, w, x, y, ctx: EllipticContext):
    """Normalized defect of the three-term quadratic kernel identity.

    ``phi(z,x) phi(w,y)`` should equal
    ``phi(z-w,x) phi(w,x+y) + phi(w-z,y) phi(z,x+y)``; the defect is divided
    by the largest of the three term magnitudes (and 1).  1-d arrays of the
    points (one entry per trial, all of one shape) give a 1-d array of one
    defect per trial from one kernel call, and scalar points a 1-d array of
    one; a trial's defect does not depend on the batch it is in.
    """
    z, w, x, y = np.atleast_1d(z, w, x, y)
    phi = kronecker_phi(
        np.array([z, w, z - w, w, w - z, z]), np.array([x, y, x, x + y, y, x + y]), ctx
    )
    lhs, t1, t2 = phi[::2] * phi[1::2]
    return _fay_defect(lhs - t1 - t2, lhs, t1, t2)


def fay_coincident_residual(z, x, y, ctx: EllipticContext):
    """Normalized defect of the first-argument degeneration of the identity.

    ``phi(z,x) phi(z,y)`` should equal
    ``phi(z,x+y) (E1(z) + E1(x) + E1(y) - E1(x+y+z))``.  Arrays as for
    :func:`fay_residual`.
    """
    z, x, y = np.atleast_1d(z, x, y)
    phi = kronecker_phi(z, np.array([x, y, x + y]), ctx)
    e1 = eisenstein_e1(np.array([z, x, y, x + y + z]), ctx)
    lhs = _scalar_product(phi[0], phi[1])
    rhs = _scalar_product(phi[2], e1[0] + e1[1] + e1[2] - e1[3])
    return _fay_defect(lhs - rhs, lhs, rhs)


def fay_pair_residual(z, x, ctx: EllipticContext):
    """Normalized defect of the fully degenerate form: ``phi(z,x) phi(z,-x)``
    against ``E2(z) - E2(x)``.  Arrays as for :func:`fay_residual`."""
    z, x = np.atleast_1d(z, x)
    phi = kronecker_phi(z, np.array([x, -x]), ctx)
    e2 = eisenstein_e2(np.array([z, x]), ctx)
    lhs = _scalar_product(phi[0], phi[1])
    rhs = e2[0] - e2[1]
    return _fay_defect(lhs - rhs, lhs, rhs)


@dataclass(frozen=True)
class LatticeIndex:
    """Characteristic ``(a1, a2)`` modulo ``n``, stored on canonical
    representatives in ``{0, ..., n-1}``.

    Code that combines characteristics (the operator basis does, see
    :func:`ellrmx.tensor.basis_t_raw`) works with the raw integer components
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

    @property
    def pair(self) -> tuple[int, int]:
        return (self.a1, self.a2)
