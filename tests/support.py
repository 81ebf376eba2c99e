"""Helpers shared by the test modules."""

import math

import numpy as np

from ellrmx.elliptic import EllipticContext, LatticeIndex, omega_raw
from ellrmx.spans import RelationSet


def all_indices(n: int) -> list[LatticeIndex]:
    """All ``n^2`` canonical characteristics, row-major."""
    return [LatticeIndex(a1, a2, n) for a1 in range(n) for a2 in range(n)]


def omega(alpha: LatticeIndex, ctx: EllipticContext) -> complex:
    """Lattice fraction attached to a canonical characteristic."""
    return omega_raw(alpha.a1, alpha.a2, alpha.n, ctx.tau)


def theta_series_30(u, tau: complex) -> tuple[np.ndarray, ...]:
    """Theta and its first two derivatives at the entries of ``u``, flat,
    from the half-integer sum cut after a fixed 30 terms.

    The argument reduction and quasi-periodicity factor are those of
    :mod:`ellrmx.elliptic`; 30 terms leave a tail that underflows to zero
    at every supported tau, so this is an accuracy oracle for the term
    count the package works out from tau.
    """
    k = np.arange(30)
    base = (-1.0) ** k * np.exp(1j * math.pi * tau * (k + 0.5) ** 2)
    freq = (2 * k + 1) * math.pi
    u = np.asarray(u, dtype=complex).ravel()
    n = np.rint(u.imag / tau.imag)
    m = np.rint((u - n * tau).real)
    u_red = u - m - n * tau
    phase = np.multiply.outer(u_red, freq)
    t0 = (2.0 * base * np.sin(phase)).sum(axis=-1)
    t1 = (2.0 * base * freq * np.cos(phase)).sum(axis=-1)
    t2 = (-2.0 * base * freq**2 * np.sin(phase)).sum(axis=-1)
    fac = (-1.0) ** (m + n) * np.exp(-1j * math.pi * tau * n * n - 2j * math.pi * n * u_red)
    w = 2j * math.pi * n
    return fac * t0, fac * (t1 - w * t0), fac * (t2 - 2 * w * t1 + w * w * t0)


def with_excess_row(s: RelationSet) -> RelationSet:
    """The set with one more row: its first row plus 1e-7 on the first
    word that no row of the set touches, normalized.  Where the set spans
    a reference without that word, the new row is a unit row with a
    component of about 1e-7 off the reference span, and the rank grows by
    one."""
    pieces = list(zip(s.components, s.blocks))
    touched = np.concatenate([cols for (_, cols), _ in pieces])
    free = np.setdiff1d(np.arange(s.width), touched)[0]
    (rows, cols), block = pieces[0]
    rows = [np.repeat(r, c.size) for (r, c), _ in pieces] + [np.full(cols.size + 1, s.size)]
    words = [np.tile(c, r.size) for (r, c), _ in pieces] + [np.append(cols, free)]
    values = [b.ravel() for _, b in pieces] + [np.append(block[0], 1e-7)]
    rows, words, values = (np.concatenate(x) for x in (rows, words, values))
    (out,) = RelationSet.from_terms(rows, words, [values], s.size + 1, s.width)
    return out
