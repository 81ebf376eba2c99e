"""Vertex-type exchange relations: the Sklyanin structure constants.

Each relation is labelled by a characteristic pair (alpha, beta) and sums
over a third characteristic gamma.  Its constants come in a bare form
(first or second Eisenstein values at hbar-shifted lattice fractions) and
a theta-rescaled, shifted-parameter form; both are built as arrays over
gamma, and for many label pairs at once by the composite families of
:mod:`ellrmx.relations`.  The finite-dimensional basis representation
checks them.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .elliptic import (
    EllipticContext,
    LatticeIndex,
    all_indices,
    eisenstein_e1,
    eisenstein_e2,
    omega_raw,
    theta,
)
from .tensor import basis_t_raw, kappa_raw

TWO_PI_I = 2j * cmath.pi


@dataclass(frozen=True)
class SklyaninRelation:
    """Structure constants of one vertex-type exchange relation.

    ``coefficients`` maps the summation characteristic gamma to the weight
    of the word with integer indices ``(alpha - gamma, beta + gamma)``,
    where the arithmetic is carried out on canonical representatives
    without reduction.

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


def characteristics(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``n^2`` canonical characteristics as integer arrays, in the
    row-major order of :func:`ellrmx.elliptic.all_indices`."""
    return np.divmod(np.arange(n * n), n)


def label_arrays(alpha: LatticeIndex, beta: LatticeIndex) -> tuple[np.ndarray, ...]:
    """One label pair as the (a1, a2, b1, b2) arrays of the array builders."""
    if alpha.n != beta.n:
        raise ValueError("characteristics with mixed moduli")
    return tuple(np.array([v]) for v in (*alpha.pair, *beta.pair))


def bare_constants(pairs: tuple, hbar: complex, n: int, ctx: EllipticContext):
    """Bare constants ``[pair, gamma]`` of the label pairs (a1, a2, b1, b2),
    integer arrays of shape (P,), and each pair's largest term modulus.

    Pairs with beta == 0 meet only the second Eisenstein function and the
    others only the first; each sees exactly the arguments its pairs use,
    so its pole guard trips where a pair-by-pair build would.
    """
    g1, g2 = characteristics(n)
    zero = (pairs[2] == 0) & (pairs[3] == 0)
    coeffs = np.empty((zero.size, g1.size), dtype=complex)
    scale = np.empty(zero.size)

    def at(fn, pick, *letters):
        shape = (int(pick.sum()), g1.size)
        args = [np.broadcast_to(hbar + omega_raw(*c, n, ctx.tau), shape) for c in letters]
        e = fn(np.stack(args), ctx)
        scale[pick] = np.abs(e).max(axis=(0, 2))
        return e

    if (pick := ~zero).any():
        a1, a2, b1, b2 = (v[pick, None] for v in pairs)
        d1, d2 = a1 - b1, a2 - b2
        e = at(
            eisenstein_e1, pick,
            (g1, g2), (d1 - g1, d2 - g2), (a1 - g1, a2 - g2), (b1 + g1, b2 + g2),
        )
        coeffs[pick] = kappa_raw((g1, g2), (d1, d2), n) * (e[0] - e[1] + e[2] - e[3])
    if (pick := zero).any():
        a1, a2 = (v[pick, None] for v in pairs[:2])
        e = at(eisenstein_e2, pick, (g1, g2), (a1 - g1, a2 - g2))
        coeffs[pick] = kappa_raw((g1, g2), (a1, a2), n) * (e[0] - e[1])
    return coeffs, scale


def theta_prefactors(pairs: tuple, hbar: complex, n: int, ctx: EllipticContext):
    """``theta(hbar + omega(alpha - gamma)) theta(hbar + omega(beta + gamma))``
    as ``[pair, gamma]``, in unreduced integer arithmetic."""
    g1, g2 = characteristics(n)
    a1, a2, b1, b2 = (v[:, None] for v in pairs)
    c1 = np.stack(np.broadcast_arrays(a1 - g1, b1 + g1))
    c2 = np.stack(np.broadcast_arrays(a2 - g2, b2 + g2))
    first, second = theta(hbar + omega_raw(c1, c2, n, ctx.tau), ctx)
    return first * second


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
    pairs = label_arrays(alpha, beta)
    n = alpha.n
    if n == 1:
        return SklyaninRelation(alpha, beta, {})
    coeffs, scale = bare_constants(pairs, hbar, n, ctx)
    gammas = all_indices(n)
    values = dict(zip(gammas, coeffs[0].tolist()))
    return SklyaninRelation(alpha, beta, values, float(scale[0]))


def sklyanin_coeffs_eta(
    base: SklyaninRelation, eta: complex, hbar: complex, ctx: EllipticContext
) -> SklyaninRelation:
    """Structure constants in the theta-rescaled, parameter-shifted form,
    from the bare relation ``base`` at the same ``hbar``.

    Each bare coefficient picks up two theta factors at the hbar-shifted
    fractions of its own word, and the whole relation carries a single
    global phase in ``eta - hbar`` (the per-word phases collapse because
    the words all share the integer column sum ``alpha + beta``).  At
    ``eta == hbar`` only the rescaling remains.
    """
    alpha, beta, n = base.alpha, base.beta, base.n
    if n == 1:
        return base
    pref = theta_prefactors(label_arrays(alpha, beta), hbar, n, ctx)[0]
    phase = cmath.exp(-TWO_PI_I * (alpha.a2 + beta.a2) * (eta - hbar) / n)
    gammas = all_indices(n)
    values = np.array([base.coefficients[g] for g in gammas]) * pref * phase
    scale = base.scale * float(np.abs(pref).max())
    return SklyaninRelation(alpha, beta, dict(zip(gammas, values.tolist())), scale)


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
    g1, g2 = np.array([g.pair for g in rel.coefficients]).T
    values = np.array(list(rel.coefficients.values()))
    # integer indices of both letters of every word, stacked [letter, gamma]
    d1 = np.stack([rel.alpha.a1 - g1, rel.beta.a1 + g1])
    d2 = np.stack([rel.alpha.a2 - g2, rel.beta.a2 + g2])
    reps = basis_t_raw(-d1, -d2, n)
    if hbar is not None:
        reps = reps / theta(hbar + omega_raw(d1, d2, n, ctx.tau), ctx)[..., None, None]
    if eta is not None:
        reps = reps * np.exp(TWO_PI_I * d2 * (eta - hbar) / n)[..., None, None]
    acc = (values[:, None, None] * (reps[0] @ reps[1])).sum(axis=0)
    norms = np.linalg.norm(reps, axis=(2, 3))
    den = max(float(np.sum(np.abs(values) * norms[0] * norms[1])), rel.scale)
    if den == 0.0:
        return 0.0
    return float(np.linalg.norm(acc)) / den
