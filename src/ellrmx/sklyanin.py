"""Vertex-type exchange relations: the Sklyanin structure constants.

Each relation is labelled by a characteristic pair (alpha, beta) and sums
over a third characteristic gamma.  Its constants come in a bare form
(first or second Eisenstein values at hbar-shifted lattice fractions) and
a theta-rescaled, shifted-parameter form; both are built as arrays over
gamma and over many label pairs at once, here and by the composite
families of :mod:`ellrmx.relations`.  The finite-dimensional basis
representation checks them, for many pairs at once as stacked matrices.
"""

from __future__ import annotations

import cmath
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .elliptic import (
    EllipticContext,
    LatticeIndex,
    all_indices,
    eisenstein_e1,
    eisenstein_e2,
    guard_denominator,
    omega_raw,
    theta,
)
from .tensor import basis_t_raw, kappa_raw

TWO_PI_I = 2j * cmath.pi

#: Basis-matrix entries (pairs x gammas x n x n) that one representation
#: residual stacks, per letter; bounds its complex temporaries to a few
#: megabytes at every n, where all n^4 pairs at once would take O(n^8).
_CHUNK = 1 << 16


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


@dataclass(frozen=True, eq=False)
class SklyaninTable:
    """Structure constants of many exchange relations, one row per label pair.

    Row p is the relation labelled by entry p of ``pairs``, the (a1, a2,
    b1, b2) integer arrays of the array builders: column k holds the
    weight of the k-th summation characteristic gamma, in the order of
    :func:`characteristics`, and ``scale[p]`` is the row's assembly scale
    (see :class:`SklyaninRelation`).  At n == 1 there are no relations and
    the table has no columns.
    """

    n: int
    pairs: tuple[np.ndarray, ...]
    values: np.ndarray
    scale: np.ndarray

    def relation(self, p: int) -> SklyaninRelation:
        """Row ``p`` as one relation."""
        n = self.n
        a1, a2, b1, b2 = (int(v[p]) for v in self.pairs)
        values = dict(zip(all_indices(n), self.values[p].tolist()))
        alpha, beta = LatticeIndex(a1, a2, n), LatticeIndex(b1, b2, n)
        return SklyaninRelation(alpha, beta, values, float(self.scale[p]))


def _one_row(rel: SklyaninRelation) -> SklyaninTable:
    values = [rel.coefficients.get(g, 0j) for g in all_indices(rel.n)]
    pairs = label_arrays((rel.alpha,), (rel.beta,))
    return SklyaninTable(rel.n, pairs, np.array([values], dtype=complex), np.array([rel.scale]))


def characteristics(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``n^2`` canonical characteristics as integer arrays, in the
    row-major order of :func:`ellrmx.elliptic.all_indices`."""
    return np.divmod(np.arange(n * n), n)


def label_arrays(alpha, beta) -> tuple[np.ndarray, ...]:
    """Equal-length sequences of characteristics, read as label pairs, as
    the (a1, a2, b1, b2) integer arrays of the array builders."""
    if len(alpha) != len(beta):
        raise ValueError("label sequences of different lengths")
    if len({v.n for v in (*alpha, *beta)}) > 1:
        raise ValueError("characteristics with mixed moduli")
    labels = np.array([a.pair + b.pair for a, b in zip(alpha, beta)], dtype=int)
    return tuple(labels.reshape(-1, 4).T)


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
    first, second = theta(hbar + omega_raw(*_letters(pairs, n), n, ctx.tau), ctx)
    return first * second


def _letters(pairs: tuple, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Unreduced integer indices (d1, d2) of both letters of every word,
    ``(alpha - gamma, beta + gamma)``, each stacked ``[letter, pair, gamma]``."""
    g1, g2 = characteristics(n)
    a1, a2, b1, b2 = (v[:, None] for v in pairs)
    d1 = np.stack(np.broadcast_arrays(a1 - g1, b1 + g1))
    d2 = np.stack(np.broadcast_arrays(a2 - g2, b2 + g2))
    return d1, d2


def sklyanin_coeffs(alpha, beta, hbar: complex, ctx: EllipticContext):
    """Bare structure constants of the exchange relations labelled (alpha, beta).

    For nonzero beta each gamma weighs in with a commutation phase times a
    four-term combination of first Eisenstein values at hbar-shifted
    lattice fractions; for beta == 0 the combination is a difference of two
    second Eisenstein values.  The fractions follow the unreduced integer
    arithmetic of the word: the first Eisenstein function is only
    quasi-periodic, so representatives matter.  n == 1 has no relations
    and yields an empty table.

    ``alpha`` and ``beta`` are one characteristic each, giving a
    :class:`SklyaninRelation`, or equal-length sequences of them, giving a
    :class:`SklyaninTable` with one row per position.
    """
    if isinstance(alpha, LatticeIndex):
        return sklyanin_coeffs((alpha,), (beta,), hbar, ctx).relation(0)
    pairs = label_arrays(alpha, beta)
    n = alpha[0].n
    if n == 1:
        empty = np.zeros((len(alpha), 0), dtype=complex)
        return SklyaninTable(n, pairs, empty, np.zeros(len(alpha)))
    return SklyaninTable(n, pairs, *bare_constants(pairs, hbar, n, ctx))


def sklyanin_coeffs_eta(base, eta: complex, hbar: complex, ctx: EllipticContext):
    """Structure constants in the theta-rescaled, parameter-shifted form,
    from the bare relations ``base`` (a :class:`SklyaninRelation` or a
    :class:`SklyaninTable`, returned in kind) at the same ``hbar``.

    Each bare coefficient picks up two theta factors at the hbar-shifted
    fractions of its own word, and each relation carries a single global
    phase in ``eta - hbar`` (the per-word phases collapse because the
    words all share the integer column sum ``alpha + beta``).  At
    ``eta == hbar`` only the rescaling remains.
    """
    if base.n == 1:
        return base
    if isinstance(base, SklyaninRelation):
        return sklyanin_coeffs_eta(_one_row(base), eta, hbar, ctx).relation(0)
    pairs = base.pairs
    pref = theta_prefactors(pairs, hbar, base.n, ctx)
    phase = np.exp(-TWO_PI_I * (pairs[1] + pairs[3]) * (eta - hbar) / base.n)
    values = base.values * pref * phase[:, None]
    scale = base.scale * np.abs(pref).max(axis=1)
    return SklyaninTable(base.n, pairs, values, scale)


def sklyanin_representation_residual(
    rel,
    ctx: EllipticContext,
    *,
    hbar: complex | None = None,
    eta: complex | None = None,
):
    """Normalized norm of the relations evaluated in the basis representation:
    a float for a :class:`SklyaninRelation`, an array with one entry per
    row for a :class:`SklyaninTable`.

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
    if isinstance(rel, SklyaninRelation):
        if not rel.coefficients:
            return 0.0
        table = _one_row(rel)
        return float(sklyanin_representation_residual(table, ctx, hbar=hbar, eta=eta)[0])
    n, values = rel.n, rel.values
    if not values.size:
        return np.zeros(len(values))
    d1, d2 = _letters(rel.pairs, n)
    reps = basis_t_raw(-d1, -d2, n)
    if hbar is not None:
        args = hbar + omega_raw(d1, d2, n, ctx.tau)
        guard_denominator("hbar + omega_d", args, ctx.tau)
        reps /= theta(args, ctx)[..., None, None]
    if eta is not None:
        reps *= np.exp(TWO_PI_I * d2 * (eta - hbar) / n)[..., None, None]
    acc = (values[..., None, None] * (reps[0] @ reps[1])).sum(axis=1)
    norms = np.linalg.norm(reps, axis=(-2, -1))
    den = np.maximum(np.sum(np.abs(values) * norms[0] * norms[1], axis=1), rel.scale)
    num = np.linalg.norm(acc, axis=(-2, -1))
    return np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)


def label_pair_chunks(n: int) -> Iterator[tuple[tuple[LatticeIndex, ...], ...]]:
    """All ``n^4`` label pairs (alpha outer, beta inner, both in the order
    of :func:`ellrmx.elliptic.all_indices`) as (alphas, betas) chunks.

    A chunk holds at most ``_CHUNK`` basis-matrix entries of the
    representation residual, ``n^4`` per pair, and at least one pair.
    """
    labels = all_indices(n)
    pairs = [(alpha, beta) for alpha in labels for beta in labels]
    size = max(1, _CHUNK // n**4)
    for start in range(0, len(pairs), size):
        yield tuple(zip(*pairs[start : start + size]))
