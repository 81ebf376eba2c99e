"""Vertex-type exchange relations: the Sklyanin structure constants.

Each relation is labelled by a characteristic pair (alpha, beta) and sums
over a third characteristic gamma.  Its constants come in a bare form
(first or second Eisenstein values at hbar-shifted lattice fractions) and
a theta-rescaled, shifted-parameter form; both are built as arrays over
gamma and over many label pairs at once.  The vertex-type block of the
composite families of :mod:`ellrmx.relations` is the shifted form, at one
parameter per coordinate pair.  The finite-dimensional basis
representation checks them, for many pairs at once, without matrices.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .elliptic import (
    TWO_PI_I,
    EllipticContext,
    eisenstein_e1,
    eisenstein_e2,
    guard_denominator,
    omega_raw,
    theta,
)
from .tensor import kappa_raw

#: Array entries that one chunk of label pairs stacks (see
#: :func:`label_pair_chunks`); bounds the complex temporaries of a chunk to
#: a few megabytes at every n, where all n^4 pairs at once would take
#: O(n^6) per array in the Eisenstein letter stacks of the constants.
_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class SklyaninTable:
    """Structure constants of many exchange relations, one row per label pair.

    Row p is the relation labelled by entry p of ``pairs``, the (a1, a2,
    b1, b2) integer arrays of the array builders: column k holds the
    weight of the k-th summation characteristic gamma, in the order of
    :func:`characteristics`, and ``scale[p]`` is the row's assembly scale:
    the magnitude of the largest single term that went into it.  Some
    label pairs (alpha == beta at even order, for instance) cancel
    identically, leaving roundoff-sized constants; the scale lets consumers
    recognize those as trivially satisfied instead of dividing noise by
    noise.  At n == 1 there are no relations and the table has no columns.
    A table built at an array of ``hbar`` (one per trial) holds one such
    table per trial, its axes in front of ``values`` and ``scale``.
    """

    n: int
    pairs: tuple[np.ndarray, ...]
    values: np.ndarray
    scale: np.ndarray


def characteristics(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``n^2`` canonical characteristics ``(a1, a2)`` as integer
    arrays, row-major: ``a1`` outer, ``a2`` inner."""
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


def bare_constants(pairs: tuple, hbar, n: int, ctx: EllipticContext):
    """Bare constants ``[pair, gamma]`` of the label pairs (a1, a2, b1, b2),
    integer arrays of shape (P,), and each pair's largest term modulus.
    An array of ``hbar`` (one per trial) adds its axes in front of both.

    Pairs with beta == 0 meet only the second Eisenstein function and the
    others only the first; each sees exactly the arguments its pairs use,
    so its pole guard trips where a pair-by-pair build would.
    """
    g1, g2 = characteristics(n)
    lead = np.shape(hbar)
    zero = (pairs[2] == 0) & (pairs[3] == 0)
    coeffs = np.empty(lead + (zero.size, g1.size), dtype=complex)
    scale = np.empty(lead + (zero.size,))

    def at(fn, pick, *letters):
        """``fn`` at the letters, summed with alternating signs one letter
        at a time; each pair's largest value goes to ``scale``."""
        d1, d2 = (np.stack(np.broadcast_arrays(*c)) for c in zip(*letters))
        values = _at_letters(fn, _distinct_letters(d1, d2), hbar, n, ctx)
        total = next(values)
        big = np.abs(total).max(axis=-1)
        for k, e in enumerate(values, 1):
            big = np.maximum(big, np.abs(e).max(axis=-1))
            total = total - e if k % 2 else total + e
        scale[..., pick] = big
        return total

    # the sums are named, so that numpy never multiplies in place into a
    # temporary (which can swap the operands): see family_terms
    if (pick := ~zero).any():
        a1, a2, b1, b2 = (v[pick, None] for v in pairs)
        d1, d2 = a1 - b1, a2 - b2
        total = at(
            eisenstein_e1, pick,
            (g1, g2), (d1 - g1, d2 - g2), (a1 - g1, a2 - g2), (b1 + g1, b2 + g2),
        )
        coeffs[..., pick, :] = kappa_raw((g1, g2), (d1, d2), n) * total
    if (pick := zero).any():
        a1, a2 = (v[pick, None] for v in pairs[:2])
        total = at(eisenstein_e2, pick, (g1, g2), (a1 - g1, a2 - g2))
        coeffs[..., pick, :] = kappa_raw((g1, g2), (a1, a2), n) * total
    return coeffs, scale


def theta_prefactors(pairs: tuple, hbar, n: int, ctx: EllipticContext):
    """``theta(hbar + omega(alpha - gamma)) theta(hbar + omega(beta + gamma))``
    as ``[pair, gamma]``, in unreduced integer arithmetic.  An array of
    ``hbar`` adds its axes in front."""
    first, second = _at_letters(theta, _distinct_letters(*_letters(pairs, n)), hbar, n, ctx)
    first *= second
    return first


def _at_letters(kernel, letters: tuple, hbar, n: int, ctx: EllipticContext):
    """``kernel(hbar + omega_raw(d1, d2, n, tau))`` over integer letter
    arrays stacked [letter, ...], given as their :func:`_distinct_letters`,
    evaluated once per distinct unreduced letter (and per entry of an
    array of ``hbar``, whose axes come first), and gathered one letter at
    a time as the returned iterator is read.

    The letters stay unreduced, because the first Eisenstein function is
    only quasi-periodic.  A kernel entry does not depend on its batch, so
    the gathered values equal a direct call bit for bit.
    """
    c1, c2, inverse = letters
    at = np.asarray(hbar)[..., None] + omega_raw(c1, c2, n, ctx.tau)
    values = kernel(at, ctx)
    return (values[..., i] for i in inverse)


def _distinct_letters(d1, d2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct integer letters (c1, c2) among the letters (d1, d2),
    and the position of each letter among them.

    The letters are small integer pairs that repeat across words and label
    pairs, so a flag table over their bounding box finds the distinct ones
    far faster than deduplicating complex arguments.
    """
    lo1, lo2 = d1.min(initial=0), d2.min(initial=0)
    width = d2.max(initial=0) - lo2 + 1
    key = (d1 - lo1) * width + (d2 - lo2)
    seen = np.zeros((d1.max(initial=0) - lo1 + 1) * width, dtype=bool)
    seen[key] = True
    c1, c2 = np.divmod(np.flatnonzero(seen), width)
    return c1 + lo1, c2 + lo2, (np.cumsum(seen) - 1)[key]


def _letters(pairs: tuple, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Unreduced integer indices (d1, d2) of both letters of every word,
    ``(alpha - gamma, beta + gamma)``, each stacked ``[letter, pair, gamma]``."""
    g1, g2 = characteristics(n)
    a1, a2, b1, b2 = (v[:, None] for v in pairs)
    d1 = np.stack(np.broadcast_arrays(a1 - g1, b1 + g1))
    d2 = np.stack(np.broadcast_arrays(a2 - g2, b2 + g2))
    return d1, d2


def sklyanin_coeffs(pairs: tuple, n: int, hbar, ctx: EllipticContext):
    """Bare structure constants of the exchange relations labelled by the
    pairs (a1, a2, b1, b2), integer arrays of canonical characteristics, as
    a :class:`SklyaninTable` with one row per pair.

    For nonzero beta each gamma weighs in with a commutation phase times a
    four-term combination of first Eisenstein values at hbar-shifted
    lattice fractions; for beta == 0 the combination is a difference of two
    second Eisenstein values.  The fractions follow the unreduced integer
    arithmetic of the word: the first Eisenstein function is only
    quasi-periodic, so representatives matter.  n == 1 has no relations and
    yields an empty table.  An array of ``hbar`` gives one table per entry.
    """
    if n == 1:
        shape = np.shape(hbar) + pairs[0].shape
        return SklyaninTable(n, pairs, np.zeros(shape + (0,), dtype=complex), np.zeros(shape))
    return SklyaninTable(n, pairs, *bare_constants(pairs, hbar, n, ctx))


def sklyanin_coeffs_eta(base: SklyaninTable, eta, hbar, ctx: EllipticContext) -> SklyaninTable:
    """Structure constants in the theta-rescaled, parameter-shifted form,
    from the bare relations ``base`` at the same ``hbar``.

    Each bare coefficient picks up two theta factors at the hbar-shifted
    fractions of its own word, and each relation carries a single global
    phase in ``eta - hbar`` (the per-word phases collapse because the
    words all share the integer column sum ``alpha + beta``).  At
    ``eta == hbar`` only the rescaling remains.  Arrays of ``eta`` and
    ``hbar`` go with a table built at that ``hbar``.  An ``eta`` may have
    axes of its own after those of ``hbar`` (one eta per coordinate pair,
    say): the table then holds one table per entry of ``eta``, with those
    axes in front of the pairs' in ``values`` and as unit axes in
    ``scale``.
    """
    if base.n == 1:
        return base
    pairs = base.pairs
    pref = theta_prefactors(pairs, hbar, base.n, ctx)
    # eta's own axes, which stand between hbar's and the pairs'
    own = tuple(range(np.ndim(hbar), np.ndim(eta)))
    shift = eta - _with_axes(hbar, len(own))
    phase = np.exp(-TWO_PI_I * (pairs[1] + pairs[3]) * _with_axes(shift, 1) / base.n)
    rescaled = base.values * pref
    values = np.expand_dims(rescaled, own) * phase[..., None]
    scale = base.scale * np.abs(pref).max(axis=-1)
    return SklyaninTable(base.n, pairs, values, np.expand_dims(scale, own))


def sklyanin_representation_residual(
    rel: SklyaninTable,
    ctx: EllipticContext,
    *,
    shift: tuple | None = None,
) -> np.ndarray:
    """Normalized norm of the relations evaluated in the basis representation,
    one entry per row of the table.

    A generator with integer index d acts as the basis element ``T(-d)``;
    given ``shift = (hbar, eta)`` it is divided by ``theta(hbar + omega_d)``
    and carries the shifted-parameter phase (1 at ``eta == hbar``).  By
    ``T(a) T(b) = kappa_raw(a, b) T(a + b)`` every word is a phase times
    the one unitary ``T(-(alpha + beta))`` of Frobenius norm ``sqrt(n)``,
    so no matrix is formed.  The norm is divided by the sum of the term
    bounds or by the assembly scale, whichever is larger, so both a clean
    annihilation and an identically-cancelled relation come out at roughly
    machine epsilon.  Empty relations give 0.  A table of several trials
    takes arrays of ``shift``, one entry per trial, and gives one row of
    residuals per trial.
    """
    n, values = rel.n, rel.values
    if not values.size:
        return np.zeros(values.shape[:-1])
    d1, d2 = _letters(rel.pairs, n)
    # named, so that numpy never multiplies in place into a temporary,
    # which swaps the operands at chunks of 256 KiB (see bare_constants)
    phases = kappa_raw((-d1[0], -d2[0]), (-d1[1], -d2[1]), n)
    terms = values * phases
    bounds = np.abs(values)
    if shift is not None:
        hbar, eta = shift
        guard_denominator(
            "hbar + omega_d", _with_axes(hbar, 3) + omega_raw(d1, d2, n, ctx.tau), ctx.tau
        )
        thetas = _at_letters(theta, _distinct_letters(d1, d2), hbar, n, ctx)
        factors = []
        for d in d2:
            # in place, so that each letter's factors take one array
            f = TWO_PI_I * d * _with_axes(eta - hbar, 2)
            f /= n
            np.exp(f, out=f)
            f /= next(thetas)
            factors.append(f)
        first, second = factors
        bounds *= np.abs(first) * np.abs(second)
        first *= second
        terms *= first
    num = np.sqrt(n) * np.abs(terms.sum(axis=-1))
    den = np.maximum(n * bounds.sum(axis=-1), rel.scale)
    return np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)


def _with_axes(values, depth: int) -> np.ndarray:
    """``values`` (a scalar, or one entry per trial) with ``depth`` unit
    axes after its own, to broadcast against a trial's arrays."""
    return np.asarray(values).reshape(np.shape(values) + (1,) * depth)


def label_pair_chunks(n: int, per_pair: int) -> Iterator[tuple[np.ndarray, ...]]:
    """All ``n^4`` label pairs (alpha outer, beta inner, both in the order
    of :func:`characteristics`) as chunks of (a1, a2, b1, b2) integer arrays.

    A chunk holds at most ``_CHUNK`` array entries, ``per_pair`` for each
    of its pairs, and at least one pair.
    """
    size = max(1, _CHUNK // per_pair)
    for start in range(0, n**4, size):
        alpha, beta = np.divmod(np.arange(start, min(start + size, n**4)), n * n)
        yield (*np.divmod(alpha, n), *np.divmod(beta, n))
