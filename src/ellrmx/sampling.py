"""Deterministic pole-avoiding parameter sampling for the verifier checks.

Each check's row in ``ellrmx.checks._RUNNERS`` declares the denominator
expressions its evaluations will meet (``Runner.spec`` builds them into a
:class:`SampleSpec`); the sampler rejection-draws until every expression
keeps a safe lattice distance.  Draws are uniform on the cell
[0,1) + [0.1,0.9) tau and fully determined by the seed: NumPy's
PCG64/``SeedSequence`` stream, computed here bit-identical to
``default_rng`` and without NumPy's random module.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from operator import index
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .elliptic import DELTA_MIN, EllipticContext, lattice_distance
from .rmatrix import DynamicalParams

MAX_REJECTIONS = 10_000
# NumPy's default_rng stream, which _doubles computes bit for bit.
GENERATOR_NAME = "numpy-pcg64"
MASK32, MASK64, MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# Yields (expression, scale) pairs; the sample must keep scale*expression
# at lattice distance >= scale*DELTA_MIN.  Scale n means the expression is
# used with every characteristic offset omega_alpha, i.e. it must avoid
# the n-times-refined lattice; scale 1 is a plain theta denominator.
ExpressionFn = Callable[
    [DynamicalParams, tuple[complex, ...]], Iterable[tuple[complex, int]]
]


class SamplingError(RuntimeError):
    """Rejection sampling hit its cap; the constraint set is infeasible."""


@dataclass(frozen=True)
class SampleSpec:
    """Shape of one trial's draw plus its pole-freeness constraints.

    ``hbar`` fixes the Planck parameter (None draws it); ``expressions``
    generates the constrained denominator expressions for a candidate.
    A check's spec comes from its row of ``ellrmx.checks._RUNNERS``
    (``Runner.spec``).
    """

    m: int = 1
    two_sets: bool = False
    z_count: int = 0
    hbar: complex | None = None
    expressions: ExpressionFn | None = None


def _words(seed: int | Sequence[int]) -> list[int]:
    """A seed as little-endian uint32 words, as ``SeedSequence`` coerces it."""
    if isinstance(seed, (list, tuple)):
        return [w for part in seed for w in _words(part)]
    if (n := index(seed)) < 0:
        raise ValueError(f"seed must be non-negative, got {n}")
    return [n >> k & MASK32 for k in range(0, max(n.bit_length(), 1), 32)]


def _hasher(const: int, mult: int) -> Callable[[int], int]:
    """``SeedSequence``'s word hash, its constant running on across calls."""
    def hashmix(value: int) -> int:
        nonlocal const
        const, value = const * mult & MASK32, value ^ const
        value = value * const & MASK32
        return value ^ value >> 16
    return hashmix


def _doubles(seed: int | Sequence[int]) -> Iterator[float]:
    """``default_rng(seed).random()``: ``SeedSequence`` hashes the seed into
    a 4-word pool that gives PCG64 its state; XSL-RR output, top 53 bits."""
    entropy, hashmix = _words(seed), _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(w) for w in (entropy + [0, 0, 0, 0])[:4]]
    # Mix the pool words into each other, then each entropy word past the 4th.
    for src, dst in [*permutations(range(4), 2), *product(range(4, len(entropy)), range(4))]:
        value = hashmix(pool[src] if src < 4 else entropy[src])
        r = (0xCA01F9DD * pool[dst] - 0x4973F715 * value) & MASK32
        pool[dst] = r ^ r >> 16
    w = list(map(_hasher(0x8B51F9DD, 0x58F38DED), pool * 2))
    # generate_state(4, uint64) as 128-bit (state, stream), high word first
    init, seq = (w[i] << 64 | w[i + 1] << 96 | w[i + 2] | w[i + 3] << 32 for i in (0, 4))
    inc = (seq << 1 | 1) & MASK128
    state = ((inc + init) * PCG_MULT + inc) & MASK128
    while True:
        state = (state * PCG_MULT + inc) & MASK128
        word, rot = (state >> 64 ^ state) & MASK64, state >> 122
        word = (word >> rot | word << 64 - rot) & MASK64
        yield (word >> 11) * 2.0**-53


def _draw(rng: Iterator[float], tau: complex) -> complex:
    """``uniform(0, 1) + uniform(0.1, 0.9) tau``, ``Generator.uniform``'s arithmetic."""
    return complex(next(rng)) + complex(0.1 + (0.9 - 0.1) * next(rng)) * tau


def admissible(
    spec: SampleSpec,
    params: DynamicalParams,
    zs: tuple[complex, ...],
    ctx: EllipticContext,
) -> bool:
    """Whether every constrained expression clears the safety distance."""
    if spec.expressions is None:
        return True
    pairs = list(spec.expressions(params, zs))
    scaled = np.array([scale * expr for expr, scale in pairs], dtype=complex)
    floor = np.array([scale * DELTA_MIN for _, scale in pairs])
    return not np.any(lattice_distance(scaled, ctx.tau) < floor)


def sample_params(
    seed: int | Sequence[int], spec: SampleSpec, ctx: EllipticContext
) -> tuple[DynamicalParams, tuple[complex, ...]]:
    """Draw a constraint-satisfying parameter set, deterministically in seed.

    Raises :class:`SamplingError` once the rejection cap is reached, which
    signals an infeasible constraint set (for instance a fixed ``hbar``
    sitting on a pole).
    """
    rng = _doubles(seed)
    tau = ctx.tau
    for _ in range(MAX_REJECTIONS):
        hbar = spec.hbar if spec.hbar is not None else _draw(rng, tau)
        q1 = tuple(_draw(rng, tau) for _ in range(spec.m))
        q2 = tuple(_draw(rng, tau) for _ in range(spec.m)) if spec.two_sets else None
        zs = tuple(_draw(rng, tau) for _ in range(spec.z_count))
        params = DynamicalParams(q1, q2, hbar)
        if admissible(spec, params, zs, ctx):
            return params, zs
    fixed = f", or the fixed hbar={spec.hbar:g} lies near a pole" if spec.hbar is not None else ""
    raise SamplingError(
        f"no admissible sample after {MAX_REJECTIONS} rejections; "
        f"the constraint set is infeasible at this tau{fixed}"
    )


def within_diffs(block: Sequence[complex]) -> list[complex]:
    """Unordered coordinate differences inside one block."""
    return [
        block[i] - block[j]
        for i in range(len(block))
        for j in range(i + 1, len(block))
    ]


def shift_closed(
    values: Iterable[complex], hbar: complex, depth: int
) -> list[complex]:
    """Each value offset by every hbar multiple up to ``depth`` (both signs)."""
    return [v + k * hbar for v in values for k in range(-depth, depth + 1)]
