"""Deterministic pole-avoiding parameter sampling for the verifier checks.

Each check declares the denominator expressions its evaluations will meet;
the sampler rejection-draws until every expression keeps a safe lattice
distance.  Draws are uniform on the cell [0,1) + [0.1,0.9) tau and fully
determined by the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .elliptic import DELTA_MIN, EllipticContext, lattice_distance
from .rmatrix import DynamicalParams

MAX_REJECTIONS = 10_000
GENERATOR_NAME = "numpy-pcg64"

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
    """

    m: int = 1
    two_sets: bool = False
    z_count: int = 0
    hbar: complex | None = None
    expressions: ExpressionFn | None = None


def _draw(rng: np.random.Generator, tau: complex) -> complex:
    return complex(rng.uniform(0.0, 1.0)) + complex(rng.uniform(0.1, 0.9)) * tau


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
    rng = np.random.default_rng(seed)
    tau = ctx.tau
    for _ in range(MAX_REJECTIONS):
        hbar = spec.hbar if spec.hbar is not None else _draw(rng, tau)
        q1 = tuple(_draw(rng, tau) for _ in range(spec.m))
        q2 = tuple(_draw(rng, tau) for _ in range(spec.m)) if spec.two_sets else None
        zs = tuple(_draw(rng, tau) for _ in range(spec.z_count))
        params = DynamicalParams(q1, q2, hbar)
        if admissible(spec, params, zs, ctx):
            return params, zs
    raise SamplingError(
        f"no admissible sample after {MAX_REJECTIONS} rejections; "
        "the constraint set is infeasible at this tau"
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
