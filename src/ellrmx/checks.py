"""Check orchestration: seeded trials, residual aggregation, reports.

Each check, one row of ``_RUNNERS``, draws its own pole-free parameters
per trial, evaluates its identities, and aggregates residuals into a report.
Every check evaluates batches of trials together: one stacked build of a
batch's R-matrices (or relation families, kernels and letters, or defect
tables) and one stacked exchange contraction or span comparison.  No
trial's outcome depends on the others in its batch, to the bit.  Checks
are judged against a residual tolerance except for the span-level ones
(rll, tv-reduce), whose default tolerance is looser.
"""

from __future__ import annotations

import cmath
import json
import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .elliptic import (
    MIN_IM_TAU,
    EllipticContext,
    LatticeIndex,
    PoleProximityError,
    fay_coincident_residual,
    fay_pair_residual,
    fay_residual,
)
from .ncalgebra import (
    defect_factorization_check,
    defect_table,
    reference_terms,
    relation_vectors_reference,
    rll_defect,
    rll_trial_bytes,
    span_rank,
)
from .relations import tv_relations
from .rmatrix import (
    DynamicalParams,
    bb_l_operator_rll_residual,
    dybe_residual_felder,
    dybe_residual_slnm,
    felder_dynamical_l_residual,
    slnm_reduction_residual_m1,
    slnm_reduction_residual_n1,
    ybe_residual,
    zero_weight_residual,
)
from .sampling import (
    GENERATOR_NAME,
    SampleSpec,
    sample_params,
    shift_closed,
    within_diffs,
)
from .sklyanin import (
    label_pair_chunks,
    sklyanin_coeffs,
    sklyanin_coeffs_eta,
    sklyanin_representation_residual,
)
from .spans import span_bound

DEFAULT_TAU = 0.3 + 0.8j
DEFAULT_TRIALS = 20
DEFAULT_SEED = 42
RESIDUAL_TOL = 1e-9
SPAN_TOL = 1e-8
MAX_SITES = 12
RLL_MEMORY = 1 << 30


class ConfigError(ValueError):
    """Invalid check configuration (rejected before any sampling)."""


@dataclass(frozen=True)
class CheckConfig:
    """One check request: sizes, modulus, sampling, and judgment settings.

    ``hbar`` is None for per-trial random draws; ``tol`` is None for the
    per-check default (1e-9 for residual checks, 1e-8 for span checks).
    """

    check: str
    n: int = 2
    m: int = 2
    tau: complex = DEFAULT_TAU
    hbar: complex | None = None
    trials: int = DEFAULT_TRIALS
    seed: int = DEFAULT_SEED
    tol: float | None = None

    def validate(self) -> None:
        if self.check not in CHECK_NAMES and self.check != "all":
            raise ConfigError(f"unknown check {self.check!r}")
        if self.n < 1 or self.m < 1:
            raise ConfigError("n and m must be positive")
        # one check is guarded at the sizes it runs at, not at those it pins
        eff = self if self.check == "all" else _effective_config(self, self.check)
        if eff.n * eff.m > MAX_SITES:
            raise ConfigError(f"n*m = {eff.n * eff.m} exceeds the desk-scale bound {MAX_SITES}")
        need = rll_trial_bytes(eff.n, eff.m)
        if self.check in ("rll", "all") and need > RLL_MEMORY:
            raise ConfigError(
                f"an rll trial at n={eff.n} m={eff.m} would take about"
                f" {need / 2**30:.1f} GB, over the {RLL_MEMORY / 2**30:.0f} GB bound"
            )
        if not cmath.isfinite(self.tau):
            raise ConfigError(f"tau = {self.tau} is not finite")
        if self.hbar is not None and not cmath.isfinite(self.hbar):
            raise ConfigError(f"hbar = {self.hbar} is not finite")
        if self.tau.imag < MIN_IM_TAU:
            raise ConfigError(
                f"Im tau = {self.tau.imag} below the convergence floor {MIN_IM_TAU}"
            )
        if self.trials < 1:
            raise ConfigError("at least one trial required")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed = {self.seed} is outside [0, 2**64)")
        if self.tol is not None and not 0 < self.tol < math.inf:
            raise ConfigError(f"tolerance = {self.tol} is not finite and positive")

    def effective_tol(self, check: str) -> float:
        if self.tol is not None:
            return self.tol
        return _RUNNERS[check].tol


@dataclass(frozen=True)
class CheckReport:
    """Aggregated outcome of one named check."""

    check: str
    n: int
    m: int
    tol: float
    residuals: tuple[float | None, ...]
    rank: int | None
    runtime_ms: float

    @property
    def finite(self) -> list[float]:
        return [r for r in self.residuals if r is not None]

    @property
    def max_residual(self) -> float | None:
        vals = self.finite
        return max(vals) if vals else None

    @property
    def mean_residual(self) -> float | None:
        vals = self.finite
        return sum(vals) / len(vals) if vals else None

    @property
    def passed(self) -> bool:
        if len(self.finite) != len(self.residuals):
            return False
        return bool(self.max_residual is not None and self.max_residual < self.tol)


@dataclass(frozen=True)
class RunReport:
    """Outcome of a run: one report per executed check plus the config."""

    config: CheckConfig
    reports: tuple[CheckReport, ...]
    runtime_ms: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)


def _flat_rank(n: int, m: int) -> int:
    g = m * m * n * n
    return g * (g - 1) // 2


def _trial_seed(seed: int, check: str, trial: int) -> list[int]:
    return [seed, CHECK_NAMES.index(check), trial]


# Per-check runners.  A runner maps a batch of draws to one
# (residual, rank-or-None) pair per draw; it evaluates the batch's trials
# together, handing the residual functions one entry per trial.  Its row
# in ``_RUNNERS`` declares the draw and the denominators the evaluations
# will touch.

Draw = tuple[DynamicalParams, tuple[complex, ...]]


def _columns(draws: list[Draw]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The draws' hbar (one per trial), points (one row per point, one
    column per trial) and first coordinate vectors (one row per trial)."""
    return (
        np.array([params.hbar for params, _ in draws]),
        np.array([zs for _, zs in draws]).T,
        np.array([params.q1 for params, _ in draws]),
    )


def _residuals(*per_trial: np.ndarray) -> list[tuple[float, None]]:
    """The largest of each trial's residuals, as rankless outcomes."""
    return [(float(v), None) for v in np.maximum.reduce(per_trial)]


def _ybe_run(cfg: CheckConfig, draws: list[Draw], ctx: EllipticContext) -> list:
    hbar, (z1, z2, z3), _ = _columns(draws)
    return _residuals(
        ybe_residual(hbar, z1, z2, z3, cfg.n, ctx),
        bb_l_operator_rll_residual(hbar, z1, z2, cfg.n, ctx),
    )


def _felder_run(cfg: CheckConfig, draws: list[Draw], ctx: EllipticContext) -> list:
    hbar, (z1, z2, z3), q = _columns(draws)
    return _residuals(
        dybe_residual_felder(hbar, z1, z2, z3, q, ctx),
        zero_weight_residual(hbar, z1 - z2, q, ctx),
        felder_dynamical_l_residual(hbar, z1, z2, q, ctx),
    )


def _slnm_run(cfg: CheckConfig, draws: list[Draw], ctx: EllipticContext) -> list:
    hbar, (z1, z2, z3), q = _columns(draws)
    return _residuals(dybe_residual_slnm(hbar, z1, z2, z3, q, cfg.n, ctx))


def _factor_labels(n: int) -> tuple[LatticeIndex, LatticeIndex]:
    a2 = 1 if n > 1 else 0
    return LatticeIndex(0, a2, n), LatticeIndex(0, a2, n)


def _rll_prefactor_poles(params: DynamicalParams, zs: tuple[complex, ...]) -> Iterator:
    """Theta prefactors of the factorization component (i,j,k)=(1,1,2),
    which the rll runner evaluates when m >= 2."""
    q1, q2 = params.q1, params.q2
    if len(q1) < 2:
        return
    for za, zb in (zs[:2], zs[2:]):
        yield zb + q2[0] - q1[1]
        yield za + q2[0] - q1[0] + params.hbar


def _rll_run(cfg: CheckConfig, draws: list[Draw], ctx: EllipticContext) -> list:
    n, m = cfg.n, cfg.m
    batch = [params for params, _ in draws]
    # two tables a trial, at (z1, z2) and (z3, z4), from one gather
    tables = defect_table(
        n, m, [p for p in batch for _ in (0, 1)],
        [zs[k] for _, zs in draws for k in (0, 2)],
        [zs[k] for _, zs in draws for k in (1, 3)], ctx,
    )
    defects = rll_defect(tables)
    variations = [0.0] * len(draws)
    if m >= 2:
        alpha, beta = _factor_labels(n)
        variations = [
            defect_factorization_check(tables[t : t + 2], 1, 1, 2, alpha, beta, ctx)
            for t in range(0, len(tables), 2)
        ]
    # the sets own their terms: no table is held through the span
    # comparisons, nor through the reference build
    del tables
    references = relation_vectors_reference(n, m, batch, ctx)
    # b(D) = ||(I - P_R) D^H||_F / sigma_r(D conj(Q_R)) bounds the gap of defect set D to
    # R (1.0 if that rank r is not R's), b(D1) + b(D2) that of D1 to D2; a trial reports D1's r
    bounds = span_bound(defects, [r for r in references for _ in (0, 1)])
    return [
        (max(bounds[t][0] + bounds[t + 1][0], variations[t // 2]), bounds[t][1])
        for t in range(0, len(bounds), 2)
    ]


def _relations_run(
    cfg: CheckConfig, draws: list[Draw], ctx: EllipticContext
) -> list[tuple[float, int]]:
    sets = relation_vectors_reference(cfg.n, cfg.m, [params for params, _ in draws], ctx)
    flat = _flat_rank(cfg.n, cfg.m)
    return [(float(abs(rank - flat)), rank) for rank in span_rank(sets)]


def _fay_run(cfg: CheckConfig, draws: list[Draw], ctx: EllipticContext) -> list:
    _, (z, w, x, y), _ = _columns(draws)
    return _residuals(
        fay_residual(z, w, x, y, ctx),
        fay_coincident_residual(z, x, y, ctx),
        fay_pair_residual(z, x, ctx),
    )


def _sklyanin_run(cfg: CheckConfig, draws: list[Draw], ctx: EllipticContext) -> list:
    hbar, (eta,), _ = _columns(draws)
    worst = []
    for pairs in label_pair_chunks(cfg.n, _letter_terms(cfg.n) * len(draws)):
        # the bare table is dropped once the shifted one is built from it
        table = sklyanin_coeffs(pairs, cfg.n, hbar, ctx)
        worst.append(sklyanin_representation_residual(table, ctx).max(axis=-1))
        table = sklyanin_coeffs_eta(table, eta, hbar, ctx)
        worst.append(sklyanin_representation_residual(table, ctx, shift=(hbar, eta)).max(axis=-1))
    return _residuals(*worst)


def _letter_terms(n: int) -> int:
    """Array entries of one label pair: the bare constants stack four
    Eisenstein letters over n^2 gammas."""
    return 4 * n**2


def _tv_run(
    cfg: CheckConfig, draws: list[Draw], ctx: EllipticContext
) -> list[tuple[float, int]]:
    batch = [params for params, _ in draws]
    q1, hbar = [p.q1 for p in batch], [p.hbar for p in batch]
    families = relation_vectors_reference(1, cfg.m, batch, ctx)
    tv = tv_relations(cfg.m, q1, [p.q2 for p in batch], hbar, ctx)
    reductions = slnm_reduction_residual_n1(hbar, [zs[0] for _, zs in draws], q1, ctx)
    # b(TV) bounds the gap of the TV set to the families, as in rll; the
    # families' rank is then read from the SVDs that gave their bases
    bounds = span_bound(tv, families)
    return [
        (max(bound, float(reduction)), rank)
        for (bound, _), rank, reduction in zip(bounds, span_rank(families), reductions)
    ]


def _bb_run(cfg: CheckConfig, draws: list[Draw], ctx: EllipticContext) -> list:
    hbar, (u,), q = _columns(draws)
    return _residuals(slnm_reduction_residual_m1(hbar, u, q[:, 0], cfg.n, ctx))


RunFn = Callable[[CheckConfig, list[Draw], EllipticContext], list[tuple[float, int | None]]]


class Runner(NamedTuple):
    """One check: its draw, where its poles are, how it evaluates a batch
    and how it is judged.

    ``run`` maps a list of draws to their (residual, rank-or-None)
    outcomes, in order, evaluating them together.  ``trial_terms`` sizes
    one trial's largest array (see :func:`batch_size`): the relation terms
    of a family build, the entries of an R-matrix stack, the
    Eisenstein letters of the Sklyanin constants, or the terms of the two
    defect tables of an rll trial.

    A draw holds ``points`` spectral points and one block of coordinates
    (two if ``two_sets``), of the configured m if ``dynamical``, else of
    one.  ``poles`` maps the points to the expressions the evaluations
    divide by, and :meth:`spec` adds hbar and the coordinate differences.
    ``tol`` is the default tolerance; ``pin`` fixes the modulus a
    reduction check reduces along.
    """

    run: RunFn
    trial_terms: Callable[[CheckConfig], int]
    points: int = 0
    poles: Callable[..., Iterable[complex]] = lambda *zs: ()
    dynamical: bool = True
    two_sets: bool = False
    refined: bool = True
    depth: int | None = 0
    prefactor_poles: Callable[..., Iterable[complex]] = lambda params, zs: ()
    tol: float = RESIDUAL_TOL
    pin: dict[str, int] = {}

    def spec(self, cfg: CheckConfig) -> SampleSpec:
        """The draw and its one pole rule: hbar and every within-block
        coordinate difference, shifted by up to ``depth`` hbar, at the
        check's scale (n if ``refined``: the evaluations meet every
        characteristic offset; else 1), then the prefactor poles at that
        scale and the point expressions at scale 1.  A ``depth`` of None
        leaves hbar unconstrained: the check draws it but never reads it.
        """
        scale = cfg.n if self.refined else 1
        m = cfg.m if self.dynamical else 1
        # the blocks that have coordinate differences: none at m = 1
        blocks = 1 + self.two_sets if m > 1 else 0

        def exprs(params: DynamicalParams, zs: tuple[complex, ...]) -> Iterator:
            if self.depth is not None:
                yield params.hbar, scale
                for block in (params.q1, params.q2)[:blocks]:
                    for v in shift_closed(within_diffs(block), params.hbar, self.depth):
                        yield v, scale
            for v in self.prefactor_poles(params, zs):
                yield v, scale
            for v in self.poles(*zs):
                yield v, 1

        return SampleSpec(m, self.two_sets, self.points, cfg.hbar, exprs)


def _exchange_poles(z1: complex, z2: complex, z3: complex) -> tuple[complex, ...]:
    return z1 - z2, z1 - z3, z2 - z3, z1, z2


# An exchange trial holds its R-matrix stack: three vertex matrices of n^4
# entries for ybe (two for bb-reduce), and for a dynamical check three
# pairs per identity, each at q and at its m shifts, of (mn)^4 entries on
# composite sites and m^4 for Felder's.  Their sector contraction is
# chunked apart, within ``rmatrix``'s own budget, so it does not size a
# batch.
# A Fay trial takes 17 kernel arguments.  An rll trial gathers two defect
# tables of about d^4 n^3 terms each (see ``rll_trial_bytes``).  Append a
# new check last: a check's position seeds its trials.
_RUNNERS: dict[str, Runner] = {
    "ybe": Runner(
        _ybe_run, lambda cfg: 3 * cfg.n**4,
        points=3, poles=_exchange_poles, dynamical=False,
    ),
    "dybe-felder": Runner(
        _felder_run, lambda cfg: 3 * (cfg.m + 1) * cfg.m**4,
        points=3, poles=_exchange_poles, refined=False, depth=1,
    ),
    "dybe-slnm": Runner(
        _slnm_run, lambda cfg: 3 * (cfg.m + 1) * (cfg.m * cfg.n) ** 4,
        points=3, poles=lambda z1, z2, z3: (z1 - z2, z1 - z3, z2 - z3), depth=1,
    ),
    "rll": Runner(
        _rll_run, lambda cfg: 2 * (cfg.n * cfg.m) ** 4 * cfg.n**3,
        points=4, poles=lambda z1, z2, z3, z4: (z1 - z2, z3 - z4), two_sets=True, depth=2,
        prefactor_poles=_rll_prefactor_poles, tol=SPAN_TOL,
    ),
    "relations": Runner(
        _relations_run, lambda cfg: reference_terms(cfg.n, cfg.m), two_sets=True
    ),
    "fay": Runner(
        _fay_run, lambda cfg: 17,
        points=4, poles=lambda z, w, x, y: (z, w, x, y, z - w, x + y, x + y + z),
        dynamical=False, depth=None,
    ),
    "sklyanin-rep": Runner(
        _sklyanin_run, lambda cfg: _letter_terms(cfg.n) * cfg.n**4, points=1, dynamical=False
    ),
    "tv-reduce": Runner(
        _tv_run, lambda cfg: reference_terms(cfg.n, cfg.m),
        points=1, poles=lambda u: (u,), two_sets=True, refined=False, depth=1,
        tol=SPAN_TOL, pin={"n": 1},
    ),
    "bb-reduce": Runner(
        _bb_run, lambda cfg: 2 * cfg.n**4,
        points=1, poles=lambda u: (u,), dynamical=False, pin={"m": 1},
    ),
}

CHECK_NAMES = tuple(_RUNNERS)

#: Array entries (relation terms, kernel products, letters: see
#: ``Runner.trial_terms``) that one batch of trials builds together; bounds
#: a batch's temporaries as ``label_pair_chunks`` bounds a chunk's.  A
#: trial larger than this runs alone.
_BATCH_TERMS = 1 << 16


def batch_size(cfg: CheckConfig, check: str) -> int:
    """Trials that one call of the check's runner takes, at the check's
    effective configuration."""
    return max(1, _BATCH_TERMS // max(1, _RUNNERS[check].trial_terms(cfg)))


def _outcomes(
    run: RunFn, cfg: CheckConfig, draws: list[Draw], ctx: EllipticContext
) -> list[tuple[float, int | None] | None]:
    """The runner's outcomes of a batch, None for a trial that raises
    :class:`PoleProximityError`.  A batch that raises is split in halves
    until the failing trials stand alone, so that the same trials fail as
    one at a time."""
    try:
        return run(cfg, draws, ctx)
    except PoleProximityError:
        if len(draws) == 1:
            return [None]
        half = len(draws) // 2
        return _outcomes(run, cfg, draws[:half], ctx) + _outcomes(run, cfg, draws[half:], ctx)


def _effective_config(cfg: CheckConfig, check: str) -> CheckConfig:
    """Reduction checks pin the modulus they reduce along."""
    return replace(cfg, **_RUNNERS[check].pin)


def run_single(cfg: CheckConfig, check: str, ctx: EllipticContext) -> CheckReport:
    """Execute one named check for the configured number of trials.

    Every trial is drawn from its own seeded stream; the runner then takes
    the draws in batches of :func:`batch_size`.
    """
    eff = _effective_config(cfg, check)
    runner = _RUNNERS[check]
    spec = runner.spec(eff)
    start = time.perf_counter()
    draws = [
        sample_params(_trial_seed(eff.seed, check, t), spec, ctx) for t in range(eff.trials)
    ]
    size = batch_size(eff, check)
    outcomes = []
    for at in range(0, len(draws), size):
        outcomes += _outcomes(runner.run, eff, draws[at : at + size], ctx)
    residuals: list[float | None] = []
    rank: int | None = None
    for outcome in outcomes:
        if outcome is None or not math.isfinite(outcome[0]):
            residuals.append(None)
            continue
        residual, trial_rank = outcome
        residuals.append(float(residual))
        if rank is None and trial_rank is not None:
            rank = int(trial_rank)
    runtime = (time.perf_counter() - start) * 1000.0
    return CheckReport(
        check=check,
        n=eff.n,
        m=eff.m,
        tol=cfg.effective_tol(check),
        residuals=tuple(residuals),
        rank=rank,
        runtime_ms=runtime,
    )


def run_check(cfg: CheckConfig) -> RunReport:
    """Execute the configured check (or every check for ``all``)."""
    cfg.validate()
    ctx = EllipticContext(cfg.tau)
    names = CHECK_NAMES if cfg.check == "all" else (cfg.check,)
    start = time.perf_counter()
    reports = tuple(run_single(cfg, name, ctx) for name in names)
    runtime = (time.perf_counter() - start) * 1000.0
    return RunReport(config=cfg, reports=reports, runtime_ms=runtime)


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def report_dict(rep: CheckReport) -> dict:
    """JSON-ready view of one check report.

    ``runtime_ms`` is recorded as null so files from identical seeds are
    byte-identical; the measured time goes to the console summary instead.
    """
    return {
        "check": rep.check,
        "n": rep.n,
        "m": rep.m,
        "tol": rep.tol,
        "residuals": list(rep.residuals),
        "max_residual": rep.max_residual,
        "mean_residual": rep.mean_residual,
        "rank": rep.rank,
        "pass": rep.passed,
        "runtime_ms": None,
    }


def run_dict(run: RunReport) -> dict:
    cfg = run.config
    return {
        "schema": "ellrmx-report/1",
        "check": cfg.check,
        "config": {
            "n": cfg.n,
            "m": cfg.m,
            "tau": _pair(cfg.tau),
            "hbar": "random" if cfg.hbar is None else _pair(cfg.hbar),
            "trials": cfg.trials,
            "seed": cfg.seed,
            "tol": cfg.tol,
        },
        "generator": GENERATOR_NAME,
        "checks": [report_dict(rep) for rep in run.reports],
        "pass": run.passed,
        "runtime_ms": None,
        "seed": cfg.seed,
    }


def render_json(run: RunReport) -> str:
    """Canonical serialization: sorted keys, fixed separators, one newline."""
    return json.dumps(run_dict(run), sort_keys=True, separators=(",", ":")) + "\n"
