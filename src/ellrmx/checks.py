"""Check orchestration: seeded trials, residual aggregation, reports.

Each named check draws its own pole-free parameters per trial, evaluates
the corresponding identities, and aggregates residuals into a report.
Checks are judged against a residual tolerance except for the span-level
ones (rll, tv-reduce), whose default tolerance is looser.
"""

from __future__ import annotations

import cmath
import json
import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterator

from .elliptic import (
    EllipticContext,
    LatticeIndex,
    PoleProximityError,
    all_indices,
    fay_coincident_residual,
    fay_pair_residual,
    fay_residual,
)
from .ncalgebra import (
    LConvention,
    RelationSet,
    defect_factorization_check,
    relation_vectors_reference,
    rll_defect,
    span_equal,
    span_gap,
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
    sklyanin_coeffs,
    sklyanin_coeffs_eta,
    sklyanin_representation_residual,
)

CHECK_NAMES = (
    "ybe",
    "dybe-felder",
    "dybe-slnm",
    "rll",
    "relations",
    "fay",
    "sklyanin-rep",
    "tv-reduce",
    "bb-reduce",
)

SPAN_CHECKS = frozenset({"rll", "tv-reduce"})

DEFAULT_TAU = 0.3 + 0.8j
DEFAULT_TRIALS = 20
DEFAULT_SEED = 42
RESIDUAL_TOL = 1e-9
SPAN_TOL = 1e-8
MAX_SITES = 12
MIN_IM_TAU = 0.3


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
    l_exp_factor: bool = True
    out: str | None = None

    def validate(self) -> None:
        if self.check not in CHECK_NAMES and self.check != "all":
            raise ConfigError(f"unknown check {self.check!r}")
        if self.n < 1 or self.m < 1:
            raise ConfigError("n and m must be positive")
        if self.n * self.m > MAX_SITES:
            raise ConfigError(
                f"n*m = {self.n * self.m} exceeds the desk-scale bound {MAX_SITES}"
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
        if self.tol is not None and not self.tol > 0:
            raise ConfigError("tolerance must be positive")

    def effective_tol(self, check: str) -> float:
        if self.tol is not None:
            return self.tol
        return SPAN_TOL if check in SPAN_CHECKS else RESIDUAL_TOL


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
    return [seed & 0xFFFFFFFFFFFFFFFF, CHECK_NAMES.index(check), trial]


# Per-check trial runners.  Each returns (residual, rank-or-None); the
# sample spec declares the denominators the evaluations will touch.


def _ybe_spec(cfg: CheckConfig) -> SampleSpec:
    n = cfg.n

    def exprs(params: DynamicalParams, zs: tuple[complex, ...]) -> Iterator:
        yield params.hbar, n
        z1, z2, z3 = zs
        for v in (z1 - z2, z1 - z3, z2 - z3, z1, z2):
            yield v, 1

    return SampleSpec(m=1, z_count=3, hbar=cfg.hbar, expressions=exprs)


def _ybe_trial(
    cfg: CheckConfig, params: DynamicalParams, zs: tuple[complex, ...],
    ctx: EllipticContext,
) -> tuple[float, None]:
    z1, z2, z3 = zs
    triple = ybe_residual(params.hbar, z1, z2, z3, cfg.n, ctx)
    as_l = bb_l_operator_rll_residual(params.hbar, z1, z2, cfg.n, ctx)
    return max(triple.residual, as_l.residual), None


def _felder_spec(cfg: CheckConfig) -> SampleSpec:
    def exprs(params: DynamicalParams, zs: tuple[complex, ...]) -> Iterator:
        yield params.hbar, 1
        for v in shift_closed(within_diffs(params.q1), params.hbar, 1):
            yield v, 1
        z1, z2, z3 = zs
        for v in (z1 - z2, z1 - z3, z2 - z3, z1, z2):
            yield v, 1

    return SampleSpec(m=cfg.m, z_count=3, hbar=cfg.hbar, expressions=exprs)


def _felder_trial(
    cfg: CheckConfig, params: DynamicalParams, zs: tuple[complex, ...],
    ctx: EllipticContext,
) -> tuple[float, None]:
    z1, z2, z3 = zs
    hbar, q = params.hbar, params.q1
    triple = dybe_residual_felder(hbar, z1, z2, z3, q, ctx)
    weight = zero_weight_residual(hbar, z1 - z2, q, ctx)
    own_l = felder_dynamical_l_residual(hbar, z1, z2, q, ctx)
    return max(triple.residual, weight, own_l.residual), None


def _slnm_spec(cfg: CheckConfig) -> SampleSpec:
    n = cfg.n

    def exprs(params: DynamicalParams, zs: tuple[complex, ...]) -> Iterator:
        yield params.hbar, n
        for v in shift_closed(within_diffs(params.q1), params.hbar, 1):
            yield v, n
        z1, z2, z3 = zs
        for v in (z1 - z2, z1 - z3, z2 - z3):
            yield v, 1

    return SampleSpec(m=cfg.m, z_count=3, hbar=cfg.hbar, expressions=exprs)


def _slnm_trial(
    cfg: CheckConfig, params: DynamicalParams, zs: tuple[complex, ...],
    ctx: EllipticContext,
) -> tuple[float, None]:
    z1, z2, z3 = zs
    check = dybe_residual_slnm(params.hbar, z1, z2, z3, params.q1, cfg.n, ctx)
    return check.residual, None


def _factor_labels(n: int) -> tuple[LatticeIndex, LatticeIndex]:
    a2 = 1 if n > 1 else 0
    return LatticeIndex(0, a2, n), LatticeIndex(0, a2, n)


def _rll_spec(cfg: CheckConfig) -> SampleSpec:
    n, m = cfg.n, cfg.m

    def exprs(params: DynamicalParams, zs: tuple[complex, ...]) -> Iterator:
        hbar = params.hbar
        yield hbar, n
        for block in (params.q1, params.q2):
            for v in shift_closed(within_diffs(block), hbar, 2):
                yield v, n
        z1, z2, z3, z4 = zs
        yield z1 - z2, 1
        yield z3 - z4, 1
        if m >= 2:
            # theta prefactors of the factorization component (i,j,k)=(1,1,2)
            for za, zb in ((z1, z2), (z3, z4)):
                yield zb + params.q2[0] - params.q1[1], n
                yield za + params.q2[0] - params.q1[0] + hbar, n

    return SampleSpec(m=m, two_sets=True, z_count=4, hbar=cfg.hbar, expressions=exprs)


def _rll_trial(
    cfg: CheckConfig, params: DynamicalParams, zs: tuple[complex, ...],
    ctx: EllipticContext,
) -> tuple[float, int]:
    n, m = cfg.n, cfg.m
    conv = LConvention(exp_factor=cfg.l_exp_factor)
    z1, z2, z3, z4 = zs
    reference = relation_vectors_reference(n, m, params, ctx)
    first = rll_defect(n, m, params, z1, z2, conv, ctx)
    second = rll_defect(n, m, params, z3, z4, conv, ctx)
    if not reference and not first and not second:
        return 0.0, 0
    if not reference or not first or not second:
        return 1.0, span_rank(first) if first else 0
    worst = max(
        span_equal(first, reference, SPAN_TOL)[1],
        span_equal(second, reference, SPAN_TOL)[1],
        span_gap(first, second),
    )
    if m >= 2:
        alpha, beta = _factor_labels(n)
        variation = defect_factorization_check(
            1, 1, 2, alpha, beta, params, [(z1, z2), (z3, z4)], conv, ctx
        )
        worst = max(worst, variation)
    return worst, span_rank(first)


def _relations_spec(cfg: CheckConfig) -> SampleSpec:
    n = cfg.n

    def exprs(params: DynamicalParams, zs: tuple[complex, ...]) -> Iterator:
        yield params.hbar, n
        for block in (params.q1, params.q2):
            for v in within_diffs(block):
                yield v, n

    return SampleSpec(m=cfg.m, two_sets=True, hbar=cfg.hbar, expressions=exprs)


def _relations_trial(
    cfg: CheckConfig, params: DynamicalParams, zs: tuple[complex, ...],
    ctx: EllipticContext,
) -> tuple[float, int]:
    vectors = relation_vectors_reference(cfg.n, cfg.m, params, ctx)
    rank = span_rank(vectors) if vectors else 0
    return float(abs(rank - _flat_rank(cfg.n, cfg.m))), rank


def _fay_spec(cfg: CheckConfig) -> SampleSpec:
    def exprs(params: DynamicalParams, zs: tuple[complex, ...]) -> Iterator:
        z, w, x, y = zs
        for v in (z, w, x, y, z - w, x + y, x + y + z):
            yield v, 1

    return SampleSpec(m=1, z_count=4, hbar=cfg.hbar, expressions=exprs)


def _fay_trial(
    cfg: CheckConfig, params: DynamicalParams, zs: tuple[complex, ...],
    ctx: EllipticContext,
) -> tuple[float, None]:
    z, w, x, y = zs
    worst = max(
        fay_residual(z, w, x, y, ctx),
        fay_coincident_residual(z, x, y, ctx),
        fay_pair_residual(z, x, ctx),
    )
    return worst, None


def _sklyanin_spec(cfg: CheckConfig) -> SampleSpec:
    n = cfg.n

    def exprs(params: DynamicalParams, zs: tuple[complex, ...]) -> Iterator:
        yield params.hbar, n

    return SampleSpec(m=1, z_count=1, hbar=cfg.hbar, expressions=exprs)


def _sklyanin_trial(
    cfg: CheckConfig, params: DynamicalParams, zs: tuple[complex, ...],
    ctx: EllipticContext,
) -> tuple[float, None]:
    hbar = params.hbar
    eta = zs[0]
    worst = 0.0
    for alpha in all_indices(cfg.n):
        for beta in all_indices(cfg.n):
            basic = sklyanin_coeffs(alpha, beta, hbar, ctx)
            worst = max(worst, sklyanin_representation_residual(basic, ctx))
            shifted = sklyanin_coeffs_eta(basic, eta, hbar, ctx)
            worst = max(
                worst,
                sklyanin_representation_residual(shifted, ctx, hbar=hbar, eta=eta),
            )
    return worst, None


def _tv_spec(cfg: CheckConfig) -> SampleSpec:
    def exprs(params: DynamicalParams, zs: tuple[complex, ...]) -> Iterator:
        yield params.hbar, 1
        for block in (params.q1, params.q2):
            for v in shift_closed(within_diffs(block), params.hbar, 1):
                yield v, 1
        yield zs[0], 1

    return SampleSpec(
        m=cfg.m, two_sets=True, z_count=1, hbar=cfg.hbar, expressions=exprs
    )


def _tv_trial(
    cfg: CheckConfig, params: DynamicalParams, zs: tuple[complex, ...],
    ctx: EllipticContext,
) -> tuple[float, int]:
    m = cfg.m
    families = relation_vectors_reference(1, m, params, ctx)
    tv = RelationSet.of(
        [r.vector(m) for r in tv_relations(m, params.q1, params.q2, params.hbar, ctx)]
    )
    reduction = slnm_reduction_residual_n1(params.hbar, zs[0], params.q1, ctx)
    if not families and not tv:
        return reduction, 0
    if not families or not tv:
        return 1.0, span_rank(families) if families else 0
    metric = span_equal(families, tv, SPAN_TOL)[1]
    return max(metric, reduction), span_rank(families)


def _bb_spec(cfg: CheckConfig) -> SampleSpec:
    n = cfg.n

    def exprs(params: DynamicalParams, zs: tuple[complex, ...]) -> Iterator:
        yield params.hbar, n
        yield zs[0], 1

    return SampleSpec(m=1, z_count=1, hbar=cfg.hbar, expressions=exprs)


def _bb_trial(
    cfg: CheckConfig, params: DynamicalParams, zs: tuple[complex, ...],
    ctx: EllipticContext,
) -> tuple[float, None]:
    gap = slnm_reduction_residual_m1(params.hbar, zs[0], params.q1[0], cfg.n, ctx)
    return gap, None


TrialFn = Callable[
    [CheckConfig, DynamicalParams, tuple[complex, ...], EllipticContext],
    tuple[float, int | None],
]

_RUNNERS: dict[str, tuple[Callable[[CheckConfig], SampleSpec], TrialFn]] = {
    "ybe": (_ybe_spec, _ybe_trial),
    "dybe-felder": (_felder_spec, _felder_trial),
    "dybe-slnm": (_slnm_spec, _slnm_trial),
    "rll": (_rll_spec, _rll_trial),
    "relations": (_relations_spec, _relations_trial),
    "fay": (_fay_spec, _fay_trial),
    "sklyanin-rep": (_sklyanin_spec, _sklyanin_trial),
    "tv-reduce": (_tv_spec, _tv_trial),
    "bb-reduce": (_bb_spec, _bb_trial),
}


def _effective_config(cfg: CheckConfig, check: str) -> CheckConfig:
    """Reduction checks pin the modulus they reduce along."""
    if check == "tv-reduce":
        return replace(cfg, n=1)
    if check == "bb-reduce":
        return replace(cfg, m=1)
    return cfg


def run_single(cfg: CheckConfig, check: str, ctx: EllipticContext) -> CheckReport:
    """Execute one named check for the configured number of trials."""
    eff = _effective_config(cfg, check)
    make_spec, trial_fn = _RUNNERS[check]
    spec = make_spec(eff)
    start = time.perf_counter()
    residuals: list[float | None] = []
    rank: int | None = None
    for t in range(eff.trials):
        params, zs = sample_params(_trial_seed(eff.seed, check, t), spec, ctx)
        try:
            residual, trial_rank = trial_fn(eff, params, zs, ctx)
        except PoleProximityError:
            residuals.append(None)
            continue
        if not math.isfinite(residual):
            residuals.append(None)
            continue
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
            "l_exp_factor": cfg.l_exp_factor,
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
