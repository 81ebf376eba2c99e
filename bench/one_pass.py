"""One pass of a workload in a fresh interpreter; prints one JSON line.

    python3 bench/one_pass.py --workload NAME --seed S [--trials K]
                              [--trace] [--spans PATH] [--setup-only]

A pass times ``import ellrmx`` up to a constructed ``EllipticContext``
(``setup_s``), then the workload's ``run_check`` calls (``run_s``), and
reports the process's peak resident memory, the trial and null counts,
the checks the correctness gate rejects, and the sha256 of the
concatenated canonical reports. With ``--trace`` the module functions are
wrapped first and the per-layer metrics are added.

``bench/run.py`` starts the passes; a fresh interpreter per pass keeps
the ``lru_cache`` of defect tables from carrying over between passes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer, install, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

# Checks whose rank has a closed form: g (g - 1) / 2 independent
# quadratic relations among g generators.
RANK_CHECKS = ("rll", "relations", "tv-reduce")


def expected_rank(check: str, n: int, m: int) -> int | None:
    if check not in RANK_CHECKS:
        return None
    g = m * m if check == "tv-reduce" else m * m * n * n
    return g * (g - 1) // 2


def wrong_checks(run) -> list[str]:
    """Checks with a finite residual at or above tolerance, or a rank off
    its closed form. Null trials are not wrong; they are counted apart."""
    out = []
    for rep in run.reports:
        too_big = any(r is not None and not r < rep.tol for r in rep.residuals)
        want = expected_rank(rep.check, rep.n, rep.m)
        bad_rank = want is not None and rep.rank is not None and rep.rank != want
        if too_big or bad_rank:
            out.append(rep.check)
    return out


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run_pass(args: argparse.Namespace) -> dict:
    workload = WORKLOADS[args.workload]
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import ellrmx
    from ellrmx.elliptic import EllipticContext

    EllipticContext(workload.tau)
    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s, "ellrmx": str(Path(ellrmx.__file__).parent)}
    if args.setup_only:
        return result

    from ellrmx.checks import CheckConfig, ConfigError, render_json, run_check
    from ellrmx.sampling import SamplingError

    tracer = Tracer() if args.trace else None
    hooks = install(tracer) if tracer else None
    digest = hashlib.sha256()
    run_s, trials, nulls, wrong, failed = 0.0, 0, 0, [], []
    try:
        for kwargs in workload.configs(args.trials):
            cfg = CheckConfig(seed=args.seed, **kwargs)
            t0 = time.perf_counter()
            try:
                run = run_check(cfg)
            except (ConfigError, SamplingError) as exc:
                failed.append(f"{cfg.check}: {exc}")
                continue
            finally:
                run_s += time.perf_counter() - t0
            digest.update(render_json(run).encode())
            for rep in run.reports:
                trials += len(rep.residuals)
                nulls += sum(r is None for r in rep.residuals)
            wrong += wrong_checks(run)
    finally:
        if hooks:
            hooks.restore()
    result.update(
        run_s=run_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        operations=len(workload.jobs),
        failed=failed,
        trials=trials,
        null_trials=nulls,
        wrong_checks=wrong,
        report_sha256=digest.hexdigest(),
        env=environment(),
    )
    if tracer:
        metrics = layer_metrics(tracer, hooks, trials, nulls)
        result["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        result["missing"] = hooks.missing
        result["spans"] = len(tracer.start)
        if args.spans:
            tracer.save(args.spans)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="write spans here (.npz)")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = run_pass(args)
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
