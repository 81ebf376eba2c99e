"""The ellrmx benchmark: time a workload's checks end to end, or trace them.

    python3 bench/run.py --workload NAME [--seed 42] [--seconds 20] [--trace 0|1]

Run from the root of a checkout; the program is imported from ``src/``.
Every pass runs in a fresh interpreter (``bench/one_pass.py``), one after
another: a closed loop with one caller and one BLAS thread.

``--trace 0`` first times ``import ellrmx`` up to a constructed
``EllipticContext`` in several fresh interpreters (``setup_s``), then runs
untraced passes until ``--seconds`` have passed (at least one), and
reports medians of ``setup_s``, ``run_s`` and ``peak_rss_mb``.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of the traced one, plus the tracing overhead.

The correctness gate holds on every pass: no check may have a finite
residual at or above its tolerance or a rank off its closed form, and the
canonical reports must be byte-identical across the passes of one
invocation, traced or not. Null trials do not fail the gate; they are
counted in ``null_frac``. A ``run_check`` call that raises counts as a
failed operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it name every metric with its unit. A record with the environment and
every pass goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 7
# One BLAS thread (nproc or fewer): on a 2-core host, two threads made the
# short passes slower and their times more scattered; only the large SVDs
# of rll-2x3 gained from the second thread.
BLAS_THREADS = "1"
# Every invocation must end within 180 s; passes get what is left of this.
BUDGET_S = 170.0


class PassError(RuntimeError):
    """A pass process failed or produced no result."""


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def one_pass(workload: str, seed: int, deadline: float, *extra: str) -> dict:
    """Run ``one_pass.py`` in a fresh interpreter and return its result."""
    cmd = [
        sys.executable, str(HERE / "one_pass.py"),
        "--workload", workload, "--seed", str(seed), *extra,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise PassError("time budget spent before the pass could start")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise PassError(f"pass exceeded the {BUDGET_S:.0f} s budget") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassError(
            f"pass exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(
    workload: str, seed: int, seconds: float, trace: bool, trials: int | None = None
) -> dict:
    """All passes of one invocation, the gate verdict and the metrics."""
    deadline = time.monotonic() + BUDGET_S
    extra = () if trials is None else ("--trials", str(trials))
    passes, setups = [], []
    if trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{workload}-seed{seed}.npz"
        passes.append(one_pass(workload, seed, deadline, *extra))
        traced = one_pass(
            workload, seed, deadline, *extra, "--trace", "--spans", str(spans)
        )
    else:
        for _ in range(SETUP_SAMPLES):
            setups.append(one_pass(workload, seed, deadline, "--setup-only")["setup_s"])
        start = time.monotonic()
        while not passes or time.monotonic() - start < seconds:
            passes.append(one_pass(workload, seed, deadline, *extra))
    checked = passes + ([traced] if trace else [])
    digests = {p["report_sha256"] for p in checked}
    wrong = sorted({c for p in checked for c in p["wrong_checks"]})
    record = {
        "workload": workload,
        "inputs": [
            {k: str(v) if isinstance(v, complex) else v for k, v in cfg.items()}
            for cfg in WORKLOADS[workload].configs(trials)
        ],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": passes[0]["env"],
        "correct": len(digests) == 1 and not wrong,
        "wrong_checks": wrong,
        "report_sha256": sorted(digests),
        "attempted": sum(p["operations"] for p in checked),
        "failed": sum(len(p["failed"]) for p in checked),
        "failures": [f for p in checked for f in p["failed"]],
        "null_frac": passes[0]["null_trials"] / max(passes[0]["trials"], 1),
        "passes": passes,
    }
    if trace:
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = {
            "value": traced["run_s"] - passes[0]["run_s"],
            "unit": "s",
        }
        record.update(traced=traced, metrics=layers, missing=traced["missing"])
    else:
        record["setup_samples"] = setups
        record["metrics"] = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": statistics.median(p["run_s"] for p in passes), "unit": "s"},
            "peak_rss_mb": {
                "value": statistics.median(p["peak_rss_mb"] for p in passes),
                "unit": "MB",
            },
        }
    return record


def _inputs_text(record: dict) -> str:
    return "; ".join(
        " ".join(f"{k}={v}" for k, v in cfg.items()) for cfg in record["inputs"]
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ellrmx" / "__init__.py").is_file():
        print(f"bench: no ellrmx sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except PassError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    env = record["env"]
    print(f"workload {args.workload}  seed {args.seed}  inputs: {_inputs_text(record)}")
    print(
        f"env python {env['python']}  numpy {env['numpy']}  blas {env['blas']} "
        f"threads {env['blas_threads']}  nproc {env['nproc']}"
    )
    print(
        f"passes {len(record['passes']) + args.trace}  "
        f"null_frac {record['null_frac']:.4f}  "
        f"wrong_checks {len(record['wrong_checks'])} {record['wrong_checks']}  "
        f"report sha256 {' '.join(record['report_sha256'])}"
    )
    if record.get("missing"):
        print(f"missing wrapped names (metrics absent): {' '.join(record['missing'])}")
    for name, m in record["metrics"].items():
        print(f"  {name:<36s} {m['value']:.6g} {m['unit']}")
    print(f"record written to {path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
