"""Command-line entry point for the identity checks.

Usage:
  ellrmx ybe --n 3 --trials 10
  ellrmx rll --n 2 --m 2 --seed 7 --out report.json
  ellrmx all

Exit codes: 0 all checks passed, 1 at least one failed, 2 bad
configuration, infeasible sampling or a report path that cannot be written
(a directory, or one in a missing directory, is refused before any check
runs).
"""

from __future__ import annotations

import argparse
import errno
import os
import re
import sys
from pathlib import Path

from .checks import (
    CHECK_NAMES,
    CheckConfig,
    ConfigError,
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    RunReport,
    render_json,
    run_check,
)
from .sampling import SamplingError


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"expected RE,IM (for instance 0.3,0.8), got {text!r}"
        )
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_hbar(text: str) -> complex | None:
    if text == "random":
        return None
    return _parse_complex(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellrmx",
        description="Numerical checks for elliptic R-matrices and their "
        "quadratic exchange algebras.",
    )
    # No option starts with a digit, so an argument that does after its
    # minus is a value: --tau -0.5,0.8 as well as --tau=-0.5,0.8.
    parser._negative_number_matcher = re.compile(r"^-\.?\d")
    parser.add_argument(
        "check",
        choices=CHECK_NAMES + ("all",),
        help="which identity to verify (all runs every check)",
    )
    parser.add_argument("--n", type=int, default=2, help="vertex block size N")
    parser.add_argument("--m", type=int, default=2, help="dynamical block size M")
    parser.add_argument(
        "--tau",
        type=_parse_complex,
        default=complex(0.3, 0.8),
        metavar="RE,IM",
        help="modulus of the period lattice (default 0.3,0.8)",
    )
    parser.add_argument(
        "--hbar",
        type=_parse_hbar,
        default=None,
        metavar="RE,IM|random",
        help="Planck parameter; 'random' draws a fresh one per trial (default)",
    )
    parser.add_argument(
        "--trials", type=int, default=DEFAULT_TRIALS, help="random trials per check"
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master seed")
    parser.add_argument(
        "--tol",
        type=float,
        default=None,
        help="override tolerance (default 1e-9 residual, 1e-8 span)",
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="write a canonical JSON report here"
    )
    return parser


def _summary_lines(run: RunReport) -> list[str]:
    cfg = run.config
    lines = [
        f"ellrmx {cfg.check}  n={cfg.n} m={cfg.m} tau={cfg.tau:g} "
        f"hbar={'random' if cfg.hbar is None else format(cfg.hbar, 'g')} "
        f"trials={cfg.trials} seed={cfg.seed}"
    ]
    for rep in run.reports:
        verdict = "pass" if rep.passed else "FAIL"
        if rep.max_residual is None:
            stats = "no finite residuals"
        else:
            stats = f"max {rep.max_residual:.3e}  mean {rep.mean_residual:.3e}"
        rank = f"  rank {rep.rank}" if rep.rank is not None else ""
        nulls = len(rep.residuals) - len(rep.finite)
        null = f"  ({nulls} of {len(rep.residuals)} trials null)" if nulls else ""
        lines.append(
            f"  {rep.check:<13s} {verdict}  {stats}{rank}{null}  "
            f"({rep.runtime_ms:.0f} ms, n={rep.n} m={rep.m}, tol {rep.tol:g})"
        )
    overall = "PASS" if run.passed else "FAIL"
    lines.append(f"overall: {overall}  ({run.runtime_ms:.0f} ms)")
    return lines


def _cannot_write(out: Path, reason: str) -> int:
    print(f"ellrmx: cannot write report to {out}: {reason}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = CheckConfig(
        check=args.check,
        n=args.n,
        m=args.m,
        tau=args.tau,
        hbar=args.hbar,
        trials=args.trials,
        seed=args.seed,
        tol=args.tol,
    )
    # a report path known to fail is refused before any check runs
    if args.out is not None and args.out.is_dir():
        return _cannot_write(args.out, os.strerror(errno.EISDIR))
    if args.out is not None and not args.out.parent.is_dir():
        missing = not args.out.parent.exists()
        return _cannot_write(args.out, os.strerror(errno.ENOENT if missing else errno.ENOTDIR))
    try:
        run = run_check(cfg)
    except ConfigError as exc:
        print(f"ellrmx: configuration error: {exc}", file=sys.stderr)
        return 2
    except SamplingError as exc:
        print(f"ellrmx: sampling error: {exc}", file=sys.stderr)
        return 2
    for line in _summary_lines(run):
        print(line)
    if args.out is not None:
        try:
            args.out.write_text(render_json(run))
        except OSError as exc:
            return _cannot_write(args.out, exc.strerror)
        print(f"report written to {args.out}")
    return 0 if run.passed else 1


if __name__ == "__main__":
    sys.exit(main())
