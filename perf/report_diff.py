"""Field-by-field difference of two ellrmx reports.

    python perf/report_diff.py BEFORE.json AFTER.json

The reports are the canonical JSON that ``ellrmx CHECK --out PATH``
writes.  For each check, paired by position, it lists the fields that
moved: the residuals, on how many trials, with the largest absolute and
relative change over the trials that are finite on both sides;
``max_residual`` and ``mean_residual``; and any change of verdict, rank,
null-trial positions, (n, m, tol) or config.  ``runtime_ms`` is not
compared.  Prints ``no differences`` and exits 0 when nothing moved, and
exits 1 otherwise (2 on a usage error).

It lives outside the package and the tier-1 suite: a helper for a change
that moves digits on purpose, to say exactly which ones.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Fields of a check that echo its configuration.
SHAPE = ("check", "n", "m", "tol")


def _change(before: float, after: float) -> tuple[float, float]:
    """Absolute and relative change of a value (relative to ``before``;
    infinite if only ``before`` is 0)."""
    delta = abs(after - before)
    if delta == 0:
        return 0.0, 0.0
    return delta, delta / abs(before) if before else float("inf")


def _residuals(name: str, before: list, after: list) -> list[str]:
    if len(before) != len(after):
        return [f"{name}: {len(before)} -> {len(after)} trials"]
    lines = []
    nulls = [[t for t, r in enumerate(side) if r is None] for side in (before, after)]
    if nulls[0] != nulls[1]:
        lines.append(f"{name}: null trials {nulls[0]} -> {nulls[1]}")
    moved = [
        _change(b, a)
        for b, a in zip(before, after)
        if b is not None and a is not None and b != a
    ]
    if moved:
        lines.append(
            f"{name}: residuals moved on {len(moved)} of {len(before)} trials;"
            f" largest change {max(d for d, _ in moved):.3e} absolute,"
            f" {max(r for _, r in moved):.3e} relative"
        )
    return lines


def _check(before: dict, after: dict) -> list[str]:
    name = before["check"]
    lines = [
        f"{name}: {field} {before.get(field)} -> {after.get(field)}"
        for field in SHAPE
        if before.get(field) != after.get(field)
    ]
    if before["pass"] != after["pass"]:
        verdict = {True: "pass", False: "FAIL"}
        lines.append(f"{name}: verdict {verdict[before['pass']]} -> {verdict[after['pass']]}")
    if before["rank"] != after["rank"]:
        lines.append(f"{name}: rank {before['rank']} -> {after['rank']}")
    for field in ("max_residual", "mean_residual"):
        b, a = before[field], after[field]
        if b != a:
            if b is None or a is None:
                lines.append(f"{name}: {field} {b} -> {a}")
            else:
                lines.append(f"{name}: {field} {b!r} -> {a!r} ({_change(b, a)[1]:.3e} relative)")
    return lines + _residuals(name, before["residuals"], after["residuals"])


def diff(before: dict, after: dict) -> list[str]:
    """The differences between two reports, one line each."""
    lines = [
        f"config: {key} {before['config'].get(key)} -> {after['config'].get(key)}"
        for key in sorted(before["config"].keys() | after["config"].keys())
        if before["config"].get(key) != after["config"].get(key)
    ]
    for field in ("schema", "generator", "check", "seed"):
        if before.get(field) != after.get(field):
            lines.append(f"{field}: {before.get(field)} -> {after.get(field)}")
    if before["pass"] != after["pass"]:
        lines.append(f"overall verdict: {before['pass']} -> {after['pass']}")
    checks = before["checks"], after["checks"]
    if [c["check"] for c in checks[0]] != [c["check"] for c in checks[1]]:
        names = [[c["check"] for c in side] for side in checks]
        return lines + [f"checks: {names[0]} -> {names[1]}"]
    for b, a in zip(*checks):
        lines += _check(b, a)
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python perf/report_diff.py BEFORE.json AFTER.json", file=sys.stderr)
        return 2
    before, after = (json.loads(Path(path).read_text()) for path in argv)
    lines = diff(before, after)
    print("\n".join(lines) if lines else "no differences")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
