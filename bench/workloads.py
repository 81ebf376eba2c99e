"""The benchmark's workloads: which checks run, at which sizes, and why.

Each workload is a list of ``CheckConfig`` keyword sets, run one after
another through ``ellrmx.checks.run_check`` exactly as the ``ellrmx``
command runs them. The seed is not part of a workload; it is the
benchmark's ``--seed`` argument and reaches the program only as
``CheckConfig.seed``.

Trial counts are smaller than the command's default of 20 so that one
pass, which runs in a fresh interpreter, stays a few seconds long (one
``rll`` trial at n=2, m=3 is the exception: it cannot be split). Only the
standard library is imported here, so that a pass can load this module
before it starts timing ``import ellrmx``.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_TAU = complex(0.3, 0.8)
SKEW_TAU = complex(5.3, 0.3)

NON_RLL_CHECKS = (
    "ybe",
    "dybe-felder",
    "dybe-slnm",
    "relations",
    "fay",
    "sklyanin-rep",
    "tv-reduce",
    "bb-reduce",
)
KERNEL_CHECKS = tuple(c for c in NON_RLL_CHECKS if c != "relations")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tau: complex
    jobs: tuple[dict, ...]
    trials: int

    def configs(self, trials: int | None = None) -> list[dict]:
        """Keyword sets for ``CheckConfig``, without the seed."""
        k = self.trials if trials is None else trials
        return [{"tau": self.tau, "trials": k, **job} for job in self.jobs]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="suite-default",
            why="`ellrmx all` at the command defaults: the run users make; "
            "rll dominates, every other layer runs briefly",
            tau=DEFAULT_TAU,
            jobs=({"check": "all"},),
            trials=2,
        ),
        Workload(
            name="rll-2x3",
            why="one rll trial at n=2 m=3: large working set where the "
            "defect table and span SVDs in ncalgebra dominate",
            tau=DEFAULT_TAU,
            jobs=({"check": "rll", "m": 3},),
            trials=1,
        ),
        Workload(
            name="kernel-n3",
            why="the non-rll, non-relations checks at n=3: theta, kernel "
            "and R-matrix builders dominate; no defect table is built",
            tau=DEFAULT_TAU,
            jobs=tuple({"check": c, "n": 3} for c in KERNEL_CHECKS),
            trials=10,
        ),
        Workload(
            name="skew-tau",
            why="the non-rll checks at tau=5.3+0.3i: sampler and pole "
            "guards disagree, so some trials come back null",
            tau=SKEW_TAU,
            jobs=tuple({"check": c} for c in NON_RLL_CHECKS),
            trials=10,
        ),
    )
}
