"""Layer timings for before/after pairs, with pytest-benchmark.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest perf \
        --benchmark-json=BENCH_<label>.json

These cases sit outside the tier-1 suite (``testpaths``) and outside the
benchmark's ``bench/`` directory.  Each times one layer on fixed inputs at
the default tau: one scalar theta, theta over 1,000 arguments, the
reference relation set at (n, m) = (2, 2), and one ``sklyanin-rep`` trial
at n = 3.  Kernels that take only scalars are timed entry by entry, so the
same file runs on commits from before array arguments.
"""

import numpy as np

from ellrmx.checks import (
    CheckConfig,
    _relations_spec,
    _sklyanin_spec,
    _sklyanin_trial,
    _trial_seed,
)
from ellrmx.elliptic import EllipticContext, theta
from ellrmx.ncalgebra import relation_vectors_reference
from ellrmx.sampling import sample_params

CTX = EllipticContext(0.3 + 0.8j)
SEED = 42


def trial_draw(check, spec, n, m=1):
    cfg = CheckConfig(check=check, n=n, m=m)
    params, zs = sample_params(_trial_seed(SEED, check, 0), spec(cfg), CTX)
    return cfg, params, zs


def test_theta_scalar(benchmark):
    benchmark(theta, 0.31 + 0.47j, CTX)


def test_theta_1000_arguments(benchmark):
    rng = np.random.default_rng(SEED)
    z = rng.uniform(-1, 1, 1000) + CTX.tau * rng.uniform(-1, 1, 1000)
    try:
        theta(z[:1], CTX)
    except TypeError:
        benchmark(lambda: [theta(complex(v), CTX) for v in z])
        return
    benchmark(theta, z, CTX)


def test_relation_vectors_reference_2x2(benchmark):
    _, params, _ = trial_draw("relations", _relations_spec, 2, 2)
    benchmark(relation_vectors_reference, 2, 2, params, CTX)


def test_sklyanin_rep_trial_n3(benchmark):
    cfg, params, zs = trial_draw("sklyanin-rep", _sklyanin_spec, 3)
    benchmark(_sklyanin_trial, cfg, params, zs, CTX)
