"""Layer timings for before/after pairs, with pytest-benchmark.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest perf \
        --benchmark-json=BENCH_<label>.json

Take a pair interleaved: run the file on the parent, then on the change,
then on the parent and the change again, and keep each side's better
reading (the lower median) per case.  Running one side's suite after the
other's reads host drift as a change.  Time a slow case, such as the
(3, 3) ``rll`` trial, alone with ``-k`` as well: neither a whole-file run
nor a run alone reads it more steadily than the other, so take at least
four runs a side of each.

These cases sit outside the tier-1 suite (``testpaths``) and outside the
benchmark's ``bench/`` directory.  Each times one layer on fixed inputs at
the default tau: theta at one argument (a 0-d call), theta over 1,000
arguments, the Kronecker kernel over 5 argument pairs (a 15-argument theta stack), the
second Eisenstein function over 1,000 arguments, the reference relation
set at (n, m) = (2, 2), (2, 4) and (6, 1), the coordinate-exchange set at
m = 4, one defect set (``rll_defect`` of a table of one point built
every round) at (2, 3), one defect table of one point (``defect_table``)
at (3, 3), one
``sklyanin-rep`` trial at n = 3, 6 and 8, one ``r_slnm`` at
(n, m) = (3, 2), one ``dybe-slnm`` trial at (3, 2), (3, 3) and (4, 3),
one ``dybe-felder`` trial at m = 3 and 6 and one ``ybe`` trial at n = 4.
Two cases run a whole check through ``run_single`` at tau = 5.3+0.3i,
where the trials of ``relations`` and ``tv-reduce`` are evaluated
together: ten ``relations`` trials at (2, 2) and ten ``tv-reduce`` trials
at m = 2.  One more runs ten ``tv-reduce`` trials at m = 4 at the default
tau, where each TV set holds 192 relations of rank 120.
Three more run ten trials of ``ybe`` at n = 3, ``dybe-felder`` at m = 2
and ``sklyanin-rep`` at n = 3 through ``run_single`` at the default tau,
where each check evaluates its trials together.  Four time ``rll``: two
trials at (2, 2) through ``run_single`` (one batch: one reference build,
one gather of the four points, stacked comparisons), and one trial each
at (2, 3), (3, 3) and (4, 3) through the runner.  One times the sampling layer:
the 80 draws of the ``skew-tau`` workload (the eight non-``rll`` checks'
specs, ten trials each) through ``sample_params``.
Trials are drawn and run through the check's runner (``_RUNNERS``), which
takes a list of draws, and the builders are called on one-element batches
(``[params]``, coordinates of shape (1, m)).
"""

import numpy as np

from ellrmx.checks import (
    _RUNNERS,
    CHECK_NAMES,
    CheckConfig,
    _effective_config,
    _trial_seed,
    run_single,
)
from ellrmx.elliptic import EllipticContext, eisenstein_e2, kronecker_phi, theta
from ellrmx.ncalgebra import defect_table, relation_vectors_reference, rll_defect
from ellrmx.relations import tv_relations
from ellrmx.rmatrix import r_slnm
from ellrmx.sampling import sample_params

CTX = EllipticContext(0.3 + 0.8j)
SKEW_CTX = EllipticContext(5.3 + 0.3j)
SEED = 42


def defect_set(n, m, params, z1, z2, ctx):
    return rll_defect(defect_table(n, m, [params], [z1], [z2], ctx))


def trial_draw(check, n, m=1):
    cfg = CheckConfig(check=check, n=n, m=m)
    spec = _RUNNERS[check].spec(cfg)
    params, zs = sample_params(_trial_seed(SEED, check, 0), spec, CTX)
    return cfg, params, zs


def one_trial(check, n, m=1):
    """Trial 0 of a check as a call without arguments."""
    cfg, params, zs = trial_draw(check, n, m)
    run = _RUNNERS[check].run
    return lambda: run(cfg, [(params, zs)], CTX)


def test_theta_scalar(benchmark):
    benchmark(theta, 0.31 + 0.47j, CTX)


def test_theta_1000_arguments(benchmark):
    rng = np.random.default_rng(SEED)
    z = rng.uniform(-1, 1, 1000) + CTX.tau * rng.uniform(-1, 1, 1000)
    benchmark(theta, z, CTX)


def test_kronecker_phi_15_argument_stack(benchmark):
    rng = np.random.default_rng(SEED)
    u, x = rng.uniform(0.1, 0.9, (2, 5)) + CTX.tau * rng.uniform(0.1, 0.9, (2, 5))
    benchmark(kronecker_phi, u, x, CTX)


def test_eisenstein_e2_1000_arguments(benchmark):
    rng = np.random.default_rng(SEED)
    z = rng.uniform(0.1, 0.9, 1000) + CTX.tau * rng.uniform(0.1, 0.9, 1000)
    benchmark(eisenstein_e2, z, CTX)


def test_relation_vectors_reference_2x2(benchmark):
    _, params, _ = trial_draw("relations", 2, 2)
    benchmark(relation_vectors_reference, 2, 2, [params], CTX)


def test_relation_vectors_reference_2x4(benchmark):
    _, params, _ = trial_draw("relations", 2, 4)
    benchmark(relation_vectors_reference, 2, 4, [params], CTX)


def test_relation_vectors_reference_6x1(benchmark):
    _, params, _ = trial_draw("relations", 6, 1)
    benchmark(relation_vectors_reference, 6, 1, [params], CTX)


def test_tv_relations_m4(benchmark):
    _, params, _ = trial_draw("tv-reduce", 1, 4)
    benchmark(tv_relations, 4, [params.q1], [params.q2], [params.hbar], CTX)


def test_rll_defect_2x3(benchmark):
    _, params, zs = trial_draw("rll", 2, 3)
    benchmark(defect_set, 2, 3, params, zs[0], zs[1], CTX)


def test_defect_table_3x3(benchmark):
    _, params, zs = trial_draw("rll", 3, 3)
    benchmark(defect_table, 3, 3, [params], [zs[0]], [zs[1]], CTX)


def test_sklyanin_rep_trial_n3(benchmark):
    benchmark(one_trial("sklyanin-rep", 3))


def test_sklyanin_rep_trial_n6(benchmark):
    benchmark(one_trial("sklyanin-rep", 6))


def test_sklyanin_rep_trial_n8(benchmark):
    benchmark(one_trial("sklyanin-rep", 8))


def test_r_slnm_3x2(benchmark):
    _, params, zs = trial_draw("dybe-slnm", 3, 2)
    benchmark(r_slnm, params.hbar, zs[0] - zs[1], params.q1, 3, CTX)


def test_dybe_slnm_trial_3x2(benchmark):
    benchmark(one_trial("dybe-slnm", 3, 2))


def test_dybe_slnm_trial_3x3(benchmark):
    benchmark(one_trial("dybe-slnm", 3, 3))


def test_dybe_slnm_trial_4x3(benchmark):
    benchmark(one_trial("dybe-slnm", 4, 3))


def test_dybe_felder_trial_m3(benchmark):
    benchmark(one_trial("dybe-felder", 1, 3))


def test_dybe_felder_trial_m6(benchmark):
    benchmark(one_trial("dybe-felder", 1, 6))


def test_ybe_trial_n4(benchmark):
    benchmark(one_trial("ybe", 4))


def test_relations_ten_trials_2x2_skew_tau(benchmark):
    cfg = CheckConfig(check="relations", n=2, m=2, tau=SKEW_CTX.tau, trials=10)
    benchmark(run_single, cfg, "relations", SKEW_CTX)


def test_tv_reduce_ten_trials_m2_skew_tau(benchmark):
    cfg = CheckConfig(check="tv-reduce", m=2, tau=SKEW_CTX.tau, trials=10)
    benchmark(run_single, cfg, "tv-reduce", SKEW_CTX)


def test_tv_reduce_ten_trials_m4(benchmark):
    cfg = CheckConfig(check="tv-reduce", m=4, trials=10)
    benchmark(run_single, cfg, "tv-reduce", CTX)


def test_ybe_ten_trials_n3(benchmark):
    cfg = CheckConfig(check="ybe", n=3, trials=10)
    benchmark(run_single, cfg, "ybe", CTX)


def test_dybe_felder_ten_trials_m2(benchmark):
    cfg = CheckConfig(check="dybe-felder", m=2, trials=10)
    benchmark(run_single, cfg, "dybe-felder", CTX)


def test_sklyanin_rep_ten_trials_n3(benchmark):
    cfg = CheckConfig(check="sklyanin-rep", n=3, trials=10)
    benchmark(run_single, cfg, "sklyanin-rep", CTX)


def test_rll_two_trials_2x2(benchmark):
    cfg = CheckConfig(check="rll", n=2, m=2, trials=2)
    benchmark(run_single, cfg, "rll", CTX)


def test_rll_trial_2x3(benchmark):
    benchmark(one_trial("rll", 2, 3))


def test_rll_trial_3x3(benchmark):
    benchmark(one_trial("rll", 3, 3))


def test_rll_trial_4x3(benchmark):
    benchmark(one_trial("rll", 4, 3))


def test_sample_params_skew_tau_80_trials(benchmark):
    specs = [
        (c, _RUNNERS[c].spec(_effective_config(CheckConfig(c, tau=SKEW_CTX.tau), c)))
        for c in CHECK_NAMES
        if c != "rll"
    ]

    def draw_all():
        return [
            sample_params(_trial_seed(SEED, c, t), spec, SKEW_CTX)
            for c, spec in specs
            for t in range(10)
        ]

    assert len(draw_all()) == 80
    benchmark(draw_all)
