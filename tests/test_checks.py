"""Check orchestration: configs, recipes, reports, canonical JSON."""

import hashlib
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ellrmx import checks, ncalgebra, spans
from ellrmx.checks import (
    CHECK_NAMES,
    MAX_IM_TAU,
    CheckConfig,
    CheckReport,
    ConfigError,
    render_json,
    run_check,
    run_dict,
)
from ellrmx.elliptic import EllipticContext
from ellrmx.ncalgebra import (
    RelationSet,
    relation_vectors_reference,
    span_equal,
    span_gap,
    span_rank,
)
from ellrmx.sampling import sample_params
from ellrmx.spans import span_bound

FAST = CheckConfig(check="fay", trials=3)

# The corner corpus: (check, n, m, then the sha256 of the report of
# `ellrmx CHECK --n N --m M --trials 4` at the default tau and at
# `--tau 5.3,0.3`).  It covers the sizes where defect or reference rows
# drop out (the 1 x 1 identity, m == 1, the single-generator tv-reduce)
# and the larger relations sizes that the default report does not run.
CORNERS = [
    (
        "rll", 1, 1,
        "1eed6a70d9c9e0cf595b99ddd920dd06daef361b53529e8561995b593bfebff6",
        "b8d1f9e9634e61e24d78795b7bc9ce0ed98657d82ece8b4929d5349806e3e8b2",
    ),
    (
        "rll", 1, 2,
        "a200397147b618cff781d94c22e306002461ee88971eaea54bde496baecaab3d",
        "02884ca33b2bdb9c66d5b9705ab844f9450992d8efc1ad594b95daac46b07be7",
    ),
    (
        "rll", 2, 1,
        "38f068b1ed743217053c0c3fd5377cbde33957c8342a876d00462cfc9751b637",
        "80537066fef2f402c60398de3e1c9a45c5b1a443236c1314c013e62508ed168e",
    ),
    (
        "rll", 3, 1,
        "9d73070717dbe374e82aeaae4acdcfe3f6d2616c06b2d3ff31c192f515b54998",
        "e02777efeac26e8b62d12ec5452247d8d454b39d396e1b526ac67a78f769be9f",
    ),
    (
        "relations", 1, 1,
        "3508be872788e5173beadc245ed8ace57a562818cf28443c85b6e6871ff5e882",
        "37abf25020993557ac49056b6858be5ccb87d68f0b17670e16b651a650e621c9",
    ),
    (
        "relations", 3, 1,
        "e2842b89baa040016a802b5a80ca4a9935f843c4298701e59f3c69fd7573d57f",
        "13a10b667e6bd54ff3c289e176534274343f38aad14612bd39cbdcf965502d2a",
    ),
    (
        "relations", 4, 1,
        "323beef4801b16ab35fb92239c0f16cdf228d4dff465cf969da7faae21cd64b9",
        "b47706d6d1cd11aeaee82520e62f08521dd8ba9b34e3d3d901a46530ec2101b2",
    ),
    (
        "relations", 6, 1,
        "7c14eda44f6870fa4aacb586e3c16a71880eff12cf8adee6df4fa6d21425ed45",
        "7df09fbef966d54934aa03b849afef0a3caa0fec94b91d2b9cb2832e8a9cc02c",
    ),
    (
        "relations", 3, 2,
        "716809830c9940d3b441a3a0e7b0f19f53b2a18b495155f17d12b38a47cc8506",
        "ec4772b2f31d085aa8097b40fbfeb65539dc6ee8e424528f5308bfdfd532fa28",
    ),
    (
        "tv-reduce", 2, 1,
        "666f45e8bf5b069e617ef992bd24ba8ad9f74a68baaf39e354e01f704cab805d",
        "d7387a8303e2c0c1e895a012d6b49f70da1cfcb6050ecfc51ff20478018a0f1e",
    ),
    (
        "tv-reduce", 2, 3,
        "40c69ae1c94ada6b22d22eb2b48a1856d59328e9da2a53c14f71a41e8c1508ee",
        "e49b70754700de8a08c6b719a0399dc0e1c5d194d24bece330f75d3bd08323b8",
    ),
    (
        "sklyanin-rep", 6, 2,
        "421d66f6543027d9a9598ea7f4fd302ae82f683d055b4b4191aca66208bafc21",
        "ff1e85c409f0d6e6ad60700a6ef2c4ba2f019c7110b7be9d923414829840996c",
    ),
]


def run_one(name: str, **kw) -> CheckReport:
    defaults = dict(check=name, n=2, m=2, trials=3)
    defaults.update(kw)
    run = run_check(CheckConfig(**defaults))
    assert len(run.reports) == 1
    return run.reports[0]


class TestConfigValidation:
    def test_unknown_check_rejected(self):
        with pytest.raises(ConfigError, match="unknown check"):
            CheckConfig(check="frobnicate").validate()

    def test_site_budget_enforced(self):
        with pytest.raises(ConfigError, match="exceeds"):
            CheckConfig(check="ybe", n=5, m=3).validate()

    def test_rll_memory_bound(self):
        # Two defect tables of about d^4 n^3 terms each, blocked sets and
        # the temporaries of one run of gathered rows: (8, 1) and (4, 3) take
        # about 0.45 GB, (6, 2) and (9, 1) to (12, 1) would pass 1 GB.
        for n, m in ((8, 1), (4, 3), (5, 2), (3, 4), (2, 6), (1, 12)):
            for check in ("rll", "all"):
                CheckConfig(check=check, n=n, m=m).validate()
        for n, m in ((6, 2), (9, 1), (10, 1), (12, 1)):
            for check in ("rll", "all"):
                with pytest.raises(ConfigError, match="1 GB"):
                    CheckConfig(check=check, n=n, m=m).validate()
            CheckConfig(check="relations", n=n, m=m).validate()

    def test_pinned_sizes_are_not_guarded(self):
        # a check is guarded at the sizes it runs at; all runs every check
        # at the sizes given
        for check, n, m in (("tv-reduce", 12, 2), ("bb-reduce", 2, 7)):
            CheckConfig(check=check, n=n, m=m).validate()
            with pytest.raises(ConfigError, match="exceeds"):
                CheckConfig(check="all", n=n, m=m).validate()
        for check, n, m in (("tv-reduce", 1, 13), ("bb-reduce", 13, 1)):
            with pytest.raises(ConfigError, match=r"n\*m = 13 exceeds"):
                CheckConfig(check=check, n=n, m=m).validate()

    def test_tau_floor_enforced(self):
        with pytest.raises(ConfigError, match="convergence floor"):
            CheckConfig(check="ybe", tau=0.5 + 0.1j).validate()

    def test_tau_ceiling_enforced(self):
        for re in (0.3, 5.3):
            CheckConfig(check="all", tau=complex(re, MAX_IM_TAU)).validate()
            for im in (MAX_IM_TAU + 0.01, 50.0, 1000.0):
                with pytest.raises(ConfigError, match="precision ceiling"):
                    CheckConfig(check="fay", tau=complex(re, im)).validate()

    def test_positive_tolerance_required(self):
        with pytest.raises(ConfigError, match="positive"):
            CheckConfig(check="ybe", tol=0.0).validate()

    def test_finite_tolerance_required(self):
        # an infinite tolerance would certify any finite residual
        for tol in (math.inf, math.nan, -math.inf):
            with pytest.raises(ConfigError, match="finite and positive"):
                CheckConfig(check="fay", tol=tol).validate()
        CheckConfig(check="fay", tol=1e300).validate()

    def test_at_least_one_trial(self):
        with pytest.raises(ConfigError, match="trial"):
            CheckConfig(check="ybe", trials=0).validate()

    def test_seed_within_64_bits(self):
        # The trial streams take the seed whole, so seeds a 64-bit mask
        # would fold together (-1 and 2**64 - 1, 2**64 + 42 and 42) are refused.
        for seed in (0, 2**64 - 1):
            CheckConfig(check="fay", seed=seed).validate()
        for seed in (-1, 2**64, 2**64 + 42):
            with pytest.raises(ConfigError, match=r"\[0, 2\*\*64\)"):
                CheckConfig(check="fay", seed=seed).validate()

    def test_default_tolerances_split_by_kind(self):
        cfg = CheckConfig(check="all")
        assert cfg.effective_tol("ybe") == 1e-9
        assert cfg.effective_tol("rll") == 1e-8
        assert cfg.effective_tol("tv-reduce") == 1e-8

    def test_explicit_tolerance_wins(self):
        cfg = CheckConfig(check="rll", tol=1e-3)
        assert cfg.effective_tol("rll") == 1e-3


class TestResidualChecks:
    def test_fay_passes(self):
        rep = run_one("fay")
        assert rep.passed and rep.max_residual < 1e-12

    def test_ybe_passes(self):
        rep = run_one("ybe", n=3)
        assert rep.passed and rep.max_residual < 1e-12

    def test_dybe_felder_passes(self):
        rep = run_one("dybe-felder", m=3)
        assert rep.passed and rep.max_residual < 1e-12

    def test_dybe_slnm_passes(self):
        rep = run_one("dybe-slnm")
        assert rep.passed and rep.max_residual < 1e-12

    def test_sklyanin_rep_passes(self):
        rep = run_one("sklyanin-rep", n=3)
        assert rep.passed and rep.max_residual < 1e-12

    def test_fixed_hbar_is_used(self):
        rep = run_one("ybe", hbar=0.21 + 0.13j)
        assert rep.passed

    def test_non_finite_residual_is_a_failing_null_trial(self, monkeypatch):
        monkeypatch.setattr(
            checks, "dybe_residual_slnm", lambda hbar, *args: np.full(len(hbar), math.nan)
        )
        rep = run_one("dybe-slnm", trials=2)
        assert rep.residuals == (None, None)
        assert not rep.passed


class TestSpanChecks:
    def test_rll_matches_reference_span(self):
        rep = run_one("rll", trials=2)
        assert rep.passed and rep.max_residual < 1e-10
        assert rep.rank == 120

    def test_rll_keeps_rows_above_their_own_mass_floor(self):
        # Seed 9's second table holds an element of mass ~6.5e14; a floor
        # scaled by the largest mass in the table dropped 32 genuine rows.
        run = run_check(CheckConfig(check="rll", seed=9, trials=1))
        assert run.passed
        assert run.reports[0].rank == 120

    def test_rll_small_sizes_rank(self):
        assert run_one("rll", n=2, m=1, trials=2).rank == 6
        assert run_one("rll", n=1, m=2, trials=2).rank == 6

    def test_rll_trivial_size_passes_vacuously(self):
        rep = run_one("rll", n=1, m=1, trials=2)
        assert rep.passed and rep.rank == 0

    def test_rll_without_exp_factor_fails(self, no_exp_factor):
        rep = run_one("rll", n=2, m=1, trials=2)
        assert not rep.passed
        assert rep.max_residual > 1e-3

    def test_rll_verdict_does_not_carry_over_between_runs(self, monkeypatch, request):
        # One draw, run on the right ansatz, the wrong one and the right one
        # again in one process: each run judges the tables it built.
        assert run_one("rll", trials=1).passed
        request.getfixturevalue("no_exp_factor")
        assert not run_one("rll", trials=1).passed
        monkeypatch.undo()
        assert run_one("rll", trials=1).passed

    @pytest.mark.parametrize("n, m", [(2, 1), (2, 2)])
    def test_rll_trial_builds_the_ansatz_once_per_point(self, monkeypatch, n, m):
        # two tables, each from the ansatz at its own two points
        cfg, [(params, zs)], ctx = draws_of("rll", 1, n=n, m=m)
        l_operator = ncalgebra.l_operator
        points = []

        def counted(z, *args):
            points.append(z)
            return l_operator(z, *args)

        monkeypatch.setattr(ncalgebra, "l_operator", counted)
        [(residual, _)] = checks._RUNNERS["rll"].run(cfg, [(params, zs)], ctx)
        assert residual < cfg.effective_tol("rll")
        assert points == list(zs)

    def test_relations_rank_is_flat_count(self):
        rep = run_one("relations", trials=2)
        assert rep.passed and rep.rank == 120

    def test_relations_keep_small_rows_beside_large_ones(self):
        # At (6, 2) the family row norms span about 20 orders of magnitude
        # (seed 42); a cut relative to the largest row dropped 1459 valid
        # relations.
        rep = run_one("relations", n=6, m=2, trials=1)
        assert rep.passed and rep.rank == 10296

    @pytest.mark.parametrize("check", ["rll", "relations"])
    def test_three_by_two_rank(self, monkeypatch, check):
        # For rll, mutual inclusion of each defect set and the reference, the
        # gap between the two defect sets and the factorization variation all
        # stay below 1e-12: they are recomputed from the sets and the
        # variation the trial built.
        seen = {}

        def recording(name):
            inner = getattr(checks, name)

            def wrapped(*args, **kwargs):
                seen.setdefault(name, []).append((args, out := inner(*args, **kwargs)))
                return out

            return wrapped

        for name in ("span_bound", "defect_factorization_check"):
            monkeypatch.setattr(checks, name, recording(name))
        rep = run_one(check, n=3, m=2, trials=1)
        assert rep.passed and rep.rank == 630
        if check == "rll":
            [((defects, references), _)] = seen["span_bound"]
            [(_, variation)] = seen["defect_factorization_check"]
            inclusion = [worst for _, worst in span_equal(defects, references, 1e-8)]
            assert span_rank(defects) == [630, 630]
            assert max(*inclusion, *span_gap(defects[:1], defects[1:]), variation) < 1e-12
            # the bound that rll reports reads 2.3e-12 here
            assert rep.max_residual < 1e-11
        else:
            assert rep.max_residual < 1e-12

    def test_rll_three_by_three_rank(self):
        rep = run_one("rll", n=3, m=3, trials=1)
        assert rep.passed and rep.rank == 3240

    @pytest.mark.parametrize("check, sets", [("rll", 3), ("tv-reduce", 2), ("relations", 1)])
    def test_each_relation_set_is_decomposed_once(self, monkeypatch, check, sets):
        # rll holds two defect sets and the reference set, tv-reduce the
        # families and the TV relations, relations the reference set.  Each
        # component block of a set is factored at most once, in stacked SVD
        # calls: with vectors where the check reads the set's bases (the
        # rll reference, the tv-reduce families), values alone where it
        # reads only the rank (the relations set).  The first sets of
        # span_bound (the rll defect sets, the TV relations) are not
        # factored: their rank and floor come from one values-only SVD of
        # each joint's coefficients C, and here each joint holds one of
        # their components.  A later rank factors those sets, values only,
        # and a later inclusion or gap each set without bases, with vectors.
        svd, svds = np.linalg.svd, spans._svds
        seen, products = [], []
        compared: dict[int, RelationSet] = {}

        def counting(a, *args, **kwargs):
            products.append(math.prod(a.shape[:-2]))
            return svd(a, *args, **kwargs)

        def factoring(blocks, vectors):
            seen.append((len(blocks), vectors))
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "svd", svd)
                return svds(blocks, vectors)

        def recording(fn):
            def wrapped(*args):
                for group in args:
                    compared.update((id(s), s) for s in group)
                return fn(*args)

            return wrapped

        for name in ("span_rank", "span_bound"):
            monkeypatch.setattr(checks, name, recording(getattr(checks, name)))
        monkeypatch.setattr(np.linalg, "svd", counting)
        monkeypatch.setattr(spans, "_svds", factoring)
        run_one(check, trials=1)
        assert len(compared) == sets
        cached = {id(s): vars(s).keys() & {"rank", "bases"} for s in compared.values()}
        with_vectors = [s for s in compared.values() if "bases" in cached[id(s)]]
        values_only = [s for s in compared.values() if cached[id(s)] == {"rank"}]
        unfactored = [s for s in compared.values() if not cached[id(s)]]
        assert (len(with_vectors), len(values_only), len(unfactored)) == {
            "rll": (1, 0, 2), "tv-reduce": (1, 0, 1), "relations": (0, 1, 0)
        }[check]

        def factored(calls, uv):
            return sum(count for count, v in calls if v == uv)

        def components(group):
            return sum(len(s.components) for s in group)

        for uv, group in ((True, with_vectors), (False, values_only)):
            assert factored(seen, uv) == components(group), seen
        assert sum(products) == components(unfactored)
        done = len(seen)
        ranks = span_rank(compared.values())
        assert factored(seen[done:], False) == components(unfactored)
        done = len(seen)
        for a in compared.values():
            for b in compared.values():
                span_equal([a], [b], 1e-8)
                span_gap([a], [b])
                span_bound([a], [b])
            span_rank([a])
        later = seen[done:]
        assert span_rank(compared.values()) == ranks
        assert factored(later, False) == 0, later
        assert factored(later, True) == components(values_only + unfactored), later


def draws_of(check: str, count: int, **kw) -> tuple[CheckConfig, list, EllipticContext]:
    """The effective config, the first ``count`` draws and the context of a
    check, as ``run_single`` makes them."""
    cfg = checks._effective_config(CheckConfig(check=check, **kw), check)
    ctx = EllipticContext(cfg.tau)
    spec = checks._RUNNERS[check].spec(cfg)
    seeds = (checks._trial_seed(cfg.seed, check, t) for t in range(count))
    return cfg, [sample_params(seed, spec, ctx) for seed in seeds], ctx


def same_bits(a: RelationSet, b: RelationSet) -> bool:
    return (
        len(a.blocks) == len(b.blocks)
        and all(
            np.array_equal(ra, rb) and np.array_equal(ca, cb)
            for (ra, ca), (rb, cb) in zip(a.components, b.components)
        )
        and all(np.array_equal(x.view(float), y.view(float)) for x, y in zip(a.blocks, b.blocks))
    )


class TestTrialBatches:
    def test_batched_relations_equal_single_trials_bit_for_bit(self):
        # At (3, 2) ten trials make family-1 coefficient arrays of 0.47 MB,
        # past the 256 KB from which numpy may multiply into a temporary in
        # place; the builds take every product between named arrays.
        cfg, draws, ctx = draws_of("relations", 10, n=3, m=2)
        assert checks.batch_size(cfg, "relations") < 10
        run = checks._RUNNERS["relations"].run
        assert run(cfg, draws, ctx) == [run(cfg, [d], ctx)[0] for d in draws]
        params = [p for p, _ in draws]
        batch = relation_vectors_reference(3, 2, params, ctx)
        assert all(
            same_bits(b, *relation_vectors_reference(3, 2, [p], ctx)) for b, p in zip(batch, params)
        )

    @pytest.mark.parametrize("tau", [0.3 + 0.8j, 5.3 + 0.3j], ids=["default-tau", "skew-tau"])
    @pytest.mark.parametrize(
        "check, n, m",
        [
            ("relations", 2, 2),
            ("relations", 3, 2),
            ("tv-reduce", 1, 2),
            ("tv-reduce", 1, 3),
            ("ybe", 3, 1),
            ("dybe-felder", 1, 3),
            ("dybe-slnm", 2, 2),
            # one batch, contracted one trial at a time
            ("dybe-slnm", 3, 2),
            ("fay", 1, 1),
            ("sklyanin-rep", 3, 1),
            ("bb-reduce", 3, 1),
            ("rll", 2, 2),
            # three trials a batch
            ("rll", 2, 3),
            ("rll", 3, 1),
            ("rll", 1, 3),
        ],
    )
    def test_reports_equal_batches_of_one(self, monkeypatch, check, n, m, tau):
        cfg = CheckConfig(check=check, n=n, m=m, tau=tau, trials=10)
        batched = render_json(run_check(cfg))
        assert checks.batch_size(checks._effective_config(cfg, check), check) > 1
        monkeypatch.setattr(checks, "_BATCH_TERMS", 1)
        assert render_json(run_check(cfg)) == batched

    def test_pole_trials_are_split_out_of_their_batch(self):
        # One batch of 5 holds trials 5 and 6, and another trial 13; every
        # other trial keeps the rank and residual it has on its own.
        rep = run_one("relations", n=3, m=2, tau=5.3 + 0.3j, trials=20)
        assert checks.batch_size(CheckConfig("relations", n=3, m=2), "relations") == 5
        assert [t for t, r in enumerate(rep.residuals) if r is None] == [5, 6, 13]
        assert set(rep.finite) == {0.0} and rep.rank == 630

    def test_skew_tau_null_trials_keep_their_positions(self, monkeypatch):
        # At tau = 5.3+0.3i the default 20 trials hold null trials in four
        # of the kernel checks; batches that raise are split until the
        # failing trials stand alone, so each null stays where it was.
        cfg = CheckConfig(check="all", tau=5.3 + 0.3j)
        checks_ = ("ybe", "dybe-felder", "dybe-slnm", "fay", "sklyanin-rep", "bb-reduce")

        def nulls():
            reports = [run_check(replace(cfg, check=c)).reports[0] for c in checks_]
            return {r.check: [t for t, v in enumerate(r.residuals) if v is None] for r in reports}

        batched = nulls()
        assert batched == {
            "ybe": [0],
            "dybe-felder": [],
            "dybe-slnm": [1, 11],
            "fay": [],
            "sklyanin-rep": [13],
            "bb-reduce": [12],
        }
        monkeypatch.setattr(checks, "_BATCH_TERMS", 1)
        assert all(checks.batch_size(cfg, c) == 1 for c in checks_)
        assert nulls() == batched

    def test_rll_skew_tau_null_trials_keep_their_positions(self, monkeypatch):
        # rll batches 16 trials at (2, 2), 3 at (2, 3) and 14 at (3, 1); a
        # batch that raises is split until the failing trials stand alone
        cfg = CheckConfig(check="rll", tau=5.3 + 0.3j)
        sizes = ((2, 2), (2, 3), (3, 1))

        def nulls():
            reports = [run_check(replace(cfg, n=n, m=m)).reports[0] for n, m in sizes]
            return [[t for t, v in enumerate(r.residuals) if v is None] for r in reports]

        batched = nulls()
        assert batched == [[0, 2, 11, 16], [0, 3, 5, 6, 13, 17], [2, 13, 14]]
        monkeypatch.setattr(checks, "_BATCH_TERMS", 1)
        assert nulls() == batched

    def test_exchange_contraction_stays_within_one_trials_peak(self):
        # Ten (3, 2) trials build together, and their sector contraction
        # runs in chunks of its own budget: they peak below the 2.8 MiB
        # that one trial traced when each trial was built and contracted
        # alone on the dense three-site sides.  A batch, sized by the
        # trials' R-matrix stacks, holds five of them.
        cfg, draws, ctx = draws_of("dybe-slnm", 10, n=3, m=2)
        assert checks.batch_size(cfg, "dybe-slnm") == 5
        run = checks._RUNNERS["dybe-slnm"].run
        run(cfg, draws, ctx)
        tracemalloc.start()
        try:
            run(cfg, draws, ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.8 * 2**20

    def test_a_batch_is_sized_by_the_stacks_it_holds(self):
        # A dybe-slnm trial at (2, 6) holds 3 (m + 1) (mn)^4 = 435,456
        # stack entries, over the batch budget: twelve trials run one at a
        # time and peak as one does, where batches of six peaked at 3.6x.
        def peak(trials):
            cfg = CheckConfig("dybe-slnm", n=2, m=6, trials=trials)
            tracemalloc.start()
            try:
                checks.run_single(cfg, "dybe-slnm", EllipticContext(cfg.tau))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # the sector plan is cached, out of both readings
        assert peak(12) <= 1.5 * peak(1)

    def test_a_large_trial_runs_alone(self):
        assert checks.batch_size(CheckConfig("relations", n=6, m=2), "relations") == 1
        assert checks.batch_size(CheckConfig("relations", n=2, m=2), "relations") >= 10
        assert checks.batch_size(CheckConfig("tv-reduce", n=1, m=2), "tv-reduce") >= 10
        assert checks.batch_size(CheckConfig("rll", n=3, m=2), "rll") == 1
        assert checks.batch_size(CheckConfig("rll", n=2, m=2), "rll") >= 10


class TestReductionChecks:
    def test_tv_reduce_pins_n(self):
        rep = run_one("tv-reduce", n=3, m=2)
        assert rep.n == 1 and rep.m == 2
        assert rep.passed and rep.rank == 6

    def test_bb_reduce_pins_m(self):
        rep = run_one("bb-reduce", n=3, m=3)
        assert rep.n == 3 and rep.m == 1
        assert rep.passed

    def test_tv_reduce_trivial_m(self):
        rep = run_one("tv-reduce", m=1)
        assert rep.passed and rep.rank == 0


class TestAllAndReports:
    def test_all_runs_every_check_in_order(self):
        run = run_check(CheckConfig(check="all", trials=1))
        assert tuple(r.check for r in run.reports) == CHECK_NAMES
        assert run.passed

    def test_check_names_are_append_only(self):
        # A check's index seeds its trials (and bench/tracer.py keeps its own
        # copy of these names), so a new check goes after these, in order.
        assert CHECK_NAMES[:9] == (
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

    def test_subcheck_of_all_matches_standalone(self):
        whole = run_check(CheckConfig(check="all", trials=2))
        solo = run_check(CheckConfig(check="dybe-slnm", trials=2))
        inside = next(r for r in whole.reports if r.check == "dybe-slnm")
        assert inside.residuals == solo.reports[0].residuals

    def test_report_aggregates(self):
        rep = CheckReport(
            check="ybe", n=2, m=1, tol=1e-9,
            residuals=(1e-12, 3e-12, None), rank=None, runtime_ms=5.0,
        )
        assert rep.max_residual == 3e-12
        assert rep.mean_residual == pytest.approx(2e-12)
        assert not rep.passed  # the None trial taints the run

    def test_render_json_is_canonical(self):
        run = run_check(FAST)
        text = render_json(run)
        assert text.endswith("\n")
        data = json.loads(text)
        assert data["schema"] == "ellrmx-report/1"
        assert data["generator"] == "numpy-pcg64"
        assert data["runtime_ms"] is None
        assert data["checks"][0]["runtime_ms"] is None
        assert len(data["checks"][0]["residuals"]) == FAST.trials
        assert json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n" == text

    def test_config_echo_round_trip(self):
        cfg = CheckConfig(check="ybe", n=3, m=1, hbar=0.2 + 0.1j, trials=2, seed=9)
        data = run_dict(run_check(cfg))
        echo = data["config"]
        assert echo["n"] == 3 and echo["m"] == 1
        assert echo["hbar"] == [0.2, 0.1]
        assert echo["seed"] == 9
        assert data["check"] == "ybe"

    def test_repeat_runs_identical(self):
        cfg = CheckConfig(check="dybe-felder", trials=3, seed=5)
        assert run_dict(run_check(cfg)) == run_dict(run_check(cfg))

    # Pinned on numpy 2.4.6 with OpenBLAS on one thread.  Any change to a
    # residual, rank, null trial or config key of the default report moves
    # the digest; so may another numpy or BLAS build.
    @pytest.mark.parametrize(
        ("tau", "digest"),
        [
            (0.3 + 0.8j, "882345e20bf01ec821f15cade22494a38339d57c10582501053d3a95085e8706"),
            (5.3 + 0.3j, "9b04e84962a441ac7b8caeeb030ef502f6a91442935ccdb716d1ce775c5af0ce"),
        ],
        ids=["default-tau", "skew-tau"],
    )
    def test_default_report_is_pinned(self, tau, digest):
        text = render_json(run_check(CheckConfig(check="all", tau=tau)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    # Pinned like the default reports.  A mismatch names the corner whose
    # residuals, ranks or null trials moved.
    @pytest.mark.parametrize(
        ("check", "n", "m", "tau", "digest"),
        [
            (check, n, m, tau, digest)
            for check, n, m, *digests in CORNERS
            for tau, digest in zip((0.3 + 0.8j, 5.3 + 0.3j), digests)
        ],
        ids=[
            f"{check}-{n}x{m}-{tau}"
            for check, n, m, *_ in CORNERS
            for tau in ("default-tau", "skew-tau")
        ],
    )
    def test_corner_report_is_pinned(self, check, n, m, tau, digest):
        cfg = CheckConfig(check=check, n=n, m=m, tau=tau, trials=4)
        assert hashlib.sha256(render_json(run_check(cfg)).encode()).hexdigest() == digest
