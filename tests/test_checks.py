"""Check orchestration: configs, recipes, reports, canonical JSON."""

import hashlib
import json

import numpy as np
import pytest

from ellrmx import checks
from ellrmx.checks import (
    CHECK_NAMES,
    CheckConfig,
    CheckReport,
    ConfigError,
    render_json,
    run_check,
    run_dict,
)
from ellrmx.ncalgebra import RelationSet, span_equal, span_gap, span_rank

FAST = CheckConfig(check="fay", trials=3)


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

    def test_tau_floor_enforced(self):
        with pytest.raises(ConfigError, match="convergence floor"):
            CheckConfig(check="ybe", tau=0.5 + 0.1j).validate()

    def test_positive_tolerance_required(self):
        with pytest.raises(ConfigError, match="positive"):
            CheckConfig(check="ybe", tol=0.0).validate()

    def test_at_least_one_trial(self):
        with pytest.raises(ConfigError, match="trial"):
            CheckConfig(check="ybe", trials=0).validate()

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
    def test_three_by_two_rank(self, check):
        rep = run_one(check, n=3, m=2, trials=1)
        assert rep.passed and rep.max_residual < 1e-12
        assert rep.rank == 630

    def test_rll_three_by_three_rank(self):
        rep = run_one("rll", n=3, m=3, trials=1)
        assert rep.passed and rep.rank == 3240

    @pytest.mark.parametrize("check, sets", [("rll", 3), ("tv-reduce", 2), ("relations", 1)])
    def test_each_relation_set_is_decomposed_once(self, monkeypatch, check, sets):
        # rll holds two defect sets and the reference set, tv-reduce the
        # families and the TV relations: one SVD per component of each set,
        # shared by every rank, inclusion and gap computed from it.
        svd = np.linalg.svd
        seen = []
        compared: dict[int, RelationSet] = {}

        def counting(*args, **kwargs):
            seen.append(args[0].shape)
            return svd(*args, **kwargs)

        def recording(fn):
            def wrapped(*args):
                compared.update((id(a), a) for a in args if isinstance(a, RelationSet))
                return fn(*args)

            return wrapped

        for name in ("span_rank", "span_equal", "span_gap"):
            monkeypatch.setattr(checks, name, recording(getattr(checks, name)))
        monkeypatch.setattr(np.linalg, "svd", counting)
        run_one(check, trials=1)
        assert len(compared) == sets
        assert len(seen) == sum(len(s.components) for s in compared.values()), seen
        done = len(seen)
        for a in compared.values():
            span_rank(a)
            for b in compared.values():
                span_equal(a, b, 1e-8)
                span_gap(a, b)
        assert len(seen) == done


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
            (0.3 + 0.8j, "799fdd73de7e7a47c0fe33534255e9dd75019497398c6a08451b13ab1701b937"),
            (5.3 + 0.3j, "10adf3fa83653dd44c6cfd6bb53d773af0c3412fc904afa256c0ffc775daba2f"),
        ],
        ids=["default-tau", "skew-tau"],
    )
    def test_default_report_is_pinned(self, tau, digest):
        text = render_json(run_check(CheckConfig(check="all", tau=tau)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
