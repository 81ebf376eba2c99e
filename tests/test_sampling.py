"""Seeded rejection sampling: determinism and constraint satisfaction."""

import numpy as np
import pytest

from ellrmx import sampling
from ellrmx.checks import CHECK_NAMES, _RUNNERS, CheckConfig, _effective_config, _trial_seed
from ellrmx.elliptic import DELTA_MIN, EllipticContext, lattice_distance
from ellrmx.rmatrix import DynamicalParams
from ellrmx.sampling import (
    SampleSpec,
    SamplingError,
    admissible,
    sample_params,
    shift_closed,
    within_diffs,
)

TAU = 0.3 + 0.8j
CTX = EllipticContext(TAU)


def hbar_and_diffs(params, zs):
    yield params.hbar, 2
    for v in shift_closed(within_diffs(params.q1), params.hbar, 2):
        yield v, 2
    if params.q2 is not None:
        for v in shift_closed(within_diffs(params.q2), params.hbar, 2):
            yield v, 2
    for z in zs:
        yield z, 1


class TestDeterminism:
    def test_same_seed_same_draw(self):
        spec = SampleSpec(m=2, two_sets=True, z_count=3)
        a = sample_params(7, spec, CTX)
        b = sample_params(7, spec, CTX)
        assert a == b

    def test_sequence_seeds_work_and_differ(self):
        spec = SampleSpec(m=1, z_count=1)
        a = sample_params([42, 3, 0], spec, CTX)
        b = sample_params([42, 3, 1], spec, CTX)
        assert a != b

    def test_different_int_seeds_differ(self):
        spec = SampleSpec(m=1, z_count=2)
        assert sample_params(1, spec, CTX) != sample_params(2, spec, CTX)


class TestShapes:
    def test_single_set_has_no_q2(self):
        params, zs = sample_params(0, SampleSpec(m=3, z_count=0), CTX)
        assert params.q2 is None
        assert len(params.q1) == 3
        assert zs == ()

    def test_two_sets_and_z_count(self):
        params, zs = sample_params(0, SampleSpec(m=2, two_sets=True, z_count=4), CTX)
        assert params.q2 is not None and len(params.q2) == 2
        assert len(zs) == 4

    def test_fixed_hbar_is_respected(self):
        want = 0.21 + 0.13j
        params, _ = sample_params(5, SampleSpec(m=1, hbar=want), CTX)
        assert params.hbar == want

    def test_draws_live_in_the_cell(self):
        params, zs = sample_params(11, SampleSpec(m=2, two_sets=True, z_count=2), CTX)
        for v in (*params.q1, *params.q2, params.hbar, *zs):
            frac = v.imag / TAU.imag
            assert 0.1 <= frac < 0.9
            assert 0.0 <= v.real - frac * TAU.real < 1.0


class TestConstraints:
    def test_accepted_sample_clears_every_expression(self):
        spec = SampleSpec(m=2, two_sets=True, z_count=2, expressions=hbar_and_diffs)
        params, zs = sample_params(3, spec, CTX)
        for expr, scale in hbar_and_diffs(params, zs):
            assert lattice_distance(scale * expr, TAU) >= scale * DELTA_MIN

    def test_refined_scale_clears_all_characteristic_offsets(self):
        spec = SampleSpec(m=1, expressions=lambda p, z: [(p.hbar, 2)])
        params, _ = sample_params(9, spec, CTX)
        for a1 in range(2):
            for a2 in range(2):
                shifted = params.hbar + (a1 + a2 * TAU) / 2
                assert lattice_distance(shifted, TAU) >= DELTA_MIN

    def test_admissible_rejects_a_pole_hugging_candidate(self):
        spec = SampleSpec(m=1, expressions=lambda p, z: [(p.hbar, 1)])
        bad = DynamicalParams((0.3 + 0.4j,), None, 1e-4 + 0j)
        assert not admissible(spec, bad, (), CTX)

    def test_infeasible_fixed_hbar_raises(self):
        spec = SampleSpec(m=1, hbar=0j, expressions=lambda p, z: [(p.hbar, 1)])
        with pytest.raises(SamplingError):
            sample_params(0, spec, CTX)


def oracle_admissible(spec, params, zs, ctx):
    """One lattice distance per expression, stopping at the first that
    fails: :func:`admissible` as a loop."""
    if spec.expressions is None:
        return True
    for expr, scale in spec.expressions(params, zs):
        if lattice_distance(scale * expr, ctx.tau) < scale * DELTA_MIN:
            return False
    return True


class TestAdmissibleOracle:
    @staticmethod
    def draws(spec, ctx):
        out = []
        for seed in range(50):
            try:
                out.append(sample_params(seed, spec, ctx))
            except SamplingError:
                out.append(None)
        return out

    @pytest.mark.parametrize("tau", [TAU, 5.3 + 0.3j])
    @pytest.mark.parametrize("check", CHECK_NAMES)
    def test_draws_match_the_per_expression_loop(self, check, tau, monkeypatch):
        ctx = EllipticContext(tau)
        spec = _RUNNERS[check].spec(_effective_config(CheckConfig(check, tau=tau), check))
        got = self.draws(spec, ctx)
        monkeypatch.setattr(sampling, "admissible", oracle_admissible)
        assert got == self.draws(spec, ctx)


# 324 seeds: edge ints, multi-word ints and sequences, and the trial seeds of every check.
ORACLE_SEEDS = [
    0,
    2**32,
    2**63 + 5,
    2**64 - 1,
    2**100 + 7,
    [2**64 - 1, 8, 100],
    [],
    [1, 2, 3, 4, 5, 6, 7],
    *range(1, 201),
    *(2**61 * k + 3 for k in range(1, 9)),
    *(_trial_seed(s, c, t) for s in (0, 42, 2**64 - 1) for c in CHECK_NAMES for t in range(4)),
]


class TestNumpyStream:
    """The in-package stream against ``numpy.random.default_rng``."""

    @pytest.mark.parametrize("chunk", range(4))
    def test_draws_equal_default_rng(self, chunk):
        # At tau = 1j a draw is exactly uniform(0, 1) + uniform(0.1, 0.9) i.
        for seed in ORACLE_SEEDS[chunk::4]:
            ours, rng = sampling._doubles(seed), np.random.default_rng(seed)
            draws = [sampling._draw(ours, 1j) for _ in range(20)]
            got = [part for z in draws for part in (z.real, z.imag)]
            want = [rng.uniform(*((0.0, 1.0), (0.1, 0.9))[k % 2]) for k in range(40)]
            assert got == want, seed

    def test_raw_doubles_equal_random(self):
        for seed in ORACLE_SEEDS[:40]:
            ours, rng = sampling._doubles(seed), np.random.default_rng(seed)
            assert [next(ours) for _ in range(10)] == list(rng.random(10)), seed

    @pytest.mark.parametrize(
        "seed, error",
        [(-1, ValueError), ([3, -2], ValueError), (1.0, TypeError), ([2, 0.5], TypeError)],
    )
    def test_bad_seeds_raise_as_seed_sequence_does(self, seed, error):
        with pytest.raises(error):
            np.random.default_rng(seed)
        with pytest.raises(error):
            sample_params(seed, SampleSpec(), CTX)

    def test_none_is_refused(self):
        # default_rng(None) would draw fresh entropy; a trial must be reproducible.
        with pytest.raises(TypeError):
            sample_params(None, SampleSpec(), CTX)


class TestHelpers:
    def test_within_diffs_unordered_pairs(self):
        assert within_diffs((1 + 0j,)) == []
        got = within_diffs((1 + 0j, 3 + 0j, 6 + 0j))
        assert got == [-2 + 0j, -5 + 0j, -3 + 0j]

    def test_shift_closed_spans_both_signs(self):
        got = shift_closed([1 + 0j], 0.5 + 0j, 2)
        assert got == [0 + 0j, 0.5 + 0j, 1 + 0j, 1.5 + 0j, 2 + 0j]
