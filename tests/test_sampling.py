"""Seeded rejection sampling: determinism and constraint satisfaction."""

import hashlib

import numpy as np
import pytest

from ellrmx import sampling
from ellrmx.checks import (
    CHECK_NAMES,
    _RUNNERS,
    CheckConfig,
    ConfigError,
    _effective_config,
    _trial_seed,
)
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


# The sha256 of the repr of each check's first three (params, zs) draws at
# its effective configuration and the default seed, per (n, m) in
# DRAW_SIZES and tau in DRAW_TAUS, in that order.  Sizes that ``validate``
# refuses would be skipped; none of these is.  The reports pin only some
# checks at some sizes; this table pins every check's sampling shape and
# pole constraints.
DRAW_SIZES = ((3, 1), (1, 3), (3, 2))
DRAW_TAUS = (0.3 + 0.8j, 5.3 + 0.3j)
DRAW_DIGESTS = {
    "ybe": (
        "a4c9dfad900c897d2019b24e2caecd24a5ec8c10489f0d455d98e13b5ca13b3c",
        "8299eedab57279a011bbeb870392e47fa431758d2c48815607eb212cf319b278",
        "a4c9dfad900c897d2019b24e2caecd24a5ec8c10489f0d455d98e13b5ca13b3c",
        "8299eedab57279a011bbeb870392e47fa431758d2c48815607eb212cf319b278",
        "a4c9dfad900c897d2019b24e2caecd24a5ec8c10489f0d455d98e13b5ca13b3c",
        "8299eedab57279a011bbeb870392e47fa431758d2c48815607eb212cf319b278",
    ),
    "dybe-felder": (
        "4c52d24f19229c89b7e5e8fb5782e93a9de72a6316f882ecc26b11b535909937",
        "ba99b947be4ea4013898541b257c68e00298fd31b7f122746a85d761b9331ceb",
        "65245bdfa66dde12348c473d2d4618cfa27f11f07bff7ff3fbfd1b10903befe0",
        "aefb0308a5f3885b9c47636639c9941f30364f17f4b55479618926e921f0e879",
        "eff80c2168c30ad9720e35e098ee2afbe16a001f47efe9e08fede7b5d7730b24",
        "aaf401672e1fd3e061b370761beaa2760d139eaad681a43cb4a8f250b443e171",
    ),
    "dybe-slnm": (
        "add236fbdcd61f1a26289abfc4eb3c2e861042b5d40ba67074c05e2a6dec1b4b",
        "c0d07eaad396f1e2196289c15b645edf8ae336b8f22d3ad379a42bcb36cf2d3d",
        "e4ae1d8548c943b6f606484cc784420c21922fb0f487cb79a72f93d9a1b9a334",
        "24bee36ba78ab0ff95d0bb7251ed10bfe9b50df5804f06946f52d3df9033f788",
        "3864db9fb37a365d653474db416fb96653c43265a3b5817d19a581df776a380d",
        "40be3d6e097e4797bbdfb833ff26323ed97951b86f3ffe713fb1d8aa6c0eda8e",
    ),
    "rll": (
        "dcdb6e41b63b014d7db45d237797d1e810483a3442d3ffb41039a405bef99cfc",
        "918a7696e5dce2c9a37458208eb11692230bbd14b3630ff25c7bddfd561b122d",
        "75d13bbde68651a1dd459db02b1d130e37c3ac693d75fe1e8cf0dc9a6e7125bd",
        "61414fd0e914dc53fb169b1f78cbf98a4a119ba54603b0f9629cb1eebfcd30a2",
        "1c875dc88b0e96115d67ceca0357cd4e90a46b2682c7b4ca5b3c7cb6fefde6ac",
        "be2d1deee69ad3ac25c8a1a5bba1dc892f803dbc5a70e23c78e244a427c7ae80",
    ),
    "relations": (
        "2932a0a88f82df8f65112c20e8382cea3fda8bd25c6696deb0f208cf3f95309c",
        "93281801907bdd0282b947d35eccae3bab39f0a89796a815a0df13a9f15afa45",
        "1a4e650b60d128a9ad24ba0e823884d039a67c660e1a9d3c416ff8a13a407c3e",
        "60273efa396644a53fd6a4d52e973807c14066fa8b7bcf915e5100415b806d5f",
        "de777bf4bc19e3a54d36c030f91df4e7cceafc6831eaab3af7275eb0b461d6ac",
        "1277b877011605911a0b54e0b7f2dba7231b017fb375ef106c97c2cb499a3eea",
    ),
    "fay": (
        "b75448cd4d12966414047296f136d3905ab5bc101f3bdbfbe520dfc5401fbc19",
        "69c0f7949403bdfcef4236b6d0d347c9446727949334cd62d57024518aa7c334",
        "b75448cd4d12966414047296f136d3905ab5bc101f3bdbfbe520dfc5401fbc19",
        "69c0f7949403bdfcef4236b6d0d347c9446727949334cd62d57024518aa7c334",
        "b75448cd4d12966414047296f136d3905ab5bc101f3bdbfbe520dfc5401fbc19",
        "69c0f7949403bdfcef4236b6d0d347c9446727949334cd62d57024518aa7c334",
    ),
    "sklyanin-rep": (
        "6c17834a4903887945a69bf0365a12940c2709bf3695e1a227d6b8a159882994",
        "ed938078654dcc8b1ad1612be27997139b208491815bf573e061168a16bff7a5",
        "6c17834a4903887945a69bf0365a12940c2709bf3695e1a227d6b8a159882994",
        "ed938078654dcc8b1ad1612be27997139b208491815bf573e061168a16bff7a5",
        "6c17834a4903887945a69bf0365a12940c2709bf3695e1a227d6b8a159882994",
        "ed938078654dcc8b1ad1612be27997139b208491815bf573e061168a16bff7a5",
    ),
    "tv-reduce": (
        "f3a7dfad1103a8f4aecc20002bfa58f5d0a67f1f463a0b3922b8b8d779197a55",
        "43815f6eab05a1ac1aca054d9498f8551db9e920237cb831312aa68db942e7af",
        "e20c65885873f7b78d7973a9c3a123e0f30239c754dbc3f5ec00062df2b2693e",
        "54d9b38eb2d2c1d6d29a886f7779567cf524af28339743dcf509f1988ca0d176",
        "de1aa2582a61fd14bafeebce4d181099705e7b965b19e7f4545fea4f4df20926",
        "f7485b5e9f19ab71a8f92fd6d60159f8f2c1562222e8421503a1cf47c8585dbb",
    ),
    "bb-reduce": (
        "a1ecf1f08bd83c26f40d8093256c6f0c211a01f68f5909d21babd4eb8d76c2e1",
        "9039712ae5f6b2b3c528d42758ac2cf55adc81c58100388832bda490cb193bed",
        "a1ecf1f08bd83c26f40d8093256c6f0c211a01f68f5909d21babd4eb8d76c2e1",
        "9039712ae5f6b2b3c528d42758ac2cf55adc81c58100388832bda490cb193bed",
        "a1ecf1f08bd83c26f40d8093256c6f0c211a01f68f5909d21babd4eb8d76c2e1",
        "9039712ae5f6b2b3c528d42758ac2cf55adc81c58100388832bda490cb193bed",
    ),
}


@pytest.mark.parametrize(
    ("check", "n", "m", "tau", "digest"),
    [
        (check, n, m, tau, digests[2 * k + t])
        for check, digests in DRAW_DIGESTS.items()
        for k, (n, m) in enumerate(DRAW_SIZES)
        for t, tau in enumerate(DRAW_TAUS)
    ],
    ids=[
        f"{check}-{n}x{m}-{tau}"
        for check in DRAW_DIGESTS
        for n, m in DRAW_SIZES
        for tau in ("default-tau", "skew-tau")
    ],
)
def test_first_draws_are_pinned(check, n, m, tau, digest):
    cfg = CheckConfig(check, n=n, m=m, tau=tau)
    try:
        cfg.validate()
    except ConfigError:
        pytest.skip(f"{check} refuses n={n} m={m}")
    spec, ctx = _RUNNERS[check].spec(_effective_config(cfg, check)), EllipticContext(tau)
    draws = [sample_params(_trial_seed(cfg.seed, check, t), spec, ctx) for t in range(3)]
    assert hashlib.sha256(repr(draws).encode()).hexdigest() == digest


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
