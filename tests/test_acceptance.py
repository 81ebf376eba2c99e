"""End-to-end acceptance runs: one test per advertised guarantee.

Each test draws pole-free parameters with the package sampler, evaluates
the identity it certifies at the advertised size and tolerance, and
asserts the runtime envelope.  `pytest -v` gives the per-criterion
pass/fail listing.
"""

import cmath
import itertools
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from ellrmx.checks import CheckConfig, run_check
from ellrmx.elliptic import (
    EllipticContext,
    LatticeIndex,
    fay_coincident_residual,
    fay_pair_residual,
    fay_residual,
    theta,
)
from ellrmx.ncalgebra import (
    LConvention,
    component_ratio,
    defect_factorization_check,
    relation_vectors_reference,
    rll_defect,
    span_equal,
    span_gap,
)
from ellrmx.relations import slnm_family_coeffs
from ellrmx.rmatrix import (
    dybe_residual_felder,
    felder_dynamical_l_residual,
    slnm_reduction_residual_m1,
    slnm_reduction_residual_n1,
    zero_weight_residual,
)
from ellrmx.sampling import SampleSpec, sample_params, shift_closed, within_diffs
from ellrmx.tensor import basis_t_raw, kappa_raw

TAU = 0.3 + 0.8j
CTX = EllipticContext(TAU)
ON = LConvention(exp_factor=True)


def fay_exprs(params, zs):
    z, w, x, y = zs
    for v in (z, w, x, y, z - w, x + y, x + y + z):
        yield v, 1


def plain_dynamical_exprs(params, zs):
    yield params.hbar, 1
    for v in shift_closed(within_diffs(params.q1), params.hbar, 1):
        yield v, 1
    for za, zb in itertools.combinations(zs, 2):
        yield za - zb, 1
    for z in zs:
        yield z, 1


def rll_exprs(n):
    def gen(params, zs):
        yield params.hbar, n
        for block in (params.q1, params.q2):
            for v in shift_closed(within_diffs(block), params.hbar, 2):
                yield v, n
        for i in range(0, len(zs), 2):
            yield zs[i] - zs[i + 1], 1

    return gen


def test_criterion_01_kernel_identity_and_theta_structure():
    start = time.perf_counter()
    worst_fay = 0.0
    for tau in (1j, 0.3 + 0.8j):
        ctx = EllipticContext(tau)
        spec = SampleSpec(m=1, z_count=4, expressions=fay_exprs)
        for trial in range(100):
            _, (z, w, x, y) = sample_params([101, trial], spec, ctx)
            worst_fay = max(
                worst_fay,
                fay_residual(z, w, x, y, ctx),
                fay_coincident_residual(z, x, y, ctx),
                fay_pair_residual(z, x, ctx),
            )
    worst_theta = 0.0
    for tau in (1j, 0.3 + 0.8j):
        ctx = EllipticContext(tau)
        for u in (0.17 + 0.29j, -0.33 + 0.11j, 0.52 - 0.08j):
            base = theta(u, ctx)
            parity = abs(theta(-u, ctx) + base) / max(1.0, abs(base))
            worst_theta = max(worst_theta, parity)
            for dm, dn in ((1, 0), (0, 1), (1, 1)):
                fac = (-1) ** (dm + dn) * cmath.exp(
                    -1j * math.pi * tau * dn * dn - 2j * math.pi * dn * u
                )
                gap = abs(theta(u + dm + dn * tau, ctx) - fac * base)
                worst_theta = max(worst_theta, gap / max(1.0, abs(fac * base)))
    elapsed = time.perf_counter() - start
    assert worst_fay < 1e-10, f"kernel identity residual {worst_fay:.3e}"
    assert worst_theta < 1e-12, f"theta structure residual {worst_theta:.3e}"
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"


def test_criterion_02_basis_products_exhaustive():
    start = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4):
        for a1, a2, b1, b2 in itertools.product(range(n), repeat=4):
            lhs = basis_t_raw(a1, a2, n) @ basis_t_raw(b1, b2, n)
            rhs = kappa_raw((a1, a2), (b1, b2), n) * basis_t_raw(a1 + b1, a2 + b2, n)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-13, f"basis product defect {worst:.3e}"
    assert elapsed < 1.0, f"criterion 2 took {elapsed:.2f}s"


def test_criterion_03_vertex_ybe():
    start = time.perf_counter()
    for n in (2, 3):
        run = run_check(CheckConfig(check="ybe", n=n, m=1, trials=20, seed=3))
        rep = run.reports[0]
        assert rep.passed and rep.max_residual < 1e-9, (
            f"N={n}: max residual {rep.max_residual:.3e}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"criterion 3 took {elapsed:.2f}s"


def test_criterion_04_dynamical_ybe_and_zero_weight():
    start = time.perf_counter()
    worst_dybe = 0.0
    worst_weight = 0.0
    for m in (2, 3):
        spec = SampleSpec(m=m, z_count=3, expressions=plain_dynamical_exprs)
        for trial in range(20):
            params, (z1, z2, z3) = sample_params([104, m, trial], spec, CTX)
            hbar, q = params.hbar, params.q1
            worst_dybe = max(
                worst_dybe, dybe_residual_felder(hbar, z1, z2, z3, q, CTX).residual
            )
            worst_weight = max(
                worst_weight, zero_weight_residual(hbar, z1 - z2, q, CTX)
            )
    elapsed = time.perf_counter() - start
    assert worst_dybe < 1e-9, f"dynamical YBE residual {worst_dybe:.3e}"
    assert worst_weight < 1e-12, f"zero-weight residual {worst_weight:.3e}"
    assert elapsed < 2.0, f"criterion 4 took {elapsed:.2f}s"


def test_criterion_05_composite_dynamical_ybe():
    start = time.perf_counter()
    for n, m in ((2, 2), (3, 2), (2, 3)):
        run = run_check(CheckConfig(check="dybe-slnm", n=n, m=m, trials=20, seed=5))
        rep = run.reports[0]
        assert rep.passed and rep.max_residual < 1e-9, (
            f"(N,M)=({n},{m}): max residual {rep.max_residual:.3e}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0, f"criterion 5 took {elapsed:.2f}s"


def test_criterion_06_reductions_elementwise():
    worst = 0.0
    for n in (2, 3):
        spec = SampleSpec(
            m=1, z_count=1,
            expressions=lambda p, zs, scale=n: [(p.hbar, scale), (zs[0], 1)],
        )
        for trial in range(10):
            params, (u,) = sample_params([106, n, trial], spec, CTX)
            worst = max(
                worst,
                slnm_reduction_residual_m1(params.hbar, u, params.q1[0], n, CTX),
            )
    for m in (2, 3):
        spec = SampleSpec(m=m, z_count=1, expressions=plain_dynamical_exprs)
        for trial in range(10):
            params, (u,) = sample_params([116, m, trial], spec, CTX)
            worst = max(
                worst,
                slnm_reduction_residual_n1(params.hbar, u, params.q1, CTX),
            )
    assert worst < 1e-12, f"reduction gap {worst:.3e}"


def test_criterion_07_sklyanin_representation():
    for n in (2, 3):
        run = run_check(CheckConfig(check="sklyanin-rep", n=n, m=1, trials=20, seed=7))
        rep = run.reports[0]
        assert rep.passed and rep.max_residual < 1e-9, (
            f"N={n}: max residual {rep.max_residual:.3e}"
        )


def test_criterion_08_rll_relation_equivalence():
    start = time.perf_counter()
    pairs = 5
    for n, m in ((2, 1), (1, 2), (2, 2)):
        spec = SampleSpec(
            m=m, two_sets=True, z_count=2 * pairs, expressions=rll_exprs(n)
        )
        params, zs = sample_params([108, n, m], spec, CTX)
        reference = relation_vectors_reference(n, m, params, CTX)
        defects = [
            rll_defect(n, m, params, zs[i], zs[i + 1], ON, CTX)
            for i in range(0, 2 * pairs, 2)
        ]
        for d in defects:
            ok, metric = span_equal(d, reference, 1e-8)
            assert ok, f"(N,M)=({n},{m}): span mismatch {metric:.3e}"
        for da, db in itertools.combinations(defects, 2):
            gap = span_gap(da, db)
            assert gap < 1e-8, f"(N,M)=({n},{m}): z-dependent span, gap {gap:.3e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 8 took {elapsed:.2f}s"


def test_criterion_09_defect_factorization():
    n, m = 2, 2
    pairs = 4

    def exprs(params, zs):
        yield from rll_exprs(n)(params, zs)
        for i in range(0, len(zs), 2):
            za, zb = zs[i], zs[i + 1]
            for si, sk, sj in ((0, 1, 0), (1, 0, 1)):
                yield zb + params.q2[si] - params.q1[sk], n
                yield za + params.q2[si] - params.q1[sj] + params.hbar, n

    spec = SampleSpec(m=m, two_sets=True, z_count=2 * pairs, expressions=exprs)
    params, zs = sample_params([109], spec, CTX)
    z_samples = [(zs[i], zs[i + 1]) for i in range(0, 2 * pairs, 2)]
    beta = LatticeIndex(0, 1, n)
    for idx in ((1, 1, 2), (2, 2, 1)):
        for a in ((0, 0), (0, 1), (1, 1)):
            alpha = LatticeIndex(a[0], a[1], n)
            spread = defect_factorization_check(
                *idx, alpha, beta, params, z_samples, ON, CTX
            )
            assert spread < 1e-9, f"{idx}/{a}: z-variation {spread:.3e}"
            comp = component_ratio(*idx, alpha, beta, params, *z_samples[0], ON, CTX)
            fam = slnm_family_coeffs(2, idx, alpha, beta, params, CTX).coords
            support = np.abs(fam) > 1e-12 * np.max(np.abs(fam))
            ratios = comp[support] / fam[support]
            center = ratios.mean()
            assert np.max(np.abs(ratios - center)) / abs(center) < 1e-9, (
                f"{idx}/{a}: not proportional to the family-2 vector"
            )
            assert np.max(np.abs(comp[~support])) <= 1e-9 * np.max(np.abs(comp))


def test_criterion_10_dynamical_r_as_own_l():
    worst = 0.0
    for m in (2, 3):
        spec = SampleSpec(m=m, z_count=2, expressions=plain_dynamical_exprs)
        for trial in range(20):
            params, (z1, z2) = sample_params([110, m, trial], spec, CTX)
            check = felder_dynamical_l_residual(params.hbar, z1, z2, params.q1, CTX)
            worst = max(worst, check.residual)
    assert worst < 1e-9, f"dynamical L exchange residual {worst:.3e}"


def test_criterion_11_tv_span_match():
    for m in (2, 3):
        run = run_check(CheckConfig(check="tv-reduce", m=m, trials=10, seed=11))
        rep = run.reports[0]
        g = m * m
        assert rep.passed and rep.max_residual < 1e-8, (
            f"M={m}: max residual {rep.max_residual:.3e}"
        )
        assert rep.rank == g * (g - 1) // 2


def test_criterion_12_cli_determinism_and_exit_codes(tmp_path):
    base = [sys.executable, "-m", "ellrmx.cli"]

    def run_cli(*args):
        return subprocess.run(base + list(args), capture_output=True, timeout=300)

    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (out_a, out_b):
        proc = run_cli("all", "--trials", "3", "--out", str(path))
        assert proc.returncode == 0, proc.stderr.decode()
    assert out_a.read_bytes() == out_b.read_bytes(), "reports differ between runs"
    data = json.loads(out_a.read_text())
    assert data["schema"] == "ellrmx-report/1" and data["pass"] is True
    assert len(data["checks"]) == 9

    failing = run_cli(
        "rll", "--n", "2", "--m", "1", "--trials", "1", "--l-exp-factor", "off"
    )
    assert failing.returncode == 1
    config_err = run_cli("ybe", "--n", "5", "--m", "3")
    assert config_err.returncode == 2
    sampling_err = run_cli("ybe", "--hbar", "0,0", "--trials", "1")
    assert sampling_err.returncode == 2
