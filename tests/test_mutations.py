"""Every check fails on a wrong program: one targeted defect per check.

Each case patches one small relative defect into the code a check
certifies, runs the check through :func:`ellrmx.checks.run_check` at
(n, m) = (2, 2) and at one other size (or the sizes a case names), the
default tau and two trials, and asserts that its verdict passes before
the defect and fails after it.  Correct runs read about 1e-14 (the ``rll``
bound up to 1e-11) against tolerances of 1e-9 (1e-8 for the span checks),
so each defect also shows that the check resolves a relative error of
1e-6.  ``fay`` draws the same arguments at every (n, m), so its second
size repeats its first.

- The Kronecker kernel scaled by 1 + 1e-6 where ``Im x > 0.3``, in every
  module that binds it.  A uniform scale would cancel in the identities;
  a scale on part of the arguments does not.
- One entry of the vertex R-matrix blocks (``rmatrix._bb_blocks``) scaled
  by 1 + 1e-6.
- 1e-6 added to one entry outside the weight/charge pattern of every
  built R-matrix (``r_bb``, ``r_felder`` and ``r_slnm``): row (0, 0),
  column (0, 1) of the pair's sites, which changes the second site's
  N-index (its M-index at n = 1).  The exchange sides meet such an entry
  only where a factor's spectator changes, as the dense sides did, and it
  moves ``dybe-slnm`` at (3, 2) by less than the tolerance; the residuals'
  lower bound, the mass of every matrix outside its pattern, fails each
  case.
- The first gamma of the Sklyanin theta prefactors scaled by 1 + 1e-6.  A
  uniform scale of E1 cancels and does not fail ``sklyanin-rep``.  The
  reference family 1 is built from the same prefactors (through
  ``sklyanin_coeffs_eta``), so ``rll`` fails at (2, 2) and (3, 1) as well.
- The first term of every relation of one reference family
  (``ncalgebra.family_terms``) scaled by 1 + 1e-6.  Both ``rll`` and
  ``relations`` read the reference set, and both fail for each family at
  (2, 2), for family 1 at (3, 1) and for families 2 and 4 at (1, 3).
- The rows of one component of every defect set dropped (through the
  ``rll_defect`` that ``checks`` binds).  The rows left lie exactly in
  the reference span, so only the rank half of the ``rll`` certificate
  sees the defect: it fails at (2, 2) and (3, 1).
- One row appended to every defect set: its first row plus 1e-7 on a
  word off the reference span, so the set's rank exceeds the reference's
  by one.  Its coefficients on the reference keep the reference's rank,
  and the bound reads the 1e-7 over their floor: it fails at (2, 2) and
  (3, 1).

``bb-reduce`` is left out: it compares the composite R-matrix at m = 1
with the vertex one, and both are built from ``_bb_blocks``, so every
defect here reaches both sides and the gap stays 0.0.  It joins the
matrix once it has an oracle that shares no code with ``r_bb`` (the
mutation-matrix item of ROADMAP.md).
"""

import numpy as np
import pytest

from ellrmx import checks, elliptic, ncalgebra, relations, rmatrix, sklyanin
from ellrmx.checks import CHECK_NAMES, CheckConfig, run_check
from ellrmx.spans import RelationSet
from support import with_excess_row

DEFECT = 1 + 1e-6


def scaled_kernel(monkeypatch):
    kernel = elliptic.kronecker_phi

    def patched(u, x, ctx):
        return kernel(u, x, ctx) * np.where(np.imag(x) > 0.3, DEFECT, 1.0)

    for module in (elliptic, relations, rmatrix):
        monkeypatch.setattr(module, "kronecker_phi", patched)


def scaled_bb_entry(monkeypatch):
    blocks = rmatrix._bb_blocks

    def patched(*args):
        out = blocks(*args).copy()
        out[..., 0, 0, 0, 0] *= DEFECT
        return out

    monkeypatch.setattr(rmatrix, "_bb_blocks", patched)


def leaked_entry(monkeypatch):
    for name in ("r_bb", "r_felder", "r_slnm"):
        build = getattr(rmatrix, name)

        def patched(*args, build=build):
            out = build(*args)
            out[..., 0, 1] += DEFECT - 1
            return out

        monkeypatch.setattr(rmatrix, name, patched)


def scaled_prefactor(monkeypatch):
    prefactors = sklyanin.theta_prefactors

    def patched(*args):
        out = prefactors(*args).copy()
        out[..., 0] *= DEFECT
        return out

    monkeypatch.setattr(sklyanin, "theta_prefactors", patched)


def scaled_family(family: int):
    """The defect that scales the first term of the reference family."""

    def defect(monkeypatch):
        terms = ncalgebra.family_terms

        def patched(which, *args):
            values, words = terms(which, *args)
            if which == family:
                values = values.copy()
                values[..., 0] *= DEFECT
            return values, words

        monkeypatch.setattr(ncalgebra, "family_terms", patched)

    return defect


def dropped_component(monkeypatch):
    """Every defect set without the rows of its first component."""
    defects = checks.rll_defect

    def patched(table):
        out = []
        for s in defects(table):
            pieces = list(zip(s.components, s.blocks))[1:]
            rows = np.concatenate([np.repeat(r, c.size) for (r, c), _ in pieces])
            words = np.concatenate([np.tile(c, r.size) for (r, c), _ in pieces])
            values = np.concatenate([block.ravel() for _, block in pieces])
            out += RelationSet.from_terms(rows, words, [values], s.size, s.width)
        return tuple(out)

    monkeypatch.setattr(checks, "rll_defect", patched)


def excess_row(monkeypatch):
    """Every defect set with one more row, about 1e-7 off the reference."""
    defects = checks.rll_defect
    monkeypatch.setattr(checks, "rll_defect", lambda t: tuple(map(with_excess_row, defects(t))))


# (check, n, m, defect): each check but bb-reduce at (2, 2) and at one
# other size (relations takes its from FAMILY_CASES); a second defect of a
# (check, n, m) is named in its id
CASES = [
    ("ybe", 2, 2, scaled_bb_entry),
    ("ybe", 3, 2, scaled_bb_entry),
    ("dybe-felder", 2, 2, scaled_kernel),
    ("dybe-felder", 3, 3, scaled_kernel),
    ("dybe-slnm", 2, 2, scaled_kernel),
    ("dybe-slnm", 3, 2, scaled_kernel),
    ("rll", 2, 2, scaled_kernel),
    ("rll", 2, 2, scaled_prefactor),
    ("rll", 3, 1, scaled_prefactor),
    ("relations", 2, 2, scaled_kernel),
    ("fay", 2, 2, scaled_kernel),
    ("fay", 3, 2, scaled_kernel),
    ("sklyanin-rep", 2, 2, scaled_prefactor),
    ("sklyanin-rep", 3, 2, scaled_prefactor),
    ("sklyanin-rep", 4, 2, scaled_prefactor),
    ("tv-reduce", 2, 2, scaled_kernel),
    ("tv-reduce", 2, 3, scaled_kernel),
]


# (check, n, m) that an entry leaked from the pattern fails
LEAK_CASES = [
    ("ybe", 2, 2), ("ybe", 3, 2), ("dybe-slnm", 2, 2), ("dybe-slnm", 3, 2), ("dybe-felder", 3, 3)
]


# (check, n, m, family)
FAMILY_CASES = [
    (check, n, m, family)
    for check in ("rll", "relations")
    for n, m, families in ((2, 2, (1, 2, 3, 4)), (3, 1, (1,)), (1, 3, (2, 4)))
    for family in families
]


def verdict(check: str, n: int, m: int = 2) -> bool:
    return run_check(CheckConfig(check=check, n=n, m=m, trials=2)).passed


def test_every_check_but_bb_reduce_has_a_defect():
    assert {check for check, *_ in CASES} == set(CHECK_NAMES) - {"bb-reduce"}
    other = {c for c, n, m, _ in CASES if (n, m) != (2, 2)}
    other |= {c for c, n, m, _ in FAMILY_CASES if (n, m) != (2, 2)}
    assert other == set(CHECK_NAMES) - {"bb-reduce"}


def case_id(k: int) -> str:
    check, n, m, defect = CASES[k]
    name = f"{check}-n{n}" if m == 2 else f"{check}-{n}x{m}"
    if any(case[:3] == (check, n, m) for case in CASES[:k]):
        name += f"-{defect.__name__}"
    return name


@pytest.mark.parametrize(
    "check,n,m,defect", CASES, ids=[case_id(k) for k in range(len(CASES))]
)
def test_defect_fails_the_check(monkeypatch, check, n, m, defect):
    assert verdict(check, n, m)
    defect(monkeypatch)
    assert not verdict(check, n, m)


@pytest.mark.parametrize("check,n,m", LEAK_CASES, ids=[f"{c}-{n}x{m}" for c, n, m in LEAK_CASES])
def test_leaked_entry_fails_the_exchange_check(monkeypatch, check, n, m):
    assert verdict(check, n, m)
    leaked_entry(monkeypatch)
    assert not verdict(check, n, m)


@pytest.mark.parametrize("n, m", [(2, 2), (3, 1)])
def test_dropped_defect_rows_fail_rll_on_rank_alone(monkeypatch, n, m):
    assert verdict("rll", n, m)
    dropped_component(monkeypatch)
    run = run_check(CheckConfig(check="rll", n=n, m=m, trials=2))
    [report] = run.reports
    assert not run.passed and set(report.residuals) == {2.0}
    assert report.rank < checks._flat_rank(n, m)


@pytest.mark.parametrize("n, m", [(2, 2), (3, 1)])
def test_a_defect_rank_excess_fails_rll_on_the_bound(monkeypatch, n, m):
    assert verdict("rll", n, m)
    excess_row(monkeypatch)
    run = run_check(CheckConfig(check="rll", n=n, m=m, trials=2))
    [report] = run.reports
    assert not run.passed and report.rank == checks._flat_rank(n, m)
    assert all(report.tol < r < 1 for r in report.residuals)


@pytest.mark.parametrize(
    "check,n,m,family",
    FAMILY_CASES,
    ids=[f"{c}-{n}x{m}-family{f}" for c, n, m, f in FAMILY_CASES],
)
def test_reference_family_defect_fails_the_check(monkeypatch, check, n, m, family):
    assert verdict(check, n, m)
    scaled_family(family)(monkeypatch)
    assert not verdict(check, n, m)
