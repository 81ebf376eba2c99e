"""Every check fails on a wrong program: one targeted defect per check.

Each case patches one small relative defect into the code a check
certifies, runs the check through :func:`ellrmx.checks.run_check` at
(n, m) = (2, 2) (or the size a case names), the default tau and two
trials, and asserts that its verdict fails.  Correct runs read about
1e-14 against tolerances of 1e-9 (1e-8 for the span checks), so each
defect also shows that the check resolves a relative error of 1e-6.

- The Kronecker kernel scaled by 1 + 1e-6 where ``Im x > 0.3``, in every
  module that binds it.  A uniform scale would cancel in the identities;
  a scale on part of the arguments does not.
- One entry of the vertex R-matrix blocks (``rmatrix._bb_blocks``) scaled
  by 1 + 1e-6.
- The first gamma of the Sklyanin theta prefactors scaled by 1 + 1e-6.  A
  uniform scale of E1 cancels and does not fail ``sklyanin-rep``.
- The first term of every relation of one reference family
  (``ncalgebra.family_terms``) scaled by 1 + 1e-6.  Both ``rll`` and
  ``relations`` read the reference set, and both fail for each family at
  (2, 2), for family 1 at (3, 1) and for families 2 and 4 at (1, 3).

``bb-reduce`` is left out: it compares the composite R-matrix at m = 1
with the vertex one, and both are built from ``_bb_blocks``, so every
defect here reaches both sides and the gap stays 0.0.  It joins the
matrix once it has an oracle that shares no code with ``r_bb`` (the
mutation-matrix item of ROADMAP.md).
"""

import numpy as np
import pytest

from ellrmx import elliptic, ncalgebra, relations, rmatrix, sklyanin
from ellrmx.checks import CHECK_NAMES, CheckConfig, run_check

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


# (check, n, defect)
CASES = [
    ("ybe", 2, scaled_bb_entry),
    ("dybe-felder", 2, scaled_kernel),
    ("dybe-slnm", 2, scaled_kernel),
    ("rll", 2, scaled_kernel),
    ("relations", 2, scaled_kernel),
    ("fay", 2, scaled_kernel),
    ("sklyanin-rep", 2, scaled_prefactor),
    ("sklyanin-rep", 3, scaled_prefactor),
    ("tv-reduce", 2, scaled_kernel),
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
    assert {check for check, _, _ in CASES} == set(CHECK_NAMES) - {"bb-reduce"}


@pytest.mark.parametrize("check,n,defect", CASES, ids=[f"{c}-n{n}" for c, n, _ in CASES])
def test_defect_fails_the_check(monkeypatch, check, n, defect):
    assert verdict(check, n)
    defect(monkeypatch)
    assert not verdict(check, n)


@pytest.mark.parametrize(
    "check,n,m,family",
    FAMILY_CASES,
    ids=[f"{c}-{n}x{m}-family{f}" for c, n, m, f in FAMILY_CASES],
)
def test_reference_family_defect_fails_the_check(monkeypatch, check, n, m, family):
    assert verdict(check, n, m)
    scaled_family(family)(monkeypatch)
    assert not verdict(check, n, m)
