"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from ellrmx import ncalgebra


@pytest.fixture
def no_exp_factor(monkeypatch):
    """The wrong L-ansatz, as a negative control: every generator slot of
    :func:`ellrmx.ncalgebra.l_operator` divided by its exponential factor
    ``exp(2 pi i alpha_2 z / n)``.  The RLL relation does not close on it.
    """
    l_operator = ncalgebra.l_operator

    def patched(z, q, n, ctx):
        # alpha_2 is the generator slot mod n (generator_slot layout)
        slots = np.arange(q.m * q.m * n * n)
        return l_operator(z, q, n, ctx) / np.exp(2j * np.pi * (slots % n) * z / n)

    monkeypatch.setattr(ncalgebra, "l_operator", patched)
