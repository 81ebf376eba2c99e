"""The package namespace."""

import ellrmx


def test_every_exported_name_resolves():
    assert [name for name in ellrmx.__all__ if not hasattr(ellrmx, name)] == []
