"""The package's export list: every name in ``__all__`` is importable."""

import funwill


def test_every_exported_name_resolves():
    missing = [name for name in funwill.__all__ if not hasattr(funwill, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from funwill import *", namespace)
    assert set(funwill.__all__) <= set(namespace)
