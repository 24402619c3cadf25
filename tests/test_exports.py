"""The package namespace: every name in quasieq.__all__ is defined, once."""

import quasieq


def test_every_export_resolves():
    assert [name for name in quasieq.__all__ if not hasattr(quasieq, name)] == []


def test_no_duplicate_exports():
    assert len(set(quasieq.__all__)) == len(quasieq.__all__)


def test_star_import():
    namespace = {}
    exec("from quasieq import *", namespace)
    assert set(quasieq.__all__) <= namespace.keys()
