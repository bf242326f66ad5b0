"""The package's export list: ``__init__`` names each export twice, in its
imports and in ``__all__``, and the two must agree."""

import types

import udiscrim


def test_all_lists_every_public_name():
    public = {
        name for name, value in vars(udiscrim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(udiscrim.__all__) == sorted(public)
    assert len(set(udiscrim.__all__)) == len(udiscrim.__all__)


def test_star_import_binds_every_listed_name():
    namespace = {}
    exec("from udiscrim import *", namespace)
    assert set(udiscrim.__all__) <= namespace.keys()
