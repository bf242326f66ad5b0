"""The package's export list: ``__init__`` names each export twice, in its
imports and in ``__all__``, and the two must agree.  And the integer rule
for counts, seeds and state numbers has one owner, ``optics.as_integer``."""

import re
import types
from pathlib import Path

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


def test_integer_rule_has_one_owner():
    # A second hand-written integer test drifts from the first in bounds
    # and message; every entry calls the owner instead.
    sources = Path(udiscrim.__file__).parent.glob("*.py")
    users = sorted(p.name for p in sources if re.search(r"\bIntegral\b", p.read_text()))
    assert users == ["optics.py"]
