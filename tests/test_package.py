"""The package's export list: ``__init__`` names each export twice, in its
imports and in ``__all__``, and the two must agree.  And the integer rule
for counts, seeds and state numbers has one owner, ``optics.as_integer``,
as the rule for vectors of reals has ``optics.as_reals`` and the rule for
complex amplitudes ``optics.as_amplitude``.  The engine takes
no branch on the plan type, and neither does ``network``: each plan
supplies its arms and stages, and one per-port body serves both.  And the
chart writer builds each repeated SVG element, a line or a label, in one
place."""

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


def test_amplitude_rule_has_one_owner():
    # The amplitude rule, a Complex that is no bool with a finite intensity in
    # range, is optics.as_amplitude; a second "... intensity" check beside it
    # drifts from it, as the bool and the non-number once did.
    sources = sorted(Path(udiscrim.__file__).parent.glob("*.py"))
    users = [p.name for p in sources if re.search(r"\bComplex\b", p.read_text())]
    assert users == ["optics.py"]
    label = re.compile(r"""as_real\(\s*f?["'][^"']* intensity["']""")
    users = [p.name for p in sources if label.search(p.read_text())]
    assert users == ["optics.py"]


def test_vector_rule_has_one_owner():
    # A per-entry as_real loop, named "phases[{j}]" and the like, is a second
    # vector rule beside optics.as_reals; only as_reals itself writes one.
    sources = Path(udiscrim.__file__).parent.glob("*.py")
    entry = re.compile(r"""as_real\(\s*f["'][^"']*\[\{\w+\}\]["']""")
    users = sorted(p.name for p in sources if entry.search(p.read_text()))
    assert users == ["optics.py"]


def test_engine_has_no_plan_branch():
    # network.port_contributions serves every plan; a plan type named in the
    # engine is a second dispatch beside it.
    source = (Path(udiscrim.__file__).parent / "montecarlo.py").read_text()
    assert re.findall(r"\b(?:SplitterPlan|NStatePlan)\b", source) == []


def test_network_has_no_plan_branch():
    # Each plan supplies its arms and stages, so one port body serves both;
    # a type test on a plan is a second body beside it.
    source = (Path(udiscrim.__file__).parent / "network.py").read_text()
    assert re.findall(r"isinstance\([^)]*\b(?:SplitterPlan|NStatePlan|Plan)\b", source) == []
    assert udiscrim.network.nstate_port_contributions is udiscrim.network.port_contributions


def test_svg_elements_have_one_writer():
    # A second hand-written <text> template can forget to escape its label,
    # or drift from the first in font or attribute order.
    source = (Path(udiscrim.__file__).parent / "output.py").read_text()
    assert (source.count("<line"), source.count("<text")) == (1, 1)
