import sys
from collections import Counter

import pytest

from cmverify.specfile import load_spec, resolve_spec_path
from cmverify.symcore.poly import Poly, RationalFunction
from cmverify.workspace import Workspace

import _acceptance_log


def bundled(name, **options):
    """Library workspace of a bundled manifold file."""
    return Workspace(load_spec(resolve_spec_path(name)), **options)


@pytest.fixture(scope="session")
def ex3():
    return bundled("example3d")


@pytest.fixture(scope="session")
def sph():
    return bundled("sphere3")


@pytest.fixture(scope="session")
def flat():
    return bundled("flat3")


@pytest.fixture
def kernel(monkeypatch):
    """Counter of the kernel calls made since it was last cleared: value
    constructions (`__init__`), Poly products (`__mul__`), gcds and exact
    divisions."""
    poly = sys.modules["cmverify.symcore.poly"]
    counts = Counter()
    for owner, name in ((RationalFunction, "__init__"), (Poly, "__mul__"),
                        (poly, "poly_gcd"), (poly, "poly_divexact")):
        def counted(*args, _name=name, _fn=getattr(owner, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return counts


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_log.LINES:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_log.LINES:
            terminalreporter.write_line(line)
