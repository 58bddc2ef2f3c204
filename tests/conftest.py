import pytest

from cmverify.specfile import load_spec, resolve_spec_path
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


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_log.LINES:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_log.LINES:
            terminalreporter.write_line(line)
