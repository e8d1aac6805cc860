"""Shared test setup: make sibling helper modules importable and provide
common fixtures."""

from __future__ import annotations

import gc
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from sfdsim import SimConfig, build_baseline  # noqa: E402


@pytest.fixture(scope="session")
def baseline_spec():
    return build_baseline()


@pytest.fixture(scope="session")
def year_config():
    return SimConfig(t_end=365.0)


@pytest.fixture
def gc_off():
    """The cyclic garbage collector off for one test, so that only
    refcounting frees objects."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    import sfdsim

    return Path(sfdsim.__file__).parent / "fixtures"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo acceptance verdicts where pytest's capture cannot swallow them."""
    module = sys.modules.get("test_acceptance")
    verdicts = getattr(module, "VERDICTS", []) if module else []
    if verdicts:
        terminalreporter.section("acceptance criteria")
        for line in verdicts:
            terminalreporter.write_line(line)
