"""Shared test setup: make sibling helper modules importable and provide
common fixtures."""

from __future__ import annotations

import gc
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import sfdsim.expr  # noqa: E402
import sfdsim.model  # noqa: E402
from sfdsim import SimConfig, build_baseline  # noqa: E402


@pytest.fixture(autouse=True)
def no_remembered_structure():
    """Each test starts with no structure remembered by `validate_model`,
    so what it validates, and walks, does not depend on an earlier test."""
    sfdsim.model._last = None


@pytest.fixture
def walks(monkeypatch):
    """The expressions validation walks, in the order it walks them.
    `validate_model` checks every expression through
    `expr.validate_expression`, so its calls are counted."""
    seen = []
    original = sfdsim.expr.validate_expression
    monkeypatch.setattr(sfdsim.expr, "validate_expression",
                        lambda e, *args, **kwargs: seen.append(e) or original(e, *args, **kwargs))
    return seen


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
