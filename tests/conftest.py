"""Shared pytest wiring.

Each acceptance test records one pass/fail line through record(); the
terminal-summary hook replays them in a dedicated section so the verdicts
stay visible even when pytest captures stdout. The hull_builds fixture
counts the convex hulls bodies builds, and lp_calls the linear programs
it solves. tools/ is put on the import path, so tests import the
calibration table of tools/replicates.py.
"""

import sys
from pathlib import Path

import pytest

from intgeo import bodies as bd
from intgeo import linprog

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

_ACCEPTANCE_LINES = []


@pytest.fixture
def hull_builds(monkeypatch):
    """A list that gains the name of each bodies.planar_hull or bodies.qhull
    call made while the test runs."""
    calls = []
    for name in ("planar_hull", "qhull"):
        build = getattr(bd, name)
        monkeypatch.setattr(bd, name,
                            lambda P, name=name, build=build: calls.append(name) or build(P))
    return calls


@pytest.fixture
def lp_calls(monkeypatch):
    """A list that gains one entry per linprog.solve_lp call made while the
    test runs (bodies and linprog's own helpers look it up on the module)."""
    calls = []
    solve = linprog.solve_lp
    monkeypatch.setattr(linprog, "solve_lp", lambda *a, **k: calls.append(1) or solve(*a, **k))
    return calls


def record(line):
    _ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
