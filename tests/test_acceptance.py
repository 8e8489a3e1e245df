"""Acceptance gate: every bundled criterion must pass inside its budget.

Each criterion runs as its own test, so pytest's durations name it, and
prints the same one-line report the CLI selftest emits.
"""

import pytest

from forcing_lab import acceptance

CRITERIA = {name: (fn, budget) for name, fn, budget in acceptance.CRITERIA}


@pytest.mark.parametrize("name", list(CRITERIA))
def test_criterion(name):
    r = acceptance.run_criterion(name, *CRITERIA[name])
    print(r.line())
    assert r.passed, r.detail
    assert r.in_budget, f"took {r.elapsed:.2f}s, budget {r.budget}s"
