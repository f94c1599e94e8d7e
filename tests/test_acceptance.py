"""Acceptance suite: one test per verification criterion, exact tolerances.

Each test prints its row; `quatdesign verify-paper` runs the same checks
through the same runner from the command line.  The whole module takes
seconds (the Reynolds cross-checks and the degree-24 theta probes dominate).
"""

import pytest

from quatdesign.budget import get_budget
from quatdesign.verify import ALL_CHECKS, run_check

BUDGET = get_budget("desk")

_ORDER = [cid for cid, _ in ALL_CHECKS]


@pytest.mark.parametrize("check_id", _ORDER)
def test_acceptance(check_id):
    result = run_check(check_id, BUDGET)
    print()
    print(f"criterion {1 + _ORDER.index(check_id):>2}  {result.line()}")
    # a refused or raising check fails its criterion, blocking or not
    assert result.status not in ("SKIP", "ERROR"), f"{check_id}: {result.details}"
    if result.blocking:
        assert result.passed, f"{check_id}: {result.details}"
