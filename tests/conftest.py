import pytest

from quatdesign import orders, theta, verify


@pytest.fixture
def ball_calls(monkeypatch):
    """(label, bound) of every pass over a ball made in the test, counting
    (`_count_ball`) or recording (`_enumerate_ball`), which starts on an
    empty ball cache."""
    calls = []

    def recorded(pass_over_ball):
        def recording(label, bound):
            calls.append((label, bound))
            return pass_over_ball(label, bound)
        return recording

    for name in ("_enumerate_ball", "_count_ball"):
        monkeypatch.setattr(orders, name, recorded(getattr(orders, name)))
    monkeypatch.setattr(orders, "_BALL_CACHE", {})
    return calls


@pytest.fixture
def table_builds(monkeypatch):
    """(label, ells, shells) of every batch of invariant theta tables built
    in the test, which starts on an empty rank memo."""
    calls = []
    invariant_tables = theta._invariant_tables

    def counting(label, ells, shells, budget):
        calls.append((label, tuple(ells), shells))
        return invariant_tables(label, ells, shells, budget)

    monkeypatch.setattr(theta, "_invariant_tables", counting)
    monkeypatch.setattr(theta, "_RANKS", {})
    return calls


@pytest.fixture
def reynolds_calls(monkeypatch):
    """(label, ells) of every Reynolds dimension batch computed in the test,
    through theta or verify."""
    calls = []
    invariant_dimensions = theta.invariant_dimensions

    def counting(label, ells):
        ells = tuple(ells)
        calls.append((label, ells))
        return invariant_dimensions(label, ells)

    monkeypatch.setattr(theta, "invariant_dimensions", counting)
    monkeypatch.setattr(verify, "invariant_dimensions", counting)
    return calls
