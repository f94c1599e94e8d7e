import pytest

from quatdesign import orders, theta, verify


@pytest.fixture
def ball_calls(monkeypatch):
    """(label, bound) of every enumeration pass made in the test, counting
    or recording, which starts on an empty ball cache."""
    calls = []
    enumerate_ball = orders._enumerate_ball

    def counting(label, bound, **leaf):
        calls.append((label, bound))
        return enumerate_ball(label, bound, **leaf)

    monkeypatch.setattr(orders, "_enumerate_ball", counting)
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
