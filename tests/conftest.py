import pytest

from quatdesign import orders


@pytest.fixture
def ball_calls(monkeypatch):
    """(label, bound) of every enumeration ball made in the test, which
    starts on an empty ball cache."""
    calls = []
    enumerate_ball = orders._enumerate_ball

    def counting(label, bound):
        calls.append((label, bound))
        return enumerate_ball(label, bound)

    monkeypatch.setattr(orders, "_enumerate_ball", counting)
    monkeypatch.setattr(orders, "_BALL_CACHE", {})
    return calls
