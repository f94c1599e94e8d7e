"""Exact integer q-expansions: Eisenstein series, the discriminant, products.

Only q-expansions are used; no modular transformation theory.  The available
named series are the reference combinations the theta tables are checked
against.  Note: the weight-4 Eisenstein combination matching the octahedral
shell generating function 1 + 48q + 624q^2 + ... is (E4(z) + 4 E4(2z))/5.

The module imports nothing: every CLI call reads QSERIES_NAMES to build its
parser.  `orders` takes `sigma` from here.
"""

from __future__ import annotations

QSERIES_NAMES = (
    "E2",
    "E4",
    "Delta",
    "E4Delta",
    "DeltaPlus64Delta2",
    "Theta2T1",
    "Theta2O1",
    "Theta2I1",
)


def sigma(k: int, m: int) -> int:
    """Divisor power sum sigma_k(m) = sum_{d | m} d^k."""
    if m < 1:
        raise ValueError("sigma requires m >= 1")
    total = 0
    d = 1
    while d * d <= m:
        if m % d == 0:
            total += d**k
            e = m // d
            if e != d:
                total += e**k
        d += 1
    return total


def e2(n: int) -> list[int]:
    """E2 = 1 - 24 sum sigma_1(m) q^m."""
    return [1] + [-24 * sigma(1, m) for m in range(1, n + 1)]


def e4(n: int) -> list[int]:
    """E4 = 1 + 240 sum sigma_3(m) q^m."""
    return [1] + [240 * sigma(3, m) for m in range(1, n + 1)]


def delta(n: int) -> list[int]:
    """Delta = q prod_{k>=1} (1 - q^k)^24, truncated exactly."""
    prod = [0] * (n + 1)
    prod[0] = 1
    for k in range(1, n + 1):
        for _ in range(24):
            # multiply by (1 - q^k) in place
            for i in range(n, k - 1, -1):
                prod[i] -= prod[i - k]
    out = [0] * (n + 1)
    for i in range(1, n + 1):
        out[i] = prod[i - 1]
    return out


def dilate(series: list[int], factor: int) -> list[int]:
    out = [0] * len(series)
    for k, c in enumerate(series):
        if k * factor >= len(series):
            break
        out[k * factor] = c
    return out


def mul(a: list[int], b: list[int]) -> list[int]:
    n = min(len(a), len(b)) - 1
    out = [0] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        for j in range(0, n + 1 - i):
            if b[j]:
                out[i + j] += ai * b[j]
    return out


def qseries(name: str, n: int) -> list[int]:
    """Named exact q-expansion with integer coefficients up to q^n."""
    if name == "E2":
        return e2(n)
    if name == "E4":
        return e4(n)
    if name == "Delta":
        return delta(n)
    if name == "E4Delta":
        return mul(e4(n), delta(n))
    if name == "DeltaPlus64Delta2":
        d = delta(n)
        d2 = dilate(d, 2)
        return [a + 64 * b for a, b in zip(d, d2)]
    if name == "Theta2T1":
        # 2 E2(2z) - E2(z) = 1 + 24 sum (sigma_1(m) - 2 sigma_1(m/2)) q^m
        base = e2(n)
        two_dil = dilate(base, 2)
        return [2 * a - b for a, b in zip(two_dil, base)]
    if name == "Theta2O1":
        # (E4(z) + 4 E4(2z))/5; the published 5E4(z) - 4E4(2z) does not
        # reproduce the printed coefficients 1 + 48q + ...
        base = e4(n)
        dil = dilate(base, 2)
        out = []
        for a, b in zip(base, dil):
            v, r = divmod(a + 4 * b, 5)
            if r:
                raise AssertionError("Theta2O1 coefficient not integral")
            out.append(v)
        return out
    if name == "Theta2I1":
        return e4(n)
    raise ValueError(f"unknown q-series {name!r}; known: {QSERIES_NAMES}")
