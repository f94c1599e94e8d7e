"""Truncated power series with exact QuadElem coefficients."""

from __future__ import annotations

from fractions import Fraction

from .exactnum import QuadElem, rat


class PowerSeries:
    """sum_{k<=N} c_k u^k, exact arithmetic modulo u^{N+1}."""

    __slots__ = ("coeffs", "truncation")

    def __init__(self, coeffs, truncation: int):
        cs = [QuadElem.coerce(c) for c in coeffs]
        if len(cs) > truncation + 1:
            cs = cs[: truncation + 1]
        while len(cs) < truncation + 1:
            cs.append(rat(0))
        self.coeffs = tuple(cs)
        self.truncation = truncation

    @staticmethod
    def one(n: int) -> "PowerSeries":
        return PowerSeries([1], n)

    @staticmethod
    def monomial(k: int, n: int, c=1) -> "PowerSeries":
        return PowerSeries([0] * k + [c], n)

    def coeff(self, k: int) -> QuadElem:
        if k < 0:
            raise IndexError(f"coefficient {k}: degrees start at 0")
        if k > self.truncation:
            raise IndexError(f"coefficient {k} beyond truncation {self.truncation}")
        return self.coeffs[k]

    def __add__(self, other):
        other = self._match(other)
        return PowerSeries(
            [a + b for a, b in zip(self.coeffs, other.coeffs)], self.truncation
        )

    def __sub__(self, other):
        other = self._match(other)
        return PowerSeries(
            [a - b for a, b in zip(self.coeffs, other.coeffs)], self.truncation
        )

    def __neg__(self):
        return PowerSeries([-c for c in self.coeffs], self.truncation)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QuadElem)):
            c = QuadElem.coerce(other)
            return PowerSeries([ci * c for ci in self.coeffs], self.truncation)
        other = self._match(other)
        n = self.truncation
        out = [rat(0)] * (n + 1)
        for i, ci in enumerate(self.coeffs):
            if ci.is_zero():
                continue
            for j in range(0, n + 1 - i):
                cj = other.coeffs[j]
                if not cj.is_zero():
                    out[i + j] = out[i + j] + ci * cj
        return PowerSeries(out, n)

    __rmul__ = __mul__

    def dilate(self, factor: int) -> "PowerSeries":
        """Substitute u -> u^factor (coefficient reindexing k -> factor*k)."""
        out = [rat(0)] * (self.truncation + 1)
        for k, c in enumerate(self.coeffs):
            if k * factor > self.truncation:
                break
            out[k * factor] = c
        return PowerSeries(out, self.truncation)

    def rational_coeffs(self) -> list[Fraction]:
        bad = [k for k, c in enumerate(self.coeffs) if not c.is_rational()]
        if bad:
            raise ValueError(f"irrational series coefficient at u^{bad[0]}")
        return [c.a for c in self.coeffs]

    def zero_coefficient_degrees(self, parity=None) -> list[int]:
        out = []
        for k, c in enumerate(self.coeffs):
            if k == 0:
                continue
            if parity is not None and k % 2 != parity:
                continue
            if c.is_zero():
                out.append(k)
        return out

    def _match(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            raise TypeError("expected a PowerSeries")
        if other.truncation != self.truncation:
            raise ValueError("truncation orders differ")
        return other

    def __eq__(self, other):
        return (
            isinstance(other, PowerSeries)
            and self.truncation == other.truncation
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[: min(8, len(self.coeffs))])
        return f"PowerSeries([{head}, ...], N={self.truncation})"


def geometric_like(numerator_exps, denominator_exps, n: int) -> PowerSeries:
    """Expand prod(1 + u^a) / prod(1 - u^b) exactly to order n.

    Used for the closed-form Molien series of Table-style data:
    (1 + u^a) / ((1 - u^b)(1 - u^c)).
    """
    out = PowerSeries.one(n)
    for a in numerator_exps:
        out = out * (PowerSeries.one(n) + PowerSeries.monomial(a, n))
    for b in denominator_exps:
        geo = PowerSeries([1 if k % b == 0 else 0 for k in range(n + 1)], n)
        out = out * geo
    return out
