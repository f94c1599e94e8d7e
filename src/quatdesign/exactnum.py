"""Exact arithmetic over Q and the real quadratic fields Q(sqrt2), Q(sqrt5).

Every scalar in this package is a :class:`QuadElem`: an element ``a + b*rho``
with rational ``a``, ``b``, where ``rho`` depends on the field tag:

* ``RAT``    -- rho absent (``b`` must be 0); plain rationals.
* ``SQRT2``  -- rho = sqrt(2),            rho^2 = 2.
* ``GOLDEN`` -- rho = tau = (1+sqrt5)/2,  rho^2 = rho + 1.

The GOLDEN basis is (1, tau) rather than (1, sqrt5) so that Z[tau] is exactly
the integer-coordinate lattice used by the shell enumeration.

All values are immutable; all operations are pure and exact.
"""

from __future__ import annotations

import re
from fractions import Fraction

RAT = "RAT"
SQRT2 = "SQRT2"
GOLDEN = "GOLDEN"

FIELD_TAGS = (RAT, SQRT2, GOLDEN)


class FieldTagMismatch(ValueError):
    """Raised when combining elements of incompatible quadratic fields."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to a rational")


class QuadElem:
    """An element a + b*rho of Q, Q(sqrt2) or Q(sqrt5), stored exactly."""

    __slots__ = ("tag", "a", "b")

    def __init__(self, tag: str, a, b=0):
        if tag not in FIELD_TAGS:
            raise ValueError(f"unknown field tag {tag!r}")
        a = _as_fraction(a)
        b = _as_fraction(b)
        if tag == RAT and b != 0:
            raise ValueError("RAT elements must have b = 0")
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, name, value):
        raise AttributeError("QuadElem is immutable")

    # -- coercion ---------------------------------------------------------

    @staticmethod
    def coerce(x, tag: str = RAT) -> "QuadElem":
        if isinstance(x, QuadElem):
            return x
        return QuadElem(tag, _as_fraction(x))

    def _join(self, other) -> tuple["QuadElem", "QuadElem", str]:
        """Promote both operands into a common field.

        Q embeds in either quadratic field, so RAT is compatible with
        everything; SQRT2 and GOLDEN are mutually incompatible.
        """
        other = QuadElem.coerce(other)
        if self.tag == other.tag:
            return self, other, self.tag
        if self.b == 0 and (self.tag == RAT or other.tag != RAT):
            return QuadElem(other.tag, self.a), other, other.tag
        if other.b == 0:
            return self, QuadElem(self.tag, other.a), self.tag
        raise FieldTagMismatch(f"cannot combine {self.tag} with {other.tag}")

    # -- ring structure ---------------------------------------------------

    def __add__(self, other):
        x, y, tag = self._join(other)
        return QuadElem(tag, x.a + y.a, x.b + y.b)

    __radd__ = __add__

    def __neg__(self):
        return QuadElem(self.tag, -self.a, -self.b)

    def __sub__(self, other):
        x, y, tag = self._join(other)
        return QuadElem(tag, x.a - y.a, x.b - y.b)

    def __mul__(self, other):
        x, y, tag = self._join(other)
        if tag == RAT:
            return QuadElem(RAT, x.a * y.a)
        if tag == SQRT2:
            # (a + b rho)(c + d rho) = (ac + 2bd) + (ad + bc) rho
            return QuadElem(tag, x.a * y.a + 2 * x.b * y.b, x.a * y.b + x.b * y.a)
        # tau^2 = tau + 1
        bd = x.b * y.b
        return QuadElem(tag, x.a * y.a + bd, x.a * y.b + x.b * y.a + bd)

    __rmul__ = __mul__

    def field_norm(self) -> Fraction:
        """Norm to Q: x * conj(x) with conj the Galois conjugate."""
        if self.tag == SQRT2:
            return self.a * self.a - 2 * self.b * self.b
        if self.tag == GOLDEN:
            return self.a * self.a + self.a * self.b - self.b * self.b
        return self.a * self.a

    def galois_conj(self) -> "QuadElem":
        """rho -> -rho for SQRT2; tau -> 1 - tau for GOLDEN."""
        if self.tag == SQRT2:
            return QuadElem(SQRT2, self.a, -self.b)
        if self.tag == GOLDEN:
            return QuadElem(GOLDEN, self.a + self.b, -self.b)
        return self

    def inverse(self) -> "QuadElem":
        n = self.field_norm()
        if n == 0:
            raise ZeroDivisionError("QuadElem inverse of zero")
        c = self.galois_conj()
        return QuadElem(self.tag, c.a / n, c.b / n)

    def __truediv__(self, other):
        x, y, _ = self._join(other)
        return x * y.inverse()

    def __rtruediv__(self, other):
        return QuadElem.coerce(other) * self.inverse()

    # -- order and equality -----------------------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def is_rational(self) -> bool:
        return self.b == 0

    def sign(self) -> int:
        """Exact sign of the real embedding (rho -> sqrt2 or (1+sqrt5)/2).

        sign(a + b*rho) reduces to comparing a^2 against rho^2 * b^2 when a
        and b have opposite signs; only rational comparisons are used.
        """
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if self.tag == GOLDEN:
            # a + b tau = (2a + b)/2 + (b/2) sqrt5
            return _sign_quadratic(2 * a + b, b, 5)
        return _sign_quadratic(a, b, 2)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if not isinstance(other, QuadElem):
            return NotImplemented
        if self.b == 0 and other.b == 0:
            return self.a == other.a
        return self.tag == other.tag and self.a == other.a and self.b == other.b

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.tag, self.a, self.b))

    def __lt__(self, other):
        x, y, _ = self._join(other)
        return (x - y).sign() < 0

    def __le__(self, other):
        x, y, _ = self._join(other)
        return (x - y).sign() <= 0

    def __gt__(self, other):
        return not self <= other

    def __repr__(self):
        if self.b == 0:
            return f"QuadElem({self.tag}, {self.a})"
        return f"QuadElem({self.tag}, {self.a}, {self.b})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        rho = "sqrt2" if self.tag == SQRT2 else "tau"
        return f"{self.a} + {self.b}*{rho}"

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {"tag": self.tag, "a": _frac_str(self.a), "b": _frac_str(self.b)}

    @staticmethod
    def from_json(obj: dict) -> "QuadElem":
        """The inverse of to_json; "a" and "b" are "p/q" strings or ints."""
        return QuadElem(obj["tag"], _json_fraction(obj["a"]), _json_fraction(obj["b"]))


def _sign_quadratic(a: Fraction, b: Fraction, d: int) -> int:
    """Exact sign of a + b*sqrt(d) for rational a, b != 0 and squarefree
    d > 1, where sqrt(d) is irrational and so a + b*sqrt(d) != 0."""
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # opposite signs: |a| vs |b| sqrt(d)  <=>  a^2 vs d b^2
    lhs = a * a
    rhs = d * b * b
    bigger_is_a = lhs > rhs
    return (1 if a > 0 else -1) if bigger_is_a else (1 if b > 0 else -1)


_P_OVER_Q = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")  # q > 0


def _json_fraction(v) -> Fraction:
    """A "p/q" string with q > 0 or a non-bool int as a Fraction; ValueError
    for any other value, floats and bools included."""
    if (isinstance(v, str) and _P_OVER_Q.fullmatch(v)) or type(v) is int:
        return Fraction(v)
    raise ValueError(f"a rational must be a 'p/q' string with q > 0 or an int, not {v!r}")


def _frac_str(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# -- sparse row echelon -----------------------------------------------------
#
# A sparse vector is a dict {sortable key: field element} without zero
# entries.  The field elements may be Fractions, QuadElems or any type with
# the same ring operations, 1 / x, and bool(x) false exactly at zero.  An
# echelon is a dict {pivot: row}: each row is 1 at its pivot, the smallest
# key it had when stored, and has no entry at the pivot of any earlier row,
# so reducing against the rows in insertion order clears every pivot.

def reduce(vec: dict, echelon: dict) -> dict:
    """vec minus the combination of echelon rows that clears every pivot."""
    cur = {k: v for k, v in vec.items() if v}
    for pivot, row in echelon.items():
        c = cur.get(pivot)
        if c is None:
            continue
        for k, v in row.items():
            old = cur.get(k)
            new = -(c * v) if old is None else old - c * v
            if new:
                cur[k] = new
            else:
                del cur[k]
    return cur


def insert(vec: dict, echelon: dict) -> bool:
    """Add vec to the echelon if it is independent of it; True if added."""
    cur = reduce(vec, echelon)
    if not cur:
        return False
    pivot = min(cur)
    inv = 1 / cur[pivot]
    echelon[pivot] = {k: v * inv for k, v in cur.items()}
    return True


# -- named operations -------------------------------------------------------

def iota(x: QuadElem) -> Fraction:
    """Projection a + b*rho -> a (the map iota_G on each coefficient ring)."""
    return x.a


# -- convenient constructors ------------------------------------------------

def rat(q) -> QuadElem:
    return QuadElem(RAT, _as_fraction(q))


def sqrt2_elem(a, b=0) -> QuadElem:
    return QuadElem(SQRT2, a, b)


def golden_elem(a, b=0) -> QuadElem:
    return QuadElem(GOLDEN, a, b)
