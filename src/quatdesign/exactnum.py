"""Exact arithmetic over Q and the real quadratic fields Q(sqrt2), Q(sqrt5).

Every scalar in this package is a :class:`QuadElem`: an element ``a + b*rho``
with rational ``a``, ``b``.  The field tag fixes ``rho`` and the pair
``RHO_SQUARED[tag] = (c0, c1)`` with rho^2 = c0 + c1*rho:

* ``RAT``    -- rho absent (``b`` must be 0), (0, 0); plain rationals.
* ``SQRT2``  -- rho = sqrt(2),            (2, 0).
* ``GOLDEN`` -- rho = tau = (1+sqrt5)/2,  (1, 1).

``RHO_SQUARED`` is read off the pair product ``PAIR_MUL``, the one place that
states the relation; the norm, Galois conjugate and sign are written once in
(c0, c1) for every field.  The GOLDEN basis is (1, tau) rather than
(1, sqrt5) so that Z[tau] is exactly the integer-coordinate lattice used by
the shell enumeration.

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


# (a + b rho)(c + d rho) on coefficient pairs, one function per field.
# QuadElem multiplies with it on Fractions, the integer kernels on integer
# pairs; it is written out per field because it is the hot kernel.
PAIR_MUL = {
    RAT: lambda a, b, c, d: (a * c, 0),
    SQRT2: lambda a, b, c, d: (a * c + 2 * b * d, a * d + b * c),
    GOLDEN: lambda a, b, c, d: (a * c + b * d, a * d + b * c + b * d),
}
RHO_SQUARED = {tag: mul(0, 1, 0, 1) for tag, mul in PAIR_MUL.items()}
RHO_NAME = {SQRT2: "sqrt2", GOLDEN: "tau"}  # how rho is printed


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
        return QuadElem(tag, *PAIR_MUL[tag](x.a, x.b, y.a, y.b))

    __rmul__ = __mul__

    def field_norm(self) -> Fraction:
        """Norm to Q: x * conj(x) = a^2 + c1 ab - c0 b^2."""
        c0, c1 = RHO_SQUARED[self.tag]
        a, b = self.a, self.b
        return a * a + c1 * a * b - c0 * b * b

    def galois_conj(self) -> "QuadElem":
        """rho -> c1 - rho, the other root of rho^2 = c0 + c1 rho."""
        c1 = RHO_SQUARED[self.tag][1]
        return QuadElem(self.tag, self.a + c1 * self.b, -self.b)

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
        """Exact sign of the real embedding (rho -> sqrt2 or (1+sqrt5)/2)."""
        return _sign_quadratic(self.tag, self.a, self.b)

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

    def __repr__(self):
        if self.b == 0:
            return f"QuadElem({self.tag}, {self.a})"
        return f"QuadElem({self.tag}, {self.a}, {self.b})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        return f"{self.a} + {self.b}*{RHO_NAME[self.tag]}"

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {"tag": self.tag, "a": frac_str(self.a), "b": frac_str(self.b)}


def _sign_quadratic(tag: str, a, b) -> int:
    """Exact sign of a + b*rho in the field `tag`, for a, b both rational or
    both integers.

    rho is the positive root of rho^2 = c0 + c1 rho, so 2(a + b rho) =
    (2a + c1 b) + b sqrt(d) with d = c1^2 + 4 c0 (8 for sqrt2, 5 for tau),
    never 0 for b != 0.  When 2a + c1 b and b have opposite signs it compares
    (2a + c1 b)^2 against d b^2; only rational comparisons are used.
    """
    if b == 0:
        return (a > 0) - (a < 0)
    c0, c1 = RHO_SQUARED[tag]
    a, d = 2 * a + c1 * b, c1 * c1 + 4 * c0
    if a == 0 or (a > 0) == (b > 0):
        return 1 if b > 0 else -1
    return (1 if a > 0 else -1) if a * a > d * b * b else (1 if b > 0 else -1)


_P_OVER_Q = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")  # q > 0


def _json_fraction(v) -> Fraction:
    """A "p/q" string with q > 0 or a non-bool int as a Fraction; ValueError
    for any other value, floats and bools included."""
    if (isinstance(v, str) and _P_OVER_Q.fullmatch(v)) or type(v) is int:
        return Fraction(v)
    raise ValueError(f"a rational must be a 'p/q' string with q > 0 or an int, not {v!r}")


def read_scalar(obj) -> tuple[str, Fraction, Fraction]:
    """(tag, a, b) of a scalar written by `QuadElem.to_json`, refused where
    QuadElem would refuse it, but building none; "a" and "b" are "p/q"
    strings or ints, and other keys are ignored."""
    tag, a, b = obj["tag"], _json_fraction(obj["a"]), _json_fraction(obj["b"])
    if tag not in FIELD_TAGS:
        raise ValueError(f"unknown field tag {tag!r}")
    if tag == RAT and b:
        raise ValueError("RAT elements must have b = 0")
    return tag, a, b


def frac_str(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def half_str(v: int) -> str:
    """frac_str(Fraction(v, 2)) for an integer v."""
    return f"{v}/2" if v & 1 else str(v >> 1)


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


# -- convenient constructors ------------------------------------------------

def rat(q) -> QuadElem:
    return QuadElem(RAT, _as_fraction(q))


def sqrt2_elem(a, b=0) -> QuadElem:
    return QuadElem(SQRT2, a, b)


def golden_elem(a, b=0) -> QuadElem:
    return QuadElem(GOLDEN, a, b)
