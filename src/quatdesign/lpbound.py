"""Linear-programming minimality certificates for 2T, 2O, 2I.

Each test function is built twice and the two constructions are asserted to
expand to the identical polynomial:

* the Gegenbauer combination  F = sum_l f_l Q_l^(4)(s)  (rational data), and
* the factored form  F = (product of even-multiplicity root factors) * R(s)
  with a residual factor R proven positive on [-1, 1] by exact sign checks.

Note on the residual constants: the published factorizations carry additive
constants (3/4 for the degree-10 function, 1/4 for the degree-14 one) that do
not reproduce the Gegenbauer combinations; the consistent constants, found by
exact division and asserted here, are 3/64 and 1/192.  The degree-16 function
matches its published factorization as printed.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .exactnum import QuadElem, rat, sqrt2_elem, golden_elem
from .gegenbauer import gegenbauer_expand, horner, poly_divmod, poly_mul, scaled_q, trim
from .groups import NotAntipodal, gram_of
from .strength import pair_sums


class CertificateError(ValueError):
    pass


# Gegenbauer data (degree -> coefficient) and claimed roots in [-1, 1)

_GEGENBAUER_DATA = {
    "F2T": {
        10: Fraction(1, 11264),
        4: Fraction(1, 2560),
        2: Fraction(1, 768),
        0: Fraction(3, 1024),
    },
    "F2O": {
        14: Fraction(1, 245760),
        10: Fraction(1, 135168),
        6: Fraction(1, 114688),
        4: Fraction(1, 49152),
        2: Fraction(1, 147456),
        0: Fraction(1, 8192),
    },
    "F2I": {
        16: Fraction(-1, 1114112),
        14: Fraction(-11, 4915200),
        10: Fraction(21, 1802240),
        8: Fraction(17, 491520),
        6: Fraction(11, 163840),
        4: Fraction(177, 1638400),
        2: Fraction(149, 983040),
        0: Fraction(3, 16384),
    },
}

_DESIGN_SETS = {
    "F2T": (10, 4, 2),
    "F2O": (14, 10, 6, 4, 2),
    "F2I": (10, 8, 6, 4, 2),
}


def _roots_for(name: str) -> list[QuadElem]:
    half = Fraction(1, 2)
    if name == "F2T":
        return [rat(0), rat(half), rat(-half)]
    if name == "F2O":
        inv_sqrt2 = sqrt2_elem(0, half)  # 1/sqrt2 = sqrt2/2
        return [rat(0), rat(half), rat(-half), inv_sqrt2, -inv_sqrt2]
    if name == "F2I":
        tau_half = golden_elem(0, half)                  # tau/2
        tau_inv_half = golden_elem(-half, half)          # (tau-1)/2
        return [
            rat(0),
            rat(half),
            rat(-half),
            tau_half,
            -tau_half,
            tau_inv_half,
            -tau_inv_half,
        ]
    raise ValueError(f"unknown test function {name!r}")


class TestFunction(namedtuple("TestFunction", (
    "name",
    "expanded",        # F(s) as Fractions, low degree first
    "coefficients",    # full Gegenbauer expansion, degree -> Fraction
    "design_set",      # degrees
    "factored_roots",  # QuadElem even-multiplicity roots in [-1,1)
    "residual",        # strictly positive factor on [-1,1], Fractions
))):
    __slots__ = ()

    @property
    def f0(self) -> Fraction:
        return self.coefficients.get(0, Fraction(0))

    def value_at_one(self) -> Fraction:
        return horner(self.expanded, Fraction(1))


class CertificateReport(namedtuple("CertificateReport", (
    "name", "passed", "off_design_violations", "negative_allowed",
    "nonnegative_on_interval", "messages",
    "half_set_bound",  # F(1)/f_0 when passed and f_0 > 0, else None; a full set gets twice it
    "angle_set",       # the claimed roots plus -1 when passed, else None
))):
    __slots__ = ()


class EqualityReport(namedtuple("EqualityReport", (
    "cardinality", "bound", "attained", "inner_products_are_roots", "is_design",
))):
    __slots__ = ()


def _square_factor_poly(roots) -> tuple[Fraction, ...]:
    """prod (s - r)^2 over the claimed roots.

    prod (s - r) is built on QuadElem one linear factor at a time and only
    then collapsed to rationals: a single r^2 may be irrational (tau/2 for
    F2I), the product over a conjugation-closed root list is not.
    """
    prod = [rat(1)]
    for r in roots:
        prod = [a - r * b for a, b in zip([rat(0)] + prod, prod + [rat(0)])]
    if not all(c.is_rational() for c in prod):
        raise CertificateError("square-factor product failed to rationalize")
    half = tuple(c.a for c in prod)
    return poly_mul(half, half)


def build_test_function(name: str, override: dict[int, Fraction] | None = None) -> TestFunction:
    """Construct a test function; `override` patches coefficients and skips the
    root certificates, for the negative control that the lp-certificates check
    builds on every `verify-paper` run, and for tests."""
    if name not in _GEGENBAUER_DATA:
        raise ValueError(f"unknown test function {name!r}")
    data = dict(_GEGENBAUER_DATA[name])
    if override:
        data.update(override)
    total = [Fraction(0)] * (max(data) + 1)
    for ell, f in data.items():
        for k, c in enumerate(scaled_q(ell, 4)):
            total[k] += f * c
    expanded = trim(total)

    roots = _roots_for(name)
    squares = _square_factor_poly(roots)
    quotient, rem = poly_divmod(expanded, squares)
    if override is None:
        if rem:
            raise CertificateError(
                f"{name}: claimed roots do not divide the expansion"
            )
        residual = quotient
        _check_factored_identity(name, expanded, squares, residual)
    else:
        residual = quotient  # corrupted functions keep going; checks will flag

    full = gegenbauer_expand(expanded, 4)
    coeffs = {ell: f for ell, f in enumerate(full) if f != 0}
    return TestFunction(
        name=name,
        expanded=expanded,
        coefficients=coeffs,
        design_set=_DESIGN_SETS[name],
        factored_roots=tuple(roots),
        residual=residual,
    )


def _check_factored_identity(name, expanded, squares, residual) -> None:
    """Integrity: squares * residual must reproduce the expansion exactly."""
    if poly_mul(squares, residual) != expanded:
        raise CertificateError(f"{name}: factored and Gegenbauer forms differ")


def _residual_positive_on_interval(residual) -> bool:
    """Exact positivity of the residual factor on [-1, 1].

    The residuals take one of two shapes: (s^2 - a)^2 + c with c > 0
    (positive everywhere), or b - s^2 with b > 1 (positive on the interval,
    checked at the endpoints since it decreases in s^2).
    """
    if len(residual) == 5:
        c0, c1, c2, c3, c4 = residual
        if c1 or c3 or c4 != 1:
            return False
        # (s^2 - a)^2 + c = s^4 - 2a s^2 + a^2 + c
        a = -c2 / 2
        return c0 - a * a > 0
    if len(residual) == 3:
        if residual[2] >= 0 or residual[1]:
            return False
        return horner(residual, Fraction(1)) > 0 and horner(residual, Fraction(-1)) > 0
    return False


def verify_certificate(tf: TestFunction) -> CertificateReport:
    """Check both hypotheses of the LP inequality, exactly."""
    messages = []
    violations = []
    negative_allowed = []
    allowed = set(tf.design_set) | {0}
    for ell, f in sorted(tf.coefficients.items()):
        if ell in allowed:
            if f <= 0:
                violations.append(ell)
                messages.append(f"design coefficient f_{ell} = {f} is not positive")
        elif f > 0:
            violations.append(ell)
            messages.append(f"off-design coefficient f_{ell} = {f} is positive")
        elif f < 0:
            negative_allowed.append(ell)

    nonneg = _residual_positive_on_interval(tf.residual)
    if not nonneg:
        messages.append("residual factor is not certified positive on [-1, 1]")

    for r in tf.factored_roots:
        if not horner(tf.expanded, r).is_zero():
            nonneg = False
            messages.append(f"claimed root {r} is not a root")

    passed = not violations and nonneg
    return CertificateReport(
        name=tf.name,
        passed=passed,
        off_design_violations=tuple(violations),
        negative_allowed=tuple(negative_allowed),
        nonnegative_on_interval=nonneg,
        messages=tuple(messages),
        half_set_bound=tf.value_at_one() / tf.f0 if passed and tf.f0 > 0 else None,
        angle_set=frozenset(tf.factored_roots) | {rat(-1)} if passed else None,
    )


def check_equality_case(points, tf: TestFunction) -> EqualityReport:
    """Does X attain 2 F(1)/f_0, with all inner products roots of F?

    Everything is read from one Gram pass (the group's own for a UnitGroup);
    X must be antipodal to attain the bound, else NotAntipodal.  The bound
    and the allowed angles come from one `verify_certificate` report, and a
    certificate that fails, or leaves f_0 = 0, raises CertificateError.
    """
    gram = gram_of(points)
    if not gram.antipodal():
        raise NotAntipodal("the LP equality case needs an antipodal point set")
    report = verify_certificate(tf)
    if not report.passed:
        raise CertificateError(f"{tf.name}: certificate failed: {report.messages}")
    if report.half_set_bound is None:
        raise CertificateError(f"{tf.name}: f_0 must be positive")
    bound = 2 * report.half_set_bound
    return EqualityReport(
        cardinality=len(gram.rows),
        bound=bound,
        attained=Fraction(len(gram.rows)) == bound,
        inner_products_are_roots=gram.angles() <= report.angle_set,
        is_design=all(v.is_zero() for v in pair_sums(gram, tf.design_set).values()),
    )
