from fractions import Fraction

import pytest

from quatdesign.exactnum import golden_elem, rat, sqrt2_elem
from quatdesign.gegenbauer import gegenbauer_expand, horner, poly_mul
from quatdesign import cli, groups, lpbound, verify
from quatdesign.budget import get_budget
from quatdesign.groups import NotAntipodal, build_group
from quatdesign.lpbound import (
    CertificateError,
    build_test_function,
    check_equality_case,
    verify_certificate,
)
from quatdesign.quat import Quaternion

import oracles
from oracles import lp_polynomials_unipoly, orbit, points_gram, rational_tuple

HALF = Fraction(1, 2)


def test_degrees():
    assert len(build_test_function("F2T").expanded) == 11
    assert len(build_test_function("F2O").expanded) == 15
    # both published forms of the icosahedral function have degree 16
    assert len(build_test_function("F2I").expanded) == 17


def test_f2t_gegenbauer_data():
    tf = build_test_function("F2T")
    assert tf.coefficients == {
        10: Fraction(1, 11264),
        4: Fraction(1, 2560),
        2: Fraction(1, 768),
        0: Fraction(3, 1024),
    }
    assert tf.design_set == (10, 4, 2)
    # round trip through the generic expansion routine
    assert gegenbauer_expand(tf.expanded, 4)[10] == Fraction(1, 11264)


def test_f2o_f0():
    assert build_test_function("F2O").f0 == Fraction(1, 8192)


def test_f2i_negative_coefficients_allowed():
    tf = build_test_function("F2I")
    report = verify_certificate(tf)
    assert report.passed
    assert set(report.negative_allowed) == {14, 16}
    assert tf.coefficients[16] == Fraction(-1, 1114112)
    assert tf.coefficients[14] == Fraction(-11, 4915200)
    assert tf.design_set == (10, 8, 6, 4, 2)


def test_factored_residuals():
    # the residual constants 3/64 and 1/192 make the factored forms equal
    # the Gegenbauer combinations exactly (the published 3/4 and 1/4 do not)
    tf = build_test_function("F2T")
    assert tf.residual == (Fraction(13, 16), 0, Fraction(-7, 4), 0, 1)
    const = Fraction(13, 16) - Fraction(49, 64)
    assert const == Fraction(3, 64)
    tf = build_test_function("F2O")
    assert tf.residual == (Fraction(37, 48), 0, Fraction(-7, 4), 0, 1)
    assert Fraction(37, 48) - Fraction(49, 64) == Fraction(1, 192)
    tf = build_test_function("F2I")
    assert tf.residual == (Fraction(6, 5), 0, -1)


@pytest.mark.parametrize("name", ["F2T", "F2O", "F2I"])
def test_test_functions_match_the_unipoly_oracle(name):
    tf = build_test_function(name)
    expanded, squares, residual = lp_polynomials_unipoly(name)
    assert tf.expanded == rational_tuple(expanded)
    assert tf.residual == rational_tuple(residual)
    assert lpbound._square_factor_poly(tf.factored_roots) == rational_tuple(squares)


def test_f2i_square_factor_is_a_rational_square():
    # tau/2 and (tau-1)/2 have irrational squares; only the whole product
    # s (s^2 - 1/4)(s^4 - (3/4) s^2 + 1/16) is rational
    half = (Fraction(-1, 4), 0, 1)
    quartic = (Fraction(1, 16), 0, Fraction(-3, 4), 0, 1)
    root_poly = poly_mul((0, 1), poly_mul(half, quartic))
    squares = lpbound._square_factor_poly(build_test_function("F2I").factored_roots)
    assert squares == poly_mul(root_poly, root_poly)


def test_square_factor_needs_conjugate_roots():
    # tau/2 without its conjugate (1 - tau)/2 leaves sqrt5 in the product
    tau_half = golden_elem(0, HALF)
    with pytest.raises(CertificateError, match="failed to rationalize"):
        lpbound._square_factor_poly([rat(0), tau_half, -tau_half])


def test_a_residual_with_a_double_root_is_not_positive():
    # (s^2 - 1/4)^2 has c0 = a^2 exactly: zero at s = 1/2, inside [-1, 1]
    assert not lpbound._residual_positive_on_interval(
        (Fraction(1, 16), 0, Fraction(-1, 2), 0, 1))
    assert lpbound._residual_positive_on_interval((Fraction(17, 16), 0, Fraction(-1, 2), 0, 1))


def test_bounds():
    for name, half, full in (("F2T", 12, 24), ("F2O", 24, 48), ("F2I", 60, 120)):
        report = verify_certificate(build_test_function(name))
        assert report.half_set_bound == half
        assert 2 * report.half_set_bound == full


def test_angle_certificates():
    r = sqrt2_elem(0, HALF)
    tau_half = golden_elem(0, HALF)
    tau_inv_half = golden_elem(-HALF, HALF)
    assert verify_certificate(build_test_function("F2T")).angle_set == {
        rat(-1), rat(-HALF), rat(0), rat(HALF),
    }
    assert verify_certificate(build_test_function("F2O")).angle_set == {
        rat(-1), -r, rat(-HALF), rat(0), rat(HALF), r,
    }
    assert verify_certificate(build_test_function("F2I")).angle_set == {
        rat(-1), -tau_half, rat(-HALF), -tau_inv_half, rat(0),
        tau_inv_half, rat(HALF), tau_half,
    }


def test_roots_are_roots():
    for name in ("F2T", "F2O", "F2I"):
        tf = build_test_function(name)
        for r in tf.factored_roots:
            assert horner(tf.expanded, r).is_zero()


@pytest.mark.parametrize("name", ["F2T", "F2O", "F2I"])
def test_roots_that_leave_a_remainder_are_refused(monkeypatch, name):
    # the quotient stays right, so the factored identity still holds and
    # only the remainder test can refuse
    divmod_ = lpbound.poly_divmod
    monkeypatch.setattr(lpbound, "poly_divmod", lambda p, q: (divmod_(p, q)[0], (HALF,)))
    with pytest.raises(CertificateError, match=f"{name}: claimed roots do not divide"):
        build_test_function(name)


@pytest.mark.parametrize("name", ["F2T", "F2O", "F2I"])
def test_a_wrong_quotient_fails_the_factored_identity(monkeypatch, name):
    # a division that reports no remainder but is off by one in the constant
    # coefficient of its quotient; poly_mul builds the square factor too, so a
    # fault there would trip the remainder test first
    divmod_ = lpbound.poly_divmod

    def off_by_one(p, q):
        quotient, rem = divmod_(p, q)
        return (quotient[0] + 1,) + quotient[1:], rem

    monkeypatch.setattr(lpbound, "poly_divmod", off_by_one)
    with pytest.raises(CertificateError, match=f"{name}: factored and Gegenbauer forms differ"):
        build_test_function(name)


def test_corrupted_coefficient_rejected():
    tf = build_test_function("F2T", override={6: Fraction(1, 1000)})
    report = verify_certificate(tf)
    assert not report.passed
    assert report.off_design_violations == (6,)
    assert report.half_set_bound is None and report.angle_set is None
    with pytest.raises(CertificateError, match="F2T: certificate failed"):
        check_equality_case(build_group("2T").gram, tf)


def test_equality_cases_attained():
    for name, label in (("F2T", "2T"), ("F2O", "2O"), ("F2I", "2I")):
        report = check_equality_case(build_group(label).gram, build_test_function(name))
        assert report.attained
        assert report.inner_products_are_roots
        assert report.is_design
        assert report.bound == {"F2T": 24, "F2O": 48, "F2I": 120}[name]


def test_a_bound_needs_a_positive_f0():
    # F2T with f_0 = 0: every other hypothesis still holds, so the
    # certificate passes and only the f_0 guard stands before F(1)/f_0
    tf = build_test_function("F2T")
    tf = tf._replace(coefficients={k: f for k, f in tf.coefficients.items() if k})
    report = verify_certificate(tf)
    assert report.passed and tf.f0 == 0
    assert report.half_set_bound is None
    with pytest.raises(CertificateError, match="f_0 must be positive"):
        check_equality_case(build_group("2T").gram, tf)


def test_angles_need_a_passing_certificate():
    tf = build_test_function("F2T", override={6: Fraction(1, 1000)})
    report = verify_certificate(tf)
    assert not report.passed
    assert report.angle_set is None and report.half_set_bound is None
    with pytest.raises(CertificateError, match="F2T: certificate failed"):
        check_equality_case(build_group("2T").gram, tf)


def test_equality_case_not_attained_for_doubled_set():
    group = build_group("2I")
    extra = orbit(Quaternion(Fraction(3, 5), Fraction(4, 5), 0, 0), group)
    points = oracles.elements(group) + extra
    assert len(set(points)) == 240
    report = check_equality_case(points_gram(points), build_test_function("F2I"))
    assert report.is_design  # a union of orthogonal copies keeps the design set
    assert not report.attained
    assert report.cardinality == 240


def test_equality_case_requires_an_antipodal_set():
    # C3 = {1, w, w^2} holds no -x, so the bound cannot be attained
    with pytest.raises(NotAntipodal):
        check_equality_case(points_gram(oracles.elements(build_group("C3"))),
                            build_test_function("F2T"))
    with pytest.raises(NotAntipodal):
        check_equality_case(build_group("C3").gram, build_test_function("F2T"))


def test_equality_cases_check_makes_one_gram_pass_per_group(monkeypatch):
    sizes = []
    real = groups._gram

    def counting(tag, scale, pairs):
        sizes.append(len(pairs))
        return real(tag, scale, pairs)

    monkeypatch.setattr(groups, "_gram", counting)
    for label in ("2T", "2O", "2I"):  # drop each group's cached pass for this test
        monkeypatch.delitem(vars(build_group(label)), "gram", raising=False)
    result = verify.run_check("equality-cases", get_budget())
    assert result.passed, result.details
    assert sorted(sizes) == [24, 48, 120]


def test_each_certificate_is_verified_once_per_reader(monkeypatch, capsys):
    # an lp call, and each LP row per test function, reads one report
    calls = []
    real = lpbound.verify_certificate

    def counting(tf):
        calls.append(tf.name)
        return real(tf)

    monkeypatch.setattr(lpbound, "verify_certificate", counting)
    monkeypatch.setattr(verify, "verify_certificate", counting)
    for name in ("F2T", "F2O", "F2I"):
        calls.clear()
        assert cli.main(["lp", "--name", name]) == 0
        assert calls == [name]
    capsys.readouterr()
    for check_id, count in (("lp-certificates", 4), ("equality-cases", 3)):
        calls.clear()
        assert verify.run_check(check_id, get_budget()).passed
        assert len(calls) == count
