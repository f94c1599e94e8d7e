"""The reproduction suite: every check is exact, each maps to one headline
statement about the three groups (strengths, minimality, shells, theta spaces).

Each check returns a CheckResult; `run_all` powers both the acceptance tests
and the `quatdesign verify-paper` command.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .budget import Budget, get_budget
from .exactnum import golden_elem, rat, sqrt2_elem
from .groups import (
    build_group,
    distance_distribution,
    inner_product_set,
    is_distance_invariant,
    omega,
    orbit,
    alpha,
    zeta,
)
from .lpbound import (
    angle_certificate,
    build_test_function,
    check_equality_case,
    full_set_lower_bound,
    verify_certificate,
)
from .orders import enumerate_shell, orbit_decompose, shell_count_formula
from .qseries import qseries
from .strength import (
    cyclic_odd_part,
    dihedral_even_part,
    group_strength,
    molien_closed_form,
    molien_series,
    pair_sum_test,
)
from .theta import (
    dimension_hypothesis,
    harmonic_invariant_dim,
    harmonic_molien,
    invariant_dimension_coefficients,
    invariant_dimension_evaluation,
    invariant_multiplicity,
    theta_rank,
    theta_table,
)

EXPECTED_EVEN_STRENGTH = {
    "2T": (2, 4, 10),
    "2O": (2, 4, 6, 10, 14, 22),
    "2I": (2, 4, 6, 8, 10, 14, 16, 18, 22, 26, 28, 34, 38, 46, 58),
}

EXPECTED_FULL_BOUNDS = {"F2T": 24, "F2O": 48, "F2I": 120}

EXPECTED_D_TABLE = {
    "2T": (0, 0, 7, 9, 0, 26, 15, 17, 38, 42, 23, 75),
    "2O": (0, 0, 0, 9, 0, 13, 0, 17, 19, 21, 0, 50),
    "2I": (0, 0, 0, 0, 0, 13, 0, 0, 0, 21, 0, 25),
}

THETA_SAMPLES = {
    # (in T(G): rank must be 0; even not in T(G), within budget: rank >= 1)
    "2T": ((2, 4, 10), (6, 8, 12, 14, 16)),
    "2O": ((2, 6, 14), (8, 12, 16)),
    "2I": ((2, 8, 16), (12, 20, 24)),
}

PRINTED_SHELL_HEADS = {
    "2T": (24, 24, 96, 24),
    "2O": (48, 624, 1344, 5232),
    "2I": (240, 2160, 6720, 17520),
}

SHELL_RANGES = {"2T": 30, "2O": 12, "2I": 8}


@dataclass
class CheckResult:
    check_id: str
    title: str
    passed: bool
    blocking: bool
    details: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else ("FAIL" if self.blocking else "INFO")
        return f"[{status}] {self.check_id:<22} {self.title} ({self.seconds:.1f}s): {self.details}"


def _result(check_id, title, passed, details, t0, blocking=True) -> CheckResult:
    return CheckResult(check_id, title, passed, blocking, details, time.perf_counter() - t0)


def check_group_construction(budget: Budget) -> CheckResult:
    t0 = time.perf_counter()
    problems = []
    for label, size in (("2T", 24), ("2O", 48), ("2I", 120)):
        g = build_group(label)
        if len(g) != size:
            problems.append(f"|{label}| = {len(g)} != {size}")
        if not g.is_closed():
            problems.append(f"{label} not closed under multiplication")
        if not g.is_antipodal():
            problems.append(f"{label} not antipodal")
        if not g.contains_inverse_of_all():
            problems.append(f"{label} not inverse-closed")
    from .quat import Quaternion

    unit = Quaternion(1, 0, 0, 0)
    if omega() ** 3 != unit:
        problems.append("omega^3 != 1")
    if alpha() ** 4 != -unit:
        problems.append("alpha^4 != -1")
    if zeta() ** 5 != -unit:
        problems.append("zeta^5 != -1")
    passed = not problems
    return _result(
        "groups", "orders 24/48/120, closure, antipodality, unit relations",
        passed, "; ".join(problems) or "all exact", t0,
    )


def _even_zeros(series) -> tuple[int, ...]:
    """Even degrees k >= 2 whose coefficient vanishes."""
    return tuple(k for k in range(2, len(series), 2) if series[k] == 0)


def check_strength_molien(budget: Budget) -> CheckResult:
    t0 = time.perf_counter()
    problems = []
    for label, expected in EXPECTED_EVEN_STRENGTH.items():
        closed = molien_closed_form(label, 60)
        zero_evens = _even_zeros(closed)
        if zero_evens != expected:
            problems.append(f"{label}: closed-form zero set {zero_evens}")
        if molien_series(build_group(label), 60) != closed:
            problems.append(f"{label}: Molien from points != closed form")
        report = group_strength(label, 60)
        if report.even_members != expected or not report.all_odd_in:
            problems.append(f"{label}: strength report {report.even_members}")
    return _result(
        "strength-molien", "even strengths via Molien zero sets, to u^60",
        not problems, "; ".join(problems) or "all three groups exact", t0,
    )


def check_strength_direct(budget: Budget) -> CheckResult:
    t0 = time.perf_counter()
    problems = []
    for label in ("2T", "2O", "2I"):
        group = build_group(label)
        series = molien_series(group, 40)
        for ell in range(2, 41, 2):
            direct = pair_sum_test(group, ell)
            via_molien = series[ell] == 0
            if direct != via_molien:
                problems.append(f"{label} l={ell}: routes disagree")
        for ell in range(1, 16, 2):
            if not pair_sum_test(group, ell):
                problems.append(f"{label} odd l={ell}: pair sum nonzero")
    return _result(
        "strength-direct", "pair-sum route agrees with Molien (even l<=40, odd l<=15)",
        not problems, "; ".join(problems) or "exact agreement", t0,
    )


def check_dihedral_cyclic(budget: Budget) -> CheckResult:
    t0 = time.perf_counter()
    problems = []
    notes = []
    limit = 20
    for n in (2, 3, 4, 5, 6):
        report = group_strength(f"C{n}", limit)
        if set(report.even_members) != set():
            problems.append(f"C{n}: nonempty even part {report.even_members}")
        expected_odds = cyclic_odd_part(n, limit)
        if n % 2 == 0:
            if not report.all_odd_in:
                problems.append(f"C{n}: odd degrees missing")
        else:
            got = set(report.odd_members or ())
            if got != expected_odds:
                problems.append(f"C{n}: odd part {sorted(got)} != {sorted(expected_odds)}")
            notes.append(f"C{n} odd part {sorted(expected_odds)} (non-antipodal case)")
    for n in (2, 3, 4, 5):
        report = group_strength(f"D2n{n}", limit)
        expected = dihedral_even_part(n, limit)
        if set(report.even_members) != expected or not report.all_odd_in:
            problems.append(
                f"D2n{n}: even part {report.even_members} != {sorted(expected)}"
            )
    # n = 6 leaves the quadratic tower; the dihedral formula is still verified
    # through the closed-form series, which is how the statement is proved
    zero_evens = set(_even_zeros(molien_closed_form("D2n6", limit)))
    if zero_evens != dihedral_even_part(6, limit):
        problems.append(f"D2n6: closed-form even part {sorted(zero_evens)}")
    else:
        notes.append("D2n6 via closed form (order-12 elements need sqrt3)")
    detail = "; ".join(problems) if problems else "formulas verified; " + "; ".join(notes)
    return _result(
        "dihedral-cyclic", "cyclic/dihedral strength formulas, n in {2..6}, l<=20",
        not problems, detail, t0,
    )


def check_lp_certificates(budget: Budget) -> CheckResult:
    t0 = time.perf_counter()
    problems = []
    for name, expected in EXPECTED_FULL_BOUNDS.items():
        tf = build_test_function(name)
        report = verify_certificate(tf)
        if not report.passed:
            problems.append(f"{name}: certificate failed {report.messages}")
            continue
        bound = full_set_lower_bound(tf)
        if bound != expected:
            problems.append(f"{name}: bound {bound} != {expected}")
    corrupted = build_test_function("F2T", override={6: Fraction(1, 1000)})
    report = verify_certificate(corrupted)
    if report.passed or 6 not in report.off_design_violations:
        problems.append("corrupted F2T was not rejected at l=6")
    return _result(
        "lp-certificates", "test-function certificates and bounds 24/48/120",
        not problems, "; ".join(problems) or "certified; negative control rejected", t0,
    )


def check_equality_cases(budget: Budget) -> CheckResult:
    t0 = time.perf_counter()
    problems = []
    for name, label in (("F2T", "2T"), ("F2O", "2O"), ("F2I", "2I")):
        tf = build_test_function(name)
        group = build_group(label)
        report = check_equality_case(group, tf)
        if not (report.attained and report.inner_products_are_roots and report.is_design):
            problems.append(f"{label}: equality case fails {report}")
        if not inner_product_set(group.elements) <= angle_certificate(tf):
            problems.append(f"{label}: A(X) outside the certified angle set")
    o2 = build_group("2O")
    if not is_distance_invariant(o2.elements):
        problems.append("2O is not distance invariant")
    dist = distance_distribution(o2.elements, o2.elements[0])
    half = Fraction(1, 2)
    inv_sqrt2 = sqrt2_elem(0, half)
    expected = {
        rat(1): 1, inv_sqrt2: 6, rat(half): 8, rat(0): 18,
        rat(-half): 8, -inv_sqrt2: 6, rat(-1): 1,
    }
    if dist != expected:
        problems.append(f"2O distance distribution {dist}")
    return _result(
        "equality-cases", "bounds attained; angle sets; 2O distribution (1,6,8,18,8,6,1)",
        not problems, "; ".join(problems) or "all equality data exact", t0,
    )


def check_shell_counts(budget: Budget) -> CheckResult:
    t0 = time.perf_counter()
    problems = []
    for label, m_max in SHELL_RANGES.items():
        # largest shell first: its enumeration ball is cached and serves every
        # smaller m, where rising m would enumerate a larger ball each time
        enumerate_shell(label, m_max, budget)
        for m in range(1, m_max + 1):
            got = len(enumerate_shell(label, m, budget))
            expected = shell_count_formula(label, m)
            if got != expected:
                problems.append(f"{label} m={m}: {got} != {expected}")
        head = tuple(shell_count_formula(label, m) for m in range(1, 5))
        if head != PRINTED_SHELL_HEADS[label]:
            problems.append(f"{label}: first counts {head}")
    # theta_{G,1} coefficients against the Eisenstein combinations, m <= 8
    for label, series_name in (("2T", "Theta2T1"), ("2O", "Theta2O1"), ("2I", "Theta2I1")):
        coeffs = qseries(series_name, 8)
        for m in range(1, 9):
            if m <= SHELL_RANGES[label] and shell_count_formula(label, m) != coeffs[m]:
                problems.append(f"{label} m={m}: formula != q-series")
    return _result(
        "shell-counts", "enumerated shell sizes equal divisor formulas and q-expansions",
        not problems, "; ".join(problems) or
        "2T m<=30, 2O m<=12, 2I m<=8 all exact", t0,
    )


def check_order_unit_identities(budget: Budget) -> CheckResult:
    t0 = time.perf_counter()
    problems = []
    for label in ("2T", "2O"):
        sh = enumerate_shell(label, 1, budget)
        if set(sh.embedded()) != build_group(label).as_set():
            problems.append(f"O_({label},1) != {label}")
    sh = enumerate_shell("2I", 1, budget)
    g = build_group("2I")
    tau = golden_elem(0, 1)
    expected = set(g.elements) | {e * tau for e in g.elements}
    if set(sh.embedded()) != expected:
        problems.append("O_(2I,1) != 2I u tau 2I")
    reps = orbit_decompose(sh)
    if len(reps) != 2:
        problems.append(f"O_(2I,1) has {len(reps)} orbits, expected 2")
    return _result(
        "order-units", "unit shells recover the groups (2I doubled by tau)",
        not problems, "; ".join(problems) or "set equalities exact", t0,
    )


def check_theta_vanishing(budget: Budget) -> CheckResult:
    t0 = time.perf_counter()
    problems = []
    # every even strength member up to 22 has a vanishing invariant space,
    # which closes the zero direction for all shells at once
    for label, evens in EXPECTED_EVEN_STRENGTH.items():
        for ell in (e for e in evens if e <= 22):
            if invariant_multiplicity(label, ell) != 0:
                problems.append(f"{label} l={ell}: invariant multiplicity nonzero")
            if harmonic_invariant_dim(label, ell) != 0:
                problems.append(f"{label} l={ell}: harmonic invariants nonzero")
    for label, (in_t, not_in_t) in THETA_SAMPLES.items():
        for ell in in_t:
            r = theta_rank(label, ell, 6, budget)
            if r != 0:
                problems.append(f"{label} l={ell}: rank {r} != 0")
        for ell in not_in_t:
            r = theta_rank(label, ell, 6, budget)
            if r < 1:
                problems.append(f"{label} l={ell}: rank {r} < 1")
            bound = harmonic_invariant_dim(label, ell)
            if r > bound:
                problems.append(f"{label} l={ell}: rank {r} > dim Harm^G {bound}")
    # entry-level spot checks on full tables at small degrees
    for label, ell, m in (("2T", 2, 6), ("2T", 10, 4), ("2O", 2, 3), ("2I", 2, 2)):
        if not theta_table(label, ell, m, "full", budget).is_zero():
            problems.append(f"{label} l={ell}: full table has nonzero entries")
    return _result(
        "theta-vanishing", "rank 0 inside T(G), rank >= 1 outside (M = 6)",
        not problems, "; ".join(problems) or
        "sampled degrees certified both directions", t0,
    )


def check_rank1_generators(budget: Budget) -> CheckResult:
    t0 = time.perf_counter()
    problems = []
    tbl = theta_table("2O", 8, 5, "invariant", budget)
    gen = tbl.normalized_generator()
    target = qseries("DeltaPlus64Delta2", 5)[1:]
    if gen is None or gen != [Fraction(v) for v in target]:
        problems.append(f"Theta(2O,8) generator {gen} != {target}")
    tbl = theta_table("2I", 12, 4, "invariant", budget)
    gen = tbl.normalized_generator()
    target = qseries("E4Delta", 4)[1:]
    if gen is None or gen != [Fraction(v) for v in target]:
        problems.append(f"Theta(2I,12) generator {gen} != {target}")
    return _result(
        "theta-generators", "rank-1 spaces match Delta+64Delta(2z) and E4*Delta",
        not problems, "; ".join(problems) or "q-expansions match exactly", t0,
    )


def check_harmonic_molien_table(budget: Budget) -> CheckResult:
    t0 = time.perf_counter()
    problems = []
    for label, row in EXPECTED_D_TABLE.items():
        got = harmonic_molien(label, 24)[2::2]
        if got != row:
            problems.append(f"{label}: d-row {got}")
    for label in ("2T", "2O", "2I"):
        for ell in (2, 4, 6, 8, 10):
            d = harmonic_invariant_dim(label, ell)
            de = invariant_dimension_evaluation(label, ell)
            if de != d:
                problems.append(f"{label} l={ell}: evaluation Reynolds {de} != {d}")
    for ell in (2, 4, 6, 8, 10):
        dc = invariant_dimension_coefficients("2T", ell)
        if dc != harmonic_invariant_dim("2T", ell):
            problems.append(f"2T l={ell}: coefficient Reynolds {dc}")
    return _result(
        "harmonic-molien", "d_(G,l) table (l<=24) plus Reynolds cross-checks (l<=10)",
        not problems, "; ".join(problems) or "table and Reynolds dims agree", t0,
    )


def check_hypothesis_reports(budget: Budget) -> CheckResult:
    t0 = time.perf_counter()
    lines = []
    samples = {
        "2T": (6, 8, 12, 14),
        "2O": (8, 12, 16, 18, 20),
        "2I": (12, 20, 24),
    }
    for label, ells in samples.items():
        for ell in ells:
            rep = dimension_hypothesis(label, ell, 6, budget)
            tag = "proven" if rep.proven else "conjectured"
            mark = "agrees" if rep.agrees else "rank below conjecture"
            lines.append(
                f"{label} l={ell}: rank>={rep.rank_lower_bound} vs {tag} "
                f"dim {rep.conjectured_dim} ({mark})"
            )
    return _result(
        "dimension-hypotheses", "informational: rank lower bounds vs dimension series",
        True, "; ".join(lines), t0, blocking=False,
    )


ALL_CHECKS = (
    ("groups", check_group_construction),
    ("strength-molien", check_strength_molien),
    ("strength-direct", check_strength_direct),
    ("dihedral-cyclic", check_dihedral_cyclic),
    ("lp-certificates", check_lp_certificates),
    ("equality-cases", check_equality_cases),
    ("shell-counts", check_shell_counts),
    ("order-units", check_order_unit_identities),
    ("theta-vanishing", check_theta_vanishing),
    ("theta-generators", check_rank1_generators),
    ("harmonic-molien", check_harmonic_molien_table),
    ("dimension-hypotheses", check_hypothesis_reports),
)


def run_all(budget: Budget | None = None, only=None):
    budget = budget or get_budget()
    selected = [
        (cid, fn) for cid, fn in ALL_CHECKS if only is None or cid in only
    ]
    if only is not None:
        unknown = set(only) - {cid for cid, _ in ALL_CHECKS}
        if unknown:
            raise ValueError(f"unknown check ids: {sorted(unknown)}")
    return [fn(budget) for _, fn in selected]
