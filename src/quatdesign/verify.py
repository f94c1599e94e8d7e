"""The reproduction suite: every check is exact, each maps to one headline
statement about the three groups (strengths, minimality, shells, theta spaces).

A check returns only its problems and the detail shown when there are none.
`run_check` is the one runner: it times a check, labels its row with the id,
title and blocking flag registered by `_check`, and turns a budget refusal
into a SKIP row and any other exception into an ERROR row.  `run_all` runs
the checks through it, for the acceptance tests and `quatdesign verify-paper`.
"""

from __future__ import annotations

import os
import time
from collections import namedtuple
from fractions import Fraction

from .budget import Budget, ResourceBudgetError, get_budget
from .exactnum import GOLDEN, PAIR_MUL, rat, sqrt2_elem
from .groups import (
    ALPHA,
    OMEGA,
    ZETA,
    build_group,
    distance_distribution,
    is_distance_invariant,
    powers,
)
from .lpbound import build_test_function, check_equality_case, verify_certificate
from .orders import EMBEDDED, enumerate_shell, shell_count_formula, shell_counts
from .quat import flat
from .qseries import qseries
from .strength import (
    cyclic_odd_part,
    dihedral_even_part,
    group_strength,
    molien_closed_form,
    molien_series,
    pair_sum_tests_bulk,
)
from .theta import (
    harmonic_invariant_dim,
    harmonic_molien,
    invariant_dimensions,
    invariant_multiplicity,
    theta_ranks,
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


class CheckResult(namedtuple("CheckResult", (
    "check_id",
    "title",
    "status",  # PASS, INFO (non-blocking), FAIL, SKIP (over budget) or ERROR
    "blocking",
    "details",
    "seconds",
))):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.status in ("PASS", "INFO")

    def line(self) -> str:
        return f"[{self.status}] {self.check_id:<22} {self.title} ({self.seconds:.1f}s): {self.details}"


Outcome = tuple[list[str], str]  # (problems, detail shown when there are none)

_ROWS = {}  # check id -> (title, blocking, check), in the order the checks run


def _check(check_id: str, title: str, blocking: bool = True):
    """Register the decorated function as the check `check_id`."""
    def register(fn):
        _ROWS[check_id] = (title, blocking, fn)
        return fn
    return register


@_check("groups", "orders 24/48/120, closure, antipodality, unit relations")
def check_group_construction(budget: Budget) -> Outcome:
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
    # the unit relations on the doubled pairs: 2 g^n is the last of powers(g, n + 1)
    for name, g, n, value in (("omega", OMEGA, 3, 1), ("alpha", ALPHA, 4, -1), ("zeta", ZETA, 5, -1)):
        if powers(g, n + 1)[-1][0] != ((2 * value, 0), (0, 0), (0, 0), (0, 0)):
            problems.append(f"{name}^{n} != {value}")
    return problems, "all exact"


def _even_zeros(series) -> tuple[int, ...]:
    """Even degrees k >= 2 whose coefficient vanishes."""
    return tuple(k for k in range(2, len(series), 2) if series[k] == 0)


@_check("strength-molien", "even strengths via Molien zero sets, to u^60")
def check_strength_molien(budget: Budget) -> Outcome:
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
    return problems, "all three groups exact"


@_check("strength-direct", "pair-sum route agrees with Molien (even l<=40, odd l<=15)")
def check_strength_direct(budget: Budget) -> Outcome:
    problems = []
    for label in ("2T", "2O", "2I"):
        group = build_group(label)
        series = molien_series(group, 40)
        direct = pair_sum_tests_bulk(group, range(41))
        for ell in range(2, 41, 2):
            if direct[ell] != (series[ell] == 0):
                problems.append(f"{label} l={ell}: routes disagree")
        for ell in range(1, 16, 2):
            if not direct[ell]:
                problems.append(f"{label} odd l={ell}: pair sum nonzero")
    return problems, "exact agreement"


@_check("dihedral-cyclic", "cyclic/dihedral strength formulas, n in {2..6}, l<=20")
def check_dihedral_cyclic(budget: Budget) -> Outcome:
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
    return problems, "formulas verified; " + "; ".join(notes)


@_check("lp-certificates", "test-function certificates and bounds 24/48/120")
def check_lp_certificates(budget: Budget) -> Outcome:
    problems = []
    for name, expected in EXPECTED_FULL_BOUNDS.items():
        tf = build_test_function(name)
        report = verify_certificate(tf)
        if not report.passed:
            problems.append(f"{name}: certificate failed {report.messages}")
            continue
        bound = None if report.half_set_bound is None else 2 * report.half_set_bound
        if bound != expected:
            problems.append(f"{name}: bound {bound} != {expected}")
    corrupted = build_test_function("F2T", override={6: Fraction(1, 1000)})
    report = verify_certificate(corrupted)
    if report.passed or 6 not in report.off_design_violations:
        problems.append("corrupted F2T was not rejected at l=6")
    return problems, "certified; negative control rejected"


@_check("equality-cases", "bounds attained; angle sets; 2O distribution (1,6,8,18,8,6,1)")
def check_equality_cases(budget: Budget) -> Outcome:
    problems = []
    for name, label in (("F2T", "2T"), ("F2O", "2O"), ("F2I", "2I")):
        tf = build_test_function(name)
        group = build_group(label)
        report = check_equality_case(group, tf)
        if not (report.attained and report.is_design):
            problems.append(f"{label}: equality case fails {report}")
        if not report.inner_products_are_roots:
            problems.append(f"{label}: A(X) outside the certified angle set")
    o2 = build_group("2O")
    # the group itself, not its element list: every reader then shares the
    # group's one Gram pass
    if not is_distance_invariant(o2):
        problems.append("2O is not distance invariant")
    dist = distance_distribution(o2, o2.elements[0])
    half = Fraction(1, 2)
    inv_sqrt2 = sqrt2_elem(0, half)
    expected = {
        rat(1): 1, inv_sqrt2: 6, rat(half): 8, rat(0): 18,
        rat(-half): 8, -inv_sqrt2: 6, rat(-1): 1,
    }
    if dist != expected:
        problems.append(f"2O distance distribution {dist}")
    return problems, "all equality data exact"


@_check("shell-counts", "enumerated shell sizes equal divisor formulas and q-expansions")
def check_shell_counts(budget: Budget) -> Outcome:
    problems = []
    for label, m_max in SHELL_RANGES.items():
        for m, size in shell_counts(label, m_max, budget).items():
            expected = shell_count_formula(label, m)
            if size != expected:
                problems.append(f"{label} m={m}: {size} != {expected}")
        head = tuple(shell_count_formula(label, m) for m in range(1, 5))
        if head != PRINTED_SHELL_HEADS[label]:
            problems.append(f"{label}: first counts {head}")
    # theta_{G,1} coefficients against the Eisenstein combinations, m <= 8
    for label, series_name in (("2T", "Theta2T1"), ("2O", "Theta2O1"), ("2I", "Theta2I1")):
        coeffs = qseries(series_name, 8)
        for m in range(1, 9):
            if m <= SHELL_RANGES[label] and shell_count_formula(label, m) != coeffs[m]:
                problems.append(f"{label} m={m}: formula != q-series")
    covered = ", ".join(f"{label} m<={m_max}" for label, m_max in SHELL_RANGES.items())
    return problems, f"{covered} all exact"


@_check("order-units", "unit shells recover the groups (2I doubled by tau)")
def check_order_unit_identities(budget: Budget) -> Outcome:
    problems = []
    for label in ("2T", "2O"):
        sh = enumerate_shell(label, 1, budget)
        if set(EMBEDDED.iter_unpack(sh.embedded())) != set(map(flat, build_group(label).doubled)):
            problems.append(f"O_({label},1) != {label}")
    sh = enumerate_shell("2I", 1, budget)
    doubled, pmul = build_group("2I").doubled, PAIR_MUL[GOLDEN]
    expected = set(map(flat, doubled)) | {flat(pmul(a, b, 0, 1) for a, b in x) for x in doubled}
    if set(EMBEDDED.iter_unpack(sh.embedded())) != expected:
        problems.append("O_(2I,1) != 2I u tau 2I")
    if len(sh.orbit_reps) != 2:
        problems.append(f"O_(2I,1) has {len(sh.orbit_reps)} orbits, expected 2")
    return problems, "set equalities exact"


@_check("theta-vanishing", "rank 0 inside T(G), rank >= 1 outside (M = 6)")
def check_theta_vanishing(budget: Budget) -> Outcome:
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
        ranks = theta_ranks(label, in_t + not_in_t, 6, budget)
        for ell in in_t:
            if ranks[ell] != 0:
                problems.append(f"{label} l={ell}: rank {ranks[ell]} != 0")
        for ell in not_in_t:
            r = ranks[ell]
            if r < 1:
                problems.append(f"{label} l={ell}: rank {r} < 1")
            bound = harmonic_invariant_dim(label, ell)
            if r > bound:
                problems.append(f"{label} l={ell}: rank {r} > dim Harm^G {bound}")
    # entry-level spot checks on full tables at small degrees
    for label, ell, m in (("2T", 2, 6), ("2T", 10, 4), ("2O", 2, 3), ("2I", 2, 2)):
        if not theta_table(label, ell, m, "full", budget).is_zero():
            problems.append(f"{label} l={ell}: full table has nonzero entries")
    return problems, "sampled degrees certified both directions"


@_check("theta-generators", "rank-1 spaces match Delta+64Delta(2z) and E4*Delta")
def check_rank1_generators(budget: Budget) -> Outcome:
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
    return problems, "q-expansions match exactly"


@_check("harmonic-molien", "d_(G,l) table (l<=24) plus Reynolds cross-checks (l<=10)")
def check_harmonic_molien_table(budget: Budget) -> Outcome:
    problems = []
    for label, row in EXPECTED_D_TABLE.items():
        got = harmonic_molien(label, 24)[2::2]
        if got != row:
            problems.append(f"{label}: d-row {got}")
    for label in ("2T", "2O", "2I"):
        for ell, dr in invariant_dimensions(label, (2, 4, 6, 8, 10)).items():
            d = harmonic_invariant_dim(label, ell)
            if dr != d:
                problems.append(f"{label} l={ell}: Reynolds {dr} != {d}")
    return problems, "table and Reynolds dims agree"


@_check("dimension-hypotheses", "informational: rank lower bounds vs dimension series",
        blocking=False)
def check_hypothesis_reports(budget: Budget) -> Outcome:
    lines = []
    samples = {
        "2T": (6, 8, 12, 14),
        "2O": (8, 12, 16, 18, 20),
        "2I": (12, 20, 24),
    }
    for label, ells in samples.items():
        ranks = theta_ranks(label, ells, 6, budget)
        # the series is the Molien closed form, established only for 2T
        series = molien_closed_form(label, max(ells))
        tag = "proven" if label == "2T" else "conjectured"
        for ell in ells:
            mark = "agrees" if ranks[ell] == series[ell] else "rank below conjecture"
            lines.append(
                f"{label} l={ell}: rank>={ranks[ell]} vs {tag} dim {series[ell]} ({mark})"
            )
    return [], "; ".join(lines)


ALL_CHECKS = tuple((cid, fn) for cid, (_, _, fn) in _ROWS.items())


def run_check(check_id: str, budget: Budget) -> CheckResult:
    """Run one check and turn whatever it does into its row: a budget refusal
    is a SKIP row and any other exception an ERROR row, so a caller always
    gets a row back.  The callable is looked up in ALL_CHECKS at call time."""
    title, blocking, _ = _ROWS[check_id]
    check = dict(ALL_CHECKS)[check_id]
    t0 = time.perf_counter()
    try:
        problems, detail = check(budget)
    except ResourceBudgetError as exc:
        status, details = "SKIP", f"budget: {exc}"
    except Exception as exc:  # the row reports it; the other checks still run
        import traceback  # only here: it would add to every CLI call's start-up

        frame = traceback.extract_tb(exc.__traceback__)[-1]  # the stage that raised
        stage = f"{os.path.splitext(os.path.basename(frame.filename))[0]}.{frame.name}"
        status, details = "ERROR", f"{type(exc).__name__} in {stage}: {exc}"
    else:
        status = "FAIL" if problems else ("PASS" if blocking else "INFO")
        details = "; ".join(problems) or detail
    return CheckResult(check_id, title, status, blocking, details, time.perf_counter() - t0)


def run_all(budget: Budget | None = None, only=None) -> list[CheckResult]:
    budget = budget or get_budget()
    if only is not None:
        unknown = set(only) - set(_ROWS)
        if unknown:
            raise ValueError(f"unknown check ids: {sorted(unknown)}")
    return [run_check(cid, budget) for cid in _ROWS if only is None or cid in only]
