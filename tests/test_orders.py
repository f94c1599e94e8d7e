import os
import struct
import subprocess
import sys
from fractions import Fraction
from itertools import product
from operator import mul
from pathlib import Path

import pytest

from quatdesign.budget import Budget, ResourceBudgetError, get_budget
from quatdesign.exactnum import GOLDEN, QuadElem, golden_elem, insert, rat, reduce
from quatdesign.groups import build_group
from quatdesign import orders, verify
from quatdesign.orders import (
    IntegrityError,
    enumerate_shell,
    orbit_decompose,
    quadratic_form,
    right_multiplication_matrices,
    shell_count_formula,
    sigma,
)
from quatdesign.quat import Quaternion, qmul, scaled_pairs
from quatdesign.strength import pair_sum_tests_bulk

import oracles
from oracles import embed_coords, inner, iota, norm, omega, order_basis, plus, times, unit_group


def test_sigma_values():
    assert sigma(1, 6) == 12
    assert sigma(3, 2) == 9
    assert sigma(3, 20) == 9198
    with pytest.raises(ValueError):
        sigma(1, 0)


def test_count_formulas_match_printed_expansions():
    assert [shell_count_formula("2T", m) for m in range(1, 5)] == [24, 24, 96, 24]
    assert [shell_count_formula("2O", m) for m in range(1, 5)] == [48, 624, 1344, 5232]
    assert [shell_count_formula("2I", m) for m in range(1, 5)] == [240, 2160, 6720, 17520]


@pytest.mark.parametrize("label", ["2T", "2O", "2I"])
def test_quadratic_form_definite_and_published(label):
    form = quadratic_form(label)  # construction asserts the published match
    assert all(pivot > 0 for pivot in orders._completion(label)[0])
    assert len(form) == (4 if label == "2T" else 8)
    # the Gram on the doubled integer pairs is the QuadElem one
    assert form == oracles.quadelem_gram(label)


@pytest.mark.parametrize("label", ["2T", "2O", "2I"])
def test_doubled_bases_match_the_written_out_bases(label):
    # the pair tables, rho-multiples included, against the oracle's
    # Quaternion bases built by QuadElem products
    pairs = tuple(scaled_pairs(g.coords, 2) for g in order_basis(label))
    assert orders._doubled_basis(label)[0] == pairs


def test_q2t_values():
    form = quadratic_form("2T")
    assert oracles.form_value(form, (0, 0, 0, 1)) == 1  # the element omega
    assert oracles.form_value(form, (1, 0, 0, 0)) == 1
    x = embed_coords("2T", (1, 1, 1, 2))
    assert oracles.form_value(form, (1, 1, 1, 2)) == iota(norm(x))
    # same value through plain quaternion arithmetic
    w = omega()
    direct = plus(plus(Quaternion(1, 1, 1, 0), w), w)
    assert norm(direct).a == oracles.form_value(form, (1, 1, 1, 2))


def test_embedding_round_trip():
    for label in ("2T", "2O", "2I"):
        for coords in [(1, 0, 0, 0), (0, 1, 0, 0), (2, -1, 3, 1)]:
            full = coords + (0,) * (len(order_basis(label)) - 4)
            q = embed_coords(label, full)
            assert oracles.coords_of(label, q) == full


def test_a_dependent_basis_is_refused(monkeypatch):
    # rank 3, yet its doubled basis uses four flat components, one per vector;
    # its Gram matrix is singular, and the completion refuses it
    dependent = (Quaternion(1, 0, 0, 0), Quaternion(0, 1, 0, 0),
                 Quaternion(0, 0, 1, 1), Quaternion(0, 0, 2, 2))
    pairs = tuple(scaled_pairs(g.coords, 2) for g in dependent)
    monkeypatch.setattr(orders, "_doubled_basis", lambda label: (pairs, None))
    monkeypatch.setattr(orders, "_iota", orders._iota.__wrapped__)
    monkeypatch.setattr(orders, "_completion", orders._completion.__wrapped__)
    with pytest.raises(AssertionError, match="linearly dependent"):
        orders._gram_inverse.__wrapped__("2T")


def test_a_form_off_the_published_polynomial_is_refused(monkeypatch):
    # without the r_2, r_3 sign substitution the 2T cross terms change sign
    monkeypatch.setitem(orders._PUBLISHED_SUBSTITUTION, "2T", (1, 1, 1, 1))
    with pytest.raises(IntegrityError, match="does not match the published polynomial"):
        orders.quadratic_form.__wrapped__("2T")


_COMPLETIONS_CHILD = """
from quatdesign import orders
calls, ldl = [], orders._ldl_completion
orders._ldl_completion = lambda gram: calls.append(gram) or ldl(gram)
for label in ("2T", "2O", "2I"):
    before = len(calls)
    orders.enumerate_shell(label, 2)
    orders.shell_counts(label, 3)
    orders.shell_counts(label, 4)
    orders.right_multiplication_matrices(label)
    orders._int16_radius(label)
    print(label, len(calls) - before)
"""


def test_each_order_is_completed_once():
    # a listing, two counts, R_eps and the int16 radius share one completion
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "QUATDESIGN_"))}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run([sys.executable, "-c", _COMPLETIONS_CHILD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["2T 1", "2O 1", "2I 1"]


def test_coords_of_rejects_points_outside_the_order():
    with pytest.raises(ValueError):
        oracles.coords_of("2T", Quaternion(Fraction(1, 2), 0, 0, 0))
    with pytest.raises(ValueError):
        oracles.coords_of("2O", Quaternion(Fraction(1, 3), 0, 0, 0))


@pytest.mark.parametrize("gram", [((1, 2), (2, 1)), ((1, 1), (1, 1))],
                         ids=["indefinite", "singular"])
def test_not_positive_definite(gram):
    rows = tuple(tuple(Fraction(x) for x in row) for row in gram)
    with pytest.raises(ValueError, match="not positive definite"):
        orders._ldl_completion(rows)


def test_shell_counts_small():
    for label, m_max in (("2T", 10), ("2O", 6), ("2I", 4)):
        for m in range(1, m_max + 1):
            assert len(enumerate_shell(label, m)) == shell_count_formula(label, m)


# -- the Fincke-Pohst recursion with x_(n-1) outermost and every bucket sorted
# afterwards, kept as the oracle for the sort-free enumeration

def _oracle_ball(label, bound):
    n, rho, unum, delta, mu, nu, rfac, rden = oracles.rescaled_levels(
        quadratic_form(label))
    buckets = {m: [] for m in range(1, bound + 1)}
    x = [0] * n

    def descend(level, t, leading_zero):
        if level < 0:
            q_val = bound - t // delta[0]
            if q_val >= 1:
                pt = tuple(x)
                buckets[q_val].append(pt)
                if not leading_zero or any(pt):
                    buckets[q_val].append(tuple(-c for c in pt))
            return
        r = rho[level]
        ncenter = sum(unum[level][j] * x[j] for j in range(level + 1, n))
        c_big = t * rfac[level] * rden[level]
        hi = oracles.floor_affine_sqrt(-ncenter * rden[level], c_big, r * rden[level])
        lo = 0 if leading_zero else -oracles.floor_affine_sqrt(
            ncenter * rden[level], c_big, r * rden[level])
        for xi in range(lo, hi + 1):
            k = xi * r + ncenter
            t_next = mu[level] * t - nu[level] * k * k
            if t_next < 0:
                continue
            x[level] = xi
            descend(level - 1, t_next, leading_zero and xi == 0)
        x[level] = 0

    descend(n - 1, bound * delta[n], True)
    for m in buckets:
        buckets[m].sort()
    return buckets


ORACLE_BALLS = [("2T", 30), ("2O", 6), ("2I", 4)]


@pytest.mark.parametrize("label, bound", ORACLE_BALLS)
def test_ball_matches_the_sorting_oracle_in_order(label, bound):
    want = {m: tuple(points) for m, points in _oracle_ball(label, bound).items()}
    assert {m: tuple(orders.Shell(label, m, block))
            for m, block in orders._enumerate_ball(label, bound).items()} == want


@pytest.mark.parametrize("label, bound", [("2T", 10), ("2O", 4), ("2I", 3)])
def test_shell_points_match_the_tuple_ball_oracle(label, bound):
    want = oracles.tuple_ball(label, bound)
    for m in range(1, bound + 1):
        assert tuple(enumerate_shell(label, m)) == want[m]


def test_a_ball_past_the_int16_records_is_refused_before_enumeration():
    radius = orders._int16_radius("2T")
    with pytest.raises(IntegrityError, match="outside int16"):
        orders._enumerate_ball("2T", int(radius) + 1)
    # over Q <= b, x_i reaches sqrt(b (G^-1)_ii): 2^15 at the radius
    gram = quadratic_form("2T")
    assert radius == 2**30 / max(oracles.inverse_diagonal(gram, i) for i in range(4))


def test_a_coordinate_outside_int16_is_no_record():
    with pytest.raises(struct.error, match="32767"):
        oracles.shell_of("2T", 1, [(1, 0, 0, 0), (0, 2**15, 0, 0)])
    with pytest.raises(struct.error, match="32767"):
        oracles.shell_of("2I", 1, [(0,) * 7 + (-(2**15) - 1,)])
    # -2^15 is a record, but its negation, the point of H, is not
    with pytest.raises(struct.error, match="32767"):
        orbit_decompose(oracles.shell_of("2T", 1, [(-(2**15), 0, 0, 0)]))


def test_a_point_list_is_a_shell_only_when_symmetric_under_minus_one():
    shell = enumerate_shell("2T", 2)
    points = tuple(shell)
    # a point of H without its negation, one of -H without its, one of no pair
    for broken in (points[:-1], points[1:], points + ((1, 2, 3, 4),)):
        with pytest.raises(IntegrityError, match="not stable"):
            oracles.shell_of("2T", 2, broken)
    # the half-ball is kept in lexicographic order, whatever the given order
    assert oracles.shell_of("2T", 2, points[::-1]).records == shell.records


def test_orbit_decomposition_rejects_a_shell_missing_a_whole_pair():
    # every remaining point has its negation, but the orbit of p does not
    # lie in the shell without p and -p
    points = tuple(enumerate_shell("2O", 2))
    p = points[len(points) // 3]
    pts = [q for q in points if q not in (p, tuple(-c for c in p))]
    with pytest.raises(IntegrityError, match="not stable"):
        orbit_decompose(oracles.shell_of("2O", 2, pts))


def test_orbit_images_that_would_wrap_are_refused(monkeypatch):
    # the pair {p, -p} of a point whose images reach 2^15 in some field, and
    # of one just under the bound, whose orbit is not inside the pair
    sh = enumerate_shell("2T", 1)
    column = max(sum(abs(row[j]) for row in mat)
                 for mat in right_multiplication_matrices("2T") for j in range(4))
    for a, message in ((-(-2**15 // column), "do not fit int16 fields"),
                       ((2**15 - 1) // column, "not stable")):
        with pytest.raises(IntegrityError, match=message):
            orbit_decompose(oracles.shell_of("2T", 1, [(a, 0, 0, 0), (-a, 0, 0, 0)]))
    # an action whose column sum reaches 2^15 on a unit shell
    mats = right_multiplication_matrices("2T")
    scale = 2**15 // column + 1
    monkeypatch.setattr(orders, "right_multiplication_matrices", lambda label: tuple(
        tuple(tuple(scale * v for v in row) for row in mat) for mat in mats))
    with pytest.raises(IntegrityError, match="do not fit int16 fields"):
        orbit_decompose(sh)


def test_shell_values_and_sortedness():
    for label, bound in ORACLE_BALLS:
        form = quadratic_form(label)
        twice = [[int(2 * v) for v in row] for row in form]  # 2 Q_G is integral
        for sh in orders.enumerate_shells(label, bound):
            points = list(sh)
            assert points == sorted(set(points))
            for c in points:
                assert sum(map(mul, c, [sum(map(mul, c, row)) for row in twice])) == 2 * sh.m
            for coords in points[:50]:
                assert oracles.form_value(form, coords) == sh.m
                assert iota(norm(embed_coords(label, coords))) == sh.m


@pytest.mark.parametrize("label, bound", ORACLE_BALLS)
def test_the_cached_records_are_the_half_ball(label, bound):
    # each shell stores H_m alone: first nonzero coordinate positive, in
    # strictly increasing lexicographic order, one record per point of H_m
    orders.enumerate_shells(label, bound)
    for sh in orders._BALL_CACHE[label][1]:
        half = sh.half
        assert len(sh.records) == orders.RECORD[label].size * len(half)
        assert 2 * len(half) == len(sh) == shell_count_formula(label, sh.m)
        assert all(next(c for c in p if c) > 0 for p in half)
        assert all(a < b for a, b in zip(half, half[1:]))


def test_a_shell_counts_its_points():
    # len is 2 |H_m|, not the number of stored fields: a shell is no tuple
    shell = enumerate_shell("2T", 1)
    assert len(shell) == 24 == len(tuple(shell)) == 2 * len(shell.half)
    assert not isinstance(shell, tuple)


def test_enumerate_shells_serves_every_shell_from_one_ball(ball_calls):
    shells = orders.enumerate_shells("2I", 3)
    assert ball_calls == [("2I", 3)]
    assert [(sh.m, len(sh)) for sh in shells] == [(1, 240), (2, 2160), (3, 6720)]
    assert shells[1] == enumerate_shell("2I", 2)
    assert ball_calls == [("2I", 3)]


@pytest.mark.parametrize("label, bound", ORACLE_BALLS)
def test_counting_leaf_matches_the_recorded_shells(label, bound):
    want = {sh.m: len(sh) for sh in orders.enumerate_shells(label, bound)}
    assert orders.shell_counts(label, bound) == want
    assert list(orders.shell_counts(label, bound)) == list(range(1, bound + 1))
    assert orders.shell_counts(label, bound) == oracles.leaf_counts(label, bound)


def test_level_count_matches_the_formulas_far_past_the_desk_budget():
    # no budget: the 2I ball of radius 30 alone holds 56.5 million points
    for label, bound in (("2T", 200), ("2O", 40), ("2I", 30)):
        assert orders._count_ball(label, bound) == {
            m: shell_count_formula(label, m) for m in range(1, bound + 1)}


def test_shell_counts_leave_the_ball_cache_alone(ball_calls):
    enumerate_shell("2O", 2)
    cached = orders._BALL_CACHE["2O"]
    assert orders.shell_counts("2O", 5) == {
        m: shell_count_formula("2O", m) for m in range(1, 6)}
    assert ball_calls == [("2O", 2), ("2O", 5)]
    assert orders._BALL_CACHE == {"2O": cached}


def test_shell_counts_refuse_like_the_recorded_shells(ball_calls):
    # a shell cap, an enumeration cap and an invalid index, each refused
    # before any enumeration with the same error as the recorded shells
    tiny = Budget("tiny", max_shell_m={"2I": 4}, max_enum_points=1000)
    for label, m in (("2I", 8), ("2O", 3), ("2T", 0)):
        errors = []
        for run in (orders.shell_counts, orders.enumerate_shells):
            with pytest.raises((ResourceBudgetError, ValueError)) as err:
                run(label, m, tiny)
            errors.append((type(err.value), str(err.value)))
        assert errors[0] == errors[1]
    assert ball_calls == []


def test_shell_counts_check_makes_one_ball_per_label(ball_calls):
    result = verify.run_check("shell-counts", get_budget("desk"))
    assert result.passed
    assert ball_calls == [("2T", 30), ("2O", 12), ("2I", 8)]
    assert orders._BALL_CACHE == {}
    assert result.details == "2T m<=30, 2O m<=12, 2I m<=8 all exact"


def test_shell_counts_check_names_the_covered_range(ball_calls, monkeypatch):
    monkeypatch.setattr(verify, "SHELL_RANGES", {"2T": 9, "2O": 3, "2I": 2})
    result = verify.run_check("shell-counts", get_budget("desk"))
    assert result.passed
    assert result.details == "2T m<=9, 2O m<=3, 2I m<=2 all exact"
    assert ball_calls == [("2T", 9), ("2O", 3), ("2I", 2)]


def test_order_units_check_names_the_icosian_shell(monkeypatch):
    # with tau replaced by 1, the expected O_(2I,1) collapses to 2I itself
    monkeypatch.setattr(verify, "PAIR_MUL", {GOLDEN: lambda a, b, c, d: (a, b)})
    result = verify.run_check("order-units", get_budget("desk"))
    assert not result.passed
    assert result.details == "O_(2I,1) != 2I u tau 2I"


# -- the embedding as a sum of Quaternion * rational products, kept as the
# oracle for the integer embedding

def _oracle_embed(label, coords):
    acc = None
    for c, g in zip(coords, order_basis(label)):
        if c:
            term = times(g, rat(c))
            acc = term if acc is None else plus(acc, term)
    return acc if acc is not None else Quaternion(0, 0, 0, 0, orders.FIELD_TAG[label])


@pytest.mark.parametrize("label, bound", [("2T", 3), ("2O", 2), ("2I", 2)])
def test_embedding_matches_the_quaternion_oracle(label, bound):
    zero = (0,) * len(order_basis(label))
    for coords in [zero] + [p for m in range(1, bound + 1)
                            for p in enumerate_shell(label, m)]:
        assert embed_coords(label, coords).to_json() == _oracle_embed(label, coords).to_json()


@pytest.mark.parametrize("label", ["2T", "2O", "2I"])
def test_embedding_rejects_a_wrong_number_of_coordinates(label):
    n = len(order_basis(label))
    for coords in [(1,) * (n - 1), (1,) * (n + 1), ()]:
        with pytest.raises(ValueError, match="coordinates"):
            embed_coords(label, coords)


def _embedded(shell):
    """`Shell.embedded()` decoded: x from the flat components of 2x."""
    tag = orders.FIELD_TAG[shell.group_label]
    return [Quaternion(*(QuadElem(tag, Fraction(a, 2), Fraction(b, 2))
                         for a, b in zip(x2[::2], x2[1::2])))
            for x2 in orders.EMBEDDED.iter_unpack(shell.embedded())]


def test_unit_shell_identities():
    assert set(_embedded(enumerate_shell("2T", 1))) == set(build_group("2T"))
    assert set(_embedded(enumerate_shell("2O", 1))) == set(build_group("2O"))
    g = build_group("2I")
    tau = golden_elem(0, 1)
    expected = set(g.elements) | {times(e, tau) for e in g.elements}
    assert set(_embedded(enumerate_shell("2I", 1))) == expected


@pytest.mark.parametrize("label, m", [("2T", 1), ("2T", 3), ("2O", 1), ("2O", 2),
                                      ("2I", 1), ("2I", 2)])
def test_embedded_records_embed_every_point_in_order(label, m):
    # one record per point, in the order of iteration, each the embedding
    # that embed_coords gives; iteration is -H_m reversed, then H_m
    shell = enumerate_shell(label, m)
    assert tuple(shell) == tuple(tuple(-v for v in p) for p in reversed(shell.half)) + shell.half
    assert len(shell.embedded()) == len(shell) * orders.EMBEDDED.size
    assert _embedded(shell) == [embed_coords(label, c) for c in shell]


def test_orbit_decomposition():
    sh = enumerate_shell("2T", 1)
    assert len(orbit_decompose(sh)) == 1
    sh = enumerate_shell("2I", 1)
    reps = orbit_decompose(sh)
    assert len(reps) == 2
    norms = {norm(embed_coords("2I", r)) for r in reps}
    tau = golden_elem(0, 1)
    assert norms == {rat(1), tau * tau}
    for m in range(1, 11):
        sh = enumerate_shell("2T", m)
        assert len(orbit_decompose(sh)) * 24 == len(sh)


@pytest.mark.parametrize("label, m", [("2T", 3), ("2O", 2)])
def test_orbit_decomposition_rejects_broken_shells(label, m):
    points = tuple(enumerate_shell(label, m))
    foreign = tuple(enumerate_shell(label, m + 1))[0]
    broken = [
        (points[1:], "not stable"),                   # one point removed
        (points + (foreign,), "not stable"),          # a point of another shell
        (points + points[:1], "does not partition"),  # one point twice
    ]
    for pts, message in broken:
        with pytest.raises(IntegrityError, match=message):
            orbit_decompose(oracles.shell_of(label, m, pts))
    # the shell's own records with one of them twice
    records = enumerate_shell(label, m).records
    twice = orders.Shell(label, m, records + records[:orders.RECORD[label].size])
    with pytest.raises(IntegrityError, match="does not partition"):
        orbit_decompose(twice)


def test_orbit_decomposition_rejects_a_non_free_action(monkeypatch):
    mats = right_multiplication_matrices("2T")
    # one action twice and another one missing: every orbit is a point short
    monkeypatch.setattr(orders, "right_multiplication_matrices",
                        lambda label: (mats[0],) + mats[:-1])
    with pytest.raises(IntegrityError, match="not free"):
        orbit_decompose(enumerate_shell("2T", 1))


def test_orbit_decomposition_rejects_an_orbit_with_a_stabilizer(monkeypatch):
    # the sixteen sign matrices diag(+-1, +-1, +-1, +-1) pair up under
    # negation, but each fixes (1, 0, 0, 0) or its negation: the orbit of that
    # point is one pair, not |G|/2 = 8
    signs = [tuple(tuple(s[i] if i == j else 0 for j in range(4)) for i in range(4))
             for s in product((1, -1), repeat=4)]
    monkeypatch.setattr(orders, "right_multiplication_matrices", lambda label: tuple(signs))
    with pytest.raises(IntegrityError, match="not free"):
        orbit_decompose(oracles.shell_of("2T", 1, [(-1, 0, 0, 0), (1, 0, 0, 0)]))


@pytest.mark.parametrize("label, m_max", [("2T", 10), ("2O", 4), ("2I", 3)])
def test_orbit_reps_match_the_all_elements_oracle(label, m_max):
    for m in range(1, m_max + 1):
        shell = enumerate_shell(label, m)
        assert orbit_decompose(shell) == oracles.orbit_reps(shell)


def test_orbit_decomposition_rejects_an_unpaired_matrix(monkeypatch):
    mats = right_multiplication_matrices("2T")
    # R_eps is dropped, so R_(-eps) has no partner to take the negated image
    monkeypatch.setattr(orders, "right_multiplication_matrices", lambda label: mats[1:])
    with pytest.raises(IntegrityError, match="not free"):
        orbit_decompose(enumerate_shell("2T", 1))


def test_right_action_matrices_are_integral_and_complete():
    mats = right_multiplication_matrices("2O")
    assert len(mats) == 48
    basis = order_basis("2O")
    group = build_group("2O")
    eps = group.elements[7]
    mat = mats[7]
    for i, g in enumerate(basis):
        assert oracles.coords_of("2O", qmul(g, eps)) == mat[i]


def oracle_coords(label, q):
    """Coordinates of q by reducing [flatten(q)] against the rows
    [flatten(b_j) | e_j] over Fraction; None when q is not in the order."""
    def flatten(x):
        return {2 * i + part: c.b if part else c.a
                for i, c in enumerate(x.coords) for part in (0, 1)}

    basis = order_basis(label)
    echelon = {}
    for j, g in enumerate(basis):
        assert insert({**flatten(g), 8 + j: Fraction(1)}, echelon)
    rest = reduce(flatten(q), echelon)
    coords = [-rest.get(8 + j, 0) for j in range(len(basis))]
    if any(k < 8 for k in rest) or any(c.denominator != 1 for c in coords):
        return None
    return tuple(int(c) for c in coords)


@pytest.mark.parametrize("label", ["2T", "2O", "2I"])
def test_right_action_matrices_match_quaternion_products(label):
    basis = order_basis(label)
    oracle = tuple(
        tuple(oracle_coords(label, qmul(g, eps)) for g in basis)
        for eps in build_group(label)
    )
    assert right_multiplication_matrices(label) == oracle


@pytest.mark.parametrize("label", ["2T", "2O", "2I"])
def test_coords_of_matches_the_echelon_oracle(label):
    for eps in build_group(label).elements[:12]:
        for g in order_basis(label):
            q = plus(qmul(g, eps), times(g, rat(3)))
            assert oracles.coords_of(label, q) == oracle_coords(label, q)


# (tau, 1, tau^-1, 0)/2: a unit with 2q in Z[tau], but an odd permutation of
# zeta's coordinates, so neither it nor its products with the basis are icosians
ODD_ICOSIAN = Quaternion(golden_elem(0, Fraction(1, 2)), golden_elem(Fraction(1, 2)),
                         golden_elem(Fraction(-1, 2), Fraction(1, 2)), golden_elem(0))


def test_coords_of_rejects_integral_doubles_outside_the_order():
    assert oracle_coords("2I", ODD_ICOSIAN) is None
    with pytest.raises(ValueError, match="not in the order"):
        oracles.coords_of("2I", ODD_ICOSIAN)
    # the 2T solve reads the rational parts only; a sqrt2 part fails the rebuild
    assert orders._solve("2T", (2, 1, 0, 0, 0, 0, 0, 0), 1) is None
    assert orders._solve("2T", (2, 0, 0, 0, 0, 0, 0, 0), 1) == (1, 0, 0, 0)
    # tau has the pair (0, 1), which O_2O would read as sqrt2
    with pytest.raises(ValueError, match="not in the order"):
        oracles.coords_of("2O", Quaternion(golden_elem(0, 1), 0, 0, 0, GOLDEN))


def test_a_fractional_solution_is_refused_by_the_exact_division(monkeypatch):
    # x = 1/2: 2x is integral, its coordinates (1/2, 0, 0, 0) are not; with
    # the rebuild made to pass, only the exact division refuses x
    doubled = (1, 0, 0, 0, 0, 0, 0, 0)
    monkeypatch.setattr(orders, "doubled_point", lambda label, coords: doubled)
    assert orders._solve("2T", doubled, 1) is None


def test_right_action_rejects_a_product_outside_the_order(monkeypatch):
    monkeypatch.setattr(orders, "build_group", lambda label: unit_group(label, [ODD_ICOSIAN]))
    right_multiplication_matrices.cache_clear()
    try:
        with pytest.raises(ValueError, match=r"^Quaternion\(0 \+ 1/2\*tau, 1/2, -1/2 \+ 1/2\*tau, 0\)"
                                              r" is not in the order O_2I$"):
            right_multiplication_matrices("2I")
    finally:
        right_multiplication_matrices.cache_clear()


def test_strength_inheritance_normalized_shell():
    # O_(2T,4) has constant norm 4, so x/2 lives on the unit sphere
    sh = enumerate_shell("2T", 4)
    half = Fraction(1, 2)
    pts = [
        Quaternion(*(c * rat(half) for c in embed_coords("2T", coords).coords))
        for coords in sh
    ]
    results = pair_sum_tests_bulk(pts, (2, 4, 10))
    assert all(results.values())
    assert not pair_sum_tests_bulk(pts, (6,))[6]


def test_kappa4_basics():
    assert oracles.kappa4("2I", (1, 0, 0, 0, 0, 0, 0, 0)) == (
        Fraction(1), 0, 0, 0, 0, 0, 0, 0,
    )
    assert oracles.kappa4("2I", (0, 0, 0, 0, 1, 0, 0, 0)) == (
        0, Fraction(1), 0, 0, 0, 0, 0, 0,
    )
    with pytest.raises(ValueError):
        oracles.kappa4("2T", (1, 0, 0, 0))


def test_kappa4_identity_on_shells():
    for m in (1, 2, 3, 4, 5):
        sh = enumerate_shell("2I", m)
        for coords in tuple(sh)[::41]:
            vec = oracles.kappa4("2I", coords)  # asserts the identity
            assert sum(v * v for v in vec) == m
        assert len(sh) == 240 * sigma(3, m)  # the 2m-shell count of E8


def test_shells_decompose_into_orthogonal_group_copies():
    # each orbit xG carries the inner-product structure of sqrt(N(x)) G
    group = build_group("2I")
    sample = group.elements[::13]
    for m in (1, 2):
        sh = enumerate_shell("2I", m)
        for rep in orbit_decompose(sh):
            x = embed_coords("2I", rep)
            nx = norm(x)
            for g in sample:
                for h in sample[:3]:
                    lhs = inner(qmul(x, g), qmul(x, h))
                    assert lhs == nx * inner(g, h)


def kappa4_gram() -> list[list[Fraction]]:
    """Gram matrix of kappa4(order basis) under the standard dot product."""
    vecs = [oracles.kappa4("2I", tuple(int(i == j) for i in range(8)))
            for j in range(8)]
    return [[sum(a * b for a, b in zip(u, v)) for v in vecs] for u in vecs]


def test_kappa4_image_is_scaled_e8():
    gram = kappa4_gram()
    n = 8
    doubled = [[2 * gram[i][j] for j in range(n)] for i in range(n)]
    assert all(v.denominator == 1 for row in doubled for v in row)
    assert all(int(doubled[i][i]) % 2 == 0 for i in range(n))
    det = _det(doubled)
    assert det == 1  # even unimodular of rank 8 with 240 roots: E8
    assert shell_count_formula("2I", 1) == 240


def _det(mat):
    m = [[Fraction(x) for x in row] for row in mat]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] * inv
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def test_budget_guard():
    small = get_budget("small")
    with pytest.raises(ResourceBudgetError):
        enumerate_shell("2I", 8, small)


def test_shell_m_validation():
    with pytest.raises(ValueError):
        enumerate_shell("2T", 0)
    with pytest.raises(ValueError):
        shell_count_formula("Q8", 1)
