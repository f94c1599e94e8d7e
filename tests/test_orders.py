from fractions import Fraction
from math import lcm
from operator import mul

import pytest

from quatdesign.budget import Budget, ResourceBudgetError, get_budget
from quatdesign.exactnum import GOLDEN, golden_elem, insert, iota, rat, reduce
from quatdesign.groups import UnitGroup, build_group, omega
from quatdesign import orders, verify
from quatdesign.orders import (
    IntegrityError,
    QuadraticForm,
    Shell,
    embed_coords,
    enumerate_shell,
    orbit_decompose,
    order_basis,
    quadratic_form,
    right_multiplication_matrices,
    shell_count_formula,
    sigma,
)
from quatdesign.quat import Quaternion, norm, qmul
from quatdesign.strength import pair_sum_tests_bulk

import oracles


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
    assert form.is_positive_definite()
    assert form.dimension == (4 if label == "2T" else 8)


def test_q2t_values():
    form = quadratic_form("2T")
    assert oracles.form_value(form, (0, 0, 0, 1)) == 1  # the element omega
    assert oracles.form_value(form, (1, 0, 0, 0)) == 1
    x = embed_coords("2T", (1, 1, 1, 2))
    assert oracles.form_value(form, (1, 1, 1, 2)) == iota(norm(x))
    # same value through plain quaternion arithmetic
    w = omega()
    direct = Quaternion(1, 1, 1, 0) + w + w
    assert norm(direct).a == oracles.form_value(form, (1, 1, 1, 2))


def test_embedding_round_trip():
    for label in ("2T", "2O", "2I"):
        for coords in [(1, 0, 0, 0), (0, 1, 0, 0), (2, -1, 3, 1)]:
            full = coords + (0,) * (len(order_basis(label)) - 4)
            q = embed_coords(label, full)
            assert oracles.coords_of(label, q) == full


def test_coords_of_rejects_points_outside_the_order():
    with pytest.raises(ValueError):
        oracles.coords_of("2T", Quaternion(Fraction(1, 2), 0, 0, 0))
    with pytest.raises(ValueError):
        oracles.coords_of("2O", Quaternion(Fraction(1, 3), 0, 0, 0))


@pytest.mark.parametrize("gram", [((1, 2), (2, 1)), ((1, 1), (1, 1))],
                         ids=["indefinite", "singular"])
def test_not_positive_definite(gram):
    rows = tuple(tuple(Fraction(x) for x in row) for row in gram)
    assert not QuadraticForm("test", 2, rows).is_positive_definite()


def test_shell_counts_small():
    for label, m_max in (("2T", 10), ("2O", 6), ("2I", 4)):
        for m in range(1, m_max + 1):
            assert len(enumerate_shell(label, m)) == shell_count_formula(label, m)


# -- the Fincke-Pohst recursion with x_(n-1) outermost and every bucket sorted
# afterwards, kept as the oracle for the sort-free enumeration

def _oracle_levels(label):
    form = quadratic_form(label)
    d, u = orders._ldl_completion(form.gram)
    n = form.dimension
    rho = [1] * n
    unum = [[0] * n for _ in range(n)]
    for i in range(n):
        rho[i] = lcm(*(u[i][j].denominator for j in range(i + 1, n)))
        for j in range(i + 1, n):
            unum[i][j] = int(u[i][j] * rho[i])
    delta = [1] * (n + 1)
    for i in range(n - 1, -1, -1):
        delta[i] = lcm(delta[i + 1], d[i].denominator * rho[i] * rho[i])
    mu = [delta[i] // delta[i + 1] for i in range(n)]
    nu = [d[i].numerator * delta[i] // (d[i].denominator * rho[i] * rho[i])
          for i in range(n)]
    rfac = [rho[i] * rho[i] * d[i].denominator for i in range(n)]
    rden = [delta[i + 1] * d[i].numerator for i in range(n)]
    return n, rho, unum, delta, mu, nu, rfac, rden


def _oracle_ball(label, bound):
    n, rho, unum, delta, mu, nu, rfac, rden = _oracle_levels(label)
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
        hi = orders._floor_affine_sqrt(-ncenter * rden[level], c_big, r * rden[level])
        lo = 0 if leading_zero else -orders._floor_affine_sqrt(
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
    assert orders._enumerate_ball(label, bound) == want


def test_shell_values_and_sortedness():
    for label, bound in ORACLE_BALLS:
        form = quadratic_form(label)
        twice = [[int(2 * v) for v in row] for row in form.gram]  # 2 Q_G is integral
        for sh in orders.enumerate_shells(label, bound):
            points = list(sh.points)
            assert points == sorted(set(points))
            for c in points:
                assert sum(map(mul, c, [sum(map(mul, c, row)) for row in twice])) == 2 * sh.m
            for coords in points[:50]:
                assert oracles.form_value(form, coords) == sh.m
                assert iota(norm(embed_coords(label, coords))) == sh.m


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
    monkeypatch.setattr(verify, "golden_elem", lambda a, b: 1)
    result = verify.run_check("order-units", get_budget("desk"))
    assert not result.passed
    assert result.details == "O_(2I,1) != 2I u tau 2I"


# -- the embedding as a sum of Quaternion * rational products, kept as the
# oracle for the integer embedding

def _oracle_embed(label, coords):
    acc = None
    for c, g in zip(coords, order_basis(label)):
        if c:
            term = g * rat(c)
            acc = term if acc is None else acc + term
    return acc if acc is not None else Quaternion(0, 0, 0, 0, orders.FIELD_TAG[label])


@pytest.mark.parametrize("label, bound", [("2T", 3), ("2O", 2), ("2I", 2)])
def test_embedding_matches_the_quaternion_oracle(label, bound):
    zero = (0,) * len(order_basis(label))
    for coords in [zero] + [p for m in range(1, bound + 1)
                            for p in enumerate_shell(label, m).points]:
        assert embed_coords(label, coords).to_json() == _oracle_embed(label, coords).to_json()


@pytest.mark.parametrize("label", ["2T", "2O", "2I"])
def test_embedding_rejects_a_wrong_number_of_coordinates(label):
    n = len(order_basis(label))
    for coords in [(1,) * (n - 1), (1,) * (n + 1), ()]:
        with pytest.raises(ValueError, match="coordinates"):
            embed_coords(label, coords)


def test_unit_shell_identities():
    assert set(enumerate_shell("2T", 1).embedded()) == build_group("2T").as_set()
    assert set(enumerate_shell("2O", 1).embedded()) == build_group("2O").as_set()
    g = build_group("2I")
    tau = golden_elem(0, 1)
    expected = set(g.elements) | {e * tau for e in g.elements}
    assert set(enumerate_shell("2I", 1).embedded()) == expected


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
    points = enumerate_shell(label, m).points
    foreign = enumerate_shell(label, m + 1).points[0]
    broken = [
        (points[1:], "not stable"),                   # one point removed
        (points + (foreign,), "not stable"),          # a point of another shell
        (points + points[:1], "does not partition"),  # one point twice
    ]
    for pts, message in broken:
        with pytest.raises(IntegrityError, match=message):
            orbit_decompose(Shell(label, m, pts))


def test_orbit_decomposition_rejects_a_non_free_action(monkeypatch):
    mats = right_multiplication_matrices("2T")
    # one action twice and another one missing: every orbit is a point short
    monkeypatch.setattr(orders, "right_multiplication_matrices",
                        lambda label: (mats[0],) + mats[:-1])
    with pytest.raises(IntegrityError, match="not free"):
        orbit_decompose(enumerate_shell("2T", 1))


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
            q = qmul(g, eps) + g * rat(3)
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


def test_right_action_rejects_a_product_outside_the_order(monkeypatch):
    monkeypatch.setattr(orders, "build_group", lambda label: UnitGroup(label, [ODD_ICOSIAN]))
    right_multiplication_matrices.cache_clear()
    try:
        with pytest.raises(ValueError, match="not in the order"):
            right_multiplication_matrices("2I")
    finally:
        right_multiplication_matrices.cache_clear()


def test_strength_inheritance_normalized_shell():
    # O_(2T,4) has constant norm 4, so x/2 lives on the unit sphere
    sh = enumerate_shell("2T", 4)
    half = Fraction(1, 2)
    pts = [
        Quaternion(*(c * rat(half) for c in embed_coords("2T", coords).coords))
        for coords in sh.points
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
        for coords in sh.points[::41]:
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
                    lhs = _inner(qmul(x, g), qmul(x, h))
                    assert lhs == nx * _inner(g, h)


def _inner(a, b):
    from quatdesign.quat import inner

    return inner(a, b)


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
