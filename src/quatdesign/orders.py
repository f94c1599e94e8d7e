"""Maximal orders of the three quaternion groups and their shells.

Coordinates follow the order bases

    O_2T:  {1, i, j, w}           over Z          (4 integer coordinates)
    O_2O:  {1, a, b, ab}          over Z[sqrt2]   (8: y_1..y_4, z_1..z_4)
    O_2I:  {1, i, z, iz}          over Z[tau]     (8: y_1..y_4, z_1..z_4)

with x = sum (y_c + z_c * rho) b_c.  The integral quadratic form is

    Q_G(coords) = iota_G(N(x)) = sum_ij coords_i coords_j iota(<g_i, g_j>),

derived symbolically from the basis; the derivation is checked against the
published polynomial (for the 4-variable form this requires the unimodular
substitution r_2 -> -r_2, r_3 -> -r_3: the published cross terms carry the
signs of the conjugated basis vector -conj(w) rather than w itself).

Shell enumeration is exact Fincke-Pohst: rational LDL^T completion of the
Gram matrix, integer bounds from floor/ceil of quadratic irrationalities via
integer square roots, no floating point anywhere.  One pass yields every
shell up to a bound, each already in lexicographic order, or only the size of
each shell.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from math import isqrt, lcm
from operator import mul, neg

from .budget import Budget, get_budget
from .exactnum import QuadElem, RAT, SQRT2, GOLDEN, insert, iota, reduce
from .groups import build_group, omega, alpha, beta, zeta
from .quat import Quaternion, flat, inner, qmul, qmul_pairs, scaled_pairs

ORDER_LABELS = ("2T", "2O", "2I")
FIELD_TAG = {"2T": RAT, "2O": SQRT2, "2I": GOLDEN}


class IntegrityError(AssertionError):
    """Symbolically derived data disagrees with recorded reference data."""


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


def _sigma_half(k: int, m: int) -> int:
    """sigma_k(m/2), zero when m is odd."""
    return sigma(k, m // 2) if m % 2 == 0 else 0


def shell_count_formula(label: str, m: int) -> int:
    """|O_{G,m}| by divisor sums.

    The 2T and 2I formulas are the published ones.  For 2O the published
    expression 240(5 sigma_3(m) - 4 sigma_3(m/2)) contradicts both the
    printed q-expansion 1 + 48q + 624q^2 + ... and O_{2O,1} = 2O; the
    combination consistent with those (and with the enumeration here) is
    48(sigma_3(m) + 4 sigma_3(m/2)), i.e. theta_{2O,1} = (E4(z)+4E4(2z))/5.
    """
    if m < 1:
        raise ValueError("shells are indexed by m >= 1")
    if label == "2T":
        return 24 * (sigma(1, m) - 2 * _sigma_half(1, m))
    if label == "2O":
        return 48 * (sigma(3, m) + 4 * _sigma_half(3, m))
    if label == "2I":
        return 240 * sigma(3, m)
    raise ValueError(f"no maximal order attached to {label!r}")


# -- order bases -------------------------------------------------------------

@lru_cache(maxsize=None)
def order_basis(label: str) -> tuple[Quaternion, ...]:
    """Z-module generators of O_G (length 4 for 2T, 8 for 2O/2I)."""
    if label == "2T":
        return (
            Quaternion(1, 0, 0, 0),
            Quaternion(0, 1, 0, 0),
            Quaternion(0, 0, 1, 0),
            omega(),
        )
    if label == "2O":
        a, b = alpha(), beta()
        base = (Quaternion(1, 0, 0, 0, SQRT2), a, b, qmul(a, b))
        rho = QuadElem(SQRT2, 0, 1)
        return base + tuple(g * rho for g in base)
    if label == "2I":
        z = zeta()
        i = Quaternion(0, 1, 0, 0, GOLDEN)
        base = (Quaternion(1, 0, 0, 0, GOLDEN), i, z, qmul(i, z))
        rho = QuadElem(GOLDEN, 0, 1)
        return base + tuple(g * rho for g in base)
    raise ValueError(f"no maximal order attached to {label!r}")


def embed_coords(label: str, coords) -> Quaternion:
    """sum_j c_j b_j, summed on the flat integer components of 2 b_j."""
    comps = _doubled_basis(label)[1]
    if len(coords) != len(comps[0]):
        raise ValueError(f"{label} expects {len(comps[0])} coordinates")
    flat = [sum(map(mul, coords, comp)) for comp in comps]
    tag = FIELD_TAG[label]
    return Quaternion(*(QuadElem(tag, Fraction(a, 2), Fraction(b, 2))
                        for a, b in zip(flat[::2], flat[1::2])))


@lru_cache(maxsize=None)
def _doubled_basis(label: str):
    """(pairs, comps, cols, inv, den) for the doubled basis 2*b_j.

    pairs[j] is 2*b_j on integer pairs and comps[k] the k-th flat component
    of every 2*b_j; cols are the n components the basis uses, and inv holds
    the columns of den * M^-1 for the n x n matrix M of those components,
    with den the least denominator that makes it integral.
    """
    pairs = tuple(scaled_pairs(g.coords, 2) for g in order_basis(label))
    rows = [flat(p) for p in pairs]
    n = len(rows)
    cols = [k for k in range(8) if any(row[k] for row in rows)]
    # row k of M^-1 is -(right half) of e_k reduced against [M_j | e_j]
    echelon: dict = {}
    for j, row in enumerate(rows):
        vec = {i: Fraction(row[k]) for i, k in enumerate(cols)}
        if len(cols) != n or not insert({**vec, n + j: Fraction(1)}, echelon):
            raise AssertionError(f"order basis of {label} is linearly dependent")
    inv = [[-reduce({k: Fraction(1)}, echelon).get(n + j, 0) for j in range(n)]
           for k in range(n)]
    den = lcm(*(q.denominator for row in inv for q in row))
    inv = tuple(tuple(int(q * den) for q in col) for col in zip(*inv))
    return pairs, tuple(zip(*rows)), cols, inv, den


def _solve(label: str, flat, half: int) -> tuple[int, ...] | None:
    """Integer c with x = sum_j c_j b_j, from the flat components of
    2*half*x; None when x is not in the order."""
    _, comps, cols, inv, den = _doubled_basis(label)
    sums = [sum(flat[k] * a for k, a in zip(cols, col)) for col in inv]
    if any(t % (den * half) for t in sums):
        return None
    coords = tuple(t // (den * half) for t in sums)
    # the solve reads only `cols`; the coordinates must rebuild every component
    rebuilt = tuple(half * sum(map(mul, coords, comp)) for comp in comps)
    return coords if rebuilt == tuple(flat) else None


# -- quadratic forms ---------------------------------------------------------

@dataclass(frozen=True)
class QuadraticForm:
    group_label: str
    dimension: int
    gram: tuple[tuple[Fraction, ...], ...]  # symmetric, half-integer entries

    def polynomial_coefficients(self) -> dict[tuple[int, int], Fraction]:
        out = {}
        n = self.dimension
        for i in range(n):
            for j in range(i, n):
                c = self.gram[i][j] if i == j else 2 * self.gram[i][j]
                if c:
                    out[(i, j)] = c
        return out

    def is_positive_definite(self) -> bool:
        """Sylvester: every leading minor is positive iff every LDL^T pivot is."""
        try:
            _ldl_completion(self.gram)
        except ValueError:
            return False
        return True


# published polynomial coefficients, for the integrity cross-check
_PUBLISHED_FORMS = {
    "2T": {
        (0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1,
        (0, 3): -1, (1, 3): -1, (2, 3): -1,
    },
    "2O": {
        (0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1,
        (4, 4): 2, (5, 5): 2, (6, 6): 2, (7, 7): 2,
        (0, 3): 1, (0, 5): 2, (0, 6): 2,
        (1, 2): 1, (1, 4): 2, (1, 7): 2,
        (2, 4): 2, (2, 7): 2,
        (3, 5): 2, (3, 6): 2,
        (4, 7): 2, (5, 6): 2,
    },
    "2I": {
        (0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1,
        (4, 4): 1, (5, 5): 1, (6, 6): 1, (7, 7): 1,
        (0, 3): 1, (0, 6): 1, (0, 7): -1,
        (1, 2): -1, (1, 6): 1, (1, 7): 1,
        (2, 4): 1, (2, 5): 1,
        (3, 4): -1, (3, 5): 1,
        (4, 6): 1, (5, 7): 1,
    },
}

# sign substitution mapping the derived form onto the published one
_PUBLISHED_SUBSTITUTION = {
    "2T": (1, -1, -1, 1),
    "2O": (1,) * 8,
    "2I": (1,) * 8,
}


@lru_cache(maxsize=None)
def quadratic_form(label: str) -> QuadraticForm:
    """Q_G derived from the basis, checked against the published polynomial."""
    basis = order_basis(label)
    n = len(basis)
    gram = [[iota(inner(basis[i], basis[j])) for j in range(n)] for i in range(n)]
    form = QuadraticForm(label, n, tuple(tuple(row) for row in gram))

    signs = _PUBLISHED_SUBSTITUTION[label]
    derived = {}
    for (i, j), c in form.polynomial_coefficients().items():
        derived[(i, j)] = c * signs[i] * signs[j]
    published = {k: Fraction(v) for k, v in _PUBLISHED_FORMS[label].items()}
    if derived != published:
        raise IntegrityError(
            f"Q_{label}: derived form does not match the published polynomial"
        )
    if not form.is_positive_definite():
        raise IntegrityError(f"Q_{label} is not positive definite")
    return form


# -- exact Fincke-Pohst enumeration ------------------------------------------

def _ldl_completion(gram):
    """Rational coefficients for Q(x) = sum_i d_i (x_i + sum_{j>i} u_ij x_j)^2.

    The pivot d_i is the ratio of the i-th to the (i-1)-th leading minor;
    raises ValueError at the first pivot that is not positive.
    """
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    d = [Fraction(0)] * n
    u = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = a[i][i]
        if d[i] <= 0:
            raise ValueError("form is not positive definite")
        for j in range(i + 1, n):
            u[i][j] = a[i][j] / d[i]
        for r in range(i + 1, n):
            for c in range(r, n):
                a[r][c] -= d[i] * u[i][r] * u[i][c]
                a[c][r] = a[r][c]
    return d, u


def _floor_affine_sqrt(a: int, c: int, den: int) -> int:
    """floor((a + sqrt(c)) / den) exactly, for c >= 0, den > 0."""
    s = isqrt(c)
    # sqrt(c) lies in [s, s+1), and t -> floor((a+t)/den) is constant there
    return (a + s) // den


def _enum_levels(label: str):
    """Precomputed integer data for the scaled Fincke-Pohst recursion.

    The squares are completed in reversed variable order, so that level i
    fixes coordinate n-1-i and x_0 is the outermost level; the center of
    level i is the dot product of centers[i] with the coordinates, by
    coordinate index (zero at level i and inside it).
    """
    form = quadratic_form(label)
    d, u = _ldl_completion([row[::-1] for row in form.gram[::-1]])
    n = form.dimension
    rho = [lcm(*(u[i][j].denominator for j in range(i + 1, n))) for i in range(n)]
    centers = [[int(u[i][n - 1 - k] * rho[i]) if n - 1 - k > i else 0 for k in range(n)]
               for i in range(n)]
    delta = [1] * (n + 1)  # delta[i] clears denominators of the level-i budget
    for i in range(n - 1, -1, -1):
        need = d[i].denominator * rho[i] * rho[i]
        delta[i] = lcm(delta[i + 1], need)
    mu = [delta[i] // delta[i + 1] for i in range(n)]
    nu = [
        d[i].numerator * delta[i] // (d[i].denominator * rho[i] * rho[i])
        for i in range(n)
    ]
    rfac = [rho[i] * rho[i] * d[i].denominator for i in range(n)]
    rden = [delta[i + 1] * d[i].numerator for i in range(n)]
    return n, rho, centers, delta, mu, nu, rfac, rden


def _enumerate_ball(label: str, bound: int, *, count: bool = False) -> dict:
    """All nonzero integer vectors with Q_G <= bound, bucketed by value, each
    bucket in lexicographic order; with `count`, only the size of each bucket.

    With x_0 outermost and every level rising, the recursion meets the
    half-ball H (first nonzero coordinate > 0) in lexicographic order.  Every
    point of -H sorts before every point of H, and negation reverses the
    order, so a bucket is -H_m reversed followed by H_m, with no sort.  The
    counting leaf adds 2 per point of H (the point and its negation) and
    builds no point.
    """
    n, rho, centers, delta, mu, nu, rfac, rden = _enum_levels(label)
    half = {m: [] for m in range(1, bound + 1)}
    tally = [0] * (bound + 1)
    x = [0] * n
    last, d0 = n - 1, delta[0]

    def descend(level: int, t: int, leading_zero: bool):
        # t = (remaining budget at this level) * delta[level+1]; the levels
        # inside this one have reset their coordinates to 0
        r, rd = rho[level], rden[level]
        ncenter = sum(map(mul, centers[level], x))
        c_big = t * rfac[level] * rd
        hi = _floor_affine_sqrt(-ncenter * rd, c_big, r * rd)
        lo = 0 if leading_zero else -_floor_affine_sqrt(ncenter * rd, c_big, r * rd)
        m_lvl, n_lvl = mu[level], nu[level]
        if level == 0 and count:  # the last coordinate: count, x = 0 excluded
            for xi in range(1 if leading_zero else lo, hi + 1):
                k = xi * r + ncenter
                t_next = m_lvl * t - n_lvl * k * k
                if t_next >= 0:
                    tally[bound - t_next // d0] += 2
            return
        if level == 0:  # the last coordinate: record the points, x = 0 excluded
            prefix = tuple(x[:last])
            for xi in range(1 if leading_zero else lo, hi + 1):
                k = xi * r + ncenter
                t_next = m_lvl * t - n_lvl * k * k
                if t_next >= 0:
                    half[bound - t_next // d0].append(prefix + (xi,))
            return
        coord = last - level
        for xi in range(lo, hi + 1):
            k = xi * r + ncenter
            t_next = m_lvl * t - n_lvl * k * k
            if t_next < 0:
                continue
            x[coord] = xi
            descend(level - 1, t_next, leading_zero and xi == 0)
        x[coord] = 0

    descend(last, bound * delta[n], True)
    if count:
        return {m: tally[m] for m in range(1, bound + 1)}
    for m, points in half.items():
        half[m] = tuple(chain([tuple(map(neg, p)) for p in reversed(points)], points))
    return half


# label -> (M, (O_{G,1}, .., O_{G,M})): the largest ball enumerated, as shells
_BALL_CACHE: dict[str, tuple[int, tuple[Shell, ...]]] = {}


def ball_size(label: str, m: int) -> int:
    """Number of points in O_{G,1} .. O_{G,m}, by the divisor formulas."""
    return sum(shell_count_formula(label, k) for k in range(1, m + 1))


def _shell_budget(label: str, m: int, budget: Budget | None) -> Budget:
    """The budget, after the shell check that precedes every enumeration."""
    if m < 1:
        raise ValueError("shells are indexed by m >= 1")
    budget = budget or get_budget()
    budget.check_shell(label, m)
    return budget


@dataclass(frozen=True)
class Shell:
    group_label: str
    m: int
    points: tuple[tuple[int, ...], ...]  # sorted coordinate vectors

    def __len__(self):
        return len(self.points)

    def embedded(self):
        return [embed_coords(self.group_label, p) for p in self.points]

    @cached_property
    def orbit_reps(self) -> tuple[tuple[int, ...], ...]:
        """The orbit representatives, decomposed once per shell."""
        return tuple(orbit_decompose(self))


def enumerate_shell(label: str, m: int, budget: Budget | None = None) -> Shell:
    """O_{G,m} from the cached enumeration ball, enumerated again only to
    grow past m."""
    budget = _shell_budget(label, m, budget)
    cached = _BALL_CACHE.get(label)
    if cached is None or cached[0] < m:
        budget.check_enum_points(label, ball_size(label, m))
        ball = _enumerate_ball(label, m)
        _BALL_CACHE[label] = cached = (m, tuple(Shell(label, k, ball[k]) for k in ball))
    return cached[1][m - 1]


def enumerate_shells(label: str, bound: int, budget: Budget | None = None) -> list[Shell]:
    """O_{G,1} .. O_{G,bound} from one enumeration ball.

    The shell `bound` comes first: its budget checks and its ball precede
    every smaller shell, so no smaller ball is enumerated on the way and a
    refusal names `bound`.
    """
    top = enumerate_shell(label, bound, budget)
    return [enumerate_shell(label, m, budget) for m in range(1, bound)] + [top]


def shell_counts(label: str, bound: int, budget: Budget | None = None) -> dict[int, int]:
    """{m: |O_{G,m}|} for m = 1..bound, counted in the leaf of one pass.

    The budget checks are those of `enumerate_shells(label, bound)`, in the
    same order; no point is stored and the ball cache is left untouched.
    """
    budget = _shell_budget(label, bound, budget)
    budget.check_enum_points(label, ball_size(label, bound))
    return _enumerate_ball(label, bound, count=True)


# -- group action on shells ---------------------------------------------------

@lru_cache(maxsize=None)
def right_multiplication_matrices(label: str) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Integer matrices R_eps with coords(x * eps) = coords(x) . R_eps.

    Row i is solved from (2 b_i)(2 eps) = 4 b_i eps on integer pairs.
    """
    tag, basis, group = FIELD_TAG[label], order_basis(label), build_group(label)
    mats = []
    for eps, doubled in zip(group, group.doubled):
        rows = tuple(_solve(label, flat(qmul_pairs(tag, pair, doubled)), 2)
                     for pair in _doubled_basis(label)[0])
        if None in rows:
            product = qmul(basis[rows.index(None)], eps)
            raise ValueError(f"{product!r} is not in the order O_{label}")
        mats.append(rows)
    return tuple(mats)


def orbit_decompose(shell: Shell) -> list[tuple[int, ...]]:
    """Representatives S_m with shell = disjoint union of x G (exact check)."""
    # coords(x eps)_j = sum_i coords(x)_i R_eps[i][j]: each R_eps by columns.
    # -1 lies in G and R_(-eps) = -R_eps, so one matrix of each pair
    # {R, -R} is applied and the other image is its negation
    mats = right_multiplication_matrices(shell.group_label)
    order, unpaired, actions = len(mats), set(mats), []
    for mat in mats:
        if mat in unpaired:
            unpaired.discard(mat)
            partner = tuple(tuple(map(neg, row)) for row in mat)
            if partner not in unpaired:
                raise IntegrityError("group action on the shell is not free")
            unpaired.discard(partner)
            actions.append(tuple(zip(*mat)))
    # the points of the shell in no orbit yet; orbits are disjoint, so an
    # orbit that is not inside them is not inside the shell
    remaining = set(shell.points)
    reps = []
    for p in shell.points:
        if p not in remaining:
            continue
        images = [tuple([sum(map(mul, p, col)) for col in cols]) for cols in actions]
        orbit = set(images)
        orbit.update(tuple(map(neg, v)) for v in images)
        if len(orbit) != order:
            raise IntegrityError("group action on the shell is not free")
        if not orbit <= remaining:
            raise IntegrityError("shell is not stable under the group action")
        remaining -= orbit
        reps.append(p)
    if len(reps) * order != len(shell.points):
        raise IntegrityError("orbit decomposition does not partition the shell")
    return reps

