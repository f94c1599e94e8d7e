"""Reference implementations shared by several test modules."""

from fractions import Fraction
from functools import cmp_to_key, lru_cache
from itertools import chain
from math import comb, gcd, isqrt, lcm
from operator import add, mul

from quatdesign import lpbound, orders, strength, theta
from quatdesign.exactnum import GOLDEN, RAT, SQRT2, QuadElem, rat, read_scalar
from quatdesign.groups import NotAntipodal, UnitGroup, _gram, build_group
from quatdesign.harmonics import harm_basis, laplacian, quotient_monomials
from quatdesign.orders import (
    FIELD_TAG,
    IntegrityError,
    enumerate_shells,
    right_multiplication_matrices,
)
from quatdesign.quat import (
    PAIR_MUL, Quaternion, flat, from_pairs, left_matrix_pairs, qmul, qmul_pairs, read_points,
)


def harm_dim(ell: int, d: int) -> int:
    """dim Harm_l(R^d) = C(l+d-1, l) - C(l+d-3, l-2)."""
    if ell == 0:
        return 1
    if ell == 1:
        return d
    return comb(ell + d - 1, ell) - comb(ell + d - 3, ell - 2)


def poly4_eval(p, point) -> Fraction:
    """Evaluate a sparse 4-variable polynomial {exponents: coefficient}
    at a rational 4-vector."""
    total = Fraction(0)
    for (e1, e2, e3, e4), c in p.items():
        total += c * point[0] ** e1 * point[1] ** e2 * point[2] ** e3 * point[3] ** e4
    return total


def chebyshev_u_value(ell: int, s: QuadElem) -> QuadElem:
    """C_l^1(s) = U_l(s), evaluated exactly at a QuadElem point, by the
    recurrence from degree 0."""
    s = QuadElem.coerce(s)
    if ell == 0:
        return rat(1)
    prev2, prev1 = rat(1), s + s
    for _ in range(2, ell + 1):
        prev2, prev1 = prev1, (s + s) * prev1 - prev2
    return prev1


# -- the Fraction harmonic projection -----------------------------------------

def poly4_add(p, q):
    out = dict(p)
    for m, c in q.items():
        nc = out.get(m, Fraction(0)) + c
        if nc:
            out[m] = nc
        else:
            out.pop(m, None)
    return out


def poly4_scale(p, c):
    c = Fraction(c)
    if not c:
        return {}
    return {m: v * c for m, v in p.items()}


def poly4_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3])
            nc = out.get(m, Fraction(0)) + c1 * c2
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
    return out


_R2 = {
    (2, 0, 0, 0): Fraction(1),
    (0, 2, 0, 0): Fraction(1),
    (0, 0, 2, 0): Fraction(1),
    (0, 0, 0, 2): Fraction(1),
}


def harmonic_projection(mono):
    """Harmonic component of a degree-l monomial, term by term on Fraction:
    sum_k (-1)^k / (4^k k! l(l-1)...(l-k+1)) r^{2k} Laplacian^k x^a."""
    ell = sum(mono)
    term = {mono: Fraction(1)}
    out = dict(term)
    r2k = {(0, 0, 0, 0): Fraction(1)}
    coeff = Fraction(1)
    k = 0
    lap = term
    while True:
        lap = laplacian(lap)
        if not lap:
            break
        k += 1
        r2k = poly4_mul(r2k, _R2)
        coeff = coeff * Fraction(-1, 4 * k * (ell - k + 1))
        out = poly4_add(out, poly4_scale(poly4_mul(r2k, lap), coeff))
    return out


def as_fractions(harmonic):
    """{monomial: Fraction} of a harmonic held as (integer numerator, den)."""
    poly, den = harmonic
    return {m: Fraction(c, den) for m, c in poly.items()}


# -- the field rules, one branch per field ------------------------------------

def field_norm(tag, a, b):
    """N(a + b rho) = (a + b rho)(a + b rho'), rho' the other root."""
    if tag == SQRT2:
        return a * a - 2 * b * b
    if tag == GOLDEN:
        return a * a + a * b - b * b
    return a * a


def galois_conj(tag, a, b):
    """(a', b') with a' + b' rho the image of a + b rho under rho -> rho':
    sqrt2 -> -sqrt2, tau -> 1 - tau."""
    if tag == SQRT2:
        return a, -b
    if tag == GOLDEN:
        return a + b, -b
    return a, b


def sign_quadratic(tag, a, b):
    """Sign of a + b rho.  a + b tau = ((2a + b) + b sqrt5)/2, so every case is
    a + b sqrt(d) with d = 2 or 5; opposite signs compare a^2 with d b^2."""
    if b == 0:
        return (a > 0) - (a < 0)
    d = 2
    if tag == GOLDEN:
        a, d = 2 * a + b, 5
    if a == 0 or (a > 0) == (b > 0):
        return 1 if b > 0 else -1
    return (1 if a > 0 else -1) if a * a > d * b * b else (1 if b > 0 else -1)


# -- field, quaternion and shell helpers that only the tests read ------------

def _compare_coords(x, y) -> int:
    """x against y by the real values of their coordinates, first one first."""
    for a, b in zip(x.coords, y.coords):
        d = a - b
        if d:
            return sign_quadratic(d.tag, d.a, d.b)
    return 0


by_coords = cmp_to_key(_compare_coords)  # sort key for quaternions


def iota(x: QuadElem) -> Fraction:
    """Projection a + b*rho -> a (the map iota_G on each coefficient ring)."""
    return x.a


def norm(x) -> QuadElem:
    """N(x) = x1^2 + x2^2 + x3^2 + x4^2."""
    x1, x2, x3, x4 = x.coords
    return x1 * x1 + x2 * x2 + x3 * x3 + x4 * x4


def inner(x, y) -> QuadElem:
    """Euclidean inner product of the associated vectors in R^4."""
    return sum((a * b for a, b in zip(x.coords, y.coords)), rat(0))


def scaled_pairs(coords, scale: int) -> tuple[tuple[int, int], ...]:
    """Integer pairs of scale * c for each QuadElem c; raises ValueError
    when a scaled coordinate is not integral."""
    out = []
    for c in coords:
        a, b = scale * c.a, scale * c.b
        if a.denominator != 1 or b.denominator != 1:
            raise ValueError(f"{scale} * ({c}) is not integral")
        out.append((a.numerator, b.numerator))
    return tuple(out)


def quadelem_from_json(obj) -> QuadElem:
    """The inverse of QuadElem.to_json, through the program's scalar reader."""
    return QuadElem(*read_scalar(obj))


def quaternion_json(x) -> list:
    """The four {"tag", "a", "b"} components of a Quaternion, as the group
    and shell listings print them and a point file holds them."""
    return [c.to_json() for c in x.coords]


def quaternion_from_json(arr) -> Quaternion:
    """The inverse of quaternion_json, one QuadElem per coordinate."""
    if len(arr) != 4:
        raise ValueError(f"a quaternion has 4 scalars, not {len(arr)}")
    return Quaternion(*map(quadelem_from_json, arr))


def points_gram(points):
    """The Gram pass of a list of Quaternions, read as a point file is."""
    return _gram(*read_points([quaternion_json(x) for x in points]))


def embed_coords(label: str, coords) -> Quaternion:
    """sum_j c_j b_j, summed on the flat integer components of 2 b_j."""
    n = len(order_basis(label))
    if len(coords) != n:
        raise ValueError(f"{label} expects {n} coordinates")
    comps, tag = orders.doubled_point(label, coords), FIELD_TAG[label]
    return Quaternion(*(QuadElem(tag, Fraction(a, 2), Fraction(b, 2))
                        for a, b in zip(comps[::2], comps[1::2])))


# -- quaternion operators, written-out generators and order bases ------------

def neg(x):
    """-x."""
    return Quaternion(*(-c for c in x.coords))


def times(x, c):
    """x c for a scalar c."""
    c = QuadElem.coerce(c)
    return Quaternion(*(xi * c for xi in x.coords))


def plus(x, y):
    """x + y."""
    return Quaternion(*(a + b for a, b in zip(x.coords, y.coords)))


def qpow(x, n: int):
    """x^n by repeated squaring, n >= 0."""
    if n < 0:
        raise ValueError(f"quaternion power {n}: exponents start at 0")
    result, base = Quaternion(1, 0, 0, 0), x
    while n:
        if n & 1:
            result = qmul(result, base)
        base = qmul(base, base)
        n >>= 1
    return result


HALF = Fraction(1, 2)
HALF_SQRT2 = QuadElem(SQRT2, 0, HALF)  # 1/sqrt2


def omega():
    """w = (-1 + i + j + k)/2, of order 3."""
    return Quaternion(-HALF, HALF, HALF, HALF)


def alpha():
    """a = (1 + i)/sqrt2 = (sqrt2/2)(1 + i), with a^4 = -1."""
    return Quaternion(HALF_SQRT2, HALF_SQRT2, 0, 0, SQRT2)


def beta():
    """b = (1 + j)/sqrt2."""
    return Quaternion(HALF_SQRT2, 0, HALF_SQRT2, 0, SQRT2)


def zeta():
    """z = (tau + tau^{-1} i + j)/2 with tau^{-1} = tau - 1; z^5 = -1."""
    return Quaternion(QuadElem(GOLDEN, 0, HALF), QuadElem(GOLDEN, -HALF, HALF),
                      QuadElem(GOLDEN, HALF), QuadElem(GOLDEN, 0))


# n -> a unit quaternion of multiplicative order n inside the tower
CYCLIC_GENERATORS = {
    1: lambda: Quaternion(1, 0, 0, 0),
    2: lambda: Quaternion(-1, 0, 0, 0),
    3: omega,
    4: lambda: Quaternion(0, 1, 0, 0),
    5: lambda: qmul(zeta(), zeta()),
    6: lambda: neg(omega()),
    8: alpha,
    10: zeta,
}

# n -> a unit imaginary orthogonal to the axis of the C_2n generator
DIHEDRAL_FLIPS = {
    1: lambda: Quaternion(0, 0, 1, 0),
    2: lambda: Quaternion(0, 0, 1, 0),
    3: lambda: Quaternion(0, HALF_SQRT2, -HALF_SQRT2, 0, SQRT2),
    4: lambda: Quaternion(0, 0, 1, 0),
    5: lambda: Quaternion(0, 0, 0, 1),
}


@lru_cache(maxsize=None)
def order_basis(label: str) -> tuple:
    """Z-module generators of O_G as Quaternions (4 for 2T, 8 for 2O/2I)."""
    if label == "2T":
        return (Quaternion(1, 0, 0, 0), Quaternion(0, 1, 0, 0), Quaternion(0, 0, 1, 0), omega())
    if label == "2O":
        a, b = alpha(), beta()
        base = (Quaternion(1, 0, 0, 0, SQRT2), a, b, qmul(a, b))
    elif label == "2I":
        z, i = zeta(), Quaternion(0, 1, 0, 0, GOLDEN)
        base = (Quaternion(1, 0, 0, 0, GOLDEN), i, z, qmul(i, z))
    else:
        raise ValueError(f"no maximal order attached to {label!r}")
    rho = QuadElem(FIELD_TAG[label], 0, 1)
    return base + tuple(times(g, rho) for g in base)


@lru_cache(maxsize=None)
def elements(group: UnitGroup) -> list:
    """The elements of a UnitGroup as Quaternions, in its order, rendered
    from its pairs and tags."""
    return [from_pairs(t, 2, x) for t, x in zip(group.tags, group.doubled)]


def unit_group(label, elements) -> UnitGroup:
    """A UnitGroup of Quaternions, made from the pairs of 2 eps (ValueError
    when one is not integral), and for each element the tag of its
    coordinates, RAT when all are."""
    elements = list(elements)
    tags = {c.tag for x in elements for c in x.coords if c.b}
    return UnitGroup(label, tags.pop() if tags else RAT,
                     [scaled_pairs(x.coords, 2) for x in elements],
                     [next((c.tag for c in x.coords if c.tag != RAT), RAT) for x in elements])


# -- unit groups as QuadElem coset products, and a dividing closure test -----

def conj(x):
    """The quaternion conjugate x1 - x2 i - x3 j - x4 k."""
    return Quaternion(x.x1, -x.x2, -x.x3, -x.x4)


def retag(q, tag):
    """q with every RAT coordinate moved into the field `tag`."""
    return Quaternion(*(QuadElem(tag, c.a, c.b) if c.tag == RAT else c for c in q.coords))


def _coset_union(label, gens, base):
    """{g h : g in gens, h in base} by QuadElem products, sorted by their
    coordinate tuples; a repeated product is refused."""
    elements = [qmul(g, h) for g in gens for h in base]
    if len(set(elements)) != len(elements):
        raise ValueError(f"duplicate element in {label}")
    return sorted(elements, key=by_coords)


def _powers(g, n):
    out = [Quaternion(1, 0, 0, 0)]
    for _ in range(n - 1):
        out.append(qmul(out[-1], g))
    return out


@lru_cache(maxsize=None)
def group_elements(label):
    """The elements of a supported group, in order, built on Quaternion
    products from the written-out generators above: each coordinate carries
    the field tag that QuadElem arithmetic gives it."""
    one = Quaternion(1, 0, 0, 0)
    if label == "Q8":
        return _coset_union(label, _powers(Quaternion(0, 1, 0, 0), 4),
                            [one, Quaternion(0, 0, 1, 0)])
    if label == "2T":
        return _coset_union(label, _powers(omega(), 3), group_elements("Q8"))
    if label in ("2O", "2I"):
        tag, g, n = (SQRT2, alpha(), 2) if label == "2O" else (GOLDEN, zeta(), 5)
        return _coset_union(label, _powers(g, n), [retag(e, tag) for e in group_elements("2T")])
    if label.startswith("D2n"):
        n = int(label[3:])
        return _coset_union(label, _powers(CYCLIC_GENERATORS[2 * n](), 2 * n),
                            [one, DIHEDRAL_FLIPS[n]()])
    n = int(label[1:])
    return _coset_union(label, _powers(CYCLIC_GENERATORS[n](), n), [one])


def orbit_closure(elements) -> list:
    """The subgroup generated by the elements, by QuadElem products."""
    out, frontier = set(elements), list(elements)
    while frontier:
        x = frontier.pop()
        for g in elements:
            y = qmul(x, g)
            if y not in out:
                out.add(y)
                frontier.append(y)
    return list(out)


def is_closed(elements) -> bool:
    """Every product of two of the elements is one of them, over all ordered
    pairs on integer pairs: with D the lcm of the coordinate denominators,
    (D x)(D y) = D^2 xy must divide by D to a member's D-multiple."""
    scale = lcm(*(q.denominator for x in elements for c in x.coords for q in (c.a, c.b)))
    tags = {c.tag for x in elements for c in x.coords if c.b}
    tag = tags.pop() if tags else RAT
    scaled = [scaled_pairs(x.coords, scale) for x in elements]
    members = set(scaled)
    for x in scaled:
        for y in scaled:
            prod = qmul_pairs(tag, x, y)
            if any(a % scale or b % scale for a, b in prod):
                return False
            if tuple((a // scale, b // scale) for a, b in prod) not in members:
                return False
    return True


# -- point sets, order coordinates and forms, one value at a time -------------

def pair_distance_distribution(gram) -> dict:
    """A_s(X) over all ordered pairs of X's Gram pass; sums to |X|^2."""
    return gram.distribution(gram.pair_counts())


def half_set(points) -> list:
    """A canonical half set X' with X = X' u (-X'), for antipodal X."""
    pts = sorted(points, key=by_coords)
    pset = set(pts)
    if any(neg(x) not in pset for x in pts):
        raise NotAntipodal("half_set requires an antipodal point set")
    chosen, excluded = [], set()
    for x in pts:
        if x in excluded:
            continue
        chosen.append(x)
        excluded.add(x)
        excluded.add(neg(x))
    return chosen


def orbit(x, group: UnitGroup) -> list:
    """Right coset xG; |xG| = |G| for x != 0."""
    if norm(x).is_zero():
        raise ValueError("orbit of the zero quaternion is not defined")
    pts = [qmul(x, eps) for eps in elements(group)]
    if len(set(pts)) != len(group):
        raise AssertionError("orbit collapsed; group action not free")
    return sorted(pts, key=by_coords)


def pair_sums(gram, ells) -> dict:
    """sum_{x,y} C_l^1(<x,y>) for each l in ells: the program's integer pair
    totals D^(2l) sum U_l(<x,y>) divided by D^(2l).  IndexError for a
    negative degree."""
    scale = gram.unit[0]
    return {ell: QuadElem(gram.tag, Fraction(a, scale ** ell), Fraction(b, scale ** ell))
            for ell, (a, b) in strength._pair_totals(gram, ells).items()}


def pair_sum_value(gram, ell: int) -> QuadElem:
    """sum_{x,y in X} C_l^1(<x,y>), over the Gram pass of X."""
    return pair_sums(gram, (ell,))[ell]


def coords_of(label: str, q) -> tuple:
    """Integer coordinates of q in the order basis, through the program's
    solve; ValueError when q is not in the order."""
    coords = None
    if all(c.tag in (RAT, FIELD_TAG[label]) or not c.b for c in q.coords):
        try:
            coords = orders._solve(label, flat(scaled_pairs(q.coords, 2)), 1)
        except ValueError:  # 2q is not integral, so q is not in the order
            pass
    if coords is None:
        raise ValueError(f"{q!r} is not in the order O_{label}")
    return coords


def quadelem_gram(label: str) -> tuple:
    """The Gram matrix iota(<b_i, b_j>) of the order basis, one QuadElem
    inner product per entry."""
    basis = order_basis(label)
    return tuple(tuple(iota(inner(a, b)) for b in basis) for a in basis)


def form_value(form, coords) -> int:
    """Q_G(coords) = sum_ij coords_i coords_j gram_ij, which must be an integer."""
    n = len(form)
    total = Fraction(0)
    for i in range(n):
        ci = coords[i]
        if ci == 0:
            continue
        row = form[i]
        total += row[i] * ci * ci
        for j in range(i + 1, n):
            if coords[j]:
                total += 2 * row[j] * ci * coords[j]
    if total.denominator != 1:
        raise AssertionError("integral form produced a non-integer value")
    return int(total)


def kappa4(label: str, coords) -> tuple:
    """The E8 comparison map: the interleaved (a_1, b_1, ..., a_4, b_4) of the
    {1,i,j,k} coordinates of an icosian given by its order coordinates.

    Those coordinates are half-integral (zeta already has coordinate tau/2),
    so the image lives in (1/2)Z^8; the defining identity
    iota(N(x)) = sum (a_c^2 + b_c^2) holds verbatim and is asserted.
    """
    if label != "2I":
        raise ValueError("kappa4 is defined on the icosian order only")
    q = embed_coords(label, coords)
    out = []
    for c in q.coords:
        out.append(c.a)
        out.append(c.b)
    if sum(v * v for v in out) != iota(norm(q)):
        raise IntegrityError("kappa4 norm identity failed")
    return tuple(out)


# -- the Hamilton product written out, and Newton's identities ---------------

def hamilton_formula(x, y):
    """The 16-term Hamilton product with ij = k = -ji, written out, on any
    4-tuples of ring elements."""
    x1, x2, x3, x4 = x
    y1, y2, y3, y4 = y
    return (
        x1 * y1 - x2 * y2 - x3 * y3 - x4 * y4,
        x2 * y1 + x1 * y2 - x4 * y3 + x3 * y4,
        x3 * y1 + x4 * y2 + x1 * y3 - x2 * y4,
        x4 * y1 - x3 * y2 + x2 * y3 + x1 * y4,
    )


def char_coeffs_pairs(tag, rows) -> tuple[tuple[int, int], ...]:
    """(e1, e2, e3, e4) with det(tI - A) = t^4 - e1 t^3 + e2 t^2 - e3 t + e4,
    for a 4x4 matrix A of integer pairs.

    Newton's identities k e_k = sum_{i=1..k} (-1)^(i-1) e_(k-i) p_i with the
    power traces p_i = tr(A^i); the divisions by 2, 3 and 4 are exact on
    Z[rho] and raise AssertionError on a remainder.
    """
    pmul = PAIR_MUL[tag]

    def dot(u, v):
        terms = [pmul(*x, *y) for x, y in zip(u, v)]
        return sum(t[0] for t in terms), sum(t[1] for t in terms)

    cols = tuple(zip(*rows))
    power, traces = rows, []
    for k in range(4):
        if k:
            power = [[dot(r, c) for c in cols] for r in power]
        diag = [power[i][i] for i in range(4)]
        traces.append((sum(t[0] for t in diag), sum(t[1] for t in diag)))
    e = [(1, 0)]
    for k in range(1, 5):
        acc_a = acc_b = 0
        for i in range(1, k + 1):
            ta, tb = pmul(*e[k - i], *traces[i - 1])
            sign = 1 if i % 2 else -1
            acc_a += sign * ta
            acc_b += sign * tb
        if acc_a % k or acc_b % k:
            raise AssertionError(f"Newton identity for e_{k} leaves a remainder")
        e.append((acc_a // k, acc_b // k))
    return tuple(e[1:])


# -- shells as point tuples ----------------------------------------------------

def shell_of(label, m, points):
    """A Shell of `points`, which must be distinct and a union of pairs
    {p, -p}.  Each point's member of the half-ball H is packed first, so
    `struct` refuses a coordinate outside int16; then a repeated point is
    refused, the two halves must agree, and the H records are kept in
    lexicographic order."""
    record = orders.RECORD[label]
    zero = (0,) * (record.size // 2)
    upper = [record.pack(*p) for p in points if tuple(p) > zero]
    lower = [record.pack(*(-c for c in p)) for p in points if tuple(p) <= zero]
    if len(set(map(tuple, points))) != len(points):
        raise orders.IntegrityError(
            "a point repeats: the orbit decomposition does not partition the shell")
    if sorted(upper) != sorted(lower):
        raise orders.IntegrityError("shell is not stable under -1")
    return orders.Shell(label, m, b"".join(sorted(upper, key=record.unpack)))


def shell_payload(label: str, m: int) -> dict:
    """The `shells` listing as one payload, built as the CLI once built it:
    every point's coordinates beside its embedding as a `Quaternion` of field
    elements (`embed_coords`, which `Shell.embedded()` once returned for each
    point) and `quaternion_json`.  json.dumps(..., sort_keys=True) of it
    is the listing's JSON text."""
    shell = orders.enumerate_shell(label, m)
    return {
        "group": label,
        "m": m,
        "size": len(shell),
        "points": [{"coords": list(c), "quaternion": quaternion_json(embed_coords(label, c))}
                   for c in shell],
    }


def floor_affine_sqrt(a, c, den):
    """floor((a + sqrt(c)) / den) exactly, for c >= 0, den > 0."""
    # sqrt(c) lies in [isqrt(c), isqrt(c) + 1), where t -> floor((a+t)/den) is constant
    return (a + isqrt(c)) // den


def rescaled_levels(gram):
    """(n, rho, unum, delta, mu, nu, rfac, rden): the Fincke-Pohst levels of
    Q(x) = sum_i d_i (x_i + sum_(j>i) u_ij x_j)^2 with the budget rescaled at
    every level: the reference that the one-scale enumeration of
    `orders._enumerate_ball` is checked against.

    Level i fixes x_i, with center sum_(j>i) unum[i][j] x_j and
    k = rho_i x_i + center; its budget is t = (what is left) * delta[i+1],
    the next level gets mu_i t - nu_i k^2, and the budget holds iff
    |k| rden_i <= sqrt(t rfac_i rden_i).
    """
    d, u = orders._ldl_completion(gram)
    n = len(gram)
    rho = [lcm(*(u[i][j].denominator for j in range(i + 1, n))) for i in range(n)]
    unum = [[int(u[i][j] * rho[i]) for j in range(n)] for i in range(n)]
    delta = [1] * (n + 1)  # delta[i] clears denominators of the level-i budget
    for i in range(n - 1, -1, -1):
        delta[i] = lcm(delta[i + 1], d[i].denominator * rho[i] * rho[i])
    mu = [delta[i] // delta[i + 1] for i in range(n)]
    nu = [d[i].numerator * delta[i] // (d[i].denominator * rho[i] * rho[i])
          for i in range(n)]
    rfac = [rho[i] * rho[i] * d[i].denominator for i in range(n)]
    rden = [delta[i + 1] * d[i].numerator for i in range(n)]
    return n, rho, unum, delta, mu, nu, rfac, rden


def tuple_ball(label, bound):
    """{m: O_{G,m} as coordinate tuples} for m = 1..bound: the half-ball H of
    the rescaled Fincke-Pohst recursion as tuples, with x_0 outermost and
    two square roots per node, then -H_m reversed chained with H_m."""
    gram = orders.quadratic_form(label)
    # level i of the reversed completion fixes x_(n-1-i)
    n, rho, unum, delta, mu, nu, rfac, rden = rescaled_levels(
        [row[::-1] for row in gram[::-1]])
    half = {m: [] for m in range(1, bound + 1)}
    y = [0] * n  # y[i] = x_(n-1-i)

    def descend(level, t, leading_zero):
        r, rd = rho[level], rden[level]
        ncenter = sum(map(mul, unum[level], y))
        c_big = t * rfac[level] * rd
        hi = floor_affine_sqrt(-ncenter * rd, c_big, r * rd)
        lo = 0 if leading_zero else -floor_affine_sqrt(ncenter * rd, c_big, r * rd)
        for xi in range(lo, hi + 1):
            k = xi * r + ncenter
            t_next = mu[level] * t - nu[level] * k * k
            if t_next < 0:
                continue
            y[level] = xi
            if level == 0:
                if not (leading_zero and xi == 0):
                    half[bound - t_next // delta[0]].append(tuple(reversed(y)))
            else:
                descend(level - 1, t_next, leading_zero and xi == 0)
        y[level] = 0

    descend(n - 1, bound * delta[n], True)
    return {m: tuple(chain([tuple(-c for c in p) for p in reversed(points)], points))
            for m, points in half.items()}


def leaf_counts(label, bound):
    """{m: |O_{G,m}|} for m = 1..bound, counted point by point in the leaf of
    the one-scale Fincke-Pohst pass over the half-ball H, 2 per point of H."""
    n, rho, centers, weight, scale = orders._enum_levels(label)
    tally = [0] * (bound + 1)
    x = [0] * n
    r0, w0, step0 = rho[0], weight[0], centers[0][n - 2]

    def descend(level, t, leading_zero):
        r, w, coord = rho[level], weight[level], n - 1 - level
        center = sum(map(mul, centers[level], x))
        s = isqrt(t // w)
        hi = (s - center) // r
        lo = 0 if leading_zero else -((s + center) // r)
        if level > 1:
            for xi in range(lo, hi + 1):
                k = xi * r + center
                x[coord] = xi
                descend(level - 1, t - w * k * k, leading_zero and xi == 0)
            x[coord] = 0
            return
        center0 = sum(map(mul, centers[0], x)) + step0 * lo
        for xi in range(lo, hi + 1):
            k = xi * r + center
            t1 = t - w * k * k
            s0 = isqrt(t1 // w0)
            hi0 = (s0 - center0) // r0
            lo0 = 1 if leading_zero and xi == 0 else -((s0 + center0) // r0)
            for y in range(lo0, hi0 + 1):
                k = y * r0 + center0
                tally[bound - (t1 - w0 * k * k) // scale] += 2
            center0 += step0

    descend(n - 1, bound * scale, True)
    return {m: tally[m] for m in range(1, bound + 1)}


def inverse_diagonal(gram, i):
    """(G^-1)_ii, from G y = e_i by Gauss-Jordan elimination on Fractions."""
    n = len(gram)
    rows = [[Fraction(v) for v in row] + [Fraction(int(r == i))] for r, row in enumerate(gram)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                rows[r] = [v - rows[r][c] * w for v, w in zip(rows[r], rows[c])]
    return rows[i][n]


# -- orbits and invariant theta tables, one element and one degree at a time --

def orbit_reps(shell):
    """Representatives of the right G-orbits of a shell, every orbit built
    from all |G| matrices."""
    actions = [tuple(zip(*mat)) for mat in right_multiplication_matrices(shell.group_label)]
    seen = set()
    reps = []
    for p in shell:
        if p not in seen:
            seen |= {tuple(sum(map(mul, p, col)) for col in cols) for cols in actions}
            reps.append(p)
    return reps


def invariant_table(label, ell, shells, budget):
    """The invariant theta table of one degree, from power chains along the
    progression of z1-exponents that the forms use."""
    tag = FIELD_TAG[label]
    cmul = theta._CMUL[tag]
    group_order = len(build_group(label))
    invariants = theta.holomorphic_invariants(label, ell)
    if not invariants:
        return theta.ThetaTable(label, ell, shells, "invariant", (), tuple(
            () for _ in range(shells)
        ))

    used = {a for form in invariants for a, _ in form}
    a0, a1 = min(used), max(used)
    step = gcd(*(a - a0 for a in used)) or 1
    span = (a1 - a0) // step
    form_coeffs = [
        [(j, form[(a, ell - a)]) for j, a in enumerate(range(a0, a1 + 1, step))
         if (a, ell - a) in form]
        for form in invariants
    ]
    pool = theta._translate_pool()
    maps = [theta._point_map(label, y) for y, _ in pool]
    scales = [Fraction(group_order, (4 * root) ** ell) for _, root in pool]
    col_labels = tuple(
        f"f{t}.L{tuple(a for a, _ in y)}.{part}"
        for t in range(len(invariants)) for y, _ in pool for part in ("re", "im")
    )

    def power(z, n):
        out = theta._C_ONE
        for _ in range(n):
            out = cmul(out, z)
        return out

    rows = []
    for shell in enumerate_shells(label, shells, budget):
        reps = orbit_reps(shell)
        per_y = []
        for cols in maps:
            terms = [[] for _ in range(span + 1)]
            for coords in reps:
                z = theta._map_point(cols, coords)
                z1, z2 = z[:4], z[4:]
                w1, w2 = power(z1, step), power(z2, step)
                p1, p2 = [power(z1, a0)], [power(z2, ell - a1)]
                for _ in range(span):
                    p1.append(cmul(p1[-1], w1))
                    p2.append(cmul(p2[-1], w2))
                for j in range(span + 1):
                    terms[j].append(cmul(p1[j], p2[span - j]))
            per_y.append([theta._csum(t) for t in terms])
        row = []
        for coeffs in form_coeffs:
            for sums, scale in zip(per_y, scales):
                ra, rb, ia, ib = theta._csum(cmul(c, sums[j]) for j, c in coeffs)
                row.append(QuadElem(tag, ra * scale, rb * scale))
                row.append(QuadElem(tag, ia * scale, ib * scale))
        rows.append(tuple(row))
    return theta.ThetaTable(label, ell, shells, "invariant", col_labels, tuple(rows))


# -- Reynolds averaging on the coefficients of a harmonic basis, 2T only -------

def invariant_dimension_coefficients(label: str, ell: int) -> int:
    """dim Harm_ell^G by explicit Reynolds averaging on coefficients.

    Exact in both directions but costs a full action-matrix pass per group
    element; intended for the rational group 2T at small degrees.
    """
    group = build_group(label)
    if label != "2T":
        raise ValueError("coefficient-level Reynolds is supported for 2T only")
    reynolds_cols: dict = {}
    for x in group.doubled:
        # 2 M_eps, integral on 2T
        scaled_rows = [{j: a for j, (a, _) in enumerate(row) if a} for row in left_matrix_pairs(x)]
        cols = _action_columns(scaled_rows, ell)
        for mono, vec in cols.items():
            acc = reynolds_cols.setdefault(mono, {})
            for m2, c in vec.items():
                acc[m2] = acc.get(m2, 0) + c
    images = []
    for p, _ in harm_basis(ell):  # a basis harmonic times its den: the rank is the same
        img: dict = {}
        for mono, c in p.items():
            col = reynolds_cols.get(mono)
            if not col:
                continue
            for m2, v in col.items():
                nv = img.get(m2, Fraction(0)) + c * v
                if nv:
                    img[m2] = nv
                else:
                    img.pop(m2, None)
        images.append(img)
    return theta.exact_rank(images)


def _action_columns(scaled_rows, ell):
    """Expansion of (x M)^mono for every degree-ell monomial, by degree DP."""
    linear = []
    for axis in range(4):
        linear.append(dict(scaled_rows[axis]))
    level = {(0, 0, 0, 0): {(0, 0, 0, 0): 1}}
    for _ in range(ell):
        nxt = {}
        for mono, vec in level.items():
            for axis in range(4):
                key = tuple(
                    mono[k] + 1 if k == axis else mono[k] for k in range(4)
                )
                if key in nxt:
                    continue
                lin = linear[axis]
                out: dict = {}
                for m2, c in vec.items():
                    for j, lc in lin.items():
                        k2 = tuple(
                            m2[t] + 1 if t == j else m2[t] for t in range(4)
                        )
                        out[k2] = out.get(k2, 0) + c * lc
                nxt[key] = out
        level = nxt
    return level


# -- Reynolds dimensions on Hom_l mod r^2 -------------------------------------

@lru_cache(maxsize=None)
def _quotient_steps(d: int) -> tuple:
    """(parents, products) on the quotient_monomials bases of degrees d - 1
    and d >= 1.  Monomial k of degree d is x^p x_j for parents[k] = (p, j),
    x_j the first of x1..x3 in it (x4 only for x4 itself), and NF(x^p x_i)
    is the sum of sign x^t over (t, sign) in products[p][i]."""
    index = {mono: k for k, mono in enumerate(quotient_monomials(d))}
    below = {mono: k for k, mono in enumerate(quotient_monomials(d - 1))}
    parents = []
    for mono in index:
        j = next((i for i in range(3) if mono[i]), 3)
        parents.append((below[tuple(e - (k == j) for k, e in enumerate(mono))], j))
    products = []
    for mono in below:
        ups = [tuple(e + (k == i) for k, e in enumerate(mono)) for i in range(4)]
        row = [((index[up], 1),) for up in ups if up[3] < 2]
        if mono[3]:  # x^p x4 = x^(p - e4) x4^2 and x4^2 = -(x1^2 + x2^2 + x3^2)
            ups = [tuple(e + 2 * (k == i) for k, e in enumerate(mono[:3])) + (0,) for i in range(3)]
            row.append(tuple((index[up], -1) for up in ups))
        products.append(tuple(row))
    return tuple(parents), tuple(products)


def _quotient_images(rho2, cols, top: int):
    """Yield, for d = 0..top, NF((xA)^a) for every degree-d basis monomial a,
    each as (a-parts, b-parts) of its integer pairs on the degree-d basis.
    (xA)_j = sum_i x_i cols[j][i], and rho^2 = r0 + r1 rho for rho2 = (r0, r1)."""
    r0, r1 = rho2
    # (va + vb rho)(ca + cb rho) = (va ca + vb cb r0) + (va cb + vb (ca + cb r1)) rho
    factors = [[(i, ca, cb * r0, cb, ca + cb * r1) for i, (ca, cb) in enumerate(col) if ca or cb]
               for col in cols]
    level = [([1], [0])]
    yield level
    for d in range(1, top + 1):
        parents, products = _quotient_steps(d)
        size = (d + 1) ** 2
        nxt = []
        for p, j in parents:
            out_a, out_b = [0] * size, [0] * size
            for va, vb, targets in zip(*level[p], products):
                if va or vb:
                    for i, c1, c2, c3, c4 in factors[j]:
                        ma, mb = va * c1 + vb * c2, va * c3 + vb * c4
                        for t, sign in targets[i]:
                            out_a[t] += sign * ma
                            out_b[t] += sign * mb
            nxt.append((out_a, out_b))
        level = nxt
        yield level


def hom_quotient_dimensions(label: str, ells) -> dict:
    """{ell: dim Harm_ell^G} by Reynolds averaging on Hom_l mod r^2.

    G is orthogonal, so it fixes r^2 and acts on Hom_l / r^2 Hom_(l-2), which
    is Harm_l as a G-module (Fischer decomposition).  The rank of the summed
    NF((xA)^a) over the basis monomials a is dim Harm_l^G; A = 2 M_eps is
    integral on pairs and scales degree l by 2^l.  One pass per element
    serves every ell.  Only one of each pair +-eps is summed: -eps lies in G
    (asserted) and (x(-A))^a = (-1)^l (xA)^a, so the sum over G is
    (1 + (-1)^l) times the half sum: rank 0 at odd l, the half sum's rank at
    even l.
    """
    ells = tuple(ells)
    tag = FIELD_TAG[label]
    rho2 = PAIR_MUL[tag](0, 1, 0, 1)
    doubled = build_group(label).doubled
    negated = {x: tuple((-a, -b) for a, b in x) for x in doubled}
    assert set(negated.values()) == set(doubled), f"-1 is not in {label}"
    even = {ell for ell in ells if ell % 2 == 0}
    sums: dict = {}
    for x in (x for x in doubled if x > negated[x]):
        cols = tuple(zip(*left_matrix_pairs(x)))
        for d, level in enumerate(_quotient_images(rho2, cols, max(even, default=0))):
            if d in even:
                sums[d] = [(list(map(add, sa, ia)), list(map(add, sb, ib)))
                           for (sa, sb), (ia, ib) in zip(sums[d], level)] if d in sums else level
    return {
        ell: 0 if ell % 2 else theta.exact_rank(
            {t: QuadElem(tag, a, b) for t, (a, b) in enumerate(zip(*image)) if a or b}
            for image in sums[ell]
        )
        for ell in ells
    }


# -- univariate polynomials over QuadElem, and the polynomial layers on them ---

NEG_INF = float("-inf")  # degree of the zero polynomial


class UniPoly:
    """Polynomial sum_k c_k u^k; trailing zero coefficients are trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [QuadElem.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly([])

    @staticmethod
    def monomial(k: int, c=1) -> "UniPoly":
        return UniPoly([0] * k + [c])

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def coeff(self, k: int) -> QuadElem:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return rat(0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly([self.coeff(k) + other.coeff(k) for k in range(n)])

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly([self.coeff(k) - other.coeff(k) for k in range(n)])

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QuadElem)):
            c = QuadElem.coerce(other)
            return UniPoly([ci * c for ci in self.coeffs])
        if self.is_zero() or other.is_zero():
            return UniPoly.zero()
        out = [rat(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci.is_zero():
                continue
            for j, cj in enumerate(other.coeffs):
                out[i + j] = out[i + j] + ci * cj
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        result = UniPoly([1])
        for _ in range(n):
            result = result * self
        return result

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        """Exact polynomial division (coefficients live in a field)."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        dq = len(other.coeffs) - 1
        lead = other.coeffs[-1]
        if len(rem) <= dq:
            return UniPoly.zero(), UniPoly(rem)
        quot = [rat(0)] * (len(rem) - dq)
        for k in range(len(rem) - 1, dq - 1, -1):
            c = rem[k]
            if c.is_zero():
                continue
            q = c / lead
            quot[k - dq] = q
            for j, oc in enumerate(other.coeffs):
                rem[k - dq + j] = rem[k - dq + j] - q * oc
        return UniPoly(quot), UniPoly(rem)

    def __call__(self, x) -> QuadElem:
        """Horner evaluation at a QuadElem (or rational) point."""
        x = QuadElem.coerce(x)
        acc = rat(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def is_rational(self) -> bool:
        return all(c.is_rational() for c in self.coeffs)

    def rational_coeffs(self) -> list[Fraction]:
        if not self.is_rational():
            raise ValueError("polynomial has irrational coefficients")
        return [c.a for c in self.coeffs]

    def __repr__(self):
        if self.is_zero():
            return "UniPoly(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c.is_zero():
                terms.append(f"({c})*u^{k}" if k else f"({c})")
        return "UniPoly(" + " + ".join(terms) + ")"


def rational_tuple(p: UniPoly) -> tuple:
    """The coefficients of a rational UniPoly as a tuple of Fractions."""
    return tuple(p.rational_coeffs())


def gegenbauer_unipoly(ell: int, lam: Fraction) -> UniPoly:
    """C_l^lambda(s) by the three-term recurrence, on UniPoly."""
    s = UniPoly([0, 1])
    prev2, prev1 = UniPoly.zero(), UniPoly([1])
    for k in range(1, ell + 1):
        cur = s * prev1 * Fraction(2 * (k + lam - 1), k) - prev2 * Fraction(
            k + 2 * lam - 2, k
        )
        prev2, prev1 = prev1, cur
    return prev1


def scaled_q_unipoly(ell: int, d: int) -> UniPoly:
    """Q_l^(d) = ((d + 2l - 2)/(d - 2)) C_l^{(d-2)/2}, on UniPoly."""
    return gegenbauer_unipoly(ell, Fraction(d - 2, 2)) * Fraction(d + 2 * ell - 2, d - 2)


def lp_polynomials_unipoly(name: str) -> tuple[UniPoly, UniPoly, UniPoly]:
    """(F, prod (s - r)^2, F / prod (s - r)^2) of a test function, built from
    its Gegenbauer data and claimed roots on UniPoly over QuadElem."""
    expanded = UniPoly.zero()
    for ell, f in lpbound._GEGENBAUER_DATA[name].items():
        expanded = expanded + scaled_q_unipoly(ell, 4) * f
    squares = UniPoly([1])
    for r in lpbound._roots_for(name):
        lin = UniPoly([-r, 1])
        squares = squares * lin * lin
    residual, rem = expanded.divmod(squares)
    assert rem.is_zero()
    return expanded, squares, residual
