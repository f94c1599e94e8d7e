"""Reference implementations shared by several test modules."""

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd
from operator import add, mul

from quatdesign import lpbound, orders, theta
from quatdesign.exactnum import RAT, QuadElem, iota, rat
from quatdesign.groups import NotAntipodal, build_group, gram_of
from quatdesign.harmonics import harm_basis, laplacian, quotient_monomials
from quatdesign.orders import (
    FIELD_TAG,
    IntegrityError,
    embed_coords,
    enumerate_shells,
    right_multiplication_matrices,
)
from quatdesign.quat import PAIR_MUL, flat, left_matrix_pairs, norm, qmul, scaled_pairs
from quatdesign.strength import pair_sums


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


# -- point sets, order coordinates and forms, one value at a time -------------

def pair_distance_distribution(points) -> dict:
    """A_s(X) over all ordered pairs; sums to |X|^2."""
    gram = gram_of(points)
    return gram.distribution(gram.pair_counts())


def half_set(points) -> list:
    """A canonical half set X' with X = X' u (-X'), for antipodal X."""
    pts = sorted(points, key=lambda q: q.coords)
    pset = set(pts)
    if any(-x not in pset for x in pts):
        raise NotAntipodal("half_set requires an antipodal point set")
    chosen, excluded = [], set()
    for x in pts:
        if x in excluded:
            continue
        chosen.append(x)
        excluded.add(x)
        excluded.add(-x)
    return chosen


def orbit(x, group) -> list:
    """Right coset xG; |xG| = |G| for x != 0."""
    if norm(x).is_zero():
        raise ValueError("orbit of the zero quaternion is not defined")
    pts = [qmul(x, eps) for eps in group]
    if len(set(pts)) != len(group):
        raise AssertionError("orbit collapsed; group action not free")
    return sorted(pts, key=lambda q: q.coords)


def pair_sum_value(points, ell: int) -> QuadElem:
    """sum_{x,y in X} C_l^1(<x,y>), over the Gram pass of X."""
    return pair_sums(gram_of(points), (ell,))[ell]


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


def form_value(form, coords) -> int:
    """Q_G(coords) = sum_ij coords_i coords_j gram_ij, which must be an integer."""
    n = form.dimension
    total = Fraction(0)
    for i in range(n):
        ci = coords[i]
        if ci == 0:
            continue
        row = form.gram[i]
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


# -- orbits and invariant theta tables, one element and one degree at a time --

def orbit_reps(shell):
    """Representatives of the right G-orbits of a shell, every orbit built
    from all |G| matrices."""
    actions = [tuple(zip(*mat)) for mat in right_multiplication_matrices(shell.group_label)]
    seen = set()
    reps = []
    for p in shell.points:
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
    for p in harm_basis(ell).polynomials:
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
    serves every ell.  When every ell is even, one of each pair +-eps is
    summed: -1 lies in G and (x(-A))^a = (-1)^l (xA)^a.
    """
    ells = tuple(ells)
    tag = FIELD_TAG[label]
    rho2 = PAIR_MUL[tag](0, 1, 0, 1)
    doubled = build_group(label).doubled
    if all(ell % 2 == 0 for ell in ells):
        doubled = [x for x in doubled if x > tuple((-a, -b) for a, b in x)]
    sums: dict = {}
    for x in doubled:
        cols = tuple(zip(*left_matrix_pairs(x)))
        for d, level in enumerate(_quotient_images(rho2, cols, max(ells, default=0))):
            if d in ells:
                sums[d] = [(list(map(add, sa, ia)), list(map(add, sb, ib)))
                           for (sa, sb), (ia, ib) in zip(sums[d], level)] if d in sums else level
    return {
        ell: theta.exact_rank(
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
