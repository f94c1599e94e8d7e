"""Spherical theta tables for the maximal orders, with exact ranks.

The engine exploits two structural facts, both independently verified by the
test suite:

* every shell splits into free right G-orbits, so for a right-G-invariant
  polynomial P the shell sum is |G| times the sum over orbit representatives;
* writing x = z1 + z2 j, right multiplication acts on (z1, z2) through the
  SU(2) matrix C_eps, holomorphic polynomials in (z1, z2) are harmonic, and
  f composed with a left translation L_y stays right-invariant and harmonic.

Columns of the default table are Re/Im of f_t . L_y for a basis f_1..f_m of
the right-invariant holomorphic forms (m = [u^l] Psi_G) and a deterministic
pool of rational unit left-translates y.  Every column is a genuine theta
series of a harmonic polynomial, so the computed rank is an exact lower
bound for dim Theta(G, l); when m = 0 the space Harm_l^G itself vanishes
(two independent exact computations) and the rank is exactly zero.

A full-basis table over harm_basis(l) is available for small instances and
is cross-checked against the translate engine in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt, lcm

from .budget import Budget, get_budget
from .exactnum import QuadElem, RAT, SQRT2, GOLDEN, insert, rat
from .groups import build_group
from .harmonics import harm_basis
from .orders import (
    enumerate_shell,
    orbit_decompose,
    order_basis,
    shell_count_formula,
)
from .quat import Quaternion, pair_mul, qmul_pairs, scaled_pairs, su2_factor, to_matrix
from .strength import (
    class_sum_series,
    first_coordinate_distribution,
    molien_closed_form,
    molien_series,
)

_FIELD_TAG = {"2T": RAT, "2O": SQRT2, "2I": GOLDEN}


# -- complex numbers over a quadratic field (exact, for invariant finding) ----

class CQuad:
    """re + i*im with QuadElem components."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = QuadElem.coerce(re)
        self.im = QuadElem.coerce(im)

    def __add__(self, o):
        return CQuad(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return CQuad(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return CQuad(-self.re, -self.im)

    def __mul__(self, o):
        if not isinstance(o, CQuad):
            o = CQuad(o)
        return CQuad(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    def conj(self):
        return CQuad(self.re, -self.im)

    def __rtruediv__(self, o):
        ninv = (self.re * self.re + self.im * self.im).inverse()
        return CQuad(self.re * ninv, -(self.im * ninv)) * o

    def __bool__(self):
        return bool(self.re or self.im)

    def __eq__(self, o):
        return isinstance(o, CQuad) and self.re == o.re and self.im == o.im

    def __repr__(self):
        return f"CQuad({self.re}, {self.im})"


def _su2_entries(eps: Quaternion) -> tuple[CQuad, CQuad]:
    """(w1, w2) with eps = w1 + w2 j, i.e. the first row of C_eps."""
    return CQuad(eps.x1, eps.x2), CQuad(eps.x3, eps.x4)


# -- holomorphic right-invariants ---------------------------------------------

@lru_cache(maxsize=None)
def invariant_multiplicity(label: str, ell: int) -> int:
    """m_l = [u^l] Psi_G = dim of degree-l holomorphic right-invariants."""
    return molien_series(build_group(label), ell)[ell]


def _reynolds_holomorphic(label: str, p: int, q: int) -> dict:
    """sum_eps (eps . z1^p z2^q) as {(a, b): CQuad} with a + b = p + q."""
    group = build_group(label)
    out: dict[tuple[int, int], CQuad] = {}
    zero = CQuad(0)
    for eps in group:
        w1, w2 = _su2_entries(eps)
        # (z1 w1 - z2 conj(w2))^p and (z1 w2 + z2 conj(w1))^q
        a_pows = _binom_powers(w1, -w2.conj(), p)
        b_pows = _binom_powers(w2, w1.conj(), q)
        for i, ca in a_pows:
            for j, cb in b_pows:
                key = (i + j, p + q - i - j)
                cur = out.get(key, zero)
                out[key] = cur + ca * cb
    return {k: v for k, v in out.items() if v}


def _binom_powers(u: CQuad, v: CQuad, n: int):
    """[(i, C(n,i) u^i v^{n-i})] for the expansion of (z1 u + z2 v)^n."""
    u_pows = [CQuad(1)]
    v_pows = [CQuad(1)]
    for _ in range(n):
        u_pows.append(u_pows[-1] * u)
        v_pows.append(v_pows[-1] * v)
    return [(i, u_pows[i] * v_pows[n - i] * rat(comb(n, i))) for i in range(n + 1)]


@lru_cache(maxsize=None)
def holomorphic_invariants(label: str, ell: int) -> tuple:
    """A basis (length m_l) of G-invariant holomorphic forms of degree l.

    Found by Reynolds-averaging seed monomials until the span is full; the
    span dimension is certified against the Molien coefficient.
    """
    m = invariant_multiplicity(label, ell)
    if m == 0:
        return ()
    basis: list[dict] = []
    echelon: dict = {}
    for a in range(ell, -1, -1):
        cand = _reynolds_holomorphic(label, a, ell - a)
        if insert(cand, echelon):
            basis.append(cand)
            if len(basis) == m:
                break
    if len(basis) != m:
        raise AssertionError(
            f"found {len(basis)} holomorphic invariants for {label} deg {ell}, "
            f"Molien predicts {m}"
        )
    return tuple(basis)


# -- scaled integer evaluation layer ------------------------------------------

def _cq_mul(tag, u, v):
    """Complex multiply on ((are, bre), (aim, bim)) integer-pair values."""
    (ar, br), (ai, bi) = u
    (cr, dr), (ci, di) = v
    rr = pair_mul(tag, ar, br, cr, dr)
    ii = pair_mul(tag, ai, bi, ci, di)
    ri = pair_mul(tag, ar, br, ci, di)
    ir = pair_mul(tag, ai, bi, cr, dr)
    return (rr[0] - ii[0], rr[1] - ii[1]), (ri[0] + ir[0], ri[1] + ir[1])


def _cq_add(u, v):
    (ar, br), (ai, bi) = u
    (cr, dr), (ci, di) = v
    return (ar + cr, br + dr), (ai + ci, bi + di)


_CQ_ZERO = ((0, 0), (0, 0))
_CQ_ONE = ((1, 0), (0, 0))


@lru_cache(maxsize=None)
def _doubled_basis_pairs(label: str):
    """Integer-pair coordinates of 2 * (order basis vectors)."""
    return _FIELD_TAG[label], tuple(
        scaled_pairs(g.coords, 2) for g in order_basis(label)
    )


def _scaled_point(label: str, coords):
    """Integer-pair quaternion coordinates of 2x for shell coordinates x."""
    tag, basis = _doubled_basis_pairs(label)
    acc = [(0, 0), (0, 0), (0, 0), (0, 0)]
    for c, vec in zip(coords, basis):
        if c:
            for k in range(4):
                a, b = vec[k]
                acc[k] = (acc[k][0] + c * a, acc[k][1] + c * b)
    return tuple(acc)


# deterministic pool of rational unit left-translates, stored as integer
# quaternions with square norm (the true translate is y / sqrt(N)), in
# integer-pair coordinates
_POOL_GENERATORS = (
    ((1, 0), (2, 0), (2, 0), (0, 0)),
    ((2, 0), (3, 0), (6, 0), (0, 0)),
)
_POOL_SIZE = 10


@lru_cache(maxsize=None)
def _translate_pool():
    """_POOL_SIZE integer quaternions y with N(y) a perfect square, words in
    two non-commuting generators whose rotation group is infinite (dense)."""
    one = ((1, 0), (0, 0), (0, 0), (0, 0))
    pool = [one]
    frontier = [one]
    while len(pool) < _POOL_SIZE:
        nxt = []
        for w in frontier:
            for g in _POOL_GENERATORS:
                c = qmul_pairs(RAT, w, g)
                if c not in pool:
                    pool.append(c)
                    nxt.append(c)
                if len(pool) >= _POOL_SIZE:
                    break
            if len(pool) >= _POOL_SIZE:
                break
        frontier = nxt
    out = []
    for y in pool:
        n = sum(a * a for a, _ in y)
        root = isqrt(n)
        assert root * root == n
        out.append((y, root))
    return tuple(out)


@lru_cache(maxsize=None)
def shell_orbit_reps(label: str, m: int) -> tuple:
    shell = enumerate_shell(label, m)
    return tuple(orbit_decompose(shell))


# -- theta tables -------------------------------------------------------------

@dataclass(frozen=True)
class ThetaTable:
    group_label: str
    ell: int
    shell_limit: int
    kind: str                      # "invariant" or "full"
    column_labels: tuple
    matrix: tuple                  # rows m = 1..M of QuadElem entries

    @property
    def n_columns(self) -> int:
        return len(self.column_labels)

    def rank(self) -> int:
        return exact_rank(self.matrix)

    def nonzero_column_vectors(self):
        cols = []
        for j in range(self.n_columns):
            col = [row[j] for row in self.matrix]
            if any(not e.is_zero() for e in col):
                cols.append((self.column_labels[j], col))
        return cols

    def normalized_generator(self) -> list[Fraction] | None:
        """When rank is 1: the common column, scaled to leading coefficient 1.

        Ratios inside one column of a rank-1 table are rational because every
        column is a rational multiple of the single underlying q-expansion.
        """
        if self.rank() != 1:
            return None
        _, col = self.nonzero_column_vectors()[0]
        lead = next(e for e in col if not e.is_zero())
        inv = lead.inverse()
        out = []
        for e in col:
            v = e * inv
            if not v.is_rational():
                raise AssertionError("rank-1 column failed to rationalize")
            out.append(v.a)
        return out

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.matrix for e in row)

    def to_json(self):
        return {
            "group": self.group_label,
            "ell": self.ell,
            "shells": self.shell_limit,
            "kind": self.kind,
            "columns": [str(c) for c in self.column_labels],
            "matrix": [[e.to_json() for e in row] for row in self.matrix],
            "rank": self.rank(),
        }


def exact_rank(rows) -> int:
    """Exact rank over the entries' field; a row is a sequence or a sparse dict."""
    echelon: dict = {}
    return sum(
        insert(row if isinstance(row, dict) else dict(enumerate(row)), echelon)
        for row in rows
    )


def _invariant_table(label, ell, shells, budget: Budget) -> ThetaTable:
    tag = _FIELD_TAG[label]
    group_order = len(build_group(label))
    invariants = holomorphic_invariants(label, ell)
    if not invariants:
        return ThetaTable(label, ell, shells, "invariant", (), tuple(
            () for _ in range(shells)
        ))

    # clear denominators: integer-pair complex coefficients per invariant
    scaled = []
    for f in invariants:
        den = lcm(*(
            q.denominator
            for v in f.values() for q in (v.re.a, v.re.b, v.im.a, v.im.b)
        ))
        fi = {
            k: (
                (int(v.re.a * den), int(v.re.b * den)),
                (int(v.im.a * den), int(v.im.b * den)),
            )
            for k, v in f.items()
        }
        scaled.append((fi, den))

    pool = _translate_pool()
    columns = []
    for t, (fi, den) in enumerate(scaled):
        for y, root in pool:
            columns.append((t, y, root, fi, den))

    # largest shell first: its enumeration ball is cached and serves every
    # smaller m, where rising m would enumerate a larger ball each time
    enumerate_shell(label, shells, budget)
    raw = [[_CQ_ZERO] * len(columns) for _ in range(shells)]
    for m in range(1, shells + 1):
        reps = shell_orbit_reps(label, m)
        rep_points = [_scaled_point(label, r) for r in reps]
        for ci, (t, y, root, fi, den) in enumerate(columns):
            acc = _CQ_ZERO
            for pt in rep_points:
                moved = qmul_pairs(tag, y, pt)
                z1 = (moved[0], moved[1])
                z2 = (moved[2], moved[3])
                acc = _cq_add(acc, _eval_holomorphic(tag, fi, z1, z2, ell))
            raw[m - 1][ci] = acc

    col_labels = []
    rows_re_im = [[] for _ in range(shells)]
    for ci, (t, y, root, fi, den) in enumerate(columns):
        scale = Fraction(group_order, den * (2 * root) ** ell)
        for part in ("re", "im"):
            col_labels.append(f"f{t}.L{tuple(a for a, _ in y)}.{part}")
        for m in range(shells):
            (ar, br), (ai, bi) = raw[m][ci]
            rows_re_im[m].append(QuadElem(tag, ar * scale, br * scale))
            rows_re_im[m].append(QuadElem(tag, ai * scale, bi * scale))

    return ThetaTable(
        label, ell, shells, "invariant", tuple(col_labels),
        tuple(tuple(r) for r in rows_re_im),
    )


def _eval_holomorphic(tag, coeffs, z1, z2, ell):
    z1p = [_CQ_ONE]
    z2p = [_CQ_ONE]
    for _ in range(ell):
        z1p.append(_cq_mul(tag, z1p[-1], z1))
        z2p.append(_cq_mul(tag, z2p[-1], z2))
    acc = _CQ_ZERO
    for (a, b), c in coeffs.items():
        term = _cq_mul(tag, c, _cq_mul(tag, z1p[a], z2p[b]))
        acc = _cq_add(acc, term)
    return acc


def _full_table(label, ell, shells, budget: Budget) -> ThetaTable:
    tag = _FIELD_TAG[label]
    basis = harm_basis(ell)
    total_points = sum(shell_count_formula(label, m) for m in range(1, shells + 1))
    budget.check_table_cells(total_points * len(basis))

    # scale each basis polynomial to integer coefficients (column scaling)
    scaled_polys = []
    for p in basis.polynomials:
        den = lcm(*(c.denominator for c in p.values()))
        scaled_polys.append(({m: int(c * den) for m, c in p.items()}, den))

    enumerate_shell(label, shells, budget)  # largest shell first, as above
    rows = []
    for m in range(1, shells + 1):
        shell = enumerate_shell(label, m, budget)
        sums = [(0, 0)] * len(scaled_polys)
        for coords in shell.points:
            pt = _scaled_point(label, coords)
            monos = _monomial_values(tag, pt, ell)
            for pi, (poly, den) in enumerate(scaled_polys):
                acc_a, acc_b = sums[pi]
                for mono, c in poly.items():
                    va, vb = monos[mono]
                    acc_a += c * va
                    acc_b += c * vb
                sums[pi] = (acc_a, acc_b)
        row = []
        for (sa, sb), (poly, den) in zip(sums, scaled_polys):
            scale = Fraction(1, den * 2**ell)
            row.append(QuadElem(tag, sa * scale, sb * scale))
        rows.append(tuple(row))
    labels = tuple(f"H{idx}" for idx in range(len(scaled_polys)))
    return ThetaTable(label, ell, shells, "full", labels, tuple(rows))


def _monomial_values(tag, pt, ell):
    """All degree-<=ell monomial values of an integer-pair 4-vector."""
    values = {(0, 0, 0, 0): (1, 0)}
    frontier = [(0, 0, 0, 0)]
    for _ in range(ell):
        nxt = []
        seen = set()
        for mono in frontier:
            base = values[mono]
            for axis in range(4):
                key = tuple(
                    mono[k] + 1 if k == axis else mono[k] for k in range(4)
                )
                if key in seen or key in values:
                    continue
                a, b = base
                c, d = pt[axis]
                values[key] = pair_mul(tag, a, b, c, d)
                seen.add(key)
                nxt.append(key)
        frontier = nxt
    return values


def theta_table(
    label: str,
    ell: int,
    shells: int,
    kind: str = "invariant",
    budget: Budget | None = None,
) -> ThetaTable:
    """Coefficient table of theta series over degree-ell harmonics."""
    budget = budget or get_budget()
    budget.check_theta(label, ell)
    budget.check_shell(label, shells)
    if kind == "invariant":
        return _invariant_table(label, ell, shells, budget)
    if kind == "full":
        return _full_table(label, ell, shells, budget)
    raise ValueError(f"unknown table kind {kind!r}")


def theta_rank(label: str, ell: int, shells: int, budget: Budget | None = None) -> int:
    """Exact rank of the theta table: a lower bound for dim Theta(G, ell);
    exactly 0 whenever Harm_ell^G = 0 (in particular for ell in T(G))."""
    table = theta_table(label, ell, shells, "invariant", budget)
    return table.rank()


# -- harmonic Molien series ----------------------------------------------------

@lru_cache(maxsize=None)
def _checked_det_classes(label: str) -> tuple:
    """(coefficients of det(I - u M_eps), count) per first-coordinate class.

    The 4x4 determinant is expanded symbolically for every element of G and
    checked against its SU(2) factorization (1 - 2 eps_1 u + u^2)^2, so it
    depends on eps only through eps_1.
    """
    group = build_group(label)
    dets = {}
    for eps in group:
        det = to_matrix(eps).det_poly_i_minus_u()
        factor = su2_factor(eps)
        if det != factor * factor:
            raise AssertionError("det(I - uM) != su2 factor squared")
        dets[eps.x1] = det.coeffs
    counts = first_coordinate_distribution(group)
    return tuple((dets[x1], count) for x1, count in counts.items())


@lru_cache(maxsize=None)
def harmonic_molien(label: str, n: int) -> tuple[int, ...]:
    """Psi^H_G(u) = (1/|G|) sum_eps (1 - u^2)/det(I - u M_eps), to u^n.

    The sum runs over first-coordinate classes, through the same class sum
    as the Molien series Psi_G.
    """
    classes = _checked_det_classes(label)
    return class_sum_series(classes, len(build_group(label)), (1, 0, -1), n)


def harmonic_invariant_dim(label: str, ell: int) -> int:
    return harmonic_molien(label, ell)[ell]


def upper_bound_check(
    label: str, ell: int, shells: int, budget: Budget | None = None
) -> bool:
    """theta_rank <= dim Harm_ell^G; a violation is a hard failure."""
    rank = theta_rank(label, ell, shells, budget)
    bound = harmonic_invariant_dim(label, ell)
    if rank > bound:
        raise AssertionError(
            f"theta rank {rank} exceeds invariant dimension {bound} "
            f"for {label}, ell={ell}"
        )
    return True


# -- Reynolds cross-checks -----------------------------------------------------

def invariant_dimension_evaluation(label: str, ell: int) -> int:
    """dim Harm_ell^G via Reynolds averaging, evaluated at rational points.

    The rank of [ (R P_i)(v_j) ]_{ij} is a lower bound for dim Harm_ell^G;
    the caller compares it with the Molien value (equality certifies both).
    Left translates eps*v are used, matching the action P -> P(eps x).
    """
    group = build_group(label)
    tag = _FIELD_TAG[label]
    basis = harm_basis(ell)
    d = harmonic_invariant_dim(label, ell)
    points = _evaluation_points(d + 8 if d else 6)

    moments = []
    for v in points:
        vp = tuple((2 * c, 0) for c in v)  # scale 2 keeps eps*v integral
        total: dict = {}
        for eps in group:
            ep = scaled_pairs(eps.coords, 2)  # 2*eps is integral in every order
            moved = qmul_pairs(tag, ep, vp)  # = coords of 4*(eps v), scaled
            monos = _monomial_values(tag, moved, ell)
            for mono, val in monos.items():
                if sum(mono) != ell:
                    continue
                cur = total.get(mono, (0, 0))
                total[mono] = (cur[0] + val[0], cur[1] + val[1])
        moments.append(total)

    rows = []
    for p in basis.polynomials:
        den = lcm(*(c.denominator for c in p.values()))
        poly = {m: int(c * den) for m, c in p.items()}
        row = []
        for total in moments:
            sa = sb = 0
            for mono, c in poly.items():
                va, vb = total.get(mono, (0, 0))
                sa += c * va
                sb += c * vb
            row.append(QuadElem(tag, sa, sb))
        rows.append(row)
    return exact_rank(rows)


def _evaluation_points(count: int):
    pts = []
    k = 1
    while len(pts) < count:
        # small deterministic integer quadruples, no special symmetry
        pts.append(
            (
                1 + (k % 3),
                (k * k) % 5 - 2,
                (k * k * k) % 7 - 3,
                k % 4,
            )
        )
        k += 1
    return pts


def invariant_dimension_coefficients(label: str, ell: int) -> int:
    """dim Harm_ell^G by explicit Reynolds averaging on coefficients.

    Exact in both directions but costs a full action-matrix pass per group
    element; intended for the rational group 2T at small degrees.
    """
    group = build_group(label)
    if label != "2T":
        raise ValueError("coefficient-level Reynolds is supported for 2T only")
    reynolds_cols: dict = {}
    for eps in group:
        mat = to_matrix(eps)
        scaled_rows = []
        for i in range(4):
            row = {}
            for j in range(4):
                v = 2 * mat.rows[i][j].a
                if v:
                    row[j] = int(v)
            scaled_rows.append(row)
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
    return exact_rank(images)


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


# -- dimension-series hypotheses -----------------------------------------------

@dataclass(frozen=True)
class HypothesisReport:
    group_label: str
    ell: int
    rank_lower_bound: int
    conjectured_dim: int
    agrees: bool
    proven: bool  # True for 2T, where the series is established, not guessed


def dimension_hypothesis(
    label: str, ell: int, shells: int, budget: Budget | None = None
) -> HypothesisReport:
    """Compare theta_rank with the (partly conjectural) dimension series.

    The series equals the Molien closed form for each group; for 2O and 2I
    the equality is conjectural, so disagreement is reported, never asserted.
    """
    conj = molien_closed_form(label, ell)[ell]
    rank = theta_rank(label, ell, shells, budget)
    return HypothesisReport(
        group_label=label,
        ell=ell,
        rank_lower_bound=rank,
        conjectured_dim=conj,
        agrees=(rank == conj),
        proven=(label == "2T"),
    )
