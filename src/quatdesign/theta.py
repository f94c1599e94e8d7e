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

Only a K(i)-basis of the translates is evaluated on the shells.  O_G is an
order containing G, so left multiplication by G maps every shell onto
itself, and a shell sum of f_t . L_y is then linear in the values
(f_1(y), ..., f_m(y)): the columns of any other translate are an exact
combination of the basis translates' columns (`_invariant_tables`).

A full-basis table over harm_basis(l) is available for small instances and
is cross-checked against the translate engine in the tests.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import comb, gcd, isqrt, lcm
from operator import mul

from .budget import Budget, get_budget
from .exactnum import PAIR_MUL, RHO_SQUARED, QuadElem, RAT, frac_str, insert, power_list, reduce
from .groups import build_group
from .harmonics import harm_basis
from .orders import FIELD_TAG, _doubled_basis, ball_size, doubled_point, enumerate_shells
from .quat import flat, left_matrix_pairs, qmul_pairs
from .strength import class_sum_series, molien_series


# -- flat integer kernel ------------------------------------------------------
#
# A scalar a + b*rho with integers a, b is the pair (a, b); a complex value
# re + i*im with re, im in Z[rho] is the flat 4-tuple (re_a, re_b, im_a, im_b).
# A caller looks up its field's multiply once, in PAIR_MUL or _CMUL.

def _complex_mul(tag):
    """The complex product on flat 4-tuples over Z[rho], rho^2 = c0 + c1 rho."""
    c0, c1 = RHO_SQUARED[tag]

    def cmul(u, v):
        ra, rb, ia, ib = u
        sa, sb, ja, jb = v
        re2, im2 = rb * sb - ib * jb, rb * jb + ib * sb  # the rho^2 terms
        return (
            ra * sa - ia * ja + c0 * re2,
            ra * sb + rb * sa - ia * jb - ib * ja + c1 * re2,
            ra * ja + ia * sa + c0 * im2,
            ra * jb + rb * ja + ia * sb + ib * sa + c1 * im2,
        )

    return cmul


_CMUL = {tag: _complex_mul(tag) for tag in PAIR_MUL}
_C_ZERO = (0, 0, 0, 0)
_C_ONE = (1, 0, 0, 0)


def _csum(values):
    return tuple(map(sum, zip(_C_ZERO, *values)))


# -- holomorphic right-invariants ---------------------------------------------

@lru_cache(maxsize=None)
def invariant_multiplicity(label: str, ell: int) -> int:
    """m_l = [u^l] Psi_G = dim of degree-l holomorphic right-invariants."""
    return molien_series(build_group(label), ell)[ell]


def _reynolds_holomorphic(label: str, p: int, q: int) -> dict:
    """2^(p+q) sum_eps (eps . z1^p z2^q) as {(a, b): flat complex value}
    with a + b = p + q."""
    cmul = _CMUL[FIELD_TAG[label]]
    out: dict = {}
    for x in map(flat, build_group(label).doubled):
        # 2 eps = W1 + W2 j on flat integer pairs
        w1, w2 = x[:4], x[4:]
        # (z1 W1 - z2 conj W2)^p and (z1 W2 + z2 conj W1)^q
        a_pows = _binom_powers(cmul, w1, (-x[4], -x[5], x[6], x[7]), p)
        b_pows = _binom_powers(cmul, w2, (x[0], x[1], -x[2], -x[3]), q)
        for i, ca in a_pows:
            for j, cb in b_pows:
                out.setdefault((i + j, p + q - i - j), []).append(cmul(ca, cb))
    sums = {k: _csum(terms) for k, terms in out.items()}
    return {k: v for k, v in sums.items() if v != _C_ZERO}


def _binom_powers(cmul, u, v, n: int):
    """[(i, C(n,i) u^i v^{n-i})] for the expansion of (z1 u + z2 v)^n."""
    u_pows, v_pows = power_list(cmul, _C_ONE, u, n), power_list(cmul, _C_ONE, v, n)
    return [
        (i, tuple(comb(n, i) * c for c in cmul(u_pows[i], v_pows[n - i])))
        for i in range(n + 1)
    ]


def _real_split(tag, form) -> dict:
    """{(k, 0): Re, (k, 1): Im}: a form as a vector over K = Q(rho)."""
    out = {}
    for k, (ra, rb, ia, ib) in form.items():
        out[(k, 0)] = QuadElem(tag, ra, rb)
        out[(k, 1)] = QuadElem(tag, ia, ib)
    return out


def _independent_images(label: str, ell: int):
    """Yield, for a = ell..0, the Reynolds image of z1^a z2^(ell - a) when it
    is K(i)-independent of the images yielded before it.

    Each image is 2^l f, {(a, b): coefficient of z1^a z2^b} with flat complex
    coefficients (re_a, re_b, im_a, im_b).  Independence is over K(i): the
    echelon over K holds the real splits of every yielded f and of i f, which
    together span the K(i)-span.
    """
    tag = FIELD_TAG[label]
    echelon: dict = {}
    for a in range(ell, -1, -1):
        cand = _reynolds_holomorphic(label, a, ell - a)
        if not insert(_real_split(tag, cand), echelon):
            continue
        times_i = {k: (-ia, -ib, ra, rb) for k, (ra, rb, ia, ib) in cand.items()}
        if not insert(_real_split(tag, times_i), echelon):
            raise AssertionError(f"i f lies in the K-span for {label} deg {ell}")
        yield cand


@lru_cache(maxsize=None)
def holomorphic_invariants(label: str, ell: int) -> tuple:
    """A basis (length m_l) of G-invariant holomorphic forms of degree l.

    Each form is an image of `_independent_images`, taken until the span is
    full; the span dimension is certified against the Molien coefficient.
    """
    m = invariant_multiplicity(label, ell)
    if m == 0:
        return ()
    basis = tuple(islice(_independent_images(label, ell), m))
    if len(basis) != m:
        raise AssertionError(
            f"found {len(basis)} holomorphic invariants for {label} deg {ell}, "
            f"Molien predicts {m}"
        )
    return basis


def invariant_dimensions(label: str, ells) -> dict:
    """{ell: dim Harm_ell^G} by Reynolds averaging on binary forms, exact in
    both directions and with no Molien series.

    G acts on S^3 = SU(2) from one side, and under SU(2) x SU(2) the
    restriction Harm_l|S^3 is V_l (x) V_l, V_l the binary forms of degree l;
    so dim Harm_l^G = (l + 1) dim V_l^G.  A Reynolds operator maps V_l onto
    V_l^G, so dim V_l^G is the K(i)-rank of the images of the l + 1
    monomials z1^a z2^(l - a).
    """
    if label not in FIELD_TAG:
        raise ValueError(f"no Reynolds route for group {label!r}")
    ells = tuple(ells)
    if any(ell < 0 for ell in ells):
        raise IndexError("degree must be nonnegative")
    return {ell: (ell + 1) * sum(1 for _ in _independent_images(label, ell)) for ell in ells}


# -- scaled integer evaluation layer ------------------------------------------

_QUAT_ONE = ((1, 0), (0, 0), (0, 0), (0, 0))


@lru_cache(maxsize=None)
def _point_map(label: str, y) -> tuple:
    """Columns c_0..c_7 with flat pairs of y * 2x = sum(map(mul, coords, c_k))
    for the order coordinates coords of x; y is an integer-pair quaternion."""
    tag = FIELD_TAG[label]
    images = [flat(qmul_pairs(tag, y, pair)) for pair in _doubled_basis(label)[0]]
    return tuple(zip(*images))


def _map_point(cols, coords) -> tuple:
    return tuple([sum(map(mul, coords, col)) for col in cols])


def _monomial_sums(tag, points, ell) -> dict:
    """{e: sum over points of x^e, as an integer pair} for every degree-ell
    monomial e; a point is the flat 8-tuple of its four integer pairs."""
    pmul = PAIR_MUL[tag]
    pair_mul = lambda p, q: pmul(*p, *q)
    monos = [  # in the order of the loops below
        (e1, e2, e3, ell - e1 - e2 - e3)
        for e1 in range(ell + 1)
        for e2 in range(ell - e1 + 1)
        for e3 in range(ell - e1 - e2 + 1)
    ]
    acc_a = [0] * len(monos)
    acc_b = [0] * len(monos)
    for pt in points:
        p1, p2, p3, p4 = (power_list(pair_mul, (1, 0), pt[i:i + 2], ell) for i in range(0, 8, 2))
        k = 0
        for e1 in range(ell + 1):
            for e2 in range(ell - e1 + 1):
                x12 = pmul(*p1[e1], *p2[e2])
                rest = ell - e1 - e2
                for e3 in range(rest + 1):
                    va, vb = pmul(*pmul(*x12, *p3[e3]), *p4[rest - e3])
                    acc_a[k] += va
                    acc_b[k] += vb
                    k += 1
    return dict(zip(monos, zip(acc_a, acc_b)))


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
    pool = [_QUAT_ONE]
    for w in pool:  # breadth first: the list is read while it grows
        if len(pool) >= _POOL_SIZE:
            break
        for g in _POOL_GENERATORS:
            c = qmul_pairs(RAT, w, g)
            if c not in pool:
                pool.append(c)
    out = []
    for y in pool[:_POOL_SIZE]:
        n = sum(a * a for a, _ in y)
        root = isqrt(n)
        if root * root != n:
            raise AssertionError(f"translate {tuple(a for a, _ in y)} has norm {n}, not a square")
        out.append((y, root))
    return tuple(out)


# -- theta tables -------------------------------------------------------------

class ThetaTable(namedtuple("ThetaTable", (
    "group_label",
    "ell",
    "shell_limit",
    "kind",           # "invariant" or "full"
    "column_labels",
    "matrix",         # rows m = 1..M of QuadElem entries
))):
    __slots__ = ()

    def rank(self) -> int:
        return exact_rank(self.matrix)

    def normalized_generator(self) -> list[Fraction] | None:
        """When rank is 1: the common column, scaled to leading coefficient 1."""
        return self._generator() if self.rank() == 1 else None

    def _generator(self) -> list[Fraction]:
        """The first nonzero column over its first nonzero entry.

        Ratios inside one column of a rank-1 table are rational because every
        column is a rational multiple of the single underlying q-expansion.
        """
        col, lead = next((col, e) for col in zip(*self.matrix) for e in col if e)
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
        """The table and its rank; a rank-1 table also gives its generator."""
        out = {
            "group": self.group_label,
            "ell": self.ell,
            "shells": self.shell_limit,
            "kind": self.kind,
            "columns": [str(c) for c in self.column_labels],
            "matrix": [[e.to_json() for e in row] for row in self.matrix],
            "rank": self.rank(),
        }
        if out["rank"] == 1:
            out["generator"] = [frac_str(c) for c in self._generator()]
        return out


def exact_rank(rows) -> int:
    """Exact rank over the entries' field; a row is a sequence or a sparse dict."""
    echelon: dict = {}
    return sum(
        insert(row if isinstance(row, dict) else dict(enumerate(row)), echelon)
        for row in rows
    )


def _power_sums(cmul, monos, points) -> dict:
    """{(a, b): flat complex sum of z1^a z2^b over the moved points} for the
    monomials (a, b) in monos; a moved point is the flat 8-tuple of (z1, z2)."""
    # each monomial is z1^(g i) z2^(g j), g the gcd of all the exponents, so
    # per point one power list in z1^g and one in z2^g give every monomial
    # with one product
    g = gcd(*(e for mono in monos for e in mono)) or 1  # l = 0 has z1^0 z2^0
    steps = [(a // g, b // g) for a, b in monos]
    top1, top2 = max(i for i, _ in steps), max(j for _, j in steps)
    acc = [[0] * len(monos) for _ in range(4)]
    ra_acc, rb_acc, ia_acc, ib_acc = acc
    for z in points:
        p1 = power_list(cmul, _C_ONE, power_list(cmul, _C_ONE, z[:4], g)[g], top1)
        p2 = power_list(cmul, _C_ONE, power_list(cmul, _C_ONE, z[4:], g)[g], top2)
        for k, (i, j) in enumerate(steps):
            ra, rb, ia, ib = cmul(p1[i], p2[j])
            ra_acc[k] += ra
            rb_acc[k] += rb
            ia_acc[k] += ia
            ib_acc[k] += ib
    return dict(zip(monos, zip(*acc)))


def _form_sums(cmul, forms, sums) -> list:
    """[sum c_(a,b) S[a, b] over the monomials of f] for each form f, from the
    monomial sums S."""
    return [_csum(cmul(c, sums[mono]) for mono, c in form.items()) for form in forms]


def _derived_sums(cmul, raw, terms, n_forms: int) -> list:
    """D times the form sums of a derived translate: sum_j N_j S_(y_j) per
    form, from the form sums raw[j] of the basis translates."""
    return [_csum(cmul(n, raw[j][t]) for j, n in terms) for t in range(n_forms)]


@lru_cache(maxsize=None)
def _translate_plan(label: str, ell: int) -> tuple:
    """(basis, derived): the pool translates whose degree-ell sums are
    evaluated, and how every other translate's sums follow from theirs.

    basis lists, in pool order, the indices j whose value vector
    v(y_j) = (f_s(r(y_j)))_s, r(q) = (q0 + q1 i, q2 + q3 i), is
    K(i)-independent of the vectors before it, so it has at most m_l
    entries.  derived holds (k, D, ((j, N_j), ...)) for every other index k:
    v(y_k) = sum_j (N_j / D) v(y_j) over basis indices j, with D a positive
    integer and each N_j a nonzero flat integer complex number.  The echelon
    over K holds the real splits of v(y_j) and of i v(y_j), each with a tag
    key that sorts after the value keys, so a dependent v reduces to the
    tags alone, -a_j and -b_j for beta_j = a_j + b_j i.
    """
    tag = FIELD_TAG[label]
    cmul = _CMUL[tag]
    forms = holomorphic_invariants(label, ell)
    monos = sorted({mono for form in forms for mono in form})
    one = QuadElem(tag, 1)
    echelon: dict = {}
    basis, derived = [], []
    for k, (y, _) in enumerate(_translate_pool()):
        sums = _power_sums(cmul, monos, (flat(y),))
        v = {(0, s): c for s, c in enumerate(_form_sums(cmul, forms, sums))}
        split = _real_split(tag, v)
        cur = reduce(split, echelon)
        if any(key[0] == 0 for key, _ in cur):  # a value key is left
            basis.append(k)
            times_i = {key: (-ia, -ib, ra, rb) for key, (ra, rb, ia, ib) in v.items()}
            insert({**split, ((1, k), 0): one}, echelon)
            insert({**_real_split(tag, times_i), ((1, k), 1): one}, echelon)
            continue
        beta = {j: [0, 0, 0, 0] for j in basis}  # flat a_j + b_j i
        for ((_, j), part), c in cur.items():
            beta[j][2 * part:2 * part + 2] = -c.a, -c.b
        den = lcm(*(Fraction(x).denominator for b in beta.values() for x in b))
        derived.append((k, den, tuple(
            (j, tuple(int(x * den) for x in b)) for j, b in beta.items() if any(b))))
    return tuple(basis), tuple(derived)


def _certify_derived(label, ell, plan, reps, sums) -> None:
    """Raise unless the last derived translate of the plan, evaluated
    directly on the representatives reps from y times each doubled point,
    equals its sum derived from the basis translates' monomial sums."""
    basis, derived = plan
    if not derived:
        return
    tag = FIELD_TAG[label]
    cmul = _CMUL[tag]
    forms = holomorphic_invariants(label, ell)
    k, den, terms = derived[-1]
    y = _translate_pool()[k][0]
    moved = []
    for coords in reps:
        x = doubled_point(label, coords)
        moved.append(flat(qmul_pairs(tag, y, tuple(zip(x[::2], x[1::2])))))
    monos = sorted({mono for form in forms for mono in form})
    direct = _form_sums(cmul, forms, _power_sums(cmul, monos, moved))
    raw = {j: _form_sums(cmul, forms, sums[j]) for j in basis}
    if [tuple(den * c for c in s) for s in direct] != _derived_sums(cmul, raw, terms, len(forms)):
        raise AssertionError(
            f"{label} deg {ell}: translate {k} differs from its derived sum")


def _invariant_tables(label, ells, shells, budget: Budget) -> dict:
    """{ell: invariant ThetaTable} for every ell in ells, from one pass over
    the orbit representatives of each shell.

    Only the basis translates of `_translate_plan` are evaluated; the sums of
    any other translate y are sum_j beta_j S_(y_j), where
    v(y) = sum_j beta_j v(y_j).  This is exact.  O_G is an order containing
    G, so g S = S for every g in G and every shell S, and
    r(y x) = r(y) X_x with X_x the matrix of right multiplication by x.
    Hence sum_(x in S) f_t(r(y x)) = sum_x (1/|G|) sum_g f_t(r(y) X_g X_x);
    for fixed x the inner average is the Reynolds projection of
    u -> f_t(u X_x) onto V_l^G = span{f_s}, so the sum is
    sum_s f_s(r(y)) Theta_st(S), linear in v(y).  The same holds for the
    doubled points y (2x) the sums are taken over, and for the sums over
    orbit representatives, which are 1/|G| of the shell sums.
    """
    tag = FIELD_TAG[label]
    cmul = _CMUL[tag]
    forms = {ell: holomorphic_invariants(label, ell) for ell in ells}
    plans = {ell: _translate_plan(label, ell) for ell, fs in forms.items() if fs}
    needed: dict = {}  # per basis translate: the monomials of its degrees
    for ell, (basis, _) in plans.items():
        for j in basis:
            needed.setdefault(j, set()).update(mono for form in forms[ell] for mono in form)
    pool, per_shell = (), [{}] * shells  # no pool, map or ball when every m_l = 0
    if plans:
        pool = _translate_pool()
        maps = {j: (_point_map(label, pool[j][0]), sorted(needed[j])) for j in sorted(needed)}
        per_shell = []  # per shell: {basis translate: {mono: flat complex sum}}
        certified = False
        for shell in enumerate_shells(label, shells, budget):
            reps = shell.orbit_reps
            sums = {j: _power_sums(cmul, monos, (_map_point(cols, c) for c in reps))
                    for j, (cols, monos) in maps.items()}
            per_shell.append(sums)
            if reps and not certified:
                certified = True
                for ell, plan in plans.items():
                    _certify_derived(label, ell, plan, reps, sums)

    group_order = len(build_group(label))
    tables = {}
    for ell, fs in forms.items():
        basis, derived = plans.get(ell, ((), ()))
        # each form is 2^l f and the moved point is 2 root (y/root) x, so a
        # sum over orbit representatives is (4 root)^l sum f(y x / root); a
        # derived translate's sums are D times its true ones
        dens = {k: den for k, den, _ in derived}
        scales = [Fraction(group_order, (4 * root) ** ell * dens.get(k, 1))
                  for k, (_, root) in enumerate(pool)]
        col_labels = tuple(
            f"f{t}.L{tuple(a for a, _ in y)}.{part}"
            for t in range(len(fs)) for y, _ in pool for part in ("re", "im")
        )
        rows = []
        for sums in per_shell:
            raw = {j: _form_sums(cmul, fs, sums[j]) for j in basis}
            for k, _, terms in derived:
                raw[k] = _derived_sums(cmul, raw, terms, len(fs))
            row = []
            for t in range(len(fs)):
                for k, scale in enumerate(scales):
                    ra, rb, ia, ib = raw[k][t]
                    row.append(QuadElem(tag, ra * scale, rb * scale))
                    row.append(QuadElem(tag, ia * scale, ib * scale))
            rows.append(tuple(row))
        tables[ell] = ThetaTable(label, ell, shells, "invariant", col_labels, tuple(rows))
    return tables


def _full_table(label, ell, shells, budget: Budget) -> ThetaTable:
    """The table of every harmonic of degree ell, summed over every point.

    A shell is -H_m u H_m, and P(-x) = (-1)^ell P(x) for P homogeneous of
    degree ell, so its sum is (1 + (-1)^ell) times the sum over H_m: twice
    that for even ell, and zero for odd ell.
    """
    # harm_basis(ell) has (ell + 1)^2 polynomials (and refuses ell < 0):
    # the cell count is checked before the basis is built
    budget.check_table_cells(ball_size(label, shells) * max(ell + 1, 0) ** 2)
    tag = FIELD_TAG[label]
    basis = harm_basis(ell)

    rows = []
    for shell in enumerate_shells(label, shells, budget):
        # points are 2x, so a degree-l sum is 2^l times the true one
        sums = _monomial_sums(tag, [doubled_point(label, c) for c in shell.half], ell)
        row = []
        for poly, den in basis:
            sa = sum(c * sums[mono][0] for mono, c in poly.items())
            sb = sum(c * sums[mono][1] for mono, c in poly.items())
            scale = Fraction(1 + (-1) ** ell, den * 2**ell)
            row.append(QuadElem(tag, sa * scale, sb * scale))
        rows.append(tuple(row))
    labels = tuple(f"H{idx}" for idx in range(len(basis)))
    return ThetaTable(label, ell, shells, "full", labels, tuple(rows))


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
        return _invariant_tables(label, (ell,), shells, budget)[ell]
    if kind == "full":
        return _full_table(label, ell, shells, budget)
    raise ValueError(f"unknown table kind {kind!r}")


# theta ranks by (label, ell, shells), filled by theta_ranks
_RANKS: dict = {}


def theta_ranks(label: str, ells, shells: int, budget: Budget | None = None) -> dict:
    """{ell: exact rank of the theta table}, the ranks not yet known from one
    batch of tables.  A rank is a lower bound for dim Theta(G, ell), and 0
    whenever Harm_ell^G = 0 (in particular for ell in T(G)).  The budget
    checks all run first, on every call, so a smaller budget still refuses a
    rank that a larger one computed."""
    budget = budget or get_budget()
    for ell in ells:
        budget.check_theta(label, ell)
    budget.check_shell(label, shells)
    budget.check_enum_points(label, ball_size(label, shells))
    missing = [ell for ell in dict.fromkeys(ells) if (label, ell, shells) not in _RANKS]
    if missing:
        for ell, table in _invariant_tables(label, missing, shells, budget).items():
            _RANKS[(label, ell, shells)] = table.rank()
    return {ell: _RANKS[(label, ell, shells)] for ell in ells}


# -- harmonic Molien series ----------------------------------------------------

@lru_cache(maxsize=None)
def _checked_det_classes(label: str) -> tuple:
    """(coefficients of det(I - u M_eps), count) per first-coordinate class.

    Each element is checked, on integer pairs, to satisfy A^2 - 2xA + 4I = 0
    with A = 2 M_eps and x = 2 eps_1.  That gives det(tI - A) = (t^2 - 2xt + 4)^2:
    every eps is a unit (UnitGroup refuses others), so |x| <= 2.  For |x| < 2
    the quadratic has no real root, so it is the minimal polynomial of the
    real matrix A and det(tI - A) is its square; for x = +-2 every eigenvalue
    of A is x and det(tI - A) = (t - x)^4, the same square.  Hence
    det(I - u M_eps) = (1 - 2 eps_1 u + u^2)^2 depends on eps only through
    eps_1, and each class takes (1, -2x, x^2 + 2, -2x, 1) on integer pairs.
    """
    pmul = PAIR_MUL[FIELD_TAG[label]]
    classes = Counter()
    for doubled in build_group(label).doubled:
        (xa, xb), rows = doubled[0], left_matrix_pairs(doubled)
        lin = (-2 * xa, -2 * xb)  # -2x
        for i, row in enumerate(rows):
            for k, col in enumerate(zip(*rows)):
                terms = [pmul(*p, *q) for p, q in zip(row, col)] + [pmul(*lin, *row[k])]
                if (sum(t[0] for t in terms) + 4 * (i == k), sum(t[1] for t in terms)) != (0, 0):
                    raise AssertionError("det(I - uM) != su2 factor squared")
        sa, sb = pmul(xa, xb, xa, xb)
        classes[((1, 0), lin, (sa + 2, sb), lin, (1, 0))] += 1
    return tuple(classes.items())


@lru_cache(maxsize=None)
def harmonic_molien(label: str, n: int) -> tuple[int, ...]:
    """Psi^H_G(u) = (1/|G|) sum_eps (1 - u^2)/det(I - u M_eps), to u^n.

    Molien's theorem on R^4 gives the invariants of every degree in the
    polynomial ring; Hom_l = Harm_l + r^2 Hom_(l-2) (Fischer decomposition)
    with r^2 fixed by G, hence the factor (1 - u^2).  The sum runs over
    first-coordinate classes, through the same class sum as the Molien
    series Psi_G.
    """
    classes = _checked_det_classes(label)
    return class_sum_series(FIELD_TAG[label], classes, len(build_group(label)), (1, 0, -1), n)


def harmonic_invariant_dim(label: str, ell: int) -> int:
    return harmonic_molien(label, ell)[ell]
