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

Coordinates are read from the Gram matrix G: iota<b_j, x> = sum_i c_i G_ij,
and G is positive definite, hence invertible, so c is unique.  G is
completed once per order, as LDL^T in reversed variable order
(`_completion`): that one completion gives the enumeration levels, and G^-1
(`_gram_inverse`) for the solve and the int16 radius.

Shell enumeration is exact Fincke-Pohst on those levels: budgets as
integers on one common scale, integer bounds from one integer square root
per node, no floating point anywhere.  One pass yields every shell up to a
bound, each already in lexicographic order.  The size of each shell is
counted by levels instead, with no point visited: what lies below a level
depends only on its budget and on the partial centers reduced modulo the
level steps, so each such state is counted once (`_count_ball`).

Every shell is symmetric under -1: it is -H_m reversed followed by H_m, for
the half-ball H whose first nonzero coordinate is positive.  A shell is
stored as one `bytes` block of fixed-width records, one per point of H_m:
`struct.pack("<nh", *coords)`, n little-endian int16 fields (8 bytes for 2T,
16 for 2O and 2I).  `struct` refuses a coordinate outside int16 rather than
wrapping it, and a ball whose radius would let a coordinate reach 2^15 is
refused before it is enumerated.  The cached balls hold these blocks and no
point tuple; a `Shell` decodes its block on demand, -H_m first.

The orbit decomposition applies the |G|/2 matrices of G/{+-1} to a point in
one big-integer pass (see `orbit_decompose`), refused when a 16-bit field
could wrap, and matches the images against the records of H_m, one per
pair {p, -p} of the shell.  Its representatives are the first point of each
orbit in shell order, so they depend on the shell order and the orbits
only, not on how the images are computed or matched.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import cached_property, lru_cache
from math import isqrt, lcm
from operator import mul, neg

from .budget import Budget, get_budget
from .exactnum import PAIR_MUL, RAT, SQRT2, GOLDEN, reduce
from .groups import ALPHA, BETA, I, J, OMEGA, ONE, ZETA, build_group
from .qseries import sigma
from .quat import flat, from_pairs, qmul_pairs

FIELD_TAG = {"2T": RAT, "2O": SQRT2, "2I": GOLDEN}
# one point of a shell: its coordinates as little-endian int16 fields
RECORD = {"2T": struct.Struct("<4h"), "2O": struct.Struct("<8h"), "2I": struct.Struct("<8h")}
# one embedded point x: the flat integer components (a_1, b_1, ..., a_4, b_4)
# of 2x, with 2x_i = a_i + b_i rho, as little-endian int16 fields
EMBEDDED = struct.Struct("<8h")


class IntegrityError(AssertionError):
    """Symbolically derived data disagrees with recorded reference data, or
    a shell does not fit its int16 records."""


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

# 2 b_j on integer pairs for the first four basis vectors b_j; for 2O and
# 2I the other four are rho b_j
_BASES = {
    "2T": (ONE[0], I[0], J[0], OMEGA[0]),  # 1, i, j, w
    "2O": (ONE[0], ALPHA[0], BETA[0], ((1, 0), (1, 0), (1, 0), (1, 0))),  # 1, a, b, ab
    "2I": (ONE[0], I[0], ZETA[0], ((1, -1), (0, 1), (0, 0), (1, 0))),  # 1, i, z, iz
}


def doubled_point(label: str, coords) -> tuple[int, ...]:
    """The flat integer components of 2x for x = sum_j coords_j b_j."""
    return tuple([sum(map(mul, coords, comp)) for comp in _doubled_basis(label)[1]])


@lru_cache(maxsize=None)
def _doubled_basis(label: str):
    """(pairs, comps) for the doubled basis 2*b_j: pairs[j] is 2*b_j on
    integer pairs and comps[k] the k-th flat component of every 2*b_j."""
    if label not in _BASES:
        raise ValueError(f"no maximal order attached to {label!r}")
    pairs = _BASES[label]
    if label != "2T":
        pmul = PAIR_MUL[FIELD_TAG[label]]
        pairs += tuple(tuple(pmul(a, b, 0, 1) for a, b in x) for x in pairs)
    return pairs, tuple(zip(*map(flat, pairs)))


@lru_cache(maxsize=None)
def _iota(label: str):
    """(L, gram): iota<2 b_j, y> = L_j . flat(y) for any quaternion y on
    integer pairs, iota being Q-linear (L_j reads the rational parts of each
    (2 b_j)_k times 1 and rho), and gram_ij = iota<b_i, b_j> = L_i . flat(2 b_j) / 4."""
    pmul, pairs = PAIR_MUL[FIELD_TAG[label]], _doubled_basis(label)[0]
    rows = tuple(tuple(pmul(*c, *unit)[0] for c in p for unit in ((1, 0), (0, 1)))
                 for p in pairs)
    return rows, tuple(tuple(Fraction(sum(map(mul, row, flat(q))), 4) for q in pairs)
                       for row in rows)


@lru_cache(maxsize=None)
def _gram_inverse(label: str):
    """(den, inv, rows): inv = den G^-1 with den least, and rows = inv . L.
    `_completion` gives PGP = U^T D U for the reversal P; U (PGP)^-1 =
    D^-1 U^-T is diag(1/d) on and above the diagonal, so (PGP)^-1 follows
    from its last row up, and G^-1 is it with rows and columns reversed."""
    forms = _iota(label)[0]
    d, u = _completion(label)
    n = len(d)
    inv = [[None] * n for _ in range(n)]
    for i in reversed(range(n)):
        for j in reversed(range(i, n)):  # inv[k][j] is known for k > i
            inv[i][j] = inv[j][i] = Fraction(i == j) / d[i] - sum(
                u[i][k] * inv[k][j] for k in range(i + 1, n))
    den = lcm(*(q.denominator for row in inv for q in row))
    inv = tuple(tuple(int(q * den) for q in reversed(row)) for row in reversed(inv))
    return den, inv, tuple(tuple(sum(map(mul, row, col)) for col in zip(*forms)) for row in inv)


def _solve(label: str, flat, half: int) -> tuple[int, ...] | None:
    """Integer c with x = sum_j c_j b_j, from the flat components of
    2*half*x; None when x is not in the order.  L . flat = 4 half G c, and
    G is invertible, so c = rows . flat / (4 half den) is unique."""
    den, _, rows = _gram_inverse(label)
    sums = [sum(map(mul, flat, row)) for row in rows]
    # redundant: when the rebuild below passes, every sum is 4 half den c_j
    if any(t % (4 * den * half) for t in sums):
        return None
    coords = tuple(t // (4 * den * half) for t in sums)
    # iota reads a projection of x; the coordinates must rebuild every component
    rebuilt = tuple(half * v for v in doubled_point(label, coords))
    return coords if rebuilt == tuple(flat) else None


# -- quadratic forms ---------------------------------------------------------

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
def quadratic_form(label: str) -> tuple[tuple[Fraction, ...], ...]:
    """The Gram matrix of Q_G (`_iota`'s, read off the doubled basis on
    integer pairs), checked against the published polynomial and, by its one
    completion, for definiteness."""
    gram = _iota(label)[1]
    signs = _PUBLISHED_SUBSTITUTION[label]
    derived = {(i, j): (c if i == j else 2 * c) * signs[i] * signs[j]
               for i, row in enumerate(gram) for j, c in enumerate(row) if j >= i and c}
    published = {k: Fraction(v) for k, v in _PUBLISHED_FORMS[label].items()}
    if derived != published:
        raise IntegrityError(
            f"Q_{label}: derived form does not match the published polynomial"
        )
    _completion(label)
    return gram


# -- exact Fincke-Pohst enumeration ------------------------------------------

def _ldl_completion(gram):
    """Rational coefficients for Q(x) = sum_i d_i (x_i + sum_{j>i} u_ij x_j)^2.

    Row i of the Gram matrix, reduced against the rows before it on the
    shared echelon, is d_i u_i with u_ii = 1, and u_i is stored as echelon
    row i; raises ValueError at the first pivot d_i that is not positive.
    The result is (d, u) with u as an n x n table, zero on and below the
    diagonal.
    """
    n = len(gram)
    d, echelon = [], {}
    for i, row in enumerate(gram):
        cur = reduce({j: Fraction(x) for j, x in enumerate(row)}, echelon)
        if cur.get(i, 0) <= 0:
            raise ValueError("form is not positive definite")
        d.append(cur[i])
        echelon[i] = {j: v / cur[i] for j, v in cur.items()}
    u = [[echelon[i].get(j, Fraction(0)) if j > i else Fraction(0) for j in range(n)]
         for i in range(n)]
    return d, u


@lru_cache(maxsize=None)
def _completion(label: str):
    """`_ldl_completion` of G in reversed variable order, the one completion
    of each order: it serves the levels, the solve and the int16 radius.  G
    is a Gram matrix, so it is positive definite exactly when the basis is
    independent, and a pivot that is not positive refuses the basis."""
    gram = _iota(label)[1]
    try:
        return _ldl_completion([row[::-1] for row in gram[::-1]])
    except ValueError:
        raise IntegrityError(f"order basis of {label} is linearly dependent") from None


@lru_cache(maxsize=None)
def _int16_radius(label: str) -> Fraction:
    """The least ball radius at which a coordinate may leave int16.

    Over Q_G <= b, x_i reaches sqrt(b (G^-1)_ii); so every coordinate lies
    in [-(2^15 - 1), 2^15 - 1] while b < 2^30 / max_i (G^-1)_ii.
    """
    den, inv, _ = _gram_inverse(label)
    return Fraction(2**30 * den, max(inv[i][i] for i in range(len(inv))))


def _enum_levels(label: str):
    """(n, rho, centers, weight, scale): the Fincke-Pohst recursion on one
    integer scale.

    The squares are completed in reversed variable order, so that level i
    fixes coordinate n-1-i and x_0 is the outermost level:
    Q = sum_i (d_i / rho_i^2) k_i^2 with k_i = rho_i x_(n-1-i) + c_i an
    integer, where c_i is the dot product of centers[i] with the coordinates,
    by coordinate index (zero at level i and inside it).  scale is the least
    D that makes every weight w_i = D d_i / rho_i^2 an integer, so that
    D Q = sum_i w_i k_i^2 is a sum of integers (D = 12 for all three forms).
    """
    n = len(quadratic_form(label))  # the published form is checked before any ball
    d, u = _completion(label)
    rho = [lcm(*(u[i][j].denominator for j in range(i + 1, n))) for i in range(n)]
    centers = [[int(u[i][n - 1 - k] * rho[i]) if n - 1 - k > i else 0 for k in range(n)]
               for i in range(n)]
    ratio = [d[i] / (rho[i] * rho[i]) for i in range(n)]
    scale = lcm(*(q.denominator for q in ratio))
    return n, rho, centers, [int(q * scale) for q in ratio], scale


def _enumerate_ball(label: str, bound: int) -> dict[int, bytes]:
    """The half-ball H of all integer vectors with 0 < Q_G <= bound and first
    nonzero coordinate positive, bucketed by value, each bucket H_m one block
    of `RECORD[label]` records in lexicographic order.

    With x_0 outermost, x_0 >= 0 and every level rising, the recursion meets
    H in lexicographic order.  The shell is -H_m reversed followed by H_m
    (`Shell.__iter__`), so H_m is all that is stored.

    Budgets are integers on the scale of `_enum_levels`: a level gets
    t = D (bound - Q of the levels outside it).  A node takes one integer
    square root: w k^2 <= t iff k^2 <= t // w, as k^2 is an integer, so with
    s = isqrt(t // w) the range is exactly -s <= k <= s, every x_i in
    [lo, hi] meets the budget, and the next level gets t - w k^2.  A leaf
    is left t = D (bound - Q) with Q an integer, so Q = bound - t // D.  The
    last coordinate runs inside the loop of the one before it, whose center
    moves by a fixed step per value.
    """
    if bound >= _int16_radius(label):
        raise IntegrityError(
            f"the {label} ball of radius {bound} reaches coordinates outside int16")
    n, rho, centers, weight, scale = _enum_levels(label)
    half = {m: bytearray() for m in range(1, bound + 1)}
    # a record is the n-1 leading fields, packed once per level-1 value, then x_(n-1)
    lead, last_field = struct.Struct(f"<{n - 1}h").pack, struct.Struct("<h").pack
    x = [0] * n
    r0, w0, step0 = rho[0], weight[0], centers[0][n - 2]

    def descend(level: int, t: int, leading_zero: bool):
        # the levels inside this one have reset their coordinates to 0
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
        # level 1 fixes x_(n-2); the center of level 0 is base0 + step0 x_(n-2)
        center0 = sum(map(mul, centers[0], x)) + step0 * lo
        for xi in range(lo, hi + 1):
            k = xi * r + center
            t1 = t - w * k * k
            s0 = isqrt(t1 // w0)
            hi0 = (s0 - center0) // r0
            lo0 = 1 if leading_zero and xi == 0 else -((s0 + center0) // r0)
            # the last coordinate: record the points, x = 0 excluded
            head = lead(*x[:coord], xi)
            for y in range(lo0, hi0 + 1):
                k = y * r0 + center0
                half[bound - (t1 - w0 * k * k) // scale] += head + last_field(y)
            center0 += step0

    descend(n - 1, bound * scale, True)
    # popped, so each bucket is freed once copied
    return {m: bytes(half.pop(m)) for m in range(1, bound + 1)}


def _count_ball(label: str, bound: int) -> dict[int, int]:
    """{m: |O_{G,m}|} for m = 1..bound: the whole ball, p and -p, counted by
    levels on the integer scale of `_enum_levels`, with no point visited.

    Level j fixes x_(n-1-j), with k_j = rho_j x_(n-1-j) + c_j, where the
    partial center c_j collects what the coordinates outside level j add.
    So the points below level j, at budget t, depend on t and on the vector
    c = (c_j, .., c_0) alone.  Moving x_(n-1-i) by one, i <= j, maps them
    one to one onto those of c + v_i, with k unchanged, for
    v_i = rho_i e_i + sum_(l<i) centers[l][n-1-i] e_l.  The v_i are
    triangular with rho_i > 0, so c reduces top-down to one representative
    with 0 <= c_i < rho_i: for i = j .. 0, q = c_i // rho_i and c -= q v_i.
    What lies below a level is therefore a function of (j, t, reduced c),
    memoized on the mixed-radix key with digits (t, c_j, .., c_0) and radices
    (rho_j, .., rho_0), which takes at most (D bound + 1) prod_(i<=j) rho_i
    values; a digit outside its range would alias another state.

    A level returns the histogram of the budget left at its leaves,
    sum 2^(width * left) over its points: left is the same number at every
    level, so a level sums its children's histograms, and a leaf adds
    2^(width (t - w k^2)).  Level l takes at most 2 s_l + 1 values with
    s_l = isqrt(D bound // w_l), so no count reaches 2^width.  At the top,
    t = D bound and a point of Q = m is left D (bound - m); the origin, left
    D bound, is dropped.
    """
    n, rho, centers, weight, scale = _enum_levels(label)
    top = scale * bound
    width = sum((2 * isqrt(top // w) + 1).bit_length() for w in weight)
    # step[j][l]: the move of c_l when x_(n-1-j), fixed at level j, grows by one
    step = [[centers[l][n - 1 - j] for l in range(j)] for j in range(n)]
    memo = [{} for _ in range(n)]

    def reduced(c: list, level: int) -> list:
        for i in range(level, -1, -1):
            q, c[i] = divmod(c[i], rho[i])
            for l, a in enumerate(step[i]):  # c - q v_i
                c[l] -= q * a
        return c

    def below(level: int, t: int, c: list) -> int:
        key = t
        for i in range(level, -1, -1):
            key = key * rho[i] + c[i]
        hist = memo[level].get(key)
        if hist is not None:
            return hist
        r, w, center = rho[level], weight[level], c[level]
        s = isqrt(t // w)
        hist = 0
        for x in range(-((s + center) // r), (s - center) // r + 1):
            k = r * x + center
            if level:
                inner = reduced([cl + x * a for cl, a in zip(c, step[level])], level - 1)
                hist += below(level - 1, t - w * k * k, inner)
            else:
                hist += 1 << width * (t - w * k * k)
        memo[level][key] = hist
        return hist

    hist, mask = below(n - 1, top, [0] * n), (1 << width) - 1
    return {m: hist >> width * scale * (bound - m) & mask for m in range(1, bound + 1)}


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


class Shell:
    """O_{G,m} = -H_m u H_m, stored as the block of its half H_m: one
    `RECORD[group_label]` record per point of H_m (8 bytes for 2T, 16 for 2O
    and 2I), in lexicographic order.

    Iterating a shell decodes the block one point at a time: -H_m reversed,
    then H_m, which is the whole shell in lexicographic order; no decoded
    point is kept.  The orbit representatives, a few per hundred points, are
    kept once decomposed.
    `len` counts the points of the shell, 2 |H_m|.
    """

    def __init__(self, group_label: str, m: int, records: bytes):
        self.group_label, self.m, self.records = group_label, m, records

    def __len__(self):
        return 2 * len(self.records) // RECORD[self.group_label].size

    @property
    def half(self) -> tuple[tuple[int, ...], ...]:
        """H_m: the points whose first nonzero coordinate is positive."""
        return tuple(RECORD[self.group_label].iter_unpack(self.records))

    def __iter__(self):
        record, block = RECORD[self.group_label], self.records
        for end in range(len(block), 0, -record.size):
            yield tuple(map(neg, record.unpack_from(block, end - record.size)))
        yield from record.iter_unpack(block)

    def embedded(self) -> bytes:
        """x = sum_j c_j b_j for every point c, in the order of iteration:
        one `EMBEDDED` record of `doubled_point` per point.  A component of
        2x grows like sqrt(m), as a coordinate does; `struct` refuses one
        outside int16 rather than wrapping it."""
        label, block = self.group_label, bytearray()
        for c in self:
            block += EMBEDDED.pack(*doubled_point(label, c))
        return bytes(block)

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
    """{m: |O_{G,m}|} for m = 1..bound, counted by levels (`_count_ball`).

    The budget checks are those of `enumerate_shells(label, bound)`, in the
    same order; no point is stored and the ball cache is left untouched.
    """
    budget = _shell_budget(label, bound, budget)
    budget.check_enum_points(label, ball_size(label, bound))
    return _count_ball(label, bound)


# -- group action on shells ---------------------------------------------------

@lru_cache(maxsize=None)
def right_multiplication_matrices(label: str) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Integer matrices R_eps with coords(x * eps) = coords(x) . R_eps.

    Row i is solved from (2 b_i)(2 eps) = 4 b_i eps on integer pairs.
    """
    tag, basis = FIELD_TAG[label], _doubled_basis(label)[0]
    mats = []
    for doubled in build_group(label).doubled:
        products = [qmul_pairs(tag, pair, doubled) for pair in basis]
        rows = tuple(_solve(label, flat(x), 2) for x in products)
        if None in rows:
            product = from_pairs(tag, 4, products[rows.index(None)])
            raise ValueError(f"{product!r} is not in the order O_{label}")
        mats.append(rows)
    return tuple(mats)


def orbit_decompose(shell: Shell) -> list[tuple[int, ...]]:
    """Representatives S_m with shell = disjoint union of x G (exact check).

    The representative of an orbit is its first point in shell order.  -1
    lies in G, so every orbit is a union of pairs {p, -p} and meets -H_m,
    which comes first in the shell: the sweep visits H_m in reverse, which
    is -H_m in shell order negated, and takes the negation of each record
    not yet in an orbit.  The records not yet in an orbit are one set, and
    each pair of the shell is there as its one record in H_m.

    The |G|/2 matrices R_k of G/{+-1} are stacked into one integer per
    coordinate, row_i = sum_k sum_j R_k[i][j] 2^(16(nk+j)), so that the
    16-bit fields of V = sum_i p_i row_i are the coordinates of every p R_k,
    and those of -V the other |G|/2 images.  A field cannot spill into the
    next one while |(p R_k)_j| <= max_i |p_i| * sum_i |R_k[i][j]| < 2^15,
    which is checked before V is packed.  The action is free on the orbit
    iff its |G| images are distinct; they are then |G|/2 pairs, each with
    one record in H, and the orbit lies in the shell iff exactly |G|/2 of
    the images are records not yet in an orbit (orbits are disjoint).
    """
    # -1 lies in G and R_(-eps) = -R_eps, so one matrix of each pair
    # {R, -R} is stacked and the other image is read from -V
    mats = right_multiplication_matrices(shell.group_label)
    order, unpaired, actions = len(mats), set(mats), []
    for mat in mats:
        if mat in unpaired:
            unpaired.discard(mat)
            partner = tuple(tuple(map(neg, row)) for row in mat)
            if partner not in unpaired:
                raise IntegrityError("group action on the shell is not free")
            unpaired.discard(partner)
            actions.append(mat)
    record = RECORD[shell.group_label]
    size, n, fields = record.size, len(mats[0]), len(mats[0]) * len(actions)
    rows = [sum(mat[i][j] << 16 * (n * k + j) for k, mat in enumerate(actions)
                for j in range(n)) for i in range(n)]
    column = max(sum(abs(row[j]) for row in mat) for mat in actions for j in range(n))
    # 2^15 in every field: V + bias is V in offset binary, without carries,
    # and the xor turns offset binary into two's complement
    bias = int.from_bytes(b"\x00\x80" * fields, "little")
    half = shell.records
    remaining = {half[i:i + size] for i in range(0, len(half), size)}
    reps = []
    for start in range(len(half) - size, -1, -size):
        key = half[start:start + size]
        if key not in remaining:
            continue
        p = tuple(map(neg, record.unpack(key)))
        if max(map(abs, p)) * column >= 1 << 15:
            raise IntegrityError(
                f"the images of {p} under {shell.group_label} do not fit int16 fields")
        v = sum(map(mul, p, rows))
        images = ((v + bias) ^ bias).to_bytes(2 * fields, "little") \
            + ((bias - v) ^ bias).to_bytes(2 * fields, "little")
        orbit = {images[i:i + size] for i in range(0, len(images), size)}
        if len(orbit) != order:
            raise IntegrityError("group action on the shell is not free")
        orbit &= remaining
        if 2 * len(orbit) != order:
            raise IntegrityError("shell is not stable under the group action")
        remaining -= orbit
        reps.append(p)
        if not remaining:  # every later record is a point of an orbit
            break
    if len(reps) * order != len(shell):
        raise IntegrityError("orbit decomposition does not partition the shell")
    return reps
