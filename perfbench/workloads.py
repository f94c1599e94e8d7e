"""The benchmark's workloads: finite menus of `quatdesign` CLI calls and
seeded draws from them.

Every operation is one fresh CLI process, because that is what a user pays
per call; repeating calls inside one process would only measure the
program's lru_caches and its ball cache.

Each workload is a tuple of slots.  A slot lists calls of similar cost; a
pass draws one call from every slot with the seed.  Drawing per slot keeps
the work in a pass, and so every timing, nearly independent of the seed,
while the passes of many seeds still cover every slot's calls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from shim import SPANS

# The verify-paper checks run by the verify-desk workload.  harmonic-molien
# (48 s alone on 2 cores) and the informational dimension-hypotheses (21 s)
# are left out: the full matrix takes 95 s, too long to run once per seed
# for dozens of seeds.  What remains is still one process that runs ten
# checks through the verification thread pool.
VERIFY_CHECKS = (
    "groups", "strength-molien", "strength-direct", "dihedral-cyclic",
    "lp-certificates", "equality-cases", "shell-counts", "order-units",
    "theta-vanishing", "theta-generators",
)

EMIT = "{emit}"  # placeholder for the per-run --emit file


@dataclass(frozen=True)
class Op:
    kind: str            # "verify", "count", "emit" or "query"
    argv: tuple          # CLI arguments; EMIT stands for the emit file
    points: int = 0      # lattice points the call must produce (shells only)

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    def cli_args(self, emit_path: str) -> list:
        return [emit_path if a == EMIT else a for a in self.argv]


# -- independent shell counts --------------------------------------------------

def _divisors(m: int):
    return [d for d in range(1, m + 1) if m % d == 0]


def shell_size(label: str, m: int) -> int:
    """|O_{G,m}| from divisor sums, written here without the program's code:
    24 * (sum of odd divisors) for the Hurwitz order, 48 (s3(m) + 4 s3(m/2))
    for the 2O order and 240 s3(m) for the icosians."""
    if label == "2T":
        return 24 * sum(d for d in _divisors(m) if d % 2)
    s3 = sum(d ** 3 for d in _divisors(m))
    if label == "2O":
        half = sum(d ** 3 for d in _divisors(m // 2)) if m % 2 == 0 else 0
        return 48 * (s3 + 4 * half)
    return 240 * s3


# -- workloads -----------------------------------------------------------------
#
# Costs quoted below are single cold calls on the 2-core machine the slots
# were sized on; each slot holds calls whose costs are alike, so that the
# seed changes which calls run but hardly how much work a pass is.

def count_op(label: str, m: int) -> Op:
    return Op("count", ("shells", "--group", label, "--m", str(m),
                        "--count-only", "--format", "json"),
              sum(shell_size(label, k) for k in range(1, m + 1)))


def emit_op(label: str, m: int) -> Op:
    return Op("emit", ("shells", "--group", label, "--m", str(m), "--emit", EMIT),
              shell_size(label, m))


def _q(*argv) -> Op:
    return Op("query", tuple(argv))


def _theta(label, ells, shells, kind="invariant"):
    extra = ("--kind", "full") if kind == "full" else ()
    return [_q("theta", "--group", label, "--ell", str(ell), "--shells", str(m),
               *extra, "--report", "json") for ell in ells for m in shells]


QSERIES = [_q("qseries", "--name", name, "--terms", str(terms), "--format", "json")
           for name in ("E2", "E4", "Delta", "E4Delta", "DeltaPlus64Delta2",
                        "Theta2T1", "Theta2O1", "Theta2I1")
           for terms in (8, 16, 32)]
GEGENBAUER = [_q("gegenbauer", "--ell", str(ell), "--d", "4", "--format", "json")
              for ell in range(0, 25, 2)]
GROUP = [_q("group", "--name", name, "--format", "json")
         for name in ("Q8", "2T", "C6", "C8", "C10", "D2n3", "D2n4", "D2n5")]


def _molien(label, *closed_form):
    return _q("molien", "--group", label, "--max", "60", *closed_form, "--format", "json")


def _lp(name):
    return _q("lp", "--name", name, "--report", "json")


def _strength(label):
    return [_q("strength", "--group", label, "--max", str(mx), "--format", "json")
            for mx in (20, 40, 60)]


# molien and lp calls grouped by cost: 0.13-0.14 s, as cheap as the start-up
# bound calls above; 0.15-0.16 s; and 2O molien without the closed form, 0.19 s
CHEAP = GROUP + [_molien("2T", "--closed-form"), _molien("2O", "--closed-form"),
                 _lp("F2T")]
MID = [_molien("2T"), _lp("F2O"), _lp("F2I")]


# The run times every call of a pass several times.  Slot counts are chosen
# so that, at the usual three or four repeats, the median call falls inside
# the 0.15-0.16 s block and the eleventh-slowest call (op_tail_s) inside the
# 0.38-0.52 s block; were either on the edge between two blocks, it would
# jump between them from seed to seed.
QUERY_SLOTS = (
    # nine calls of 0.12-0.14 s that are mostly interpreter start and import
    QSERIES, QSERIES, QSERIES, GEGENBAUER, GEGENBAUER, GEGENBAUER,
    CHEAP, CHEAP, CHEAP,
    # 0.15-0.16 s: op_p50_s
    MID, MID, MID, MID,
    # 0.18-0.19 s
    _strength("2T") + [_molien("2O")],
    # full harmonic-basis tables, 0.21-0.28 s
    _theta("2T", (2, 4), range(1, 5), kind="full"),
    # 0.27-0.36 s
    _theta("2T", (6, 8), range(2, 7)),
    _theta("2T", (6, 8), range(2, 7)),
    # 0.38-0.52 s: op_tail_s
    _strength("2O"),
    _theta("2O", (4, 6, 10), range(2, 6)),
    _theta("2O", (4, 6, 10), range(2, 6)),
    # a lone icosahedral table, 0.8-1.0 s
    _theta("2I", (6, 8), range(2, 7)),
)

# Ten small count-only calls (one-off shell queries) and five large calls.
# At three repeats the median call is a small count and the eleventh-slowest
# a 2T m<=60 count, both bound by computation; the emits write files, whose
# time on a shared disk varies too much to carry a percentile.  2O m<=11
# (109 MB) sets peak_rss_mb.
SHELL_SLOTS = (
    # 0.15 s each, mostly start-up; the median call is one of these, so m
    # stays where the cost hardly moves (2T m=10 or 2I m=1 is 0.11 s,
    # 2T m=20 or 2I m=4 0.19 s), else the seed would move op_p50_s
    [count_op("2T", m) for m in range(12, 17)],
    [count_op("2T", m) for m in range(12, 17)],
    [count_op("2T", m) for m in range(12, 17)],
    [count_op("2T", m) for m in range(12, 17)],
    [count_op("2O", m) for m in range(1, 5)],
    [count_op("2O", m) for m in range(1, 5)],
    [count_op("2O", m) for m in range(1, 5)],
    [count_op("2I", m) for m in range(2, 4)],
    [count_op("2I", m) for m in range(2, 4)],
    [count_op("2I", m) for m in range(2, 4)],
    [count_op("2T", 60)],                                       # 0.8-1.0 s
    [count_op("2T", 60)],
    [emit_op("2O", 3)],                                         # 0.6-0.8 s
    [emit_op("2I", 2)],                                         # 0.9-1.2 s
    [count_op("2O", 11)],                                       # 1.6-2.1 s, 109 MB
)

VERIFY_OP = Op("verify", ("verify-paper", "--budget", "desk", "--format", "json",
                          *(a for c in VERIFY_CHECKS for a in ("--check", c))))


@dataclass(frozen=True)
class Workload:
    name: str
    slots: tuple
    pass_seconds: float          # nominal length of one pass
    expected_spans: tuple        # spans the traced pass must record
    probe_during: bool = False   # also probe while each call runs (one long call)

    def repeats(self, seconds: float) -> int:
        """Passes in a run: a fixed number for a given --seconds, so that
        two commits compared at one --seconds make the same calls."""
        return max(1, round(seconds / self.pass_seconds))

    def draw_pass(self, rng: random.Random) -> list:
        ops = [rng.choice(slot) for slot in self.slots]
        rng.shuffle(ops)
        return ops


_THETA_SPANS = ("theta.harmonic_molien", "theta.invariant_multiplicity",
                "theta.holomorphic_invariants", "theta.theta_table",
                "theta.ThetaTable.rank", "harmonics.harm_basis",
                "orders.enumerate_shell", "orders.orbit_decompose",
                "groups.build_group")
_STRENGTH_SPANS = ("strength.molien_series", "strength.pair_sum_test",
                   "strength.harmonic_strength", "lpbound.verify_certificate")

WORKLOADS = {w.name: w for w in (
    Workload("verify-desk", ((VERIFY_OP,),), 60.0,
             tuple(f"verify.{c}" for c in VERIFY_CHECKS) + _THETA_SPANS
             + _STRENGTH_SPANS + ("orders.Shell.embedded", "groups.UnitGroup.is_closed"),
             probe_during=True),
    Workload("shells", SHELL_SLOTS, 5.0,
             ("orders.enumerate_shell", "orders.Shell.embedded")),
    Workload("queries", QUERY_SLOTS, 3.75, _THETA_SPANS + _STRENGTH_SPANS),
)}


def full_menu() -> list:
    """Every call any seed can draw, except verify-paper, whose output holds
    timings; expected.json has a digest for each."""
    return sorted({op for w in WORKLOADS.values() for slot in w.slots for op in slot
                   if op.kind != "verify"}, key=lambda o: o.key)


SPAN_NAMES = tuple(f"verify.{c}" for c in VERIFY_CHECKS) + tuple(s[2] for s in SPANS)
COUNT_NAMES = tuple(s[3][0] for s in SPANS if s[3] is not None)
CACHED_SPANS = ("theta.harmonic_molien", "theta.invariant_multiplicity",
                "theta.holomorphic_invariants", "harmonics.harm_basis",
                "groups.build_group")
