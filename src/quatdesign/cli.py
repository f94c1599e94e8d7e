"""Command-line front end: `quatdesign <subcommand>`.

Every run is deterministic for a fixed configuration: all arithmetic is
exact and all orderings canonical.  Exit codes: 0 success, 1 failed checks,
2 usage error (argparse, or --format csv where a subcommand has no csv
output), 3 budget exceeded, 4 bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .budget import Budget, ResourceBudgetError, get_budget
from .gegenbauer import gegenbauer, gegenbauer_expand, scaled_q
from .groups import UnsupportedAngle, build_group
from .lpbound import (
    angle_certificate,
    build_test_function,
    full_set_lower_bound,
    lp_lower_bound,
    verify_certificate,
)
from .orders import enumerate_shell, shell_count_formula
from .qseries import QSERIES_NAMES, qseries
from .quat import Quaternion
from .strength import harmonic_strength, molien_closed_form, molien_series
from .theta import harmonic_invariant_dim, theta_table
from .verify import ALL_CHECKS, run_all

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_BAD_INPUT = 4


def _frac(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _emit(payload, fmt: str, text_renderer=None, csv_renderer=None):
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif fmt == "csv":
        if csv_renderer is None:
            print("error: csv output is not defined for this subcommand",
                  file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
        for row in csv_renderer(payload):
            print(",".join(str(c) for c in row))
    else:
        if text_renderer is None:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for line in text_renderer(payload):
                print(line)


def _load_points(path: str) -> list[Quaternion]:
    """Accepts {"points": [...]}, {"elements": [...]} (group output), or a list."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        if isinstance(data, dict):
            pts = data.get("points", data.get("elements"))
        else:
            pts = data
        return [Quaternion.from_json(p) for p in pts]
    except (OSError, KeyError, ValueError, TypeError) as exc:
        raise ValueError(f"cannot read point file {path!r}: {exc}") from exc


def cmd_group(args, budget: Budget) -> int:
    g = build_group(args.name)
    payload = g.to_json()
    _emit(
        payload, args.format,
        text_renderer=lambda p: [f"{p['label']}: {p['order']} elements"] + [
            "  " + " ".join(_qe_str(c) for c in e) for e in p["elements"]
        ],
    )
    return EXIT_OK


def _qe_str(cjson) -> str:
    if cjson["b"] == "0":
        return cjson["a"]
    rho = {"SQRT2": "sqrt2", "GOLDEN": "tau"}[cjson["tag"]]
    return f"{cjson['a']}+{cjson['b']}{rho}"


def cmd_strength(args, budget: Budget) -> int:
    if args.points:
        report = harmonic_strength(_load_points(args.points), args.max)
    else:
        report = harmonic_strength(build_group(args.group), args.max)
    payload = report.to_json()
    _emit(
        payload, args.format,
        text_renderer=lambda p: [
            f"group: {p['label']}  (degrees up to {p['max_degree']})",
            f"even members of T(X): {p['even_members']}",
            "all odd degrees in T(X)"
            if p["all_odd_in"]
            else f"odd members: {p['odd_members']} (set is not antipodal)",
        ],
    )
    return EXIT_OK


def cmd_molien(args, budget: Budget) -> int:
    if args.closed_form:
        series = molien_closed_form(args.group, args.max)
    else:
        series = molien_series(build_group(args.group), args.max)
    coeffs = [str(c) for c in series]
    payload = {"group": args.group, "coefficients": coeffs, "closed_form": args.closed_form}
    _emit(
        payload, args.format,
        text_renderer=lambda p: [f"Molien series of {p['group']}:"] + [
            f"  u^{k}: {c}" for k, c in enumerate(p["coefficients"]) if c != "0"
        ],
        csv_renderer=lambda p: [("degree", "coefficient")] + [
            (k, c) for k, c in enumerate(p["coefficients"])
        ],
    )
    return EXIT_OK


def cmd_gegenbauer(args, budget: Budget) -> int:
    if args.expand:
        from .unipoly import UniPoly

        coeffs = [Fraction(c) for c in args.expand.split(",")]
        expansion = gegenbauer_expand(UniPoly(coeffs), args.d)
        payload = {
            "input": [_frac(c) for c in coeffs],
            "d": args.d,
            "expansion": {str(k): _frac(f) for k, f in enumerate(expansion) if f},
        }
        _emit(payload, args.format)
        return EXIT_OK
    if args.lam is not None:
        poly = gegenbauer(args.ell, Fraction(args.lam))
        name = f"C_{args.ell}^{args.lam}"
    else:
        poly = scaled_q(args.ell, args.d)
        name = f"Q_{args.ell}^({args.d})"
    payload = {
        "polynomial": name,
        "coefficients": [_frac(c) for c in poly.rational_coeffs()],
    }
    _emit(
        payload, args.format,
        text_renderer=lambda p: [f"{p['polynomial']}(s) coefficients (low degree first):"]
        + ["  " + " ".join(p["coefficients"])],
        csv_renderer=lambda p: [("degree", "coefficient")] + [
            (k, c) for k, c in enumerate(p["coefficients"])
        ],
    )
    return EXIT_OK


def cmd_lp(args, budget: Budget) -> int:
    tf = build_test_function(args.name)
    report = verify_certificate(tf)
    payload = {
        "name": tf.name,
        "degree": int(tf.expanded.degree),
        "design_set": list(tf.design_set),
        "gegenbauer_coefficients": {
            str(k): _frac(v) for k, v in sorted(tf.coefficients.items())
        },
        "certificate": {
            "passed": report.passed,
            "negative_allowed": list(report.negative_allowed),
            "messages": list(report.messages),
        },
        "half_set_bound": _frac(lp_lower_bound(tf)) if report.passed else None,
        "full_set_bound": _frac(full_set_lower_bound(tf)) if report.passed else None,
        "angle_set": sorted(str(s) for s in angle_certificate(tf))
        if report.passed
        else None,
    }
    _emit(
        payload, args.format,
        text_renderer=lambda p: [
            f"{p['name']}: certificate {'PASS' if p['certificate']['passed'] else 'FAIL'}",
            f"design set {p['design_set']}",
            f"half-set bound {p['half_set_bound']}, full bound {p['full_set_bound']}",
            f"angle set {p['angle_set']}",
        ],
    )
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_shells(args, budget: Budget) -> int:
    label = args.group
    if args.count_only:
        counts = {}
        for m in range(1, args.m + 1):
            counts[m] = {
                "formula": shell_count_formula(label, m),
                "enumerated": len(enumerate_shell(label, m, budget)),
            }
        payload = {"group": label, "counts": counts}
        _emit(
            payload, args.format,
            text_renderer=lambda p: [f"shells of O_{p['group']}:"] + [
                f"  m={m}: {v['enumerated']} points (formula {v['formula']})"
                for m, v in p["counts"].items()
            ],
            csv_renderer=lambda p: [("m", "enumerated", "formula")] + [
                (m, v["enumerated"], v["formula"]) for m, v in p["counts"].items()
            ],
        )
        return EXIT_OK
    shell = enumerate_shell(label, args.m, budget)
    payload = {
        "group": label,
        "m": args.m,
        "size": len(shell),
        "points": [
            {"coords": list(c), "quaternion": q.to_json()}
            for c, q in zip(shell.points, shell.embedded())
        ],
    }
    if args.emit:
        with open(args.emit, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
        print(f"wrote {len(shell)} points to {args.emit}")
        return EXIT_OK
    _emit(payload, args.format,
          text_renderer=lambda p: [f"O_({p['group']},{p['m']}): {p['size']} points"] + [
              "  " + " ".join(str(x) for x in pt["coords"]) for pt in p["points"]
          ])
    return EXIT_OK


def cmd_theta(args, budget: Budget) -> int:
    table = theta_table(args.group, args.ell, args.shells, args.kind, budget)
    rank = table.rank()
    payload = {
        "group": args.group,
        "ell": args.ell,
        "shells": args.shells,
        "kind": table.kind,
        "rank": rank,
        "invariant_dimension_bound": harmonic_invariant_dim(args.group, args.ell),
        "columns": list(table.column_labels),
        "matrix": [[e.to_json() for e in row] for row in table.matrix],
    }
    if rank == 1:
        payload["generator"] = [_frac(c) for c in table.normalized_generator()]
    _emit(
        payload, args.format,
        text_renderer=lambda p: [
            f"Theta({p['group']}, {p['ell']}) at {p['shells']} shells: "
            f"rank {p['rank']} (<= {p['invariant_dimension_bound']})",
        ] + (
            [f"generator coefficients: {' '.join(p['generator'])}"]
            if p.get("generator")
            else []
        ),
    )
    return EXIT_OK


def cmd_qseries(args, budget: Budget) -> int:
    coeffs = qseries(args.name, args.terms)
    payload = {"name": args.name, "coefficients": coeffs}
    _emit(
        payload, args.format,
        text_renderer=lambda p: [f"{p['name']}: {p['coefficients']}"],
        csv_renderer=lambda p: [("m", "coefficient")] + list(enumerate(p["coefficients"])),
    )
    return EXIT_OK


def cmd_verify_paper(args, budget: Budget) -> int:
    only = set(args.check) if args.check else None
    results = run_all(budget, only=only)
    if args.format == "json":
        payload = [
            {
                "id": r.check_id,
                "title": r.title,
                "passed": r.passed,
                "blocking": r.blocking,
                "details": r.details,
                "seconds": round(r.seconds, 2),
            }
            for r in results
        ]
        print(json.dumps(payload, indent=2))
    else:
        print("verification matrix:")
        for r in results:
            print("  " + r.line())
        failed = [r for r in results if r.blocking and not r.passed]
        print(
            f"{len(results) - len(failed)}/{len(results)} checks passed"
            + (f"; FAILED: {[r.check_id for r in failed]}" if failed else "")
        )
    return EXIT_OK if all(r.passed or not r.blocking for r in results) else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatdesign",
        description="exact computations for the exceptional quaternion groups on S^3",
    )
    parser.add_argument(
        "--budget", choices=("desk", "small", "unbounded"), default=None,
        help="resource budget (default: $QUATDESIGN_BUDGET or desk)",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("group", help="emit the element list of a unit group")
    p.add_argument("--name", required=True)
    _fmt(p)

    p = sub.add_parser("strength", help="harmonic strength report")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--group")
    src.add_argument("--points", help="JSON point file")
    p.add_argument("--max", type=_nonnegative_int, default=60)
    _fmt(p)

    p = sub.add_parser("molien", help="Molien series coefficients")
    p.add_argument("--group", required=True)
    p.add_argument("--max", type=_nonnegative_int, default=60)
    p.add_argument("--closed-form", action="store_true")
    _fmt(p)

    p = sub.add_parser("gegenbauer", help="exact Gegenbauer / scaled polynomials")
    p.add_argument("--ell", type=_nonnegative_int, required=True)
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--lam", help="rational lambda (default: use scaled Q_l^(d))")
    p.add_argument("--expand", help="comma-separated rational coefficients to expand")
    _fmt(p)

    p = sub.add_parser("lp", help="linear-programming certificate report")
    p.add_argument("--name", required=True, choices=("F2T", "F2O", "F2I"))
    _fmt(p, default="json", report_alias=True)

    p = sub.add_parser("shells", help="enumerate shells of a maximal order")
    p.add_argument("--group", required=True, choices=("2T", "2O", "2I"))
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--emit", help="write the point list to a JSON file")
    _fmt(p)

    p = sub.add_parser("theta", help="spherical theta coefficient table")
    p.add_argument("--group", required=True, choices=("2T", "2O", "2I"))
    p.add_argument("--ell", type=_nonnegative_int, required=True)
    p.add_argument("--shells", type=_positive_int, required=True)
    p.add_argument("--kind", choices=("invariant", "full"), default="invariant")
    _fmt(p, default="json", report_alias=True)

    p = sub.add_parser("qseries", help="exact q-expansions (Eisenstein, Delta, ...)")
    p.add_argument("--name", required=True, choices=QSERIES_NAMES)
    p.add_argument("--terms", type=_nonnegative_int, default=10)
    _fmt(p)

    p = sub.add_parser("verify-paper", help="run the full reproduction suite")
    p.add_argument("--check", action="append", metavar="ID",
                   help="run only the named check (repeatable); "
                        f"ids: {', '.join(cid for cid, _ in ALL_CHECKS)}")
    p.add_argument("--budget", dest="budget_local",
                   choices=("desk", "small", "unbounded"), default=None)
    _fmt(p)

    return parser


def _int_at_least(text: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _fmt(p, default="text", report_alias=False):
    names = ("--format", "--report") if report_alias else ("--format",)
    p.add_argument(*names, dest="format", choices=("json", "csv", "text"),
                   default=default)


_DISPATCH = {
    "group": cmd_group,
    "strength": cmd_strength,
    "molien": cmd_molien,
    "gegenbauer": cmd_gegenbauer,
    "lp": cmd_lp,
    "shells": cmd_shells,
    "theta": cmd_theta,
    "qseries": cmd_qseries,
    "verify-paper": cmd_verify_paper,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        budget_name = getattr(args, "budget_local", None) or args.budget
        return _DISPATCH[args.subcommand](args, get_budget(budget_name))
    except ResourceBudgetError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except UnsupportedAngle as exc:
        print(f"unsupported group: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except SystemExit:
        raise
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
