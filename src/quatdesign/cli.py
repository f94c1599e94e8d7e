"""Command-line front end: `quatdesign <subcommand>`.

Every run is deterministic for a fixed configuration: all arithmetic is
exact and all orderings canonical.  Exit codes: 0 success, 1 failed checks
(a FAIL or ERROR row, or an internal integrity check of any subcommand),
2 usage error (argparse, --format csv where a subcommand has no csv
output, shells --emit with --format csv or text, or gegenbauer with both or
neither of --ell and --expand), 3 budget exceeded
(for verify-paper: a SKIP row and no FAIL or ERROR row), 4 bad input.

Each subcommand imports the modules it runs in its own body, so that a call
loads only what it needs; the parser itself needs no module of the program
but `budget` and `qseries`.
"""

from __future__ import annotations

import argparse
import json
import sys

from .budget import Budget, ResourceBudgetError, get_budget
from .qseries import QSERIES_NAMES

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_BAD_INPUT = 4


def _csv_undefined():
    print("error: csv output is not defined for this subcommand", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _emit(payload, fmt: str, text_renderer=None, csv_renderer=None):
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif fmt == "csv":
        if csv_renderer is None:
            _csv_undefined()
        for row in csv_renderer(payload):
            print(",".join(str(c) for c in row))
    else:
        if text_renderer is None:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for line in text_renderer(payload):
                print(line)


def _load_points(path: str):
    """The Gram pass of a point file: {"points": [...]}, {"elements": [...]}
    (group output), or a list.  Only a file that cannot be read as points
    is refused as unreadable; mixed fields and a point off the unit sphere
    are refused as the point set's own faults."""
    from .exactnum import FieldTagMismatch
    from .groups import _gram
    from .quat import read_points

    try:
        with open(path) as fh:
            data = json.load(fh)
        if isinstance(data, dict):
            pts = data.get("points", data.get("elements"))
        else:
            pts = data
        frame = read_points(pts)
    except FieldTagMismatch:
        raise
    except (OSError, KeyError, ValueError, TypeError) as exc:
        raise ValueError(f"cannot read point file {path!r}: {exc}") from exc
    return _gram(*frame)


def cmd_group(args, budget: Budget) -> int:
    from .groups import build_group

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
    from .exactnum import RHO_NAME

    if cjson["b"] == "0":
        return cjson["a"]
    return f"{cjson['a']}+{cjson['b']}{RHO_NAME[cjson['tag']]}"


def cmd_strength(args, budget: Budget) -> int:
    from .groups import build_group
    from .strength import harmonic_strength

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
    from .groups import build_group
    from .strength import molien_closed_form, molien_series

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


def _rational(text: str):
    from fractions import Fraction

    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def cmd_gegenbauer(args, budget: Budget) -> int:
    from .exactnum import frac_str
    from .gegenbauer import gegenbauer, gegenbauer_expand, scaled_q

    if (args.ell is None) == (args.expand is None):  # both or neither
        problem = ("--ell does not apply to --expand" if args.ell is not None
                   else "--ell is required without --expand")
        print(f"error: {problem}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    if args.expand is not None:
        coeffs = [_rational(c) for c in args.expand.split(",")]
        expansion = gegenbauer_expand(coeffs, args.d)
        payload = {
            "input": [frac_str(c) for c in coeffs],
            "d": args.d,
            "expansion": {str(k): frac_str(f) for k, f in enumerate(expansion) if f},
        }
        _emit(payload, args.format)
        return EXIT_OK
    if args.lam is not None:
        poly = gegenbauer(args.ell, _rational(args.lam))
        name = f"C_{args.ell}^{args.lam}"
    else:
        poly = scaled_q(args.ell, args.d)
        name = f"Q_{args.ell}^({args.d})"
    payload = {
        "polynomial": name,
        "coefficients": [frac_str(c) for c in poly],
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
    from .exactnum import frac_str
    from .lpbound import build_test_function, verify_certificate

    tf = build_test_function(args.name)
    report = verify_certificate(tf)
    half = report.half_set_bound
    payload = {
        "name": tf.name,
        "degree": len(tf.expanded) - 1,
        "design_set": list(tf.design_set),
        "gegenbauer_coefficients": {
            str(k): frac_str(v) for k, v in sorted(tf.coefficients.items())
        },
        "certificate": {
            "passed": report.passed,
            "negative_allowed": list(report.negative_allowed),
            "messages": list(report.messages),
        },
        "half_set_bound": None if half is None else frac_str(half),
        "full_set_bound": None if half is None else frac_str(2 * half),
        "angle_set": None if report.angle_set is None else sorted(map(str, report.angle_set)),
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
    from .orders import enumerate_shell, shell_count_formula, shell_counts

    label = args.group
    if args.emit and args.format not in (None, "json"):  # refused before any enumeration
        print(f"error: --emit writes JSON; --format {args.format} does not apply",
              file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    fmt = args.format or "text"
    if args.count_only:
        counts = {
            m: {"formula": shell_count_formula(label, m), "enumerated": size}
            for m, size in shell_counts(label, args.m, budget).items()
        }
        payload = {"group": label, "counts": counts}
        _emit(
            payload, fmt,
            text_renderer=lambda p: [f"shells of O_{p['group']}:"] + [
                f"  m={m}: {v['enumerated']} points (formula {v['formula']})"
                for m, v in p["counts"].items()
            ],
            csv_renderer=lambda p: [("m", "enumerated", "formula")] + [
                (m, v["enumerated"], v["formula"]) for m, v in p["counts"].items()
            ],
        )
        return EXIT_OK
    if fmt == "csv":  # refused before any enumeration
        _csv_undefined()
    shell = enumerate_shell(label, args.m, budget)
    if args.emit:
        with open(args.emit, "w") as fh:
            _write_shell_json(fh, shell, indent=1)
        print(f"wrote {len(shell)} points to {args.emit}")
    elif fmt == "json":
        _write_shell_json(sys.stdout, shell, indent=2)
        print()
    else:
        print(f"O_({label},{shell.m}): {len(shell)} points")
        for c in shell:
            print("  " + " ".join(map(str, c)))
    return EXIT_OK


def _write_shell_json(out, shell, indent: int) -> None:
    """Write {"group", "m", "points", "size"} of the shell as
    json.dump(..., indent=indent, sort_keys=True) would, one point at a time.

    A point is {"coords": c, "quaternion": the four components a + b*rho of
    x = sum_j c_j b_j}, decoded from its int16 record and its `EMBEDDED`
    record: a and b are halves of the latter, so no field element and no
    payload is built.
    """
    from .exactnum import half_str
    from .orders import EMBEDDED, FIELD_TAG, RECORD

    label = shell.group_label
    nl = ["\n" + " " * (indent * depth) for depth in range(6)]
    # a component as QuadElem.to_json() gives it, keys sorted; the format is
    # that method's, and test_shell_listings_match_the_payload_oracle holds
    # this text to json.dumps of it
    component = (f'{nl[4]}{{{nl[5]}"a": "%s",{nl[5]}"b": "%s",'
                 f'{nl[5]}"tag": {json.dumps(FIELD_TAG[label])}{nl[4]}}}')
    coords = ",".join([nl[4] + "%s"] * (RECORD[label].size // 2))  # int16 fields
    point = (f'{nl[2]}{{{nl[3]}"coords": [{coords}{nl[3]}],{nl[3]}"quaternion": ['
             + ",".join([component] * 4) + f'{nl[3]}]{nl[2]}}}')
    out.write(f'{{{nl[1]}"group": {json.dumps(label)},{nl[1]}"m": {shell.m},'
              f'{nl[1]}"points": [')
    sep = ""
    for c, x2 in zip(shell, EMBEDDED.iter_unpack(shell.embedded())):
        out.write(sep + point % (*c, *map(half_str, x2)))
        sep = ","
    out.write(f'{nl[1]}],{nl[1]}"size": {len(shell)}{nl[0]}}}')  # no shell is empty


def cmd_theta(args, budget: Budget) -> int:
    from .theta import harmonic_invariant_dim, theta_table

    payload = theta_table(args.group, args.ell, args.shells, args.kind, budget).to_json()
    payload["invariant_dimension_bound"] = harmonic_invariant_dim(args.group, args.ell)
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
    from .qseries import qseries

    coeffs = qseries(args.name, args.terms)
    payload = {"name": args.name, "coefficients": coeffs}
    _emit(
        payload, args.format,
        text_renderer=lambda p: [f"{p['name']}: {p['coefficients']}"],
        csv_renderer=lambda p: [("m", "coefficient")] + list(enumerate(p["coefficients"])),
    )
    return EXIT_OK


def cmd_verify_paper(args, budget: Budget) -> int:
    if args.format == "csv":  # refused before any check runs
        _csv_undefined()
    from .verify import run_all

    only = set(args.check) if args.check else None
    results = run_all(budget, only=only)
    if args.format == "json":
        payload = [
            {
                "id": r.check_id,
                "title": r.title,
                "status": r.status,
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
        summary = f"{sum(r.passed for r in results)}/{len(results)} checks passed"
        for status, label in (("FAIL", "FAILED"), ("ERROR", "ERROR"), ("SKIP", "SKIPPED")):
            ids = [r.check_id for r in results if r.status == status]
            if ids:
                summary += f"; {label}: {ids}"
        print(summary)
    statuses = {r.status for r in results}
    if statuses & {"FAIL", "ERROR"}:
        return EXIT_CHECK_FAILED
    return EXIT_BUDGET if "SKIP" in statuses else EXIT_OK


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
    p.add_argument("--ell", type=_nonnegative_int, help="degree (not with --expand)")
    p.add_argument("--d", type=int, default=4)
    what = p.add_mutually_exclusive_group()
    what.add_argument("--lam", help="rational lambda (default: use scaled Q_l^(d))")
    what.add_argument("--expand", help="comma-separated rational coefficients to expand")
    _fmt(p)

    p = sub.add_parser("lp", help="linear-programming certificate report")
    p.add_argument("--name", required=True, choices=("F2T", "F2O", "F2I"))
    _fmt(p, default="json", report_alias=True)

    p = sub.add_parser("shells", help="enumerate shells of a maximal order")
    p.add_argument("--group", required=True, choices=("2T", "2O", "2I"))
    p.add_argument("--m", type=_positive_int, required=True)
    what = p.add_mutually_exclusive_group()
    what.add_argument("--count-only", action="store_true")
    what.add_argument("--emit", help="write the point list to a JSON file")
    _fmt(p, default=None)  # text, or json; --emit writes json only

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

    p = sub.add_parser("verify-paper", help="run the full reproduction suite",
                       formatter_class=_CheckIdsHelp)
    p.add_argument("--check", action="append", metavar="ID",
                   help="run only the named check (repeatable)")
    p.add_argument("--budget", dest="budget_local",
                   choices=("desk", "small", "unbounded"), default=None)
    _fmt(p)

    return parser


class _CheckIdsHelp(argparse.HelpFormatter):
    """Appends the ids of verify.ALL_CHECKS to the help of --check, so that
    verify is imported only when that help is printed."""

    def _get_help_string(self, action):
        if action.dest != "check":
            return action.help
        from .verify import ALL_CHECKS

        return f"{action.help}; ids: {', '.join(cid for cid, _ in ALL_CHECKS)}"


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
    except SystemExit:
        raise
    except AssertionError as exc:  # an internal integrity check, e.g. orders.IntegrityError
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (ValueError, OSError) as exc:
        from .groups import UnsupportedAngle

        kind = "unsupported group" if isinstance(exc, UnsupportedAngle) else "error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
