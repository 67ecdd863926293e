"""Command-line entry point: geometry, Chow report, descent certificates, point search.

Every subcommand prints one canonical JSON document on stdout.  Exit codes:
0 success, 1 domain error (structured {"error": ...} JSON), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache, partial
from pathlib import Path

from .algebra import ZeroDivisorFound
from . import chow
from .descent import (
    Certificate,
    CertificateNotFound,
    DelPezzo,
    GOALS,
    PreconditionFailed,
    default_goal,
    effectivity_threshold_report,
    find_certificate,
    prove_bound_suite,
    verify_certificate,
)
from .geometry import (
    CubicForm,
    GeometryError,
    PlanePencil,
    _json_list,
    line_from_json,
    line_section,
    point_from_json,
    tangent_residual,
    tangent_triple,
    third_point,
)
from .pointsearch import PointRecord, enumerate_rational, saturate


def _dump(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _load_json_arg(value: str):
    """Inline JSON when the argument starts with `[` or `{`, else an existing path or JSON scalar."""
    if value.lstrip()[:1] in ("[", "{"):
        return json.loads(value)
    path = Path(value)
    try:
        exists = path.exists()
    except OSError:  # e.g. longer than the file system allows for a name
        exists = False
    if exists:
        return json.loads(path.read_text())
    return json.loads(value)


def _int_at_least(minimum: int, value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}") from None
    if number < minimum:
        raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {number}")
    return number


_positive_int, _non_negative_int = partial(_int_at_least, 1), partial(_int_at_least, 0)


def _load_surface(value: str) -> CubicForm:
    return CubicForm.from_json(_load_json_arg(value))


def _write_output(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zerocycles",
        description="Exact constructions and 0-cycle descent on cubic and del Pezzo surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    geom = sub.add_parser("geom", help="exact cubic-surface constructions")
    geom_sub = geom.add_subparsers(dest="subcommand", required=True)

    tp = geom_sub.add_parser("third-point", help="residual point of a secant")
    tp.add_argument("--surface", required=True, help="surface JSON (inline or path)")
    tp.add_argument("--x", required=True, help="point JSON")
    tp.add_argument("--y", required=True, help="point JSON")
    tp.add_argument("--out")

    tr = geom_sub.add_parser("tangent-residual", help="residual point of a tangent line")
    tr.add_argument("--surface", required=True)
    tr.add_argument("--axis", required=True, help="pencil axis line JSON [[p],[q]]")
    tr.add_argument("--point", required=True)
    tr.add_argument("--out")

    dl = geom_sub.add_parser("delta", help="length-3 scheme cut by a line")
    dl.add_argument("--surface", required=True)
    dl.add_argument("--line", required=True)
    dl.add_argument("--out")

    ps = geom_sub.add_parser("psi", help="tangent process applied to a whole line section")
    ps.add_argument("--surface", required=True)
    ps.add_argument("--axis", required=True)
    ps.add_argument("--line", required=True)
    ps.add_argument("--out")

    cs = geom_sub.add_parser("check-smooth", help="sample enumerated points for singularities")
    cs.add_argument("--surface", required=True)
    cs.add_argument("--height", type=_positive_int, default=3)
    cs.add_argument("--out")

    ch = sub.add_parser("chow", help="triple-product Chow-ring reports")
    chow_sub = ch.add_subparsers(dest="subcommand", required=True)
    rep = chow_sub.add_parser("report", help="collinearity-locus degree comparison")
    rep.add_argument("--degs", default="6,6,6", help="curve degrees, comma separated")
    rep.add_argument("--pair-points", type=int, default=12)
    rep.add_argument("--out")
    pen = chow_sub.add_parser("pencil", help="pencil condition rank sampling")
    pen.add_argument("--samples", type=_non_negative_int, default=200)
    pen.add_argument("--seed", type=int, default=0)
    pen.add_argument("--out")

    de = sub.add_parser("descent", help="0-cycle degree descent certificates")
    descent_sub = de.add_subparsers(dest="subcommand", required=True)
    ce = descent_sub.add_parser("certify", help="search one descent certificate")
    ce.add_argument("--dS", type=int, required=True, choices=(1, 2, 3))
    ce.add_argument("--degree", type=int, required=True)
    ce.add_argument("--goal", default=None, choices=sorted(GOALS))
    ce.add_argument("--with-x4", action="store_true")
    ce.add_argument("--out")
    ve = descent_sub.add_parser("verify", help="replay and check a certificate")
    ve.add_argument("certificate", help="certificate JSON path")
    ve.add_argument("--out")
    su = descent_sub.add_parser("suite", help="certify every start degree up to a ceiling")
    su.add_argument("--dS", type=int, required=True, choices=(1, 2, 3))
    su.add_argument("--ceiling", type=_positive_int, default=200)
    su.add_argument("--with-x4", action="store_true")
    su.add_argument("--refined", action="store_true")
    su.add_argument("--out")
    th = descent_sub.add_parser("threshold", help="effectivity threshold replay")
    th.add_argument("--dS", type=int, required=True, choices=(1, 2, 3))
    th.add_argument("--threshold", type=_positive_int, required=True)
    th.add_argument("--ceiling", type=_positive_int, default=200)
    th.add_argument("--with-x4", action="store_true")
    th.add_argument("--even-only", action="store_true")
    th.add_argument("--out")

    po = sub.add_parser("points", help="point enumeration and saturation")
    points_sub = po.add_subparsers(dest="subcommand", required=True)
    en = points_sub.add_parser("enum", help="enumerate rational points up to a height")
    en.add_argument("--surface", required=True)
    en.add_argument("--height", type=_positive_int, required=True)
    en.add_argument("--out")
    sa = points_sub.add_parser("saturate", help="close seeds under chords and tangents")
    sa.add_argument("--surface", required=True)
    sa.add_argument("--seeds", required=True, help="JSON list of points (inline or path)")
    sa.add_argument("--rounds", type=_non_negative_int, default=1)
    sa.add_argument("--max-points", type=_non_negative_int, default=400)
    sa.add_argument("--out")

    return parser


def _cmd_geom(args) -> str:
    surface = _load_surface(args.surface)
    if args.subcommand == "third-point":
        x = point_from_json(_load_json_arg(args.x))
        y = point_from_json(_load_json_arg(args.y))
        return _dump({"point": third_point(surface, x, y).to_json()})
    if args.subcommand == "tangent-residual":
        axis = line_from_json(_load_json_arg(args.axis))
        point = point_from_json(_load_json_arg(args.point))
        result = tangent_residual(surface, PlanePencil(axis), point)
        return _dump({"point": result.to_json()})
    if args.subcommand == "delta":
        line = line_from_json(_load_json_arg(args.line))
        return _dump({"scheme": line_section(surface, line).to_json()})
    if args.subcommand == "psi":
        axis = line_from_json(_load_json_arg(args.axis))
        line = line_from_json(_load_json_arg(args.line))
        result = tangent_triple(surface, PlanePencil(axis), line)
        return _dump({"scheme": result.to_json()})
    singular = []  # check-smooth
    for record in enumerate_rational(surface, args.height):
        grad = surface.gradient_at(record.point.primitive())
        if all(g == 0 for g in grad):
            singular.append(record.point.to_json())
    return _dump(
        {
            "height": args.height,
            "singular_points": singular,
            "smooth_on_sample": not singular,
        }
    )


def _cmd_chow(args) -> str:
    if args.subcommand == "report":
        dx, dy, dz = (int(v) for v in args.degs.split(","))
        degs = chow.CurveDegrees(dx, dy, dz)
        return _dump(chow.collinearity_report(degs, args.pair_points))
    return _dump(chow.pencil_report(args.samples, args.seed))  # pencil


def _cmd_descent(args) -> str:
    if args.subcommand == "verify":
        cert = Certificate.from_json(_load_json_arg(args.certificate))
        return _dump(verify_certificate(cert).to_json())
    surface = DelPezzo(args.dS, with_x4=getattr(args, "with_x4", False))
    if args.subcommand == "certify":
        goal = GOALS[args.goal] if args.goal else default_goal(surface)
        cert = find_certificate(surface, args.degree, goal)
        report = verify_certificate(cert)
        payload = cert.to_json()
        payload["verified"] = report.ok
        return _dump(payload)
    if args.subcommand == "suite":
        goal = default_goal(surface, refined=args.refined)
        report = prove_bound_suite(surface, goal, ceiling=args.ceiling)
        return _dump(report.to_json())
    report = effectivity_threshold_report(  # threshold
        surface,
        threshold=args.threshold,
        ceiling=args.ceiling,
        even_only=args.even_only,
    )
    return _dump(report)


def _cmd_points(args) -> str:
    surface = _load_surface(args.surface)
    if args.subcommand == "enum":
        records = enumerate_rational(surface, args.height)
        return _dump({"count": len(records), "points": [r.to_json() for r in records]})
    seeds = [  # saturate
        PointRecord(point=point_from_json(p), degree=1, height=None, source="seed")
        for p in _json_list(_load_json_arg(args.seeds), "seeds")
    ]
    records = saturate(surface, seeds, args.rounds, max_points=args.max_points)
    return _dump({"count": len(records), "points": [r.to_json() for r in records]})


#: Built on the first `run`, not at import, then reused: argparse keeps no state between parses.
_parser = cache(build_parser)

_HANDLERS = {
    "geom": _cmd_geom,
    "chow": _cmd_chow,
    "descent": _cmd_descent,
    "points": _cmd_points,
}


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _write_output(_HANDLERS[args.command](args), getattr(args, "out", None))
    except (GeometryError, ZeroDivisorFound, PreconditionFailed, CertificateNotFound) as exc:
        kind = getattr(exc, "kind", type(exc).__name__)
        sys.stdout.write(_dump({"error": {"kind": kind, "message": str(exc)}}))
        return 1
    except (ValueError, KeyError, json.JSONDecodeError, OSError) as exc:
        sys.stdout.write(_dump({"error": {"kind": type(exc).__name__, "message": str(exc)}}))
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
