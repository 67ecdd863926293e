"""One pass of a benchmark workload in a fresh interpreter.

    python3 bench/worker.py <prepared-input.json> <measure|trace|record>

The parent (`run.py`) starts this script, writes nothing to it and reads its
standard output.  The script imports `zerocycles` from the checkout's `src/`,
parses every input through the public loaders, prints ``ready`` (the parent
times set-up up to that line), then runs the ops one after another in a
closed loop.  Each op is one library or CLI call plus the canonical JSON of
its result, and is timed alone; its correctness is checked afterwards,
untimed.  The last line is one JSON object with the per-op latencies, the
failures and, in ``trace`` mode, the tracer's summary (in ``record`` mode,
the output hashes of the pinned ops instead of checking them).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from zerocycles import algebra, chow, cli, descent, geometry, pointsearch  # noqa: E402

#: Exceptions the library raises as structured refusals (the CLI's exit-1 set).
REFUSALS = (
    geometry.GeometryError,
    algebra.ZeroDivisorFound,
    descent.PreconditionFailed,
    descent.CertificateNotFound,
)


def dump(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _library_call(op, surfaces):
    """A zero-argument callable for the op, with every input already parsed.

    Library functions are looked up on their module at call time, so a
    traced pass goes through the tracer's wrappers.
    """
    kind, a = op["kind"], op["args"]
    surface = surfaces.get(a.get("surface"))
    if kind == "third_point":
        x, y = geometry.point_from_json(a["x"]), geometry.point_from_json(a["y"])
        return lambda: {"point": geometry.third_point(surface, x, y).to_json()}
    if kind == "tangent_residual":
        axis = geometry.line_from_json(a["axis"])
        point = geometry.point_from_json(a["point"])
        return lambda: {"point": geometry.tangent_residual(
            surface, geometry.PlanePencil(axis), point).to_json()}
    if kind == "line_section":
        line = geometry.line_from_json(a["line"])
        return lambda: {"scheme": geometry.line_section(surface, line).to_json()}
    if kind == "tangent_triple":
        axis = geometry.line_from_json(a["axis"])
        line = geometry.line_from_json(a["line"])
        return lambda: {"scheme": geometry.tangent_triple(
            surface, geometry.PlanePencil(axis), line).to_json()}
    if kind == "pencil_rank":
        return lambda: {"rank": chow.pencil_rank(a["u"], a["v"], a["w"])}
    if kind == "standardize":
        lines = a["lines"]
        return lambda: {"transform": [
            [algebra.fraction_to_string(c) for c in row]
            for row in chow.standardize_skew_lines(lines)]}
    if kind == "enumerate":
        height = a["height"]

        def enumerate_points():
            records = pointsearch.enumerate_rational(surface, height)
            return {"count": len(records), "points": [r.to_json() for r in records]}
        return enumerate_points
    if kind == "saturate":
        seeds = [
            pointsearch.PointRecord(
                point=geometry.point_from_json(p).normalized(), degree=1, height=None,
                source="seed")
            for p in a["seeds"]
        ]
        rounds = a["rounds"]

        def saturate_points():
            records = pointsearch.saturate(surface, seeds, rounds)
            return {"count": len(records), "points": [r.to_json() for r in records]}
        return saturate_points
    if kind == "certify":
        dp = descent.DelPezzo(a["dS"], with_x4=a["with_x4"])
        goal = descent.GOALS[a["goal"]]
        degree = a["degree"]

        def certify():
            cert = descent.find_certificate(dp, degree, goal)
            report = descent.verify_certificate(cert)
            payload = cert.to_json()
            payload["verified"] = report.ok
            return payload
        return certify
    if kind == "verify":
        cert = descent.Certificate.from_json(a["certificate"])
        return lambda: descent.verify_certificate(cert).to_json()
    raise ValueError(f"unknown op kind {kind!r}")


def _cli_argv(op) -> list:
    kind, a = op["kind"], op["args"]
    dumps = json.dumps
    if kind == "third_point":
        return ["geom", "third-point", "--surface", a["surface_path"],
                "--x", dumps(a["x"]), "--y", dumps(a["y"])]
    if kind == "tangent_residual":
        return ["geom", "tangent-residual", "--surface", a["surface_path"],
                "--axis", dumps(a["axis"]), "--point", dumps(a["point"])]
    if kind == "line_section":
        return ["geom", "delta", "--surface", a["surface_path"], "--line", dumps(a["line"])]
    if kind == "tangent_triple":
        return ["geom", "psi", "--surface", a["surface_path"],
                "--axis", dumps(a["axis"]), "--line", dumps(a["line"])]
    if kind == "enumerate":
        return ["points", "enum", "--surface", a["surface_path"], "--height", str(a["height"])]
    if kind == "saturate":
        return ["points", "saturate", "--surface", a["surface_path"],
                "--seeds", dumps(a["seeds"]), "--rounds", str(a["rounds"])]
    if kind == "certify":
        argv = ["descent", "certify", "--dS", str(a["dS"]), "--degree", str(a["degree"]),
                "--goal", a["goal"]]
        return argv + (["--with-x4"] if a["with_x4"] else [])
    if kind == "verify":
        return ["descent", "verify", a["certificate_path"]]
    raise ValueError(f"op kind {kind!r} has no CLI command")


def prepare(op, surfaces):
    """Callable returning (outcome, canonical text) of one op.

    The outcome is ``"ok"`` or the kind of the structured refusal; a CLI exit
    code other than 0 or 1 becomes an outcome no op expects.
    """
    if op["via"] == "cli":
        argv = _cli_argv(op)

        def through_cli():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.run(argv)
            text = out.getvalue()
            if code == 1:
                return json.loads(text)["error"]["kind"], text
            return ("ok" if code == 0 else f"exit {code}"), text
        return through_cli

    call = _library_call(op, surfaces)

    def through_library():
        try:
            return "ok", dump(call())
        except REFUSALS as exc:
            kind = getattr(exc, "kind", type(exc).__name__)
            return kind, dump({"error": {"kind": kind, "message": str(exc)}})
    return through_library


def check(op, outcome, text, expected, surfaces_json, oracles):
    """None when the op's outcome and output are right, else the reason."""
    if outcome != op["expect"]:
        return f"outcome {outcome}, expected {op['expect']}"
    payload = json.loads(text)
    if text != dump(payload):
        return "output is not canonical JSON (sorted keys, indent 2)"
    if outcome == "ok":
        try:
            reason = oracles.CHECKS[op["kind"]](op, payload, surfaces_json)
        except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
            reason = f"output the oracle cannot read ({type(exc).__name__}: {exc})"
        if reason:
            return reason
    elif set(payload) != {"error"} or set(payload["error"]) != {"kind", "message"}:
        return "refusal is not a structured error document"
    want = expected.get(op["id"])
    if want is not None and hashlib.sha256(text.encode()).hexdigest() != want:
        return "canonical output differs from expected.json"
    return None


def tracer_selftest(tracer) -> str | None:
    """One third_point on a fixed secant of the Fermat cubic makes exactly 6
    value_at calls: 2 in `evaluate` and 4 in `_restrict_coords`."""
    surface = geometry.CubicForm.fermat()
    x = geometry.ProjPoint.rational([1, -1, 0, 0])
    y = geometry.ProjPoint.rational([0, 1, -1, 0])
    tracer.reset()
    tracer.active = True
    geometry.third_point(surface, x, y)
    tracer.active = False
    counts = dict(tracer.counts)
    tracer.reset()
    got = (counts.get("geometry.third_point"), counts.get("geometry.CubicForm.value_at"))
    return None if got == (1, 6) else f"tracer self-test: third_point/value_at counts {got}"


def timed(run, tracer, kind):
    """(outcome, text, seconds) of one op; a tracer records this op only."""
    if tracer is None:
        start = perf_counter()
        outcome, text = run()
        return outcome, text, perf_counter() - start
    tracer.active = True
    try:
        with tracer.span(kind, "op"):
            start = perf_counter()
            outcome, text = run()
            return outcome, text, perf_counter() - start
    finally:
        tracer.active = False


def derived(op, outcome, text, stats):
    """Work counts read off the outputs (untimed)."""
    if op["via"] == "cli":
        stats["cli_stdout_bytes"] += len(text.encode())
        stats["cli_error_exits"] += outcome != "ok"
    if outcome != "ok":
        stats["refusal_ops"] += 1
        return
    payload = json.loads(text)
    kind, a = op["kind"], op["args"]
    if kind == "certify":
        stats["certify_ops"] += 1
        stats["certificate_moves"] += len(payload["moves"])
    elif kind == "verify":
        stats["verify_rejections"] += payload["ok"] is False
    elif kind == "enumerate":
        h = a["height"]
        # the box `enumerate_rational` walks: first coordinate 1..H in full,
        # first coordinate 0 with the next nonzero coordinate made positive
        stats["enum_candidates"] += h * (2 * h + 1) ** 3 + h * (2 * h + 1) ** 2 + h * (2 * h + 1) + h
        stats["enum_points"] += payload["count"]
    elif kind == "saturate":
        stats["saturate_new_points"] += payload["count"] - len({tuple(s) for s in a["seeds"]})


def main(argv) -> int:
    path, mode = argv
    doc = json.loads(Path(path).read_text())
    surfaces = {name: geometry.CubicForm.from_json(obj) for name, obj in doc["surfaces"].items()}
    ops = [(op, prepare(op, surfaces)) for op in doc["ops"]]
    print("ready", flush=True)

    # the benchmark's own modules load after `ready`, outside set-up time
    import oracles
    import tracer as tracing

    expected = {}
    if mode != "record":
        expected = json.loads((BENCH / "expected.json").read_text())[doc["workload"]]
    tracer = None
    failures = []
    if mode == "trace":
        tracer = tracing.Tracer()
        tracer.install()
        bad = tracer_selftest(tracer)
        if bad:
            failures.append(["selftest", bad])
    stats = dict.fromkeys((
        "cli_stdout_bytes", "cli_error_exits", "refusal_ops", "certify_ops",
        "certificate_moves", "verify_rejections", "enum_candidates", "enum_points",
        "saturate_new_points", "split_ops", "split_ops_split"), 0)
    latencies = []
    hashes = {}
    for op, run in ops:
        splits_before = tracer.counts["algebra.EtaleAlgebra.split"] if tracer else 0
        start = perf_counter()
        try:
            outcome, text, elapsed = timed(run, tracer, op["kind"])
        except (Exception, SystemExit) as exc:  # an unexpected error fails the op, not the pass
            latencies.append([op["id"], perf_counter() - start])
            failures.append([op["id"], f"unexpected {type(exc).__name__}: {exc}"])
            continue
        latencies.append([op["id"], elapsed])
        reason = check(op, outcome, text, expected, doc["surfaces"], oracles)
        if reason:
            failures.append([op["id"], reason])
        hashes[op["id"]] = hashlib.sha256(text.encode()).hexdigest()
        derived(op, outcome, text, stats)
        if op["args"].get("split"):
            stats["split_ops"] += 1
            if tracer:
                stats["split_ops_split"] += tracer.counts["algebra.EtaleAlgebra.split"] > splits_before
    result = {"latencies": latencies, "failures": failures, "stats": stats}
    if mode == "record":
        result["hashes"] = {k: v for k, v in hashes.items() if k.startswith("pin-")}
    if tracer:
        result["trace"] = tracer.summary()
        result["trace"]["chords_tried"] = tracer.children_of("pointsearch", "geometry.third_point")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
