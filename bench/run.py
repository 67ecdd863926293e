"""Benchmark for zerocycles: end-to-end metrics, or a traced per-layer breakdown.

    python3 bench/run.py --workload constructions --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30      # every workload

Workloads (inputs are generated from the seed by `gen.py`):

* ``constructions`` -- chords, tangent residuals, line sections, the triple
  map on irreducible and on forced-split sections, and a small Chow share;
  `algebra` and `geometry` do the work, `pointsearch` and `descent` idle.
* ``pointsearch`` -- height-bounded enumeration on dense and sparse surfaces
  (integer kernel) and two rounds of chord/tangent saturation (degree-1
  algebra on growing integers).
* ``descent`` -- certify every start degree up to a ceiling on four suites,
  a large-degree tail, and verification of committed and tampered
  certificates; pure integers, no `algebra` or `geometry` calls.

Each pass of a workload runs in a fresh interpreter (`worker.py`), one at a
time, with one client in a closed loop: an op starts when the previous one
has finished.  With ``--trace 0`` passes, each on the next fresh instances
of the workload, repeat until ``--seconds`` have been spent in them, and the
end-to-end metrics are printed.  With ``--trace 1`` one untraced pass and at
least two traced passes run on the same inputs, and the per-layer metrics
are printed.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1 when an
op failed its oracle or its expected outcome, 2 when the program's sources
are missing.  A results record with the raw per-op latencies is written to
``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402

WORKLOADS = tuple(gen.GENERATORS)
#: Per-op latency samples needed so that at least ten lie beyond p90.
MIN_OPS = 100
#: Stop starting passes after this long, so a run ends well inside 180 s.
MAX_RUN_S = 120.0

#: End-to-end metric -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "success_rate": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

_C, _P, _D = "constructions", "pointsearch", "descent"
#: Per-layer metric -> (unit, better, the end-to-end metrics it should move).
PER_LAYER = {
    "algebra.mul_calls": ("count", "lower", f"ops_per_s, latency_p50_ms on {_C}, {_P}; 0 on {_D}"),
    "algebra.divmod_calls": ("count", "lower", f"ops_per_s, latency_p50_ms on {_C}, {_P}; 0 on {_D}"),
    "algebra.inverse_calls": ("count", "lower", f"ops_per_s, latency_p50_ms on {_C}, {_P}; 0 on {_D}"),
    "algebra.splits": ("count", "lower", f"latency_p90_ms on {_C} (forced splits are the tail)"),
    "algebra.crt_calls": ("count", "lower", f"latency_p90_ms on {_C}"),
    "algebra.calls": ("count", "lower", f"bypass check: 0 on {_D}"),
    "algebra.self_s": ("s", "lower", f"ops_per_s, latency_p50_ms on {_C}, {_P}"),
    "geometry.value_at_calls": ("count", "lower", f"ops_per_s on {_C}; latency_p90_ms on {_P}"),
    "geometry.gradient_at_calls": ("count", "lower", f"ops_per_s on {_C}; latency_p90_ms on {_P}"),
    "geometry.third_point_s": ("s", "lower", f"ops_per_s on {_C}; latency_p90_ms on {_P}"),
    "geometry.tangent_residual_s": ("s", "lower", f"ops_per_s on {_C}"),
    "geometry.line_section_s": ("s", "lower", f"ops_per_s on {_C}"),
    "geometry.tangent_triple_s": ("s", "lower", f"ops_per_s, latency_p90_ms on {_C}"),
    "geometry.refusals": ("count", "higher", f"must equal the pinned refusal ops on {_C}"),
    "geometry.calls": ("count", "lower", f"bypass check: 0 on {_D}"),
    "geometry.self_s": ("s", "lower", f"ops_per_s on {_C}; latency_p90_ms on {_P}"),
    "chow.rank_calls": ("count", "lower", f"latency_p50_ms on {_C}"),
    "chow.self_s": ("s", "lower", f"latency_p50_ms on {_C}"),
    "pointsearch.enumerate_s": ("s", "lower", f"latency_p50_ms, ops_per_s on {_P}"),
    "pointsearch.candidates": ("computed_count", "lower", f"latency_p50_ms, ops_per_s on {_P}"),
    "pointsearch.hit_ratio": ("ratio", "higher", f"latency_p50_ms, ops_per_s on {_P}"),
    "pointsearch.saturate_s": ("s", "lower", f"latency_p90_ms on {_P}"),
    "pointsearch.chords_tried": ("count", "lower", f"latency_p90_ms on {_P}"),
    "pointsearch.chord_yield": ("ratio", "higher", f"latency_p90_ms on {_P}"),
    "pointsearch.self_s": ("s", "lower", f"latency_p50_ms, ops_per_s on {_P}"),
    "descent.find_s": ("s", "lower", f"ops_per_s, latency_p90_ms on {_D}"),
    "descent.h0_calls": ("count", "lower", f"ops_per_s, latency_p90_ms on {_D}; a shared table moves peak_rss_mb"),
    "descent.verify_s": ("s", "lower", f"latency_p50_ms on {_D}"),
    "descent.apply_move_calls": ("count", "lower", f"latency_p50_ms on {_D}"),
    "descent.moves_per_cert": ("moves", "lower", f"latency_p50_ms on {_D} (verify time)"),
    "descent.verify_rejections": ("count", "higher", f"must equal the tampered certificates on {_D}"),
    "descent.calls": ("count", "lower", f"bypass check: 0 on {_C}, {_P}"),
    "descent.self_s": ("s", "lower", f"latency_p50_ms on {_D}"),
    "cli.run_calls": ("count", "lower", "setup_s, latency_p50_ms on each CLI slice"),
    "cli.run_s": ("s", "lower", "setup_s, latency_p50_ms on each CLI slice"),
    "cli.stdout_bytes": ("bytes", "lower", "latency_p50_ms on each CLI slice"),
    "cli.error_exits": ("count", "higher", "must equal the pinned refusals sent through the CLI"),
    "trace.overhead_ratio": ("ratio", "lower", "traced / untraced op time; moves nothing"),
}


# --- inputs and passes -------------------------------------------------------

def materialize(doc: dict, work: Path) -> Path:
    """Write the inputs a pass reads, including the files CLI ops name.

    CLI ops get points and lines inline and surfaces and certificates as
    files, as the README shows them.
    """
    files = work / "files"
    files.mkdir(parents=True)
    for op in doc["ops"]:
        if op["via"] != "cli":
            continue
        a = op["args"]
        if "surface" in a:
            path = files / f"surface-{a['surface']}.json"
            path.write_text(json.dumps(doc["surfaces"][a["surface"]]))
            a["surface_path"] = str(path)
        if "certificate" in a:
            path = files / f"certificate-{op['id']}.json"
            path.write_text(json.dumps(a["certificate"]))
            a["certificate_path"] = str(path)
    path = work / "input.json"
    path.write_text(json.dumps(doc))
    return path


def run_pass(input_path: Path, mode: str) -> dict:
    """Start one worker, time it up to its ``ready`` line, collect its report."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), str(input_path), mode],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    lines = rest.strip().splitlines()
    if first.strip() != "ready" or proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker failed (exit {proc.returncode}) before reporting")
    report = json.loads(lines[-1])
    report["setup_s"] = setup_s
    report["peak_rss_mb"] = usage.ru_maxrss / 1024  # Linux reports KiB
    report["op_s"] = sum(lat for _, lat in report["latencies"])
    return report


# --- metrics -------------------------------------------------------------------

def end_to_end(passes: list) -> tuple:
    lat_ms = [lat * 1000 for p in passes for _, lat in p["latencies"]]
    failed = sum(len(p["failures"]) for p in passes)
    deciles = statistics.quantiles(lat_ms, n=10, method="inclusive")
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "ops_per_s": len(lat_ms) / sum(p["op_s"] for p in passes),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": deciles[8],
        "success_rate": 1 - failed / len(lat_ms),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    return metrics, len(lat_ms), failed


def per_layer(untraced: dict, traced: list) -> tuple:
    """Per-layer metrics of the traced passes, and any failed self-check."""
    first = traced[0]["trace"]
    counts, stats = first["counts"], traced[0]["stats"]

    def count(name):
        return counts.get(name, 0)

    def layer_calls(layer):
        return sum(v for k, v in counts.items() if k.startswith(layer + "."))

    def median_of(key, name):
        return statistics.median(p["trace"][key].get(name, 0.0) for p in traced)

    chords = first["chords_tried"]
    candidates = stats["enum_candidates"]
    m = {
        "algebra.mul_calls": count("algebra.AlgElement.__mul__"),
        "algebra.divmod_calls": count("algebra.Poly.__divmod__"),
        "algebra.inverse_calls": count("algebra.AlgElement.inverse"),
        "algebra.splits": count("algebra.EtaleAlgebra.split"),
        "algebra.crt_calls": count("algebra.crt_combine"),
        "algebra.calls": layer_calls("algebra"),
        "algebra.self_s": median_of("self_s", "algebra"),
        "geometry.value_at_calls": count("geometry.CubicForm.value_at"),
        "geometry.gradient_at_calls": count("geometry.CubicForm.gradient_at"),
        "geometry.third_point_s": median_of("span_s", "geometry.third_point"),
        "geometry.tangent_residual_s": median_of("span_s", "geometry.tangent_residual"),
        "geometry.line_section_s": median_of("span_s", "geometry.line_section"),
        "geometry.tangent_triple_s": median_of("span_s", "geometry.tangent_triple"),
        "geometry.refusals": first["refusals"],
        "geometry.calls": layer_calls("geometry"),
        "geometry.self_s": median_of("self_s", "geometry"),
        "chow.rank_calls": count("chow.matrix_rank"),
        "chow.self_s": median_of("self_s", "chow"),
        "pointsearch.enumerate_s": median_of("span_s", "pointsearch.enumerate_rational"),
        "pointsearch.candidates": candidates,
        "pointsearch.hit_ratio": stats["enum_points"] / candidates if candidates else 0.0,
        "pointsearch.saturate_s": median_of("span_s", "pointsearch.saturate"),
        "pointsearch.chords_tried": chords,
        "pointsearch.chord_yield": stats["saturate_new_points"] / chords if chords else 0.0,
        "pointsearch.self_s": median_of("self_s", "pointsearch"),
        "descent.find_s": median_of("span_s", "descent.find_certificate"),
        "descent.h0_calls": count("descent.h0"),
        "descent.verify_s": median_of("span_s", "descent.verify_certificate"),
        "descent.apply_move_calls": count("descent.apply_move"),
        "descent.moves_per_cert": (
            stats["certificate_moves"] / stats["certify_ops"] if stats["certify_ops"] else 0.0),
        "descent.verify_rejections": stats["verify_rejections"],
        "descent.calls": layer_calls("descent"),
        "descent.self_s": median_of("self_s", "descent"),
        "cli.run_calls": count("cli.run"),
        "cli.run_s": median_of("span_s", "cli.run"),
        "cli.stdout_bytes": stats["cli_stdout_bytes"],
        "cli.error_exits": stats["cli_error_exits"],
        "trace.overhead_ratio": statistics.median(p["op_s"] for p in traced) / untraced["op_s"],
    }
    problems = []
    for p in traced[1:]:
        if p["trace"]["counts"] != counts or p["trace"]["refusals"] != first["refusals"]:
            problems.append("call counts differ between two traced passes")
    workload = traced[0]["workload"]
    if workload == "descent" and (m["algebra.calls"] or m["geometry.calls"]):
        problems.append("descent made algebra or geometry calls")
    if workload != "descent" and m["descent.calls"]:
        problems.append(f"{workload} made descent calls")
    if workload == "constructions":
        if not (m["algebra.splits"] > 0 and stats["split_ops_split"] > 0):
            problems.append("no forced-split op split its algebra")
        if m["geometry.refusals"] != stats["refusal_ops"]:
            problems.append("geometry refusals differ from the pinned refusal ops")
    return m, problems


# --- records -------------------------------------------------------------------

def commit() -> str:
    """The checked-out commit, read from .git without running git; "unknown" outside a clone."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def write_record(args, workload, passes, metrics, load_start) -> Path:
    record = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1min_start": load_start,
        "loadavg_1min_end": os.getloadavg()[0],
        "passes": [
            {"mode": p["mode"], "setup_s": p["setup_s"], "peak_rss_mb": p["peak_rss_mb"],
             "op_s": p["op_s"], "failures": p["failures"], "stats": p["stats"],
             "latencies_ms": [[op_id, lat * 1000] for op_id, lat in p["latencies"]],
             **({"trace": p["trace"]} if "trace" in p else {})}
            for p in passes
        ],
        "metrics": metrics,
    }
    out = BENCH / "results"
    out.mkdir(exist_ok=True)
    path = out / f"{workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


# --- running a workload -------------------------------------------------------

def run_workload(args, workload: str) -> dict:
    load_start = os.getloadavg()[0]
    docs = gen.GENERATORS[workload](args.seed)
    work = BENCH / "work" / f"{workload}-{args.seed}-{os.getpid()}"
    passes = []
    busy = 0.0  # wall time spent in passes, generation excluded

    def go(input_path, mode):
        nonlocal busy
        start = time.perf_counter()
        report = run_pass(input_path, mode)
        busy += time.perf_counter() - start
        report["mode"], report["workload"] = mode, workload
        passes.append(report)
        return report

    try:
        if args.trace:
            # every traced pass reads the same inputs, so their counts must agree
            first = materialize(next(docs), work / "0")
            untraced = go(first, "measure")
            traced = [go(first, "trace"), go(first, "trace")]
            while busy < args.seconds:
                traced.append(go(first, "trace"))
            metrics, problems = per_layer(untraced, traced)
            units = PER_LAYER
            attempted = sum(len(p["latencies"]) for p in passes)
            failed = sum(len(p["failures"]) for p in passes)
        else:
            # each pass takes the next fresh instances of the workload
            while True:
                go(materialize(next(docs), work / str(len(passes))), "measure")
                done = sum(len(p["latencies"]) for p in passes)
                if busy > MAX_RUN_S or (busy >= args.seconds and done >= MIN_OPS):
                    break
            metrics, attempted, failed = end_to_end(passes)
            units, problems = END_TO_END, []
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = write_record(args, workload, passes, metrics, load_start)
    for p in passes:
        for op_id, reason in p["failures"]:
            print(f"{workload} FAIL {op_id}: {reason}", file=sys.stderr)
    for reason in problems:
        print(f"{workload} FAIL self-check: {reason}", file=sys.stderr)
    for name, value in metrics.items():
        unit, _better, *moves = units[name]
        note = f"  [{moves[0]}]" if moves else ""
        print(f"{workload} {name} = {value:.6g} {unit}{note}")
    print(f"{workload} error_rate = {failed / attempted:.6g} ratio"
          f" ({failed} of {attempted} ops)")
    print(f"{workload} record: {record.relative_to(ROOT)}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name][0]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "zerocycles" / "__init__.py").is_file():
        print(f"no zerocycles sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_workload(args, args.workload)
    else:
        results = {w: run_workload(args, w) for w in WORKLOADS}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
