"""orbitint benchmark: seeded workloads through the public CLI entry point.

    python3 perfbench/run.py --workload pairs-witness --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; orbitint is imported from ./src.
Load is one closed loop in one process: the next op starts when the previous
one returns.  The fixed op list runs in 2 passes, each in a fresh process, and
takes about --seconds in all.  Every report is checked against an independent
oracle (oracle.py), and every pass must give the same report bytes; a
disagreement, or an op that raises out of the CLI, makes the command exit 1.

Times are in reference seconds: each measured time is scaled by the speed a
machine-speed probe (probe.py) sees next to it, so that the machine's slow
phases do not read as slow code.  An op's latency is its lower scaled time
of the two passes.

--trace 0 prints the end-to-end metrics:
  setup_s      median over sequential fresh interpreters of importing
               orbitint.cli and generating the inputs
  wall_s       time to run the fixed op list once: the sum of op latencies
  op_p50_s     median op latency
  op_tail_s    highest percentile of the op latencies with ten beyond it
  peak_rss_mb  peak resident memory of a pass process, median of the passes
and, as a count rather than a metric, error_rate = failed / attempted: ops
that exited non-zero, over every op of every pass.

--trace 1 runs the passes, then one more pass in a fresh process with spans
around the layer functions (tracing.py), checks that it prints the same
report bytes as the timed passes, and prints the per-layer metrics, which are
measured times, not scaled.  Spans are written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402

SETUP_SPAWNS = 2  # per gap: before each pass and after the last
PASSES = 2
# the whole command must end within 180 s
BUDGET_S = 170.0

SPAN_METRICS = [
    "mapexpr.parse", "ratmap.bad_primes", "ratmap.orbit", "ratmap.critical",
    "ratmap.exceptional", "ratmap.certify", "ratmap.iterated_forms",
    "exactarith.verdict", "integrality.cell", "search.find_pairs", "search.coset",
    "divisors.g_form", "divisors.exact_divide", "divisors.diag_roots", "report.render",
]
COUNT_METRICS = {
    "integrality.cells": "count", "integrality.integral_cells": "count",
    "integrality.incomplete_witnesses": "count", "exactarith.cross_max_bits": "bits",
    "ratmap.orbit_max_bits": "bits", "divisors.max_terms": "count",
    "report.bytes": "bytes",
}


class BenchError(RuntimeError):
    pass


def _worker(mode: str, args, deadline: float, extra: tuple = ()) -> list[dict]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds / PASSES), *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted before the worker started")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker exceeded the {BUDGET_S:.0f} s budget") from None
    records = [json.loads(line) for line in proc.stdout.splitlines() if line]
    if proc.returncode != 0 or not records or (mode != "setup" and "end" not in records[-1]):
        raise BenchError(f"{mode} worker exited with status {proc.returncode}")
    return records


def _setup_seconds(args, deadline: float) -> list[float]:
    """Sequential spawns: each measures from just before the spawn to the
    moment its inputs are generated and the first op could start, scaled by
    the probe the spawned process runs then."""
    out = []
    for _ in range(SETUP_SPAWNS):
        rec = _worker("setup", args, deadline, ("--spawned-at", repr(time.time())))
        out.append(rec[-1]["setup_s"] * rec[-1]["scale"])
    return out


def tail(latencies: list[float]) -> tuple[int, float]:
    """(p, value): the highest integer percentile p whose nearest-rank value
    has at least ten samples above it."""
    xs = sorted(latencies)
    n = len(xs)
    p = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(p * n / 100))
    return p, xs[rank - 1]


def _check_reports(first: list[dict]) -> tuple[list[str], dict[str, int]]:
    """Oracle checks on the first pass, which carries the full reports."""
    problems, errors = [], {}
    for rec in first:
        op = rec["op"]
        if rec["status"] != 0:
            try:
                error = json.loads(rec["report"]).get("error", "")
            except json.JSONDecodeError:
                error = "crash" if rec["crash"] else "no report"
            key = f"exit {rec['status']}: {error[:90]}"
            errors[key] = errors.get(key, 0) + 1
            continue
        body = json.loads(rec["report"])["body"]
        for msg in oracle.check(op, body):
            problems.append(f"op {op['id']} ({' '.join(op['argv'][1:])}): {msg}")
    return problems, errors


def _check_passes(passes: dict[str, list[dict]], first: list[dict]) -> list[str]:
    """Every pass gives each op the first pass's exit status and report
    bytes, and no op raises out of the CLI."""
    problems = []
    for name, records in passes.items():
        if [r["id"] for r in records] != [r["id"] for r in first]:
            problems.append(f"{name}: ran other ops than the first pass")
            continue
        for rec, ref in zip(records, first):
            if rec["crash"]:
                sys.stderr.write(f"{name}, op {rec['id']} raised:\n{rec['crash']}")
                problems.append(f"{name}, op {rec['id']}: raised out of orbitint.cli.main")
            elif (rec["status"], rec["digest"]) != (ref["status"], ref["digest"]):
                problems.append(f"{name}, op {rec['id']}: exit {rec['status']} and report "
                                f"differ from the first pass")
    return problems


def _layer_metrics(spans: list[list], counts: dict, untraced_wall: float):
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    total = {name: 0.0 for name in SPAN_METRICS}
    op_time = op_self = 0.0
    for (name, start, end, _, _), inner in zip(spans, child):
        if name == "op":
            op_time += end - start
            op_self += end - start - inner
        else:
            total[name] += end - start
    m = {f"{name}_s": (v, "s") for name, v in total.items()}
    m["integrality.witness_s"] = (total["integrality.cell"] - total["exactarith.verdict"], "s")
    for name, unit in COUNT_METRICS.items():
        m[name] = (counts.get(name, 0), unit)
    non_integral = counts.get("integrality.cells", 0) - counts.get("integrality.integral_cells", 0)
    complete = non_integral - counts.get("integrality.incomplete_witnesses", 0)
    m["integrality.witness_yield"] = (complete / non_integral if non_integral else 0.0, "ratio")
    m["cli.other_s"] = (op_self, "s")
    m["trace.coverage"] = ((op_time - op_self) / op_time if op_time else 0.0, "ratio")
    m["trace.overhead_s"] = (op_time - untraced_wall, "s")
    notes = {"integrality.witness_yield": f"base {non_integral} non-integral cells",
             "trace.overhead_s": f"traced {op_time:.4f} s - untraced {untraced_wall:.4f} s"}
    return m, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "orbitint" / "cli.py").is_file():
        sys.stderr.write(f"run.py: no orbitint sources under {ROOT / 'src'}\n")
        return 2
    # reports are decoded here, never inside orbitint's process, so lifting
    # the int->str digit limit cannot hide a limit orbitint itself hits
    sys.set_int_max_str_digits(0)
    deadline = time.monotonic() + BUDGET_S

    try:
        # setup spawns sit between the passes, so that they meet the
        # machine's phases as the passes do, not all in one
        setup, runs = [], []
        for i in range(PASSES + 1):
            if args.trace == 0:
                setup += _setup_seconds(args, deadline)
            if i < PASSES:
                runs.append(_worker("run", args, deadline, ("--reports",) if i == 0 else ()))
        traced = _worker("trace", args, deadline) if args.trace else None
    except BenchError as exc:
        sys.stderr.write(f"run.py: {exc}\n")
        return 1

    ends = [records.pop() for records in runs]
    first = runs[0]
    problems, errors = _check_reports(first)
    passes = {f"pass {i + 1}": records for i, records in enumerate(runs)}
    if traced:
        tr_end = traced.pop()
        passes["traced pass"] = traced
    problems += _check_passes(passes, first)
    # an op's latency is its lower scaled time of the two passes: the scale
    # takes out the machine's phases, the lower pass a burst within one op
    latencies = [min(by_pass) for by_pass in zip(*([r["latency"] * r["scale"] for r in records]
                                                 for records in runs))]
    measured_wall = sum(min(by_pass) for by_pass in zip(*([r["latency"] for r in records]
                                                          for records in runs)))
    attempted = len(latencies) * PASSES
    failed = sum(1 for records in runs for r in records if r["status"] != 0)

    lines = [f"workload {args.workload} seed {args.seed}: {len(first)} ops in the fixed list, "
             f"{PASSES} passes, {ends[0]['rejected_maps']} maps rejected by parse_map",
             "pass wall times, measured: " + ", ".join(
                 f"{sum(r['latency'] for r in records):.3f} s" for records in runs)
             + "; median probe scale: " + ", ".join(
                 f"{statistics.median(r['scale'] for r in records):.3f}" for records in runs)]
    wall = sum(latencies)
    notes = {}
    if args.trace == 0:
        p, tail_value = tail(latencies)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (wall, "s"),
            "op_p50_s": (statistics.median(latencies), "s"),
            "op_tail_s": (tail_value, "s"),
            "peak_rss_mb": (statistics.median(e["rss_kb"] for e in ends) / 1024, "MB"),
        }
        notes = {"setup_s": f"median of {len(setup)} sequential spawns, reference s",
                 "wall_s": f"sum of {len(latencies)} op latencies, reference s; "
                           f"{measured_wall:.3f} s measured",
                 "op_p50_s": f"{len(latencies)} samples",
                 "op_tail_s": f"p{p} of {len(latencies)} samples",
                 "peak_rss_mb": f"median of {PASSES} passes"}
        lines.append(f"error_rate = {failed / attempted:.4f} ratio "
                     f"({failed} of {attempted} ops exited non-zero)")
    else:
        metrics, notes = _layer_metrics(tr_end["spans"], tr_end["counts"], measured_wall)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"trace-{args.workload}-{args.seed}.json"
        span_file.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                         "spans": tr_end["spans"]}))
        lines.append(f"{len(tr_end['spans'])} spans written to {span_file.relative_to(ROOT)}")
    for key, count in sorted(errors.items()):
        lines.append(f"failed ops in the first pass: {count} x {key}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"{name} = {value:.6g} {unit}{note}")
    for msg in problems:
        lines.append(f"CHECK: {msg}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
