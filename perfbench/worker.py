"""One benchmark process: imports orbitint from the checkout, generates the
seeded fixed op list, warms up, then runs one pass over the list in a closed
loop (one op at a time).  Every pass runs in a fresh process, so no cache
carries over from one pass to the next.

Modes:
  setup  import and generate the fixed op list, print the elapsed time and
         the machine-speed scale a probe then sees (probe.py), exit
  run    one pass through ``orbitint.cli.main``, each op timed, with a probe
         before the first op and after each one
  trace  one pass with spans around the layer functions (tracing.py)

Every record goes to stdout as one JSON line; the parent process checks the
reports, so this process holds no report longer than one op.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import probe  # noqa: E402
import workloads  # noqa: E402


def _import_cli():
    from orbitint import cli
    from orbitint.mapexpr import parse_map

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"orbitint imported from {cli.__file__}, not from {SRC}")
    return cli, parse_map


def _accepts(parse_map):
    def accepts(text: str) -> bool:
        try:
            parse_map(text)
        except ValueError:
            return False
        return True

    return accepts


def _warm_up(cli) -> None:
    for argv in workloads.WARMUP_ARGVS:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)


def _run_op(cli, argv: list[str]) -> tuple[float, int, str, str | None]:
    buf = io.StringIO()
    crash = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            status = cli.main(argv)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crashed op is recorded; the parent fails the run
        status = 1
        crash = traceback.format_exc()
    latency = time.perf_counter() - t0
    return latency, status, buf.getvalue(), crash


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--reports", action="store_true",
                    help="run mode: emit each op and its full report")
    ap.add_argument("--spawned-at", type=float, help="setup mode: time.time() at spawn")
    args = ap.parse_args()
    out = sys.stdout

    def emit(record: dict) -> None:
        out.write(json.dumps(record) + "\n")
        out.flush()

    cli, parse_map = _import_cli()
    stream = workloads.OpStream(args.workload, args.seed, _accepts(parse_map))
    ops = stream.take(workloads.fixed_count(args.workload, args.seconds))
    if args.mode == "setup":
        setup_s = time.time() - args.spawned_at
        emit({"setup_s": setup_s,
              "scale": probe.scale(probe.SETUP_PROBE, probe.measure(probe.SETUP_PROBE, 3))})
        return 0

    _warm_up(cli)
    tracer = None
    if args.mode == "trace":
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    kind = probe.WORKLOAD_PROBE[args.workload]
    before = probe.measure(kind)
    for op in ops:
        scale = None
        if tracer is None:
            latency, status, report, crash = _run_op(cli, op["argv"])
            after = probe.measure(kind)
            scale = probe.scale(kind, (before + after) / 2)
            before = after
        else:
            tracer.op = op["id"]
            with tracer.span("op"):
                latency, status, report, crash = _run_op(cli, op["argv"])
            tracer.add("report.bytes", len(report))
        record = {"id": op["id"], "latency": latency, "scale": scale,
                  "status": status, "crash": crash,
                  "digest": hashlib.sha256(report.encode()).hexdigest()}
        if args.reports:
            record.update(op=op, report=report)
        emit(record)
    end = {"end": True, "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "rejected_maps": stream.rejected}
    if tracer is not None:
        end.update(spans=tracer.spans, counts=tracer.counts)
    emit(end)
    return 0


if __name__ == "__main__":
    sys.exit(main())
