"""Benchmark worker: one process that runs CLI ops one after another.

    python3 perfbench/worker.py --root <checkout> [--trace] [--probe]

It imports `qutrit_bell.cli` from `<checkout>/src` and writes a `ready` line.
With `--probe` it exits there (the parent times that as set-up). Otherwise
it reads one JSON request per line on stdin,

    {"op_id": ..., "argv": [...], "deadline_s": ...}

runs `cli.main(argv)` under a SIGALRM deadline, and answers with one JSON
line: exit code, status, elapsed seconds and, with `--trace`, the op's spans
and per-layer aggregates. The protocol uses a private copy of stdout; the
process's own stdout goes to stderr, so nothing the program prints can
corrupt it.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
import traceback
from pathlib import Path


class OpDeadline(BaseException):
    """Raised by SIGALRM inside the op; not an Exception, so no handler eats it."""


def _on_alarm(signum, frame):
    raise OpDeadline()


def run_op(cli, tracer, request: dict) -> dict:
    reply = {"op_id": request["op_id"], "code": None, "status": "ok", "error": None}
    if tracer is not None:
        tracer.begin_op(request["op_id"])
        tracer.enter("cli", "self", "cli.main")
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, request["deadline_s"])
        try:
            reply["code"] = cli.main(list(request["argv"]))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpDeadline:
        reply["status"] = "deadline"
    except SystemExit as exc:  # argparse usage errors exit through here
        reply["code"] = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a broken op must not end the worker; report it
        reply["status"] = "error"
        reply["error"] = traceback.format_exc(limit=8)
    reply["elapsed_s"] = time.perf_counter() - start
    if tracer is not None:
        tracer.exit(failed=reply["status"] != "ok")
        reply["trace"] = tracer.op_record()
    return reply


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(Path(args.root) / "src"))
    from qutrit_bell import cli

    channel = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    channel.write("ready\n")
    channel.flush()
    if args.probe:
        return 0

    tracer = None
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    signal.signal(signal.SIGALRM, _on_alarm)
    for line in sys.stdin:
        reply = run_op(cli, tracer, json.loads(line))
        channel.write(json.dumps(reply) + "\n")
        channel.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
