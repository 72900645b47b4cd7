"""qutrit-bell benchmark: CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {tables,protocol2,scan,oracle} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout. One worker process (`worker.py`) imports
`qutrit_bell.cli` from `src/` and runs the workload's ops one after another,
each op starting when the previous one returns (one closed-loop caller).
Whole passes over the op list repeat until `--seconds` have been measured.
Every op has the same deadline; an op past it is ended and counted failed,
and its time is left out of `wall_s`. Each output is checked against its
golden file and the subcommand's invariants (`checks.py`).

`--trace 0` prints the end-to-end metrics. `--trace 1` runs the same
untraced passes, then one traced pass in a fresh worker whose layer
functions are wrapped by `tracing.py`, and prints the per-layer metrics.
The last stdout line is the result object; the line before it holds the
machine record and diagnostics. Spans, per-op details and every op's
output (`out/<workload>/<op_id>.csv`) go to `.perfbench_work/` in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import CheckFailed, check_output  # noqa: E402
from workloads import WORKLOADS, Op, workload_ops  # noqa: E402

#: per-op deadline: 1.5x the slowest op that succeeds at seed (about 13.5 s
#: on 2 cores), and small enough that the two ops that hang at seed keep a
#: run of every workload inside the run-time budget
DEADLINE_S = 20.0
#: after the deadline the worker has this long to answer before it is killed
GRACE_S = 10.0
SETUP_SAMPLES = 5
READY_TIMEOUT_S = 120.0
WORK_DIR = ".perfbench_work"
GOLDEN_DIR = HERE / "golden"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "error_rate": "ratio"}
_LAYER_TIMES = {
    "topology": ("build", "automorphism", "other"),
    "dynamics": ("assemble", "eigh", "amplitude_rows", "find_peak", "evolve", "other"),
    "measurement": ("outcome", "post_state", "other"),
    "protocols": ("plan", "report", "other"),
    "oracle": ("su3", "sector", "compare", "symmetry", "other"),
    "cli": ("self",),
}
_COUNTS = ("dynamics.eigh_calls", "dynamics.eigh_dim_sum", "dynamics.amplitude_rows_calls",
           "dynamics.refine_calls", "dynamics.evolve_calls", "measurement.outcome_calls",
           "measurement.post_state_calls", "protocols.steps_planned",
           "protocols.report_failed", "oracle.full_dim_sum", "oracle.failed", "trace.spans")
PER_LAYER = {
    **{f"{layer}.{g}_s": "s" for layer, groups in _LAYER_TIMES.items() for g in groups},
    **{name: "count" for name in _COUNTS},
    "dynamics.phase_bytes": "bytes",
    "dynamics.evolve_p50_s": "s",
    "dynamics.evolve_p99_s": "s",
    "protocols.steps_ratio": "ratio",
    **{f"{layer}.rss_rise_mb": "MB" for layer in _LAYER_TIMES},
    "trace.overhead_s": "s",
    "check.max_dev": "abs",
}

FAILED = {"deadline", "killed", "crashed", "error", "exit", "mismatch"}
#: failures that end at the deadline; their time is the deadline, not work
TIMED_OUT = {"deadline", "killed"}
#: failures that mean a wrong result, not only a slow one
INCORRECT = {"crashed", "error", "exit", "mismatch"}


class BenchError(Exception):
    """The benchmark cannot run here (no program, or the worker does not start)."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    """Environment for workers: BLAS/OpenMP threads capped at nproc."""
    env = dict(os.environ)
    cap = nproc()
    for var in THREAD_VARS:
        try:
            want = int(env.get(var, cap))
        except ValueError:
            want = cap
        env[var] = str(max(1, min(want, cap)))
    return env


def machine_record(env: dict[str, str]) -> dict:
    import networkx
    import numpy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        libs = {k: {f: deps[k].get(f) for f in ("name", "version", "openblas configuration")}
                for k in ("blas", "lapack")}
    except (TypeError, KeyError):  # numpy without mode="dicts"
        libs = {"blas": "see numpy.show_config()", "lapack": "see numpy.show_config()"}
    return {"nproc": nproc(), "cpu_count": os.cpu_count(), **libs,
            "threads": {var: env[var] for var in THREAD_VARS},
            "python": platform.python_version(), "numpy": numpy.__version__,
            "networkx": networkx.__version__, "platform": platform.platform()}


def _read_line(stream, timeout: float) -> bytes | None:
    """One line from a pipe, or None if nothing arrives within timeout."""
    ready, _, _ = select.select([stream], [], [], max(timeout, 0.0))
    return stream.readline() if ready else None


class Worker:
    """A worker process; lives until closed, killed or crashed."""

    def __init__(self, root: Path, traced: bool, env: dict, log, probe: bool = False):
        cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root)]
        cmd += ["--trace"] * traced + ["--probe"] * probe
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=log, env=env, cwd=root)
        line = _read_line(self.proc.stdout, READY_TIMEOUT_S)
        if line != b"ready\n":
            self.kill()
            raise BenchError("worker did not start; see the worker log in " + WORK_DIR)

    @property
    def alive(self) -> bool:
        return self.proc.poll() is None

    def run(self, op: Op, argv: list[str], deadline: float, grace: float) -> dict:
        start = time.perf_counter()
        request = {"op_id": op.op_id, "argv": argv, "deadline_s": deadline}
        try:
            self.proc.stdin.write(json.dumps(request).encode() + b"\n")
            self.proc.stdin.flush()
            line = _read_line(self.proc.stdout, deadline + grace)
        except BrokenPipeError:
            line = b""
        if not line:
            status = "killed" if line is None else "crashed"
            self.kill()
            return {"op_id": op.op_id, "status": status, "code": None,
                    "elapsed_s": time.perf_counter() - start}
        return json.loads(line)

    def kill(self) -> None:
        self.proc.kill()
        self.close()

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class OpRunner:
    """Runs ops in a worker, respawning it after a kill, and checks outputs."""

    def __init__(self, root: Path, work: Path, workload: str, traced: bool, env: dict,
                 deadline: float = DEADLINE_S, grace: float = GRACE_S,
                 golden_dir: Path | None = GOLDEN_DIR):
        self.root, self.workload = root, workload
        self.traced, self.env = traced, env
        self.deadline, self.grace = deadline, grace
        self.golden_dir = golden_dir
        self.out_dir = work / "out" / workload
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.log = open(work / f"worker-{workload}.log", "ab")
        self.worker: Worker | None = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        if self.worker is not None:
            self.worker.close()
            self.worker = None
        self.log.close()

    def run_op(self, op: Op) -> dict:
        if self.worker is None or not self.worker.alive:
            self.worker = Worker(self.root, self.traced, self.env, self.log)
        out = self.out_dir / f"{op.op_id}.csv"
        out.unlink(missing_ok=True)
        argv = list(op.argv) + ["--no-timestamp", "--output", str(out)]
        res = self.worker.run(op, argv, self.deadline, self.grace)
        res["max_dev"] = 0.0
        if res["status"] == "ok" and res["code"] != 0:
            res["status"] = "exit"
        if res["status"] == "ok":
            golden = None
            if self.golden_dir is not None:
                golden = self.golden_dir / self.workload / f"{op.golden}.csv"
            try:
                res["max_dev"] = check_output(op.argv[0], out, golden)
            except CheckFailed as exc:
                res["status"], res["error"] = "mismatch", str(exc)
        return res

    def run_pass(self, ops: list[Op]) -> list[dict]:
        return [self.run_op(op) for op in ops]


def measure_setup(root: Path, env: dict, log, samples: int = SETUP_SAMPLES) -> list[float]:
    """Seconds from process start until `qutrit_bell.cli` is imported and ready."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        worker = Worker(root, False, env, log, probe=True)  # returns once `ready` is read
        times.append(time.perf_counter() - start)
        worker.close()
    return times


def pass_wall(results: list[dict]) -> float:
    """Seconds of the ops that ended before their deadline.

    Timed-out ops already count in `error_rate`; their time is the deadline,
    a constant that would hide changes in the time of the other ops.
    """
    return sum(r["elapsed_s"] for r in results if r["status"] not in TIMED_OUT)


def end_to_end(passes: list[list[dict]], setup: list[float], rss_mb: float) -> dict:
    """The end-to-end metrics.

    error_rate counts one pseudo-failure, (failed + 1) / (attempted + 1) per
    pass, so it is never 0 and every extra failed op still raises it.
    """
    n_ops = len(passes[0])
    failed = statistics.mean(sum(r["status"] in FAILED for r in p) for p in passes)
    values = {"wall_s": statistics.median(pass_wall(p) for p in passes),
              "setup_s": statistics.median(setup),
              "peak_rss_mb": rss_mb,
              "error_rate": (failed + 1.0) / (n_ops + 1.0)}
    return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}


def per_layer(traced: list[dict], untraced_wall: float, max_dev: float) -> dict:
    totals: dict[str, float] = defaultdict(float)
    evolve: list[float] = []
    for r in traced:
        trace = r.get("trace") or {}
        for k, v in trace.get("totals", {}).items():
            totals[k] += v
        evolve += trace.get("evolve_s", [])
    evolve.sort()
    if evolve:
        totals["dynamics.evolve_p50_s"] = statistics.median(evolve)
        totals["dynamics.evolve_p99_s"] = evolve[min(len(evolve) - 1,
                                                     int(0.99 * len(evolve)))]
    if totals["protocols.steps_requested"]:
        totals["protocols.steps_ratio"] = (totals["protocols.steps_planned"]
                                           / totals["protocols.steps_requested"])
    totals["trace.overhead_s"] = pass_wall(traced) - untraced_wall
    totals["check.max_dev"] = max_dev
    return {k: {"value": totals.get(k, 0.0), "unit": unit} for k, unit in PER_LAYER.items()}


def op_summary(r: dict) -> dict:
    return {k: r.get(k) for k in ("op_id", "status", "code", "elapsed_s", "max_dev", "error")}


def run(args) -> dict:
    root = Path.cwd()
    if not (root / "src" / "qutrit_bell" / "cli.py").is_file():
        raise BenchError("run from the root of a qutrit-bell checkout (no src/qutrit_bell)")
    work = root / WORK_DIR
    work.mkdir(exist_ok=True)
    env = child_env()
    ops = workload_ops(args.workload, args.seed, Path(WORK_DIR))  # relative: outputs echo it
    machine = machine_record(env)
    setup = []
    if not args.trace:  # set-up time is an end-to-end metric only
        with open(work / "setup.log", "ab") as log:
            setup = measure_setup(root, env, log)
    passes = []
    with OpRunner(root, work, args.workload, False, env) as s:
        stop = time.perf_counter() + args.seconds
        while not passes or time.perf_counter() < stop:
            passes.append(s.run_pass(ops))
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    results = [r for p in passes for r in p]
    traced = []
    if args.trace:
        with OpRunner(root, work, args.workload, True, env) as s:
            traced = s.run_pass(ops)
        results += traced
    max_dev = max(r["max_dev"] for r in results)
    if args.trace:
        untraced_wall = statistics.median(pass_wall(p) for p in passes)
        metrics = per_layer(traced, untraced_wall, max_dev)
    else:
        metrics = end_to_end(passes, setup, rss_mb)

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine, "passes": len(passes), "setup_s": setup,
              "ops": [op_summary(r) for r in results], "check.max_dev": max_dev}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (work / f"result-{stem}.json").write_text(json.dumps({**detail, "metrics": metrics}))
    if traced:
        spans = [s for r in traced for s in (r.get("trace") or {}).get("spans", [])]
        (work / f"spans-{stem}.json").write_text(json.dumps(
            {"fields": ["op_id", "span_id", "parent_id", "name", "start", "end", "failed"],
             "spans": spans}))
    print(json.dumps({k: detail[k] for k in ("machine", "passes", "check.max_dev")}
                     | {"failed_ops": [r["op_id"] for r in results if r["status"] in FAILED]}))
    return {"correct": not any(r["status"] in INCORRECT for r in results),
            "attempted": len(results),
            "failed": sum(r["status"] in FAILED for r in results),
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
