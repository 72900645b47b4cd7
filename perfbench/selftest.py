"""Self-test of the benchmark on tiny versions of its workloads.

    python3 perfbench/selftest.py        (from the root of a checkout)

Runs each workload's smoke ops untraced and traced, and shows that:
every metric `BENCHMARK.json` names is printed with its unit; the tracer
sees calls that cross module boundaries; a corrupted golden value is
caught, and a probability may move only as far as the refined times before
it allow; an op past its deadline counts as failed and is left out of
`wall_s`, both when the worker stops it and when the worker must be
killed, and no worker is left running. Takes a few seconds; exits 1 if any check fails.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Op, workload_ops  # noqa: E402

#: the self-test's scratch directory, relative to the checkout root
WORK = Path(run.WORK_DIR) / "selftest"
SLOW_OP = Op("verify-cross-7", ("verify", "--topology", "cross", "--n", "7"), "none")


class Checker:
    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            self.failures.append(what)


def _units_ok(metrics: dict, spec: dict) -> bool:
    return set(metrics) == set(spec) and all(
        metrics[k]["unit"] == unit and isinstance(metrics[k]["value"], (int, float))
        for k, unit in spec.items())


def check_spec(c: Checker, root: Path) -> None:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    c.expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
             "BENCHMARK.json names the benchmark's workloads")
    c.expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
             "BENCHMARK.json end_to_end metrics match run.py")
    c.expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
             "BENCHMARK.json per_layer metrics match run.py")


#: per-layer counts each smoke workload must show, proving the wrappers see
#: calls made through other modules' bindings
EXPECTED_COUNTS = {
    "tables": {"dynamics.eigh_calls": 2, "dynamics.amplitude_rows_calls": 2},
    "protocol2": {"protocols.steps_planned": 20, "measurement.post_state_calls": 20},
    "scan": {"dynamics.evolve_calls": 1001, "measurement.outcome_calls": 1001},
    "oracle": {"oracle.full_dim_sum": 2 * (3 ** 5 + 3 ** 4)},
}


def check_workloads(c: Checker, root: Path, work: Path, env: dict) -> None:
    with open(work / "setup.log", "ab") as log:
        setup = run.measure_setup(root, env, log, samples=2)
    for name in WORKLOADS:
        ops = workload_ops(name, DEFAULT_SEED, WORK, smoke=True)
        with run.OpRunner(root, work, name, False, env) as s:
            plain = s.run_pass(ops)
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        with run.OpRunner(root, work, name, True, env) as s:
            traced = s.run_pass(ops)
        bad = [(r["op_id"], r["status"], r.get("error")) for r in plain + traced
               if r["status"] != "ok"]
        c.expect(not bad, f"{name}: every smoke op passes its checks {bad or ''}")
        e2e = run.end_to_end([plain], setup, rss)
        layer = run.per_layer(traced, run.pass_wall(plain), 0.0)
        print(json.dumps({"workload": name, "metrics": e2e | layer}))
        c.expect(_units_ok(e2e, run.END_TO_END) and _units_ok(layer, run.PER_LAYER),
                 f"{name}: every metric is printed with its unit")
        got = {k: layer[k]["value"] for k in EXPECTED_COUNTS[name]}
        c.expect(got == EXPECTED_COUNTS[name], f"{name}: traced counts {got}")


def check_golden(c: Checker, root: Path, work: Path, env: dict) -> None:
    op = workload_ops("tables", DEFAULT_SEED, WORK, smoke=True)[0]
    golden = work / "golden"
    target = golden / "tables" / f"{op.golden}.csv"
    target.parent.mkdir(parents=True, exist_ok=True)
    original = (run.GOLDEN_DIR / "tables" / f"{op.golden}.csv").read_text()
    lines = original.splitlines()
    last_p = float(lines[-1].split(",")[-1])
    corruptions = {
        "none": original,
        "probability off by 2e-9": "\n".join(
            lines[:-1] + [",".join(lines[-1].split(",")[:-1] + [repr(last_p + 2e-9)])]) + "\n",
        "integer off by one": original.replace("5,0.9,6", "5,0.9,7"),
    }
    with run.OpRunner(root, work, "tables", False, env, golden_dir=golden) as s:
        for label, text in corruptions.items():
            target.write_text(text)
            status = s.run_op(op)["status"]
            want = "ok" if label == "none" else "mismatch"
            c.expect(status == want, f"golden with {label}: op status {status}")
    shutil.rmtree(golden)


def check_time_scaled_tolerance(c: Checker) -> None:
    golden = (run.GOLDEN_DIR / "protocol2" / "protocol2-loop-4.csv").read_text()
    lines = golden.splitlines()
    first = next(k for k, line in enumerate(lines) if line.startswith("1,"))

    def edited(*edits: tuple[int, int, float]) -> str:
        """The golden text with (row, column, delta) added to numeric cells."""
        out = list(lines)
        for row, col, delta in edits:
            fields = out[first + row].split(",")
            fields[col] = repr(float(fields[col]) + delta)
            out[first + row] = ",".join(fields)
        return "\n".join(out) + "\n"

    t_1, p_3 = (0, 5), (2, 2)  # (row, column) of t_1 and of P_n in row 3
    cases = {"P_3 off by 1e-5 after t_1 moved by 5e-7": (edited((*t_1, 5e-7), (*p_3, 1e-5)), True),
             "P_3 off by 1e-5, no time moved": (edited((*p_3, 1e-5)), False),
             "P_3 off by 1e-3 after t_1 moved by 5e-7": (edited((*t_1, 5e-7), (*p_3, 1e-3)), False)}
    for label, (text, want_ok) in cases.items():
        try:
            checks.compare(golden, text)
            ok = True
        except checks.CheckFailed:
            ok = False
        c.expect(ok == want_ok, f"{label}: {'accepted' if ok else 'caught'}")


def check_deadline(c: Checker, root: Path, work: Path, env: dict) -> None:
    quick = workload_ops("oracle", DEFAULT_SEED, WORK, smoke=True)[0]
    with run.OpRunner(root, work, "oracle", False, env, deadline=0.5) as s:
        results = [s.run_op(SLOW_OP), s.run_op(quick)]
        c.expect([r["status"] for r in results] == ["deadline", "ok"],
                 "op past its deadline fails; the worker serves the next op")
        c.expect(run.pass_wall(results) == results[1]["elapsed_s"],
                 "wall_s leaves out the time of the op past its deadline")
        rate = run.end_to_end([results], [1.0], 1.0)["error_rate"]["value"]
        c.expect(rate == 2 / 3, f"one of two ops failed: error_rate {rate} = (1+1)/(2+1)")
    with run.OpRunner(root, work, "oracle", False, env, deadline=0.2, grace=0.5) as s:
        s.run_op(quick)
        proc = s.worker.proc
        os.kill(proc.pid, signal.SIGSTOP)  # a worker that cannot stop itself
        status = s.run_op(SLOW_OP)["status"]
        c.expect(status == "killed" and proc.poll() is not None,
                 f"unresponsive worker is killed and reaped (status {status})")
        c.expect(s.run_op(quick)["status"] == "ok", "a fresh worker serves the next op")


def main() -> int:
    root = Path.cwd()
    work = root / WORK
    work.mkdir(parents=True, exist_ok=True)
    env = run.child_env()
    c = Checker()
    check_spec(c, root)
    check_workloads(c, root, work, env)
    check_golden(c, root, work, env)
    check_time_scaled_tolerance(c)
    check_deadline(c, root, work, env)
    print(f"{len(c.failures)} failed check(s)" if c.failures else "all checks passed")
    return 1 if c.failures else 0


if __name__ == "__main__":
    sys.exit(main())
