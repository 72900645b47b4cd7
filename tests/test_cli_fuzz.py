"""Random command lines, each run as `python -m qutrit_bell.cli` in a child process of its
own: every one ends in a documented exit code (0 ok, 1 usage, 2 precondition, 3
verification), never in a traceback.

The child limits its own address space and wall time before it runs the module, as
`-m` runs it, so an allocation the CLI did not size ends in numpy's MemoryError and a run
it did not bound in SIGALRM; the test process keeps its limits. The value pools keep
every admitted run small: a run's output volume is not part of its cost.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

DATA = Path(__file__).resolve().parent / "data"
SRC = DATA.parent.parent / "src"
CHILD_ADDRESS_SPACE = 3 * 10**9  # bytes, as `ulimit -v 3000000` (KiB) sets it
CHILD_SECONDS = 30
CHILD = ("import resource, runpy, signal; "
         f"resource.setrlimit(resource.RLIMIT_AS, ({CHILD_ADDRESS_SPACE}, "
         f"{CHILD_ADDRESS_SPACE})); signal.alarm({CHILD_SECONDS}); "
         "runpy.run_module('qutrit_bell.cli', run_name='__main__', alter_sys=True)")

COMMANDS = ["scan", "peaks", "protocol1", "protocol2", "verify", "plot"]
FLAG_VALUES = {
    "--topology": ["cross", "loop", "custom", "ring"],
    "--topology-file": [str(DATA / name) for name in (
        "cross5.txt", "no-role-exchange.txt", "sites-40.txt", "sites-1e8.txt",
        "missing.txt")],
    "--n": ["-3", "0", "1", "3", "4", "5", "9", "12", "1000000", "five"],
    "--n-list": ["4", "5,9", "12", ",", "4,banana", "1000", "0"],
    "--t-max": ["-1", "0", "nan", "inf", "1e300", "0.001", "2", "30"],
    "--grid-step": ["-1", "0", "nan", "1e-12", "1e-3", "0.01", "1", "60", "1e300"],
    "--refine-tol": ["0", "1e-6", "nan", "1"],
    "--tau": ["-2", "0", "nan", "1", "6.5", "1e7"],
    "--n-max": ["-1", "0", "3", "20", "x"],
    "--targets": ["0.5,0.9", "0", ",", "1.5", "x"],
    "--strategy": ["peak-success", "min-loss", "max-margin", "best"],
    "--format": ["csv", "json", "xml"],
    "--output": ["/dev/null", "/", "/nonexistent/x.csv", "/dev/full"],
    "--config": ["{CONFIG}/flags.json", "{CONFIG}/list.json", "{CONFIG}/broken.json",
                 "{CONFIG}/missing.json"],
}
CONFIGS = {"flags.json": '{"topology": "loop", "n": 4, "t_max": 2, "no_timestamp": true}',
           "list.json": "[1, 2]", "broken.json": "{"}

flags = st.lists(st.sampled_from(sorted(FLAG_VALUES)).flatmap(
    lambda flag: st.tuples(st.just(flag), st.sampled_from(FLAG_VALUES[flag]))), max_size=6)
argvs = st.tuples(st.sampled_from(COMMANDS), flags).map(
    lambda drawn: [drawn[0], *(item for pair in drawn[1] for item in pair)])


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", CHILD, *argv], stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, env=env,
                          timeout=2 * CHILD_SECONDS)


@settings(max_examples=34, deadline=None, derandomize=True, database=None)
@given(argv=argvs)
# each of these ended in a traceback with exit 1: the 10^8-point grids under a 3 GB
# address space, and output paths that cannot be opened, found after the run
@example(argv=["protocol2", "--topology", "cross", "--n", "9", "--t-max", "1e6"])
@example(argv=["peaks", "--topology", "loop", "--n-list", "4", "--t-max", "1e6"])
@example(argv=["scan", "--topology", "loop", "--n", "4", "--output", "/"])
@example(argv=["scan", "--topology", "loop", "--n", "4", "--output", "/nonexistent/x.csv"])
def test_every_command_line_ends_in_a_documented_exit(argv, tmp_path_factory):
    configs = tmp_path_factory.getbasetemp() / "fuzz-configs"
    configs.mkdir(exist_ok=True)
    for name, text in CONFIGS.items():
        (configs / name).write_text(text)
    argv = [arg.replace("{CONFIG}", str(configs)) for arg in argv]
    proc = run_child(argv)
    assert proc.returncode in (0, 1, 2, 3), (argv, proc.returncode, proc.stderr)
    assert "Traceback" not in proc.stderr, (argv, proc.stderr)
