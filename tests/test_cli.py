import importlib
import inspect
import json
import math
import os
import pkgutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

import qutrit_bell
from conftest import time_budget
from qutrit_bell import (Strategy, clear_caches, cli, dynamics, measurement, oracle,
                         plan_protocol2)
from qutrit_bell.cli import _config_echo, _fmt, _write_table, build_parser, main
from qutrit_bell.dynamics import MAX_WORK, _peak_cost, _spectral_cost
from qutrit_bell.measurement import _scan_cost
from qutrit_bell.oracle import _verify_cost
from qutrit_bell.protocols import _plan_cost
from qutrit_bell.topology import build_cross, build_loop

DATA = Path(__file__).resolve().parent / "data"
CROSS5 = str(DATA / "cross5.txt")  # cross-5 as a custom topology file
SITES_40 = str(DATA / "sites-40.txt")  # one site past the oracle's int64 state index

# N = 10^6 would take seconds and hundreds of MB to build: the guard
# must refuse it before the graph exists. A custom file's N is sized the
# same way, before its graph is built: a 10^8-site graph does not fit in memory
EIGENSYSTEM_REFUSALS = [
    ["scan", "--topology", "loop", "--n", "1000"],
    ["peaks", "--topology", "loop", "--n-list", "4,1000"],
    ["scan", "--topology", "loop", "--n", "1000000"],
    ["verify", "--topology", "loop", "--n", "1000000"],
    ["scan", "--topology", "custom", "--topology-file", str(DATA / "sites-1e8.txt"),
     "--n", "100000000"],
    ["peaks", "--topology", "custom", "--topology-file", str(DATA / "sites-1e8.txt"),
     "--n-list", "100000000"],
    ["verify", "--topology", "custom", "--topology-file", str(DATA / "sites-1e6.txt"),
     "--n", "1000000"],
]

# each grid would need terabytes or more, which numpy cannot allocate:
# the CLI must refuse it before building it
GRID_REFUSALS = [
    ["scan", "--topology", "loop", "--n", "4", "--grid-step", "1e-12"],
    ["scan", "--topology", "loop", "--n", "4", "--t-max", "1e300"],
    ["peaks", "--topology", "loop", "--n-list", "4", "--grid-step", "1e-13"],
    ["protocol1", "--topology", "loop", "--n-list", "4", "--grid-step", "1e-13"],
    ["protocol2", "--topology", "loop", "--n", "4", "--grid-step", "1e-12"],
    ["verify", "--topology", "loop", "--n", "4", "--t-max", "1e12"],
]

# protocol2's planned steps, per-step table and series are --n-max long:
# 10^10 steps would need terabytes
SERIES_REFUSALS = [
    ["protocol2", "--topology", "loop", "--n", "4", "--n-max", "10000000000"],
    ["protocol2", "--topology", "loop", "--n", "4", "--n-max", "10000000000", "--tau", "1"],
]

# grids of two points and of 21, so the grid guard passes them; loop-4 costs about
# 2e3 entry steps per unit of R t_max (`measurement._scan_cost`)
SCAN_COST_REFUSALS = [["--t-max", "1e300", "--grid-step", "1e300"],
                      ["--t-max", "2e6", "--grid-step", "1e5"]]

JSON_SCAN_FLAGS = [["--grid-step", "1e-12"], ["--t-max", "1e300"],
                   ["--t-max", "1e15", "--grid-step", "1e3"]]

INVALID_FLAGS = [
    ["scan", "--topology", "cross", "--n", "5", "--grid-step", "0"],
    ["scan", "--topology", "cross", "--n", "5", "--grid-step", "-0.1"],
    ["scan", "--topology", "cross", "--n", "5", "--t-max", "nan"],
    ["scan", "--topology", "cross", "--n", "5", "--t-max", "inf"],
    ["peaks", "--topology", "cross", "--n-list", "5", "--t-max", "-1"],
    ["protocol2", "--topology", "cross", "--n", "5", "--tau", "nan"],
    ["protocol2", "--topology", "cross", "--n", "5", "--refine-tol", "0"],
    ["protocol1", "--topology", "cross", "--n-list", "5", "--n-max", "0"],
    # a custom topology is one system, of the file's N: any other N would
    # label the file's results with a size they do not have
    ["peaks", "--topology", "custom", "--topology-file", CROSS5, "--n-list", "9,13"],
    ["peaks", "--topology", "custom", "--topology-file", CROSS5, "--n-list", "5,13"],
    ["scan", "--topology", "custom", "--topology-file", CROSS5, "--n", "99"],
]

EMPTY_LISTS = [
    ["peaks", "--topology", "cross", "--n-list", ","],
    ["protocol1", "--topology", "cross", "--n-list", ","],
    ["protocol1", "--topology", "cross", "--n-list", "5", "--targets", ","],
]

# a peak search needs a grid beyond t = 0: a --grid-step past the window (6.4N,
# 8N for protocol2, or --t-max) leaves only that one point
GRID_STEP_REFUSALS = [
    ["peaks", "--topology", "loop", "--n-list", "8", "--grid-step", "60"],
    ["protocol1", "--topology", "loop", "--n-list", "4,8", "--grid-step", "30"],
    ["protocol2", "--topology", "loop", "--n", "4", "--grid-step", "50"],
    ["protocol2", "--topology", "loop", "--n", "4", "--t-max", "0.001"],
]

# every refusal that the flags decide, whatever test above checks its message
REFUSALS = (EIGENSYSTEM_REFUSALS + GRID_REFUSALS + SERIES_REFUSALS + INVALID_FLAGS
            + EMPTY_LISTS + GRID_STEP_REFUSALS
            + [["scan", "--topology", "loop", "--n", "4"] + flags
               for flags in JSON_SCAN_FLAGS + SCAN_COST_REFUSALS]
            + [["verify", "--topology", "loop", "--n", "4", "--t-max", "1e300",
                "--grid-step", "1e300"],
               ["protocol2", "--topology", "cross", "--n", "5", "--t-max", "1e300",
                "--grid-step", "1e300"],
               ["protocol2", "--topology", "loop", "--n", "4", "--tau", "1e7"],
               ["verify", "--topology", "loop", "--n", "4", "--t-max", "2e5",
                "--grid-step", "1e4"],
               ["verify", "--topology", "cross", "--n", "0"],
               ["verify", "--topology", "loop", "--n", "0"],
               ["verify", "--topology", "custom", "--topology-file", SITES_40],
               ["scan", "--topology", "cross", "--n", "4"],
               ["peaks", "--topology", "cross", "--n-list", "5,banana"],
               ["protocol1", "--topology", "cross", "--n-list", "5", "--targets", "0"],
               ["protocol2", "--topology", "cross", "--n", "5", "--n-max", "0"],
               ["scan", "--topology", "custom", "--topology-file", str(DATA / "sites-1e8.txt")],
               ["scan", "--topology", "custom", "--topology-file", str(DATA / "missing.txt")],
               # 10 planned steps over 10^8 grid points: about 10^10 entry steps
               ["protocol2", "--topology", "cross", "--n", "9", "--t-max", "1e6"],
               # 10^9 series rows, SERIES_ROW_STEPS each: about 40 min of writing
               ["protocol1", "--topology", "loop", "--n-list", "4", "--n-max", "1000000000"],
               # each system just inside the cap, the two together past it
               ["protocol1", "--topology", "loop", "--n-list", "4,4", "--n-max", "1990000"],
               # an output that cannot be opened, refused before the scan is made
               ["scan", "--topology", "loop", "--n", "4", "--output", str(DATA)],
               ["scan", "--topology", "loop", "--n", "4", "--output", "/nonexistent/x.csv"]])


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = [l.split(",") for l in lines[1:]]
    return header, rows


class TestScan:
    @pytest.mark.parametrize("command", ["scan", "verify"])
    def test_refine_tol_is_not_a_flag(self, command, capsys):
        # neither refines a peak: the flag is a usage error, and the config echo
        # names no refine_tol
        with pytest.raises(SystemExit) as exc:
            main([command, "--topology", "loop", "--n", "4", "--refine-tol", "1e-6"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --refine-tol" in capsys.readouterr().err
        code, out, _ = run_cli([command, "--topology", "loop", "--n", "4", "--t-max", "1",
                                "--no-timestamp"], capsys)
        assert code == 0 and "refine_tol" not in out.splitlines()[1]

    def test_loop4_periodic_half_peaks(self, capsys):
        code, out, _ = run_cli(["scan", "--topology", "loop", "--n", "4",
                                "--no-timestamp"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "p_success", "p1", "p2", "p3", "pS_projection"]
        p = np.array([float(r[1]) for r in rows])
        assert np.all((p >= 0) & (p <= 1 + 1e-12))
        assert p.max() == pytest.approx(0.5, abs=5e-3)

    def test_cross5_peak_visible(self, capsys):
        code, out, _ = run_cli(["scan", "--topology", "cross", "--n", "5",
                                "--t-max", "10", "--no-timestamp"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        p = np.array([float(r[1]) for r in rows])
        assert p.max() == pytest.approx(0.3429, abs=5e-3)

    def test_even_cross_rejected(self, capsys):
        code, _, err = run_cli(["scan", "--topology", "cross", "--n", "4"], capsys)
        assert code == 2
        assert "odd" in err

    def test_default_window_ends_at_t_max(self, capsys):
        code, out, _ = run_cli(["scan", "--topology", "loop", "--n", "4",
                                "--no-timestamp"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 2561
        assert rows[-1][0] == "25.6"

    def test_loop36_within_budget(self, capsys):
        with time_budget(5):
            code, out, _ = run_cli(["scan", "--topology", "loop", "--n", "36",
                                    "--t-max", "10", "--no-timestamp"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1001
        assert rows[-1][0] == "10"

    def test_probability_columns_sum_to_one(self, capsys):
        code, out, _ = run_cli(["scan", "--topology", "loop", "--n", "8",
                                "--t-max", "6", "--no-timestamp"], capsys)
        _, rows = parse_csv(out)
        for r in rows:
            total = float(r[2]) + float(r[3]) + float(r[4]) + float(r[5])
            assert total == pytest.approx(1.0, abs=1e-9)


class TestPeaks:
    def test_multiple_sizes(self, capsys):
        code, out, _ = run_cli(["peaks", "--topology", "loop",
                                "--n-list", "4,8,12", "--no-timestamp"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert [int(r[0]) for r in rows] == [4, 8, 12]
        p12 = float(rows[2][2])
        assert p12 == pytest.approx(0.1586, abs=5e-3)

    def test_single_size(self, capsys):
        code, out, _ = run_cli(["peaks", "--topology", "cross", "--n-list", "5",
                                "--no-timestamp"], capsys)
        _, rows = parse_csv(out)
        assert len(rows) == 1

    def test_bad_list(self, capsys):
        code, _, err = run_cli(["peaks", "--topology", "cross",
                                "--n-list", "5,banana"], capsys)
        assert code == 2


class TestProtocol1:
    def test_cross5_required_counts(self, capsys):
        code, out, _ = run_cli(["protocol1", "--topology", "cross",
                                "--n-list", "5", "--no-timestamp"], capsys)
        assert code == 0
        lines = out.splitlines()
        required = {}
        in_req = False
        header = None
        for line in lines:
            if line.startswith("# table: required_measurements"):
                in_req = True
                continue
            if line.startswith("# table:"):
                in_req = False
                continue
            if line.startswith("#") or not line:
                continue
            cells = line.split(",")
            if cells[0] == "N":
                header = cells
                continue
            if in_req:
                required[float(cells[1])] = int(cells[2])
        assert required == {0.90: 6, 0.95: 8, 0.99: 11}

    def test_invalid_target_rejected(self, capsys):
        code, _, err = run_cli(["protocol1", "--topology", "cross",
                                "--n-list", "5", "--targets", "0"], capsys)
        assert code == 2
        assert "(0,1)" in err


class TestProtocol2:
    def test_first_row_consistency(self, capsys):
        code, out, _ = run_cli(["protocol2", "--topology", "cross", "--n", "5",
                                "--n-max", "3", "--no-timestamp"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        first = rows[0]
        p_bar1, p1, p_proto1 = float(first[1]), float(first[2]), float(first[3])
        assert p_bar1 == pytest.approx(0.3429, abs=5e-3)
        assert p1 == pytest.approx(p_bar1, abs=1e-9)
        assert p_proto1 == pytest.approx(p_bar1, abs=1e-9)

    def test_regular_mode(self, capsys):
        code, out, _ = run_cli(["protocol2", "--topology", "loop", "--n", "4",
                                "--tau", "6.5", "--n-max", "4",
                                "--no-timestamp"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert all(r[4] == "regular" for r in rows)

    @pytest.mark.parametrize("argv,strategy,deficit", [
        (["--topology", "custom", "--topology-file", str(DATA / "no-role-exchange.txt"),
          "--strategy", "min-loss", "--n-max", "3"], "min-loss", "0.06083789811"),
        (["--topology", "loop", "--n", "4"], "peak-success", None)],
        ids=["no-role-exchange", "loop-4"])
    def test_asymmetric_success_deficit_header(self, argv, strategy, deficit, capsys):
        # the largest excess of pS_projection over pS_bell among the planned steps,
        # echoed only where it passes 1e-12: on graphs without the protocol symmetry
        argv = ["protocol2", *argv, "--no-timestamp"]
        _, out, _ = run_cli(argv, capsys)
        _, out_json, _ = run_cli(argv + ["--format", "json"], capsys)
        config = dict(item.split("=", 1)
                      for item in out.splitlines()[1].removeprefix("# config: ").split())
        assert config.get("asymmetric_success_deficit") == deficit
        assert json.loads(out_json)["config"].get("asymmetric_success_deficit") == deficit
        assert {r[4] for r in parse_csv(out)[1]} == {strategy}
        args = build_parser().parse_args(argv)
        [(_, g, t_max)] = cli._checked_run(args).systems
        sched = plan_protocol2(g, strategy=Strategy(strategy), n_max=args.n_max, t_max=t_max)
        excess = max(s.pS_projection - s.pS_bell for s in sched)
        assert (_fmt(excess) if excess > 1e-12 else None) == deficit

    def test_long_regular_series_within_budget(self, capsys):
        # 0.6 s on 2 cores: the chain ends at step 566, where the survival
        # product underflows to 0, and the rest of the series is one dot product a row
        with time_budget(15):
            code, out, _ = run_cli(["protocol2", "--topology", "loop", "--n", "4",
                                    "--tau", "1", "--n-max", "20000", "--no-timestamp"],
                                   capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 20000
        assert rows[-1][0] == "20000"
        assert [r[5] for r in rows[565:567]] == ["1", "0"]
        assert {r[5] for r in rows[566:]} == {"0"}

    # (P_bar_n, P_n) of --n-max 10 as printed before the per-step table was
    # one array: the series must not move by a printed digit
    PINNED_SERIES = {
        ("loop", "4"): [
            ("0.4999823158", "0.4999823158"), ("0.4999999994", "0.7351359811"),
            ("0.5", "0.8596985089"), ("0.5", "0.9256807003"), ("0.5", "0.9606125355"),
            ("0.5", "0.9791181969"), ("0.5", "0.9889260235"), ("0.5", "0.9941258931"),
            ("0.5", "0.9968835245"), ("0.5", "0.9983463115")],
        ("cross", "5"): [
            ("0.3429355281", "0.3429355281"), ("0.3950669733", "0.4819274472"),
            ("0.4046252555", "0.5772767974"), ("0.4080018251", "0.6569453751"),
            ("0.4087612558", "0.7061139886"), ("0.4090238018", "0.74102223"),
            ("0.4090975272", "0.77237157"), ("0.4091375604", "0.7944800972"),
            ("0.4091405348", "0.8136230776"), ("0.4091411818", "0.8334955374")],
        ("loop", "36", "--tau", "5"): [
            ("0.01451117661", "0.01451117661"), ("0.01761059203", "0.02208244005"),
            ("0.01931706714", "0.02788209184"), ("0.02314419824", "0.03538337486"),
            ("0.02352788285", "0.04020211283"), ("0.02395716954", "0.04423173832"),
            ("0.02626435284", "0.04988837657"), ("0.02662460598", "0.05433633846"),
            ("0.02663260473", "0.05808160607"), ("0.02744345555", "0.0624252246")],
    }

    @pytest.mark.parametrize("system", PINNED_SERIES, ids="-".join)
    def test_printed_series_is_pinned(self, system, capsys):
        topology, n, *flags = system
        code, out, _ = run_cli(["protocol2", "--topology", topology, "--n", n, *flags,
                                "--n-max", "10", "--no-timestamp"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert [(r[1], r[2]) for r in rows] == self.PINNED_SERIES[system]

    def test_chain_with_nothing_left_to_herald_ends(self, capsys):
        # loop-4's 11th conditional state has success below 1e-15 over the
        # whole window: the chain ends there, and later rows are dead steps
        argv = ["protocol2", "--topology", "loop", "--n", "4", "--no-timestamp"]
        _, ten, _ = run_cli(argv + ["--n-max", "10"], capsys)
        code, out, _ = run_cli(argv + ["--n-max", "20"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert [r[1:] for r in rows[:10]] == [r[1:] for r in parse_csv(ten)[1]]
        assert [r[5] for r in rows[10:]] == ["0"] * 10
        assert rows[-1][2] == "0.9999964653"

    # windows of several grid points, on all of which p_S stays below HERALD_FLOOR
    # (about 20 t^4 on loop-4); a step beyond the window is refused earlier, by
    # GRID_STEP_REFUSALS
    @pytest.mark.parametrize("flags", [["--t-max", "0.00005", "--grid-step", "0.00001"],
                                       ["--t-max", "0.00003", "--grid-step", "0.00001"]])
    def test_window_without_success_is_exit_2(self, flags, capsys):
        code, out, err = run_cli(["protocol2", "--topology", "loop", "--n", "4"] + flags,
                                 capsys)
        assert code == 2
        assert out == ""
        assert "identically zero over the search window" in err

    def test_zero_n_max_rejected(self, capsys):
        code, _, err = run_cli(["protocol2", "--topology", "cross", "--n", "5",
                                "--n-max", "0"], capsys)
        assert code == 2

    def test_tau_beyond_the_planning_cap_is_exit_2(self, capsys):
        # a one-ulp change of tau moves the 9th printed digit of cross-5 at 1e6,
        # the 6th at 1e9: past the cap the digits would mean nothing
        argv = ["protocol2", "--topology", "cross", "--n", "5", "--n-max", "2", "--no-timestamp"]
        code, out, err = run_cli(argv + ["--tau", "1e7"], capsys)
        assert code == 2 and out == ""
        assert f"--tau exceeds the planning cap of {cli.PLAN_MAX_TIME:g}" in err
        code, out, _ = run_cli(argv + ["--tau", repr(cli.PLAN_MAX_TIME)], capsys)
        assert code == 0
        assert [r[5] for r in parse_csv(out)[1]] == ["1000000"] * 2


class TestVerify:
    def test_default_cross5_passes(self, capsys):
        code, out, _ = run_cli(["verify", "--topology", "cross", "--n", "5",
                                "--no-timestamp"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert all(r[-1] == "pass" for r in rows)
        names = [r[0] for r in rows]
        assert "su3_algebra_max_violation" in names

    def test_loop4_passes(self, capsys):
        code, out, _ = run_cli(["verify", "--topology", "loop", "--n", "4",
                                "--no-timestamp"], capsys)
        assert code == 0

    def test_builds_each_engine_once(self, monkeypatch, capsys):
        # the full space's closure, the restriction row's reduced matrix and the cell
        # quotient's eigensystem; the closure serves the cost check and the run alike
        builds = {"_closure": 0, "assemble_hamiltonian": 0, "_quotient_eigensystem": 0}

        def counted(module, name):
            original = getattr(module, name)

            def build(*args, **kwargs):
                builds[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, build)

        for module in (dynamics, oracle):
            counted(module, "assemble_hamiltonian")
        counted(oracle, "_closure")
        counted(oracle, "_quotient_eigensystem")
        code, _, _ = run_cli(["verify", "--topology", "cross", "--n", "7",
                              "--no-timestamp"], capsys)
        assert code == 0
        assert builds == {"_closure": 1, "assemble_hamiltonian": 1, "_quotient_eigensystem": 1}

    def test_t_max_includes_its_end_point(self, capsys):
        argv = ["verify", "--topology", "loop", "--n", "4", "--no-timestamp"]
        _, default, _ = run_cli(argv, capsys)
        code, explicit, _ = run_cli(argv + ["--t-max", "10"], capsys)
        assert code == 0
        assert parse_csv(explicit) == parse_csv(default)

    def test_grid_step_is_used_and_echoed(self, capsys):
        argv = ["verify", "--topology", "loop", "--n", "4", "--no-timestamp"]
        _, default, _ = run_cli(argv, capsys)
        code, coarse, _ = run_cli(argv + ["--grid-step", "0.5"], capsys)
        assert code == 0
        assert " grid_step=0.1 " in default.splitlines()[1]
        assert " grid_step=0.5 " in coarse.splitlines()[1]
        measured = {r[0]: r[1] for r in parse_csv(default)[1]}
        assert measured != {r[0]: r[1] for r in parse_csv(coarse)[1]}

    def test_oversize_refused(self, capsys):
        # a state's int64 index holds 3^39 - 1, not 3^40 - 1
        code, out, err = run_cli(["verify", "--topology", "custom", "--topology-file", SITES_40],
                                 capsys)
        assert code == 2
        assert out == ""
        assert "int64" in err and "N <= 39" in err and "N = 40" in err
        assert "Traceback" not in err

    # the paper's largest systems over their 6.4N table windows: each run takes 1-1.5 s
    # on 2 cores, so only the cap is checked here (CI runs them)
    @pytest.mark.parametrize("topology,n,t_max", [("cross", 35, 224.0), ("loop", 36, 230.4)])
    def test_cost_cap_admits_the_table_windows(self, topology, n, t_max):
        g = build_cross(n) if topology == "cross" else build_loop(n)

        def work(t):  # at verify's default step, linear in t
            return _verify_cost(n, t, t / cli.VERIFY_GRID_STEP + 1, g)[0]

        assert work(t_max) <= MAX_WORK
        at_cap = t_max * (MAX_WORK - work(0.0)) / (work(t_max) - work(0.0))
        assert work(at_cap * (1 - 1e-9)) <= MAX_WORK < work(at_cap * (1 + 1e-9))

    def test_loop36_over_586_is_admitted(self):
        # the |E| t_max model refused it, though 585 took 2.2 s; not run here
        cli._checked_run(build_parser().parse_args(
            ["verify", "--topology", "loop", "--n", "36", "--t-max", "586"]))

    # t_max = step = 1e300 is a two-point grid whose second point needed a
    # Chebyshev recurrence of order ~1e301: it ran forever. loop-4's recurrence costs
    # about 7200 entry steps per unit of t_max (R = 3.43, 4 x 12 entries a product), so
    # 2e5 is past the cap of 1e9
    @pytest.mark.parametrize("flags", [["--t-max", "1e300", "--grid-step", "1e300"],
                                       ["--t-max", "2e5", "--grid-step", "1e4"]])
    def test_propagation_beyond_the_cap_is_exit_2(self, flags, capsys):
        with time_budget(1):
            code, out, err = run_cli(["verify", "--topology", "loop", "--n", "4"] + flags,
                                     capsys)
        assert code == 2
        assert out == ""
        assert "beyond the cap of 1e+09" in err

    @pytest.mark.parametrize("topology", ["cross", "loop"])
    def test_zero_n_is_exit_2(self, topology, capsys):
        code, out, err = run_cli(["verify", "--topology", topology, "--n", "0"], capsys)
        assert code == 2
        assert out == ""
        assert "got 0" in err

    @pytest.mark.parametrize("topology,n", [("cross", 9), ("loop", 8), ("cross", 35),
                                            ("loop", 36)])
    def test_finishes_at_the_oracle_cap(self, topology, n, capsys):
        with time_budget(10):
            code, out, _ = run_cli(["verify", "--topology", topology, "--n", str(n),
                                    "--no-timestamp"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert [r[0] for r in rows] == [
            "su3_algebra_max_violation", f"N{n}_sector_restriction_max_diff",
            f"N{n}_full_vs_reduced_max_amplitude_dev", f"N{n}_sector_leakage",
            f"N{n}_bell_amplitude_asymmetry"]
        assert all(r[-1] == "pass" for r in rows)

    def test_image_outside_the_sector_fails_its_rows(self, monkeypatch, capsys):
        # edge 0 sends the first sector state to index 0 (every site at -1): the
        # restriction row fails instead of raising, and the propagation, which
        # scatters column x to its images as the restriction does, shows the leak
        images = oracle._images

        def leaking(g, states):
            out = images(g, states)
            out[0, np.asarray(states) == oracle._sector_indices(g)[0]] = 0
            return out

        monkeypatch.setattr(oracle, "_images", leaking)
        code, out, err = run_cli(["verify", "--topology", "loop", "--n", "4",
                                  "--no-timestamp"], capsys)
        assert code == 3
        assert err == ""
        rows = {r[0]: r for r in parse_csv(out)[1]}
        assert rows["N4_sector_restriction_max_diff"][1:] == ["inf", "1e-12", "FAIL"]
        assert rows["N4_sector_leakage"][-1] == "FAIL"
        assert rows["su3_algebra_max_violation"][-1] == "pass"

    def test_reduced_side_off_the_cells_fails_its_row(self, monkeypatch, capsys):
        # a quotient eigensystem short of one eigenvector loses psi0's norm, so the
        # kernel refuses psi0: the amplitude row reads inf and fails instead of raising,
        # and the full-space rows are still measured
        eigensystem = oracle._quotient_eigensystem

        def short(g):
            e = eigensystem(g)
            return dynamics.Eigensystem(e.eigenvalues[1:], e.eigenvectors[:, 1:])

        monkeypatch.setattr(oracle, "_quotient_eigensystem", short)
        code, out, err = run_cli(["verify", "--topology", "cross", "--n", "5",
                                  "--no-timestamp"], capsys)
        assert code == 3
        assert "Traceback" not in err and err == ""
        rows = {r[0]: r for r in parse_csv(out)[1]}
        assert rows["N5_full_vs_reduced_max_amplitude_dev"][1:] == ["inf", "1e-09", "FAIL"]
        assert [r[-1] for name, r in rows.items() if "amplitude_dev" not in name] == \
            ["pass"] * 4

    def test_builds_no_scan_quotient(self, capsys):
        # the cost reads the cell count from `_pair_cells`: nothing in verify reads
        # `measurement._quotient`'s slot table or norm bound
        clear_caches()
        code, _, _ = run_cli(["verify", "--topology", "loop", "--n", "8"], capsys)
        assert code == 0
        assert measurement._quotient.cache_info().currsize == 0

    @pytest.mark.parametrize("name,has_row", [("no-role-exchange.txt", False),
                                              ("cross5.txt", True)])
    def test_bell_asymmetry_row_only_under_the_symmetry(self, name, has_row, capsys):
        # the row is checked where |A,B> and |B,A> share a cell of the fold, so that
        # the two Bell amplitudes are equal
        code, out, _ = run_cli(["verify", "--topology", "custom", "--topology-file",
                                str(DATA / name), "--no-timestamp"], capsys)
        assert code == 0
        names = [r[0] for r in parse_csv(out)[1]]
        assert any(r.endswith("_bell_amplitude_asymmetry") for r in names) == has_row
        assert "su3_algebra_max_violation" in names

    def test_bell_asymmetry_row_under_an_alice_bob_reflection(self, tmp_path, capsys):
        # Charlie's sites 1 and 2 differ in degree; the reflection 3 <-> 4 fixes
        # them and exchanges Alice's and Bob's, which puts |A,B> and |B,A> in one cell
        path = tmp_path / "ends-only.txt"
        path.write_text("5\n1 2 3 4\n1 2\n2 5\n3 5\n4 5\n")
        code, out, _ = run_cli(["verify", "--topology", "custom", "--topology-file",
                                str(path), "--no-timestamp"], capsys)
        assert code == 0
        rows = {r[0]: r for r in parse_csv(out)[1]}
        assert rows["N5_bell_amplitude_asymmetry"][-1] == "pass"


class TestSizeGuard:
    @pytest.mark.parametrize("argv", EIGENSYSTEM_REFUSALS)
    def test_eigensystem_beyond_physical_memory_is_exit_2(self, argv, capsys):
        with time_budget(1):
            code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert f"N={argv[-1].split(',')[-1]}:" in err and "GB" in err

    def test_peaks_guard_sizes_the_c_even_block(self, monkeypatch, capsys):
        # physical memory between the loop-8 peak table (a C-even block, d <= 28) and
        # --tau, the cheaper protocol2 (the cell quotient's two C blocks, each only
        # bounded by d/2 = 28 before the graph is built, and their unfolding to the d =
        # 56 pairs): peaks diagonalises the block and runs; --tau and planned protocol2,
        # which needs the full eigensystem too, are refused
        block, full = _peak_cost(8, 1.0, 101.0)[1], _plan_cost(8, 1.0, 101.0, steps=10)[1]
        tau = _plan_cost(8, 1.0, 0.0, steps=10)[1]
        assert block < tau < full
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": (block + tau) // 2}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        code, out, err = run_cli(["peaks", "--topology", "loop", "--n-list", "8",
                                  "--t-max", "1"], capsys)
        assert code == 0 and out.count("\n") > 1 and err == ""
        for flags in (["--t-max", "1"], ["--tau", "1"]):
            code, out, err = run_cli(["protocol2", "--topology", "loop", "--n", "8"] + flags,
                                     capsys)
            assert code == 2 and out == ""
            assert "N=8: protocol2" in err and "GB" in err

    def test_costs_charge_the_c_blocks_built(self):
        # loop-36: the peak tables diagonalise the C-even block alone, k+ = 171 orbit
        # states (of 333 cells); peak-success planning builds no C-odd block (k- = 162),
        # which min-loss reads and --tau steps on; only --tau unfolds the blocks to the pairs
        g, d, points = build_loop(36), 1260, 101.0
        even, odd, full = _spectral_cost(171), _spectral_cost(162), _spectral_cost(d)
        assert _peak_cost(36, 1.0, points, g) == _spectral_cost(171, points)
        work, need = _plan_cost(36, 1.0, points, g, strategy=Strategy.PEAK_SUCCESS)
        assert work == pytest.approx(even[0] + full[0] + points * (171 / 16 + 8) + d * d / 2,
                                     rel=1e-12)
        assert need == pytest.approx(even[1] + full[1] + 96 * points + 480, rel=1e-12)
        work, need = _plan_cost(36, 1.0, points, g, strategy=Strategy.MIN_LOSS)
        grid = (18 * 171 + 17 * 162) / 16 + 8  # the rows each block reads
        assert work == pytest.approx(even[0] + odd[0] + full[0] + points * grid + d * d / 2,
                                     rel=1e-12)
        for strategy in Strategy:  # --tau: both blocks, whatever the strategy
            work, need = _plan_cost(36, 1.0, 0.0, g, strategy=strategy)
            assert work == pytest.approx(even[0] + odd[0] + d * 333 / 2, rel=1e-12)
            assert need == pytest.approx(even[1] + odd[1] + 32 * d * 333 + 480, rel=1e-12)

    # scan holds the quotient's states along one Chebyshev span and its grid's curves;
    # --tau one eigensystem of the quotient; both sized at the bound k <= d = 56 before
    # the graph is built; each runs at exactly its bound and is refused a byte below it
    @pytest.mark.parametrize("argv,need", [
        (["scan", "--topology", "loop", "--n", "8", "--t-max", "1"],
         _scan_cost(8, 1.0, 101.0)[1]),
        (["scan", "--topology", "loop", "--n", "8", "--t-max", "1", "--grid-step", "1e-4"],
         _scan_cost(8, 1.0, 10001.0)[1]),
        (["protocol2", "--topology", "loop", "--n", "8", "--tau", "1"],
         _plan_cost(8, 1.0, 0.0, steps=10)[1]),
    ], ids=["scan-101-points", "scan-10001-points", "tau"])
    def test_scan_and_tau_run_at_their_bound(self, argv, need, monkeypatch, capsys):
        for memory, want in ((need, 0), (need - 1, 2)):
            pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": memory}
            monkeypatch.setattr(os, "sysconf", pages.__getitem__)
            code, out, err = run_cli(argv, capsys)
            assert code == want
            assert (out.count("\n") > 1 and err == "") if want == 0 else (
                out == "" and "N=8:" in err)

    def test_budget_reads_the_address_space_limit(self, monkeypatch):
        # 10^8 grid points, about 4 GB: admitted with 100 GB of physical memory and no
        # limit, refused under a 3 GB address space, as `ulimit -v 3000000` sets it
        args = build_parser().parse_args(["peaks", "--topology", "loop", "--n-list", "4",
                                          "--t-max", "1e6"])
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 10**11}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        cli._checked_run(args)
        monkeypatch.setattr(cli.resource, "getrlimit", lambda resource: (3 * 10**9,) * 2)
        with pytest.raises(cli.PreconditionError, match="memory this process can use"):
            cli._checked_run(args)

    @pytest.mark.parametrize("argv", GRID_REFUSALS)
    def test_time_grid_beyond_physical_memory_is_exit_2(self, argv, capsys):
        with time_budget(1):
            code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert "time grid" in err and "GB" in err
        assert "Traceback" not in err

    # a JSON scan streams its rows as a CSV scan does, so the same grid guard
    # refuses both with the same message; only refusals are run here, never
    # a grid that passes the guard at memory scale
    @pytest.mark.parametrize("flags", JSON_SCAN_FLAGS)
    def test_json_scan_is_guarded_like_a_csv_scan(self, flags, capsys):
        argv = ["scan", "--topology", "loop", "--n", "4"] + flags
        with time_budget(1):
            csv_result = run_cli(argv, capsys)
            json_result = run_cli(argv + ["--format", "json"], capsys)
        assert json_result == csv_result
        assert csv_result[0] == 2 and "time grid" in csv_result[2]

    @pytest.mark.parametrize("argv", SERIES_REFUSALS)
    def test_protocol2_series_beyond_physical_memory_is_exit_2(self, argv, capsys):
        with time_budget(1):
            code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert "with --n-max 10000000000 needs" in err and "GB" in err
        assert "Traceback" not in err

    def test_protocol1_series_is_made_as_it_is_written(self, monkeypatch):
        # rows are made as they are written, so memory does not grow with --n-max: the
        # largest series the cap admits (about 2e6 rows) makes only the rows read
        written = {}

        def first_rows(args, sections, extra_config=None):
            written.update((name, list(islice(rws, 3))) for name, _, rws in sections)

        monkeypatch.setattr(cli, "_write_table", first_rows)
        with time_budget(1):
            code = main(["protocol1", "--topology", "loop", "--n-list", "4",
                         "--n-max", str(int(MAX_WORK / cli.SERIES_ROW_STEPS) - 10**4)])
        assert code == 0
        assert [row[:2] for row in written["cumulative_series"]] == [(4, 1), (4, 2), (4, 3)]

    @pytest.mark.parametrize("argv", REFUSALS)
    def test_every_refusal_comes_before_any_work(self, argv, monkeypatch, capsys):
        def work(*args, **kwargs):
            pytest.fail("the run started work before it was refused")

        for name in ("one_shot_peak", "outcome_curves", "su3_algebra_check",
                     "full_evolve_compare", "plan_protocol2", "plan_regular"):
            monkeypatch.setattr(cli, name, work)
        with time_budget(1):
            code, out, _ = run_cli(argv, capsys)
        assert code == 2
        assert out == ""


class TestOutputHandling:
    def test_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(["scan", "--topology", "loop", "--n", "4",
                                  "--t-max", "5", "--no-timestamp",
                                  "--output", str(path)], capsys)
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_mirror(self, capsys):
        code, out, _ = run_cli(["peaks", "--topology", "cross", "--n-list", "5,7",
                                "--format", "json", "--no-timestamp"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"] == ["N", "t_peak", "p_peak"]
        assert len(payload["rows"]) == 2

    @pytest.mark.parametrize("argv", [
        ["scan", "--topology", "loop", "--n", "4", "--t-max", "3"],
        ["peaks", "--topology", "cross", "--n-list", "5,7"],
        ["protocol1", "--topology", "loop", "--n-list", "4,8", "--n-max", "3"],
    ])
    def test_streamed_json_is_what_json_dumps_writes(self, argv, capsys):
        code, out, _ = run_cli(argv + ["--format", "json", "--no-timestamp"], capsys)
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    @pytest.mark.parametrize("rows", [[], [(1, 0.5)], [(1, 0.5), (2, 0.25)]])
    def test_streamed_json_rows_from_a_generator(self, rows, tmp_path):
        # an empty table must still read "rows": [], as json.dumps writes it
        args = build_parser().parse_args(["scan", "--n", "4", "--format", "json",
                                          "--no-timestamp", "--output",
                                          str(tmp_path / "t.json")])
        _write_table(args, [(None, ["a", "b"], (row for row in rows))])
        payload = {"config": _config_echo(args, None), "columns": ["a", "b"],
                   "rows": [[_fmt(x) for x in row] for row in rows]}
        assert (tmp_path / "t.json").read_text() == json.dumps(payload, indent=2) + "\n"

    def test_csv_rows_print_as_fmt(self, tmp_path):
        # a row's cached % format prints each cell as _fmt does, the float edge values
        # included; a numpy float is a float
        edge = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e16, 1e-30, np.float64(2 / 3)]
        rows = [(x, k, "pass") for k, x in enumerate(edge)]
        args = build_parser().parse_args(["scan", "--n", "4", "--no-timestamp", "--output",
                                          str(tmp_path / "t.csv")])
        _write_table(args, [(None, ["x", "k", "status"], iter(rows))])
        lines = (tmp_path / "t.csv").read_text().splitlines()[-len(rows):]
        assert lines == [",".join(map(_fmt, row)) for row in rows]
        assert [line.split(",")[0] for line in lines] == [
            "inf", "-inf", "nan", "-0", "4.940656458e-324", "1e+16", "1e-30", "0.6666666667"]

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"topology": "loop", "n": 4, "t_max": 5,
                                   "no_timestamp": True}))
        code, out, _ = run_cli(["scan", "--config", str(cfg)], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[-1][0]) == pytest.approx(5.0, abs=0.02)

    # a JSON list is the comma-separated string the flag takes
    @pytest.mark.parametrize("command,key,as_list,as_string", [
        ("peaks", "n_list", [4, 8], "4,8"),
        ("protocol1", "n_list", [4, 8], "4,8"),
        ("protocol1", "targets", [0.5, 0.9], "0.5,0.9"),
    ])
    def test_config_list_is_the_comma_string(self, command, key, as_list, as_string,
                                             tmp_path, capsys):
        outputs = []
        for value in (as_list, as_string):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"topology": "loop", "n_list": "4", "no_timestamp": True,
                                       key: value}))
            code, out, err = run_cli([command, "--config", str(cfg)], capsys)
            assert code == 0 and err == ""
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert f"{key}={as_string}" in outputs[0]

    # --config=FILE is read before or after the subcommand, as --config FILE is
    @pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
    def test_config_file_with_equals_sign(self, before, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t_max": 0.03}))
        argv = ["scan", "--topology", "loop", "--n", "4", "--no-timestamp"]
        flag = [f"--config={cfg}"]
        code, out, _ = run_cli(flag + argv if before else argv + flag, capsys)
        assert code == 0
        assert [r[0] for r in parse_csv(out)[1]] == ["0", "0.01", "0.02", "0.03"]

    def test_custom_topology_file(self, tmp_path, capsys):
        topo = tmp_path / "ring.txt"
        topo.write_text("# four-site ring, role sites at quarter points\n"
                        "4\n2 1 3 4\n1 3\n3 2\n2 4\n4 1\n")
        code, out, _ = run_cli(["scan", "--topology", "custom",
                                "--topology-file", str(topo), "--t-max", "30",
                                "--no-timestamp"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        p = np.array([float(r[1]) for r in rows])
        assert p.max() == pytest.approx(0.5, abs=5e-3)

    @pytest.mark.parametrize("command", ["peaks", "protocol1"])
    def test_custom_file_needs_no_n_list(self, command, capsys):
        argv = [command, "--topology", "custom", "--topology-file", CROSS5, "--no-timestamp"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        _, listed, _ = run_cli(argv + ["--n-list", "5"], capsys)
        assert [line for line in out.splitlines() if not line.startswith("#")] == \
            [line for line in listed.splitlines() if not line.startswith("#")]

    def test_built_in_topology_needs_an_n_list(self, capsys):
        code, out, err = run_cli(["peaks", "--topology", "cross"], capsys)
        assert code == 1
        assert out == "" and "--n-list is required" in err

    def test_custom_roles_off_the_last_two_sites(self, tmp_path, capsys):
        # cross-5 with vertex v renamed 6-v: Alice at 2, Bob at 1
        topo = tmp_path / "cross5-reversed.txt"
        topo.write_text("5\n5 4 2 1\n3 5\n3 4\n2 3\n1 3\n")
        code, out, _ = run_cli(["scan", "--topology", "custom", "--topology-file",
                                str(topo), "--t-max", "5", "--no-timestamp"], capsys)
        assert code == 0
        _, moved = parse_csv(out)
        _, ref = parse_csv(run_cli(["scan", "--topology", "cross", "--n", "5",
                                    "--t-max", "5", "--no-timestamp"], capsys)[1])
        assert np.array(moved, dtype=float) == pytest.approx(np.array(ref, dtype=float),
                                                             abs=1e-9)

    def test_bad_topology_file(self, tmp_path, capsys):
        topo = tmp_path / "bad.txt"
        topo.write_text("4\n1 2 3 4\n1 5\n")
        code, _, err = run_cli(["scan", "--topology", "custom",
                                "--topology-file", str(topo)], capsys)
        assert code == 2

    @pytest.mark.parametrize("args", INVALID_FLAGS)
    def test_invalid_numeric_flag_is_exit_2(self, args, capsys):
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert out == ""
        assert "must be" in err and "Traceback" not in err

    @pytest.mark.parametrize("args", EMPTY_LISTS)
    def test_empty_list_is_exit_2(self, args, capsys):
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert out == ""
        assert "empty" in err

    @pytest.mark.parametrize("content", ["[1, 2]", '"loop"', "3"])
    def test_config_that_is_not_an_object_is_exit_1(self, tmp_path, content, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content)
        code, out, err = run_cli(["scan", "--config", str(cfg)], capsys)
        assert code == 1
        assert out == ""
        assert "config" in err and "Traceback" not in err

    @pytest.mark.parametrize("name,content", [("missing.txt", None),
                                              ("binary.txt", b"\xff\xfe\x00")])
    def test_unreadable_topology_file_is_exit_2(self, tmp_path, name, content, capsys):
        topo = tmp_path / name
        if content is not None:
            topo.write_bytes(content)
        code, out, err = run_cli(["scan", "--topology", "custom",
                                  "--topology-file", str(topo)], capsys)
        assert code == 2
        assert out == ""
        assert str(topo) in err and "Traceback" not in err

    def test_unwritable_output_is_exit_2_before_the_run(self, tmp_path, capsys):
        code, out, err = run_cli(["scan", "--topology", "loop", "--n", "4", "--output",
                                  str(tmp_path)], capsys)
        assert code == 2 and out == ""
        assert f"--output {tmp_path} is not a writable file" in err
        # a refused run leaves no file behind
        path = tmp_path / "x.csv"
        code, _, _ = run_cli(["scan", "--topology", "loop", "--n", "4", "--t-max", "1e300",
                              "--output", str(path)], capsys)
        assert code == 2 and not path.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("to_file", [True, False], ids=["output", "stdout"])
    def test_full_device_is_exit_2(self, to_file):
        # a write that fails while the rows stream: one line on stderr, no traceback
        argv = ["scan", "--topology", "loop", "--n", "4", "--no-timestamp"]
        env = {**os.environ, "PYTHONPATH": str(DATA.parent.parent / "src")}
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "qutrit_bell.cli", *argv]
                                  + ["--output", "/dev/full"] * to_file,
                                  stdout=full, stderr=subprocess.PIPE, text=True, env=env,
                                  timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "precondition violated: cannot write the output: [Errno 28] No space left on device"]

    def test_closed_pipe_is_exit_2(self):
        # as `scan ... | head -2`: the reader goes after two lines of some 200,000
        env = {**os.environ, "PYTHONPATH": str(DATA.parent.parent / "src")}
        proc = subprocess.Popen([sys.executable, "-m", "qutrit_bell.cli", "scan", "--topology",
                                 "loop", "--n", "4", "--t-max", "2000"], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, env=env)
        lines = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert lines[0] == "# qutrit-bell 0.1.0\n"
        assert err.splitlines() == [
            "precondition violated: cannot write the output: [Errno 32] Broken pipe"]

    def test_usage_error_is_exit_1(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qutrit_bell.cli", "scan", "--topology",
             "nonsense"], capture_output=True, text=True)
        assert proc.returncode == 1

    def test_missing_custom_file_is_usage_error(self, capsys):
        code = main(["scan", "--topology", "custom"])
        assert code == 1

    @pytest.mark.parametrize("argv", GRID_STEP_REFUSALS)
    def test_grid_step_beyond_the_window_is_exit_2(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert "exceeds the window" in err and "identically zero" not in err

    def test_scan_accepts_a_one_point_grid(self, capsys):
        code, out, _ = run_cli(["scan", "--topology", "loop", "--n", "8",
                                "--grid-step", "60", "--no-timestamp"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert [row[0] for row in rows] == ["0"]

    @pytest.mark.parametrize("flags", SCAN_COST_REFUSALS)
    def test_scan_beyond_the_cost_cap_is_exit_2(self, flags, capsys):
        # the recurrence runs over R t_max whatever the step: the two-point grid
        # t_max = step = 1e300 would never end
        with time_budget(1):
            code, out, err = run_cli(["scan", "--topology", "loop", "--n", "4"] + flags, capsys)
        assert code == 2
        assert out == ""
        assert "beyond the cap of 1e+09" in err

    def test_scan_below_the_cost_cap_runs(self, capsys):
        # R t_max = 3.5e4 on loop-4's 15 slot entries: 7.3e7 entry steps, under the cap
        code, out, _ = run_cli(["scan", "--topology", "loop", "--n", "4", "--t-max", "1e4",
                                "--grid-step", "2500", "--no-timestamp"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert [row[0] for row in rows] == ["0", "2500", "5000", "7500", "10000"]

    def test_in_process_calls_match_fresh_processes(self, tmp_path):
        # the parser is built once per process: no call may leave a default, a
        # config flag or a subcommand's own default (verify's grid step) to the next
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid_step": 0.02, "targets": [0.5, 0.9], "n_max": 3}))
        runs = [["scan", "--topology", "loop", "--n", "4", "--t-max", "2"],
                ["verify", "--topology", "loop", "--n", "4", "--t-max", "2"],
                ["protocol1", "--config", str(cfg), "--topology", "loop", "--n-list", "4,8"],
                ["protocol1", "--topology", "loop", "--n-list", "4,8"]]
        # planned on the eigensystem the first plan of loop-8 cached, then with --tau
        runs += [["protocol2", "--topology", "loop", "--n", "8", "--strategy", strategy.value]
                 for strategy in Strategy]
        runs.append(["protocol2", "--topology", "loop", "--n", "8", "--tau", "1"])
        env = {**os.environ, "PYTHONPATH": str(DATA.parent.parent / "src")}
        for k, argv in enumerate(runs):
            argv = argv + ["--no-timestamp", "--output"]
            assert main(argv + [str(tmp_path / f"in-{k}.csv")]) == 0
            subprocess.run([sys.executable, "-m", "qutrit_bell.cli", *argv,
                            str(tmp_path / f"fresh-{k}.csv")], env=env, check=True, timeout=120)
        for k in range(len(runs)):
            assert (tmp_path / f"in-{k}.csv").read_bytes() == \
                (tmp_path / f"fresh-{k}.csv").read_bytes()
        assert "grid_step=0.1 " in (tmp_path / "in-1.csv").read_text()
        assert "grid_step=0.01 " in (tmp_path / "in-3.csv").read_text()


class TestClearCaches:
    @staticmethod
    def package_caches() -> dict:
        """Every `functools` cache defined in a module of the package, by name, found by
        importing each module the package holds."""
        caches = {}
        for info in pkgutil.walk_packages(qutrit_bell.__path__, "qutrit_bell."):
            module = importlib.import_module(info.name)
            caches.update((f"{info.name}.{name}", value) for name, value in vars(module).items()
                          if hasattr(value, "cache_info") and value.__module__ == info.name)
        return caches

    def test_empties_every_cache_of_the_package(self, tmp_path):
        for argv in (["scan", "--topology", "loop", "--n", "4", "--t-max", "2"],
                     ["verify", "--topology", "loop", "--n", "4", "--t-max", "2"],
                     ["protocol2", "--topology", "loop", "--n", "4", "--n-max", "2"]):
            assert main(argv + ["--output", str(tmp_path / "out.csv")]) == 0
        caches = self.package_caches()
        # the per-graph caches, the CLI's parsers and row formats, the DFT lengths
        assert {"qutrit_bell.dynamics._pair_eigensystem", "qutrit_bell.measurement._quotient",
                "qutrit_bell.oracle._closure_system", "qutrit_bell.cli.build_parser"} <= \
            set(caches)
        assert {name for name, c in caches.items() if c.cache_info().currsize == 0} == set()
        clear_caches()
        assert {name: c.cache_info().currsize for name, c in caches.items()} == \
            dict.fromkeys(caches, 0)

    def test_per_graph_caches_keep_one_graph(self):
        # every cache whose first argument is a graph keeps the last graph only
        per_graph = {name: c for name, c in self.package_caches().items()
                     if [p.annotation for p in inspect.signature(c).parameters.values()][:1]
                     == ["Graph"]}
        assert set(per_graph) == {f"qutrit_bell.{name}" for name in (
            "dynamics._index_groups", "dynamics._pair_cells", "dynamics._pair_eigensystem",
            "measurement._quotient", "oracle._closure_system")}
        assert {c.cache_info().maxsize for c in per_graph.values()} == {1}


class TestRuntimeImports:
    #: one command of each kind, on the cell quotient without a role exchange (scan,
    #: protocol2) and with one (cross-5 as a custom file)
    NETWORKX_FREE = [
        ["scan", "--topology", "loop", "--n", "8", "--t-max", "5"],
        ["scan", "--topology", "custom", "--topology-file", str(DATA / "no-role-exchange.txt"),
         "--t-max", "5"],
        ["scan", "--topology", "custom", "--topology-file", CROSS5, "--t-max", "5"],
        ["peaks", "--topology", "cross", "--n-list", "5,7"],
        ["peaks", "--topology", "custom", "--topology-file", CROSS5],
        ["protocol1", "--topology", "loop", "--n-list", "4,8"],
        ["protocol2", "--topology", "loop", "--n", "8", "--strategy", "min-loss"],
        ["protocol2", "--topology", "custom", "--topology-file",
         str(DATA / "no-role-exchange.txt"), "--n-max", "3"],
        ["protocol2", "--topology", "custom", "--topology-file", CROSS5, "--n-max", "3"],
        ["verify", "--topology", "cross", "--n", "5"],
    ]

    def test_no_command_imports_networkx(self):
        # networkx is a test dependency only. In a fresh interpreter (this session
        # has it loaded through conftest) with its import blocked, a command that
        # imports it ends in an ImportError
        script = "\n".join([
            "import sys",
            "sys.modules['networkx'] = None",
            "from qutrit_bell import cli",
            f"for argv in {self.NETWORKX_FREE!r}:",
            "    code = cli.main(argv + ['--no-timestamp', '--output', '/dev/null'])",
            "    if code != 0:",
            "        sys.exit(f'{argv}: exit {code}')",
        ])
        env = {**os.environ, "PYTHONPATH": str(DATA.parent.parent / "src")}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
