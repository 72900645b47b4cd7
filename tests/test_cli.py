import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import time_budget
from qutrit_bell import cli, oracle
from qutrit_bell.cli import _config_echo, _fmt, _write_table, build_parser, main


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

    def test_long_regular_series_within_budget(self, capsys):
        # 2.4 s on 2 cores, most of it evolving the 20000 regular steps
        with time_budget(15):
            code, out, _ = run_cli(["protocol2", "--topology", "loop", "--n", "4",
                                    "--tau", "1", "--n-max", "20000", "--no-timestamp"],
                                   capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 20000
        assert rows[-1][0] == "20000"

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

    @pytest.mark.parametrize("flags", [["--t-max", "0.001"], ["--grid-step", "50"]])
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
        builds = {"FullHamiltonian": 0, "assemble_hamiltonian": 0}

        def counted(module, name):
            original = getattr(module, name)

            def build(*args, **kwargs):
                builds[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, build)

        for module in (cli, oracle):
            counted(module, "assemble_hamiltonian")
        counted(oracle, "FullHamiltonian")
        code, _, _ = run_cli(["verify", "--topology", "cross", "--n", "7",
                              "--no-timestamp"], capsys)
        assert code == 0
        assert builds == {"FullHamiltonian": 1, "assemble_hamiltonian": 1}

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
        code, _, err = run_cli(["verify", "--topology", "cross", "--n", "13"],
                               capsys)
        assert code == 2
        assert "N <= 9" in err

    # t_max = step = 1e300 is a two-point grid whose second point needed a
    # Chebyshev recurrence of order ~1e301: it ran forever
    @pytest.mark.parametrize("flags", [["--t-max", "1e300", "--grid-step", "1e300"],
                                       ["--t-max", "2600", "--grid-step", "100"]])
    def test_propagation_beyond_the_cap_is_exit_2(self, flags, capsys):
        with time_budget(1):
            code, out, err = run_cli(["verify", "--topology", "loop", "--n", "4"] + flags,
                                     capsys)
        assert code == 2
        assert out == ""
        assert "|E| t_max" in err

    @pytest.mark.parametrize("topology", ["cross", "loop"])
    def test_zero_n_is_exit_2(self, topology, capsys):
        code, out, err = run_cli(["verify", "--topology", topology, "--n", "0"], capsys)
        assert code == 2
        assert out == ""
        assert "got 0" in err

    @pytest.mark.parametrize("topology,n", [("cross", 9), ("loop", 8)])
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


class TestSizeGuard:
    # N = 10^6 would take seconds and hundreds of MB to build: the guard
    # must refuse it before the graph exists
    @pytest.mark.parametrize("argv", [
        ["scan", "--topology", "loop", "--n", "1000"],
        ["peaks", "--topology", "loop", "--n-list", "4,1000"],
        ["scan", "--topology", "loop", "--n", "1000000"],
        ["verify", "--topology", "loop", "--n", "1000000"],
    ])
    def test_eigensystem_beyond_physical_memory_is_exit_2(self, argv, capsys):
        with time_budget(1):
            code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert f"N={argv[-1].split(',')[-1]}:" in err and "GB" in err

    # each grid would need terabytes or more, which numpy cannot allocate:
    # the CLI must refuse it before building it
    @pytest.mark.parametrize("argv", [
        ["scan", "--topology", "loop", "--n", "4", "--grid-step", "1e-12"],
        ["scan", "--topology", "loop", "--n", "4", "--t-max", "1e300"],
        ["peaks", "--topology", "loop", "--n-list", "4", "--grid-step", "1e-13"],
        ["protocol1", "--topology", "loop", "--n-list", "4", "--grid-step", "1e-13"],
        ["protocol2", "--topology", "loop", "--n", "4", "--grid-step", "1e-12"],
        ["verify", "--topology", "loop", "--n", "4", "--t-max", "1e12"],
    ])
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
    @pytest.mark.parametrize("flags", [["--grid-step", "1e-12"], ["--t-max", "1e300"],
                                       ["--t-max", "1e15", "--grid-step", "1e3"]])
    def test_json_scan_is_guarded_like_a_csv_scan(self, flags, capsys):
        argv = ["scan", "--topology", "loop", "--n", "4"] + flags
        with time_budget(1):
            csv_result = run_cli(argv, capsys)
            json_result = run_cli(argv + ["--format", "json"], capsys)
        assert json_result == csv_result
        assert csv_result[0] == 2 and "time grid" in csv_result[2]


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
        _write_table(args, ["a", "b"], (row for row in rows))
        payload = {"config": _config_echo(args, None), "columns": ["a", "b"],
                   "rows": [[_fmt(x) for x in row] for row in rows]}
        assert (tmp_path / "t.json").read_text() == json.dumps(payload, indent=2) + "\n"

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"topology": "loop", "n": 4, "t_max": 5,
                                   "no_timestamp": True}))
        code, out, _ = run_cli(["scan", "--config", str(cfg)], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[-1][0]) == pytest.approx(5.0, abs=0.02)

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

    @pytest.mark.parametrize("args", [
        ["scan", "--topology", "cross", "--n", "5", "--grid-step", "0"],
        ["scan", "--topology", "cross", "--n", "5", "--grid-step", "-0.1"],
        ["scan", "--topology", "cross", "--n", "5", "--t-max", "nan"],
        ["scan", "--topology", "cross", "--n", "5", "--t-max", "inf"],
        ["peaks", "--topology", "cross", "--n-list", "5", "--t-max", "-1"],
        ["protocol2", "--topology", "cross", "--n", "5", "--tau", "nan"],
        ["protocol2", "--topology", "cross", "--n", "5", "--refine-tol", "0"],
        ["protocol1", "--topology", "cross", "--n-list", "5", "--n-max", "0"],
    ])
    def test_invalid_numeric_flag_is_exit_2(self, args, capsys):
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert out == ""
        assert "must be" in err and "Traceback" not in err

    @pytest.mark.parametrize("args", [
        ["peaks", "--topology", "cross", "--n-list", ","],
        ["protocol1", "--topology", "cross", "--n-list", ","],
        ["protocol1", "--topology", "cross", "--n-list", "5", "--targets", ","],
    ])
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

    def test_usage_error_is_exit_1(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qutrit_bell.cli", "scan", "--topology",
             "nonsense"], capture_output=True, text=True)
        assert proc.returncode == 1

    def test_missing_custom_file_is_usage_error(self, capsys):
        code = main(["scan", "--topology", "custom"])
        assert code == 1
