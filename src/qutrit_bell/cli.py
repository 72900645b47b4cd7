"""Command-line interface: scans, peak tables, protocol runs and verification.

Exit codes: 0 success, 1 usage error, 2 precondition violation,
3 verification failure. Output is CSV by default (JSON mirror via
--format json), with floats at 10 significant digits and a config echo in
the header; identical configurations and seeds produce byte-identical
files when --no-timestamp is given.

`main` parses the flags; `_checked_run` makes every exit-2 refusal they decide,
before any work, each run's cost among them (its engine counts it, `_admit` caps it);
the command then only computes and writes, and an output that fails exits 2 as well.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cache, partial
from itertools import chain
from pathlib import Path

from . import __version__
from .dynamics import (DEFAULT_GRID_STEP, DEFAULT_REFINE_TOL, GRID_END_SLACK, MAX_WORK,
                       PEAK_WINDOW_FACTOR, PHASE_BLOCK, _peak_cost, _time_grid,
                       bell_pairs_share_a_cell, initial_state, one_shot_peak)
from .measurement import _scan_cost, outcome_curves
from .oracle import _verify_cost, full_evolve_compare, su3_algebra_check
from .protocols import (PLAN_WINDOW_FACTOR, Strategy, _plan_cost, plan_protocol2,
                        plan_regular, protocol1_cumulative, protocol1_required,
                        protocol2_no_reset, protocol2_total)
from .topology import Graph, Roles, build_cross, build_loop

USAGE_ERROR = 1
PRECONDITION_ERROR = 2
VERIFICATION_ERROR = 3

VERIFY_GRID_STEP = 0.1  # default step of the grid on which `verify` compares the engines
#: entry steps charged per row of protocol1's `cumulative_series`, made and written: 2.1-3.0
#: us a CSV row and 5.0-5.8 us a JSON row on 2 cores, so the cap's 2e6 rows take 4-12 s
SERIES_ROW_STEPS = 500
#: Cap on protocol 2's planning window and on --tau, not a cost: lambda t rounds past the
#: planner's symmetry from 1e9, and one ulp of tau moves cross-5's 9th digit at 1e6.
PLAN_MAX_TIME = 1e6


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(USAGE_ERROR)


class PreconditionError(Exception):
    pass


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


@cache
def _row_format(types: tuple[type, ...]) -> str:
    """One CSV line's `%` format for a row of these cell types, as `_fmt` formats each
    cell: '%.10g' prints a float as f"{x:.10g}" does, '%s' anything else as str does."""
    return ",".join("%.10g" if issubclass(t, float) else "%s" for t in types) + "\n"


def _load_topology_file(path: str) -> tuple[int, frozenset, Roles]:
    """Plain-text custom graph: N; four role vertices; one edge per line.

    Returns (N, edges, roles) unbuilt, so that N is sized before its graph
    exists; raises OSError or ValueError for a file it cannot read or parse.
    """
    lines = [line for line in (raw.split("#", 1)[0].strip()
                               for raw in Path(path).read_text().splitlines()) if line]
    if len(lines) < 2:
        raise ValueError("need at least N and roles lines")
    n = int(lines[0])
    plus, minus, alice, bob = (int(x) for x in lines[1].split())
    edges = frozenset((min(u, v), max(u, v))
                      for u, v in (map(int, line.split()) for line in lines[2:]))
    return n, edges, Roles(plus, minus, alice, bob)


def _admit(what: str, work: float, need: float) -> None:
    """Refuse a run past the one work cap or the memory budget: physical memory, or the
    address space left under the process's RLIMIT_AS if that is less."""
    if not work <= MAX_WORK:
        raise PreconditionError(f"{what} takes about {work:.3g} entry steps, beyond the "
                                f"cap of {MAX_WORK:g}")
    page, limit = os.sysconf("SC_PAGE_SIZE"), resource.getrlimit(resource.RLIMIT_AS)[0]
    have = page * os.sysconf("SC_PHYS_PAGES")
    if limit != resource.RLIM_INFINITY:  # less the address space in use, in pages (Linux)
        statm = Path("/proc/self/statm")
        used = int(statm.read_text().split()[0]) if statm.exists() else 0
        have = min(have, limit - page * used)
    if not need <= have:
        raise PreconditionError(f"{what} needs about {need / 1e9:.3g} GB, more than the "
                                f"{have / 1e9:.3g} GB of memory this process can use")


def _config_echo(args, extra: dict | None) -> dict:
    echo = {k: v for k, v in sorted(vars(args).items())
            if k not in ("func", "no_timestamp", "output", "config") and v is not None}
    echo.update(extra or {})
    return echo


def _header_lines(args, extra: dict | None = None) -> list[str]:
    lines = [f"# qutrit-bell {__version__}"]
    if not args.no_timestamp:
        lines.append(f"# generated: {datetime.now(timezone.utc).isoformat()}")
    lines.append("# config: " + " ".join(f"{k}={v}" for k, v in _config_echo(args, extra).items()))
    return lines


def _csv_lines(args, extra_config: dict | None, sections):
    yield from (line + "\n" for line in _header_lines(args, extra_config))
    for name, cols, rws in sections:
        if name:
            yield f"# table: {name}\n"
        yield ",".join(cols) + "\n"
        yield from (_row_format(tuple(map(type, row))) % tuple(row) for row in rws)


class _Rows(list):
    """A non-empty row iterable that `json` encodes as a list, one row at a time."""

    def __init__(self, rows):
        super().__init__()
        self._rows = rows

    def __bool__(self):
        return True

    def __iter__(self):
        return ([_fmt(x) for x in row] for row in self._rows)


def _json_rows(rows):
    """Rows for the JSON encoder: read lazily, or [] when there are none."""
    rows = iter(rows)
    first = next(rows, None)
    return [] if first is None else _Rows(chain([first], rows))


def _write_table(args, sections, extra_config: dict | None = None) -> None:
    """Emit (name, columns, rows) sections as CSV or JSON; an unnamed one alone is a table.
    Rows, any iterable, are formatted as they are written: a scan holds no table as text."""
    if args.format == "json":
        payload = {"config": _config_echo(args, extra_config)}
        if not args.no_timestamp:
            payload["generated"] = datetime.now(timezone.utc).isoformat()
        if len(sections) == 1 and sections[0][0] is None:
            [(_, columns, rows)] = sections
            payload["columns"], payload["rows"] = columns, _json_rows(rows)
        else:
            payload["sections"] = {name: {"columns": cols, "rows": _json_rows(rws)}
                                   for name, cols, rws in sections}
        # indent=2, as json.dumps(payload, indent=2) would write it
        chunks = chain(json.JSONEncoder(indent=2).iterencode(payload), ["\n"])
    else:
        chunks = _csv_lines(args, extra_config, sections)
    try:
        if args.output:
            with open(args.output, "w") as out:
                out.writelines(chunks)
        else:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
    except OSError as exc:  # a full device, a closed pipe
        if isinstance(exc, BrokenPipeError):  # so the interpreter's last flush writes nothing
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise PreconditionError(f"cannot write the output: {exc}") from exc


def _parse_list(spec: str, convert, name: str) -> list:
    """Comma-separated values of --n-list or --targets; empty entries are skipped."""
    try:
        values = [convert(x) for x in spec.split(",") if x.strip()]
    except ValueError as exc:
        raise PreconditionError(f"bad {name} list {spec!r}: {exc}") from exc
    if not values:
        raise PreconditionError(f"empty {name} list")
    return values


@dataclass(frozen=True)
class _Run:
    """What the checks derive: each system as (N as listed, graph, window end t_max)."""

    systems: tuple[tuple[int, Graph, float], ...]
    targets: tuple[float, ...]


def _series_cost(rows: int, n: int, t_max: float, points: float, g: Graph | None = None):
    """(work, bytes) of `protocol1` on one system: its peak search (`_peak_cost`) and its
    `rows` series rows, SERIES_ROW_STEPS each; they are written as they are made."""
    work, need = _peak_cost(n, t_max, points, g)
    return work + SERIES_ROW_STEPS * rows, need


def _checked_run(args) -> _Run:
    """Make every exit-2 refusal that the flags decide, before any work starts: the
    flags, --output (creating no file), the planning cap, the grid step, and the cost
    (`_admit`): each system's bytes, at the bound of N alone before its graph is built,
    and the work of the systems listed up to it, summed."""
    for name in ("t_max", "grid_step", "refine_tol", "tau", "n_max"):
        value = getattr(args, name, None)
        if value is not None and not (math.isfinite(value) and value > 0):
            raise PreconditionError(
                f"--{name.replace('_', '-')} must be finite and > 0, got {value}")
    if args.output:
        out = Path(args.output)
        if out.is_dir() or not os.access(out if out.exists() else out.parent, os.W_OK):
            raise PreconditionError(f"--output {args.output} is not a writable file")
    command = args.command
    n_list = getattr(args, "n_list", None)
    ns = [getattr(args, "n", None)] if n_list is None else _parse_list(n_list, int, "N")
    targets = tuple(_parse_list(args.targets, float, "target")) if command == "protocol1" else ()
    for q in targets:
        if not 0.0 < q < 1.0:
            raise PreconditionError(f"targets must lie strictly inside (0,1), got {q}")
    custom = args.topology == "custom"
    where = f"topology file {args.topology_file}: " if custom else ""
    if custom:
        try:
            n_file, edges, roles = _load_topology_file(args.topology_file)
        except (OSError, ValueError) as exc:
            raise PreconditionError(f"{where}{exc}") from exc
        for n in ns:
            if n is not None and n != n_file:
                raise PreconditionError(f"{where}N must be the file's N={n_file}, got N={n}")
        ns = [n_file] * len(ns)
    systems, total = [], 0.0
    tau = getattr(args, "tau", None) is not None  # protocol2 on the cell quotient
    planned = "tau" if tau else "t_max"  # the interval, or the planning window
    if command == "protocol2" and (getattr(args, planned) or 0) > PLAN_MAX_TIME:
        raise PreconditionError(f"--{planned.replace('_', '-')} exceeds the planning cap of "
                                f"{PLAN_MAX_TIME:g}")
    plan = partial(_plan_cost, steps=getattr(args, "n_max", 1),
                   strategy=Strategy(getattr(args, "strategy", Strategy.MIN_LOSS.value)))
    cost = {"scan": _scan_cost, "verify": _verify_cost, "protocol2": plan,
            "protocol1": partial(_series_cost, getattr(args, "n_max", 1))}.get(command, _peak_cost)
    for n in ns:
        t_max = args.t_max or (10.0 if command == "verify" else n * (
            PLAN_WINDOW_FACTOR if command == "protocol2" else PEAK_WINDOW_FACTOR))
        points = 0.0 if tau else t_max / args.grid_step + 1
        if not tau and command in ("peaks", "protocol1", "protocol2") and args.grid_step > t_max:
            raise PreconditionError(f"--grid-step exceeds the window [0, {t_max:g}]")
        what = f"N={n}: {command}" + (f" on a time grid of {points:.3g} points" if points else "")
        what += f" with --n-max {args.n_max}" if command in ("protocol1", "protocol2") else ""
        _admit(what, 0.0, cost(n, t_max + GRID_END_SLACK, points)[1])
        try:
            g = (Graph(n, edges, roles) if custom else
                 build_cross(n) if args.topology == "cross" else build_loop(n))
            work, need = cost(n, t_max + GRID_END_SLACK, points, g)
        except ValueError as exc:  # a graph that cannot be built; the oracle's bound on N
            raise PreconditionError(f"{where}{exc}") from exc
        total += work
        _admit(what if not systems else f"--n-list up to {what}", total, need)
        systems.append((n, g, t_max))
    return _Run(tuple(systems), targets)


def cmd_scan(args, run: _Run) -> int:
    [(_, g, t_max)] = run.systems
    grid = _time_grid(t_max, args.grid_step)
    columns = (grid, *outcome_curves(g, initial_state(g), grid))
    # one block of PHASE_BLOCK points at a time as Python floats, not the whole grid
    rows = (row for s in range(0, grid.size, PHASE_BLOCK)
            for row in zip(*(column[s:s + PHASE_BLOCK].tolist() for column in columns)))
    _write_table(args, [(None, ["t", "p_success", "p1", "p2", "p3", "pS_projection"], rows)])
    return 0


def _peaks(args, run: _Run) -> list[tuple[int, float, float]]:
    """(N, t_peak, p_peak) per system."""
    return [(n, *one_shot_peak(g, t_max=t_max, grid_step=args.grid_step,
                               refine_tol=args.refine_tol))
            for n, g, t_max in run.systems]


def cmd_peaks(args, run: _Run) -> int:
    _write_table(args, [(None, ["N", "t_peak", "p_peak"], _peaks(args, run))])
    return 0


def cmd_protocol1(args, run: _Run) -> int:
    peaks = _peaks(args, run)
    for n, _, p_star in peaks:
        if not 0.0 < p_star < 1.0:
            raise PreconditionError(f"N={n}: peak probability {p_star} unusable "
                                    "for repetition counts")
    required_rows = [(n, q, protocol1_required(p_star, q))
                     for n, _, p_star in peaks for q in run.targets]
    # made as they are written, so memory does not grow with --n-max
    series_rows = ((n, k, protocol1_cumulative(p_star, k))
                   for n, _, p_star in peaks for k in range(1, args.n_max + 1))
    _write_table(args, [("required_measurements", ["N", "q", "n_required"], required_rows),
                        ("cumulative_series", ["N", "n", "P_n"], series_rows)])
    return 0


def cmd_protocol2(args, run: _Run) -> int:
    [(_, g, t_max)] = run.systems
    if args.tau is not None:
        schedule = plan_regular(g, args.tau, args.n_max)
    else:
        try:
            schedule = plan_protocol2(g, strategy=Strategy(args.strategy), n_max=args.n_max,
                                      t_max=t_max, grid_step=args.grid_step,
                                      refine_tol=args.refine_tol)
        except RuntimeError as exc:  # a search window without success
            raise PreconditionError(str(exc)) from exc
    strategy = "regular" if args.tau is not None else args.strategy
    series = zip(protocol2_no_reset(schedule, args.n_max), protocol2_total(schedule, args.n_max))
    rows = ((k + 1, pbar, ptot, protocol1_cumulative(schedule[0].pS_bell, k + 1),
             strategy, schedule[k].time if k < len(schedule) else 0.0)
            for k, (pbar, ptot) in enumerate(series))
    deficit = max(s.pS_projection - s.pS_bell for s in schedule)
    extra = {"asymmetric_success_deficit": _fmt(deficit)} if deficit > 1e-12 else {}
    _write_table(args, [(None, ["n", "P_bar_n", "P_n", "P_protocol1_n", "strategy", "t_n"],
                         rows)], extra)
    return 0


def cmd_verify(args, run: _Run) -> int:
    [(_, g, t_max)] = run.systems
    label = f"N{g.n_vertices}"
    checks = [("su3_algebra_max_violation", su3_algebra_check(), 1e-14)]
    cmp_res = full_evolve_compare(g, _time_grid(t_max, args.grid_step))
    checks += [(f"{label}_sector_restriction_max_diff", cmp_res.max_restriction_deviation, 1e-12),
               (f"{label}_full_vs_reduced_max_amplitude_dev",
                cmp_res.max_amplitude_deviation, 1e-9),
               (f"{label}_sector_leakage", cmp_res.max_sector_leakage, 1e-12)]
    if bell_pairs_share_a_cell(g):  # one cell makes the two Bell-channel amplitudes equal
        checks.append((f"{label}_bell_amplitude_asymmetry", cmp_res.max_bell_asymmetry, 1e-10))
    rows = [(name, value, bound, "pass" if value < bound else "FAIL")
            for name, value, bound in checks]
    _write_table(args, [(None, ["check", "measured", "bound", "status"], rows)])
    return 0 if all(row[3] == "pass" for row in rows) else VERIFICATION_ERROR


def _add_common(p: argparse.ArgumentParser, n_single=True, refine=False):
    p.add_argument("--topology", choices=["cross", "loop", "custom"], default="cross")
    p.add_argument("--topology-file", help="custom topology file (with --topology custom)")
    if n_single:
        p.add_argument("--n", type=int, help="number of qutrits")
    p.add_argument("--t-max", type=float, default=None,
                   help="window end (default 6.4N; protocol2 planning 8N; verify 10)")
    p.add_argument("--grid-step", type=float, default=DEFAULT_GRID_STEP)
    if refine:  # the commands that refine a peak
        p.add_argument("--refine-tol", type=float, default=DEFAULT_REFINE_TOL)
    p.add_argument("--output", help="output file (default stdout)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the timestamp header line (byte-stable output)")


@cache  # one parser per process, built at the first `main` call; parsing leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="qutrit-bell",
                  description="Bell-state distribution on exchange-coupled qutrit graphs")
    top.add_argument("--config", help="JSON file with flag defaults")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan", help="success probability and outcome curves vs time")
    _add_common(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("peaks", help="peak success probability per system size")
    _add_common(p, n_single=False, refine=True)
    p.add_argument("--n-list", help="comma-separated sizes, e.g. 5,7,9")
    p.set_defaults(func=cmd_peaks)

    p = sub.add_parser("protocol1", help="repeat-with-reset measurement counts")
    _add_common(p, n_single=False, refine=True)
    p.add_argument("--n-list")
    p.add_argument("--targets", default="0.90,0.95,0.99")
    p.add_argument("--n-max", type=int, default=10, help="series length")
    p.set_defaults(func=cmd_protocol1)

    p = sub.add_parser("protocol2", help="conditional-reset protocol series")
    _add_common(p, refine=True)
    p.add_argument("--strategy", choices=[s.value for s in Strategy],
                   default=Strategy.PEAK_SUCCESS.value)
    p.add_argument("--tau", type=float, default=None,
                   help="use a regular schedule with this interval instead")
    p.add_argument("--n-max", type=int, default=10)
    p.set_defaults(func=cmd_protocol2)

    p = sub.add_parser("verify", help="brute-force and algebra checks")
    _add_common(p)
    p.set_defaults(func=cmd_verify, grid_step=VERIFY_GRID_STEP)
    return top


@cache  # as build_parser: one per process, left as it was by parsing
def _config_parser() -> argparse.ArgumentParser:
    pre = _Parser(prog="qutrit-bell", add_help=False)
    pre.add_argument("--config")
    return pre


def _apply_config_file(argv: list[str]) -> list[str]:
    """Insert the flags of --config FILE after the subcommand (command-line flags win).

    `--config FILE` and `--config=FILE` are both found, before or after the
    subcommand.
    """
    known, rest = _config_parser().parse_known_args(argv)
    if known.config is None:
        return argv
    cfg = json.loads(Path(known.config).read_text())
    if not isinstance(cfg, dict):
        raise ValueError(f"{known.config}: the top level is not a JSON object")
    flags: list[str] = []
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                flags.append(flag)
        elif isinstance(value, list):  # --n-list and --targets take comma-separated values
            flags.extend([flag, ",".join(map(str, value))])
        else:
            flags.extend([flag, str(value)])
    return rest[:1] + flags + rest[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config_file(argv)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read config file: {exc}", file=sys.stderr)
        return USAGE_ERROR
    args = build_parser().parse_args(argv)
    if args.topology == "custom" and not args.topology_file:
        print("error: --topology custom requires --topology-file", file=sys.stderr)
        return USAGE_ERROR
    size = "n_list" if hasattr(args, "n_list") else "n"
    if args.topology != "custom" and getattr(args, size) is None:
        print(f"error: --{size.replace('_', '-')} is required for built-in topologies",
              file=sys.stderr)
        return USAGE_ERROR
    try:
        return args.func(args, _checked_run(args))
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return PRECONDITION_ERROR


if __name__ == "__main__":
    sys.exit(main())
