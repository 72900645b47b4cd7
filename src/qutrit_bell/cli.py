"""Command-line interface: scans, peak tables, protocol runs and verification.

Exit codes: 0 success, 1 usage error, 2 precondition violation,
3 verification failure. Output is CSV by default (JSON mirror via
--format json), with floats at 10 significant digits and a config echo in
the header; identical configurations and seeds produce byte-identical
files when --no-timestamp is given.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path

from . import __version__
from .dynamics import (DEFAULT_GRID_STEP, DEFAULT_REFINE_TOL,
                       PEAK_WINDOW_FACTOR, _time_grid, assemble_hamiltonian,
                       initial_state, one_shot_peak, spectral_decompose)
from .measurement import outcome_curves
from .oracle import ORACLE_MAX_SITES, full_evolve_compare, su3_algebra_check
from .protocols import (PLAN_WINDOW_FACTOR, Strategy, plan_protocol2, plan_regular,
                        protocol1_cumulative, protocol1_required, protocol2_no_reset,
                        protocol2_total)
from .topology import Graph, Roles, build_cross, build_loop, find_protocol_automorphism

USAGE_ERROR = 1
PRECONDITION_ERROR = 2
VERIFICATION_ERROR = 3

#: Peak memory of building and checking the dense eigensystem, in d x d float
#: arrays; the RSS rise measured 5.2-5.3 of them at loop-36 and loop-60.
EIGENSYSTEM_ARRAYS = 6
#: Float arrays of grid length a command holds besides amplitude rows: a scan's
#: grid and its five outcome curves.
GRID_ARRAYS = 6
VERIFY_GRID_STEP = 0.1  # default step of the grid on which `verify` compares the engines
#: Cap on |E| t_max, the Chebyshev argument over which `verify` propagates the
#: 3^N state. At cross-9 a unit costs about 0.9 ms on 2 cores (2.9 s for
#: t_max = 400), so some 9 s at the cap; a grid step dt beyond
#: CHEBYSHEV_SPAN / |E| takes one recurrence of order about 1.4 |E| dt.
VERIFY_MAX_EDGE_TIME = 1e4


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


def _load_topology_file(path: str) -> Graph:
    """Plain-text custom graph: N; four role vertices; one edge per line."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise PreconditionError(f"topology file {path}: {exc}") from exc
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if len(lines) < 2:
        raise PreconditionError(f"topology file {path}: need at least N and roles lines")
    try:
        n = int(lines[0])
        plus, minus, alice, bob = (int(x) for x in lines[1].split())
        edges = set()
        for line in lines[2:]:
            u, v = (int(x) for x in line.split())
            edges.add((min(u, v), max(u, v)))
    except ValueError as exc:
        raise PreconditionError(f"topology file {path}: {exc}") from exc
    try:
        return Graph(n_vertices=n, edges=frozenset(edges),
                     roles=Roles(plus, minus, alice, bob))
    except ValueError as exc:
        raise PreconditionError(f"topology file {path}: {exc}") from exc


def _check_memory(what: str, need: float) -> None:
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise PreconditionError(f"{what} needs about {need / 1e9:.3g} GB, more than "
                                f"the {have / 1e9:.3g} GB of physical memory")


def _check_fits(n: int, d: int) -> None:
    """Refuse N whose dense d x d eigensystem would exceed physical memory."""
    _check_memory(f"N={n}: the dense eigensystem (d = {d})",
                  EIGENSYSTEM_ARRAYS * 8 * d * d)


def _check_grid(t_max: float, step: float, rows: int = 0) -> None:
    """Refuse a time grid whose arrays would exceed physical memory.

    Each grid point costs GRID_ARRAYS floats plus one complex amplitude per
    row held along the whole grid.
    """
    points = t_max / step + 1
    _check_memory(f"the time grid over [0, {t_max:g}] at step {step:g} ({points:.3g} points)",
                  points * 8 * (GRID_ARRAYS + 2 * rows))


def _build_graph(args, n: int, c_even: bool = False) -> Graph:
    """The system's graph; N is checked against memory before a built-in one is built.

    The eigensystem checked is the pair space, or its C-even block (half of it).
    """
    custom = _load_topology_file(args.topology_file) if args.topology == "custom" else None
    n = n if custom is None else custom.n_vertices
    _check_fits(n, n * (n - 1) // (2 if c_even else 1))
    if custom is not None:
        return custom
    try:
        return build_cross(n) if args.topology == "cross" else build_loop(n)
    except ValueError as exc:
        raise PreconditionError(str(exc)) from exc


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
        yield from (",".join(_fmt(x) for x in row) + "\n" for row in rws)


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


def _write_table(args, columns: list[str], rows,
                 extra_config: dict | None = None, sections=None) -> None:
    """Emit one table (or several named sections) as CSV or JSON.

    Rows may be any iterable. Both formats format rows as they are written,
    so a long scan never holds its table as text.
    """
    if args.format == "json":
        payload = {"config": _config_echo(args, extra_config)}
        if not args.no_timestamp:
            payload["generated"] = datetime.now(timezone.utc).isoformat()
        if sections is None:
            payload["columns"] = columns
            payload["rows"] = _json_rows(rows)
        else:
            payload["sections"] = {name: {"columns": cols, "rows": _json_rows(rws)}
                                   for name, cols, rws in sections}
        # indent=2, as json.dumps(payload, indent=2) would write it
        chunks = chain(json.JSONEncoder(indent=2).iterencode(payload), ["\n"])
    else:
        chunks = _csv_lines(args, extra_config,
                            [(None, columns, rows)] if sections is None else sections)
    if args.output:
        with open(args.output, "w") as out:
            out.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _prepared(g: Graph):
    return spectral_decompose(assemble_hamiltonian(g)), initial_state(g)


def _parse_list(spec: str, convert, name: str) -> list:
    """Comma-separated values of --n-list or --targets; empty entries are skipped."""
    try:
        values = [convert(x) for x in spec.split(",") if x.strip()]
    except ValueError as exc:
        raise PreconditionError(f"bad {name} list {spec!r}: {exc}") from exc
    if not values:
        raise PreconditionError(f"empty {name} list")
    return values


def _check_numeric_flags(args) -> None:
    """Reject numeric flags no command can use, before any work starts."""
    for name in ("t_max", "grid_step", "refine_tol", "tau"):
        value = getattr(args, name, None)
        if value is not None and not (math.isfinite(value) and value > 0):
            raise PreconditionError(
                f"--{name.replace('_', '-')} must be finite and > 0, got {value}")
    if getattr(args, "n_max", 1) < 1:
        raise PreconditionError(f"--n-max must be >= 1, got {args.n_max}")


def cmd_scan(args) -> int:
    g = _build_graph(args, args.n)
    t_max = args.t_max or PEAK_WINDOW_FACTOR * g.n_vertices
    _check_grid(t_max, args.grid_step)
    eig, psi0 = _prepared(g)
    grid = _time_grid(t_max, args.grid_step)
    curves = outcome_curves(eig, psi0, g, grid)
    rows = zip(*(map(float, column) for column in (grid, *curves)))
    _write_table(args, ["t", "p_success", "p1", "p2", "p3", "pS_projection"], rows)
    return 0


def _peaks(args, ns: list[int]) -> list[tuple[int, float, float]]:
    """(N, t_peak, p_peak) per size; every graph and grid is checked before any work."""
    graphs = [(n, _build_graph(args, n, c_even=True)) for n in ns]
    for _, g in graphs:
        _check_grid(args.t_max or PEAK_WINDOW_FACTOR * g.n_vertices, args.grid_step, rows=1)
    return [(n, *one_shot_peak(g, t_max=args.t_max, grid_step=args.grid_step,
                               refine_tol=args.refine_tol))
            for n, g in graphs]


def cmd_peaks(args) -> int:
    _write_table(args, ["N", "t_peak", "p_peak"], _peaks(args, _parse_list(args.n_list, int, "N")))
    return 0


def cmd_protocol1(args) -> int:
    ns = _parse_list(args.n_list, int, "N")
    targets = _parse_list(args.targets, float, "target")
    for q in targets:
        if not 0.0 < q < 1.0:
            raise PreconditionError(f"targets must lie strictly inside (0,1), got {q}")
    required_rows, series_rows = [], []
    for n, t_star, p_star in _peaks(args, ns):
        if not 0.0 < p_star < 1.0:
            raise PreconditionError(f"N={n}: peak probability {p_star} unusable "
                                    "for repetition counts")
        for q in targets:
            required_rows.append((n, q, protocol1_required(p_star, q)))
        for k in range(1, args.n_max + 1):
            series_rows.append((n, k, protocol1_cumulative(p_star, k)))
    _write_table(args, [], [], sections=[
        ("required_measurements", ["N", "q", "n_required"], required_rows),
        ("cumulative_series", ["N", "n", "P_n"], series_rows)])
    return 0


def cmd_protocol2(args) -> int:
    g = _build_graph(args, args.n)
    if args.tau is None:
        _check_grid(args.t_max or PLAN_WINDOW_FACTOR * g.n_vertices, args.grid_step)
    eig, _ = _prepared(g)
    if args.tau is not None:
        schedule = plan_regular(g, eig, args.tau, args.n_max)
    else:
        try:
            schedule = plan_protocol2(g, eig, Strategy(args.strategy), args.n_max,
                                      t_max=args.t_max, grid_step=args.grid_step,
                                      refine_tol=args.refine_tol)
        except RuntimeError as exc:  # a search window without success
            raise PreconditionError(str(exc)) from exc
    series = zip(protocol2_no_reset(schedule, args.n_max), protocol2_total(schedule, args.n_max))
    rows = [(k + 1, pbar, ptot, protocol1_cumulative(schedule.steps[0].p_success, k + 1),
             schedule.strategy, schedule.steps[k].time if k < len(schedule) else 0.0)
            for k, (pbar, ptot) in enumerate(series)]
    extra = {}
    if schedule.success_deficit > 1e-12:
        extra["asymmetric_success_deficit"] = _fmt(schedule.success_deficit)
    _write_table(args, ["n", "P_bar_n", "P_n", "P_protocol1_n", "strategy", "t_n"],
                 rows, extra_config=extra)
    return 0


def cmd_verify(args) -> int:
    checks: list[tuple[str, float, float, bool]] = []

    def record(name: str, value: float, bound: float):
        checks.append((name, value, bound, bool(value < bound)))

    record("su3_algebra_max_violation", su3_algebra_check(), 1e-14)

    g = _build_graph(args, args.n)
    n = g.n_vertices
    if n > ORACLE_MAX_SITES:
        raise PreconditionError(
            f"brute-force verification is capped at N <= {ORACLE_MAX_SITES}, got N={n}")
    t_max = args.t_max or 10.0
    _check_grid(t_max, args.grid_step, rows=n * (n - 1))
    if len(g.edges) * t_max > VERIFY_MAX_EDGE_TIME:
        raise PreconditionError(f"verify propagates the 3^N state over |E| t_max = "
                                f"{len(g.edges) * t_max:.3g}, beyond the cap of "
                                f"{VERIFY_MAX_EDGE_TIME:g}")
    label = f"N{n}"
    cmp_res = full_evolve_compare(g, _time_grid(t_max, args.grid_step))
    record(f"{label}_sector_restriction_max_diff", cmp_res.max_restriction_deviation, 1e-12)
    record(f"{label}_full_vs_reduced_max_amplitude_dev",
           cmp_res.max_amplitude_deviation, 1e-9)
    record(f"{label}_sector_leakage", cmp_res.max_sector_leakage, 1e-12)
    if find_protocol_automorphism(g).exists:
        record(f"{label}_bell_amplitude_asymmetry", cmp_res.max_bell_asymmetry, 1e-10)
    rows = [(name, value, bound, "pass" if ok else "FAIL")
            for name, value, bound, ok in checks]
    _write_table(args, ["check", "measured", "bound", "status"], rows)
    if not all(ok for *_, ok in checks):
        return VERIFICATION_ERROR
    return 0


def _add_common(p: argparse.ArgumentParser, n_single=True):
    p.add_argument("--topology", choices=["cross", "loop", "custom"], default="cross")
    p.add_argument("--topology-file", help="custom topology file (with --topology custom)")
    if n_single:
        p.add_argument("--n", type=int, help="number of qutrits")
    p.add_argument("--t-max", type=float, default=None,
                   help="scan window end (default 6.4N; protocol planning uses 8N)")
    p.add_argument("--grid-step", type=float, default=DEFAULT_GRID_STEP)
    p.add_argument("--refine-tol", type=float, default=DEFAULT_REFINE_TOL)
    p.add_argument("--output", help="output file (default stdout)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the timestamp header line (byte-stable output)")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="qutrit-bell",
                  description="Bell-state distribution on exchange-coupled qutrit graphs")
    top.add_argument("--config", help="JSON file with flag defaults")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan", help="success probability and outcome curves vs time")
    _add_common(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("peaks", help="peak success probability per system size")
    _add_common(p, n_single=False)
    p.add_argument("--n-list", required=True, help="comma-separated sizes, e.g. 5,7,9")
    p.set_defaults(func=cmd_peaks)

    p = sub.add_parser("protocol1", help="repeat-with-reset measurement counts")
    _add_common(p, n_single=False)
    p.add_argument("--n-list", required=True)
    p.add_argument("--targets", default="0.90,0.95,0.99")
    p.add_argument("--n-max", type=int, default=10, help="series length")
    p.set_defaults(func=cmd_protocol1)

    p = sub.add_parser("protocol2", help="conditional-reset protocol series")
    _add_common(p)
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


def _apply_config_file(argv: list[str]) -> list[str]:
    """Prepend flags from --config <file> (flags on the command line win)."""
    if "--config" not in argv:
        return argv
    k = argv.index("--config")
    path = argv[k + 1]
    cfg = json.loads(Path(path).read_text())
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: the top level is not a JSON object")
    flags: list[str] = []
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                flags.append(flag)
        else:
            flags.extend([flag, str(value)])
    rest = argv[:k] + argv[k + 2:]
    return rest[:1] + flags + rest[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and "--config" in argv:
        try:
            argv = _apply_config_file(argv)
        except (OSError, ValueError, IndexError) as exc:
            print(f"error: cannot read config file: {exc}", file=sys.stderr)
            return USAGE_ERROR
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.topology == "custom" and not args.topology_file:
        print("error: --topology custom requires --topology-file", file=sys.stderr)
        return USAGE_ERROR
    if args.topology != "custom" and getattr(args, "n", None) is None \
            and not hasattr(args, "n_list"):
        print("error: --n is required for built-in topologies", file=sys.stderr)
        return USAGE_ERROR
    try:
        _check_numeric_flags(args)
        return args.func(args)
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return PRECONDITION_ERROR


if __name__ == "__main__":
    sys.exit(main())
