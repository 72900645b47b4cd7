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
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (DEFAULT_GRID_STEP, DEFAULT_REFINE_TOL,
                       PEAK_WINDOW_FACTOR, assemble_hamiltonian, evolve,
                       find_peak, initial_state, spectral_decompose)
from .measurement import outcome_distribution
from .oracle import (ORACLE_MAX_SITES, full_evolve_compare, sector_restriction,
                     su3_algebra_check, symmetry_check)
from .protocols import (Strategy, build_protocol_report, plan_protocol2,
                        plan_regular, protocol1_cumulative, protocol1_required)
from .topology import Graph, Roles, build_cross, build_loop, find_protocol_automorphism

USAGE_ERROR = 1
PRECONDITION_ERROR = 2
VERIFICATION_ERROR = 3

#: Peak memory of building and checking the dense eigensystem, in d x d float
#: arrays; the RSS rise measured 5.2-5.3 of them at loop-36 and loop-60.
EIGENSYSTEM_ARRAYS = 6


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


def _check_fits(n: int) -> None:
    """Refuse N whose dense eigensystem would exceed physical memory."""
    d = n * (n - 1)
    need = EIGENSYSTEM_ARRAYS * 8 * d * d
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise PreconditionError(f"N={n}: the dense eigensystem (d = {d}) needs "
                                f"about {need / 1e9:.3g} GB, more than the "
                                f"{have / 1e9:.3g} GB of physical memory")


def _build_graph(args, n: int) -> Graph:
    """The system's graph; N is checked against memory before a built-in one is built."""
    if args.topology == "custom":
        g = _load_topology_file(args.topology_file)
        _check_fits(g.n_vertices)
        return g
    _check_fits(n)
    try:
        return build_cross(n) if args.topology == "cross" else build_loop(n)
    except ValueError as exc:
        raise PreconditionError(str(exc)) from exc


def _header_lines(args, extra: dict | None = None) -> list[str]:
    echo = {k: v for k, v in sorted(vars(args).items())
            if k not in ("func", "no_timestamp", "output", "config") and v is not None}
    if extra:
        echo.update(extra)
    lines = [f"# qutrit-bell {__version__}"]
    if not args.no_timestamp:
        lines.append(f"# generated: {datetime.now(timezone.utc).isoformat()}")
    lines.append("# config: " + " ".join(f"{k}={v}" for k, v in echo.items()))
    return lines


def _write_table(args, columns: list[str], rows: list[tuple],
                 extra_config: dict | None = None, sections=None) -> None:
    """Emit one table (or several named sections) as CSV or JSON."""
    out = Path(args.output) if args.output else None
    if args.format == "json":
        payload = {"config": {k: v for k, v in sorted(vars(args).items())
                              if k not in ("func", "no_timestamp", "output", "config")
                              and v is not None}}
        if extra_config:
            payload["config"].update(extra_config)
        if not args.no_timestamp:
            payload["generated"] = datetime.now(timezone.utc).isoformat()
        if sections is None:
            payload["columns"] = columns
            payload["rows"] = [[_fmt(x) for x in row] for row in rows]
        else:
            payload["sections"] = {
                name: {"columns": cols, "rows": [[_fmt(x) for x in row] for row in rws]}
                for name, cols, rws in sections}
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = _header_lines(args, extra_config)
        if sections is None:
            sections = [(None, columns, rows)]
        for name, cols, rws in sections:
            if name:
                lines.append(f"# table: {name}")
            lines.append(",".join(cols))
            lines.extend(",".join(_fmt(x) for x in row) for row in rws)
        text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _prepared(g: Graph):
    return spectral_decompose(assemble_hamiltonian(g)), initial_state(g)


def _parse_n_list(spec: str) -> list[int]:
    try:
        ns = [int(x) for x in spec.split(",") if x.strip()]
    except ValueError as exc:
        raise PreconditionError(f"bad N list {spec!r}: {exc}") from exc
    if not ns:
        raise PreconditionError("empty N list")
    return ns


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
    t_max = args.t_max if args.t_max is not None else PEAK_WINDOW_FACTOR * g.n_vertices
    eig, psi0 = _prepared(g)
    grid = np.arange(0.0, t_max + args.grid_step, args.grid_step)
    rows = []
    for t in grid:
        psi = evolve(eig, psi0, float(t))
        d = outcome_distribution(psi, g)
        rows.append((float(t), d.pS_bell, d.p1, d.p2, d.p3, d.pS_projection))
    _write_table(args, ["t", "p_success", "p1", "p2", "p3", "pS_projection"], rows)
    return 0


def cmd_peaks(args) -> int:
    ns = _parse_n_list(args.n_list)
    rows = []
    for n in ns:
        g = _build_graph(args, n)
        eig, psi0 = _prepared(g)
        t_star, p_star = find_peak(eig, psi0, g, t_max=args.t_max,
                                   grid_step=args.grid_step,
                                   refine_tol=args.refine_tol)
        rows.append((n, t_star, p_star))
    _write_table(args, ["N", "t_peak", "p_peak"], rows)
    return 0


def _parse_targets(spec: str) -> list[float]:
    try:
        targets = [float(x) for x in spec.split(",") if x.strip()]
    except ValueError as exc:
        raise PreconditionError(f"bad target list {spec!r}: {exc}") from exc
    if not targets:
        raise PreconditionError("empty target list")
    for q in targets:
        if not 0.0 < q < 1.0:
            raise PreconditionError(f"targets must lie strictly inside (0,1), got {q}")
    return targets


def cmd_protocol1(args) -> int:
    ns = _parse_n_list(args.n_list)
    targets = _parse_targets(args.targets)
    required_rows, series_rows = [], []
    for n in ns:
        g = _build_graph(args, n)
        eig, psi0 = _prepared(g)
        t_star, p_star = find_peak(eig, psi0, g, t_max=args.t_max,
                                   grid_step=args.grid_step,
                                   refine_tol=args.refine_tol)
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
    eig, _ = _prepared(g)
    if args.tau is not None:
        schedule = plan_regular(g, eig, args.tau, args.n_max)
    else:
        schedule = plan_protocol2(g, eig, Strategy(args.strategy), args.n_max,
                                  t_max=args.t_max, grid_step=args.grid_step,
                                  refine_tol=args.refine_tol)
    report = build_protocol_report(schedule, n=args.n_max)
    rows = []
    p1shot = schedule.p_success(0)
    for k in range(args.n_max):
        t_k = schedule.steps[k].time if k < len(schedule) else 0.0
        rows.append((k + 1, report.cumulative_no_reset[k], report.cumulative_total[k],
                     protocol1_cumulative(p1shot, k + 1), schedule.strategy, t_k))
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
    label = f"N{n}"
    h = assemble_hamiltonian(g)
    record(f"{label}_sector_restriction_max_diff",
           float(np.max(np.abs(sector_restriction(g) - h.matrix))), 1e-12)
    grid = np.arange(0.0, (args.t_max or 10.0) + 1e-9, 0.1)
    cmp_res = full_evolve_compare(g, grid)
    record(f"{label}_full_vs_reduced_max_amplitude_dev",
           cmp_res.max_amplitude_deviation, 1e-9)
    record(f"{label}_sector_leakage", cmp_res.max_sector_leakage, 1e-12)
    if find_protocol_automorphism(g).exists:
        record(f"{label}_bell_amplitude_asymmetry", symmetry_check(g, grid), 1e-10)
    rows = [(name, value, bound, "pass" if ok else "FAIL")
            for name, value, bound, ok in checks]
    _write_table(args, ["check", "measured", "bound", "status"], rows)
    if not all(ok for *_, ok in checks):
        return VERIFICATION_ERROR
    return 0


def _add_common(p: argparse.ArgumentParser, topology=True, n_single=True):
    if topology:
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
    p.set_defaults(func=cmd_verify)
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
    if getattr(args, "topology", None) == "custom" and not getattr(args, "topology_file", None):
        print("error: --topology custom requires --topology-file", file=sys.stderr)
        return USAGE_ERROR
    if getattr(args, "topology", None) in ("cross", "loop") and getattr(args, "n", None) is None \
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
