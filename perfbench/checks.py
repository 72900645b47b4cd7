"""Output checks: golden comparison at the library's tolerances, plus invariants.

Outputs are the CLI's CSV files. `#` header lines are metadata and are not
compared, except `# table:` markers, which separate the sections of one file.
"""

from __future__ import annotations

from pathlib import Path

#: columns compared as exact strings (integers, labels, inputs echoed back)
EXACT = {"N", "n", "q", "n_required", "strategy", "check", "bound", "status"}
#: time columns; refined times may move within the CLI's default --refine-tol
TIMES = {"t", "t_n", "t_peak"}
#: measured residuals of `verify`; they pass or fail through their status column
SKIP = {"measured"}
TIME_TOL = 1e-6
PROB_TOL = 1e-9
#: bound on |dP/dt| for any probability the CLI reports: for P = Tr(A U(t) rho
#: U(t)^dagger) with ||A|| <= 1, |dP/dt| <= 2||H|| <= 4 * (max degree), and the
#: benchmark's graphs have max degree <= 10. A refined time is not always a
#: stationary point (min-loss, max-margin, every protocol-2 step after the
#: first), so probabilities of a row may move by this much per unit of the
#: summed time shifts of that row and the rows before it.
DP_DT_BOUND = 40.0
#: p1 + p2 + p3 + pS_projection must equal 1 to this accuracy
SUM_TOL = 1e-8


class CheckFailed(Exception):
    pass


def parse_tables(text: str) -> dict[str, tuple[list[str], list[list[str]]]]:
    """CSV output split into its named sections (one unnamed section if none)."""
    tables: dict[str, tuple[list[str], list[list[str]]]] = {}
    name, cols = "", None
    for line in text.splitlines():
        if line.startswith("# table:"):
            name, cols = line[len("# table:"):].strip(), None
        elif line and not line.startswith("#"):
            fields = line.split(",")
            if cols is None:
                cols = fields
                tables[name] = (cols, [])
            else:
                tables[name][1].append(fields)
    return tables


def _float(cell: str) -> float:
    try:
        return float(cell)
    except ValueError as exc:
        raise CheckFailed(f"not a number: {cell!r}") from exc


def compare(golden_text: str, text: str) -> float:
    """Worst deviation from the golden output; raises CheckFailed past a tolerance."""
    want, got = parse_tables(golden_text), parse_tables(text)
    if list(want) != list(got):
        raise CheckFailed(f"sections {list(got)} != golden {list(want)}")
    worst = 0.0
    for name, (cols, rows) in want.items():
        gcols, grows = got[name]
        if gcols != cols:
            raise CheckFailed(f"[{name}] columns {gcols} != golden {cols}")
        if len(grows) != len(rows):
            raise CheckFailed(f"[{name}] {len(grows)} rows != golden {len(rows)}")
        time_shift = 0.0  # summed time deviations of this row and the rows before it
        for k, (row, grow) in enumerate(zip(rows, grows)):
            if len(grow) != len(cols):
                raise CheckFailed(f"[{name}] row {k} has {len(grow)} fields")
            time_shift += sum(abs(_float(a) - _float(b))
                              for col, a, b in zip(cols, row, grow) if col in TIMES and a != b)
            for col, a, b in zip(cols, row, grow):
                if col in SKIP or a == b:
                    continue
                if col in EXACT:
                    raise CheckFailed(f"[{name}] row {k} {col}: {b!r} != golden {a!r}")
                dev = abs(_float(a) - _float(b))
                tol = TIME_TOL if col in TIMES else PROB_TOL + DP_DT_BOUND * time_shift
                if not dev <= tol:
                    raise CheckFailed(f"[{name}] row {k} {col}: {b} vs golden {a} "
                                      f"(deviation {dev:.3g} > {tol:g})")
                worst = max(worst, dev)
    return worst


def _columns(tables, name: str, want: list[str]):
    if name not in tables:
        raise CheckFailed(f"missing section {name!r}")
    cols, rows = tables[name]
    missing = [c for c in want if c not in cols]
    if missing:
        raise CheckFailed(f"[{name}] missing columns {missing}")
    if not rows:
        raise CheckFailed(f"[{name}] has no rows")
    return [[_float(r[cols.index(c)]) if c not in EXACT else r[cols.index(c)] for c in want]
            for r in rows]


def _in_unit_interval(*ps: float) -> bool:
    return all(-PROB_TOL <= p <= 1.0 + PROB_TOL for p in ps)


def _nondecreasing(xs: list[float]) -> bool:
    return all(b >= a - PROB_TOL for a, b in zip(xs, xs[1:]))


def invariants(subcommand: str, text: str) -> None:
    """Checks that hold for any correct output, with or without a golden file."""
    tables = parse_tables(text)
    if subcommand == "scan":
        for t, pb, p1, p2, p3, ps in _columns(tables, "", ["t", "p_success", "p1", "p2",
                                                          "p3", "pS_projection"]):
            if abs(p1 + p2 + p3 + ps - 1.0) > SUM_TOL:
                raise CheckFailed(f"t={t}: outcome probabilities sum to {p1 + p2 + p3 + ps}")
            if not (_in_unit_interval(p1, p2, p3, ps, pb) and pb <= ps + PROB_TOL):
                raise CheckFailed(f"t={t}: need 0 <= pS_bell <= pS_projection <= 1")
    elif subcommand == "protocol1":
        for _, _, n_req in _columns(tables, "required_measurements", ["N", "q", "n_required"]):
            if not n_req.isdigit() or int(n_req) < 1:
                raise CheckFailed(f"n_required {n_req!r} is not a positive integer")
        series = _columns(tables, "cumulative_series", ["N", "P_n"])
        for size in {n for n, _ in series}:
            p = [p for n, p in series if n == size]
            if not (_in_unit_interval(*p) and _nondecreasing(p)):
                raise CheckFailed(f"N={size}: P_n not a nondecreasing probability")
    elif subcommand == "protocol2":
        rows = _columns(tables, "", ["n", "P_bar_n", "P_n", "P_protocol1_n", "t_n"])
        if [r[0] for r in rows] != [str(k) for k in range(1, len(rows) + 1)]:
            raise CheckFailed("n column is not 1..n_max")
        pbar, p = [r[1] for r in rows], [r[2] for r in rows]
        if not (_in_unit_interval(*pbar, *p) and _nondecreasing(pbar) and _nondecreasing(p)
                and all(a <= b + PROB_TOL for a, b in zip(pbar, p))):
            raise CheckFailed("need 0 <= P_bar_n <= P_n <= 1, both nondecreasing")
        if any(r[4] < 0 for r in rows):
            raise CheckFailed("negative measurement time")
    elif subcommand == "verify":
        for check, status in _columns(tables, "", ["check", "status"]):
            if status != "pass":
                raise CheckFailed(f"verification check {check} is {status!r}")
    else:
        raise CheckFailed(f"no invariants known for subcommand {subcommand!r}")


def check_output(subcommand: str, out_path: Path, golden_path: Path | None) -> float:
    """Invariants, then the golden comparison when a golden file exists.

    Returns the worst deviation from the golden output (0 without one).
    """
    if not out_path.is_file():
        raise CheckFailed(f"no output written to {out_path.name}")
    text = out_path.read_text()
    invariants(subcommand, text)
    if golden_path is None or not golden_path.is_file():
        return 0.0
    return compare(golden_path.read_text(), text)
