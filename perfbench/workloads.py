"""The benchmark's workloads: fixed lists of `qutrit-bell` CLI invocations.

Each op is one `qutrit_bell.cli.main(argv)` call. The benchmark appends
`--no-timestamp --output <file>` to every op, so outputs are byte-stable and
can be compared with the stored golden files. Only the custom graph of the
`scan` workload depends on the seed; the other systems are the paper's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

#: seed whose custom-graph scan output is stored as a golden file
DEFAULT_SEED = 0
#: the custom scan graph: 36 sites, about 45 edges, roles 1 2 35 36
CUSTOM_SITES = 36
CUSTOM_EDGES = 45
#: smaller custom graph used by the self-test
SMOKE_CUSTOM_SITES = 10
SMOKE_CUSTOM_EDGES = 13


@dataclass(frozen=True)
class Op:
    op_id: str            # unique within its workload
    argv: tuple[str, ...]
    golden: str           # golden file stem; absent file means invariants only


def _op(op_id: str, *argv: str, golden: str | None = None) -> Op:
    return Op(op_id, tuple(argv), golden or op_id)


def custom_graph_text(seed: int, n: int, n_edges: int) -> str:
    """Random connected graph in the CLI's topology-file format.

    A random spanning tree plus random extra edges, with roles 1 2 (n-1) n.
    Sites 1 and 2 get different degrees, so no automorphism can exchange
    Charlie's two sites: the graph never has the protocol symmetry.
    """
    for attempt in range(1000):
        rng = random.Random(seed * 1000 + attempt)
        order = list(range(1, n + 1))
        rng.shuffle(order)
        edges = set()
        for k in range(1, n):
            u, v = order[k], order[rng.randrange(k)]
            edges.add((min(u, v), max(u, v)))
        while len(edges) < n_edges:
            u, v = sorted(rng.sample(range(1, n + 1), 2))
            edges.add((u, v))
        degree = {v: 0 for v in range(1, n + 1)}
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        if degree[1] != degree[2]:
            break
    lines = [str(n), f"1 2 {n - 1} {n}"] + [f"{u} {v}" for u, v in sorted(edges)]
    return "\n".join(lines) + "\n"


def _tables() -> list[Op]:
    ops = [_op(f"protocol1-cross-{n}", "protocol1", "--topology", "cross", "--n-list", str(n))
           for n in range(5, 36, 2)]
    ops += [_op(f"protocol1-loop-{n}", "protocol1", "--topology", "loop", "--n-list", str(n))
            for n in range(4, 37, 4)]
    return ops


def _protocol2() -> list[Op]:
    ops = [_op(f"protocol2-loop-36-{s}", "protocol2", "--topology", "loop", "--n", "36",
               "--n-max", "3", "--strategy", s)
           for s in ("peak-success", "min-loss", "max-margin")]
    ops += [_op(f"protocol2-{topo}-{n}", "protocol2", "--topology", topo, "--n", str(n),
                "--n-max", "10")
            for topo, n in (("cross", 5), ("loop", 4), ("loop", 8))]
    ops.append(_op("protocol2-loop-36-tau-5", "protocol2", "--topology", "loop", "--n", "36",
                   "--tau", "5", "--n-max", "10"))
    return ops


def _custom_scan(seed: int, work: Path, n: int, n_edges: int) -> Op:
    path = work / f"custom-{n}-seed{seed}.txt"
    path.write_text(custom_graph_text(seed, n, n_edges))
    return _op(f"scan-custom-{n}", "scan", "--topology", "custom", "--topology-file", str(path),
               "--t-max", "10", golden=f"scan-custom-{n}-seed{seed}")


def _scan(seed: int, work: Path) -> list[Op]:
    return [_op("scan-loop-36", "scan", "--topology", "loop", "--n", "36", "--t-max", "10"),
            _custom_scan(seed, work, CUSTOM_SITES, CUSTOM_EDGES)]


def _oracle() -> list[Op]:
    return [_op(f"verify-{topo}-{n}", "verify", "--topology", topo, "--n", str(n))
            for topo, n in (("cross", 5), ("loop", 4), ("cross", 7), ("cross", 9))]


WORKLOADS = ("tables", "protocol2", "scan", "oracle")

#: ops of each workload that the self-test runs (all take well under a second)
_SMOKE = {
    "tables": ("protocol1-cross-5", "protocol1-loop-4"),
    "protocol2": ("protocol2-cross-5", "protocol2-loop-4"),
    "scan": (),
    "oracle": ("verify-cross-5", "verify-loop-4"),
}


def workload_ops(name: str, seed: int, work: Path, smoke: bool = False) -> list[Op]:
    """The op list of a workload.

    `work` receives generated input files; give it relative to the checkout
    root, because the CLI echoes the topology-file path into its output.
    """
    if name == "scan":
        if smoke:
            return [_custom_scan(seed, work, SMOKE_CUSTOM_SITES, SMOKE_CUSTOM_EDGES)]
        return _scan(seed, work)
    ops = {"tables": _tables, "protocol2": _protocol2, "oracle": _oracle}[name]()
    if smoke:
        ops = [op for op in ops if op.op_id in _SMOKE[name]]
    return ops
