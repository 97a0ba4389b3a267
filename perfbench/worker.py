"""One measured pass of a benchmark workload, in a fresh interpreter.

The pass imports squarestable from the checkout's ``src`` directory,
generates its input batch from the seed and the batch number, then runs its
operations one after the other on a single thread, each one timed on its
own.  Every output is checked after its operation's timer stops.  The pass
prints one JSON object on the last line of its standard output.

    python3 perfbench/worker.py --workload solve36 --seed 1 --batch 0 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent

# Solver-cap refusals count as failed operations, so every workload stays
# within the default caps (n <= 24 for analyze, n <= 64 for the solvers).
EXHAUSTIVE_ORDER = 7
EXHAUSTIVE_GRAPHS = 996  # connected graphs on 1..7 vertices, OEIS A001349
SAMPLE_COMMANDS = 10
SAMPLE_COUNT = 100
SAMPLE_MAX_N = 20
ANALYZE_ORDERS = (12, 18, 24)
ANALYZE_PER_ORDER = 10
SOLVE_ORDER = 36
SOLVE_GRAPHS = 100


@dataclass
class Op:
    """One closed-loop operation: ``run`` is timed, ``check`` is not.

    ``check`` returns an error message, or None when the output is right.
    """

    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    graphs: int


def _cli_call(cli, argv: list[str]) -> Callable[[], tuple[int, str]]:
    def run() -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()
    return run


def _is_stable(g, vertices) -> bool:
    mask = sum(1 << v for v in vertices)
    return all(g.adj[v] & mask == 0 for v in vertices)


def _is_clique(g, vertices) -> bool:
    mask = sum(1 << v for v in vertices)
    return all((g.adj[v] | 1 << v) & mask == mask for v in vertices)


def _chain_error(values: dict, keys: tuple[str, ...]) -> Optional[str]:
    chain = [values[k] for k in keys]
    if any(a > b for a, b in zip(chain, chain[1:])):
        return "chain " + " <= ".join(keys) + f" fails: {chain}"
    return None


# ---------------------------------------------------------------------------
# Workloads: each builds the operations of one input batch
# ---------------------------------------------------------------------------


def _verify_op(sq, argv: list[str], graphs: int) -> Op:
    def check(result) -> Optional[str]:
        code, out = result
        if code != 0:
            return f"verify exited {code}"
        doc = json.loads(out)
        if doc["graphs_total"] != graphs:
            return f"graphs_total {doc['graphs_total']} != {graphs}"
        if doc["violations_total"] != 0:
            return f"violations_total {doc['violations_total']}"
        return None
    return Op(_cli_call(sq.cli, argv), check, graphs)


def exhaustive7(sq, seed: int, batch: int, tmp: Path) -> list[Op]:
    argv = ["verify", "--exhaustive", str(EXHAUSTIVE_ORDER)]
    return [_verify_op(sq, argv, EXHAUSTIVE_GRAPHS)]


def sample20(sq, seed: int, batch: int, tmp: Path) -> list[Op]:
    rng = random.Random(f"sample20/{seed}/{batch}")
    return [
        _verify_op(sq, ["verify", "--sample", str(SAMPLE_COUNT), "--max-n", str(SAMPLE_MAX_N),
                        "--seed", str(rng.randrange(1 << 31))], SAMPLE_COUNT)
        for _ in range(SAMPLE_COMMANDS)
    ]


def analyze24(sq, seed: int, batch: int, tmp: Path) -> list[Op]:
    rng = random.Random(f"analyze24/{seed}/{batch}")
    ops = []
    for n in ANALYZE_ORDERS:
        for _ in range(ANALYZE_PER_ORDER):
            g = sq.random_connected_graph(n, rng.randrange(1 << 31))
            g6 = sq.to_graph6(g)
            path = tmp / f"g{len(ops):03d}.g6"
            path.write_text(g6 + "\n")
            ops.append(Op(_cli_call(sq.cli, ["analyze", str(path)]), _analyze_check(g6), 1))
    return ops


def _analyze_check(g6: str) -> Callable[[object], Optional[str]]:
    def check(result) -> Optional[str]:
        code, out = result
        if code != 0:
            return f"analyze exited {code}"
        doc = json.loads(out)
        if doc["graph"]["graph6"] != g6:
            return f"report is for {doc['graph']['graph6']}, not {g6}"
        return _chain_error(doc["invariants"],
                            ("alpha_sq", "theta_sq", "gamma", "idom", "alpha", "theta"))
    return check


def solve36(sq, seed: int, batch: int, tmp: Path) -> list[Op]:
    # A fixed reference set, the same for every seed and batch.  The exact
    # solvers' cost at n = 36 varies so much from graph to graph (standard
    # deviation about 1.5 times the mean) that a set drawn from the seed, of
    # a size that fits in a run, moves the metrics by 20-30 % between seeds.
    graphs = [sq.random_connected_graph(SOLVE_ORDER, s) for s in range(SOLVE_GRAPHS)]
    return [Op(_solve_run(sq, g), _solve_check(sq, g), 1) for g in graphs]


def _solve_run(sq, g) -> Callable[[], dict]:
    # clique_cover costs what clique_cover_number costs and also returns the
    # partition, which the check needs as theta's certificate.
    def run() -> dict:
        h = sq.square(g)
        return {
            "alpha": sq.stability_number(g),
            "cover": sq.clique_cover(g),
            "gamma": sq.domination_number(g),
            "alpha_sq": sq.stability_number(h),
            "theta_sq": sq.clique_cover_number(h),
            "gamma_sq": sq.domination_number(h),
        }
    return run


def _solve_check(sq, g) -> Callable[[object], Optional[str]]:
    def check(values) -> Optional[str]:
        stable = sq.maximum_stable_set(g)
        if not _is_stable(g, stable) or len(stable) != values["alpha"]:
            return f"maximum_stable_set {sorted(stable)} is no stable set of size {values['alpha']}"
        cover = values["cover"]
        covered = sorted(v for c in cover for v in c)
        if covered != list(range(g.n)) or not all(_is_clique(g, c) for c in cover):
            return "clique_cover is no partition into cliques"
        return _chain_error(dict(values, theta=len(cover)),
                            ("alpha_sq", "theta_sq", "gamma", "alpha", "theta"))
    return check


WORKLOADS = {w.__name__: w for w in (exhaustive7, sample20, analyze24, solve36)}


# ---------------------------------------------------------------------------
# The pass
# ---------------------------------------------------------------------------


def _digest(result) -> str:
    """Digest of an operation's output: the text a CLI call printed, or the
    values a library call returned."""
    text = result[1] if isinstance(result, tuple) else json.dumps(result, default=sorted)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def calibration_s() -> float:
    """Time of a fixed stdlib loop: a diagnostic of machine speed only."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - start


def run_pass(workload: str, seed: int, batch: int, trace: bool) -> dict:
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import squarestable
    import squarestable.cli

    source = Path(squarestable.__file__).resolve()
    if (ROOT / "src") not in source.parents:
        raise SystemExit(f"squarestable was imported from {source}, not from the checkout")
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        ops = WORKLOADS[workload](squarestable, seed, batch, tmp)
        setup_s = time.perf_counter() - start
        op_s, errors, digests = [], [], []
        for op in ops:
            if tracer:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            else:
                error = None
            op_s.append(time.perf_counter() - t0)
            if tracer:
                tracer.active = False
            if error is None:
                try:
                    error = op.check(result)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            errors.append(error)
            digests.append(_digest(result))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    return {
        "setup_s": setup_s,
        "op_s": op_s,
        "graphs": [op.graphs for op in ops],
        "errors": errors,
        "digests": digests,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calibration_s": calibration_s(),
        "trace": tracer.snapshot() if tracer else None,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--batch", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = run_pass(args.workload, args.seed, args.batch, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
