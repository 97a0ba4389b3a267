"""The squarestable benchmark: closed-loop workloads, timed from outside.

    python3 perfbench/run.py --workload analyze24 --seed 1 --seconds 20 --trace 0

One client runs one operation at a time; the next starts when the previous
one has finished.  Operations are grouped in passes, and every pass runs in
a fresh single-threaded interpreter (``worker.py``), started only after the
previous pass has ended, so nothing memoised in one pass can speed up
another and every pass pays the import a command-line user pays.

With ``--trace 0`` passes run until ``--seconds`` have elapsed, and the last
line of standard output is a JSON object with the end-to-end metrics.  With
``--trace 1`` the run makes one untraced pass and two traced passes of the
same inputs, checks that their call counts agree exactly, and reports the
per-layer metrics.  The line before the result holds diagnostics: pass and
sample counts and a machine-speed calibration time, which never scales a
metric.  The exit code is not 0, and no result is printed, when a pass
cannot run at all (for example when ``src/squarestable`` is missing).
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS
from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Workloads whose passes repeat the same inputs; the others draw a fresh
# batch of inputs for every pass.
SAME_INPUTS = ("exhaustive7", "solve36")
DIGESTS = HERE / "analyze24_digests.json"
RUN_LIMIT_S = 170

PER_FUNCTION = (
    "generate.canonical_graph",
    "generate.enumerate_corpus",
    "solvers.stability_number",
    "solvers.maximum_stable_set",
    "solvers.clique_cover",
    "solvers.domination_number",
    "solvers.enumerate_maximum_stable_sets",
    "solvers.enumerate_maximal_stable_sets",
    "solvers.independent_domination_number",
    "solvers.invariant_chain",
    "graphs.square",
    "graphs.distance_matrix",
    "graphs.symmetric_difference_subgraph",
    "graphs.induced_subgraph",
    "graphs.components",
    "matchings.matching_number",
    "matchings.count_perfect_matchings",
    "matchings.has_induced_perfect_matching",
    "matchings.pendant_perfect_matching",
    "classify.alpha_plus_class",
    "classify.alpha_minus_stable",
    "classify.is_well_covered",
    "classify.omega_is_matroid",
    "classify.classify",
    "classify.p1_unique_matchability",
    "classify.p2_exchangeability",
    "cli.main",
)
# The function run_suite calls for each suite.
SUITES = {
    "equivalences": "verify.verify_equivalences",
    "chain": "verify.verify_inequality_chain",
    "implications": "verify.implication_clauses",
    "tree": "verify.verify_tree_theorem",
    "girth6": "verify.verify_girth6",
    "matroid": "classify.omega_is_matroid",
}


class PassFailed(RuntimeError):
    pass


def run_pass(workload: str, seed: int, batch: int, trace: bool, deadline: float) -> dict:
    """Run one pass on input batch ``batch`` in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--batch", str(batch), "--trace", str(int(trace))]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"a pass of {workload} ran past the run limit") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassFailed(f"a pass of {workload} exited {proc.returncode}")
    return dict(json.loads(proc.stdout.splitlines()[-1]), batch=batch)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def count_failures(workload: str, seed: int, passes: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every operation of every pass.

    An operation fails when its own check fails, or when its output differs
    from the output of the same input in an earlier pass, or from the digest
    recorded for analyze24 at its default seed.
    """
    expected: dict[int, list] = {}
    if workload == "analyze24":
        recorded = json.loads(DIGESTS.read_text())
        if recorded["seed"] == seed:
            expected = dict(enumerate(recorded["batches"]))
    attempted, failed, messages = 0, 0, []
    for p in passes:
        digests = expected.setdefault(p["batch"], p["digests"])
        for i, error in enumerate(p["errors"]):
            attempted += 1
            if error is None and p["digests"][i] != digests[i]:
                error = f"output of operation {i} of batch {p['batch']} differs from the expected digest"
            if error is not None:
                failed += 1
                messages.append(error)
    return attempted, failed, messages


def latency_samples(passes: list[dict]) -> list[tuple[float, int]]:
    """(seconds, graphs) of each operation; an operation run in several
    passes on the same input counts once, with the median of its times."""
    times: dict[tuple[int, int], list[float]] = {}
    graphs: dict[tuple[int, int], int] = {}
    for p in passes:
        for i, (s, g) in enumerate(zip(p["op_s"], p["graphs"])):
            times.setdefault((p["batch"], i), []).append(s)
            graphs[(p["batch"], i)] = g
    return [(statistics.median(times[key]), graphs[key]) for key in times]


def end_to_end(samples: list[tuple[float, int]], passes: list[dict], attempted: int, failed: int) -> dict:
    per_graph_ms = [s * 1000 / graphs for s, graphs in samples]
    return {
        "graphs_per_s": (sum(g for _, g in samples) / sum(s for s, _ in samples), "1/s"),
        "graph_p50_ms": (percentile(per_graph_ms, 0.5), "ms"),
        "graph_p90_ms": (percentile(per_graph_ms, 0.9), "ms"),
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(untraced: dict, traced: list[dict]) -> dict:
    first = traced[0]["trace"]
    calls = first["calls"]

    def mean_of(key: str, name: str) -> float:
        return statistics.fmean(t["trace"][key].get(name, 0.0) for t in traced)

    metrics = {}
    for name in PER_FUNCTION:
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (mean_of("self", name), "s")
    canon_calls = calls.get("generate.canonical_graph", 0)
    metrics["generate.canonical_graph.unique_ratio"] = (
        first["canonical_forms"] / canon_calls if canon_calls else 0.0, "ratio")
    metrics["solvers.stability_number.calls_per_graph"] = (
        calls.get("solvers.stability_number", 0) / sum(traced[0]["graphs"]), "count")
    metrics["solvers.cap_refusals"] = (first["cap_refusals"], "count")
    for suite, fn in SUITES.items():
        metrics[f"verify.suite.{suite}.s"] = (
            statistics.fmean(t["trace"]["run_suite_children"].get(fn, 0.0) for t in traced), "s")
    metrics["verify.run_suite.s"] = (mean_of("inclusive", "verify.run_suite"), "s")
    for layer in LAYERS:
        prefix = layer + "."
        metrics[f"{layer}.calls"] = (
            sum(c for n, c in calls.items() if n.startswith(prefix)), "count")
        metrics[f"{layer}.self_s"] = (statistics.fmean(
            sum(s for n, s in t["trace"]["self"].items() if n.startswith(prefix))
            for t in traced), "s")
    metrics["trace.spans"] = (sum(calls.values()), "count")
    metrics["trace.overhead_ratio"] = (
        statistics.fmean(sum(t["op_s"]) for t in traced) / sum(untraced["op_s"]), "ratio")
    metrics["machine.calibration_s"] = (
        statistics.median(p["calibration_s"] for p in [untraced, *traced]), "s")
    return metrics


def counts_repeat(traced: list[dict]) -> bool:
    a, b = (t["trace"] for t in traced)
    return (a["calls"] == b["calls"] and a["cap_refusals"] == b["cap_refusals"]
            and a["canonical_forms"] == b["canonical_forms"])


def main() -> int:
    parser = argparse.ArgumentParser(description="squarestable benchmark")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    try:
        if args.trace:
            passes = [run_pass(args.workload, args.seed, 0, trace, deadline)
                      for trace in (False, True, True)]
        else:
            passes = []
            while not passes or time.monotonic() - start < args.seconds:
                batch = 0 if args.workload in SAME_INPUTS else len(passes)
                passes.append(run_pass(args.workload, args.seed, batch, False, deadline))
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, messages = count_failures(args.workload, args.seed, passes)
    correct = failed == 0
    for message in messages[:10]:
        print(f"check failed: {message}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(passes[0], passes[1:])
        if not counts_repeat(passes[1:]):
            correct = False
            print("check failed: call counts differ between the traced passes", file=sys.stderr)
    else:
        samples = latency_samples(passes)
        metrics = end_to_end(samples, passes, attempted, failed)

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "latency_samples": sum(len(p["op_s"]) for p in passes) if args.trace else len(samples),
        "pass_op_s": [round(sum(p["op_s"]), 4) for p in passes],
        "calibration_s": statistics.median(p["calibration_s"] for p in passes),
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
