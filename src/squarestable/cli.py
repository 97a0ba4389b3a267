"""Command-line interface: analyze single graphs, run verification suites
over corpora, and generate family/fixture graphs.

Exit codes are a stable contract: 0 ok, 1 theorem violation, 2 input error,
3 solver-cap refusal, 141 stdout closed before the output was written.  JSON
goes to stdout (schema key ``squarestable/1``), diagnostics to stderr.  The
graph6 paths read and write one graph per line so the tool composes in shell
pipelines.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Iterable, Iterator

from .classify import classify
from .errors import CapExceededError, InternalCheckError, ParseError
from .generate import (
    EXHAUSTIVE_MAX_N,
    FIXTURE_NAMES,
    canonical_graph6,
    complete_bipartite_graph,
    complete_graph,
    corona_with_k1,
    cycle_graph,
    enumerate_corpus,
    named_fixture,
    path_graph,
    random_connected_graph,
    random_tree,
    sample_corpus,
    star_graph,
)
from .graphs import (
    Graph,
    format_edge_list,
    parse_edge_list,
    parse_graph6,
    square,
    to_graph6,
)
from .solvers import _check_cap, enumerate_maximum_stable_sets, invariant_chain
from .verify import SUITE_NAMES, run_suite

SCHEMA = "squarestable/1"

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_PIPE = 141  # 128 + SIGPIPE


def _check_caps(args) -> None:
    """Refuse a cap below 0, naming the flag that set it."""
    for name, cap in (("--cap-n", args.cap_n), ("--cap-omega", args.cap_omega)):
        if cap is not None and cap < 0:
            raise ParseError(f"{name} must be at least 0, got {cap}")


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _graph6_lines(text: str) -> Iterator[Graph]:
    """The graph on each non-blank line, parsed as the line is reached; a bad
    line raises ``ParseError`` naming its line number."""
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if line:
            try:
                yield parse_graph6(line)
            except ParseError as exc:
                raise ParseError(f"line {number}: {exc}") from None


def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2))


def _check_text(args, dropped: tuple[str, ...]) -> None:
    """Refuse a flag whose output ``--text`` would not print, naming it."""
    for dest in dropped:
        if args.text and getattr(args, dest):
            raise ParseError(f"--text prints the summary only; drop --{dest}")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _graph_doc(g: Graph, cap) -> dict:
    # the graph's section last: a graph too large for graph6 is refused by
    # the solver cap first
    return {
        "invariants": invariant_chain(g, cap).as_dict(),
        "classification": classify(g, cap).as_dict(),
        "graph": {"n": g.n, "edges": g.edge_count, "graph6": to_graph6(g)},
    }


def _analyze_doc(g: Graph, args) -> dict:
    doc = {"schema": SCHEMA, **_graph_doc(g, args.cap_n)}
    if args.omega:
        family = enumerate_maximum_stable_sets(g, args.cap_omega)
        doc["omega"] = {
            "sets": [sorted(s) for s in family.sets],
            "core": sorted(family.core),
        }
    if args.square:
        doc["square"] = _graph_doc(square(g), args.cap_n)
    return doc


def _analyze_text(doc: dict) -> str:
    inv = doc["invariants"]
    cls = doc["classification"]
    lines = [
        f"graph: n={doc['graph']['n']} edges={doc['graph']['edges']} "
        f"graph6={doc['graph']['graph6']}",
        "invariants:",
    ]
    for key in ("alpha", "alpha_sq", "theta", "theta_sq", "gamma", "idom", "mu"):
        lines.append(f"  {key:<9} {inv[key]}")
    lines.append("classification:")
    for key, value in cls.items():
        if key != "witnesses":
            lines.append(f"  {key:<22} {value}")
    return "\n".join(lines)


def cmd_analyze(args) -> int:
    _check_text(args, ("square", "omega"))
    text = _read_input(args.input)
    if not any(line.split("#", 1)[0].strip() for line in text.splitlines()):
        raise ParseError("empty input")
    graphs = [parse_edge_list(text)] if args.format == "edges" else _graph6_lines(text)
    for g in graphs:
        doc = _analyze_doc(g, args)
        if args.text:
            print(_analyze_text(doc))
        else:
            _emit(doc)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


# name -> (generator, number of integer parameters, whether it takes --seed)
_FAMILIES = {
    "path": (path_graph, 1, False),
    "cycle": (cycle_graph, 1, False),
    "complete": (complete_graph, 1, False),
    "star": (star_graph, 1, False),
    "complete_bipartite": (complete_bipartite_graph, 2, False),
    "random_tree": (random_tree, 1, True),
    "random_connected": (random_connected_graph, 1, True),
}


def _family_graph(tokens: list[str], seed, base, base_flag: str, missing_base: str) -> Graph:
    """The graph of the family named by ``tokens``.  The corona takes its base
    family from the ``base`` tokens, given by ``base_flag``, and refuses with
    ``missing_base`` when there are none.  A parameter, base or seed that the
    family does not use is refused, naming it."""
    name, params = tokens[0].replace("-", "_"), tokens[1:]
    if name == "corona":
        if params:
            raise ParseError(f"family 'corona' takes no parameter, got {params}")
        if not base:
            raise ParseError(missing_base)
        return corona_with_k1(_family_graph(base, seed, None, base_flag, missing_base))
    if name != "named" and name not in _FAMILIES:
        raise ParseError(f"unknown family {name!r}")
    if base is not None:
        raise ParseError(f"{base_flag} is used only by corona, not by family {name!r}")
    if name == "named":
        if seed is not None:
            raise ParseError("named family takes no --seed")
        if len(params) != 1:
            raise ParseError("named family expects exactly one fixture name")
        return named_fixture(params[0])
    generator, k, seeded = _FAMILIES[name]
    if seeded and seed is None:
        raise ParseError(f"family {name!r} requires --seed")
    if seed is not None and not seeded:
        raise ParseError(f"family {name!r} takes no --seed")
    if len(params) != k:
        raise ParseError(f"family {name!r} expects {k} integer parameter(s)")
    try:
        ints = [int(p) for p in params]
    except ValueError:
        raise ParseError(f"non-integer family parameter in {params}") from None
    return generator(*ints, seed) if seeded else generator(*ints)


# corpus -> the verify options it reads, by argparse dest
_CORPUS_OPTIONS = {
    "exhaustive": ("include_disconnected",),
    "fixtures": (),
    "family": ("seed", "corona_base"),
    "sample": ("seed", "max_n", "include_disconnected"),
}


def _given(value) -> bool:
    # ``is``, not ``in (None, False)``: --seed 0 is given, and 0 == False
    return value is not None and value is not False


def _corpus_from_args(args) -> tuple[Iterable[tuple[str, Graph]], dict, bool]:
    """Build (graph_id, graph) pairs in report order (by order, then by
    graph id), corpus metadata, and whether per-graph details belong in the
    report.  The exhaustive corpus is generated in that order and streams;
    the fixtures and the sample are sorted.  An option the chosen corpus
    does not read is refused, naming it."""
    for corpus, reads in _CORPUS_OPTIONS.items():
        if not _given(getattr(args, corpus)):
            continue
        for dest in ("seed", "max_n", "corona_base", "include_disconnected"):
            if _given(getattr(args, dest)) and dest not in reads:
                users = " and ".join(f"--{c}" for c, r in _CORPUS_OPTIONS.items() if dest in r)
                flag = "--" + dest.replace("_", "-")
                raise ParseError(f"{flag} is used only by {users}, not by --{corpus}")
    if args.exhaustive is not None:
        if args.exhaustive < 1:
            raise ParseError(f"--exhaustive must be at least 1, got {args.exhaustive}")
        if args.exhaustive > EXHAUSTIVE_MAX_N:
            raise ParseError(f"--exhaustive is capped at {EXHAUSTIVE_MAX_N} vertices, "
                             f"got {args.exhaustive}; use --sample beyond that")
        graphs = enumerate_corpus(args.exhaustive, not args.include_disconnected)
        meta = {
            "mode": "exhaustive",
            "max_n": args.exhaustive,
            "connected_only": not args.include_disconnected,
        }
        return ((to_graph6(g), g) for g in graphs), meta, False
    elif args.fixtures:
        items = [(name, named_fixture(name)) for name in FIXTURE_NAMES]
        meta, details = {"mode": "fixtures"}, True
    elif args.family:
        g = _family_graph(args.family, args.seed, args.corona_base, "--corona-base",
                          "--family corona requires --corona-base FAMILY PARAMS...")
        gid = " ".join(args.family)
        if args.family[0] == "corona":
            gid = "corona(" + " ".join(args.corona_base) + ")"
        return [(gid, g)], {"mode": "family", "spec": gid}, True
    elif args.sample is not None:
        if args.seed is None:
            raise ParseError("--sample requires --seed")
        if args.sample < 1:
            raise ParseError(f"--sample must be at least 1, got {args.sample}")
        if args.max_n is None:
            args.max_n = 12
        if args.max_n < 1:
            raise ParseError(f"--max-n must be at least 1, got {args.max_n}")
        graphs = sample_corpus(args.sample, args.max_n, args.seed, not args.include_disconnected)
        items = ((to_graph6(g), g) for g in graphs)
        meta = {
            "mode": "sample",
            "count": args.sample,
            "max_n": args.max_n,
            "seed": args.seed,
        }
        details = False
    else:
        raise ParseError("no corpus selected: use --exhaustive, --fixtures, --family or --sample")
    return sorted(items, key=lambda item: (item[1].n, item[0])), meta, details


def _verify_table(report) -> str:
    lines = [f"{'suite':<14} {'checked':>8} {'skipped':>8} {'violations':>11}"]
    lines.append("-" * 45)
    for suite in report.suites:
        lines.append(f"{suite.suite_name:<14} {suite.graphs_checked:>8} "
                     f"{suite.skipped:>8} {len(suite.violations):>11}")
    lines.append("-" * 45)
    lines.append(f"{'total':<14} {report.graphs_total:>8} {'':>8} "
                 f"{report.violations_total:>11}")
    for suite in report.suites:
        for violation in suite.violations:
            lines.append(f"VIOLATION {suite.suite_name}: {violation}")
    return "\n".join(lines)


def cmd_verify(args) -> int:
    _check_text(args, ("details",))
    suites = SUITE_NAMES if args.suite in (None, "all") else tuple(
        s.strip() for s in args.suite.split(",") if s.strip()
    )
    if not suites:
        raise ParseError(f"--suite names no suite: {args.suite!r}")
    items, meta, default_details = _corpus_from_args(args)
    keep_details = args.details or default_details
    report = run_suite(
        items, suites, args.cap_n, args.cap_omega,
        strict=args.strict, keep_details=keep_details,
    )
    if args.text:
        print(_verify_table(report))
    else:
        doc = {"schema": SCHEMA, "corpus": meta}
        doc.update(report.as_dict(include_details=keep_details))
        _emit(doc)
    return EXIT_OK if report.violations_total == 0 else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    g = _family_graph(args.spec, args.seed, args.base, "--base",
                      "corona requires --base FAMILY PARAMS...")
    if args.format == "edges":
        sys.stdout.write(format_edge_list(g))
    else:
        print(to_graph6(g))
    return EXIT_OK


def cmd_canonical(args) -> int:
    for g in _graph6_lines(_read_input(args.input)):
        # the search recurses once per vertex
        _check_cap(g.n, args.cap_n)
        print(canonical_graph6(g))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: each parse_args call starts a fresh namespace,
    # so nothing of one command line carries into the next.
    parser = argparse.ArgumentParser(
        prog="squarestable",
        description="Exact invariants and square-stability analysis for small graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="invariants and classification of input graphs")
    pa.add_argument("input", nargs="?", default="-",
                    help="path to the input, or '-' for stdin (default)")
    pa.add_argument("--format", choices=("graph6", "edges"), default="graph6")
    pa.add_argument("--omega", action="store_true",
                    help="include the family of maximum stable sets")
    pa.add_argument("--square", action="store_true",
                    help="also analyze the square of the graph")
    pa.add_argument("--text", action="store_true", help="human-readable output")
    pa.add_argument("--cap-n", type=int, default=None, dest="cap_n")
    pa.add_argument("--cap-omega", type=int, default=None, dest="cap_omega",
                    help="largest order at which --omega lists the maximum stable sets")
    pa.set_defaults(fn=cmd_analyze)

    pv = sub.add_parser("verify", help="run verification suites over a corpus")
    group = pv.add_mutually_exclusive_group()
    group.add_argument("--exhaustive", type=int, default=None, metavar="N",
                       help="all graphs up to isomorphism with at most N vertices")
    group.add_argument("--fixtures", action="store_true",
                       help="the named example graphs")
    group.add_argument("--family", nargs="+", default=None, metavar="SPEC",
                       help="one family graph, e.g. --family cycle 5")
    group.add_argument("--sample", type=int, default=None, metavar="COUNT",
                       help="seeded random corpus of COUNT graphs")
    pv.add_argument("--corona-base", nargs="+", default=None, metavar="SPEC",
                    help="with --family corona: the base family")
    pv.add_argument("--max-n", type=int, default=None, dest="max_n",
                    help="with --sample: the most vertices of a graph (default 12)")
    pv.add_argument("--seed", type=int, default=None)
    pv.add_argument("--suite", default="all",
                    help=f"comma-separated suites from: {', '.join(SUITE_NAMES)}, or 'all'")
    pv.add_argument("--include-disconnected", action="store_true")
    pv.add_argument("--strict", action="store_true",
                    help="treat solver-cap refusals as errors (exit 3)")
    pv.add_argument("--details", action="store_true",
                    help="include per-graph reports in the JSON")
    pv.add_argument("--text", action="store_true",
                    help="human-readable summary table instead of JSON")
    pv.add_argument("--cap-n", type=int, default=None, dest="cap_n")
    pv.add_argument("--cap-omega", type=int, default=None, dest="cap_omega",
                    help="largest order at which the suites enumerate stable sets "
                         "(the statements and clauses over them, the matroid suite)")
    pv.set_defaults(fn=cmd_verify)

    pg = sub.add_parser("generate", help="emit a family or fixture graph")
    pg.add_argument("spec", nargs="+",
                    help="family and parameters, e.g. 'cycle 12', 'named diamond', 'corona'")
    pg.add_argument("--base", nargs="+", default=None, metavar="SPEC",
                    help="base family for corona, e.g. --base cycle 5")
    pg.add_argument("--seed", type=int, default=None)
    pg.add_argument("--format", choices=("graph6", "edges"), default="graph6")
    pg.set_defaults(fn=cmd_generate)

    pc = sub.add_parser("canonical", help="canonical graph6 form of input graphs")
    pc.add_argument("input", nargs="?", default="-")
    pc.add_argument("--cap-n", type=int, default=None, dest="cap_n")
    pc.set_defaults(fn=cmd_canonical, cap_omega=None)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        if hasattr(args, "cap_n"):
            _check_caps(args)
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except InternalCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except RecursionError:
        print(f"error: search deeper than the recursion limit ({sys.getrecursionlimit()})",
              file=sys.stderr)
        return EXIT_CAP


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early, as `| head` does.  Point stdout at
        # devnull so the interpreter's last flush cannot fail again, and exit
        # quietly with the status a shell gives a command killed by SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_PIPE
    raise SystemExit(code)


if __name__ == "__main__":
    run()
