"""Acceptance suite: every release criterion, one test each, with a printed
PASS/FAIL line per criterion (run with ``pytest -s`` to watch them)."""

import itertools
import json
import random
import time
from contextlib import contextmanager

import pytest

from squarestable import cli
from squarestable.classify import (
    alpha_minus_stable,
    alpha_plus_class,
    AlphaPlusClass,
    is_koenig_egervary,
    is_square_stable,
    is_very_well_covered,
    is_well_covered,
    omega_is_matroid,
    pendants_contain_maximum_stable_set,
)
from squarestable.generate import (
    cycle_graph,
    enumerate_corpus,
    named_fixture,
    path_graph,
    prufer_to_tree,
    sample_corpus,
)
from squarestable.graphs import is_bipartite, square, to_graph6
from squarestable.matchings import (
    PerfectMatchingStatus,
    matching_number,
    pendant_perfect_matching,
    unique_perfect_matching,
)
from squarestable.solvers import (
    clique_cover_number,
    domination_number,
    independent_domination_number,
    stability_number,
)
from squarestable.verify import run_suite
from oracles import (
    oracle_alpha,
    oracle_gamma,
    oracle_idom,
    oracle_mu,
    oracle_theta,
    random_graph,
)

SEED = 20260809


@contextmanager
def criterion(num: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL {description}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS {description} "
          f"[{time.perf_counter() - start:.2f}s]")


@pytest.fixture(scope="module")
def exhaustive7():
    return [(to_graph6(g), g) for g in enumerate_corpus(7, connected_only=True)]


@pytest.fixture(scope="module")
def random_connected_n14():
    return [(to_graph6(g), g) for g in sample_corpus(150, 14, seed=SEED)]


def test_criterion_01_c12_numbers(capsys, tmp_path):
    with criterion(1, "analyze of the 12-cycle reports alpha=6, alpha_sq=4, idom=4 in < 1s"):
        path = tmp_path / "c12.g6"
        path.write_text(to_graph6(cycle_graph(12)) + "\n")
        start = time.perf_counter()
        code = cli.main(["analyze", str(path)])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        doc = json.loads(out)
        inv = doc["invariants"]
        assert code == 0
        assert inv["alpha"] == 6
        assert inv["alpha_sq"] == 4
        assert inv["idom"] == 4
        assert elapsed < 1.0


def test_criterion_02_equivalence_coherence(exhaustive7, random_connected_n14):
    with criterion(2, "13 statements agree on every connected graph with n <= 7 "
                      "and on seeded samples to n = 14, in < 10 min"):
        start = time.perf_counter()
        report = run_suite(exhaustive7, ("equivalences",))
        assert report.violations_total == 0
        assert report.suites[0].graphs_checked == 996
        report = run_suite(random_connected_n14, ("equivalences",))
        assert report.violations_total == 0, report.suites[0].violations[:3]
        assert report.suites[0].graphs_checked == 150
        assert time.perf_counter() - start < 600.0


def test_criterion_03_inequality_chain(exhaustive7, random_connected_n14):
    with criterion(3, "alpha_sq <= theta_sq <= gamma <= idom <= alpha <= theta "
                      "on the whole corpus"):
        report = run_suite(exhaustive7 + random_connected_n14, ("chain",))
        assert report.violations_total == 0
        assert report.suites[0].graphs_checked == len(exhaustive7) + 150


def test_criterion_04_named_fixture_regression():
    with criterion(4, "the five named fixtures and the cycle/path references "
                      "classify exactly as documented"):
        k3e = named_fixture("k3_plus_e")
        assert is_koenig_egervary(k3e)
        assert unique_perfect_matching(k3e)[0] is PerfectMatchingStatus.UNIQUE
        assert not is_square_stable(k3e)
        assert alpha_plus_class(k3e) is AlphaPlusClass.PLUS_1

        assert alpha_minus_stable(named_fixture("diamond"))
        assert alpha_minus_stable(cycle_graph(6))

        fig4 = named_fixture("fig_ss_not_vwc")
        assert is_square_stable(fig4) and not is_very_well_covered(fig4)

        fig5 = named_fixture("fig_upm_not_pendant")
        assert is_square_stable(fig5)
        status, pm = unique_perfect_matching(fig5)
        assert status is PerfectMatchingStatus.UNIQUE
        assert any(fig5.degree(u) > 1 and fig5.degree(v) > 1 for u, v in pm)
        assert not is_koenig_egervary(fig5)

        fig6 = named_fixture("fig_bip_vwc_not_ss")
        assert is_bipartite(fig6)
        assert is_very_well_covered(fig6)
        assert not is_square_stable(fig6)
        assert not is_koenig_egervary(square(fig6))

        assert is_very_well_covered(cycle_graph(4))
        assert not is_square_stable(cycle_graph(4))
        assert is_well_covered(cycle_graph(5))
        assert not is_square_stable(cycle_graph(5))
        assert not is_koenig_egervary(cycle_graph(7))
        p6 = path_graph(6)
        assert is_koenig_egervary(p6)
        assert unique_perfect_matching(p6)[0] is PerfectMatchingStatus.UNIQUE
        assert not is_square_stable(p6)


def test_criterion_05_ke_characterisation(exhaustive7):
    with criterion(5, "square-stable / pendant matching / very-well-covered-with-"
                      "pendant-maximum agree on every connected KE graph "
                      "(exhaustive n <= 7 plus 10^4 seeded samples n <= 12)"):
        pool = [g for _, g in exhaustive7 if g.n >= 2]
        pool.extend(g for g in sample_corpus(10_000, 12, seed=SEED + 5)
                    if g.n >= 2)
        checked = 0
        for g in pool:
            if stability_number(g) + matching_number(g) != g.n:
                continue
            checked += 1
            a = is_square_stable(g)
            b = pendant_perfect_matching(g) is not None
            c = (is_very_well_covered(g)
                 and pendants_contain_maximum_stable_set(g))
            assert a == b == c, to_graph6(g)
        assert checked > 3000  # the KE filter leaves a substantial corpus


def test_criterion_06_tree_characterisation():
    with criterion(6, "well-covered / very well-covered / pendant matching / "
                      "square-stable agree on trees to n = 12, with the "
                      "recursion edge on every well-covered tree"):
        trees = []
        for n in range(2, 8):  # exhaustive over labelled code sequences
            for seq in itertools.product(range(n), repeat=max(0, n - 2)):
                trees.append(prufer_to_tree(tuple(seq), n))
        rng = random.Random(SEED + 6)
        for n in range(8, 13):  # sampled above
            for _ in range(250):
                seq = tuple(rng.randrange(n) for _ in range(n - 2))
                trees.append(prufer_to_tree(seq, n))
        items = [(f"{i:05d}-{to_graph6(t)}", t) for i, t in enumerate(trees)]
        suite = run_suite(items, ("tree",), keep_details=True).suites[0]
        # a disagreement or a missing recursion edge is a violation
        assert suite.violations == [], suite.violations[:3]
        assert suite.graphs_checked == len(trees)
        order = {gid: t.n for gid, t in items}
        well_covered_seen = 0
        for detail in suite.details:
            if detail["statements"][0] and order[detail["graph_id"]] > 2:
                well_covered_seen += 1
                assert detail["recursion_edge"] is not None
        assert well_covered_seen > 100


def test_criterion_07_girth6_suite(exhaustive7, random_connected_n14):
    with criterion(7, "the five statements agree on every corpus graph of "
                      "girth >= 6 (7-cycle and single vertex excluded)"):
        rng = random.Random(SEED + 7)
        extra = []
        for n in range(2, 13):
            for _ in range(60):
                seq = tuple(rng.randrange(n) for _ in range(max(0, n - 2)))
                extra.append((f"tree-{n}", prufer_to_tree(seq, n)))
        suite = run_suite(exhaustive7 + random_connected_n14 + extra, ("girth6",)).suites[0]
        assert suite.violations == [], suite.violations[:3]
        assert suite.graphs_checked > 500


def test_criterion_08_matroid_routes(exhaustive7):
    with criterion(8, "matroid augmentation route and clique-components route "
                      "agree on every corpus graph with n <= 9"):
        corpus = [g for g in enumerate_corpus(7, connected_only=False)]
        corpus.extend(g for g in sample_corpus(400, 9, seed=SEED + 8))
        corpus.extend(g for g in sample_corpus(200, 9, seed=SEED + 88,
                                               connected_only=False))
        for g in corpus:
            omega_is_matroid(g)  # raises InternalCheckError on disagreement
        assert len(corpus) == 1252 + 600


def test_criterion_09_oracle_equivalence():
    with criterion(9, "alpha, mu, gamma, idom, theta match naive subset-scan "
                      "oracles on a seeded 10^3 sample with n <= 10"):
        rng = random.Random(SEED + 9)
        mismatches = 0
        for _ in range(1000):
            g = random_graph(rng, rng.randint(0, 10), rng.random())
            if stability_number(g) != oracle_alpha(g):
                mismatches += 1
            if matching_number(g) != oracle_mu(g):
                mismatches += 1
            if domination_number(g) != oracle_gamma(g):
                mismatches += 1
            if independent_domination_number(g) != oracle_idom(g):
                mismatches += 1
            if clique_cover_number(g) != oracle_theta(g):
                mismatches += 1
        assert mismatches == 0


def test_criterion_10_determinism(capsys):
    with criterion(10, "two runs of verify --exhaustive 6 --suite all produce "
                       "byte-identical JSON reports"):
        code1 = cli.main(["verify", "--exhaustive", "6"])
        out1 = capsys.readouterr().out
        code2 = cli.main(["verify", "--exhaustive", "6"])
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1.encode() == out2.encode()
        assert json.loads(out1)["violations_total"] == 0
