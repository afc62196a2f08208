import json
import os
import random
import subprocess
import sys
from collections import Counter
from math import comb, factorial
from pathlib import Path

import pytest

from gamegraphs.atlas import (
    _game_rows,
    _meet,
    _neighbors,
    census,
    convexity_check,
    count_pointed_games,
    count_report,
    diameter,
    enumerate_games,
    geodesic_count,
    interchange_distance,
)
from gamegraphs.cli import main
from gamegraphs.core import Game, Permutation, circulant, relabel, reverse
from gamegraphs.errors import BudgetExceeded, SizeMismatch, TooLarge, VertexOutOfRange
from gamegraphs.eulerian import count_eulerian_subgraphs, span, three_cycle_stats
from gamegraphs.morph import canon_hex, canonical_form
from gamegraphs.reversal import delta_id

from conftest import (
    all_labeled_tournaments,
    disjoint_walk,
    oracle_census,
    oracle_game_rows,
    oracle_interchange_bfs,
    oracle_parity_bipartition,
)

SRC = Path(__file__).resolve().parent.parent / "src"

# The product law of the counting report must raise even when asserts are
# stripped: here the pointed count is off by one.
_BROKEN_PRODUCT_LAW = """
from gamegraphs import atlas
from gamegraphs.errors import InvariantViolation

if __debug__:
    raise SystemExit("asserts are live")
atlas.count_pointed_games = lambda p: 5
try:
    atlas.count_report(2)
except InvariantViolation:
    print("InvariantViolation")
"""

# The census mass check must raise even when asserts are stripped: here the
# labeled count it is held against is off by one.
_BROKEN_MASS = """
from gamegraphs import atlas
from gamegraphs.errors import InvariantViolation

if __debug__:
    raise SystemExit("asserts are live")
atlas.count_eulerian_subgraphs = lambda g: 25
try:
    atlas.census(5)
except InvariantViolation as exc:
    print("InvariantViolation", exc)
"""


class TestEnumerate:
    def test_counts(self):
        assert sum(1 for _ in enumerate_games(3)) == 2
        assert sum(1 for _ in enumerate_games(5)) == 24
        assert sum(1 for _ in enumerate_games(7)) == 2640

    def test_matches_exhaustive_filter(self):
        from gamegraphs.core import classify_digraph

        want = {g.rows for g in all_labeled_tournaments(5) if classify_digraph(g).is_game}
        got = {g.rows for g in enumerate_games(5)}
        assert got == want

    def test_lexicographic_no_duplicates(self):
        seen = [g.rows for g in enumerate_games(5)]
        assert seen == sorted(set(seen))

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            next(enumerate_games(11))

    def test_row_stream_against_win_counts(self):
        # the enumerator against backtracking with a running win count per
        # vertex, even sizes (no games) included
        for p in range(9):
            assert list(_game_rows(p)) == oracle_game_rows(p)


class TestCensus:
    def test_size3(self):
        atl = census(3)
        assert atl.labeled_total == 2 and len(atl.classes) == 1
        assert atl.classes[0].aut_order == 3

    def test_size5(self):
        atl = census(5)
        assert atl.labeled_total == 24 and len(atl.classes) == 1
        assert atl.classes[0].aut_order == 5
        assert atl.classes[0].labeled_count == factorial(5) // 5

    def test_size7(self, census7):
        atl = census7
        assert len(atl.classes) == 3
        assert atl.labeled_total == 2640
        assert sorted(c.aut_order for c in atl.classes) == [3, 7, 21]
        for c in atl.classes:
            assert c.labeled_count == factorial(7) // c.aut_order

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_matches_enumeration_oracle(self, p, census7):
        atl = census7 if p == 7 else census(p)
        want = oracle_census(p)
        assert atl.labeled_total == want.labeled_total
        got = [(c.canon_hex, c.aut_order, c.labeled_count) for c in atl.classes]
        assert got == [(c.canon_hex, c.aut_order, c.labeled_count) for c in want.classes]
        for c in atl.classes:
            assert canon_hex(p, canonical_form(c.representative).bits) == c.canon_hex

    def test_size9_pinned(self):
        atl = census(9)
        assert len(atl.classes) == 15
        assert atl.labeled_total == 3_230_080
        assert Counter(c.aut_order for c in atl.classes) == {1: 7, 3: 5, 9: 2, 81: 1}
        for c in atl.classes:
            assert canon_hex(9, canonical_form(c.representative).bits) == c.canon_hex

    def test_mass_check_raises_under_python_O(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run(
            [sys.executable, "-O", "-c", _BROKEN_MASS],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout == "InvariantViolation classes hold 24 labeled games, the DP counts 25\n"

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            census(11)


class TestPointedCounts:
    def test_n2(self):
        assert count_pointed_games(5) == 4

    def test_n3(self):
        assert count_pointed_games(7) == 132

    @pytest.mark.parametrize("p, count", [(1, 1), (3, 1), (5, 4), (7, 132), (9, 46_144)])
    def test_against_enumeration(self, p, count):
        # the DP of C_p minus vertex 0 against the games whose row 0 is 1..n
        row0 = sum(1 << j for j in range(1, (p - 1) // 2 + 1))
        assert count_pointed_games(p) == len(oracle_game_rows(p, row0)) == count

    def test_size11_pinned(self):
        # past the enumeration budget; times C(10, 5) it is the labeled count
        pointed = count_pointed_games(11)
        assert pointed == 191_474_240
        assert comb(10, 5) * pointed == count_eulerian_subgraphs(circulant(11, range(1, 6))) == 48_251_508_480

    @pytest.mark.parametrize("p, error", [(8, SizeMismatch), (-1, VertexOutOfRange)])
    def test_refuses_sizes_with_no_games(self, p, error):
        with pytest.raises(error):
            count_pointed_games(p)


class TestDistance:
    def test_self_distance(self, g5):
        assert interchange_distance(g5, g5) == 0
        assert geodesic_count(g5, g5) == (0, 1)

    def test_g7iii_to_g7ii(self, g7iii, g7ii):
        assert interchange_distance(g7iii, g7ii) == 1

    def test_g7i_to_reverse(self, g7i):
        d, cnt = geodesic_count(g7i, reverse(g7i))
        assert d == 9
        assert cnt >= factorial(9)

    def test_distance_equals_balance_sampled(self):
        rng = random.Random(83)
        games = list(enumerate_games(5))
        for _ in range(40):
            a, b = rng.choice(games), rng.choice(games)
            assert interchange_distance(a, b) == span(delta_id(a, b)).balance

    def test_geodesic_factorial_bound(self):
        rng = random.Random(89)
        games = list(enumerate_games(5))
        for _ in range(15):
            a, b = rng.choice(games), rng.choice(games)
            d, cnt = geodesic_count(a, b)
            assert cnt >= factorial(d)


class TestBidirectional:
    """Distance and geodesic count from both ends against the one-sided BFS."""

    def test_all_size5_pairs(self):
        games = list(enumerate_games(5))
        for a in games:
            dist, count = oracle_interchange_bfs(5, a.rows)
            for b in games:
                assert geodesic_count(a, b) == (dist[b.rows], count[b.rows])
                assert interchange_distance(a, b) == dist[b.rows]

    def test_seeded_size7_pairs(self):
        # 15 sources with 20 targets each: one oracle sweep serves 20 pairs
        rng = random.Random(97)
        games = list(enumerate_games(7))
        pairs = 0
        for a in rng.sample(games, 15):
            dist, count = oracle_interchange_bfs(7, a.rows)
            for b in rng.sample(games, 20):
                assert geodesic_count(a, b) == (dist[b.rows], count[b.rows])
                assert interchange_distance(a, b) == dist[b.rows]
                pairs += 1
        assert pairs == 300

    def test_size9_disjoint_walks(self):
        rng = random.Random(101)
        c9 = circulant(9, (1, 2, 3, 4))
        for steps in (1, 2, 3, 4, 5):
            b = disjoint_walk(c9, steps, rng)
            dist, count = oracle_interchange_bfs(9, c9.rows, b.rows)
            d, paths, stored = _meet(9, c9.rows, b.rows)
            assert d == dist[b.rows] == steps
            assert paths == count[b.rows]
            assert geodesic_count(c9, b) == (d, paths)
            # past one flip, both ends together store less than one side
            assert steps == 1 or stored < len(dist)

    def test_disjoint_walk_past_the_pairs_raises(self):
        # 8 flips need 24 pairs and C7 has 21: the walk stops with an error
        with pytest.raises(ValueError, match="no 3-cycle on unused pairs"):
            disjoint_walk(circulant(7, (1, 2, 3)), 8, random.Random(0))

    def test_pinned_stored_games(self, g7i):
        # both ends' dictionaries together; the one-sided search reaches
        # all 2,640 size-7 games before it gets to reverse(g7i)
        assert _meet(7, g7i.rows, reverse(g7i).rows) == (9, 4_585_728, 3_148)


class TestDegreeRegularity:
    def test_degree_is_three_cycle_count(self, g5, g7i):
        assert len(_neighbors(g5.rows, 5)) == three_cycle_stats(g5).total == 5
        assert len(_neighbors(g7i.rows, 7)) == 14
        for g in list(enumerate_games(5)):
            nbrs = _neighbors(g.rows, 5)
            assert len(nbrs) == 5
            for rows in nbrs:
                Game(5, rows)  # raises unless the neighbor is a game


class TestDiameter:
    def test_size3(self):
        rep = diameter(3)
        assert rep.value == 1 and rep.conjectured == 1

    def test_size5(self):
        rep = diameter(5)
        assert rep.value == 4 and rep.conjectured == 4

    @pytest.mark.parametrize("p, value, near, far", [
        (3, 1, (2, 4, 1), (4, 1, 2)),
        (5, 4, (6, 12, 24, 17, 3), (24, 17, 3, 6, 12)),
        (7, 9, (14, 28, 56, 112, 97, 67, 7), (112, 97, 67, 7, 14, 28, 56)),
    ])
    def test_value_and_witness_pinned(self, p, value, near, far):
        # a tie between farthest games goes to the greatest row tuple
        rep = diameter(p)
        assert rep.value == value
        assert (rep.witness[0].rows, rep.witness[1].rows) == (near, far)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            diameter(9)


class TestParity:
    def test_size3(self):
        even, odd = oracle_parity_bipartition(3)
        assert len(even) == 1 and len(odd) == 1

    def test_size5_split(self):
        even, odd = oracle_parity_bipartition(5)
        assert len(even) == 12 and len(odd) == 12

    def test_edges_cross(self):
        even, odd = oracle_parity_bipartition(5)
        even_set = {g.rows for g in even}
        for g in even + odd:
            side = g.rows in even_set
            for rows in _neighbors(g.rows, 5):
                assert (rows in even_set) != side

    def test_transposition_lands_across(self, g5):
        even, odd = oracle_parity_bipartition(5)
        even_set = {g.rows for g in even}
        rho = Permutation([1, 0, 2, 3, 4])
        img = relabel(g5, rho)
        assert (g5.rows in even_set) != (img.rows in even_set)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_census_split_matches_oracle(self, p, capsys):
        assert main(["atlas", "census", str(p)]) == 0
        even, odd = oracle_parity_bipartition(p)
        assert json.loads(capsys.readouterr().out)["parity_split"] == [len(even), len(odd)]


class TestSteinerStepOut:
    def test_losing_steiner_moves_one_farther_from_reverse(self, g7ii, g7iii):
        """Some size-7 Steiner game has a 3-cycle outside every maximum
        decomposition; reversing it lands one step farther from the reversed
        game (at 1 + 7 instead of 7 - 1)."""
        from gamegraphs.eulerian import steiner_decomposition, three_cycles
        from gamegraphs.reversal import ReversalPlan, apply_plan

        hit = False
        for g in (g7ii, g7iii):
            base_d = interchange_distance(g, reverse(g))
            assert base_d == 7
            for tri in three_cycles(g):
                stepped = apply_plan(g, ReversalPlan((tri,)))
                if steiner_decomposition(stepped) is None:
                    assert interchange_distance(stepped, reverse(g)) == base_d + 1
                    hit = True
        assert hit


class TestConvexity:
    def test_whole_vertex_set_is_trivially_convex(self, g5):
        assert convexity_check(g5, list(range(5)))

    def test_empty_q_is_whole_graph(self, g5):
        assert convexity_check(g5, [])

    def test_fiber_at_base_vertex(self, g5):
        assert convexity_check(g5, [0])


class TestCountReport:
    def test_n2(self):
        rep = count_report(2)
        assert rep.exact_total == 24
        assert rep.exact_pointed == 4
        assert rep.binom == 6
        assert rep.formula_total_lower == 24
        assert rep.literature_total is None

    @pytest.mark.parametrize("n", range(10))
    def test_product_law_and_pointed_bound(self, n):
        # every n the DP answers; the pointed count is at least 2^(n(n-1))
        rep = count_report(n)
        assert rep.exact_total == comb(2 * n, n) * rep.exact_pointed
        assert rep.exact_pointed >= rep.formula_pointed_lower == 2 ** (n * (n - 1))

    def test_n10_is_too_large(self):
        with pytest.raises(TooLarge):
            count_report(10)

    def test_product_law_raises_under_python_O(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run(
            [sys.executable, "-O", "-c", _BROKEN_PRODUCT_LAW],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout == "InvariantViolation\n"

    def test_n3_flags_literature_disagreement(self):
        rep = count_report(3)
        assert rep.exact_total == 2640
        assert rep.exact_pointed == 132
        assert rep.formula_total_lower == 20 * 64
        assert rep.literature_total == 1680 and rep.literature_pointed == 84
        assert rep.literature_agrees is False
        # the vacuous isomorphism-class bound 64/252 < 1
        assert rep.is_lower_bound_num == 64
        assert rep.is_lower_bound_den == 252
