import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from gamegraphs import reversal
from gamegraphs.atlas import enumerate_games
from gamegraphs.construct import double
from gamegraphs.core import (
    EdgeSet,
    Game,
    Permutation,
    circulant,
    classify_digraph,
    make_digraph,
    relabel,
    reverse,
)
from gamegraphs.errors import NotACycle, NotSubgraph, ScoreMismatch, SizeMismatch
from gamegraphs.eulerian import cycle_decomposition, euler_trail, span, three_cycles
from gamegraphs.reversal import (
    ReversalPlan,
    apply_plan,
    bipartite_plan,
    delta,
    delta_id,
    format_plan,
    parity,
    parse_plan,
    plan_any,
    plan_optimal,
    reverse_subgraph,
    special_cycles,
)

from conftest import (
    disjoint_walk,
    oracle_check_bipartite,
    oracle_cycle_decomposition,
    oracle_delta,
    oracle_euler_trail,
    oracle_plan_descent,
    oracle_reverse_subgraph,
    random_digraph,
    random_tournament,
)

SRC = Path(__file__).resolve().parent.parent / "src"

# A plan certificate that fails must raise even when asserts are stripped:
# with every reversal a no-op, plan_any's replay cannot reach the target.
_BROKEN_REPLAY = """
from gamegraphs import reversal
from gamegraphs.core import circulant, reverse
from gamegraphs.errors import InvariantViolation

if __debug__:
    raise SystemExit("asserts are live")
reversal._reverse_cycle = lambda g, cycle: g
c5 = circulant(5, [1, 2])
try:
    reversal.plan_any(c5, reverse(c5))
except InvariantViolation:
    print("InvariantViolation")
"""


# plan_optimal's length certificate must hold under python -O too: a span
# report whose balance disagrees with its witness cannot pass.
_BROKEN_WITNESS = """
import dataclasses
from gamegraphs import reversal
from gamegraphs.core import circulant, reverse
from gamegraphs.errors import InvariantViolation

if __debug__:
    raise SystemExit("asserts are live")
solve = reversal.span
reversal.span = lambda d: dataclasses.replace(solve(d), balance=solve(d).balance - 1)
c7 = circulant(7, [1, 2, 3])
try:
    reversal.plan_optimal(c7, reverse(c7))
except InvariantViolation:
    print("InvariantViolation")
"""


def doubled_walk(seed: int, steps: int) -> tuple[Game, Game]:
    """The double of a random 31-tournament and the game `steps` 3-cycle
    flips away, no two flips sharing a pair of vertices."""
    rng = random.Random(seed)
    start, _ = double(random_tournament(31, rng))
    return start, disjoint_walk(start, steps, rng)


class TestDelta:
    def test_identity_pair_is_empty(self, g5):
        assert delta_id(g5, g5).edge_count() == 0

    def test_g7iii_to_g7ii_is_one_triangle(self, g7iii, g7ii):
        d = delta_id(g7iii, g7ii)
        assert set(d.edges()) == {(3, 6), (6, 5), (5, 3)}

    def test_delta_to_reverse_is_whole_graph(self, g5, g7ii):
        for g in (g5, g7ii):
            assert set(delta_id(g, reverse(g)).edges()) == set(g.edges())

    def test_eulerian_iff_score_preserving(self):
        rng = random.Random(41)
        for _ in range(30):
            a = random_tournament(5, rng)
            b = random_tournament(5, rng)
            d = delta_id(a, b)
            assert d.is_eulerian() == (scores_by_vertex(a) == scores_by_vertex(b))

    def test_with_permutation(self, g7i):
        rho = Permutation([(3 * i) % 7 for i in range(7)])
        target = relabel(g7i, rho)
        assert delta(rho, g7i, target).edge_count() == 0

    def test_size_mismatch(self, c3, g5):
        with pytest.raises(SizeMismatch):
            delta_id(c3, g5)

    @pytest.mark.parametrize("p", [5, 7, 9])
    def test_rows_agree_with_pairwise_oracles(self, p):
        rng = random.Random(100 + p)
        for _ in range(20):
            pi = random_tournament(p, rng)
            gamma = random_tournament(p, rng)
            image = list(range(p))
            rng.shuffle(image)
            rho = Permutation(image)
            d = delta(rho, pi, gamma)
            assert d == oracle_delta(rho, pi, gamma)
            assert delta_id(pi, gamma) == oracle_delta(Permutation.identity(p), pi, gamma)
            assert reverse_subgraph(pi, d) == oracle_reverse_subgraph(pi, d)
            # any subgraph of pi, Eulerian or not, reverses edge by edge
            sub = EdgeSet(p, [e for e in pi.edges() if rng.random() < 0.3])
            assert reverse_subgraph(pi, sub) == oracle_reverse_subgraph(pi, sub)


def scores_by_vertex(g):
    return tuple(g.out_degree(i) for i in range(g.p))


class TestReverseSubgraph:
    def test_empty(self, g5):
        assert reverse_subgraph(g5, EdgeSet(5, [])) == g5

    def test_g7iii_fixture(self, g7iii, g7ii):
        got = reverse_subgraph(g7iii, EdgeSet(7, [(3, 6), (6, 5), (5, 3)]))
        assert got == g7ii

    def test_double_reversal_round_trip(self, g7i):
        d = EdgeSet(7, [(0, 2), (2, 4), (4, 0)])
        assert reverse_subgraph(reverse_subgraph(g7i, d), reverse(d)) == g7i

    def test_delta_of_result(self, g7i):
        d = EdgeSet(7, [(0, 2), (2, 4), (4, 0)])
        assert set(delta_id(g7i, reverse_subgraph(g7i, d)).edges()) == set(d.edges())

    def test_scores_survive_iff_eulerian(self, g7i):
        eul = EdgeSet(7, [(0, 2), (2, 4), (4, 0)])
        non = EdgeSet(7, [(0, 1)])
        assert classify_digraph(reverse_subgraph(g7i, eul)).is_game
        assert not classify_digraph(reverse_subgraph(g7i, non)).is_game

    def test_disjoint_composition(self, g7i):
        d1 = EdgeSet(7, [(0, 2), (2, 4), (4, 0)])
        d2 = EdgeSet(7, [(1, 3), (3, 5), (5, 1)])
        assert reverse_subgraph(g7i, EdgeSet(7, d1.edges() + d2.edges())) == reverse_subgraph(
            reverse_subgraph(g7i, d1), d2
        )

    def test_not_subgraph(self, g7i):
        with pytest.raises(NotSubgraph):
            reverse_subgraph(g7i, EdgeSet(7, [(1, 0)]))


class TestPlanAny:
    def test_equal_games_empty_plan(self, g5):
        assert len(plan_any(g5, g5)) == 0

    def test_single_five_cycle_costs_three(self, g5):
        target = reverse_subgraph(g5, EdgeSet(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]))
        plan = plan_any(g5, target)
        assert len(plan) == 3
        assert apply_plan(g5, plan) == target

    def test_g7iii_to_g7ii(self, g7iii, g7ii):
        plan = plan_any(g7iii, g7ii)
        assert plan.moves == ((3, 6, 5),)

    def test_length_matches_greedy_decomposition(self, g7i):
        from gamegraphs.eulerian import cycle_decomposition

        target = reverse(g7i)
        plan = plan_any(g7i, target)
        dec = cycle_decomposition(delta_id(g7i, target))
        assert len(plan) == sum(len(c) - 2 for c in dec)
        assert apply_plan(g7i, plan) == target

    def test_replay_soundness_random_pairs(self):
        rng = random.Random(43)
        games = []
        while len(games) < 8:
            g = random_tournament(7, rng)
            if classify_digraph(g).is_game:
                games.append(g)
        for a in games:
            for b in games:
                plan = plan_any(a, b)
                cur = a
                for mv in plan.moves:
                    cur = apply_plan(cur, ReversalPlan((mv,)))
                    assert classify_digraph(cur).is_game  # intermediate states stay games
                assert cur == b

    def test_score_mismatch(self, straddle, c3):
        with pytest.raises(ScoreMismatch):
            plan_any(straddle, c3)

    def test_doubled_walk_at_p63(self):
        # without memory of dead ends, the greedy cycle search on this
        # difference graph ran for more than 15 s
        a, b = doubled_walk(18, 100)
        plan = plan_any(a, b)
        assert len(plan) == 264
        assert apply_plan(a, plan) == b

    @pytest.mark.parametrize("seed", [0, 1, 18, 23])
    def test_doubled_walk_delta_matches_edge_set_oracles(self, seed):
        d = delta_id(*doubled_walk(seed, 100))
        assert cycle_decomposition(d) == oracle_cycle_decomposition(d)
        assert euler_trail(d) == oracle_euler_trail(d)

    def test_failed_certificate_raises_under_python_O(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run(
            [sys.executable, "-O", "-c", _BROKEN_REPLAY],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout == "InvariantViolation\n"


class TestPlanOptimal:
    def test_equal_games(self, g5):
        assert len(plan_optimal(g5, g5)) == 0

    def test_g7i_to_reverse_costs_nine(self, g7i):
        plan = plan_optimal(g7i, reverse(g7i))
        assert len(plan) == 9
        assert apply_plan(g7i, plan) == reverse(g7i)

    def test_g7ii_to_reverse_costs_seven(self, g7ii):
        plan = plan_optimal(g7ii, reverse(g7ii))
        assert len(plan) == 7
        assert apply_plan(g7ii, plan) == reverse(g7ii)

    def test_single_move_plan_text(self, g7iii, g7ii):
        plan = plan_optimal(g7iii, g7ii)
        assert format_plan(plan) == "r3 3 6 5\n"

    def test_length_equals_balance(self, g7i, g7ii, g7iii):
        for a in (g7i, g7ii, g7iii):
            for b in (g7i, g7ii, g7iii):
                plan = plan_optimal(a, b)
                assert len(plan) == span(delta_id(a, b)).balance
                assert apply_plan(a, plan) == b

    def test_descent_length_on_size7_pairs(self):
        rng = random.Random(211)
        games = list(enumerate_games(7))
        for _ in range(100):
            a, b = rng.choice(games), rng.choice(games)
            plan = plan_optimal(a, b)
            assert len(plan) == len(oracle_plan_descent(a, b))
            assert apply_plan(a, plan) == b

    def test_descent_length_on_size9_walks(self):
        # a relabelled C9 and the game 2 to 8 random 3-cycle flips away
        rng = random.Random(223)
        c9 = circulant(9, (1, 2, 3, 4))
        for steps in range(2, 9):
            image = list(range(9))
            rng.shuffle(image)
            a = relabel(c9, Permutation(image))
            b = a
            for _ in range(steps):
                b = apply_plan(b, ReversalPlan((rng.choice(three_cycles(b)),)))
            plan = plan_optimal(a, b)
            assert len(plan) == len(oracle_plan_descent(a, b)) <= steps
            assert apply_plan(a, plan) == b

    def test_one_span_solve_per_plan(self, monkeypatch, g7i, g7ii, g7iii):
        from gamegraphs import eulerian, reversal

        calls = []

        def counted(d, *args, **kwargs):
            calls.append(d)
            return solve(d, *args, **kwargs)

        solve = eulerian.span
        monkeypatch.setattr(eulerian, "span", counted)
        monkeypatch.setattr(reversal, "span", counted)
        for a in (g7i, g7ii, g7iii):
            for b in (a, reverse(a), g7iii):
                calls.clear()
                plan_optimal(a, b)
                assert len(calls) == 1

    def test_failed_certificate_raises_under_python_O(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run(
            [sys.executable, "-O", "-c", _BROKEN_WITNESS],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout == "InvariantViolation\n"


class TestParity:
    def test_equal(self, g5):
        assert parity(g5, g5) == "even"

    def test_g7iii_vs_g7ii(self, g7iii, g7ii):
        assert parity(g7iii, g7ii) == "odd"

    def test_transposition_image_is_odd(self, g7i):
        rho = Permutation([1, 0, 2, 3, 4, 5, 6])
        assert parity(g7i, relabel(g7i, rho)) == "odd"

    def test_even_permutation_image_is_even(self, g7i):
        rho = Permutation([1, 2, 0, 3, 4, 5, 6])
        assert parity(g7i, relabel(g7i, rho)) == "even"

    def test_matches_plan_lengths(self, g7i, g7iii):
        plan = plan_any(g7i, g7iii)
        par = parity(g7i, g7iii)
        assert (len(plan) % 2 == 0) == (par == "even")


def bipartite_fixture(rows_j_to_k):
    """Bipartite tournament on J = {0,1,2}, K = {3,4,5}; rows_j_to_k[j] is the
    set of K-indices j beats."""
    edges = []
    for j in range(3):
        for k in range(3):
            if k in rows_j_to_k[j]:
                edges.append((j, 3 + k))
            else:
                edges.append((3 + k, j))
    return make_digraph(6, edges)


class TestBipartitePlan:
    def test_equal(self):
        a = bipartite_fixture([{0}, {1}, {2}])
        assert len(bipartite_plan(a, a, [0, 1, 2], [3, 4, 5])) == 0

    def test_single_four_cycle(self):
        a = bipartite_fixture([{0}, {1}, {2}])
        b = bipartite_fixture([{1}, {0}, {2}])
        plan = bipartite_plan(a, b, [0, 1, 2], [3, 4, 5])
        assert len(plan) == 1
        assert apply_plan(a, plan) == b

    def test_single_six_cycle_costs_two(self):
        a = bipartite_fixture([{0}, {1}, {2}])
        b = bipartite_fixture([{1}, {2}, {0}])
        plan = bipartite_plan(a, b, [0, 1, 2], [3, 4, 5])
        assert len(plan) == 2
        assert apply_plan(a, plan) == b

    def test_score_mismatch(self):
        a = bipartite_fixture([{0}, {1}, {2}])
        b = bipartite_fixture([{0, 1}, {1}, {2}])
        with pytest.raises(ScoreMismatch):
            bipartite_plan(a, b, [0, 1, 2], [3, 4, 5])

    def test_moves_are_four_cycles(self):
        a = bipartite_fixture([{0, 1}, {1, 2}, {0, 2}])
        b = bipartite_fixture([{1, 2}, {0, 1}, {0, 2}])
        plan = bipartite_plan(a, b, [0, 1, 2], [3, 4, 5])
        assert all(len(mv) == 4 for mv in plan.moves)
        assert apply_plan(a, plan) == b

    @pytest.mark.parametrize("p", range(1, 10))
    def test_check_agrees_with_pairwise_oracle(self, p):
        # seeded bipartite tournaments with a few pairs dropped or added
        # inside a part, random digraphs, and parts that overlap or miss a
        # vertex: the same error class and message as the pair scan, or none
        rng = random.Random(700 + p)
        for trial in range(450):
            J = [v for v in range(p) if rng.random() < 0.5]
            K = [v for v in range(p) if v not in J]
            if trial % 9 == 0:
                g = random_digraph(p, rng)
            else:
                edges = []
                for a in range(p):
                    for b in range(a + 1, p):
                        if (a in J) != (b in J):
                            if rng.random() < 0.97:
                                edges.append((a, b) if rng.random() < 0.5 else (b, a))
                        elif rng.random() < 0.03:
                            edges.append((a, b) if rng.random() < 0.5 else (b, a))
                g = make_digraph(p, edges)
            if trial % 15 == 0:
                K = K + J[:1] if rng.random() < 0.5 else K[1:]
            outcomes = []
            for check in (reversal._check_bipartite_tournament, oracle_check_bipartite):
                try:
                    check(g, J, K)
                    outcomes.append(None)
                except (ScoreMismatch, SizeMismatch) as exc:
                    outcomes.append((type(exc), str(exc)))
            assert outcomes[0] == outcomes[1], (g.rows, J, K)


class TestSpecialCycles:
    def test_odd_circulant_has_fourteen(self):
        g = circulant(7, (1, 3, 5))
        sc = special_cycles(g, list(range(7)))
        assert sc.count == 14  # (2k+1)(k-1) with k = 3
        assert len(sc.near) == 7 and len(sc.far) == 7

    def test_initial_segment_circulant_has_seven(self, g7i):
        sc = special_cycles(g7i, list(range(7)))
        assert sc.count == 7  # 2k+1 with k = 3
        assert len(sc.near) == 0

    def test_upper_bound_odd(self):
        from gamegraphs.eulerian import cycle_through, strong_components

        rng = random.Random(47)
        checked = 0
        while checked < 15:
            g = random_tournament(7, rng)
            if len(strong_components(g)) != 1:
                continue
            sc = special_cycles(g, list(cycle_through(g, 0, 7)))
            assert sc.count <= 14  # (2k+1)(k-1) bound, p = 2k+1
            checked += 1

    def test_four_cycle_in_size5_games_at_least_two(self):
        # every 4-cycle of every size-5 game has exactly its two near cycles
        from conftest import all_labeled_tournaments

        for g in all_labeled_tournaments(5):
            if not classify_digraph(g).is_game:
                continue
            for cyc in four_cycles(g):
                sc = special_cycles(g, cyc)
                assert sc.count >= 2

    def test_not_a_cycle(self, g7i):
        with pytest.raises(NotACycle):
            special_cycles(g7i, [0, 1, 2])  # too short
        with pytest.raises(NotACycle):
            special_cycles(g7i, [0, 2, 1, 3])  # (0,2) fine but (2,1) missing


def four_cycles(g):
    out = []
    p = g.p
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for d in range(p):
                    if len({a, b, c, d}) == 4 and a == min(a, b, c, d):
                        if (
                            g.has_edge(a, b)
                            and g.has_edge(b, c)
                            and g.has_edge(c, d)
                            and g.has_edge(d, a)
                        ):
                            out.append((a, b, c, d))
    return out


class TestDescentCases:
    def test_plus_minus_one_law_sampled_size7(self, g7i, g7ii, g7iii):
        from gamegraphs.eulerian import cycle_decomposition, euler_trail, span, three_cycles

        rng = random.Random(97)
        games = [g7i, g7ii, g7iii]
        for _ in range(5):
            gamma, pi = rng.choice(games), rng.choice(games)
            beta = span(delta_id(gamma, pi)).balance
            decreasing = 0
            for tri in three_cycles(gamma):
                gamma2 = apply_plan(gamma, ReversalPlan((tri,)))
                beta2 = span(delta_id(gamma2, pi)).balance
                assert abs(beta2 - beta) == 1
                decreasing += beta2 == beta - 1
            if beta > 0:
                assert decreasing > 0

    def test_unusable_triangle_raises_beta(self, chorded_nine_ring):
        """Embed the 12-edge fixture in a 9-vertex game; its unique 3-cycle is
        in no maximum decomposition, so reversing it moves beta up by one."""
        from gamegraphs.construct import eulerian_to_game
        from gamegraphs.eulerian import span

        gamma = eulerian_to_game(chorded_nine_ring)
        pi = reverse_subgraph(gamma, chorded_nine_ring)
        assert set(delta_id(gamma, pi).edges()) == set(chorded_nine_ring.edges())
        beta = span(chorded_nine_ring).balance
        gamma2 = apply_plan(gamma, ReversalPlan(((0, 6, 3),)))
        assert span(delta_id(gamma2, pi)).balance == beta + 1


class TestPlanText:
    def test_round_trip(self):
        plan = ReversalPlan(((0, 1, 2), (3, 4, 5, 6)))
        assert parse_plan(format_plan(plan)) == plan

    def test_apply_rejects_missing_cycle(self, g5):
        with pytest.raises(NotACycle):
            apply_plan(g5, ReversalPlan(((0, 1, 2),)))  # 0->1, 1->2 present, 2->0 absent
