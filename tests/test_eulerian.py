import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from itertools import permutations
from pathlib import Path

import pytest

from gamegraphs import eulerian
from gamegraphs.core import (
    Digraph,
    EdgeSet,
    Permutation,
    Tournament,
    circulant,
    from_rows,
    make_digraph,
    relabel,
    reverse,
    scores,
)
from gamegraphs.errors import (
    BadLength,
    DomainError,
    BudgetExceeded,
    InvariantViolation,
    NotConnected,
    NotEulerian,
    NotStrong,
    TooLarge,
)
from gamegraphs.eulerian import (
    _all_cycles,
    _feedback_order,
    _simple_path,
    count_eulerian_subgraphs,
    cycle_decomposition,
    cycle_edges,
    cycle_through,
    euler_trail,
    is_order,
    span,
    span_lower_bound,
    steiner_decomposition,
    strong_components,
    three_cycle_stats,
    three_cycles,
)
from gamegraphs.reversal import ReversalPlan, apply_plan, delta_id

from conftest import (
    _oracle_tris,
    all_labeled_tournaments,
    disjoint_walk,
    oracle_count_mitm,
    oracle_cycle_decomposition,
    oracle_cycle_through,
    oracle_euler_trail,
    oracle_eulerian_count,
    oracle_feedback_order,
    oracle_is_order,
    oracle_all_cycles,
    oracle_simple_path,
    oracle_span,
    oracle_span_lower_bound,
    oracle_span_search,
    oracle_steiner_decomposition,
    oracle_strong_components,
    random_digraph,
    random_eulerian_edgeset,
    random_tournament,
    standard_order,
)


# Size-11 games (55 edges) of span 17, below floor(55 / 3) = 18.  The greedy
# decomposition of the first is already maximum; on the second it finds 16
# cycles and the search must beat it.
SPAN17_GREEDY_MAX = (1222, 124, 248, 433, 481, 1857, 1928, 1826, 1543, 31, 542)
SPAN17_GREEDY_16 = (186, 124, 121, 1488, 1504, 968, 1921, 1798, 1543, 31, 551)
# A size-11 game of span 18 = floor(55 / 3) whose greedy finds 17 cycles: no
# order has only 17 backward edges, and 17 + 1 meets floor(55 / 3).
SPAN18_GREEDY_17 = (1682, 1828, 457, 1107, 902, 157, 307, 1354, 1577, 236, 628)
# The gap class: span 17, below 18 = min(floor(55 / 3), tau_min); greedy 16.
GAP_CLASS = (1202, 124, 569, 817, 992, 1984, 397, 1294, 1543, 1219, 94)

SRC = Path(__file__).resolve().parent.parent / "src"
SPAN11_POOL = Path(__file__).resolve().parent.parent / "perfbench" / "span11_pool.json"


def span11_pool_games():
    """The size-11 games of the benchmark pool: each is C11 after `steps`
    3-cycle flips, each flip drawn uniformly from the lexicographic list of
    the current game's 3-cycles by random.Random(walk_seed)."""
    pool = json.loads(SPAN11_POOL.read_text())["classes"]
    c11 = circulant(11, range(1, 6))
    games = []
    for entries in pool.values():
        for e in entries:
            rng, g = random.Random(e["walk_seed"]), c11
            for _ in range(e["steps"]):
                tris = three_cycles(g)
                g = apply_plan(g, ReversalPlan((tris[rng.randrange(len(tris))],)))
            games.append((g, e["span"]))
    return games


def plan_any_deltas_at_9():
    """Difference graphs that plan any decomposes at p = 9: a relabelled C9
    against its reverse and against disjoint walks of 1 to 7 flips from it."""
    rng = random.Random(227)
    c9 = circulant(9, range(1, 5))
    out = []
    for steps in range(1, 8):
        image = list(range(9))
        rng.shuffle(image)
        a = relabel(c9, Permutation(image))
        out.append(delta_id(a, reverse(a)))
        for _ in range(4):
            out.append(delta_id(a, disjoint_walk(a, steps, rng)))
    return out


# span's certificates must raise even when asserts are stripped: the
# search's witness is broken by listing every cycle backwards (the masks,
# and so the search, are unchanged), the greedy one by dropping a cycle;
# the feedback order by naming a vertex twice, its claimed tau by one more
# than the order's backward edges, both where the search runs (ring) and
# where the root certifies the greedy (C9: the order reversed has 26
# backward edges, not the claimed 10).
_BROKEN_WITNESS = """
import dataclasses
from unittest import mock

from gamegraphs import eulerian
from gamegraphs.core import EdgeSet, circulant
from gamegraphs.errors import InvariantViolation

if __debug__:
    raise SystemExit("asserts are live")
all_cycles, lower_bound, feedback_order = eulerian._all_cycles, eulerian.span_lower_bound, eulerian._feedback_order


def backwards(*args):
    return [(k, verts[::-1], mask) for (k, verts, mask) in all_cycles(*args)]


def short(d):
    rep = lower_bound(d)
    return dataclasses.replace(rep, witness=rep.witness[:-1])


def repeated(d, cycles):
    order, tau = feedback_order(d, cycles)
    return order[:-1] + order[:1], tau


def overclaimed(d, cycles):
    order, tau = feedback_order(d, cycles)
    return order, tau + 1


def reversed_order(d, cycles):
    order, tau = feedback_order(d, cycles)
    return order[::-1], tau


ring = EdgeSet(9, [(i, (i + 1) % 9) for i in range(9)] + [(6, 3), (3, 0), (0, 6)])
cases = [
    ("search", mock.patch.object(eulerian, "_all_cycles", backwards), ring),
    ("greedy", mock.patch.object(eulerian, "span_lower_bound", short), circulant(7, (1, 2, 3))),
    ("order", mock.patch.object(eulerian, "_feedback_order", repeated), ring),
    ("tau", mock.patch.object(eulerian, "_feedback_order", overclaimed), ring),
    ("tight_repeated", mock.patch.object(eulerian, "_feedback_order", repeated), circulant(9, (1, 2, 3, 4))),
    ("tight_reversed", mock.patch.object(eulerian, "_feedback_order", reversed_order), circulant(9, (1, 2, 3, 4))),
]
for name, patch, d in cases:
    with patch:
        try:
            eulerian.span(d)
        except InvariantViolation:
            print(name)
"""


def check_decomposition(d: EdgeSet, cycles) -> None:
    used = set()
    for cyc in cycles:
        assert len(set(cyc)) == len(cyc) >= 3
        for e in cycle_edges(cyc):
            assert e in set(d.edges())
            assert e not in used
            used.add(e)
    assert used == set(d.edges())


class TestCycleDecomposition:
    def test_c3(self, c3):
        assert cycle_decomposition(c3) == [(0, 1, 2)]

    def test_chorded_nine_ring_covers_all_edges(self, chorded_nine_ring):
        cycles = cycle_decomposition(chorded_nine_ring)
        check_decomposition(chorded_nine_ring, cycles)
        assert sum(len(c) for c in cycles) == 12

    def test_straddle_rejected(self, straddle):
        with pytest.raises(NotEulerian):
            cycle_decomposition(straddle)

    def test_random_eulerian(self):
        rng = random.Random(3)
        for _ in range(25):
            d = random_eulerian_edgeset(8, rng)
            if d.edge_count():
                check_decomposition(d, cycle_decomposition(d))


class TestSimplePath:
    def test_same_path_as_dfs_without_dead_ends(self):
        rng = random.Random(13)
        for _ in range(40):
            p = rng.randint(4, 9)
            t = random_tournament(p, rng)
            edges = {e for e in t.edges() if rng.random() < 0.7}
            rows = EdgeSet(p, edges).rows
            for src in range(p):
                for dst in range(p):
                    if src != dst:
                        assert _simple_path(rows, src, dst) == oracle_simple_path(edges, src, dst)


class TestEulerTrail:
    def test_c3(self, c3):
        assert euler_trail(c3) == [0, 1, 2, 0]

    def test_chorded_nine_ring_replay(self, chorded_nine_ring):
        trail = euler_trail(chorded_nine_ring)
        assert len(trail) == 13 and trail[0] == trail[-1]
        walked = list(zip(trail, trail[1:]))
        assert len(set(walked)) == 12
        assert set(walked) == set(chorded_nine_ring.edges())

    def test_separated_cycles_rejected(self):
        d = EdgeSet(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        with pytest.raises(NotConnected):
            euler_trail(d)

    def test_unbalanced_rejected(self):
        with pytest.raises(NotEulerian):
            euler_trail(EdgeSet(3, [(0, 1)]))


class TestRowPeelAgainstEdgeSetOracles:
    """The greedy peel and the Euler trail against their edge-set forms."""

    @staticmethod
    def check(d):
        assert cycle_decomposition(d) == oracle_cycle_decomposition(d)
        try:
            want = oracle_euler_trail(d)
        except NotConnected:
            with pytest.raises(NotConnected):
                euler_trail(d)
        else:
            assert euler_trail(d) == want

    @pytest.mark.parametrize("p", [5, 9, 16, 31, 63])
    def test_seeded_eulerian_digraphs(self, p):
        rng = random.Random(700 + p)
        for _ in range(12):
            d = random_eulerian_edgeset(p, rng, rng.randint(1, 30))
            if d.edge_count():
                self.check(d)
                assert span_lower_bound(d).witness == oracle_span_lower_bound(d)

    @pytest.mark.parametrize("p", [6, 20, 63])
    def test_vertex_separated_halves(self, p):
        # two Eulerian digraphs side by side: the peel covers both, the
        # trail is refused
        rng = random.Random(800 + p)
        h = p // 2
        for _ in range(4):
            low = random_eulerian_edgeset(h, rng, 8).edges()
            high = random_eulerian_edgeset(p - h, rng, 8).edges()
            self.check(EdgeSet(p, low + [(u + h, v + h) for (u, v) in high]))

    def test_plan_any_deltas_at_9(self):
        for d in plan_any_deltas_at_9():
            if d.edge_count():
                self.check(d)

    def test_greedy_witness_on_the_span11_pool(self):
        games = span11_pool_games()
        assert len(games) == 84
        for g, span_ in games:
            lower = span_lower_bound(g)
            assert lower.witness == oracle_span_lower_bound(g)
            assert lower.span <= span_
            assert euler_trail(g) == oracle_euler_trail(g)


def _cycle_listing_cases():
    """(digraph, max_len) pairs: seeded Eulerian digraphs on p = 3-13 with
    every length bound 3..p, and games p flips along a walk from the cyclic
    game with bounds 3..min(p, 8) (a size-13 game has 1.2 M cycles)."""
    rng = random.Random(61)
    cases = []
    for p in range(3, 14):
        for _ in range(3):
            d = random_eulerian_edgeset(p, rng)
            cases += [(d, length) for length in range(3, p + 1)]
        if p % 2:
            g = circulant(p, range(1, (p + 1) // 2))
            for _ in range(p):
                tris = three_cycles(g)
                g = apply_plan(g, ReversalPlan((tris[rng.randrange(len(tris))],)))
            cases += [(g, length) for length in range(3, min(p, 8) + 1)]
    return cases


class TestAllCycles:
    def test_against_the_edge_list_listing(self):
        for d, length in _cycle_listing_cases():
            assert _all_cycles(d.rows, 2_000_000, length) == oracle_all_cycles(d.p, d.edges(), 2_000_000, length)

    def test_budget_is_exact(self):
        # the listing gives up right after the cycle that passes the cap
        checked = 0
        for d, length in _cycle_listing_cases():
            cycles = _all_cycles(d.rows, 2_000_000, length)
            if not cycles:
                continue
            assert _all_cycles(d.rows, len(cycles), length) == cycles
            with pytest.raises(BudgetExceeded):
                _all_cycles(d.rows, len(cycles) - 1, length)
            checked += 1
        assert checked > 100


class TestSpan:
    def test_single_cycles(self):
        for k in (3, 4, 5, 6, 7):
            d = EdgeSet(k, [(i, (i + 1) % k) for i in range(k)])
            rep = span(d)
            assert rep.span == 1 and rep.balance == k - 2

    def test_chorded_nine_ring(self, chorded_nine_ring):
        rep = span(chorded_nine_ring)
        assert rep.edge_count == 12 and rep.span == 3 and rep.balance == 6
        check_decomposition(chorded_nine_ring, rep.witness)
        assert rep.span == oracle_span(chorded_nine_ring)

    def test_g7i_balance_is_n_squared(self, g7i):
        rep = span(g7i)
        assert rep.balance == 9
        check_decomposition(g7i, rep.witness)

    def test_balance_equals_report_identity(self, chorded_nine_ring):
        rep = span(chorded_nine_ring)
        assert rep.balance == rep.edge_count - 2 * rep.span
        assert rep.balance == sum(len(c) - 2 for c in rep.witness)

    def test_oracle_agreement_small(self):
        rng = random.Random(5)
        done = 0
        while done < 12:
            d = random_eulerian_edgeset(7, rng, tries=3)
            if not 3 <= d.edge_count() <= 13:
                continue
            assert span(d).span == oracle_span(d)
            done += 1

    def test_parity_and_reversal_invariance(self):
        rng = random.Random(9)
        for _ in range(10):
            d = random_eulerian_edgeset(7, rng, tries=4)
            if not d.edge_count():
                continue
            rep = span(d)
            assert rep.balance % 2 == d.edge_count() % 2
            assert span(reverse(d)).balance == rep.balance

    def test_unique_three_cycle_outside_every_maximum_decomposition(self, chorded_nine_ring):
        tri = EdgeSet(9, [(6, 3), (3, 0), (0, 6)])
        assert [c for c in cycle_decomposition(tri)] == [(0, 6, 3)]
        # a maximum decomposition using the 3-cycle would leave span(rest) = 2
        rest = EdgeSet(9, set(chorded_nine_ring.edges()) - set(tri.edges()))
        assert 1 + span(rest).span < span(chorded_nine_ring).span

    def test_removing_eulerian_subgraph_stays_eulerian(self):
        rng = random.Random(21)
        for _ in range(10):
            d = random_eulerian_edgeset(8, rng)
            if not d.edge_count():
                continue
            cycles = cycle_decomposition(d)
            drop = EdgeSet(d.p, cycle_edges(cycles[0]))
            assert EdgeSet(d.p, set(d.edges()) - set(drop.edges())).is_eulerian()

    def test_bound_only_mode(self, g7i):
        d = g7i
        lb = span_lower_bound(d)
        assert lb.span <= span(d).span
        assert lb.span >= -(-d.edge_count() // 7)
        assert lb.span == len(lb.witness) and lb.balance == d.edge_count() - 2 * lb.span
        check_decomposition(d, lb.witness)

    def test_oracle_agreement_greedy_kept_and_beaten(self):
        # the search starts from the greedy decomposition: when that is
        # maximum it is the witness, otherwise the search must beat it
        rng = random.Random(1)
        kept = beaten = 0
        while kept < 20 or beaten < 3:
            d = random_eulerian_edgeset(9, rng, tries=5)
            if not 6 <= d.edge_count() <= 14:
                continue
            rep, greedy = span(d), span_lower_bound(d)
            assert rep.span == oracle_span(d)
            check_decomposition(d, rep.witness)
            check_decomposition(d, greedy.witness)
            if rep.span == greedy.span:
                assert rep.witness == greedy.witness
                kept += 1
            else:
                assert rep.span > greedy.span
                beaten += 1

    def test_search_beats_greedy_on_chorded_nine_ring(self, chorded_nine_ring):
        # the greedy peels the one 3-cycle, which no maximum decomposition uses
        greedy = span_lower_bound(chorded_nine_ring)
        assert (0, 6, 3) in greedy.witness
        assert greedy.span == 2 < span(chorded_nine_ring).span == 3

    def test_size11_games_below_edges_over_three(self):
        for rows, greedy_span in ((SPAN17_GREEDY_MAX, 17), (SPAN17_GREEDY_16, 16)):
            d = from_rows(11, rows)
            rep = span(d)
            assert rep.span == 17 < d.edge_count() // 3
            assert rep.balance == 21
            check_decomposition(d, rep.witness)
            assert span_lower_bound(d).span == greedy_span

    @pytest.mark.parametrize("d, nodes", [
        (circulant(9, (1, 2, 3, 4)), 1),
        (from_rows(11, SPAN17_GREEDY_16), 117),
        (from_rows(11, SPAN17_GREEDY_MAX), 1),
        (from_rows(11, SPAN18_GREEDY_17), 297),
    ], ids=["C9", "SPAN17_GREEDY_16", "SPAN17_GREEDY_MAX", "SPAN18_GREEDY_17"])
    def test_node_count_pinned(self, d, nodes):
        # the root and every fitting child count one node, so a search that
        # visits the same nodes completes at exactly this budget; a greedy
        # decomposition certified at the root takes the root alone, and one
        # below floor(edges / 3) branches with the least tau's backward edges
        assert span(d, node_budget=nodes) == span(d)
        with pytest.raises(BudgetExceeded):
            span(d, node_budget=nodes - 1)

    def test_span_at_most_backward_edges(self):
        # every cycle leaves some vertex for an earlier one, so it uses an
        # edge that runs backward in the order: span <= tau is a theorem
        rng = random.Random(17)
        graphs = [random_eulerian_edgeset(p, rng, rng.randint(2, 8)) for p in (7, 8, 9) for _ in range(12)]
        c11 = circulant(11, range(1, 6))
        graphs += [disjoint_walk(c11, steps, random.Random(seed)) for steps in (2, 3, 4) for seed in (0, 1)]
        # some with more than 11 vertices on edges, where the order is the identity
        graphs += [random_eulerian_edgeset(20, rng, rng.randint(2, 4)) for _ in range(8)]
        for d in graphs:
            if d.edge_count():
                _, tau = _feedback_order(d, span_lower_bound(d).witness)
                assert span(d).span <= tau

    def test_feedback_order_is_a_minimum(self):
        # the order search from either partition against every order of the
        # vertices with edges
        rng = random.Random(19)
        for p in (5, 6, 7):
            for _ in range(4):
                d = random_eulerian_edgeset(p, rng, tries=6)
                edges = d.edges()
                verts = sorted({v for e in edges for v in e})
                tau_min = min(
                    sum(perm.index(u) > perm.index(v) for (u, v) in edges) for perm in permutations(verts)
                )
                for cycles in (span_lower_bound(d).witness, cycle_decomposition(d)):
                    order, tau = _feedback_order(d, cycles)
                    assert sorted(order) == verts
                    assert tau == sum(order.index(u) > order.index(v) for (u, v) in edges)
                    assert tau == tau_min

    def test_feedback_order_is_the_identity_past_the_exact_size(self):
        # past 11 vertices with edges the order is the identity, whose tau
        # on C13 is 1 + 2 + ... + 6
        d = circulant(13, range(1, 7))
        assert _feedback_order(d, span_lower_bound(d).witness) == (list(range(13)), 21)

    @pytest.mark.parametrize("p", [11, 13, 15])
    def test_initial_circulant_balance_is_n_squared(self, p):
        # the greedy finds n(n+1)/2 cycles, as many as the natural order has
        # backward edges: certified at the root, before any cycle is listed
        n = (p - 1) // 2
        d = circulant(p, range(1, n + 1))
        rep = span(d, node_budget=1, cycle_budget=0)
        assert rep.span == n * (n + 1) // 2 and rep.balance == n * n
        check_decomposition(d, rep.witness)

    @pytest.mark.parametrize("seed, p, tries", [(5, 7, 3), (9, 7, 4), (21, 8, 30), (1, 9, 5)])
    def test_same_report_as_plain_search_on_seeded_digraphs(self, seed, p, tries):
        rng = random.Random(seed)
        for _ in range(25):
            d = random_eulerian_edgeset(p, rng, tries)
            assert span(d) == oracle_span_search(d)

    def test_same_report_as_plain_search_on_size11_games(self):
        pinned = [from_rows(11, rows) for rows in (SPAN17_GREEDY_MAX, SPAN17_GREEDY_16, SPAN18_GREEDY_17)]
        # disjoint walks from C11 (span 15): (steps, seed) -> span 17 or 18
        c11 = circulant(11, range(1, 6))
        walks = [disjoint_walk(c11, steps, random.Random(seed))
                 for steps, seed in ((3, 0), (3, 1), (4, 0), (4, 1), (5, 4))]
        for g in pinned + walks:
            d = g
            rep = span(d)
            assert rep.span in (17, 18)
            assert rep == oracle_span_search(d)

    def test_witness_certificate_raises_under_python_O(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run(
            [sys.executable, "-O", "-c", _BROKEN_WITNESS],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["search", "greedy", "order", "tau", "tight_repeated", "tight_reversed"]

    def test_cycle_budget_counts_the_capped_list(self):
        # greedy 16 caps cycle length at 55 - 48 = 7: 5732 cycles are listed,
        # against 37220 without the cap
        d = from_rows(11, SPAN17_GREEDY_16)
        with pytest.raises(BudgetExceeded):
            span(d, cycle_budget=5000)
        assert span(d, cycle_budget=6000).span == 17


def _backward(d, order):
    """The edges of d that run backward in order."""
    pos = {v: i for i, v in enumerate(order)}
    return sum(pos[u] > pos[v] for (u, v) in d.edges())


def _oriented_connection_sets(p):
    """Every connection set S of 1..p-1 with no j and p - j both in S, so
    that circulant(p, S) has no 2-cycle."""
    for s in range(1 << (p - 1)):
        conns = [j for j in range(1, p) if (s >> (j - 1)) & 1]
        if all(p - j not in conns for j in conns):
            yield conns


def _walk_games(p, count, rng):
    """Games up to 3p uniform 3-cycle flips from the cyclic game C_p."""
    games = []
    for _ in range(count):
        g = circulant(p, range(1, (p + 1) // 2))
        for _ in range(rng.randint(1, 3 * p)):
            tris = three_cycles(g)
            g = apply_plan(g, ReversalPlan((tris[rng.randrange(len(tris))],)))
        games.append(g)
    return games


class TestFeedbackOrder:
    """The order search from a partition's own cycles: tau is the least
    over all orders, so it equals the number of cycles iff some order gives
    every cycle of the partition one backward edge."""

    @staticmethod
    def check(d, cycles):
        """The order when it is tight for the cycles, else None."""
        order, tau = _feedback_order(d, cycles)
        assert sorted(order) == [v for v in range(d.p) if d.rows[v]]
        assert _backward(d, order) == tau >= len(cycles)
        if tau > len(cycles):
            return None
        for cyc in cycles:
            pos = [order.index(v) for v in cyc]
            assert sum(a > b for a, b in zip(pos, pos[1:] + pos[:1])) == 1
        return order

    def test_same_order_as_the_subset_dp(self):
        # the subset DP (tests/conftest.py) on both partitions: the same
        # least tau, and the same order, tight or not
        rng = random.Random(29)
        graphs = [random_eulerian_edgeset(p, rng, rng.randint(2, 30)) for p in range(3, 12) for _ in range(12)]
        graphs += [circulant(p, conns) for p in range(3, 11) for conns in _oriented_connection_sets(p)]
        graphs += [g for p in (5, 7, 9, 11) for g in _walk_games(p, 8, rng)]
        c11 = circulant(11, range(1, 6))
        graphs += [disjoint_walk(c11, steps, random.Random(seed)) for steps in (1, 2, 3, 4, 5) for seed in (0, 1, 2)]
        graphs += [from_rows(11, rows) for rows in (SPAN17_GREEDY_MAX, SPAN17_GREEDY_16, SPAN18_GREEDY_17, GAP_CLASS)]
        outcomes = Counter()
        for d in graphs:
            if not d.edge_count():
                continue
            want = oracle_feedback_order(d)
            for cycles in (span_lower_bound(d).witness, cycle_decomposition(d)):
                assert _feedback_order(d, cycles) == want
                outcomes[self.check(d, cycles) is not None] += 1
        assert outcomes[True] >= 100 and outcomes[False] >= 100

    def test_against_every_permutation(self):
        # the greedy's cycles and the plain peel's, against every order
        rng = random.Random(31)
        graphs = [random_eulerian_edgeset(p, rng, rng.randint(2, 12)) for p in (4, 5, 6, 7) for _ in range(6)]
        graphs += _walk_games(5, 4, rng) + _walk_games(7, 8, rng)
        outcomes = Counter()
        for d in graphs:
            if not d.edge_count():
                continue
            orders = [{v: i for i, v in enumerate(perm)} for perm in permutations(v for v in range(d.p) if d.rows[v])]
            for cycles in (span_lower_bound(d).witness, cycle_decomposition(d)):
                exists = any(
                    all(sum(pos[a] > pos[b] for a, b in cycle_edges(c)) == 1 for c in cycles) for pos in orders
                )
                assert (self.check(d, cycles) is not None) == exists
                outcomes[exists] += 1
        assert outcomes[True] >= 20 and outcomes[False] >= 5

    @pytest.mark.parametrize("d, found", [
        (circulant(9, (1, 2, 3, 4)), True),
        (from_rows(11, SPAN17_GREEDY_MAX), True),
        (from_rows(11, SPAN17_GREEDY_16), False),
        (from_rows(11, GAP_CLASS), False),
    ], ids=["C9", "SPAN17_GREEDY_MAX", "SPAN17_GREEDY_16", "GAP_CLASS"])
    def test_pinned_games(self, d, found):
        greedy = span_lower_bound(d)
        assert (self.check(d, greedy.witness) is not None) == found

    def test_gap_class_greedy_and_span(self):
        d = from_rows(11, GAP_CLASS)
        assert span_lower_bound(d).span == 16
        assert _feedback_order(d, span_lower_bound(d).witness)[1] == 18
        assert span(d).span == 17


class TestStrongComponents:
    def test_game_is_one_class(self, g5, g7ii):
        assert len(strong_components(g5)) == 1
        assert len(strong_components(g7ii)) == 1

    def test_order_gives_singletons(self, order4):
        comps = strong_components(order4)
        assert comps == [[0], [1], [2], [3]]

    def test_two_cycles_fixture(self):
        # two 3-cycles, every edge from the first triple to the second
        edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        edges += [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)]
        g = make_digraph(6, edges)
        comps = strong_components(g)
        assert comps == [[0, 1, 2], [3, 4, 5]]


class TestCycleThrough:
    def test_hamiltonian_in_g5(self, g5):
        for v in range(5):
            cyc = cycle_through(g5, v, 5)
            assert len(cyc) == 5 and v in cyc
            check_decomposition(EdgeSet(5, cycle_edges(cyc)), [cyc])

    def test_c3(self, c3):
        assert cycle_through(c3, 1, 3) == (0, 1, 2)

    def test_not_strong(self, order4):
        with pytest.raises(NotStrong):
            cycle_through(order4, 0, 3)

    def test_all_lengths_all_vertices(self, g7i, g7ii, g7iii):
        for g in (g7i, g7ii, g7iii):
            for v in range(7):
                for length in range(3, 8):
                    cyc = cycle_through(g, v, length)
                    assert len(cyc) == length and v in cyc
                    for e in cycle_edges(cyc):
                        assert g.has_edge(*e)

    @pytest.mark.parametrize(
        "rows, v, length, want",
        [
            ((62, 120, 98, 84, 68, 88, 1), 5, 6, (0, 4, 2, 1, 5, 6)),
            ((22, 44, 56, 33, 42, 1), 1, 4, (0, 4, 1, 3)),
            ((248, 121, 123, 224, 200, 208, 128, 6), 3, 4, (1, 4, 3, 7)),
        ],
        ids=["v-second", "least-u", "least-w"],
    )
    def test_pair_step(self, rows, v, length, want):
        # no outside vertex has edges both ways to the cycle, so a pair
        # u -> w (u beaten by the whole cycle, w beating all of it) goes in:
        # here v stands second and must stay on the cycle, or several u,
        # or several w, fit and the least is taken
        g = from_rows(len(rows), rows)
        assert cycle_through(g, v, length) == oracle_cycle_through(g, v, length) == want

    def test_bad_length(self, g5):
        with pytest.raises(BadLength):
            cycle_through(g5, 0, 2)
        with pytest.raises(BadLength):
            cycle_through(g5, 0, 6)

    def test_refuses_a_digraph_that_is_no_tournament(self):
        # strong, but the insertion step would put 5 after 4 with no edge
        # 4 -> 5 and return (3, 4, 5, 8, 6), which is no cycle of g
        g = from_rows(9, (134, 128, 16, 305, 258, 327, 24, 68, 66))
        with pytest.raises(InvariantViolation):
            cycle_through(g, 3, 5)

    def test_reads_a_tournament_from_its_rows(self, g5):
        # a tournament built as a plain Digraph is still a tournament
        plain = Digraph(5, g5.rows)
        assert [cycle_through(plain, v, 5) for v in range(5)] == [cycle_through(g5, v, 5) for v in range(5)]


class TestIsOrder:
    def test_standard_order(self):
        assert is_order(standard_order(4)) == [0, 1, 2, 3]

    def test_c3(self, c3):
        assert is_order(c3) is None

    def test_restriction_of_circulant(self):
        from gamegraphs.core import restrict

        sub, _ = restrict(circulant(7, (1, 2, 3)), [1, 2, 3])
        assert is_order(sub) == [0, 1, 2]

    def test_agreement_with_no_three_cycles(self):
        rng = random.Random(23)
        for _ in range(40):
            g = random_tournament(5, rng)
            assert (is_order(g) is not None) == (three_cycle_stats(g).total == 0)



def _outcome(f, *args):
    try:
        return f(*args)
    except DomainError as exc:
        return type(exc), str(exc)


def _structure_graphs(p: int, rng: random.Random) -> list:
    """Seeded tournaments and digraphs on p vertices: random ones, relabelled
    orders with and without one reversed pair, and sparse digraphs."""
    graphs = [random_tournament(p, rng) for _ in range(12)]
    graphs += [random_digraph(p, rng) for _ in range(8)]
    for _ in range(4):
        rows = list(relabel(standard_order(p), Permutation(rng.sample(range(p), p))).rows)
        graphs.append(from_rows(p, rows))
        if p >= 2:
            a, b = rng.sample(range(p), 2)
            if not rows[a] >> b & 1:
                a, b = b, a
            rows[a] ^= 1 << b
            rows[b] ^= 1 << a
            graphs.append(from_rows(p, rows))
    for _ in range(4):
        pairs = [(i, j) if rng.random() < 0.5 else (j, i) for i in range(p) for j in range(i + 1, p) if rng.random() < 0.2]
        graphs.append(make_digraph(p, pairs))
    return graphs


class TestStructureAgainstOracles:
    """strong_components, cycle_through and is_order against their
    pair-by-pair forms, refusals included: every vertex (and one on each
    side of the range) and every length from 2 to p + 2.  cycle_through
    refuses a digraph that is no tournament once vertex and length pass."""

    @pytest.mark.parametrize("p", range(13))
    def test_seeded_graphs(self, p):
        rng = random.Random(900 + p)
        kinds = set()
        for g in _structure_graphs(p, rng):
            assert strong_components(g) == oracle_strong_components(g)
            assert is_order(g) == oracle_is_order(g)
            for v in range(-1, p + 1):
                for length in range(2, p + 3):
                    got = _outcome(cycle_through, g, v, length)
                    want = _outcome(oracle_cycle_through, g, v, length)
                    if not isinstance(g, Tournament) and want[0] is not BadLength:
                        want = (InvariantViolation, "cycle_through needs a tournament")
                    assert got == want
                    kinds.add(got[0] if isinstance(got[0], type) else "cycle")
        assert kinds == ({BadLength, InvariantViolation, NotStrong, "cycle"} if p >= 3 else {BadLength})

    def test_strong_tournaments_every_vertex_and_length(self):
        # random tournaments, and ones whose vertices fall in three blocks
        # with most pairs between blocks pointing to the later block: there
        # the cycle often has no vertex to insert and takes a pair instead
        rng = random.Random(911)
        for p in range(3, 13):
            graphs = [random_tournament(p, rng) for _ in range(10)]
            for _ in range(20):
                block = sorted(rng.choices(range(3), k=p))
                rows = list(random_tournament(p, rng).rows)
                for i in range(p):
                    for j in range(i + 1, p):
                        if block[i] < block[j] and rng.random() < 0.9:
                            rows[i] |= 1 << j
                            rows[j] &= ~(1 << i)
                graphs.append(from_rows(p, rows))
            for g in graphs:
                if len(oracle_strong_components(g)) != 1:
                    continue
                for v in range(p):
                    for length in range(3, p + 1):
                        assert cycle_through(g, v, length) == oracle_cycle_through(g, v, length)

class TestThreeCycleStats:
    def test_size7_games(self, g7i, g7ii, g7iii):
        for g in (g7i, g7ii, g7iii):
            st = three_cycle_stats(g)
            assert st.per_vertex == (6,) * 7
            assert st.total == st.formula_total == 14

    def test_order_has_none(self, order4):
        assert three_cycle_stats(order4).total == 0

    def test_g5(self, g5):
        assert three_cycle_stats(g5).total == 5

    def test_formula_on_random_tournaments(self):
        rng = random.Random(29)
        for p in (4, 5, 6, 7, 8):
            for _ in range(10):
                g = random_tournament(p, rng)
                st = three_cycle_stats(g)
                assert st.total == st.formula_total
                assert st.total == len(three_cycles(g))

    def test_per_vertex_counts_against_the_plain_listing(self):
        # non-regular tournaments (scores checked) and games from walks
        rng = random.Random(37)
        graphs = [random_tournament(p, rng) for p in (4, 5, 7, 9, 12) for _ in range(4)]
        assert sum(len(set(scores(g))) > 1 for g in graphs) == len(graphs)
        graphs += [disjoint_walk(circulant(p, range(1, (p + 1) // 2)), 3, rng)
                   for p in (7, 11, 15, 31)]
        for g in graphs:
            per = Counter(v for tri in _oracle_tris(g.rows, g.p) for v in tri)
            assert three_cycle_stats(g).per_vertex == tuple(per[v] for v in range(g.p))

    def test_three_cycles_sorted_and_complete(self):
        rng = random.Random(31)
        # choices 2: tournaments; 3: a third of the pairs left unjoined
        for p, choices in [(p, c) for p in (3, 5, 7, 9) for c in (2, 3)]:
            for _ in range(5):
                rows = [0] * p
                for i in range(p):
                    for j in range(i + 1, p):
                        side = rng.randrange(choices)
                        if side == 0:
                            rows[i] |= 1 << j
                        elif side == 1:
                            rows[j] |= 1 << i
                g = from_rows(p, rows)
                want = [
                    (a, b, c)
                    for a in range(p) for b in range(a + 1, p) for c in range(a + 1, p)
                    if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, a)
                ]
                assert three_cycles(g) == want


class TestSteiner:
    def test_g7ii_decomposes(self, g7ii):
        triples = steiner_decomposition(g7ii)
        assert triples is not None and len(triples) == 7
        check_decomposition(
            g7ii, [tuple(t) for t in triples]
        )

    def test_known_triple_list_is_valid(self, g7ii):
        # a decomposition checked by hand: the top 3-cycle plus six more
        listed = [(3, 5, 6), (1, 2, 6), (2, 4, 5), (4, 1, 3), (2, 3, 0), (4, 6, 0), (1, 5, 0)]
        check_decomposition(g7ii, listed)

    def test_g7i_is_not_steiner(self, g7i):
        assert steiner_decomposition(g7i) is None

    def test_c3(self, c3):
        assert steiner_decomposition(c3) == [(0, 1, 2)]

    def test_steiner_forces_span(self, g7ii):
        rep = span(g7ii)
        assert rep.span == 7 and rep.balance == 7  # n(2n+1)/3 with n = 3

    @pytest.mark.parametrize("p", range(3, 23, 2))
    def test_walk_games_against_the_edge_list_search(self, p, monkeypatch):
        # eight games along one walk of 3-cycle flips from the cyclic game;
        # under a smaller scan budget both searches must also give up on
        # the same games
        budget = 100_000
        monkeypatch.setattr(eulerian, "_STEINER_WORK", budget)
        rng = random.Random(700 + p)
        g = circulant(p, range(1, (p + 1) // 2))
        for _ in range(8):
            for _ in range(rng.randrange(1, 2 * p)):
                tris = three_cycles(g)
                g = apply_plan(g, ReversalPlan((tris[rng.randrange(len(tris))],)))
            want = _outcome(oracle_steiner_decomposition, g, budget)
            assert _outcome(steiner_decomposition, g) == want


class TestBalanceConjecture:
    """beta <= n^2 is checked, never assumed: exhaustive for p <= 7 via class
    representatives (beta is relabeling-invariant), sampled at p = 9."""

    def test_small_sizes_exhaustive(self, census7):
        from gamegraphs.atlas import census

        for p in (3, 5, 7):
            n = (p - 1) // 2
            for cls in (census7 if p == 7 else census(p)).classes:
                assert span(cls.representative).balance <= n * n

    def test_size9_samples(self):
        from gamegraphs.reversal import apply_plan, ReversalPlan

        rng = random.Random(37)
        g = circulant(9, (1, 2, 3, 4))
        for _ in range(4):
            for _ in range(25):
                tris = three_cycles(g)
                g = apply_plan(g, ReversalPlan((tris[rng.randrange(len(tris))],)))
            assert span(g).balance <= 16


class TestQuotientOrder:
    def test_components_listed_in_beating_order(self):
        rng = random.Random(39)
        for _ in range(20):
            g = random_tournament(6, rng)
            comps = strong_components(g)
            for a in range(len(comps)):
                for b in range(a + 1, len(comps)):
                    for u in comps[a]:
                        for v in comps[b]:
                            assert g.has_edge(u, v)

    def test_singletons_iff_order(self):
        rng = random.Random(40)
        for _ in range(20):
            g = random_tournament(5, rng)
            singles = all(len(c) == 1 for c in strong_components(g))
            assert singles == (is_order(g) is not None)


class TestEulerianCount:
    def test_c3(self, c3):
        assert count_eulerian_subgraphs(c3) == 2 == oracle_eulerian_count(c3)

    def test_g5(self, g5):
        assert count_eulerian_subgraphs(g5) == 24 == oracle_eulerian_count(g5)

    def test_depends_only_on_scores(self):
        rng = random.Random(31)
        seen = {}
        for _ in range(20):
            g = random_tournament(5, rng)
            key = scores(g)
            val = count_eulerian_subgraphs(g)
            assert seen.setdefault(key, val) == val

    def test_tally_of_all_size6_tournaments(self):
        # every labeled tournament on 6 vertices, tallied by its score vector
        tally = Counter()
        first = {}
        for g in all_labeled_tournaments(6):
            key = tuple(g.out_degree(v) for v in range(6))
            tally[key] += 1
            first.setdefault(key, g)
        assert sum(tally.values()) == 2 ** 15
        for key, g in first.items():
            assert count_eulerian_subgraphs(g) == tally[key]

    def test_meet_in_the_middle_oracle(self):
        rng = random.Random(41)
        for p in (3, 4, 5, 6, 7, 8, 8, 9, 9):
            g = random_tournament(p, rng)
            assert count_eulerian_subgraphs(g) == oracle_count_mitm(g)
        for p in (7, 9):
            g = circulant(p, range(1, (p - 1) // 2 + 1))
            assert count_eulerian_subgraphs(g) == oracle_count_mitm(g)

    def test_labeled_games_pinned(self):
        # OEIS A007079, labeled regular tournaments
        assert count_eulerian_subgraphs(circulant(11, range(1, 6))) == 48_251_508_480
        assert count_eulerian_subgraphs(circulant(13, range(1, 7))) == 9_307_700_611_292_160

    def test_work_cap_on_64_vertices(self):
        g = random_tournament(64, random.Random(64))
        t0 = time.time()
        with pytest.raises(TooLarge):
            count_eulerian_subgraphs(g)
        assert time.time() - t0 < 5.0

    def test_needs_a_tournament(self):
        with pytest.raises(InvariantViolation):
            count_eulerian_subgraphs(make_digraph(4, [(0, 1), (1, 2), (2, 0)]))
