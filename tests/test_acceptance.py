"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import random
import time
from math import factorial

from gamegraphs.atlas import (
    FullInterchange,
    census,
    convexity_check,
    count_report,
    diameter,
    enumerate_games,
    geodesic_count,
    interchange_distance,
)
from gamegraphs.construct import (
    double,
    eulerian_to_game,
    extend_embedding,
    has_sep,
    lex_product,
    realize_pointed,
    reduce_via,
    saturate,
)
from gamegraphs.core import (
    EdgeSet,
    Game,
    Tournament,
    circulant,
    from_rows,
    restrict,
    reverse,
)
from gamegraphs.eulerian import (
    count_eulerian_subgraphs,
    span,
    steiner_decomposition,
    three_cycle_stats,
    three_cycles,
)
from gamegraphs.groups import (
    GameSubset,
    cyclic_group,
    direct_product,
    enumerate_game_subsets,
    group_game,
    is_fermat_square_free,
    lex_factorization_check,
    multiplication_map,
    quadratic_residue_subset,
    translation_perms,
    units,
)
from gamegraphs.morph import are_isomorphic, automorphisms, classify9_group
from gamegraphs.reversal import (
    ReversalPlan,
    apply_plan,
    delta_id,
    plan_optimal,
    reverse_subgraph,
)

from conftest import all_labeled_tournaments, random_eulerian_edgeset, random_tournament


def report(num: int, text: str, t0: float) -> None:
    print(f"ACCEPTANCE {num:2d}: PASS  ({time.time() - t0:6.2f}s)  {text}")


def oracle_count_brute(g) -> int:
    edges = sorted(g.edges())
    n = 0
    for mask in range(1 << len(edges)):
        bal = [0] * g.p
        for k, (i, j) in enumerate(edges):
            if (mask >> k) & 1:
                bal[i] += 1
                bal[j] -= 1
        if all(b == 0 for b in bal):
            n += 1
    return n


def test_criterion_01_small_size_uniqueness():
    t0 = time.time()
    a3 = census(3)
    a5 = census(5)
    assert len(a3.classes) == 1 and len(a5.classes) == 1
    assert a3.labeled_total == 2 == oracle_count_brute(circulant(3, (1,)))
    assert a5.labeled_total == 24 == oracle_count_brute(circulant(5, (1, 2)))
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, f"census 3 -> 1 class (2 labeled), census 5 -> 1 class (24 labeled)", t0)


def test_criterion_02_size7_classification(census7):
    t0 = time.time()
    atl = census7
    assert len(atl.classes) == 3
    orders = sorted(c.aut_order for c in atl.classes)
    assert 7 in orders and 3 in orders  # stated in the source text
    third = [o for o in orders if o not in (3, 7)]
    assert third == [automorphisms(circulant(7, (1, 2, 4))).order] == [21]
    for c in atl.classes:
        assert c.labeled_count == factorial(7) // c.aut_order
    oracle = count_eulerian_subgraphs(circulant(7, (1, 2, 3)))
    assert atl.labeled_total == oracle == 2640
    rep = count_report(3)
    assert rep.literature_agrees is False  # 1680 vs the oracle-backed 2640
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(2, f"3 classes, aut {orders}, total {atl.labeled_total} (literature 1680 flagged)", t0)


def fixture_games():
    z9 = cyclic_group(9)
    g33 = direct_product(cyclic_group(3), cyclic_group(3))
    out = [
        circulant(3, (1,)),
        circulant(5, (1, 2)),
        circulant(7, (1, 2, 3)),
        circulant(7, (1, 2, 4)),
        reverse_subgraph(circulant(7, (1, 2, 4)), EdgeSet(7, [(3, 5), (5, 6), (6, 3)])),
        circulant(9, (1, 2, 3, 4)),
        circulant(9, (1, 5, 6, 7)),
        group_game(z9, GameSubset(z9, [1, 3, 4, 7])),
        group_game(g33, enumerate_game_subsets(g33)[0]),
        double(circulant(3, (1,)))[0],
    ]
    return out


def test_criterion_03_three_cycle_formulas():
    t0 = time.time()
    for g in fixture_games():
        n = (g.p - 1) // 2
        st = three_cycle_stats(g)
        assert st.per_vertex == (n * (n + 1) // 2,) * g.p
        assert st.total == (2 * n + 1) * n * (n + 1) // 6
        assert st.total == st.formula_total
    rng = random.Random(101)
    checked = 0
    while checked < 50:
        p = rng.choice((4, 5, 6, 7, 8))
        t = random_tournament(p, rng)
        st = three_cycle_stats(t)
        assert st.total == len(three_cycles(t)) == st.formula_total
        checked += 1
    report(3, "per-vertex and total formulas exact on fixtures + 50 random tournaments", t0)


def test_criterion_04_balance_landmarks(chorded_nine_ring, census7):
    t0 = time.time()
    for n in (1, 2, 3, 4):
        g = circulant(2 * n + 1, range(1, n + 1))
        assert span(g).balance == n * n
    for cls in census7.classes:
        g = cls.representative
        if steiner_decomposition(g) is not None:
            assert span(g).balance == 7
    rep = span(chorded_nine_ring)
    assert rep.span == 3 and rep.balance == 6
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(4, "beta(circulant[1..n]) = n^2 for n <= 4; Steiner size-7 beta = 7; fixture 3/6", t0)


def test_criterion_05_planner_optimality():
    t0 = time.time()
    games5 = list(enumerate_games(5))
    graph5 = FullInterchange(5)
    dists5 = {k: graph5.bfs(k) for k in range(len(games5))}
    pairs_checked = 0
    for a in games5:
        ia = graph5.index[a.rows]
        for b in games5:
            if a == b:
                continue
            plan = plan_optimal(a, b)
            beta = span(delta_id(a, b)).balance
            bfs_d = dists5[ia][graph5.index[b.rows]]
            assert len(plan) == beta == bfs_d
            assert apply_plan(a, plan) == b
            assert len(plan) % 2 == delta_id(a, b).edge_count() % 2
            pairs_checked += 1
    assert pairs_checked == 552
    rng = random.Random(103)
    games7 = list(enumerate_games(7))
    for _ in range(100):
        a, b = rng.choice(games7), rng.choice(games7)
        plan = plan_optimal(a, b)
        beta = span(delta_id(a, b)).balance
        assert len(plan) == beta == interchange_distance(a, b)
        assert apply_plan(a, plan) == b
        assert len(plan) % 2 == delta_id(a, b).edge_count() % 2
    report(5, "552 size-5 pairs exhaustive + 100 random size-7 pairs: plan = beta = BFS", t0)


def test_criterion_06_descent_law():
    t0 = time.time()
    games5 = list(enumerate_games(5))
    for gamma in games5:
        for pi in games5:
            beta = span(delta_id(gamma, pi)).balance
            deltas = []
            for tri in three_cycles(gamma):
                gamma2 = apply_plan(gamma, ReversalPlan((tri,)))
                beta2 = span(delta_id(gamma2, pi)).balance
                deltas.append(beta2 - beta)
            assert all(abs(d) == 1 for d in deltas)
            if beta > 0:
                assert any(d == -1 for d in deltas)
    report(6, "size 5 exhaustive: every 3-cycle reversal moves beta by exactly +-1", t0)


def test_criterion_07_group_game_laws():
    t0 = time.time()
    # translations are the whole automorphism group of the initial circulants, n <= 4
    for n in (1, 2, 3, 4):
        m = 2 * n + 1
        g = circulant(m, range(1, n + 1))
        auts = automorphisms(g)
        assert set(auts.perms) == set(translation_perms(cyclic_group(m)))
    # reducible group games are exactly the unit images of the odd-difference subset
    from gamegraphs.construct import reducibility_graph

    for m in (5, 7, 9):
        n = (m - 1) // 2
        zm = cyclic_group(m)
        odd = frozenset((2 * k - 1) % m for k in range(1, n + 1))
        expected = {frozenset((a * x) % m for x in odd) for a in units(m)}
        for A in enumerate_game_subsets(zm):
            reducible = reducibility_graph(group_game(zm, A)).kind != "empty"
            assert reducible == (frozenset(A.elements()) in expected)
    g33 = direct_product(cyclic_group(3), cyclic_group(3))
    for A in enumerate_game_subsets(g33):
        assert reducibility_graph(group_game(g33, A)).kind == "empty"
    # free unit action on game subsets iff square-free Fermat product
    for m in (9, 15, 21, 25, 27):
        zm = cyclic_group(m)
        free = True
        for a in units(m):
            if a == 1:
                continue
            ma = multiplication_map(m, a)
            if any(A.apply(ma) == A for A in enumerate_game_subsets(zm)):
                free = False
                break
        assert free == is_fermat_square_free(m)
    # quadratic-residue games have pairwise-isomorphic group-game neighborhoods
    for p in (7, 11, 19):
        A = quadratic_residue_subset(p)
        g = group_game(A.group, A)
        m = (p - 1) // 2
        ref = None
        for v in range(p):
            for side in (g.out_set(v), g.in_set(v)):
                sub, _ = restrict(g, side)
                assert isinstance(sub, Game)
                if ref is None:
                    ref = sub
                else:
                    assert are_isomorphic(sub, ref) is not None
        zm = cyclic_group(m)
        assert any(
            are_isomorphic(ref, group_game(zm, B)) is not None
            for B in enumerate_game_subsets(zm)
        )
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(7, "translation groups, reducibility law, Fermat criterion, quadratic residues", t0)


def test_criterion_08_size9_algebra():
    t0 = time.time()
    z9 = cyclic_group(9)
    kinds = [classify9_group(A) for A in enumerate_game_subsets(z9)]
    assert kinds.count("I") == 6 and kinds.count("II") == 6 and kinds.count("III") == 4
    g33 = direct_product(cyclic_group(3), cyclic_group(3))
    for A in enumerate_game_subsets(g33):
        witnessed = False
        for x in range(1, 9):
            H = sorted({0, x, g33.mult(x, x)})
            try:
                lex_factorization_check(g33, H, A)
                witnessed = True
                break
            except Exception:
                continue
        assert witnessed
    c3 = circulant(3, (1,))
    assert automorphisms(lex_product(c3, c3)).order == 81
    report(8, "Z9 subsets split 6/6/4; all 16 Z3xZ3 subsets factor as C3 lex C3; |Aut| = 81", t0)


def test_criterion_09_pointed_realization():
    t0 = time.time()
    count = 0
    for gp in all_labeled_tournaments(3):
        for gm in all_labeled_tournaments(3):
            g, lay = realize_pointed(gp, gm)
            got_p, _ = restrict(g, [lay.plus(j) for j in range(3)])
            got_m, _ = restrict(g, [lay.minus(j) for j in range(3)])
            assert got_p == gp and got_m == gm
            count += 1
    assert count == 64
    rng = random.Random(107)
    for _ in range(50):
        gp = random_tournament(4, rng)
        gm = random_tournament(4, rng)
        g, lay = realize_pointed(gp, gm)
        got_p, _ = restrict(g, [lay.plus(j) for j in range(4)])
        got_m, _ = restrict(g, [lay.minus(j) for j in range(4)])
        assert got_p == gp and got_m == gm
    report(9, "all 64 pairs on 3+3 and 50 random pairs on 4+4 realized exactly", t0)


def test_criterion_10_eulerian_completion():
    t0 = time.time()
    rng = random.Random(109)
    done = 0
    while done < 100:
        p = 7 if done % 2 == 0 else 9
        d = random_eulerian_edgeset(p, rng, tries=rng.randint(1, 6))
        trace: list = []
        g = eulerian_to_game(d, record=trace)
        assert d.is_subgraph_of(g)
        assert isinstance(g, Game)
        assert all(a - 1 == b for a, b in zip(trace, trace[1:]))
        done += 1
    report(10, "100 random Eulerian digraphs on 7/9 vertices completed, deviation strictly falls", t0)


def test_criterion_11_interchange_analytics(census7):
    t0 = time.time()
    summaries = []
    for p in (5, 7):
        n = (p - 1) // 2
        deg = (2 * n + 1) * n * (n + 1) // 6
        graph = FullInterchange(p)
        assert all(len(a) == deg for a in graph.adj)
        # parity bipartition: BFS layers from node 0 2-color the graph
        dist0 = graph.bfs(0)
        for v, nbrs in enumerate(graph.adj):
            for w in nbrs:
                assert (dist0[v] + dist0[w]) % 2 == 1
        # d(gamma, reverse gamma) = beta(gamma): exact on class reps, then
        # by class membership for every node, plus direct spot checks
        atl = census7 if p == 7 else census(p)
        class_beta = {}
        for cls in atl.classes:
            g = cls.representative
            beta = span(g).balance
            d = graph.bfs(graph.index[g.rows])[graph.index[reverse(g).rows]]
            assert d == beta
            class_beta[cls.canon_hex] = beta
        rng = random.Random(113)
        nodes = [Game(p, rows) for rows in graph.nodes]
        sample = nodes if p == 5 else rng.sample(nodes, 50)
        for g in sample:
            d = graph.bfs(graph.index[g.rows])[graph.index[reverse(g).rows]]
            assert d == span(g).balance
        # geodesic counts on 25 sampled pairs
        for _ in range(25):
            a, b = rng.choice(nodes), rng.choice(nodes)
            dd, cnt = geodesic_count(a, b)
            assert cnt >= factorial(dd)
        # the fiber over the base vertex is convex
        assert convexity_check(nodes[0], [0])
        rep = diameter(p)
        summaries.append(f"diameter({p}) = {rep.value} vs n^2 = {rep.conjectured}")
    report(11, "; ".join(summaries), t0)


def test_criterion_12_universal_stages():
    t0 = time.time()
    t1 = Tournament(1, (0,))
    s1, _ = saturate(t1)
    s2, _ = saturate(s1)
    assert s1.p == 3 and s2.p == 11
    for mask in range(8):
        sub = [v for v in range(3) if (mask >> v) & 1]
        assert has_sep(s2, sub).ok
    for t in all_labeled_tournaments(3):
        for anchor in range(s2.p):
            emb = extend_embedding(t, [0], {0: anchor}, s2)
            for a in range(3):
                for b in range(3):
                    if a != b:
                        assert t.has_edge(a, b) == s2.has_edge(emb[a], emb[b])
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(12, "saturation sizes 3 then 11; SEP for all stage-1 subsets; all 3-tournaments embed", t0)


def test_criterion_13_isomorphism_pathologies():
    t0 = time.time()
    from gamegraphs.core import make_digraph

    # (a) non-isomorphic tournaments with isomorphic doubles
    pi = make_digraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 1)])
    gamma = make_digraph(4, [(1, 0), (2, 0), (3, 0), (1, 2), (2, 3), (3, 1)])
    assert are_isomorphic(pi, gamma) is None
    assert are_isomorphic(double(pi)[0], double(gamma)[0]) is not None
    # (b) rigid size-9 double and reverse-asymmetric rigid size-13 double
    t4 = make_digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 0), (3, 1)])
    g9, _ = double(t4)
    assert automorphisms(g9).order == 1
    g5 = circulant(5, (1, 2))
    rows = list(g5.rows) + [0b001111]
    rows[4] |= 1 << 5
    g13, _ = double(from_rows(6, rows))
    assert automorphisms(g13).order == 1
    assert are_isomorphic(g13, reverse(g13)) is None
    # (c) the non-isomorphic pair with automorphism groups of order 3
    theta = make_digraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 1)])
    gam, lay = double(theta)
    gbar = reverse_subgraph(
        gam,
        EdgeSet(9, [(lay.plus(1), lay.plus(2)), (lay.plus(2), lay.plus(3)), (lay.plus(3), lay.plus(1))]),
    )
    assert are_isomorphic(gam, gbar) is None
    assert automorphisms(gam).order == automorphisms(gbar).order == 3
    # (d) two inequivalent reductions of one game
    c3 = circulant(3, (1,))
    pi7, _ = double(c3)
    g15, _ = double(pi7)
    a, _ = reduce_via(g15, 1 + 0, 1 + 7 + 0)
    b, _ = reduce_via(g15, 1 + 4, 1 + 7 + 4)
    assert are_isomorphic(a, b) is None
    report(13, "all four isomorphism pathology fixtures reproduced", t0)
