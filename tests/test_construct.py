import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from gamegraphs.core import (
    EdgeSet,
    Game,
    Permutation,
    Tournament,
    circulant,
    classify_digraph,
    make_digraph,
    relabel,
    restrict,
    reverse,
    scores,
)
from gamegraphs.construct import (
    double,
    double_cross_edges,
    double_layer_edges,
    embed_in_game,
    eulerian_to_game,
    extend,
    extend_embedding,
    generalized_lex,
    has_sep,
    is_double,
    is_reducible_via,
    lex_product,
    nonreducible_from,
    pointed_view,
    realize_pointed,
    reduce_via,
    reducibility_graph,
    saturate,
    steiner_variants,
    uniquely_reducible_extension,
)
from gamegraphs.errors import (
    BadK,
    EvenSize,
    FiberCountMismatch,
    NotApplicable,
    NotEulerian,
    NotReducible,
    NotSteiner,
    SepExhausted,
    TooLarge,
    TooSmall,
    VertexOutOfRange,
)
from gamegraphs.eulerian import span, steiner_decomposition
from gamegraphs.morph import are_isomorphic, automorphisms, classify7
from gamegraphs.reversal import reverse_subgraph

from conftest import (
    all_labeled_tournaments,
    disjoint_walk,
    oracle_double,
    oracle_double_part,
    oracle_eulerian_to_game,
    oracle_extend_embedding,
    oracle_has_sep,
    oracle_is_double,
    oracle_lex_product,
    oracle_realize_pointed,
    oracle_reducibility_graph,
    oracle_reverse_subgraph,
    oracle_saturate,
    oracle_uniquely_reducible_extension,
    random_digraph,
    random_eulerian_edgeset,
    random_tournament,
    standard_order,
)

SRC = Path(__file__).resolve().parent.parent / "src"

# Each construction certificate must raise even when asserts are stripped.
# The cover certificate of the Steiner witnesses is fed broken covers
# directly (a missing edge, a reused edge, an uncovered game), and a double of a non-tournament fails its own Game
# check; the other checks get a patched helper: reversing a cross cycle
# changes nothing (so the restrictions stay those of the double), the path
# search finds no path, reversing a free path changes nothing, the game
# built at the end lacks the digraph, and a restriction or a reversal hands
# back a graph that is no game.  A case naming a message counts only when
# the certificate raising is the one with that message, not a later check.
_BROKEN_CERTIFICATES = """
from contextlib import nullcontext
from unittest import mock

from gamegraphs import construct, eulerian
from gamegraphs.core import EdgeSet, circulant, make_digraph, reverse
from gamegraphs.errors import InvariantViolation

if __debug__:
    raise SystemExit("asserts are live")
c3 = circulant(3, (1,))
straddle = make_digraph(3, [(0, 1), (0, 2), (1, 2)])
_double = construct.double
cases = [
    ("steiner_missing", nullcontext(),
     lambda: eulerian._check_cover(c3.rows, [(0, 2, 1)]), "missing"),
    ("steiner_reused", nullcontext(),
     lambda: eulerian._check_cover(c3.rows, [(0, 1, 2), (1, 2, 0)]), "used twice"),
    ("steiner_cover", nullcontext(),
     lambda: eulerian._check_cover(c3.rows, []), "uncovered"),
    ("restriction", mock.patch.object(construct, "_reverse_cycle", lambda rows, cycle: None),
     lambda: construct.realize_pointed(reverse(c3), c3), "does not restrict"),
    ("path", mock.patch.object(construct, "_bfs_path", lambda *args: None),
     lambda: construct.eulerian_to_game(EdgeSet(5, [])), "no free over-to-under path"),
    ("deviation", mock.patch.object(construct, "_reverse_path", lambda rows, path: None),
     lambda: construct.eulerian_to_game(EdgeSet(5, []), record=[]), "deviation did not drop by one"),
    ("deviation_unrecorded", mock.patch.object(construct, "_reverse_path", lambda rows, path: None),
     lambda: construct.eulerian_to_game(EdgeSet(5, [])), "deviation did not drop by one"),
    ("result", mock.patch.object(construct, "Game", lambda p, rows: reverse(circulant(5, (1, 2)))),
     lambda: construct.eulerian_to_game(circulant(5, (1, 2))), "not a game containing the digraph"),
    ("cross_path", mock.patch.object(construct, "_bfs_path", lambda *args: None),
     lambda: construct.realize_pointed(c3, reverse(c3)), "no cross path"),
    ("double_class", nullcontext(),
     lambda: construct.double(EdgeSet(2, [])), "not a tournament"),
    ("reduce_class", mock.patch.object(construct, "restrict", lambda g, J: (straddle, {})),
     lambda: construct.reduce_via(circulant(5, (1, 2)), 0, 2), "leaves no game"),
    ("nonreducible_class", mock.patch.object(construct, "reverse_subgraph", lambda g, d: d),
     lambda: construct.nonreducible_from(c3), "left no game"),
    ("variant_class", mock.patch.object(construct, "reverse_subgraph", lambda g, d: d),
     lambda: construct.steiner_variants(c3), "variant is not a game"),
    ("reducibility_fork", mock.patch.object(construct, "is_reducible_via", lambda g, i, j: True),
     lambda: construct.reducibility_graph(circulant(5, (1, 2))), "two reducible"),
    ("reducibility_cover",
     mock.patch.object(construct, "is_reducible_via", lambda g, i, j: (i, j) in {(0, 1), (1, 3), (3, 0)}),
     lambda: construct.reducibility_graph(circulant(5, (1, 2)))),
    ("realize_edge", mock.patch.object(construct, "double", lambda t: (reverse(_double(t)[0]), _double(t)[1])),
     lambda: construct.realize_pointed(c3, reverse(c3))),
    ("embed_reducible", mock.patch.object(construct, "is_reducible_via", lambda g, u, v: False),
     lambda: construct.embed_in_game(make_digraph(2, [(0, 1)]))),
    ("unique_extension", mock.patch.object(construct, "extend", lambda pi, K: (pi, 0, 1)),
     lambda: construct.uniquely_reducible_extension(circulant(7, (1, 2, 4)))),
]
for name, patch, run, *message in cases:
    with patch:
        try:
            run()
        except InvariantViolation as exc:
            if not message or message[0] in str(exc):
                print(name)
"""


class TestDouble:
    def test_single_vertex_gives_c3(self, c3):
        g, _ = double(Game(1, (0,)))
        assert g == c3

    def test_double_of_order_equals_circulant(self):
        for n in (1, 2, 3, 4):
            g, _ = double(standard_order(n))
            assert g == circulant(2 * n + 1, range(1, n + 1))

    def test_double_of_c3_is_type_iii(self, c3, g7iii):
        g, _ = double(c3)
        assert are_isomorphic(g, g7iii) is not None
        assert classify7(g) == "III"

    def test_reducible_via_every_pair(self, c3):
        g, lay = double(c3)
        for j in range(3):
            assert is_reducible_via(g, lay.minus(j), lay.plus(j))

    def test_reduction_recovers_double_of_restriction(self):
        t = standard_order(3)
        g, lay = double(t)
        sub, _ = reduce_via(g, lay.minus(1), lay.plus(1))
        expect, _ = double(restrict(t, [0, 2])[0])
        assert are_isomorphic(sub, expect) is not None

    def test_cross_part_eulerian_when_source_is_game(self, c3):
        _, lay = double(c3)
        assert double_cross_edges(lay).is_eulerian()

    def test_aut_of_double_without_extreme_scores(self):
        # source without score 0 or n-1: |Aut(2t)| = |Aut(t)| and 0 stays fixed
        t = make_digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 0), (3, 1)])
        g, _ = double(t)
        ag = automorphisms(g)
        assert ag.order == automorphisms(t).order == 1

    def test_aut_of_double_for_non_orders(self, c3, g5):
        for t in (c3, g5):
            g, _ = double(t)
            ag = automorphisms(g)
            assert ag.order == automorphisms(t).order
            assert all(rho(0) == 0 for rho in ag)


class TestLexProduct:
    def test_c3_lex_trivial_is_c3(self, c3):
        assert lex_product(c3, Game(1, (0,))) == c3

    def test_game_times_game_is_game(self, c3, g5):
        assert isinstance(lex_product(g5, c3), Game)

    def test_projection_morphism(self, c3, g5):
        prod, proj = generalized_lex(g5, [c3] * 5)
        assert prod == lex_product(g5, c3)
        from gamegraphs.morph import check_projection

        rep = check_projection(proj, prod, g5)
        assert rep.is_morphism and rep.fibers_are_games and rep.fiber_sizes_equal

    def test_fiber_count_mismatch(self, c3, g5):
        with pytest.raises(FiberCountMismatch):
            generalized_lex(g5, [c3] * 4)

    def test_past_the_vertex_ceiling(self, c3):
        big = circulant(33, range(1, 17))
        with pytest.raises(VertexOutOfRange, match="vertex count 99 outside 0..64"):
            lex_product(big, c3)
        with pytest.raises(VertexOutOfRange, match="vertex count 69 outside 0..64"):
            generalized_lex(c3, [big, big, c3])

    def test_mixed_fibers_two_of_three(self, c3):
        # game base, game fibers of unequal sizes: the product is not a game
        triv = Game(1, (0,))
        prod, _ = generalized_lex(c3, [c3, triv, triv])
        assert isinstance(prod, Tournament)
        assert not classify_digraph(prod).is_game


class TestExtend:
    def test_extension_relabel_matches_next_circulant(self):
        # extending the circulant on 1..n-1 by K = [0, n-1] gives the next one
        for n in (2, 3, 4):
            pi = circulant(2 * n - 1, range(1, n))
            g, u, v = extend(pi, range(n))
            image = [0] * (2 * n + 1)
            for i in range(n):
                image[i] = i
            for i in range(n, 2 * n - 1):
                image[i] = i + 1
            image[u] = n
            image[v] = 2 * n
            from gamegraphs.core import Permutation

            assert relabel(g, Permutation(image)) == circulant(2 * n + 1, range(1, n + 1))

    def test_trivial_to_c3(self, c3):
        g, u, v = extend(Game(1, (0,)), [0])
        assert g == c3

    def test_round_trip(self, g5):
        g, u, v = extend(g5, [0, 1, 4])
        back, index = reduce_via(g, u, v)
        assert back == g5

    def test_reversal_of_extension(self, g5):
        # the reverse of the extension is the extension of the reverse via
        # v -> u and K, i.e. with the two new vertices swapped
        from gamegraphs.core import Permutation

        K = [0, 2, 3]
        g, u, v = extend(g5, K)
        h, u2, v2 = extend(reverse(g5), K)
        swap = list(range(7))
        swap[u2], swap[v2] = swap[v2], swap[u2]
        assert reverse(g) == relabel(h, Permutation(swap))

    def test_bad_k(self, g5):
        with pytest.raises(BadK):
            extend(g5, [0, 1])

    def test_repeated_vertex_in_k(self, g5, g7ii):
        # with the repeat dropped, each K would have the right size
        with pytest.raises(BadK):
            extend(g5, [0, 0, 1, 4])
        with pytest.raises(BadK):
            uniquely_reducible_extension(g7ii, [0, 0, 1, 2, 3])


class TestReduce:
    def test_g7i_reducible_via_distance3_pairs(self, g7i):
        for i in range(7):
            assert is_reducible_via(g7i, i, (i + 3) % 7)
        sub, _ = reduce_via(g7i, 0, 3)
        assert sub.p == 5

    def test_g7ii_not_reducible(self, g7ii):
        for u in range(7):
            for v in range(u + 1, 7):
                assert not is_reducible_via(g7ii, u, v)
        with pytest.raises(NotReducible):
            reduce_via(g7ii, 0, 1)

    def test_seven_equivalent_conditions(self, g7i, g7iii):
        for g in (g7i, g7iii):
            for u in range(7):
                for v in range(7):
                    if u == v:
                        continue
                    uv = sorted((u, v))
                    sub, _ = restrict(g, [w for w in range(7) if w not in uv])
                    c1 = classify_digraph(sub).is_game
                    c3_ = num_triangles_through_edge(g, u, v) == 3
                    c4 = not any(
                        g.has_edge(i, u) and g.has_edge(i, v)
                        for i in range(7)
                        if i not in (u, v)
                    )
                    c5 = not any(
                        g.has_edge(u, i) and g.has_edge(v, i)
                        for i in range(7)
                        if i not in (u, v)
                    )
                    c6 = not (set(g.in_set(u)) & set(g.in_set(v)))
                    c7 = not (set(g.out_set(u)) & set(g.out_set(v)))
                    got = is_reducible_via(g, u, v)
                    assert c1 == c3_ == c4 == c5 == c6 == c7 == got
                    # condition (viii)
                    if g.has_edge(u, v):
                        assert (set(g.in_set(u)) == set(g.out_set(v))) == got


def num_triangles_through_edge(g, u, v):
    if g.has_edge(v, u):
        u, v = v, u
    return sum(1 for w in range(g.p) if g.has_edge(v, w) and g.has_edge(w, u))


class TestReducibilityGraph:
    def test_odd_circulant_hamiltonian_cycle(self):
        g = circulant(7, (1, 3, 5))
        rep = reducibility_graph(g)
        assert rep.kind == "hamiltonian_cycle"
        assert rep.components == ((0, 1, 2, 3, 4, 5, 6),)

    def test_cycle_shape_iff_initial_circulant(self):
        for g in (circulant(7, (1, 2, 3)), circulant(9, (1, 2, 3, 4))):
            assert reducibility_graph(g).kind == "hamiltonian_cycle"
        for g in (circulant(7, (1, 2, 4)),):
            assert reducibility_graph(g).kind != "hamiltonian_cycle"

    def test_double_of_c3_three_separated_edges(self, c3):
        g, lay = double(c3)
        rep = reducibility_graph(g)
        assert rep.kind == "paths"
        assert set(rep.components) == {
            (lay.minus(j), lay.plus(j)) for j in range(3)
        }

    def test_dominated_cycle_double_reducibility_paths(self):
        # source: vertex 0 dominates the 3-cycle 1 -> 2 -> 3 -> 1
        theta = make_digraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 1)])
        gam, lay = double(theta)
        rep = reducibility_graph(gam)
        comps = set(rep.components)
        assert (lay.minus(0), lay.plus(0), 0) in comps
        assert all((lay.minus(j), lay.plus(j)) in comps for j in (1, 2, 3))
        gbar = reverse_subgraph(
            gam,
            EdgeSet(9, [(lay.plus(1), lay.plus(2)), (lay.plus(2), lay.plus(3)), (lay.plus(3), lay.plus(1))]),
        )
        rep2 = reducibility_graph(gbar)
        assert rep2.components == ((lay.minus(0), lay.plus(0), 0),)

    def test_empty_for_nonreducible(self, g7ii):
        assert reducibility_graph(g7ii).kind == "empty"


class TestRealizePointed:
    def test_equal_pair_gives_double(self, c3):
        g, lay = realize_pointed(c3, c3)
        assert g == double(c3)[0]

    def test_order_c3_gives_type_iii(self, c3):
        g, _ = realize_pointed(standard_order(3), c3)
        assert classify7(g) == "III"

    def test_restrictions_match_exhaustively(self):
        for gp in all_labeled_tournaments(3):
            for gm in all_labeled_tournaments(3):
                g, lay = realize_pointed(gp, gm)
                got_p, _ = restrict(g, [lay.plus(j) for j in range(3)])
                got_m, _ = restrict(g, [lay.minus(j) for j in range(3)])
                assert got_p == gp and got_m == gm

    def test_pointed_view_invariants(self, c3):
        g, lay = realize_pointed(standard_order(3), c3)
        pv = pointed_view(g, 0)
        assert len(pv.I_plus) == len(pv.I_minus) == 3
        n_edges = (
            pv.Xi.edge_count()
            + pv.Pi_plus.edge_count()
            + pv.Pi_minus.edge_count()
            + len(pv.I_plus)
            + len(pv.I_minus)
        )
        assert n_edges == g.edge_count()


class TestEulerianToGame:
    def test_empty_input(self):
        g = eulerian_to_game(EdgeSet(5, []))
        assert isinstance(g, Game)

    def test_c5_contained(self):
        c5 = EdgeSet(5, [(i, (i + 1) % 5) for i in range(5)])
        g = eulerian_to_game(c5)
        assert c5.is_subgraph_of(g)

    def test_chorded_nine_ring_with_strictly_decreasing_deviation(self, chorded_nine_ring):
        trace: list[int] = []
        g = eulerian_to_game(chorded_nine_ring, record=trace)
        assert chorded_nine_ring.is_subgraph_of(g)
        assert all(a - 1 == b for a, b in zip(trace, trace[1:]))
        assert trace[-1] == 0

    def test_even_size_rejected(self):
        with pytest.raises(EvenSize):
            eulerian_to_game(EdgeSet(4, []))

    def test_not_eulerian_rejected(self):
        with pytest.raises(NotEulerian):
            eulerian_to_game(EdgeSet(5, [(0, 1)]))


class TestCertificates:
    def test_certificates_raise_under_python_O(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run(
            [sys.executable, "-O", "-c", _BROKEN_CERTIFICATES],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == [
            "steiner_missing", "steiner_reused", "steiner_cover",
            "restriction", "path", "deviation", "deviation_unrecorded", "result",
            "cross_path", "double_class", "reduce_class", "nonreducible_class", "variant_class",
            "reducibility_fork", "reducibility_cover", "realize_edge", "embed_reducible", "unique_extension",
        ]


class TestEmbedInGame:
    def test_single_edge_into_c3(self):
        t = make_digraph(2, [(0, 1)])
        g, emb = embed_in_game(t)
        assert g.p == 3
        assert g.has_edge(emb[0], emb[1])

    def test_order3_into_size5(self):
        t = standard_order(3)
        g, emb = embed_in_game(t)
        assert g.p == 5
        check_embedding(t, g, emb)

    def test_all_4_tournaments_into_size7(self):
        for t in all_labeled_tournaments(4):
            g, emb = embed_in_game(t)
            assert g.p == 7
            check_embedding(t, g, emb)


def check_embedding(t, g, emb):
    assert len(set(emb)) == t.p
    for a in range(t.p):
        for b in range(t.p):
            if a != b:
                assert t.has_edge(a, b) == g.has_edge(emb[a], emb[b])


class TestSteinerVariants:
    def test_c3_variants(self, c3, g7ii, g7iii):
        vars_ = steiner_variants(c3)
        assert len(vars_) == 6
        by_name = {v.name: v.game for v in vars_}
        assert are_isomorphic(by_name["plus"], g7ii) is not None
        # the plain double is type III and also Steiner
        g2, _ = double(c3)
        assert steiner_decomposition(g2) is not None
        assert classify7(g2) == "III"

    def test_size15_variants_from_g7ii(self, g7ii):
        vars_ = steiner_variants(g7ii)
        for v in vars_:
            assert v.game.p == 15
            assert len(v.witness) == 35  # 105 edges / 3

    def test_not_steiner_rejected(self, g7i):
        with pytest.raises(NotSteiner):
            steiner_variants(g7i)


class TestNonreducibleFrom:
    def test_c3_gives_type_ii(self, c3, g7ii):
        g = nonreducible_from(c3)
        assert reducibility_graph(g).kind == "empty"
        assert are_isomorphic(g, g7ii) is not None

    def test_g5_gives_size11_nonreducible(self, g5):
        g = nonreducible_from(g5)
        assert g.p == 11
        assert reducibility_graph(g).kind == "empty"

    def test_too_small(self):
        with pytest.raises(TooSmall):
            nonreducible_from(Game(1, (0,)))


class TestUniquelyReducibleExtension:
    def test_from_nonreducible_g7ii(self, g7ii):
        g, u, v = uniquely_reducible_extension(g7ii)
        assert g.p == 9
        rep = reducibility_graph(g)
        assert rep.edges.edge_count() == 1

    def test_explicit_k_over_a_double(self, c3):
        pi, lay = double(c3)
        K = [lay.minus(0), lay.plus(0), lay.minus(1), lay.plus(1)]
        g, u, v = uniquely_reducible_extension(pi, K)
        assert reducibility_graph(g).edges.edge_count() == 1

    def test_chain_to_13(self, g7ii):
        g9, _, _ = uniquely_reducible_extension(g7ii)
        g11, _, _ = uniquely_reducible_extension(g9)
        g13, _, _ = uniquely_reducible_extension(g11)
        for g in (g9, g11, g13):
            assert reducibility_graph(g).edges.edge_count() == 1

    def test_hamiltonian_case_not_applicable(self, g5):
        with pytest.raises(NotApplicable):
            uniquely_reducible_extension(g5)


class TestIsDouble:
    def test_recovers_double(self, c3, g5):
        for t in (c3, g5, standard_order(4)):
            g, lay = double(t)
            got = is_double(g, 0)
            assert got is not None and got.source == t

    def test_g7ii_is_not_a_double(self, g7ii):
        for base in range(7):
            assert is_double(g7ii, base) is None

    def test_marriage_fixture_has_no_pairing(self, c3, g5):
        # J-part of size 3, K-part of size 5: K- has upward edges only into J+
        g = marriage_fixture(c3, g5)
        assert isinstance(g, Game) and g.p == 17
        assert is_double(g, 0) is None

    def test_double_detected_at_wrong_base(self, c3):
        g, lay = double(c3)
        # base 0 works; a random other vertex generally does not
        assert is_double(g, 0) is not None


def marriage_fixture(gamma, theta):
    """Pointed game on {0} + (J+K) x {+,-} with no i -> rho(i) pairing."""
    nj, nk = gamma.p, theta.p
    n = nj + nk
    # layout: 0; J- = 1..3, K- = 4..8, J+ = 9..11, K+ = 12..16
    jm = {j: 1 + j for j in range(nj)}
    km = {k: 1 + nj + k for k in range(nk)}
    jp = {j: 1 + n + j for j in range(nj)}
    kp = {k: 1 + n + nj + k for k in range(nk)}
    edges = []
    for j in range(nj):
        edges += [(jp[j], 0), (0, jm[j]), (jm[j], jp[j])]
    for k in range(nk):
        edges += [(kp[k], 0), (0, km[k])]
    for a in range(nj):
        for b in range(nj):
            if gamma.has_edge(a, b):
                edges += [(jm[a], jm[b]), (jp[a], jp[b]), (jp[b], jm[a]), (jm[b], jp[a])]
    for a in range(nk):
        for b in range(nk):
            if theta.has_edge(a, b):
                edges += [(km[a], km[b]), (kp[a], kp[b])]
    for k in range(nk):
        for j in range(nj):
            edges += [(jm[j], kp[k]), (jp[j], kp[k]), (km[k], jm[j]), (km[k], jp[j])]
    for a in range(nk):
        for b in range(nk):
            edges.append((kp[a], km[b]))
    return make_digraph(1 + 2 * n, edges)


class TestSep:
    def test_c3_anchor(self, c3):
        rep = has_sep(c3, [0])
        assert rep.ok
        assert rep.witness[frozenset()] == 1
        assert rep.witness[frozenset({0})] == 2

    def test_order3_full_set_fails(self):
        rep = has_sep(standard_order(3), [0, 1, 2])
        assert not rep.ok and rep.failing == frozenset()

    def test_saturate_sizes_and_sep(self):
        t1 = Tournament(1, (0,))
        s1, _ = saturate(t1)
        assert s1.p == 3
        s2, _ = saturate(s1)
        assert s2.p == 11
        assert restrict(s2, range(3))[0] == s1
        for mask in range(8):
            sub = [v for v in range(3) if (mask >> v) & 1]
            assert has_sep(s2, sub).ok

    def test_saturate_fits_the_vertex_ceiling(self):
        # 5 + 2^5 = 37 vertices fit; 6 + 2^6 = 70 do not, and the check runs
        # before any row is built (2^16 rows at s = 16)
        t5 = standard_order(5)
        s, labels = saturate(t5)
        assert s.p == 37 and len(labels) == 32
        assert restrict(s, range(5))[0] == t5
        for size in (6, 16):
            with pytest.raises(TooLarge):
                saturate(standard_order(size))

    def test_saturation_restriction_identity(self, c3):
        s, labels = saturate(c3)
        assert restrict(s, range(3))[0] == c3
        assert has_sep(s, range(3)).ok
        assert len(labels) == 8


class TestExtendEmbedding:
    def test_identity_extension(self, c3):
        out = extend_embedding(c3, range(3), {0: 0, 1: 1, 2: 2}, c3)
        assert out == {0: 0, 1: 1, 2: 2}

    def test_c3_into_twice_saturated(self, c3):
        s2, _ = saturate(saturate(Tournament(1, (0,)))[0])
        for anchor in range(s2.p):
            out = extend_embedding(c3, [0], {0: anchor}, s2)
            check_embedding_dict(c3, s2, out)

    def test_order4_into_tiny_gamma_fails(self):
        s1, _ = saturate(Tournament(1, (0,)))
        with pytest.raises(SepExhausted):
            extend_embedding(standard_order(4), [0], {0: 0}, s1)

    def test_every_3_tournament_from_every_anchor(self):
        s2, _ = saturate(saturate(Tournament(1, (0,)))[0])
        for t in all_labeled_tournaments(3):
            for anchor in range(s2.p):
                out = extend_embedding(t, [0], {0: anchor}, s2)
                check_embedding_dict(t, s2, out)

    @pytest.mark.parametrize(
        "S0, rho",
        [([-1], {-1: 0}), ([0], {0: -1}), ([5], {5: 0}), ([0], {0: 9})],
        ids=["negative-key", "negative-image", "key-past-pi", "image-past-gamma"],
    )
    def test_vertices_out_of_range(self, c3, S0, rho):
        with pytest.raises(VertexOutOfRange):
            extend_embedding(c3, S0, rho, circulant(7, (1, 2, 4)))


def check_embedding_dict(t, g, emb):
    assert sorted(emb) == list(range(t.p))
    assert len(set(emb.values())) == t.p
    for a in range(t.p):
        for b in range(t.p):
            if a != b:
                assert t.has_edge(a, b) == g.has_edge(emb[a], emb[b])


class TestMiscLaws:
    def test_reducibility_two_of_three_law(self, g7i):
        rng = random.Random(73)
        for _ in range(40):
            d = random_eulerian_edgeset(7, rng, tries=3)
            if not d.is_subgraph_of(g7i):
                continue
            gd = reverse_subgraph(g7i, d)
            for u in range(7):
                for v in range(u + 1, 7):
                    saved = [w for w in range(7) if w not in (u, v)]
                    conds = [
                        is_reducible_via(g7i, u, v),
                        is_reducible_via(gd, u, v) if isinstance(gd, Game) else False,
                        EdgeSet(
                            7, [(a, b) for (a, b) in d.edges() if a in saved and b in saved]
                        ).is_eulerian(),
                    ]
                    assert sum(conds) != 2

    def test_two_extensions_with_different_reducibility(self):
        for pi in (circulant(5, (1, 2)), circulant(7, (1, 2, 4)), circulant(9, (1, 5, 6, 7))):
            if not isinstance(pi, Game):
                continue
            sizes = set()
            from itertools import combinations

            n = (pi.p + 1) // 2
            for K in combinations(range(pi.p), n):
                g, _, _ = extend(pi, K)
                sizes.add(reducibility_graph(g).edges.edge_count())
                if len(sizes) > 1:
                    break
            assert len(sizes) > 1

    def test_extension_balance_bound(self, c3, g5):
        from itertools import combinations

        for pi in (Game(1, (0,)), c3, g5):
            beta_pi = span(pi).balance if pi.p > 1 else 0
            n = (pi.p + 1) // 2
            for K in combinations(range(pi.p), n):
                g, _, _ = extend(pi, K)
                beta_g = span(g).balance
                assert beta_g <= beta_pi + 2 * n - 1

    def test_completely_reducible_beta_bound(self):
        # iterated extensions stay within beta <= n^2
        rng = random.Random(79)
        from itertools import combinations

        for _ in range(6):
            g = Game(1, (0,))
            while g.p < 9:
                n = (g.p + 1) // 2
                K = tuple(rng.sample(range(g.p), n)) if g.p > 1 else (0,)
                g, _, _ = extend(g, K)
            n = (g.p - 1) // 2
            assert span(g).balance <= n * n

    def test_fixed_point_automorphism_cycle_lengths(self, g7i, g7ii, g7iii, g5, c3):
        for g in (c3, g5, g7i, g7ii, g7iii):
            n = (g.p - 1) // 2
            for rho in automorphisms(g):
                if any(rho(v) == v for v in range(g.p)):
                    for cyc in rho.cycles():
                        assert len(cyc) <= max(n, 1)

    def test_invariant_subgraph_action_descends(self, c3):
        g, lay = double(c3)
        # the cross part is invariant under the lifted rotation
        from gamegraphs.core import Permutation

        rot = Permutation([0, 2, 3, 1, 5, 6, 4])  # 2gamma of the rotation of c3
        assert relabel(g, rot) == g
        delta = double_cross_edges(lay)
        mapped = EdgeSet(7, [(rot(a), rot(b)) for (a, b) in delta.edges()])
        assert mapped == delta
        gd = reverse_subgraph(g, delta)
        assert relabel(gd, rot) == gd


class TestAgainstOracles:
    """The builders against the edge-by-edge and vertex-set oracles of
    conftest on seeded inputs: tournaments up to 31 vertices, Eulerian
    digraphs up to 63, products up to 64."""

    def test_double_and_parts(self):
        rng = random.Random(151)
        for n in (0, 1, 2, 5, 12, 31):
            t = random_tournament(n, rng)
            g, lay = double(t)
            assert isinstance(g, Game) and g == oracle_double(t)
            assert double_cross_edges(lay) == oracle_double_part(t, ["cross"])
            assert double_layer_edges(lay, +1) == oracle_double_part(t, ["plus"])
            assert double_layer_edges(lay, -1) == oracle_double_part(t, ["minus"])

    def test_realize_pointed(self):
        rng = random.Random(157)
        for n in (1, 2, 3, 4, 5, 7, 9, 12, 15, 20, 25, 31):
            gp, gm = random_tournament(n, rng), random_tournament(n, rng)
            g, _ = realize_pointed(gp, gm)
            assert isinstance(g, Game) and g == oracle_realize_pointed(gp, gm)

    def test_eulerian_to_game(self):
        rng = random.Random(163)
        for p in (3, 5, 7, 9, 11, 15, 21, 31, 45, 63):
            for tries in (2, 30):
                d = random_eulerian_edgeset(p, rng, tries=tries)
                trace: list[int] = []
                oracle_trace: list[int] = []
                g = eulerian_to_game(d, record=trace)
                assert isinstance(g, Game) and g == oracle_eulerian_to_game(d, oracle_trace)
                assert trace == oracle_trace

    def test_embed_in_game(self):
        rng = random.Random(167)
        for n in (2, 3, 6, 11, 16):
            t = random_tournament(n, rng)
            g, emb = embed_in_game(t)
            full = oracle_realize_pointed(standard_order(n), t)
            keep = [w for w in range(full.p) if w not in (0, 1 + n)]
            assert g == restrict(full, keep)[0]
            assert emb == [keep.index(1 + j) for j in range(n)]

    def test_steiner_variants_and_nonreducible(self, c3, g7ii):
        for pi in (c3, g7ii):
            two = oracle_double(pi)
            got = {v.name: v.game for v in steiner_variants(pi)}
            assert list(got) == ["plus", "minus", "cross", "plus+minus", "plus+cross", "minus+cross"]
            for name, game in got.items():
                assert game == oracle_reverse_subgraph(two, oracle_double_part(pi, name.split("+")))
            assert nonreducible_from(pi) == oracle_reverse_subgraph(two, oracle_double_part(pi, ["plus"]))

    def test_uniquely_reducible_extension(self, c3, g5, g7ii):
        rng = random.Random(173)
        games = [c3, g7ii, double(c3)[0], disjoint_walk(g7ii, 2, rng), disjoint_walk(circulant(9, (1, 2, 3, 4)), 3, rng)]
        for pi in games + [g5, circulant(9, (1, 2, 3, 4))]:
            want = oracle_uniquely_reducible_extension(pi)
            if want is None:
                with pytest.raises(NotApplicable):
                    uniquely_reducible_extension(pi)
            else:
                assert uniquely_reducible_extension(pi)[0] == want

    def test_lex_product(self):
        rng = random.Random(179)
        sizes = ((0, 3), (3, 0), (1, 1), (3, 1), (1, 5), (2, 3), (5, 3), (4, 4), (7, 9), (8, 8), (3, 21), (21, 3))
        for a, b in sizes:
            for make in (random_tournament, random_digraph):
                gamma, pi = make(a, rng), make(b, rng)
                assert lex_product(gamma, pi) == oracle_lex_product(gamma, pi)

    def test_has_sep(self):
        rng = random.Random(181)
        cases = []
        for p in (1, 3, 5, 8, 11, 15):
            for make in (random_tournament, random_digraph):
                for _ in range(5):
                    cases.append((make(p, rng), rng.sample(range(p), rng.randint(0, min(6, p)))))
        s2, _ = saturate(saturate(Tournament(1, (0,)))[0])
        cases += [(s2, [0, 1, 2]), (s2, [2, 0]), (s2, [0, 1, 2, 3]), (circulant(11, (1, 3, 4, 5, 9)), [0, 3])]
        outcomes = set()
        for g, t0 in cases:
            rep = has_sep(g, t0)
            ok, witness, failing = oracle_has_sep(g, t0)
            assert (rep.ok, list(rep.witness.items()), rep.failing) == (ok, list(witness.items()), failing)
            outcomes.add(ok)
        assert outcomes == {True, False}

    def test_saturate(self):
        rng = random.Random(191)
        for s in range(6):
            for t in (standard_order(s), random_tournament(s, rng)):
                got, labels = saturate(t)
                want, want_labels = oracle_saturate(t)
                assert got == want
                assert list(labels.items()) == list(want_labels.items())

    def test_extend_embedding(self):
        s2, _ = saturate(saturate(Tournament(1, (0,)))[0])
        cases = [(t, [0], {0: a}, s2) for n in (3, 4) for t in all_labeled_tournaments(n) for a in range(s2.p)]
        rng = random.Random(193)
        for _ in range(40):
            gamma, pi = random_tournament(11, rng), random_tournament(rng.randint(2, 5), rng)
            k = rng.randint(1, 2)
            S0 = rng.sample(range(pi.p), k)
            cases.append((pi, S0, dict(zip(S0, rng.sample(range(11), k))), gamma))
        outcomes = set()
        for pi, S0, rho, gamma in cases:
            try:
                want = oracle_extend_embedding(pi, S0, rho, gamma)
            except SepExhausted:
                with pytest.raises(SepExhausted):
                    extend_embedding(pi, S0, rho, gamma)
                outcomes.add(False)
            else:
                assert list(extend_embedding(pi, S0, rho, gamma).items()) == list(want.items())
                outcomes.add(True)
        assert outcomes == {True, False}

    def test_reducibility_graph_and_is_double(self, c3, g5, g7i, g7ii, g7iii):
        rng = random.Random(197)

        def shuffled(g):
            image = list(range(g.p))
            rng.shuffle(image)
            return relabel(g, Permutation(image)), image

        games = [shuffled(rep)[0] for rep in (g7i, g7ii, g7iii) for _ in range(4)]
        games += [g5, circulant(9, (1, 2, 3, 4)), shuffled(circulant(11, range(1, 6)))[0]]
        games += [nonreducible_from(pi) for pi in (c3, g7ii, disjoint_walk(circulant(9, (1, 2, 3, 4)), 3, rng))]
        games += [disjoint_walk(circulant(p, range(1, (p + 1) // 2)), k, rng) for p, k in ((9, 2), (11, 4), (15, 6), (21, 5))]
        doubles = []
        for n in (1, 2, 3, 5, 8, 13):
            t = random_tournament(n, rng)
            g = double(t)[0]
            moved, image = shuffled(g)
            doubles += [(g, 0, t), (moved, image[0], None)]
            games += [g, moved]
        for g in games:
            rep = reducibility_graph(g)
            assert (rep.edges, rep.kind, rep.components) == oracle_reducibility_graph(g)
            for base in range(g.p):
                lay = is_double(g, base)
                assert (None if lay is None else lay.source) == oracle_is_double(g, base)
        for g, base, t in doubles:
            lay = is_double(g, base)
            assert lay is not None and (t is None or lay.source == t)
