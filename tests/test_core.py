import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamegraphs.core import (
    Digraph,
    EdgeSet,
    Game,
    Permutation,
    Tournament,
    circulant,
    classify_digraph,
    from_rows,
    make_digraph,
    parse,
    relabel,
    restrict,
    reverse,
    scores,
    serialize,
)
from gamegraphs.errors import (
    AntiparallelPair,
    HeaderClassMismatch,
    LoopEdge,
    ParseError,
    VertexOutOfRange,
)

from conftest import random_tournament, standard_order


class TestMakeDigraph:
    def test_three_cycle(self):
        g = make_digraph(3, [(0, 1), (1, 2), (2, 0)])
        assert isinstance(g, Game)
        assert g.edges() == [(0, 1), (1, 2), (2, 0)]

    def test_antiparallel_rejected(self):
        with pytest.raises(AntiparallelPair):
            make_digraph(3, [(0, 1), (1, 0)])

    def test_loop_rejected(self):
        with pytest.raises(LoopEdge):
            make_digraph(3, [(1, 1)])

    def test_rows_validated_in_row_order(self):
        # antiparallel pairs {0, 2} and {1, 3}: the first in row order is named
        rows = [0b0100, 0b1000, 0b0001, 0b0011]
        with pytest.raises(AntiparallelPair, match=r"^both 0->2 and 2->0$"):
            from_rows(4, rows)
        # a loop or an out-of-range row is reported before any antiparallel pair
        with pytest.raises(LoopEdge, match=r"^loop at vertex 3$"):
            Digraph(4, rows[:3] + [0b1011])
        with pytest.raises(VertexOutOfRange, match=r"^row 3 references vertices >= 4$"):
            Digraph(4, rows[:3] + [0b10001])

    def test_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            make_digraph(3, [(0, 5)])

    def test_g5_from_differences(self):
        edges = [(i, (i + d) % 5) for i in range(5) for d in (1, 2)]
        g = make_digraph(5, edges)
        assert isinstance(g, Game)
        assert g == circulant(5, (1, 2))

    def test_circulant_vertex_count(self):
        empty = circulant(0, (1,))
        assert (type(empty), empty.p, empty.rows) == (Tournament, 0, ())
        for p in (-1, 65):
            with pytest.raises(VertexOutOfRange, match=rf"^vertex count {p} outside 0..64$"):
                circulant(p, (1,))


class TestRestrict:
    def test_g5_straddle(self, g5):
        sub, index = restrict(g5, {0, 1, 2})
        assert scores(sub) == (0, 1, 2)
        assert index == {0: 0, 1: 1, 2: 2}
        # direct evaluation of the difference rule on the kept vertices
        expect = [(i, j) for i in (0, 1, 2) for j in (0, 1, 2) if (j - i) % 5 in (1, 2)]
        assert sub.edges() == sorted(expect)

    def test_identity_restriction(self, c3):
        sub, _ = restrict(c3, range(3))
        assert sub == c3

    def test_standard_order_inside_circulant(self):
        g = circulant(7, (1, 2, 3))
        sub, _ = restrict(g, [1, 2, 3])
        assert sub.edges() == [(0, 1), (0, 2), (1, 2)]  # the order 1 < 2 < 3

    def test_bad_vertex(self, c3):
        with pytest.raises(VertexOutOfRange):
            restrict(c3, [0, 9])


class TestReverse:
    def test_c3_reverse_is_relabel(self, c3):
        r = reverse(c3)
        assert r.edges() == [(0, 2), (1, 0), (2, 1)]

    def test_g7i_reverse_is_counter_circulant(self, g7i):
        assert reverse(g7i) == circulant(7, (4, 5, 6))

    def test_involution(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_tournament(6, rng)
            assert reverse(reverse(g)) == g

    def test_class_preserved(self, g5, straddle, chorded_nine_ring):
        assert isinstance(reverse(g5), Game)
        assert isinstance(reverse(straddle), Tournament)
        d = reverse(make_digraph(chorded_nine_ring.p, chorded_nine_ring.edges()))
        assert classify_digraph(d).is_eulerian


class TestScores:
    def test_straddle(self, straddle):
        assert scores(straddle) == (0, 1, 2)

    def test_g5_regular(self, g5):
        assert scores(g5) == (2, 2, 2, 2, 2)

    def test_order(self, order4):
        assert scores(order4) == (0, 1, 2, 3)

    def test_score_sum(self):
        rng = random.Random(11)
        for p in (3, 4, 5, 6, 7):
            g = random_tournament(p, rng)
            assert sum(scores(g)) == p * (p - 1) // 2


class TestClassify:
    def test_c3(self, c3):
        f = classify_digraph(c3)
        assert f.is_tournament and f.is_eulerian and f.is_game and f.is_regular

    def test_straddle(self, straddle):
        f = classify_digraph(straddle)
        assert f.is_tournament and not f.is_eulerian and not f.is_game

    def test_two_cycles_union(self):
        g = make_digraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        f = classify_digraph(g)
        assert f.is_eulerian and not f.is_tournament and not f.is_game

    def test_empty_graph_is_a_tournament_not_a_game(self, g5):
        g = from_rows(0, [])
        assert type(g) is Tournament
        f = classify_digraph(g)
        assert f.is_tournament and f.is_eulerian and not f.is_game
        sub, index = restrict(g5, [])
        assert type(sub) is Tournament and index == {}
        assert serialize(g) == "tournament 0\n"

    def test_game_iff_tournament_and_eulerian(self):
        rng = random.Random(13)
        for _ in range(30):
            g = random_tournament(5, rng)
            f = classify_digraph(g)
            assert f.is_game == (f.is_tournament and f.is_eulerian)
            if f.is_game:
                assert scores(g) == (2,) * 5


class TestTextFormat:
    def test_headers_are_strongest(self, c3, straddle):
        assert serialize(c3).startswith("game 3\n")
        assert serialize(straddle).startswith("tournament 3\n")
        assert serialize(make_digraph(3, [(0, 1)])).startswith("digraph 3\n")

    def test_round_trip_bit_exact(self):
        rng = random.Random(17)
        graphs = [random_tournament(p, rng) for p in (1, 3, 4, 6, 7) for _ in range(4)]
        graphs.append(make_digraph(5, [(0, 1), (1, 2), (2, 0)]))
        for g in graphs:
            text = serialize(g)
            assert serialize(parse(text)) == text

    def test_comments_and_blank_lines(self):
        text = "# remark\ngame 3\n010\n# inner remark\n001\n100\n"
        g = parse(text)
        assert isinstance(g, Game)

    def test_header_class_mismatch(self):
        with pytest.raises(HeaderClassMismatch):
            parse("game 3\n010\n001\n000\n")
        with pytest.raises(HeaderClassMismatch):
            parse("tournament 3\n010\n000\n000\n")

    def test_header_checked_against_the_class_found(self):
        # a transitive tournament is no game; the empty tournament is
        # Eulerian but of even size, so no game either
        order = serialize(standard_order(3)).split("\n", 1)[1]
        with pytest.raises(HeaderClassMismatch):
            parse("game 3\n" + order)
        assert type(parse("tournament 3\n" + order)) is Tournament
        with pytest.raises(HeaderClassMismatch):
            parse("game 0\n")
        assert type(parse("tournament 0\n")) is Tournament
        assert type(parse("digraph 3\n010\n001\n100\n")) is Game

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse("")
        with pytest.raises(ParseError):
            parse("graph 3\n011\n001\n100\n")
        with pytest.raises(ParseError):
            parse("game 3\n01\n001\n100\n")


class TestPermutation:
    def test_compose_inverse(self):
        a = Permutation([1, 2, 0])
        b = Permutation([0, 2, 1])
        assert a.compose(a.inverse()) == Permutation.identity(3)
        assert a.compose(b)(1) == a(b(1))

    def test_relabel_preserves_class(self, g5):
        g = relabel(g5, Permutation([4, 3, 2, 1, 0]))
        assert isinstance(g, Game)

    def test_cycles_order_sign(self):
        rho = Permutation([1, 2, 0, 4, 3])
        assert sorted(len(c) for c in rho.cycles()) == [2, 3]
        assert rho.order() == 6
        assert rho.sign() == -1


class TestEdgeSet:
    def test_invariants(self):
        with pytest.raises(AntiparallelPair):
            EdgeSet(3, [(0, 1), (1, 0)])
        with pytest.raises(LoopEdge):
            EdgeSet(3, [(2, 2)])

    def test_subgraph_and_eulerian(self, g5):
        d = EdgeSet(5, [(0, 2), (2, 4), (4, 0)])
        assert d.is_subgraph_of(g5)
        assert d.is_eulerian()
        assert not EdgeSet(5, [(0, 1)]).is_eulerian()
        assert not EdgeSet(5, [(1, 0)]).is_subgraph_of(g5)

    def test_disjoint_edge_sets_may_share_vertices(self):
        a = EdgeSet(5, [(0, 1), (1, 2), (2, 0)])
        b = EdgeSet(5, [(2, 3), (3, 4), (4, 2)])
        assert not (set(a.edges()) & set(b.edges()))
        assert {v for e in a.edges() for v in e} & {v for e in b.edges() for v in e}
        assert EdgeSet(5, a.edges() + b.edges()).is_eulerian()

    @pytest.mark.parametrize("pairs, error", [
        ([(0, 1), (2, 2)], LoopEdge),
        ([(0, 1), (1, 2), (1, 0)], AntiparallelPair),
        ([(0, 3)], VertexOutOfRange),
        ([(3, 0)], VertexOutOfRange),
        ([(-1, 0)], VertexOutOfRange),
        ([(0, -1)], VertexOutOfRange),
    ])
    def test_same_error_class_as_make_digraph(self, pairs, error):
        with pytest.raises(error):
            EdgeSet(3, pairs)
        with pytest.raises(error):
            make_digraph(3, pairs)

    def test_equals_the_digraph_with_its_rows(self, g5):
        d = EdgeSet(5, g5.edges())
        assert d == g5 and hash(d) == hash(g5)
        assert repr(EdgeSet(3, [(1, 2), (0, 1)])) == "EdgeSet(p=3, edges=[(0, 1), (1, 2)])"


@given(st.integers(1, 8), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_serialize_parse_identity_property(p, rnd):
    g = random_tournament(p, rnd)
    assert parse(serialize(g)) == g


@given(st.integers(2, 8), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_reverse_involution_property(p, rnd):
    g = random_tournament(p, rnd)
    assert reverse(reverse(g)) == g
    assert scores(reverse(g)) == tuple(sorted(p - 1 - s for s in scores(g)))
