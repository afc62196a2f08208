import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from gamegraphs.atlas import enumerate_games
from gamegraphs.core import (
    Digraph,
    Game,
    Permutation,
    Tournament,
    _bits,
    circulant,
    classify_digraph,
    from_rows,
    make_digraph,
    relabel,
    restrict,
    reverse,
    scores,
)
from gamegraphs.construct import double, generalized_lex, lex_product, reduce_via
from gamegraphs.errors import BadSize, NotSurjective, SizeMismatch, TooLarge, WrongGroup
from gamegraphs.groups import GameSubset, cyclic_group, group_game, quadratic_residue_subset
from gamegraphs.morph import (
    _bits_under,
    _canon_search,
    _closure,
    _refine,
    are_isomorphic,
    automorphisms,
    aut_product_law_check,
    canonical_form,
    check_projection,
    classify7,
    classify9_group,
    is_rigid,
    rigid_by_scores,
)

from conftest import (
    all_labeled_tournaments,
    disjoint_walk,
    oracle_aut_closure,
    oracle_bits_under,
    oracle_canon_search,
    oracle_canon_tree,
    oracle_classify7,
    oracle_closure,
    oracle_is_morphism,
    oracle_iso,
    oracle_refine,
    random_digraph,
    random_eulerian_edgeset,
    random_tournament,
    standard_order,
)

SRC = Path(__file__).resolve().parent.parent / "src"

# Every certificate in morph and in the census must raise even when asserts
# are stripped.  Each case breaks what one check relies on and prints its
# name when that check raises InvariantViolation.
_BROKEN_CERTIFICATES = """
from unittest import mock

from gamegraphs import atlas, morph
from gamegraphs.construct import double
from gamegraphs.core import Permutation, circulant, make_digraph
from gamegraphs.errors import InvariantViolation

if __debug__:
    raise SystemExit("asserts are live")
t4 = make_digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 0), (3, 1)])
g9, _ = double(t4)
c7 = circulant(7, (1, 2, 3))
identity = Permutation.identity(7)
shift = Permutation([(i + 1) % 7 for i in range(7)])
cases = [
    # every leaf ties, so the search pairs leaves of a rigid game
    ("generator", mock.patch.object(morph, "_bits_under", lambda p, rows, perm: 0),
     lambda: morph.automorphisms(g9)),
    ("witness", mock.patch.object(morph, "relabel", lambda g, rho: None),
     lambda: morph.are_isomorphic(c7, c7)),
    ("rigid", mock.patch.object(morph, "automorphisms", lambda g: morph.AutGroup((identity, shift))),
     lambda: morph.is_rigid(t4)),
    ("classify7", mock.patch.object(morph, "_seven_fixtures", lambda: {"I": 0, "II": 0, "III": 0}),
     lambda: morph.classify7(c7)),
    ("census", mock.patch.object(atlas, "automorphisms", lambda g: morph.AutGroup((identity,))),
     lambda: atlas.census(5)),
]
for name, patch, run in cases:
    with patch:
        try:
            run()
        except InvariantViolation:
            print(name)
"""


class TestCanonicalForm:
    def test_relabeling_invariance(self, g7ii):
        base = canonical_form(g7ii).bits
        rng = random.Random(53)
        for _ in range(10):
            img = list(range(7))
            rng.shuffle(img)
            assert canonical_form(relabel(g7ii, Permutation(img))).bits == base

    def test_all_size5_games_share_one_form(self):
        forms = set()
        count = 0
        for g in all_labeled_tournaments(5):
            if classify_digraph(g).is_game:
                forms.add(canonical_form(g).bits)
                count += 1
        assert count == 24 and len(forms) == 1

    def test_seven_types_are_distinct(self, g7i, g7ii, g7iii):
        forms = {canonical_form(g).bits for g in (g7i, g7ii, g7iii)}
        assert len(forms) == 3

    def test_witness_realizes_form(self, g7iii):
        cf = canonical_form(g7iii)
        canon = relabel(g7iii, cf.witness)
        bits = 0
        for i in range(7):
            for j in range(7):
                if canon.has_edge(i, j):
                    bits |= 1 << (i * 7 + j)
        assert bits == cf.bits


class TestAreIsomorphic:
    def test_odd_circulant_vs_initial(self):
        a = circulant(7, (1, 3, 5))
        b = circulant(7, (1, 2, 3))
        w = are_isomorphic(a, b)
        assert w is not None
        assert relabel(a, w) == b
        # multiplication by 3 is one valid witness
        assert relabel(a, Permutation([(3 * i) % 7 for i in range(7)])) == b

    def test_types_not_isomorphic(self, g7i, g7ii):
        assert are_isomorphic(g7i, g7ii) is None

    def test_g7iii_self_reverse(self, g7iii):
        w = are_isomorphic(g7iii, reverse(g7iii))
        assert w is not None

    def test_oracle_agreement(self):
        rng = random.Random(59)
        for _ in range(15):
            a = random_tournament(5, rng)
            b = random_tournament(5, rng)
            got = are_isomorphic(a, b)
            want = oracle_iso(a, b)
            assert (got is None) == (want is None)
        for _ in range(3):
            a = random_tournament(7, rng)
            b = random_tournament(7, rng)
            assert (are_isomorphic(a, b) is None) == (oracle_iso(a, b) is None)
        # relabeled pairs must always come back isomorphic
        for _ in range(10):
            a = random_tournament(6, rng)
            img = list(range(6))
            rng.shuffle(img)
            assert are_isomorphic(a, relabel(a, Permutation(img))) is not None


class TestAutomorphisms:
    def test_g7i_translations(self, g7i):
        ag = automorphisms(g7i)
        assert ag.order == 7
        assert ag.is_group()

    def test_g7ii_affine(self, g7ii):
        assert automorphisms(g7ii).order == 21

    def test_g7iii_fixes_zero(self, g7iii):
        ag = automorphisms(g7iii)
        assert ag.order == 3
        assert all(rho(0) == 0 for rho in ag)
        assert set(ag.perms) == {
            Permutation([(a * i) % 7 for i in range(7)]) for a in (1, 2, 4)
        }

    def test_c3_lex_c3_order_81(self, c3):
        assert automorphisms(lex_product(c3, c3)).order == 81

    def test_odd_order_and_fixed_pairs(self):
        rng = random.Random(61)
        for _ in range(10):
            g = random_tournament(6, rng)
            for rho in automorphisms(g):
                assert rho.order() % 2 == 1
                for cyc in rho.cycles():
                    assert len(cyc) % 2 == 1  # no even cycle, so no invariant 2-set moves

    def test_dixon_bound(self, g7i, g7ii, g7iii, g5, c3):
        for g in (c3, g5, g7i, g7ii, g7iii):
            n = (g.p - 1) // 2
            assert automorphisms(g).order <= 3 ** n


def _qr_game(p: int) -> Game:
    sub = quadratic_residue_subset(p)
    return group_game(sub.group, sub)


class TestPrunedSearch:
    """The orbit-pruned search against the full tree it replaced."""

    def test_agrees_with_full_tree(self, c3, g7i, g7ii, g7iii):
        rng = random.Random(71)
        sample = rng.sample(list(enumerate_games(7)), 40)
        t4 = make_digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 0), (3, 1)])
        g5 = circulant(5, (1, 2))
        rows = list(g5.rows) + [0b001111]
        rows[4] |= 1 << 5
        rigid = [double(t4)[0], double(from_rows(6, rows))[0]]
        orders = []
        for g in sample + [g7i, g7ii, g7iii, _qr_game(23), lex_product(c3, c3)] + rigid:
            value, leaf, group = oracle_canon_tree(g)
            cf = canonical_form(g)
            assert (cf.bits, cf.witness.image) == (value, leaf)
            assert [a.image for a in automorphisms(g)] == group
            orders.append(len(group))
        assert orders[-7:] == [7, 21, 3, 253, 81, 1, 1]

    def test_pinned_node_counts(self):
        # refinements, root included; the full tree has 947 for QR43 and
        # 31,200 over the size-7 games
        assert _canon_search(_qr_game(43), 10_000).nodes == 27
        assert sum(_canon_search(g, 10_000).nodes for g in enumerate_games(7)) == 15_696

    def test_certificates_raise_under_python_O(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run(
            [sys.executable, "-O", "-c", _BROKEN_CERTIFICATES],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["generator", "witness", "rigid", "classify7", "census"]


def _random_digraph(p: int, rng: random.Random) -> Digraph:
    """Each pair absent, or oriented either way, with probability 1/3."""
    rows = [0] * p
    for i in range(p):
        for j in range(i + 1, p):
            x = rng.randrange(3)
            if x == 1:
                rows[i] |= 1 << j
            elif x == 2:
                rows[j] |= 1 << i
    return from_rows(p, rows)


def _symmetric_digraphs() -> list:
    """Non-tournaments with nontrivial automorphisms, so the search prunes."""
    two_triangles = make_digraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    return [
        circulant(8, (1, 3)),
        circulant(9, (1, 2)),
        circulant(10, (1,)),
        circulant(12, (1, 4)),
        two_triangles,
        make_digraph(5, []),
    ]


class TestSearchAgainstOracle:
    """The search against one over the plain refinement and leaf value:
    per-search neighbor lists, the out-only tournament signature and the
    edge-built leaf value must change no node, value, leaf or generator."""

    @staticmethod
    def _agree(g) -> None:
        s = _canon_search(g, 100_000)
        assert (s.value, s.leaf.image, s.generators, s.nodes) == oracle_canon_search(g)

    def test_refine_and_leaf_value(self, g7i, g7iii):
        rng = random.Random(83)
        graphs = [g7i, g7iii, _qr_game(23)] + [random_tournament(9, rng) for _ in range(10)]
        graphs += [_random_digraph(rng.randint(3, 12), rng) for _ in range(30)]
        graphs += _symmetric_digraphs()
        for g in graphs:
            p, rows, cols = g.p, g.rows, g._cols
            outs = [tuple(_bits(r)) for r in rows]
            ins = [tuple(_bits(c)) for c in cols]
            starts = [[0] * p] + [[p if w == v else 0 for w in range(p)] for v in range(p)]
            for c in starts:
                want = oracle_refine(p, rows, cols, list(c))
                assert _refine(outs, ins, list(c)) == want
                if isinstance(g, Tournament):
                    assert _refine(outs, None, list(c)) == want
            for _ in range(5):
                perm = rng.sample(range(p), p)
                assert _bits_under(p, outs, perm) == oracle_bits_under(p, rows, perm)

    def test_size7_games(self):
        for g in enumerate_games(7):
            self._agree(g)

    def test_qr_games(self):
        for q in (23, 31, 43):
            self._agree(_qr_game(q))

    def test_digraphs(self):
        rng = random.Random(89)
        graphs = [_random_digraph(rng.randint(3, 14), rng) for _ in range(30)]
        # unions of random cycles: balanced degrees, so the search branches
        for _ in range(40):
            d = random_eulerian_edgeset(rng.randint(5, 12), rng, tries=rng.randint(2, 8))
            graphs.append(make_digraph(d.p, d.edges()))
        graphs = [g for g in graphs if not isinstance(g, Tournament)] + _symmetric_digraphs()
        assert len(graphs) >= 70  # the in-neighbor signature is what these check
        for g in graphs:
            self._agree(g)


class TestIsomorphismPath:
    """`are_isomorphic` and `automorphisms` against the plain forms: the
    witness read off two full searches, and the closure over every
    generator the search records."""

    @staticmethod
    def _pairs(c3):
        rng = random.Random(101)
        graphs = [_qr_game(23), _qr_game(31), circulant(9, (1, 2)), lex_product(c3, c3)]
        graphs += rng.sample(list(enumerate_games(7)), 12)
        graphs += [random_tournament(p, rng) for p in range(9, 16)]
        graphs += _symmetric_digraphs()
        graphs += [_random_digraph(rng.randint(5, 12), rng) for _ in range(8)]
        pairs = []
        for g in graphs:
            for _ in range(2):
                pairs.append((g, relabel(g, Permutation(rng.sample(range(g.p), g.p)))))
        return pairs

    def test_witness_is_first_minimum_leaf(self, c3):
        pairs = self._pairs(c3)
        rigid = 0
        for a, b in pairs:
            ca = canonical_form(a)
            full_b = _canon_search(b, 2_000_000)
            assert full_b.value == ca.bits
            rho = are_isomorphic(a, b)
            assert rho == full_b.leaf.inverse().compose(ca.witness)
            assert relabel(a, rho) == b
            rigid += not full_b.generators
        assert 0 < rigid < len(pairs)  # rigid and non-rigid pairs both occur

    def test_non_isomorphic_pairs(self, g7i, g7ii, g7iii):
        rng = random.Random(103)
        pairs = [(g7i, g7ii), (g7ii, g7iii), (g7iii, g7i), (_qr_game(23), circulant(23, range(1, 12)))]
        pairs += [(random_tournament(p, rng), random_tournament(p, rng)) for p in range(9, 16)]
        pairs += [(circulant(12, (1, 4)), circulant(12, (1, 5))), (circulant(8, (1, 3)), circulant(8, (1, 2)))]
        for a, b in pairs:
            assert canonical_form(a).bits != canonical_form(b).bits
            assert are_isomorphic(a, b) is None

    def test_targeted_search_stops_at_the_first_minimum_leaf(self):
        rng = random.Random(107)
        a = disjoint_walk(circulant(15, range(1, 8)), 6, rng)
        b = relabel(a, Permutation(rng.sample(range(15), 15)))
        full = _canon_search(b, 10_000)
        assert not full.generators and full.nodes == 16  # rigid: root and 15 leaves
        hit = _canon_search(b, 10_000, canonical_form(a).bits)
        assert (hit.value, hit.leaf) == (full.value, full.leaf)
        assert hit.nodes == 9  # it stops at the 8th of the 15 leaves
        miss = _canon_search(b, 10_000, full.value - 1)
        assert miss == full

    def test_aut_closure_matches_oracle(self, c3):
        graphs = [_qr_game(q) for q in (23, 31, 43)] + _symmetric_digraphs() + [lex_product(c3, c3)]
        graphs += [from_rows(0, []), from_rows(1, [0]), from_rows(2, [0b10, 0]), from_rows(2, [0, 0])]
        for g in graphs:
            assert [a.image for a in automorphisms(g)] == oracle_aut_closure(g)

    def test_closure_of_random_lists(self):
        # seeded lists of random permutations, repeats and the identity
        # included; a limit refuses exactly the groups larger than it
        rng = random.Random(5)
        for _ in range(60):
            p = rng.randint(1, 6)
            gens = [tuple(rng.sample(range(p), p)) for _ in range(rng.randint(0, 3))]
            gens += rng.sample(gens, min(len(gens), 1)) + [tuple(range(p))] * rng.randint(0, 1)
            want = oracle_closure(p, gens)
            assert _closure(p, gens) == want == _closure(p, gens, len(want))
            if len(want) > 1:  # the identity alone is never refused
                with pytest.raises(TooLarge):
                    _closure(p, gens, len(want) - 1)


class TestRigidity:
    def test_score_1122_tournament_rigid(self):
        # the 4-cycle 0->1->2->3->0 with chords 2->0 and 3->1
        t = make_digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 0), (3, 1)])
        assert scores(t) == (1, 1, 2, 2)
        assert rigid_by_scores(t) and is_rigid(t)

    def test_double_of_rigid_is_rigid_size9(self):
        t = make_digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 0), (3, 1)])
        g, _ = double(t)
        assert g.p == 9 and is_rigid(g)

    def test_c3_not_rigid(self, c3):
        assert not is_rigid(c3)


class TestClassify7:
    def test_fixtures(self, g7i, g7ii, g7iii):
        assert classify7(g7i) == "I"
        assert classify7(g7ii) == "II"
        assert classify7(g7iii) == "III"

    def test_relabeled_fixtures(self, g7i, g7ii, g7iii):
        rng = random.Random(67)
        for g, want in ((g7i, "I"), (g7ii, "II"), (g7iii, "III")):
            img = list(range(7))
            rng.shuffle(img)
            relabeled = relabel(g, Permutation(img))
            assert isinstance(relabeled, Game)
            assert classify7(relabeled) == want

    def test_realized_mixed_pair_is_type_iii(self, c3):
        from gamegraphs.construct import realize_pointed

        g, _ = realize_pointed(standard_order(3), c3)
        assert classify7(g) == "III"

    def test_bad_size(self, g5):
        with pytest.raises(BadSize):
            classify7(g5)

    def test_every_labeled_game_agrees_with_restriction_oracle(self):
        kinds = {"I": 0, "II": 0, "III": 0}
        for g in enumerate_games(7):
            kind = classify7(g)
            assert kind == oracle_classify7(g), g.rows
            kinds[kind] += 1
        # labeled counts 7!/|Aut|: |Aut| = 7, 21 and 3
        assert kinds == {"I": 720, "II": 240, "III": 1680}


class TestClassify9Group:
    def test_types(self):
        z9 = cyclic_group(9)
        assert classify9_group(GameSubset(z9, [1, 2, 3, 4])) == "I"
        assert classify9_group(GameSubset(z9, [1, 5, 6, 7])) == "II"
        assert classify9_group(GameSubset(z9, [1, 3, 4, 7])) == "III"
        assert classify9_group(GameSubset(z9, [1, 4, 6, 7])) == "III"

    def test_split_6_6_4(self):
        from gamegraphs.groups import enumerate_game_subsets

        z9 = cyclic_group(9)
        kinds = [classify9_group(A) for A in enumerate_game_subsets(z9)]
        assert sorted(kinds).count("I") == 6
        assert sorted(kinds).count("II") == 6
        assert sorted(kinds).count("III") == 4

    def test_wrong_group(self):
        z7 = cyclic_group(7)
        with pytest.raises(WrongGroup):
            classify9_group(GameSubset(z7, [1, 2, 3]))


class TestCheckProjection:
    def test_first_coordinate_of_product(self, c3):
        prod = lex_product(c3, c3)
        theta = [k // 3 for k in range(9)]
        rep = check_projection(theta, prod, c3)
        assert rep.is_morphism and rep.base_is_game
        assert rep.fibers_are_games and rep.fiber_sizes_equal

    def test_collapse_two_fibers(self, c3):
        # squash fibers 1 and 2 of C3 lex C3 to points: a 5-vertex non-game base
        prod = lex_product(c3, c3)
        theta = [0, 1, 2, 3, 3, 3, 4, 4, 4]
        base = make_digraph(
            5,
            [(0, 1), (1, 2), (2, 0)]
            + [(i, 3) for i in (0, 1, 2)]
            + [(3, 4)]
            + [(4, i) for i in (0, 1, 2)],
        )
        rep = check_projection(theta, prod, base)
        assert rep.is_morphism
        assert not rep.base_is_game
        assert scores(base) == (1, 2, 2, 2, 3)
        # a 3-cycle in the base whose preimage is a 7-vertex non-game
        pre, _ = restrict(prod, [0, 3, 4, 5, 6, 7, 8])
        assert pre.p == 7 and not classify_digraph(pre).is_game

    def test_identity(self, g5):
        rep = check_projection(list(range(5)), g5, g5)
        assert rep.is_morphism and rep.fiber_sizes_equal

    def test_not_surjective(self, g5, c3):
        with pytest.raises(NotSurjective):
            check_projection([0, 0, 0, 1, 1], g5, c3)

    def test_map_shorter_than_the_graph(self, c3):
        prod = lex_product(c3, c3)
        with pytest.raises(SizeMismatch, match="vertex map has 8 entries for 9 vertices"):
            check_projection([k // 3 for k in range(8)], prod, c3)

    def test_map_longer_than_the_graph(self, c3):
        prod = lex_product(c3, c3)
        with pytest.raises(SizeMismatch, match="vertex map has 10 entries for 9 vertices"):
            check_projection([k // 3 for k in range(9)] + [0], prod, c3)

    def test_morphism_against_pairwise_check(self):
        # generalized lex products with their projections, the same with one
        # pair between fibers reversed, and random surjections between
        # random digraphs
        rng = random.Random(457)
        cases = []
        for _ in range(60):
            gamma = random_tournament(rng.randint(1, 5), rng)
            fibers = [random_tournament(rng.randint(1, 3), rng) for _ in range(gamma.p)]
            big, theta = generalized_lex(gamma, fibers)
            cases.append((theta, big, gamma))
            cross = [(a, b) for (a, b) in big.edges() if theta[a] != theta[b]]
            if cross:
                a, b = rng.choice(cross)
                rows = list(big.rows)
                rows[a] ^= 1 << b
                rows[b] ^= 1 << a
                cases.append((theta, from_rows(big.p, rows), gamma))
        for _ in range(60):
            small = random_digraph(rng.randint(1, 4), rng)
            big = rng.choice([random_digraph, random_tournament])(rng.randint(small.p, 9), rng)
            theta = list(range(small.p)) + [rng.randrange(small.p) for _ in range(big.p - small.p)]
            rng.shuffle(theta)
            cases.append((theta, big, small))
        seen = set()
        for theta, big, small in cases:
            want = oracle_is_morphism(theta, big, small)
            assert check_projection(theta, big, small).is_morphism == want
            seen.add(want)
        assert seen == {True, False}

    def test_two_of_three_law(self, c3, g5):
        prod = lex_product(g5, c3)
        theta = [k // 3 for k in range(15)]
        rep = check_projection(theta, prod, g5)
        assert rep.is_morphism
        conds = [
            classify_digraph(prod).is_game,
            rep.base_is_game,
            rep.fibers_are_games and rep.fiber_sizes_equal,
        ]
        assert sum(conds) != 2  # any two imply the third


class TestAutProductLaw:
    def test_c3_c3(self, c3):
        rep = aut_product_law_check(c3, c3)
        assert rep.formula_order == 81 and rep.computed_order == 81 and rep.ok

    def test_c3_trivial(self, c3):
        triv = Game(1, (0,))
        rep = aut_product_law_check(c3, triv)
        assert rep.formula_order == 3 and rep.ok

    def test_g5_c3_formula_mode(self, g5, c3):
        rep = aut_product_law_check(g5, c3)
        assert rep.formula_order == 5 * 3 ** 5 == 1215
        assert rep.computed_order is None
        assert rep.verified_candidates == 1215 and rep.ok


class TestIsomorphismPathologies:
    def test_nonisomorphic_tournaments_with_isomorphic_doubles(self, c3):
        # one dominator above a 3-cycle vs one dominated below it
        pi = make_digraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 1)])
        gamma = make_digraph(4, [(1, 0), (2, 0), (3, 0), (1, 2), (2, 3), (3, 1)])
        assert are_isomorphic(pi, gamma) is None
        assert are_isomorphic(double(pi)[0], double(gamma)[0]) is not None

    def test_size13_rigid_not_self_reverse(self, g5):
        # attach a new vertex 5 beating 0..3 and beaten by 4
        from gamegraphs.core import from_rows

        rows = list(g5.rows) + [0b001111]
        rows[4] |= 1 << 5
        pi2 = from_rows(6, rows)
        assert scores(pi2) == (2, 2, 2, 2, 3, 4)
        g13, _ = double(pi2)
        assert g13.p == 13
        assert is_rigid(g13)
        assert are_isomorphic(g13, reverse(g13)) is None

    def test_size9_pair_with_order_three_groups(self):
        from gamegraphs.construct import reducibility_graph
        from gamegraphs.reversal import reverse_subgraph
        from gamegraphs.core import EdgeSet

        theta = make_digraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 1)])
        gam, lay = double(theta)
        upper_tri = EdgeSet(
            9, [(lay.plus(1), lay.plus(2)), (lay.plus(2), lay.plus(3)), (lay.plus(3), lay.plus(1))]
        )
        gbar = reverse_subgraph(gam, upper_tri)
        assert are_isomorphic(gam, gbar) is None
        assert automorphisms(gam).order == 3
        assert automorphisms(gbar).order == 3
        # reducibility shapes distinguish them
        assert reducibility_graph(gam).edges.edge_count() == 5
        assert reducibility_graph(gbar).edges.edge_count() == 2

    def test_two_reductions_of_one_double_differ(self, c3):
        pi, _ = double(c3)  # a type III game of size 7
        g2, _ = double(pi)  # its 15-vertex double
        # reduce at the pair over pi's base versus over one of pi's upper vertices
        a, _ = reduce_via(g2, 1 + 0, 1 + 7 + 0)
        b, _ = reduce_via(g2, 1 + 4, 1 + 7 + 4)
        assert a.p == b.p == 13
        assert are_isomorphic(a, b) is None


class TestPropReduce:
    def test_automorphisms_respect_reducibility_graph(self, g7i):
        from gamegraphs.construct import reducibility_graph

        rep = reducibility_graph(g7i)
        for rho in automorphisms(g7i):
            mapped = {(rho(i), rho(j)) for (i, j) in rep.edges.edges()}
            assert mapped == set(rep.edges.edges())

    def test_fixing_one_vertex_of_path_fixes_path(self):
        theta = make_digraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 1)])
        gam, _ = double(theta)
        from gamegraphs.construct import reducibility_graph

        rep = reducibility_graph(gam)
        long_path = max(rep.components, key=len)
        for rho in automorphisms(gam):
            if any(rho(v) == v for v in long_path):
                assert all(rho(v) == v for v in long_path)


class TestRigidRestrictionForcesTranslations:
    def test_initial_and_shifted_subsets_give_translations_only(self):
        for n in (4,):
            m = 2 * n + 1
            a1 = circulant(m, range(1, n + 1))
            assert automorphisms(a1).order == m
            shifted = list(range(1, n)) + [n + 1]
            a2 = circulant(m, shifted)
            sub, _ = restrict(a2, shifted)
            assert rigid_by_scores(sub)
            assert automorphisms(a2).order == m
