import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from gamegraphs.core import Game, Permutation, circulant, from_rows, relabel, restrict, reverse
from gamegraphs.errors import (
    BadAction,
    BadPrime,
    EvenOrder,
    EvenOrderSubgroup,
    ExtraAutomorphisms,
    InvariantViolation,
    NotGameSubset,
    NotPairSubset,
    NotSubgroup,
    ParseError,
    TooLarge,
    VertexOutOfRange,
)
from gamegraphs import groups
from gamegraphs.groups import (
    FiniteGroup,
    GameSubset,
    cyclic_action_subgame,
    cyclic_group,
    direct_product,
    double_cosets,
    enumerate_game_subsets,
    euler_phi,
    group_automorphisms,
    group_game,
    h_invariant_subsets,
    is_fermat_square_free,
    is_pair_game_subset,
    isomorphic_subset_family,
    lex_factorization_check,
    multiplication_map,
    orbit_subgame,
    pair_game_subsets,
    parse_group,
    parse_subset,
    quadratic_residue_subset,
    quotient_game,
    semidirect_cyclic,
    serialize_group,
    serialize_subset,
    subgroup_group,
    translation_perms,
    units,
)
from gamegraphs.morph import are_isomorphic, automorphisms

from conftest import (
    all_reduced_latin_squares,
    oracle_closure,
    oracle_game_subsets,
    oracle_group_automorphisms,
    oracle_group_game,
    oracle_is_group_automorphism,
    oracle_is_associative,
    oracle_lex_factorization,
    oracle_quotient_game,
    oracle_relabelled_cyclic_automorphisms,
    relabelled_group,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def _dp(*orders):
    """Z_{orders[0]} x Z_{orders[1]} x ..., as nested direct products."""
    G = cyclic_group(orders[0])
    for m in orders[1:]:
        G = direct_product(G, cyclic_group(m))
    return G

# The certificates in groups must raise even when asserts are stripped.  Each
# case breaks what one check relies on and prints its name when that check
# raises InvariantViolation.
_BROKEN_CERTIFICATES = """
from unittest import mock

from gamegraphs import groups
from gamegraphs.core import Digraph, Permutation, circulant, reverse
from gamegraphs.errors import InvariantViolation

if __debug__:
    raise SystemExit("asserts are live")
z7 = groups.cyclic_group(7)
g7 = circulant(7, (1, 2, 3))
qr7 = groups.GameSubset(z7, [1, 2, 4])
quotient_game = groups.quotient_game


def reversed_quotient(T, H, A):
    q, cosets, rest = quotient_game(T, H, A)
    return reverse(q), cosets, rest


cases = [
    ("group_game", mock.patch.object(groups, "from_rows", Digraph),
     lambda: groups.group_game(z7, qr7)),
    ("quotient", mock.patch.object(groups, "from_rows", Digraph),
     lambda: groups.quotient_game(z7, [0], qr7)),
    ("fermat", mock.patch.object(groups, "euler_phi", lambda m: 6),
     lambda: groups.is_fermat_square_free(15)),
    ("h_invariant", mock.patch.object(groups.GameSubset, "apply", lambda self, xi: None),
     lambda: groups.h_invariant_subsets(z7, [Permutation.identity(7)])),
    ("subgame", mock.patch.object(groups, "restrict", lambda g, J: (circulant(7, (1,)), None)),
     lambda: groups.orbit_subgame(g7, z7, groups.translation_perms(z7), 0)),
    ("chart", mock.patch.object(groups, "quotient_game", reversed_quotient),
     lambda: groups.orbit_subgame(g7, z7, groups.translation_perms(z7), 0)),
]
for name, patch, run in cases:
    with patch:
        try:
            run()
        except InvariantViolation:
            print(name)
"""


class TestConstructors:
    def test_z7(self):
        G = cyclic_group(7)
        assert G.m == 7 and G.mult(3, 5) == 1 and G.inverse(2) == 5

    def test_product_z3_z3(self):
        G = direct_product(cyclic_group(3), cyclic_group(3))
        assert G.m == 9
        assert all(G.element_order(x) in (1, 3) for x in range(9))

    def test_semidirect_21_nonabelian(self):
        G = semidirect_cyclic(3, 7, 2)
        assert G.m == 21
        assert any(G.mult(a, b) != G.mult(b, a) for a in range(21) for b in range(21))

    def test_semidirect_bad_action(self):
        with pytest.raises(BadAction):
            semidirect_cyclic(3, 7, 3)  # 3^3 = 27 = 6 mod 7

    def test_semidirect_on_the_trivial_group(self):
        # a^q = 1 mod 1 holds for every a: Z_3 acting on Z_1 is Z_3
        assert semidirect_cyclic(3, 1, 1).table == cyclic_group(3).table

    def test_group_text_round_trip(self):
        G = semidirect_cyclic(3, 7, 2)
        assert parse_group(serialize_group(G)) == G

    @pytest.mark.parametrize("build", [
        lambda: cyclic_group(257),
        lambda: cyclic_group(10 ** 6),
        lambda: direct_product(cyclic_group(63), cyclic_group(63)),
        lambda: semidirect_cyclic(3, 97, 35),
        lambda: semidirect_cyclic(1, 10 ** 6 + 3, 1),
        lambda: FiniteGroup([[(i + j) % 257 for j in range(257)] for i in range(257)]),
        lambda: parse_group("group 5000\n"),
    ], ids=["Z257", "Z1000000", "Z63xZ63", "Z3xZ97", "Z1xZ1000003", "table257", "file5000"])
    def test_order_above_the_limit_is_too_large(self, build):
        # the orders of 10^6 and 63^2 would take hours to check: the check
        # comes before the table
        with pytest.raises(TooLarge):
            build()

    def test_order_above_the_largest_game_is_built(self):
        # Z75 has no group game, but its quotient by {0, 25, 50} is one on
        # 25 vertices: A holds 25 and every element that is 1..12 mod 25
        z75 = cyclic_group(75)
        A = GameSubset(z75, [25] + [x for x in range(75) if 1 <= x % 25 <= 12])
        q, cosets, _ = quotient_game(z75, [0, 25, 50], A)
        assert q == circulant(25, range(1, 13)) and len(cosets) == 25


class TestAssociativity:
    """The table check against the check of every triple."""

    # identity 0, every element its own inverse, 36 non-associative triples
    LOOP5 = ("01234", "10342", "24013", "32401", "43120")

    def test_order5_loop_is_rejected(self):
        table = [[int(c) for c in row] for row in self.LOOP5]
        assert not oracle_is_associative(table)
        with pytest.raises(InvariantViolation, match="table is not associative"):
            FiniteGroup(table)

    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_every_identity_latin_square(self, m):
        # 4, 56 and 9,408 tables, of which 4, 6 and 80 are groups; a
        # non-associative one fails on inverses or on associativity
        groups_found = 0
        for table in all_reduced_latin_squares(m):
            if oracle_is_associative(table):
                assert FiniteGroup(table).table == table
                groups_found += 1
            else:
                with pytest.raises(InvariantViolation):
                    FiniteGroup(table)
        assert groups_found == {4: 4, 5: 6, 6: 80}[m]


class TestArithmetic:
    def test_phi_values(self):
        assert euler_phi(7) == 6
        assert euler_phi(9) == 6
        assert euler_phi(1) == 1
        assert euler_phi(21) == 12

    def test_units(self):
        assert units(9) == (1, 2, 4, 5, 7, 8)

    def test_phi_counts_the_units(self):
        assert all(euler_phi(m) == len(units(m)) for m in range(1, 3000))

    def test_phi_of_a_large_prime_factors_it(self):
        assert euler_phi(100_000_007) == 100_000_006
        assert euler_phi(2 ** 40) == 2 ** 39
        with pytest.raises(TooLarge):
            euler_phi(2 ** 40 + 1)

    def test_fermat_square_free(self):
        assert is_fermat_square_free(15)  # 3 * 5
        assert is_fermat_square_free(3) and is_fermat_square_free(5)
        assert not is_fermat_square_free(9)
        assert not is_fermat_square_free(21)
        assert not is_fermat_square_free(25)
        assert not is_fermat_square_free(27)


class TestGameSubsets:
    def test_counts(self):
        assert len(enumerate_game_subsets(cyclic_group(3))) == 2
        assert len(enumerate_game_subsets(cyclic_group(7))) == 8
        assert len(enumerate_game_subsets(cyclic_group(9))) == 16

    def test_even_order_rejected(self):
        with pytest.raises(EvenOrder):
            enumerate_game_subsets(FiniteGroup([[(i + j) % 4 for j in range(4)] for i in range(4)]))

    def test_validation(self):
        z7 = cyclic_group(7)
        with pytest.raises(NotGameSubset):
            GameSubset(z7, [0, 1, 2])
        with pytest.raises(NotGameSubset):
            GameSubset(z7, [1, 6, 2])

    def test_element_list_in_range_and_distinct(self):
        # every list of four elements of Z7 with a repeat or an outsider
        z7 = cyclic_group(7)
        assert GameSubset(z7, [1, 2, 3]).mask == 0b1110
        for elems in product(range(-1, 8), repeat=4):
            if len(set(elems)) < 4 or not all(0 <= e < 7 for e in elems):
                with pytest.raises(NotGameSubset):
                    GameSubset(z7, elems)

    def test_subset_text_round_trip(self):
        z9 = cyclic_group(9)
        A = GameSubset(z9, [1, 3, 4, 7])
        assert parse_subset(serialize_subset(A), z9) == A

    @pytest.mark.parametrize("text", ["subset x 0110100", "subset 7", "set 7 0110100", "subset 7 01101"])
    def test_bad_subset_text(self, text):
        with pytest.raises(ParseError):
            parse_subset(text, cyclic_group(7))


def _generated(gens, mult, one):
    """The subgroup the gens generate: products of gens until closed."""
    out, frontier = {one}, [one]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = mult(g, x)
            if y not in out:
                out.add(y)
                frontier.append(y)
    return frozenset(out)


def _two_generated(elems, mult, one):
    """Every subgroup generated by at most two of elems; for the groups
    below that is every subgroup."""
    return {_generated((a, b), mult, one) for a in elems for b in elems}


_ORACLE_GROUPS = {
    "Z7": cyclic_group(7),
    "Z9": cyclic_group(9),
    "Z15": cyclic_group(15),
    "Z3xZ3": direct_product(cyclic_group(3), cyclic_group(3)),
}


class TestOneEnumerator:
    """Each family against a scan of every mask for its defining property."""

    @pytest.mark.parametrize("name", _ORACLE_GROUPS)
    def test_families_match_the_oracle(self, name):
        G = _ORACLE_GROUPS[name]

        def masks(family):
            return [A.mask for A in family]

        assert masks(enumerate_game_subsets(G)) == oracle_game_subsets(G, lambda A: True)
        subgroups = _two_generated(range(G.m), G.mult, 0)
        for H in subgroups:
            def closed(A, H=H):
                return all(G.mult(G.mult(h1, i), h2) in A for i in A - H for h1 in H for h2 in H)

            family = pair_game_subsets(G, H)
            assert masks(family) == oracle_game_subsets(G, closed)
            assert all(is_pair_game_subset(G, H, A) for A in family)
        odd = [xi for xi in group_automorphisms(G) if xi.order() % 2]
        aut_subgroups = [
            H for H in _two_generated(odd, Permutation.compose, Permutation.identity(G.m))
            if len(H) % 2
        ]
        for H in aut_subgroups:
            def invariant(A, H=H):
                return all(frozenset(xi(e) for e in A) == A for xi in H)

            assert masks(h_invariant_subsets(G, H)) == oracle_game_subsets(G, invariant)
        # the scans above reached every subgroup and every odd-order Aut subgroup
        assert (len(subgroups), len(aut_subgroups)) == {
            "Z7": (2, 2), "Z9": (3, 2), "Z15": (4, 1), "Z3xZ3": (6, 5),
        }[name]

    @pytest.mark.parametrize("family", [
        enumerate_game_subsets,
        lambda G: pair_game_subsets(G, [0]),
        lambda G: h_invariant_subsets(G, [Permutation.identity(G.m)]),
    ], ids=["all", "pair", "h_invariant"])
    def test_budget_is_checked_before_building(self, monkeypatch, family):
        z35 = cyclic_group(35)  # 17 inverse pairs: 2^17 subsets, over the 2^16 budget
        monkeypatch.setattr(groups, "GameSubset", None)  # building one would fail
        with pytest.raises(TooLarge):
            family(z35)


class TestGroupGame:
    def test_circulant_equalities(self, g5, g7i, g7ii):
        z5, z7 = cyclic_group(5), cyclic_group(7)
        assert group_game(z5, GameSubset(z5, [1, 2])) == g5
        assert group_game(z7, GameSubset(z7, [1, 2, 3])) == g7i
        assert group_game(z7, GameSubset(z7, [1, 2, 4])) == g7ii

    def test_translations_are_automorphisms(self):
        G = direct_product(cyclic_group(3), cyclic_group(3))
        A = enumerate_game_subsets(G)[5]
        g = group_game(G, A)
        for t in translation_perms(G):
            assert relabel(g, t) == g

    def test_reverse_is_inverse_subset(self):
        z9 = cyclic_group(9)
        A = GameSubset(z9, [1, 3, 4, 7])
        assert reverse(group_game(z9, A)) == group_game(z9, A.inverse_subset())

    def test_translation_invariant_iff_group_game(self):
        z7 = cyclic_group(7)
        for A in enumerate_game_subsets(z7):
            g = group_game(z7, A)
            assert g.out_set(0) == A.elements()  # A is recovered as Pi(e)
        # a relabeled circulant is generally not translation-invariant
        g = circulant(7, (1, 2, 3))
        bad = relabel(g, Permutation([0, 2, 1, 3, 4, 5, 6]))
        assert any(relabel(bad, t) != bad for t in translation_perms(z7))

    def test_restriction_to_subgroup(self):
        z9 = cyclic_group(9)
        A = GameSubset(z9, [1, 3, 4, 7])
        g = group_game(z9, A)
        sub, _ = restrict(g, [0, 3, 6])
        Hgrp, hlist = subgroup_group(z9, [0, 3, 6])
        inner = GameSubset(Hgrp, [hlist.index(3)])
        assert sub == group_game(Hgrp, inner)


class TestGroupAutomorphisms:
    def test_z7_units(self):
        ga = group_automorphisms(cyclic_group(7))
        assert ga.order == 6
        assert multiplication_map(7, 3) in set(ga.perms)

    def test_z3(self):
        assert group_automorphisms(cyclic_group(3)).order == 2

    def test_z3xz3_gl23(self):
        assert group_automorphisms(direct_product(cyclic_group(3), cyclic_group(3))).order == 48

    def test_standard_cyclic_table_is_read_in_place(self, monkeypatch):
        z63 = cyclic_group(63)
        monkeypatch.setattr(groups, "cyclic_group", None)  # building another would fail
        ga = group_automorphisms(z63)
        assert ga.perms == tuple(multiplication_map(63, a) for a in units(63))

    def test_z3xz3_matches_the_brute_force_oracle(self):
        G = direct_product(cyclic_group(3), cyclic_group(3))
        assert list(group_automorphisms(G).perms) == oracle_group_automorphisms(G)

    @pytest.mark.parametrize("m, a, b", [(m, a, b) for m in (5, 7) for a in range(1, m) for b in range(a + 1, m)])
    def test_transposed_cyclic_table_matches_the_brute_force_oracle(self, m, a, b):
        image = list(range(m))
        image[a], image[b] = b, a
        G = relabelled_group(cyclic_group(m), Permutation(image))
        assert list(group_automorphisms(G).perms) == oracle_group_automorphisms(G)

    def test_relabelled_cyclic_tables_match_the_conjugated_units(self):
        # orders up to the group limit, each under a seeded relabelling
        for m in [*range(1, 10), *range(11, 64, 2), *range(65, 256, 14), 255]:
            rest = list(range(1, m))
            random.Random(m).shuffle(rest)
            sigma = Permutation([0] + rest)
            got = group_automorphisms(relabelled_group(cyclic_group(m), sigma))
            assert list(got.perms) == oracle_relabelled_cyclic_automorphisms(m, sigma), m

    def test_relabelled_cyclic_table_is_searched(self):
        # Z_m with 1 and 2 swapped: cyclic, but not the standard table, so its
        # automorphisms are the unit maps conjugated by the swap
        for m in (7, 11):
            swap = Permutation([0, 2, 1] + list(range(3, m)))
            zm = cyclic_group(m)
            want = {swap.compose(multiplication_map(m, a)).compose(swap) for a in units(m)}
            ga = group_automorphisms(relabelled_group(zm, swap))
            assert set(ga.perms) == want != set(group_automorphisms(zm).perms)

    def test_choice_budget_is_checked_before_any_choice(self, monkeypatch):
        # Z3^4: 80^4 = 40,960,000 choices of images for its four generators
        G = _dp(3, 3, 3, 3)
        monkeypatch.setattr(groups, "product", None)  # trying a choice would fail
        with pytest.raises(TooLarge, match="40960000 choices"):
            group_automorphisms(G)

    # |Aut| from closed forms: |GL(n, q)| for the elementary abelian groups,
    # 81 |GL(2, 3)| for Z9 x Z9, |Hol(Z7)| for F21 = Z3 x| Z7, 108 for Z3 x Z9
    AUT_ORDERS = {
        "Z3xZ9": (lambda: _dp(3, 9), 108),
        "F21": (lambda: semidirect_cyclic(3, 7, 2), 42),
        "Z5xZ5": (lambda: _dp(5, 5), 480),
        "Z3^3": (lambda: _dp(3, 3, 3), 11_232),
        "Z7xZ7": (lambda: _dp(7, 7), 2_016),
        "Z9xZ9": (lambda: _dp(9, 9), 3_888),
        "Z11xZ11": (lambda: _dp(11, 11), 13_200),
        "Z13xZ13": (lambda: _dp(13, 13), 26_208),
    }

    @pytest.mark.parametrize("name", AUT_ORDERS)
    def test_orders_match_closed_forms(self, name):
        build, order = self.AUT_ORDERS[name]
        G = build()
        perms = group_automorphisms(G).perms
        assert len(perms) == order == len(set(perms))
        assert list(perms) == sorted(perms, key=lambda q: q.image)
        # every map under the all-pairs test; a seeded sample of the largest
        sample = perms if order * G.m ** 2 <= 5_000_000 else random.Random(order).sample(perms, 100)
        assert all(oracle_is_group_automorphism(G, xi.image) for xi in sample)

    @pytest.mark.parametrize("name", ["Z3xZ9", "F21"])
    def test_invariant_subsets_of_noncyclic_groups(self, name):
        # every cyclic subgroup of odd order in Aut, against a filter of all
        # game subsets by invariance under its generator.  Aut(F21) is
        # Hol(Z7): the trivial group, one of order 7 and seven of order 3.
        G = self.AUT_ORDERS[name][0]()
        everything = [(A.mask, frozenset(A.elements())) for A in enumerate_game_subsets(G)]
        seen = set()
        for xi in group_automorphisms(G):
            if xi.order() % 2 == 0:
                continue
            H = [Permutation.identity(G.m)]
            while len(H) < xi.order():
                H.append(xi.compose(H[-1]))
            if frozenset(H) in seen:
                continue
            seen.add(frozenset(H))
            want = [mask for mask, elems in everything if frozenset(map(xi, elems)) == elems]
            assert [A.mask for A in h_invariant_subsets(G, H)] == want
        assert len(seen) == {"Z3xZ9": 14, "F21": 9}[name]


class TestIsomorphicSubsetFamily:
    def test_z7_type1_family_of_six(self):
        z7 = cyclic_group(7)
        fam = isomorphic_subset_family(z7, GameSubset(z7, [1, 2, 3]))
        assert len(fam) == 6
        base = group_game(z7, GameSubset(z7, [1, 2, 3]))
        for A in fam:
            assert are_isomorphic(group_game(z7, A), base) is not None

    def test_g7ii_has_extra_automorphisms(self):
        z7 = cyclic_group(7)
        with pytest.raises(ExtraAutomorphisms):
            isomorphic_subset_family(z7, GameSubset(z7, [1, 2, 4]))

    def test_z9_type1_family_of_six(self):
        z9 = cyclic_group(9)
        fam = isomorphic_subset_family(z9, GameSubset(z9, [1, 2, 3, 4]))
        assert len(fam) == 6


class TestHInvariantSubsets:
    def test_z9_order3_subgroup(self):
        H = [multiplication_map(9, a) for a in (1, 4, 7)]
        subs = h_invariant_subsets(cyclic_group(9), H)
        masks = {s.mask for s in subs}
        assert len(subs) == 4
        assert sum(1 << x for x in (1, 4, 7, 3)) in masks
        assert sum(1 << x for x in (1, 4, 7, 6)) in masks

    def test_z7_qr_subgroup(self):
        H = [multiplication_map(7, a) for a in (1, 2, 4)]
        subs = h_invariant_subsets(cyclic_group(7), H)
        assert {s.mask for s in subs} == {
            sum(1 << x for x in (1, 2, 4)),
            sum(1 << x for x in (3, 5, 6)),
        }

    def test_trivial_subgroup_gives_all(self):
        H = [Permutation.identity(7)]
        assert len(h_invariant_subsets(cyclic_group(7), H)) == 8

    @pytest.mark.parametrize("units, count", [
        ((1, 2), 2), ((2,), 2), ((1, 2, 2), 2), ((4, 2), 2), ((1, 1), 8), ((), 8),
    ])
    def test_a_list_stands_for_the_group_it_generates(self, units, count):
        # x -> 2x generates {1, 2, 4}: repeats and a missing identity change nothing
        H = [multiplication_map(7, a) for a in units]
        assert len(h_invariant_subsets(cyclic_group(7), H)) == count

    def test_even_closure_is_refused_before_any_block(self, monkeypatch):
        monkeypatch.setattr(groups, "_block_subsets", None)  # building blocks would fail
        with pytest.raises(EvenOrderSubgroup, match="order 2"):
            h_invariant_subsets(cyclic_group(7), [multiplication_map(7, 6)])
        with pytest.raises(EvenOrderSubgroup, match="order 6"):
            h_invariant_subsets(cyclic_group(7), [multiplication_map(7, 2), multiplication_map(7, 6)])

    def test_closure_budget(self, monkeypatch):
        # the budget counts elements x order: x -> 2x on Z7 closes to 3 maps, 21
        H = [multiplication_map(7, 2)]
        monkeypatch.setattr(groups, "_AUT_WORK", 20)
        with pytest.raises(TooLarge):
            h_invariant_subsets(cyclic_group(7), H)
        monkeypatch.setattr(groups, "_AUT_WORK", 21)
        assert len(h_invariant_subsets(cyclic_group(7), H)) == 2

    @pytest.mark.parametrize("name", _ORACLE_GROUPS)
    def test_lists_against_a_brute_force_closure(self, name):
        G = _ORACLE_GROUPS[name]
        auts = list(group_automorphisms(G))
        rng = random.Random(7)
        lists = [[]] + [[a] for a in auts] + [rng.choices(auts, k=rng.randint(2, 3)) for _ in range(40)]
        for H in lists:
            closure = oracle_closure(G.m, [xi.image for xi in H])
            if len(closure) % 2 == 0:
                with pytest.raises(EvenOrderSubgroup):
                    h_invariant_subsets(G, H)
                continue

            def invariant(A, closure=closure):
                return all(frozenset(xi[e] for e in A) == A for xi in closure)

            assert [A.mask for A in h_invariant_subsets(G, H)] == oracle_game_subsets(G, invariant)


class TestQuadraticResidues:
    def test_examples(self):
        assert quadratic_residue_subset(7).elements() == (1, 2, 4)
        assert quadratic_residue_subset(11).elements() == (1, 3, 4, 5, 9)

    def test_bad_primes(self):
        with pytest.raises(BadPrime):
            quadratic_residue_subset(5)
        with pytest.raises(BadPrime):
            quadratic_residue_subset(9)

    def test_neighborhood_subgames(self):
        # restrictions to both neighborhoods of any vertex are subgames
        # isomorphic to one cyclic group game (here p = 7 and 11)
        for p in (7, 11):
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
                    assert are_isomorphic(sub, ref) is not None
            # and that common subgame is a cyclic group game
            z = cyclic_group(m)
            hit = any(
                are_isomorphic(ref, group_game(z, B)) is not None
                for B in enumerate_game_subsets(z)
            )
            assert hit


class TestDoubleCosets:
    def test_z9(self):
        dc = double_cosets(cyclic_group(9), [0, 3, 6])
        assert dc.blocks == ((0, 3, 6), (1, 4, 7), (2, 5, 8))
        assert dc.inverse_block[1] == 2 and dc.inverse_block[2] == 1

    def test_trivial_subgroup(self):
        dc = double_cosets(cyclic_group(5), [0])
        assert len(dc.blocks) == 5

    def test_z21_subgroup_of_order_3(self):
        dc = double_cosets(cyclic_group(21), [0, 7, 14])
        assert len(dc.blocks) == 7

    def test_nonabelian_double_cosets_can_be_fat(self):
        G = semidirect_cyclic(3, 7, 2)
        H = [x * 7 for x in range(3)]  # the acting Z3, elements (x, 0)
        dc = double_cosets(G, H)
        sizes = sorted(len(b) for b in dc.blocks)
        assert sizes[0] == 3 and sum(sizes) == 21

    def test_not_subgroup(self):
        with pytest.raises(NotSubgroup):
            double_cosets(cyclic_group(9), [0, 3, 5])


class TestPairGameSubsets:
    def test_z9_has_four(self):
        subs = pair_game_subsets(cyclic_group(9), [0, 3, 6])
        assert len(subs) == 4
        masks = {s.mask for s in subs}
        assert sum(1 << x for x in (1, 4, 7, 3)) in masks

    def test_z3xz3_sixteen_total(self):
        G = direct_product(cyclic_group(3), cyclic_group(3))
        subgroups = []
        for x in range(1, 9):
            H = tuple(sorted({0, x, G.mult(x, x)}))
            if H not in subgroups:
                subgroups.append(H)
        assert len(subgroups) == 4
        seen = set()
        for H in subgroups:
            subs = pair_game_subsets(G, H)
            assert len(subs) == 4
            seen.update(s.mask for s in subs)
        assert len(seen) == 16  # every game subset of Z3 x Z3 is a pair subset

    def test_trivial_subgroup_gives_all(self):
        z7 = cyclic_group(7)
        assert len(pair_game_subsets(z7, [0])) == 8


class TestQuotientGame:
    def test_z9_three_cycle_of_three_cycles(self, c3):
        z9 = cyclic_group(9)
        A = GameSubset(z9, [1, 3, 4, 7])
        q, cosets, proj = quotient_game(z9, [0, 3, 6], A)
        assert q.p == 3 and q == c3
        assert cosets == [(0, 3, 6), (1, 4, 7), (2, 5, 8)]
        # projection is a morphism
        g = group_game(z9, A)
        from gamegraphs.morph import check_projection

        rep = check_projection(proj, g, q)
        assert rep.is_morphism and rep.fibers_are_games

    def test_trivial_subgroup_returns_game_itself(self):
        z7 = cyclic_group(7)
        A = GameSubset(z7, [1, 2, 4])
        q, _, _ = quotient_game(z7, [0], A)
        assert q == group_game(z7, A)

    def test_normal_quotient_equals_base_game(self):
        # Z15 with the order-5 kernel {0,3,...,12} projecting onto Z3:
        # A = A0 union pullback(B) makes the quotient literally Gamma[B]
        z15 = cyclic_group(15)
        A0 = [3, 6]  # a game subset of the kernel (= {1,2} of Z5 under j -> 3j)
        pullback = [x for x in range(1, 15) if x % 3 == 1]
        A = GameSubset(z15, A0 + pullback)
        q, cosets, _ = quotient_game(z15, [0, 3, 6, 9, 12], A)
        z3 = cyclic_group(3)
        assert q == group_game(z3, GameSubset(z3, [1]))

    def test_not_pair_subset(self):
        z9 = cyclic_group(9)
        with pytest.raises(NotPairSubset):
            quotient_game(z9, [0, 3, 6], GameSubset(z9, [1, 2, 3, 4]))

    def test_subset_of_another_group_is_refused(self):
        # Z9's table read through a mask of Z3 x Z3 is no game subset of Z9,
        # so every one is refused before a game is built from it
        z9 = cyclic_group(9)
        for A in enumerate_game_subsets(direct_product(cyclic_group(3), cyclic_group(3))):
            assert not is_pair_game_subset(z9, [0], A)
            with pytest.raises(NotPairSubset):
                quotient_game(z9, [0], A)


def _oracle_groups() -> list:
    """Z_m for odd m <= 27, Z3 x Z3, Z3 x Z9 and the nonabelian F21."""
    return [
        *(cyclic_group(m) for m in range(3, 28, 2)),
        direct_product(cyclic_group(3), cyclic_group(3)),
        direct_product(cyclic_group(3), cyclic_group(9)),
        semidirect_cyclic(3, 7, 2),
    ]


def _cyclic_subgroups(G: FiniteGroup) -> list:
    """Every cyclic subgroup of G, as a sorted element tuple."""
    out = set()
    for x in range(G.m):
        H, y = {0}, x
        while y:
            H.add(y)
            y = G.mult(y, x)
        out.add(tuple(sorted(H)))
    return sorted(out)


def _pair_subsets(G: FiniteGroup, hs, count: int, rng: random.Random) -> list:
    """Up to count distinct pair game subsets of (G, H), each choosing one
    block from every inverse pair of blocks at random."""
    blocks = [*double_cosets(G, hs).blocks[1:], *((h,) for h in hs[1:])]
    block_of = {x: b for b in blocks for x in b}
    pairs = [(b, block_of[G.inverse(b[0])]) for b in blocks if b < block_of[G.inverse(b[0])]]
    seen = {}
    for _ in range(count):
        mask = sum(1 << x for pair in pairs for x in rng.choice(pair))
        seen.setdefault(mask, GameSubset(G, mask))
    return list(seen.values())


def _outcome(call):
    try:
        return call()
    except VertexOutOfRange as exc:
        return type(exc), str(exc)


class TestTranslationOracles:
    @pytest.mark.parametrize("G", _oracle_groups(), ids=repr)
    def test_group_game_agrees_with_pairwise_oracle(self, G):
        for A in enumerate_game_subsets(G)[:64]:
            assert group_game(G, A) == oracle_group_game(G, A), A

    @pytest.mark.parametrize("G", [*_oracle_groups(), cyclic_group(75)], ids=repr)
    def test_quotient_and_factorization_agree_with_oracles(self, G):
        # every factorization of Z75, and its quotient by {0}, passes 64
        # vertices: the same VertexOutOfRange must end both sides
        rng = random.Random(G.m)
        for hs in _cyclic_subgroups(G):
            for A in _pair_subsets(G, hs, 32, rng):
                got = _outcome(lambda: quotient_game(G, hs, A))
                assert got == _outcome(lambda: oracle_quotient_game(G, hs, A)), (hs, A)
                got = _outcome(lambda: lex_factorization_check(G, hs, A))
                assert got == _outcome(lambda: oracle_lex_factorization(G, hs, A)), (hs, A)


class TestLexFactorization:
    def test_z9_type3(self):
        z9 = cyclic_group(9)
        A = GameSubset(z9, [1, 3, 4, 7])
        w = lex_factorization_check(z9, [0, 3, 6], A)
        assert len(w) == 9  # verified inside

    def test_all_z3xz3_subsets_factor(self):
        G = direct_product(cyclic_group(3), cyclic_group(3))
        for A in enumerate_game_subsets(G):
            hit = False
            for x in range(1, 9):
                H = sorted({0, x, G.mult(x, x)})
                try:
                    lex_factorization_check(G, H, A)
                    hit = True
                    break
                except NotPairSubset:
                    continue
            assert hit

    def test_trivial_subgroup_identity_witness(self):
        z7 = cyclic_group(7)
        A = GameSubset(z7, [1, 2, 4])
        w = lex_factorization_check(z7, [0], A)
        assert w == Permutation.identity(7)


class TestOrbitSubgame:
    def test_full_translation_action(self, g7i):
        z7 = cyclic_group(7)
        action = translation_perms(z7)
        rep = orbit_subgame(g7i, z7, action, 0)
        assert rep.orbit == tuple(range(7))
        assert rep.restriction == g7i
        assert relabel(rep.quotient, rep.witness) == g7i

    def test_type3_automorphism_orbit(self, g7iii):
        # Aut(G7III) = multiplications by 1, 2, 4 with 0 fixed
        xi = Permutation([(2 * i) % 7 for i in range(7)])
        assert relabel(g7iii, xi) == g7iii
        rep = cyclic_action_subgame(g7iii, xi, 1)
        assert rep.orbit == (1, 2, 4)
        assert rep.restriction.p == 3

    def test_cyclic_automorphism_cycle_gives_cyclic_game(self, g7ii):
        # a translation of the circulant: its 7-cycle orbit carries a cyclic group game
        xi = Permutation([(i + 1) % 7 for i in range(7)])
        rep = cyclic_action_subgame(g7ii, xi, 0)
        assert rep.restriction == g7ii
        z7 = cyclic_group(7)
        ok = any(
            rep.quotient == group_game(z7, B) for B in enumerate_game_subsets(z7)
        )
        assert ok

    def test_automorphism_of_order_above_the_largest_game(self):
        # blocks of 11, 11 and 7 on 29 vertices: xi has order 77, more than
        # any game's vertex count, and acts on each block as a rotation
        g, xi = _three_orbit_game(11, 7)
        assert xi.order() == 77 and relabel(g, xi) == g
        for a, block in ((0, range(11)), (11, range(11, 22)), (22, range(22, 29))):
            rep = cyclic_action_subgame(g, xi, a)
            assert rep.orbit == tuple(block)
            assert relabel(rep.quotient, rep.witness) == rep.restriction

    def test_automorphism_order_past_the_limit_is_too_large(self):
        # blocks of 19, 19 and 15 on 53 vertices: order 285, refused before
        # its cyclic group is tabulated
        g, xi = _three_orbit_game(19, 15)
        assert xi.order() == 285 and relabel(g, xi) == g
        with pytest.raises(TooLarge):
            cyclic_action_subgame(g, xi, 0)


def _three_orbit_game(n: int, k: int) -> tuple[Game, Permutation]:
    """A game on blocks A, B of n vertices and C of k < n, with the
    automorphism that rotates each block, of order lcm(n, k).

    Each block is a circulant; a_i -> b_j exactly when j - i mod n is below
    (n - k)/2, A -> C and C -> B, so every vertex wins (2n + k - 1)/2.
    """
    p = 2 * n + k
    rows = [0] * p
    for base, size in ((0, n), (n, n), (2 * n, k)):
        for i in range(size):
            for d in range(1, (size + 1) // 2):
                rows[base + i] |= 1 << (base + (i + d) % size)
    for i in range(n):
        for j in range(n):
            if (j - i) % n < (n - k) // 2:
                rows[i] |= 1 << (n + j)
            else:
                rows[n + j] |= 1 << i
        for c in range(2 * n, p):
            rows[i] |= 1 << c
            rows[c] |= 1 << (n + i)
    g = from_rows(p, rows)
    assert isinstance(g, Game)
    xi = Permutation([(i + 1) % n for i in range(n)] + [n + (i + 1) % n for i in range(n)]
                     + [2 * n + (i + 1) % k for i in range(k)])
    return g, xi


class TestActionFacts:
    def test_free_odd_action_fixing_half_set_is_identity(self):
        # a free odd-order action fixing a half-size set must be trivial
        z7 = cyclic_group(7)
        for A in enumerate_game_subsets(z7):
            for t in range(1, 7):
                shifted = {z7.mult(t, a) for a in A.elements()}
                assert shifted != set(A.elements())

    def test_orbit_count_parity(self):
        # an odd-order group acting on an odd set leaves an odd orbit count
        G = cyclic_group(9)
        acts = translation_perms(G)
        for H_elems in ([0], [0, 3, 6], list(range(9))):
            orbits = set()
            for x in range(9):
                orbits.add(frozenset(acts[h](x) for h in H_elems))
            assert len(orbits) % 2 == 1

    def test_pointgame_score_characterization(self):
        # prime sizes up to 11: an element of A scoring n-1 inside Gamma[A]|A
        # pins A to a multiplicative image of the initial segment
        for p in (5, 7, 11):
            n = (p - 1) // 2
            zp = cyclic_group(p)
            initial = frozenset(range(1, n + 1))
            for A in enumerate_game_subsets(zp):
                g = group_game(zp, A)
                sub, idx = restrict(g, A.elements())
                for e in A.elements():
                    if sub.out_degree(idx[e]) == n - 1:
                        image = frozenset((e * x) % p for x in initial)
                        assert image == frozenset(A.elements())


class TestCertificates:
    def test_certificates_raise_under_python_O(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run(
            [sys.executable, "-O", "-c", _BROKEN_CERTIFICATES],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == [
            "group_game", "quotient", "fermat", "h_invariant", "subgame", "chart",
        ]
