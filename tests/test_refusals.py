"""Refusals of malformed outside input, one table row per check: each call
must end in the named DomainError (and, where one function has several
checks of one class, with the message that tells them apart)."""

import pytest

from gamegraphs.atlas import convexity_check, geodesic_count, interchange_distance
from gamegraphs.construct import (
    embed_in_game,
    extend_embedding,
    has_sep,
    realize_pointed,
    uniquely_reducible_extension,
)
from gamegraphs.core import Digraph, EdgeSet, Game, Permutation, Tournament, circulant, parse, relabel
from gamegraphs.errors import (
    BadAction,
    BadK,
    BudgetExceeded,
    EvenOrder,
    EvenOrderAction,
    EvenOrderSubgroup,
    InvariantViolation,
    NotACycle,
    NotGameSubset,
    NotPairSubset,
    NotSubgroup,
    ParseError,
    ScoreMismatch,
    SepExhausted,
    SizeMismatch,
    TooLarge,
    TooSmall,
    VertexOutOfRange,
)
from gamegraphs.groups import (
    FiniteGroup,
    GameSubset,
    cyclic_group,
    direct_product,
    euler_phi,
    group_game,
    h_invariant_subsets,
    is_fermat_square_free,
    lex_factorization_check,
    orbit_subgame,
    pair_game_subsets,
    parse_group,
    quotient_game,
    semidirect_cyclic,
    translation_perms,
)
from gamegraphs.reversal import ReversalPlan, apply_plan, bipartite_plan, parity, plan_any, reverse_subgraph

from conftest import standard_order

C3 = circulant(3, (1,))
G5 = circulant(5, (1, 2))
G7 = circulant(7, (1, 2, 3))
Z3, Z7, Z9 = cyclic_group(3), cyclic_group(7), cyclic_group(9)
# a game subset of Z3 x Z3, the other group of order 9
FOREIGN9 = GameSubset(direct_product(Z3, Z3), [1, 3, 4, 7])
ID7 = Permutation.identity(7)
SHIFT7 = Permutation([(i + 1) % 7 for i in range(7)])
SWAP7 = Permutation([1, 0, 2, 3, 4, 5, 6])
NEG7 = Permutation([-i % 7 for i in range(7)])
# J = {0, 1}, K = {2, 3}: every cross pair joined J -> K, and the same
# with the pair 1, 3 left undecided
BIPARTITE = Digraph(4, [0b1100, 0b1100, 0, 0])
UNDECIDED = Digraph(4, [0b1100, 0b0100, 0, 0])

REFUSALS = [
    # core
    ("parse bad vertex count", lambda: parse("game x\n"), ParseError, "vertex count"),
    ("parse short row list", lambda: parse("game 3\n010\n"), ParseError, "expected 3 rows"),
    ("digraph row count", lambda: Digraph(3, [0, 0]), VertexOutOfRange, "row count"),
    ("permutation repeat", lambda: Permutation([0, 0]), VertexOutOfRange, "bijection"),
    ("relabel length", lambda: relabel(C3, Permutation.identity(2)), VertexOutOfRange, "length"),
    # groups
    ("group file header", lambda: parse_group("# nothing\n"), ParseError, "header"),
    ("group file order", lambda: parse_group("group x\n"), ParseError, "malformed"),
    ("group file too large", lambda: parse_group("group 300\n"), TooLarge, "past the budget"),
    ("group file entry", lambda: parse_group("group 1\nx\n"), ParseError, "malformed"),
    ("group file short", lambda: parse_group("group 3\n0 1 2\n"), ParseError, "3 table rows"),
    ("table rows", lambda: FiniteGroup([[0, 0], [1, 1]]), InvariantViolation, "permutations"),
    ("table identity", lambda: FiniteGroup([[1, 0], [0, 1]]), InvariantViolation, "identity"),
    ("table inverses", lambda: FiniteGroup([[0, 1, 2], [1, 2, 0], [2, 1, 0]]), InvariantViolation, "inverses"),
    ("empty table", lambda: FiniteGroup([]), InvariantViolation, "needs the identity"),
    ("cyclic order 0", lambda: cyclic_group(0), InvariantViolation, "needs the identity"),
    ("cyclic negative order", lambda: cyclic_group(-3), InvariantViolation, "needs the identity"),
    ("group file order 0", lambda: parse_group("group 0\n"), InvariantViolation, "needs the identity"),
    ("group game foreign subset", lambda: group_game(Z7, GameSubset(Z9, [1, 2, 3, 4])), NotGameSubset, "different group"),
    ("group game partial subset", lambda: group_game(Z7, GameSubset(Z7, [1])), NotGameSubset, "split"),
    ("quotient foreign subset", lambda: quotient_game(Z9, [0], FOREIGN9), NotPairSubset, "for \\(G, H\\)"),
    ("factorization foreign subset", lambda: lex_factorization_check(Z9, [0, 3, 6], FOREIGN9), NotPairSubset, "for \\(G, H\\)"),
    ("orbit even group", lambda: orbit_subgame(G7, cyclic_group(2), [ID7, ID7], 0), EvenOrderAction, "odd order"),
    ("orbit action count", lambda: orbit_subgame(G7, Z7, [ID7] * 3, 0), BadAction, "one permutation"),
    ("orbit action length", lambda: orbit_subgame(G7, Z3, [Permutation.identity(5)] * 3, 0), VertexOutOfRange, "length"),
    ("orbit non-automorphism", lambda: orbit_subgame(G7, Z3, [ID7, SWAP7, SWAP7], 0), BadAction, "automorphism"),
    ("orbit non-homomorphism", lambda: orbit_subgame(G7, Z3, [ID7, ID7, SHIFT7], 0), BadAction, "homomorphism"),
    ("orbit trivial group moves", lambda: orbit_subgame(G7, cyclic_group(1), [SHIFT7], 0), BadAction, "homomorphism"),
    ("orbit base vertex above", lambda: orbit_subgame(G7, Z7, translation_perms(Z7), 9), VertexOutOfRange, "base vertex"),
    ("orbit base vertex below", lambda: orbit_subgame(G7, Z7, translation_perms(Z7), -1), VertexOutOfRange, "base vertex"),
    ("subset image short", lambda: GameSubset(Z7, [1, 2, 4]).apply(Permutation.identity(5)), VertexOutOfRange, "length"),
    ("subset image long", lambda: GameSubset(Z7, [1, 2, 4]).apply(Permutation.identity(9)), VertexOutOfRange, "length"),
    ("invariant short map", lambda: h_invariant_subsets(Z7, [Permutation.identity(5)]), VertexOutOfRange, "length"),
    ("invariant long map", lambda: h_invariant_subsets(Z7, [Permutation.identity(9)]), VertexOutOfRange, "length"),
    ("semidirect on Z_0", lambda: semidirect_cyclic(3, 0, 1), BadAction, "Z_0"),
    ("phi past the factoring budget", lambda: euler_phi(2 ** 40 + 1), TooLarge, "factoring budget"),
    ("fermat past the factoring budget", lambda: is_fermat_square_free(2 ** 40 + 1), TooLarge, "factoring budget"),
    ("invariant even subgroup", lambda: h_invariant_subsets(Z7, [NEG7]), EvenOrderSubgroup, "odd order"),
    ("invariant non-automorphism", lambda: h_invariant_subsets(Z7, [SWAP7]), NotSubgroup, "non-automorphism"),
    ("pair subsets even group", lambda: pair_game_subsets(cyclic_group(4), [0]), EvenOrder, "group order"),
    # reversal
    ("reverse sizes", lambda: reverse_subgraph(G5, EdgeSet(3, [])), SizeMismatch, "vertex count"),
    ("plan_any sizes", lambda: plan_any(C3, G5), SizeMismatch, "different vertex counts"),
    ("parity sizes", lambda: parity(C3, G5), SizeMismatch, "different vertex counts"),
    ("apply repeated vertex", lambda: apply_plan(G5, ReversalPlan(((0, 1, 0),))), NotACycle, "repeated"),
    ("bipartite partition", lambda: bipartite_plan(BIPARTITE, BIPARTITE, [0, 1], [1, 2, 3]), SizeMismatch, "partition"),
    ("bipartite undecided", lambda: bipartite_plan(UNDECIDED, BIPARTITE, [0, 1], [2, 3]), ScoreMismatch, "undecided cross pair 1,3"),
    ("bipartite sizes", lambda: bipartite_plan(BIPARTITE, C3, [0, 1], [2, 3]), SizeMismatch, "different vertex counts"),
    # atlas and construct
    ("convexity budget", lambda: convexity_check(circulant(9, (1, 2, 3, 4)), []), BudgetExceeded, "size 7"),
    ("convexity Q above", lambda: convexity_check(G5, [9]), VertexOutOfRange, "Q vertices"),
    ("convexity Q below", lambda: convexity_check(G5, [-1]), VertexOutOfRange, "Q vertices"),
    ("distance sizes", lambda: interchange_distance(C3, G5), SizeMismatch, "different vertex counts"),
    ("geodesics sizes", lambda: geodesic_count(C3, G5), SizeMismatch, "different vertex counts"),
    ("realize sizes", lambda: realize_pointed(C3, standard_order(2)), SizeMismatch, "equal size"),
    ("embed empty", lambda: embed_in_game(Tournament(0, ())), TooSmall, "one vertex"),
    ("unique extension K", lambda: uniquely_reducible_extension(G5, [0]), BadK, "existing vertices"),
    ("sep anchors", lambda: has_sep(standard_order(22), range(21)), TooLarge, "budget"),
    ("embedding domain", lambda: extend_embedding(C3, [0, 1], {0: 0}, G7), SepExhausted, "exactly on S0"),
]


@pytest.mark.parametrize("call, error, match", [row[1:] for row in REFUSALS], ids=[row[0] for row in REFUSALS])
def test_malformed_input_is_refused(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_embed_single_vertex():
    assert embed_in_game(Tournament(1, (0,))) == (Game(1, (0,)), [0])
