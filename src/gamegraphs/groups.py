"""Finite groups of odd order, game subsets, group games, and homogeneous games.

Groups are bare Cayley tables with identity index 0; all the library-scale
examples have order at most 27, so validating the table is cheap
(associativity by Light's test, at generators only), and an order above
_ORDER_LIMIT raises TooLarge before its table is built.  Maps on a group
(automorphisms, actions) are built and checked at the same generators.  A game subset A
picks one element from each inverse pair, and its group game Gamma[A] has
an edge i -> j exactly when i^-1 j lies in A.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd, prod
from operator import itemgetter
from typing import Iterable, Sequence

from .construct import lex_product
from .core import Game, Permutation, _bits, from_rows, relabel, restrict
from .errors import (
    BadAction,
    BadPrime,
    EvenOrder,
    EvenOrderAction,
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
from .morph import AutGroup, _closure, _is_automorphism, automorphisms


# The limit bounds the m^2 Cayley table and the walks over it.  A group
# game has at most MAX_VERTICES elements, but a larger group still yields
# smaller games, as a quotient G/H or as the cyclic group of an
# automorphism acting on an orbit (an automorphism of a 29-vertex game can
# have order 77).
_ORDER_LIMIT = 255


def _check_order(m: int) -> None:
    """Refuse a group of order above _ORDER_LIMIT before its table is built."""
    if m > _ORDER_LIMIT:
        raise TooLarge(f"group order {m} > {_ORDER_LIMIT} is past the budget")


def _generators(tab: Sequence[Sequence[int]]) -> list[int]:
    """Elements that generate the table under products, picked greedily:
    each is the least element not reached from 0 by right multiplication
    by the ones before it.

    Light's associativity test needs (ij)k = i(jk) for all i, j only at
    these k: the k where it holds are closed under products, since
    (ij)(kl) = ((ij)k)l = (i(jk))l = i((jk)l) = i(j(kl)) when it holds at
    k and l, so it then holds at every element.
    """
    gens: list[int] = []
    reached = {0}
    for x in range(len(tab)):
        if x in reached:
            continue
        gens.append(x)
        todo = list(reached)
        while todo:
            y = todo.pop()
            for g in gens:
                z = tab[y][g]
                if z not in reached:
                    reached.add(z)
                    todo.append(z)
    return gens


class FiniteGroup:
    """Group given by its Cayley table; element 0 is the identity, and gens
    (picked by _generators) generate it."""

    __slots__ = ("m", "table", "inv", "gens")

    def __init__(self, table: Sequence[Sequence[int]]):
        m = len(table)
        _check_order(m)
        if m == 0:
            raise InvariantViolation("a Cayley table needs the identity element")
        tab = tuple(tuple(row) for row in table)
        for row in tab:
            if len(row) != m or sorted(row) != list(range(m)):
                raise InvariantViolation("Cayley table rows must be permutations")
        for i in range(m):
            if tab[0][i] != i or tab[i][0] != i:
                raise InvariantViolation("element 0 is not a two-sided identity")
        inv = [-1] * m
        for i in range(m):
            for j in range(m):
                if tab[i][j] == 0:
                    inv[i] = j
        if any(v < 0 for v in inv) or any(tab[inv[i]][i] != 0 for i in range(m)):
            raise InvariantViolation("missing inverses")
        gens = tuple(_generators(tab))
        for k in gens:
            col = [row[k] for row in tab]
            for row in tab:
                if list(map(col.__getitem__, row)) != list(map(row.__getitem__, col)):
                    raise InvariantViolation("table is not associative")
        self.m = m
        self.table = tab
        self.inv = tuple(inv)
        self.gens = gens

    def mult(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inverse(self, i: int) -> int:
        return self.inv[i]

    def element_order(self, i: int) -> int:
        k, x = 1, i
        while x != 0:
            x = self.mult(x, i)
            k += 1
        return k

    def is_subgroup(self, elems: Iterable[int]) -> bool:
        s = set(elems)
        return 0 in s and all(self.mult(a, b) in s for a in s for b in s)

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self) -> int:
        return hash(self.table)

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.m})"


def cyclic_group(m: int) -> FiniteGroup:
    _check_order(m)
    return FiniteGroup([[(i + j) % m for j in range(m)] for i in range(m)])


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Product group; element (i, j) gets index i*|G2| + j."""
    m1, m2 = g1.m, g2.m
    _check_order(m1 * m2)
    tab = [[0] * (m1 * m2) for _ in range(m1 * m2)]
    for a1, a2, b1, b2 in product(range(m1), range(m2), range(m1), range(m2)):
        tab[a1 * m2 + a2][b1 * m2 + b2] = g1.mult(a1, b1) * m2 + g2.mult(a2, b2)
    return FiniteGroup(tab)


def semidirect_cyclic(q: int, p: int, a: int) -> FiniteGroup:
    """Z_q acting on Z_p by multiplication by a; needs a^q = 1 mod p.

    Element (x, y) has index x*p + y and (x1,y1)(x2,y2) = (x1+x2, y1*a^x2 + y2).
    """
    if p < 1:
        raise BadAction(f"Z_{p} has no elements to act on")
    if gcd(a, p) != 1 or pow(a, q, p) != 1 % p:
        raise BadAction(f"{a}^{q} != 1 mod {p}")
    _check_order(q * p)
    tab = [[0] * (q * p) for _ in range(q * p)]
    for x1, y1, x2, y2 in product(range(q), range(p), range(q), range(p)):
        tab[x1 * p + y1][x2 * p + y2] = ((x1 + x2) % q) * p + (y1 * pow(a, x2, p) + y2) % p
    return FiniteGroup(tab)


_FACTOR_LIMIT = 1 << 40  # a prime near it takes 2^19 trial divisors


def _factorize(m: int) -> dict[int, int]:
    """Prime -> exponent for m >= 1, by trial division."""
    if m > _FACTOR_LIMIT:
        raise TooLarge(f"{m} > 2^40 is past the factoring budget")
    x, factors = m, {}
    d = 2
    while d * d <= x:
        while x % d == 0:
            factors[d] = factors.get(d, 0) + 1
            x //= d
        d += 1 if d == 2 else 2
    if x > 1:
        factors[x] = factors.get(x, 0) + 1
    return factors


def euler_phi(m: int) -> int:
    """The number of units mod m: the product of q^(e-1) (q-1) over m's prime powers q^e."""
    if m < 1:
        raise InvariantViolation("modulus must be positive")
    return prod(q ** (e - 1) * (q - 1) for q, e in _factorize(m).items())


def units(m: int) -> tuple[int, ...]:
    if m < 1:
        raise InvariantViolation("modulus must be positive")
    if m == 1:
        return (0,)
    return tuple(i for i in range(1, m) if gcd(i, m) == 1)


def is_fermat_square_free(m: int) -> bool:
    """True iff m is a square-free product of Fermat primes.

    Equivalent to phi(m) being a power of two; both sides are computed and
    compared as a cross-check.
    """
    if m <= 1 or m % 2 == 0:
        raise InvariantViolation("needs an odd number > 1")
    factors = _factorize(m)
    direct = all(e == 1 for e in factors.values()) and all(
        (q - 1) & (q - 2) == 0 for q in factors
    )
    phi = euler_phi(m)
    if direct != (phi & (phi - 1) == 0):
        raise InvariantViolation("Fermat criterion out of step with phi")
    return direct


# -- game subsets --------------------------------------------------------------


class GameSubset:
    """Subset A with e not in A and A disjoint from A^-1, stored as a bitmask.

    A full game subset has |A| = (|G|-1)/2 so that {e}, A, A^-1 partition G;
    anything smaller is just a graph subset.
    """

    __slots__ = ("group", "mask")

    def __init__(self, group: FiniteGroup, mask_or_elems):
        if isinstance(mask_or_elems, int):
            mask = mask_or_elems
        else:
            mask = 0
            for e in mask_or_elems:
                if not 0 <= e < group.m:
                    raise NotGameSubset(f"element {e} outside 0..{group.m - 1}")
                if (mask >> e) & 1:
                    raise NotGameSubset(f"element {e} named twice")
                mask |= 1 << e
        if mask & 1:
            raise NotGameSubset("identity cannot belong to a graph subset")
        if mask >> group.m:
            raise NotGameSubset("element out of range")
        for e in _bits(mask):
            if (mask >> group.inverse(e)) & 1:
                raise NotGameSubset(f"{e} and its inverse both present")
        self.group = group
        self.mask = mask

    def elements(self) -> tuple[int, ...]:
        return tuple(_bits(self.mask))

    def __contains__(self, e: int) -> bool:
        return bool((self.mask >> e) & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    @property
    def is_full(self) -> bool:
        return 2 * len(self) == self.group.m - 1

    def inverse_subset(self) -> "GameSubset":
        return GameSubset(self.group, [self.group.inverse(e) for e in self.elements()])

    def apply(self, xi: Permutation) -> "GameSubset":
        if len(xi) != self.group.m:
            raise VertexOutOfRange("permutation length != group order")
        return GameSubset(self.group, [xi(e) for e in self.elements()])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GameSubset)
            and self.group == other.group
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.group, self.mask))

    def __repr__(self) -> str:
        return f"GameSubset({sorted(self.elements())} of order-{self.group.m} group)"


_SUBSET_BUDGET = 1 << 16  # most game subsets one family may list


def _block_subsets(G: FiniteGroup, blocks: Iterable[Sequence[int]]) -> list[GameSubset]:
    """Every game subset that is a union of blocks, ascending by bitmask.

    The blocks partition G \\ {e}, and inversion carries each block onto a
    block.  A game subset takes one block from each inverse pair, so there
    are 2^(pair count); TooLarge is raised before building more than
    _SUBSET_BUDGET of them.
    """
    block_of = [0] * G.m
    for b in blocks:
        mask = sum(1 << x for x in b)
        for x in b:
            block_of[x] = mask
    pairs: dict[int, int] = {}
    for e in range(1, G.m):
        b, inv = block_of[e], block_of[G.inverse(e)]
        if b == inv:
            raise EvenOrderSubgroup(f"the block of {e} meets its own inverse")
        if inv not in pairs:
            pairs[b] = inv
    if 1 << len(pairs) > _SUBSET_BUDGET:
        raise TooLarge(f"2^{len(pairs)} game subsets; the budget is {_SUBSET_BUDGET}")
    masks = [0]
    for b, inv in pairs.items():
        masks = [m | c for m in masks for c in (b, inv)]
    return [GameSubset(G, m) for m in sorted(masks)]


def enumerate_game_subsets(G: FiniteGroup) -> list[GameSubset]:
    """All 2^((m-1)/2) game subsets, ascending by bitmask."""
    if G.m % 2 == 0:
        raise EvenOrder("game subsets need a group of odd order")
    return _block_subsets(G, ([e] for e in range(1, G.m)))


def _translation_game(G: FiniteGroup, A: GameSubset, reps: Sequence[int], proj: Sequence[int]) -> Game:
    """The game on the left cosets of H that proj names: coset k, represented
    by reps[k], beats the coset proj[reps[k] a] of each a in A but itself, so
    i -> j iff i^-1 j in A.  One-element cosets give Gamma[A]."""
    bit = [1 << c for c in proj]
    elems = A.elements()
    rows = []
    for k, i in enumerate(reps):
        row, r = G.table[i], 0
        for a in elems:
            r |= bit[row[a]]
        rows.append(r & ~(1 << k))
    g = from_rows(len(rows), rows)
    if not isinstance(g, Game):
        raise InvariantViolation("the translation game of a game subset is not a game")
    return g


def group_game(G: FiniteGroup, A: GameSubset) -> Game:
    """Gamma[A]: edge i -> j iff i^-1 j in A.  Every left translation is an automorphism."""
    if A.group != G:
        raise NotGameSubset("subset belongs to a different group")
    if not A.is_full:
        raise NotGameSubset("subset does not split every inverse pair")
    return _translation_game(G, A, range(G.m), range(G.m))


def translation_perms(G: FiniteGroup) -> list[Permutation]:
    """Left translations as vertex permutations (automorphisms of every Gamma[A])."""
    return [Permutation([G.mult(k, i) for i in range(G.m)]) for k in range(G.m)]


# -- group automorphisms -------------------------------------------------------


def _is_group_automorphism(G: FiniteGroup, xi: Permutation) -> bool:
    """xi(g x) = xi(g) xi(x) for every generator g and every x, a row at a time.

    The g where this holds for every x are closed under products, as in
    Light's test, so a bijection that passes is an automorphism.
    """
    if len(xi) != G.m:
        raise VertexOutOfRange("permutation length != group order")
    img, tab = xi.image, G.table
    return all(itemgetter(*tab[g])(img) == itemgetter(*img)(tab[img[g]]) for g in G.gens)


def multiplication_map(m: int, a: int) -> Permutation:
    return Permutation([(a * i) % m for i in range(m)])


# Most (choices of generator images) x (group order) one automorphism search
# spreads; its time and the size of its answer grow with this product.
_AUT_WORK = 1 << 23


def group_automorphisms(G: FiniteGroup) -> AutGroup:
    """All Cayley-table-preserving bijections, sorted by image.

    An automorphism is fixed by where it sends the generators G.gens, and it
    sends each to an element of the same order.  Each choice of such images
    is spread from the identity along x -> g x, as xi(g x) = xi(g) xi(x), and
    kept when it is a bijection that _is_group_automorphism accepts.
    TooLarge is raised before any choice is tried when choices x order is
    above _AUT_WORK.
    """
    m, tab = G.m, G.table
    order = [G.element_order(x) for x in range(m)]
    pools = [[y for y in range(m) if order[y] == order[g]] for g in G.gens]
    choices = prod(map(len, pools))
    if choices * m > _AUT_WORK:
        raise TooLarge(f"{choices} choices of generator images x order {m} > {_AUT_WORK}")
    # each element but 0 once, as (g_k x, x, k) with x reached before it
    tree, reached, seen = [], [0], {0}
    for x in reached:
        for k, g in enumerate(G.gens):
            y = tab[g][x]
            if y not in seen:
                seen.add(y)
                reached.append(y)
                tree.append((y, x, k))
    out = []
    for imgs in product(*pools):
        img, rows = [0] * m, [tab[h] for h in imgs]
        for y, x, k in tree:
            img[y] = rows[k][img[x]]
        if len(set(img)) == m and _is_group_automorphism(G, xi := Permutation(img)):
            out.append(xi)
    return AutGroup(tuple(sorted(out, key=lambda q: q.image)))


def isomorphic_subset_family(G: FiniteGroup, A: GameSubset) -> list[GameSubset]:
    """The game subsets B with Gamma[B] isomorphic to Gamma[A]: exactly {xi(A)}.

    Valid only when the automorphisms of Gamma[A] are the |G| translations;
    otherwise ExtraAutomorphisms is raised.
    """
    game = group_game(G, A)
    auts = automorphisms(game)
    trans = set(translation_perms(G))
    if set(auts.perms) != trans:
        raise ExtraAutomorphisms(
            f"Aut has order {auts.order}, translations only give {len(trans)}"
        )
    family = {A.apply(xi) for xi in group_automorphisms(G)}
    return sorted(family, key=lambda s: s.mask)


def h_invariant_subsets(G: FiniteGroup, H: Iterable[Permutation]) -> list[GameSubset]:
    """Game subsets fixed setwise by H, automorphisms of G whose closure has
    odd order (TooLarge past _AUT_WORK / |G| maps).  The H-orbits of G \\ {e}
    come in inverse pairs; choosing one orbit per pair gives all
    2^(pair count) invariant subsets."""
    hperms = list(H)
    for xi in hperms:
        if not _is_group_automorphism(G, xi):
            raise NotSubgroup("H contains a non-automorphism")
    closure = _closure(G.m, [xi.image for xi in hperms], _AUT_WORK // G.m)
    if len(closure) % 2 == 0:
        raise EvenOrderSubgroup(f"H must have odd order; it generates a group of order {len(closure)}")
    subs = _block_subsets(G, {frozenset(h[e] for h in closure) for e in range(1, G.m)})
    if any(s.apply(xi) != s for s in subs for xi in hperms):
        raise InvariantViolation("a union of H-orbits is not H-invariant")
    return subs


def quadratic_residue_subset(p: int) -> GameSubset:
    """Nonzero squares mod p as a game subset of Z_p; needs p prime, p = 3 mod 4."""
    if p < 3 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
        raise BadPrime(f"{p} is not an odd prime")
    if p % 4 != 3:
        raise BadPrime(f"{p} = 1 mod 4: squares meet their negatives")
    squares = sorted({(x * x) % p for x in range(1, p)})
    return GameSubset(cyclic_group(p), squares)


# -- double cosets and homogeneous games ---------------------------------------


@dataclass(frozen=True)
class DoubleCosetPartition:
    """Blocks HiH partitioning G; blocks[0] is H itself, and inverse_block
    pairs each non-H block with its inverse."""

    blocks: tuple[tuple[int, ...], ...]
    inverse_block: tuple[int, ...]


def _check_subgroup(G: FiniteGroup, H: Iterable[int]) -> tuple[int, ...]:
    hs = tuple(sorted(set(H)))
    if hs and not (0 <= hs[0] and hs[-1] < G.m):
        raise NotSubgroup(f"{list(hs)} names elements outside 0..{G.m - 1}")
    if not G.is_subgroup(hs):
        raise NotSubgroup(f"{list(hs)} is not closed or misses the identity")
    return hs


def double_cosets(G: FiniteGroup, H: Iterable[int]) -> DoubleCosetPartition:
    """The HiH partition; for i outside H the blocks of i and i^-1 are distinct."""
    hs = _check_subgroup(G, H)
    blocks: list[tuple[int, ...]] = []
    assigned: dict[int, int] = {}
    for i in range(G.m):
        if i in assigned:
            continue
        blk = sorted({G.mult(G.mult(h1, i), h2) for h1 in hs for h2 in hs})
        idx = len(blocks)
        blocks.append(tuple(blk))
        for x in blk:
            assigned[x] = idx
    invb = tuple(assigned[G.inverse(b[0])] for b in blocks)
    return DoubleCosetPartition(tuple(blocks), invb)


def subgroup_group(G: FiniteGroup, H: Iterable[int]) -> tuple[FiniteGroup, list[int]]:
    """H as a FiniteGroup in its own right, plus the H-index -> G-element list."""
    hs = list(_check_subgroup(G, H))
    pos = {e: k for k, e in enumerate(hs)}
    tab = [[pos[G.mult(a, b)] for b in hs] for a in hs]
    return FiniteGroup(tab), hs


def pair_game_subsets(G: FiniteGroup, H: Iterable[int]) -> list[GameSubset]:
    """Game subsets A for (G, H): i in A\\H forces HiH inside A, and A meets H
    in a game subset of H.  There are 2^(d+k) of them for 2d non-H double
    cosets and |H| = 2k+1."""
    if G.m % 2 == 0:
        raise EvenOrder("needs odd group order")
    hs = _check_subgroup(G, H)
    if len(hs) % 2 == 0:
        raise EvenOrder("needs odd subgroup order")
    blocks = double_cosets(G, hs).blocks
    return _block_subsets(G, [*blocks[1:], *([h] for h in hs[1:])])


def is_pair_game_subset(G: FiniteGroup, H: Iterable[int], A: GameSubset) -> bool:
    """A is a full game subset of G, and i in A outside H puts all of HiH in A."""
    if A.group != G or not A.is_full:
        return False
    for blk in double_cosets(G, H).blocks[1:]:
        mask = sum(1 << x for x in blk)
        if A.mask & mask not in (0, mask):
            return False
    return True


def quotient_game(
    G: FiniteGroup, H: Iterable[int], A: GameSubset
) -> tuple[Game, list[tuple[int, ...]], list[int]]:
    """The homogeneous game Gamma[A/H] on the left cosets G/H.

    Returns (game, cosets sorted by least member, projection element->coset).
    The projection is a surjective morphism from Gamma[A], and every left
    translation descends to an automorphism.
    """
    hs = _check_subgroup(G, H)
    if not is_pair_game_subset(G, hs, A):
        raise NotPairSubset("A is not a game subset for (G, H)")
    cosets_set = {tuple(sorted(G.mult(i, h) for h in hs)) for i in range(G.m)}
    cosets = sorted(cosets_set)
    proj = [0] * G.m
    for k, c in enumerate(cosets):
        for x in c:
            proj[x] = k
    return _translation_game(G, A, [c[0] for c in cosets], proj), cosets, proj


def lex_factorization_check(G: FiniteGroup, H: Iterable[int], A: GameSubset) -> Permutation:
    """Explicit isomorphism Gamma[A/H] lex Gamma[A cap H] -> Gamma[A].

    The coset section takes the minimum-index representative; the witness is
    verified edge by edge before being returned.
    """
    quotient, cosets, _ = quotient_game(G, H, A)
    Hgrp, hlist = subgroup_group(G, cosets[0])
    inner = GameSubset(Hgrp, [k for k, h in enumerate(hlist) if h in A])
    fiber = group_game(Hgrp, inner)
    prod = lex_product(quotient, fiber)
    image = [0] * G.m
    for x, coset in enumerate(cosets):
        rep = coset[0]
        for hk, h in enumerate(hlist):
            image[x * len(hlist) + hk] = G.mult(rep, h)
    rho = Permutation(image)
    target = group_game(G, A)
    if relabel(prod, rho) != target:
        raise NotPairSubset("section map fails to carry the product onto Gamma[A]")
    return rho


# -- group actions on games -----------------------------------------------------


@dataclass(frozen=True)
class OrbitSubgameReport:
    orbit: tuple[int, ...]
    restriction: Game
    quotient: Game
    witness: Permutation  # quotient -> restriction (on restricted indices)
    pair_subset: GameSubset


def orbit_subgame(g: Game, T: FiniteGroup, action: Sequence[Permutation], a: int):
    """Restriction of a game to the orbit Ta, with its homogeneous-game chart.

    The action is a homomorphism T -> Aut(g); the evaluation t -> t(a)
    factors through the isotropy subgroup to an isomorphism from the
    quotient game onto the orbit restriction.
    """
    if T.m % 2 == 0:
        raise EvenOrderAction("acting group must have odd order")
    if len(action) != T.m:
        raise BadAction("need one permutation per group element")
    if any(len(s) != g.p for s in action):
        raise VertexOutOfRange("permutation length != p")
    if not 0 <= a < g.p:
        raise VertexOutOfRange(f"base vertex {a} outside 0..{g.p - 1}")
    for t1 in range(T.m):
        if not _is_automorphism(g.rows, action[t1].image):
            raise BadAction(f"element {t1} does not act as an automorphism")
        # enough at the generators, as in _is_group_automorphism; 0 stands in
        # for them in the trivial group, where it must act as the identity
        for t2 in (0, *T.gens):
            if action[T.mult(t2, t1)] != action[t2].compose(action[t1]):
                raise BadAction("action is not a homomorphism")
    H = tuple(sorted(t for t in range(T.m) if action[t](a) == a))
    # A meets H in any game subset of H; take the least mask (the lesser
    # element of each inverse pair), the first in enumeration order
    mask = sum(1 << h for h in H if 0 < h < T.inverse(h))
    for t in range(T.m):
        if t not in H and (g.rows[a] >> action[t](a)) & 1:
            mask |= 1 << t
    A = GameSubset(T, mask)
    quotient, cosets, _ = quotient_game(T, H, A)
    orbit = tuple(sorted({action[t](a) for t in range(T.m)}))
    sub, index = restrict(g, orbit)
    if not isinstance(sub, Game):
        raise InvariantViolation("orbit restriction must be a subgame")
    image = [index[action[c[0]](a)] for c in cosets]
    rho = Permutation(image)
    if relabel(quotient, rho) != sub:
        raise InvariantViolation("coset map does not carry the quotient onto the orbit restriction")
    return OrbitSubgameReport(orbit, sub, quotient, rho, A)


def cyclic_action_subgame(g: Game, xi: Permutation, a: int) -> OrbitSubgameReport:
    """Specialization: the cyclic group generated by one automorphism acting at a."""
    order = xi.order()
    T = cyclic_group(order)
    powers = [Permutation.identity(g.p)]
    for _ in range(order - 1):
        powers.append(xi.compose(powers[-1]))
    return orbit_subgame(g, T, powers, a)


# -- text formats ----------------------------------------------------------------
#
# group file:  "group <m>" then m lines of m space-separated indices
# subset file: "subset <m> <bitstring>" where character k is element k


def serialize_group(G: FiniteGroup) -> str:
    lines = [f"group {G.m}"]
    for row in G.table:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def parse_group(text: str) -> FiniteGroup:
    lines = [ln for ln in text.split("\n") if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines or not lines[0].startswith("group "):
        raise ParseError("missing 'group <m>' header")
    try:
        m = int(lines[0].split()[1])
    except (ValueError, IndexError):
        raise ParseError("malformed group table")
    _check_order(m)
    try:
        rows = [[int(x) for x in ln.split()] for ln in lines[1 : m + 1]]
    except ValueError:
        raise ParseError("malformed group table")
    if len(rows) != m:
        raise ParseError(f"expected {m} table rows")
    return FiniteGroup(rows)


def serialize_subset(A: GameSubset) -> str:
    bits = "".join("1" if e in A else "0" for e in range(A.group.m))
    return f"subset {A.group.m} {bits}\n"


def parse_subset(text: str, G: FiniteGroup) -> GameSubset:
    parts = text.split()
    if len(parts) != 3 or parts[0] != "subset":
        raise ParseError("expected 'subset <m> <bitstring>'")
    try:
        m = int(parts[1])
    except ValueError:
        raise ParseError(f"subset size {parts[1]!r} is not an integer")
    if m != G.m or len(parts[2]) != m or set(parts[2]) - {"0", "1"}:
        raise ParseError("subset does not match the group")
    return GameSubset(G, [k for k, c in enumerate(parts[2]) if c == "1"])
