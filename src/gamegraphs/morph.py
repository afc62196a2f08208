"""Isomorphism, canonical labeling, automorphism groups, and classification.

Canonical labeling is an individualization-refinement search: iterate the
colors (signature = own color + sorted colors of out- and in-neighbors) to a
fixed point, branch on the vertices of the first non-singleton class, and
take the minimum relabeled adjacency bit-string over the discrete leaves.
Plain scores never separate the vertices of a game, so the neighbor-multiset
refinement does the real work.

Each search lists every vertex's out- and in-neighbors once.  A tournament's
signature leaves the in-colors out: the in-neighbors of v are all vertices
but v and its out-neighbors, so two vertices with equal color and equal
out-colors have equal in-colors, and sorting (color, out) ranks the
vertices exactly as sorting (color, out, in) does.  A leaf's value is built
from the edges alone, bit color[u]*p + color[w] for each edge u -> w.

Refinement stops as soon as the coloring is discrete: every vertex then has
its own color, ranked 0..p-1, and a further round could only return it
unchanged.

Two leaves with equal values differ by an automorphism.  The search records
one for each such leaf and skips every branch that a recorded automorphism
maps onto an earlier branch (orbit pruning, as in nauty).  One search gives
the canonical form, its witness (the first minimum leaf) and generators of
the automorphism group.

`are_isomorphic` searches a in full and b only until its first leaf whose
value equals a's canonical bits (early termination, McKay & Piperno 2014).
The search is deterministic, so up to that leaf it visits exactly the nodes
of b's full search; if the graphs are isomorphic, a's bits are b's minimum,
so that leaf is b's first minimum leaf and the witness is the one two full
searches would give.  No leaf of b can equal a's bits otherwise.

`automorphisms` closes the generators into the group coset by coset
(Dimino's algorithm, `_closure`), so every element is composed once rather
than once per generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import NamedTuple, Optional, Sequence

from .core import (
    Digraph,
    Game,
    Permutation,
    Tournament,
    _bits,
    circulant,
    classify_digraph,
    relabel,
    restrict,
    scores,
)
from .construct import lex_product
from .errors import BadSize, InvariantViolation, NotSurjective, SizeMismatch, TooLarge, WrongGroup
from .reversal import _reverse_cycle


@dataclass(frozen=True)
class CanonicalForm:
    """Minimum relabeled adjacency bit-string plus a permutation achieving it."""

    p: int
    bits: int
    witness: Permutation

    @property
    def hex(self) -> str:
        return canon_hex(self.p, self.bits)


def canon_hex(p: int, bits: int) -> str:
    """Canonical bits as fixed-width hex (p*p bits, zero-padded)."""
    return format(bits, f"0{(p * p + 3) // 4}x")


@dataclass(frozen=True)
class AutGroup:
    perms: tuple[Permutation, ...]

    @property
    def order(self) -> int:
        return len(self.perms)

    def __iter__(self):
        return iter(self.perms)

    def is_group(self) -> bool:
        s = set(self.perms)
        return (
            Permutation.identity(len(self.perms[0])) in s
            and all(a.compose(b) in s for a in s for b in s)
            and all(a.inverse() in s for a in s)
        )


def _refine(outs: Sequence[Sequence[int]], ins: Optional[Sequence[Sequence[int]]],
            colors: list[int]) -> list[int]:
    """Recolor by rank of signature until the colors stop changing or
    every vertex has a color of its own.

    A signature is a vertex's color and the sorted colors of its
    out-neighbors, then of its in-neighbors unless `ins` is None (for a
    tournament, see the module docstring).
    """
    while True:
        if ins is None:
            sigs = [(c, tuple(sorted([colors[w] for w in o]))) for c, o in zip(colors, outs)]
        else:
            sigs = [
                (c, tuple(sorted([colors[w] for w in o])), tuple(sorted([colors[w] for w in i])))
                for c, o, i in zip(colors, outs, ins)
            ]
        table = {s: k for k, s in enumerate(sorted(set(sigs)))}
        new = [table[s] for s in sigs]
        if len(table) == len(new) or new == colors:
            return new
        colors = new


def _bits_under(p: int, outs: Sequence[Sequence[int]], perm: Sequence[int]) -> int:
    """Adjacency bit-string relabeled by perm: bit perm[u]*p + perm[w] per edge u->w."""
    val = 0
    for u, o in enumerate(outs):
        val |= sum([1 << perm[w] for w in o]) << (perm[u] * p)
    return val


class _Search(NamedTuple):
    """Outcome of one canonical search."""

    value: int  # minimum relabeled adjacency bit-string over the leaves
    leaf: Permutation  # the first leaf (in search order) that reaches it
    generators: tuple[tuple[int, ...], ...]  # automorphisms generating Aut
    nodes: int  # refinement-tree nodes visited, root included


def _is_automorphism(rows: Sequence[int], gamma: Sequence[int]) -> bool:
    for i, r in enumerate(rows):
        img = 0
        for j in _bits(r):
            img |= 1 << gamma[j]
        if rows[gamma[i]] != img:
            return False
    return True


def _orbit_roots(p: int, gens: Sequence[Sequence[int]]) -> list[int]:
    """Orbit representative of every vertex under the group the gens generate."""
    root = list(range(p))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for a in gens:
        for x in range(p):
            rx, ry = find(x), find(a[x])
            if rx != ry:
                root[max(rx, ry)] = min(rx, ry)
    return [find(x) for x in range(p)]


def _canon_search(g: Digraph, node_budget: int, _target: Optional[int] = None) -> _Search:
    """Depth-first individualization-refinement with automorphism pruning.

    A leaf whose value ties the best so far yields the automorphism
    gamma = best^-1 o leaf.  At a node with individualized prefix s, a child
    w is skipped when an earlier-explored sibling u lies in w's orbit under
    the recorded automorphisms that fix s pointwise: such a gamma maps the
    subtree of u onto the subtree of w, leaf values included.  So the
    minimum and the first leaf reaching it are those of the full tree, and
    every minimum leaf is a visited one moved by the recorded generators,
    which therefore generate the whole automorphism group.

    With `_target` set, the search stops at the first leaf whose value
    equals it; that leaf is then the result's value and leaf, and the
    generators and node count are those found up to it.
    """
    p = g.p
    rows = g.rows
    outs = [tuple(_bits(r)) for r in rows]
    ins = None if isinstance(g, Tournament) else [tuple(_bits(c)) for c in g._cols]
    best_val: Optional[int] = None
    best_inv: list[int] = []
    best_leaf: list[int] = []
    gens: list[tuple[int, ...]] = []
    nodes = 0
    hit = False  # a leaf reached _target

    def rec(colors: list[int], prefix: tuple[int, ...]) -> None:
        nonlocal best_val, best_inv, best_leaf, nodes, hit
        nodes += 1
        if nodes > node_budget:
            raise TooLarge(f"canonical search exceeded {node_budget} nodes")
        classes: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            classes.setdefault(c, []).append(v)
        target = None
        for c in sorted(classes):
            if len(classes[c]) > 1:
                target = classes[c]
                break
        if target is None:
            val = _bits_under(p, outs, colors)
            if best_val is None or val < best_val:
                best_val, best_leaf = val, colors
                hit = val == _target
                best_inv = [0] * p
                for v, label in enumerate(colors):
                    best_inv[label] = v
            elif val == best_val:
                gamma = tuple(best_inv[label] for label in colors)
                if not _is_automorphism(rows, gamma):
                    raise InvariantViolation("equal canonical leaves gave a non-automorphism")
                gens.append(gamma)
            return
        nc = p  # fresh color larger than all existing ones
        explored: list[int] = []
        roots: list[int] = []
        known = -1  # number of generators the orbit roots were computed from
        for v in target:
            if explored:
                if known != len(gens):
                    known = len(gens)
                    fixing = [a for a in gens if all(a[x] == x for x in prefix)]
                    roots = _orbit_roots(p, fixing)
                if any(roots[u] == roots[v] for u in explored):
                    continue
            explored.append(v)
            c2 = list(colors)
            c2[v] = nc
            rec(_refine(outs, ins, c2), prefix + (v,))
            if hit:
                return

    rec(_refine(outs, ins, [0] * p), ())
    return _Search(best_val, Permutation(best_leaf), tuple(gens), nodes)


_CANON_NODES = 2_000_000  # search nodes before TooLarge, for every public search


def canonical_form(g: Digraph) -> CanonicalForm:
    """Canonical form; two digraphs are isomorphic iff their forms have equal bits."""
    s = _canon_search(g, _CANON_NODES)
    return CanonicalForm(g.p, s.value, s.leaf)


def are_isomorphic(a: Digraph, b: Digraph) -> Optional[Permutation]:
    """A relabeling witness taking a to b exactly, or None."""
    if a.p != b.p:
        return None
    ca = canonical_form(a)
    sb = _canon_search(b, _CANON_NODES, ca.bits)
    if sb.value != ca.bits:
        return None
    rho = sb.leaf.inverse().compose(ca.witness)
    if relabel(a, rho) != b:
        raise InvariantViolation("isomorphism witness does not map a onto b")
    return rho


def _closure(p: int, gens: Sequence[tuple[int, ...]], limit: Optional[int] = None) -> set[tuple[int, ...]]:
    """The group that the image tuples gens generate on 0..p-1; TooLarge
    before it holds more than `limit` elements.  Dimino's algorithm: with H
    the group closed so far, a generator already in H is skipped.  For a new
    one, each right coset's representative r (H itself first) times each
    generator t kept so far either lies in a coset already found or adds the
    coset H rt, so every element is composed once.  "x then y" is
    tuple(map(y.__getitem__, x))."""
    ident = tuple(range(p))
    group = {ident}
    kept: list[tuple[int, ...]] = []
    for s in gens:
        if s in group:
            continue
        kept.append(s)
        sub = list(group)  # H
        reps = [ident]
        for r in reps:  # grows while it is read
            for t in kept:
                rt = tuple(map(t.__getitem__, r))
                if rt not in group:
                    if limit is not None and len(group) + len(sub) > limit:
                        raise TooLarge(f"the generated group has more than {limit} elements")
                    group.update([tuple(map(rt.__getitem__, h)) for h in sub])
                    reps.append(rt)
    return group


def automorphisms(g: Digraph) -> AutGroup:
    """The full automorphism group, sorted by image: the closure of the
    canonical search's generators (one per pair of equal leaves it met)."""
    group = _closure(g.p, _canon_search(g, _CANON_NODES).generators)
    return AutGroup(tuple(Permutation(a) for a in sorted(group)))


def rigid_by_scores(g: Tournament) -> bool:
    """Sufficient condition: no score value shared by three or more vertices."""
    sc = scores(g)
    return all(sc.count(v) <= 2 for v in set(sc))


def is_rigid(g: Tournament) -> bool:
    """Exact rigidity; the score-multiplicity shortcut, when it fires, must agree."""
    exact = automorphisms(g).order == 1
    if rigid_by_scores(g) and not exact:
        raise InvariantViolation("score-multiplicity rigidity test disagrees with the search")
    return exact


# -- size 7 and size 9 classification ----------------------------------------


@lru_cache(maxsize=None)
def _seven_fixtures() -> dict[str, int]:
    g1 = circulant(7, (1, 2, 3))
    g2 = circulant(7, (1, 2, 4))
    rows = list(g2.rows)
    # reverse the 3-cycle 3 -> 5 -> 6 -> 3 to obtain the third type
    _reverse_cycle(rows, (3, 5, 6))
    g3 = Game(7, rows)
    return {
        "I": canonical_form(g1).bits,
        "II": canonical_form(g2).bits,
        "III": canonical_form(g3).bits,
    }


def classify7(g: Game) -> str:
    """Type I, II or III by the in/out neighborhood criterion.

    Straddle in-set and out-set at any vertex forces type I; 3-cycles at
    every vertex is exactly type II; a mix is type III.  A 3-vertex set is a
    3-cycle when each of its vertices beats exactly one other inside it.
    Cross-checked against the canonical forms of the three reference games.
    """
    if g.p != 7:
        raise BadSize("classification needs a game of size 7")
    shapes = [
        tuple(all((g.rows[u] & s).bit_count() == 1 for u in _bits(s)) for s in (g.rows[v], g._cols[v]))
        for v in range(g.p)
    ]
    if any(s == (False, False) for s in shapes):
        kind = "I"
    elif all(s == (True, True) for s in shapes):
        kind = "II"
    else:
        kind = "III"
    if canonical_form(g).bits != _seven_fixtures()[kind]:
        raise InvariantViolation(f"neighborhood criterion says type {kind}, canonical form disagrees")
    return kind


@lru_cache(maxsize=None)
def _nine_orbits() -> tuple[frozenset[int], frozenset[int]]:
    def orbit(base: tuple[int, ...]) -> frozenset[int]:
        masks = set()
        for a in (1, 2, 4, 5, 7, 8):
            masks.add(sum(1 << ((a * x) % 9) for x in base))
        return frozenset(masks)

    return orbit((1, 2, 3, 4)), orbit((1, 5, 6, 7))


def classify9_group(subset) -> str:
    """Type of a Z9 game subset: I = isomorphs of [1,4], II of {1,5,6,7}, III the rest."""
    G = subset.group
    if G.m != 9 or any(G.mult(i, j) != (i + j) % 9 for i in range(9) for j in range(9)):
        raise WrongGroup("classification is for game subsets of Z9")
    t1, t2 = _nine_orbits()
    if subset.mask in t1:
        return "I"
    if subset.mask in t2:
        return "II"
    return "III"


# -- projections and product law ----------------------------------------------


@dataclass(frozen=True)
class ProjectionReport:
    is_morphism: bool
    base_is_game: bool
    fibers_are_games: bool
    fiber_sizes_equal: bool


def check_projection(theta: Sequence[int], big: Tournament, small: Digraph) -> ProjectionReport:
    """Validate a surjective vertex map as a generalized-lex-product projection.

    Among {big is a game, small is a game, all fibers are equal-size games}
    any two imply the third; the caller asserts that law where it applies.
    """
    if len(theta) != big.p:
        raise SizeMismatch(f"vertex map has {len(theta)} entries for {big.p} vertices")
    if set(theta) != set(range(small.p)):
        raise NotSurjective("vertex map does not cover the base")
    fiber = [0] * small.p
    for a, i in enumerate(theta):
        fiber[i] |= 1 << a
    # a morphism: the edges leaving a's fiber go to exactly the fibers of theta[a]'s out-neighbors
    image = [sum(fiber[k] for k in _bits(r)) for r in small.rows]
    morph = all(big.rows[a] & ~fiber[i] == image[i] for a, i in enumerate(theta))
    fibers = [list(_bits(f)) for f in fiber]
    fgames = all(classify_digraph(restrict(big, f)[0]).is_game for f in fibers)
    sizes = {len(f) for f in fibers}
    return ProjectionReport(
        is_morphism=morph,
        base_is_game=classify_digraph(small).is_game,
        fibers_are_games=fgames,
        fiber_sizes_equal=len(sizes) == 1,
    )


@dataclass(frozen=True)
class ProductLawReport:
    formula_order: int
    computed_order: Optional[int]
    verified_candidates: Optional[int]
    ok: bool


_EXHAUSTIVE_PRODUCT = 11  # largest product whose Aut is searched outright


def aut_product_law_check(gamma: Tournament, pi: Tournament) -> ProductLawReport:
    """|Aut(gamma lex pi)| against |Aut(gamma)| * |Aut(pi)|^|gamma|.

    Small products are checked exhaustively; larger ones in formula mode,
    verifying instead that every semidirect candidate map really is an
    automorphism of the product.
    """
    prod = lex_product(gamma, pi)
    ag = automorphisms(gamma)
    ap = automorphisms(pi)
    formula = ag.order * ap.order ** gamma.p
    if prod.p <= _EXHAUSTIVE_PRODUCT:
        computed = automorphisms(prod).order
        return ProductLawReport(formula, computed, None, computed == formula)
    q = pi.p
    count = 0
    for rho in ag:
        for gam in product(ap.perms, repeat=gamma.p):
            image = [0] * prod.p
            for i in range(gamma.p):
                for j in range(q):
                    image[i * q + j] = rho(i) * q + gam[i](j)
            if _is_automorphism(prod.rows, image):
                count += 1
    return ProductLawReport(formula, None, count, count == formula)
