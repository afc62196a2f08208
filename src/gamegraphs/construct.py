"""Game-building operators: doubles, lexicographic products, extensions,
reductions, pointed realization, Eulerian completion, and saturation.

Doubles use the fixed numbering base = 0, j- = 1+j, j+ = 1+n+j, which makes
the double of the standard order on n points literally equal (not just
isomorphic) to the circulant game on differences 1..n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .core import (
    MAX_VERTICES,
    Digraph,
    Game,
    Permutation,
    Tournament,
    _bits,
    _check_vertex_count,
    from_rows,
    relabel,
    restrict,
)
from .errors import (
    BadK,
    EvenSize,
    FiberCountMismatch,
    InvariantViolation,
    NotApplicable,
    NotEulerian,
    NotReducible,
    NotSteiner,
    SepExhausted,
    SizeMismatch,
    TooLarge,
    TooSmall,
    VertexOutOfRange,
)
from .eulerian import _check_cover, steiner_decomposition
from .reversal import _reverse_cycle, _reverse_path, delta_id, reverse_subgraph


# -- doubles --------------------------------------------------------------------


@dataclass(frozen=True)
class DoubleLayout:
    """Vertex chart of a double: base 0, lower copy j- = 1+j, upper copy j+ = 1+n+j."""

    source: Tournament

    @property
    def n(self) -> int:
        return self.source.p

    @property
    def base(self) -> int:
        return 0

    def minus(self, j: int) -> int:
        return 1 + j

    def plus(self, j: int) -> int:
        return 1 + self.source.p + j


def double(t: Tournament) -> tuple[Game, DoubleLayout]:
    """The double 2t: a game on 2n+1 vertices, reducible via every pair (j-, j+).

    Row by row: i- beats its partner i+, the minus copy of its out-set in t
    and the plus copy of its in-set; i+ beats the base, the plus copy of its
    out-set and the minus copy of its in-set.
    """
    n = t.p
    lay = DoubleLayout(t)
    lo, hi = lay.minus(0), lay.plus(0)
    rows = [((1 << n) - 1) << lo]
    rows += [(1 << (hi + i)) | (t.rows[i] << lo) | (t._cols[i] << hi) for i in range(n)]
    rows += [1 | (t.rows[i] << hi) | (t._cols[i] << lo) for i in range(n)]
    return Game(2 * n + 1, rows), lay


def double_cross_edges(lay: DoubleLayout) -> Digraph:
    """X(2t): the bipartite edges between the two copies, j+ -> i- and j- -> i+ for i -> j."""
    n, t = lay.n, lay.source
    lo, hi = lay.minus(0), lay.plus(0)
    rows = [0] + [t._cols[j] << hi for j in range(n)] + [t._cols[j] << lo for j in range(n)]
    return Digraph(2 * n + 1, rows)


def double_layer_edges(lay: DoubleLayout, sign: int) -> Digraph:
    """The copy of the source inside the minus (sign=-1) or plus (sign=+1) layer."""
    n = lay.n
    off = lay.minus(0) if sign < 0 else lay.plus(0)
    rows = [0] * (2 * n + 1)
    rows[off:off + n] = [r << off for r in lay.source.rows]
    return Digraph(2 * n + 1, rows)


# -- lexicographic products -------------------------------------------------------


def lex_product(gamma: Digraph, pi: Digraph) -> Digraph:
    """Gamma lex pi on pairs (i, j) -> index i*|pi| + j: first coordinate
    dominates, ties broken by the second."""
    return generalized_lex(gamma, [pi] * gamma.p)[0]


def generalized_lex(gamma: Digraph, fibers: Sequence[Digraph]) -> tuple[Digraph, list[int]]:
    """One fiber digraph per base vertex; returns the product and the
    vertex -> base projection (a surjective morphism)."""
    if len(fibers) != gamma.p:
        raise FiberCountMismatch(f"need {gamma.p} fibers, got {len(fibers)}")
    offs = [0]
    for f in fibers:
        offs.append(offs[-1] + f.p)
    p = offs[-1]
    _check_vertex_count(p)
    rows = [0] * p
    proj = [0] * p
    for i in range(gamma.p):
        for x in range(fibers[i].p):
            proj[offs[i] + x] = i
    for i1 in range(gamma.p):
        for x1 in range(fibers[i1].p):
            a = offs[i1] + x1
            for i2 in _bits(gamma.rows[i1]):
                for x2 in range(fibers[i2].p):
                    rows[a] |= 1 << (offs[i2] + x2)
            for x2 in _bits(fibers[i1].rows[x1]):
                rows[a] |= 1 << (offs[i1] + x2)
    return from_rows(p, rows), proj


# -- extension and reduction -------------------------------------------------------


def _k_vertices(pi: Game, K: Iterable[int]) -> tuple[int, ...]:
    """K ascending, checked to be (p+1)/2 distinct vertices of pi."""
    ks = tuple(sorted(K))
    n = (pi.p + 1) // 2
    if len(set(ks)) != len(ks):
        raise BadK("K names a vertex twice")
    if len(ks) != n or any(not 0 <= k < pi.p for k in ks):
        raise BadK(f"K must be {n} existing vertices")
    return ks


def extend(pi: Game, K: Iterable[int]) -> tuple[Game, int, int]:
    """Extension via u -> v and K: new vertices u = p, v = p+1; K beats u,
    v beats K, u beats the rest, the rest beats v.  Returns (game, u, v)."""
    p = pi.p
    ks = _k_vertices(pi, K)
    u, v = p, p + 1
    rows = [r for r in pi.rows] + [0, 0]
    kmask = sum(1 << k for k in ks)
    rest = ((1 << p) - 1) & ~kmask
    rows[u] |= (1 << v) | rest
    rows[v] |= kmask
    for k in ks:
        rows[k] |= 1 << u
    for j in _bits(rest):
        rows[j] |= 1 << v
    return Game(p + 2, rows), u, v


def is_reducible_via(g: Game, u: int, v: int) -> bool:
    """Reducibility via the pair {u, v}: their out-sets are disjoint."""
    if u == v:
        return False
    return g.rows[u] & g.rows[v] & ~(1 << u) & ~(1 << v) == 0


def reduce_via(g: Game, u: int, v: int) -> tuple[Game, dict[int, int]]:
    """Drop a reducible pair; the restriction is a game on p-2 vertices."""
    if not is_reducible_via(g, u, v):
        raise NotReducible(f"{{{u},{v}}} is not a reducible pair")
    sub, index = restrict(g, [w for w in range(g.p) if w not in (u, v)])
    if not isinstance(sub, Game):
        raise InvariantViolation(f"removing the reducible pair {{{u},{v}}} leaves no game")
    return sub, index


@dataclass(frozen=True)
class ReducibilityReport:
    """rPi plus its shape: per vertex at most one in- and one out-edge, so it
    is empty, a disjoint union of separated simple paths, or one Hamiltonian
    cycle (exactly when the game is the circulant on differences 1..n)."""

    edges: Digraph
    kind: str  # "empty" | "paths" | "hamiltonian_cycle"
    components: tuple[tuple[int, ...], ...]


def reducibility_graph(g: Game) -> ReducibilityReport:
    """Each vertex's single reducible partner is the one bit of its row."""
    rows = [sum(1 << j for j in _bits(r) if is_reducible_via(g, i, j)) for i, r in enumerate(g.rows)]
    edges = Digraph(g.p, rows)
    if any(m & (m - 1) for m in rows + list(edges._cols)):
        raise InvariantViolation("a vertex has two reducible out-edges or two reducible in-edges")
    ne = edges.edge_count()
    if not ne:
        return ReducibilityReport(edges, "empty", ())
    nxt = [r.bit_length() - 1 for r in rows]  # -1: no reducible out-edge
    if ne == g.p:
        cyc = [0]
        while nxt[cyc[-1]] != 0:
            cyc.append(nxt[cyc[-1]])
        return ReducibilityReport(edges, "hamiltonian_cycle", (tuple(cyc),))
    comps = []
    for h in range(g.p):
        if rows[h] and not edges._cols[h]:
            path = [h]
            while nxt[path[-1]] >= 0:
                path.append(nxt[path[-1]])
            comps.append(tuple(path))
    if sum(len(c) - 1 for c in comps) != ne:
        raise InvariantViolation("the reducibility paths miss a reducible edge")
    return ReducibilityReport(edges, "paths", tuple(comps))


# -- pointed games --------------------------------------------------------------


@dataclass(frozen=True)
class PointedGame:
    """A game with a chosen base: I_minus = outputs of the base, I_plus = inputs,
    restrictions of each, and the bipartite part Xi between them."""

    g: Game
    base: int
    I_plus: tuple[int, ...]
    I_minus: tuple[int, ...]
    Pi_plus: Tournament
    Pi_minus: Tournament
    plus_index: dict[int, int]
    minus_index: dict[int, int]
    Xi: Digraph


def _other_side(g: Game, base: int) -> list[int]:
    """Per vertex, the mask of the other side of the base: inputs for an
    output of the base, outputs for an input, nothing for the base."""
    plus, minus = g._cols[base], g.rows[base]
    return [minus if (plus >> a) & 1 else plus if (minus >> a) & 1 else 0 for a in range(g.p)]


def pointed_view(g: Game, base: int = 0) -> PointedGame:
    i_minus = g.out_set(base)
    i_plus = g.in_set(base)
    tp, pidx = restrict(g, i_plus)
    tm, midx = restrict(g, i_minus)
    xi = Digraph(g.p, [r & m for r, m in zip(g.rows, _other_side(g, base))])
    return PointedGame(g, base, i_plus, i_minus, tp, tm, pidx, midx, xi)


def _bfs_path(
    rows: Sequence[int], allowed: Sequence[int], src: int, stop: int, through: int
) -> Optional[list[int]]:
    """Shortest path from src along edges v -> w with w in rows[v] & allowed[v]
    to the first vertex found in the mask `stop`, expanding only the vertices
    in the mask `through`.  The frontier and each successor set are scanned
    in ascending order, so the least vertices win ties.  None when no path
    exists."""
    parent = {src: -1}
    seen = 1 << src
    frontier = [src]
    while frontier:
        nxt = []
        for v in sorted(frontier):
            for w in _bits(rows[v] & allowed[v] & ~seen):
                parent[w] = v
                seen |= 1 << w
                if (stop >> w) & 1:
                    path = [w]
                    while parent[path[-1]] != -1:
                        path.append(parent[path[-1]])
                    return path[::-1]
                if (through >> w) & 1:
                    nxt.append(w)
        frontier = nxt
    return None


def realize_pointed(gp: Tournament, gm: Tournament) -> tuple[Game, DoubleLayout]:
    """A pointed game whose plus restriction is gp and minus restriction is gm,
    under the double chart (j maps to 1+j below and 1+n+j above).

    Induction on the difference of the two tournaments: start from the double
    of gm and, for each reversed edge in lexicographic order, reverse the
    cycle made of the shortest cross path joining its upper endpoints.
    """
    if gp.p != gm.p:
        raise SizeMismatch("the two tournaments must have equal size")
    n = gp.p
    g, lay = double(gm)
    rows = list(g.rows)
    cross = _other_side(g, lay.base)
    for (i, j) in delta_id(gm, gp).edges():
        ip, jp = lay.plus(i), lay.plus(j)
        if not (rows[ip] >> jp) & 1:
            raise InvariantViolation(f"difference edge {ip}->{jp} is missing before its reversal")
        path = _bfs_path(rows, cross, jp, 1 << ip, (1 << g.p) - 1)
        if path is None:
            raise InvariantViolation(f"no cross path from {jp} to {ip}, against the splitting lemma")
        _reverse_cycle(rows, path)  # the path jp .. ip closes through the difference edge ip -> jp
    g = Game(g.p, rows)
    full = (1 << n) - 1
    lo, hi = lay.minus(0), lay.plus(0)
    got_p = tuple((rows[hi + j] >> hi) & full for j in range(n))
    got_m = tuple((rows[lo + j] >> lo) & full for j in range(n))
    if got_p != gp.rows or got_m != gm.rows:
        raise InvariantViolation("pointed game does not restrict to the two tournaments")
    return g, lay


def eulerian_to_game(d: Digraph, record: Optional[list[int]] = None) -> Game:
    """A game on the same odd vertex set containing the Eulerian digraph d.

    Completes d to a tournament (undecided pairs i < j oriented i -> j), then
    repeatedly reverses a free path from an overweight vertex to an
    underweight one; the deviation drops by exactly one per loop turn, which
    is checked on every turn.  `record`, when given, collects the deviation
    before the first turn and after each one.
    """
    if d.p % 2 == 0:
        raise EvenSize("games need an odd vertex count")
    if not d.is_eulerian():
        raise NotEulerian("in/out degrees unbalanced")
    p = d.p
    n = (p - 1) // 2
    full = (1 << p) - 1
    rows = [r | (full & -(2 << i) & ~(r | c)) for i, (r, c) in enumerate(zip(d.rows, d._cols))]
    free = [~r for r in d.rows]

    def deviation() -> int:
        return sum(max(r.bit_count() - n, 0) for r in rows)

    dev = deviation()
    if record is not None:
        record.append(dev)
    while dev > 0:
        score = [r.bit_count() for r in rows]
        under = sum(1 << i for i in range(p) if score[i] < n)
        middle = sum(1 << i for i in range(p) if score[i] == n)
        for s in (i for i in range(p) if score[i] > n):
            path = _bfs_path(rows, free, s, under, middle)
            if path is not None:
                break
        else:
            raise InvariantViolation("no free over-to-under path")
        _reverse_path(rows, path)
        dev -= 1
        got = deviation()
        if record is not None:
            record.append(got)
        if got != dev:
            raise InvariantViolation("deviation did not drop by one")
    out = Game(p, rows)
    if not d.is_subgraph_of(out):
        raise InvariantViolation("completion is not a game containing the digraph")
    return out


def embed_in_game(t: Tournament) -> tuple[Game, list[int]]:
    """A game of size 2n-1 containing t, plus the vertex embedding.

    Realizes a pointed game whose upper tournament is the standard order
    (so its top vertex pairs with the base reducibly) and reduces that pair.
    """
    n = t.p
    if n == 0:
        raise TooSmall("need at least one vertex")
    if n == 1:
        return Game(1, (0,)), [0]
    order = from_rows(n, [((1 << n) - 1) ^ ((2 << i) - 1) for i in range(n)])  # i beats every j > i
    g, lay = realize_pointed(order, t)
    u = lay.plus(0)  # score n-1 inside the upper copy
    if not is_reducible_via(g, u, lay.base):
        raise InvariantViolation("the top upper vertex does not reduce with the base")
    sub, index = reduce_via(g, u, lay.base)
    return sub, [index[lay.minus(j)] for j in range(n)]


# -- Steiner variants --------------------------------------------------------------

_VARIANT_PATTERNS: dict[str, tuple[tuple[tuple[str, int], ...], ...]] = {
    # per decomposition cycle <k, j, i> (k beats j beats i beats k);
    # each triple lists (fiber, sign) with sign -1 for the lower copy
    "plus": ((("i", 1), ("j", 1), ("k", -1)),
             (("i", -1), ("j", 1), ("k", 1)),
             (("i", 1), ("j", -1), ("k", 1)),
             (("k", -1), ("j", -1), ("i", -1))),
    "minus": ((("i", -1), ("j", -1), ("k", 1)),
              (("i", 1), ("j", -1), ("k", -1)),
              (("i", -1), ("j", 1), ("k", -1)),
              (("k", 1), ("j", 1), ("i", 1))),
    "cross": ((("k", -1), ("j", -1), ("i", -1)),
              (("k", -1), ("j", 1), ("i", 1)),
              (("k", 1), ("j", -1), ("i", 1)),
              (("k", 1), ("j", 1), ("i", -1))),
    "plus+minus": ((("i", -1), ("j", -1), ("k", -1)),
                   (("i", -1), ("j", 1), ("k", 1)),
                   (("i", 1), ("j", -1), ("k", 1)),
                   (("i", 1), ("j", 1), ("k", -1))),
    "plus+cross": ((("k", -1), ("j", 1), ("i", -1)),
                   (("k", 1), ("j", -1), ("i", -1)),
                   (("k", -1), ("j", -1), ("i", 1)),
                   (("j", 1), ("k", 1), ("i", 1))),
    "minus+cross": ((("k", 1), ("j", -1), ("i", 1)),
                    (("k", -1), ("j", 1), ("i", 1)),
                    (("k", 1), ("j", 1), ("i", -1)),
                    (("j", -1), ("k", -1), ("i", -1))),
}


@dataclass(frozen=True)
class SteinerVariant:
    name: str
    game: Game
    witness: tuple[tuple[int, int, int], ...]


def steiner_variants(pi: Game) -> list[SteinerVariant]:
    """The six games (2 pi)/Delta for Delta among the two layer copies, the
    cross part, and their pairwise unions; each comes with a constructed and
    validated 3-cycle decomposition, so each output is again Steiner."""
    triples = steiner_decomposition(pi)
    if triples is None:
        raise NotSteiner("input game admits no 3-cycle decomposition")
    g2, lay = double(pi)
    parts = {
        "plus": double_layer_edges(lay, +1),
        "minus": double_layer_edges(lay, -1),
        "cross": double_cross_edges(lay),
    }
    out = []
    for name, pattern in _VARIANT_PATTERNS.items():
        rows = [0] * g2.p
        for part in name.split("+"):
            rows = [r | m for r, m in zip(rows, parts[part].rows)]
        gv = reverse_subgraph(g2, Digraph(g2.p, rows))
        if not isinstance(gv, Game):
            raise InvariantViolation(f"the {name} variant is not a game")
        witness: list[tuple[int, int, int]] = []
        for x in range(pi.p):
            witness.append((lay.plus(x), lay.base, lay.minus(x)))
        for (a, b, c) in triples:
            spots = {"k": a, "j": b, "i": c}
            for tri in pattern:
                verts = tuple(
                    lay.minus(spots[f]) if s < 0 else lay.plus(spots[f]) for (f, s) in tri
                )
                witness.append(verts)  # type: ignore[arg-type]
        _check_cover(gv.rows, witness)
        out.append(SteinerVariant(name, gv, tuple(witness)))
    return out


def nonreducible_from(pi: Game) -> Game:
    """(2 pi) with the upper copy reversed: a game with empty reducibility graph."""
    if pi.p < 3:
        raise TooSmall("the construction needs a game of size >= 3")
    g2, lay = double(pi)
    gv = reverse_subgraph(g2, double_layer_edges(lay, +1))
    if not isinstance(gv, Game):
        raise InvariantViolation("reversing the upper copy of a double left no game")
    return gv


def uniquely_reducible_extension(pi: Game, K: Optional[Iterable[int]] = None) -> tuple[Game, int, int]:
    """An extension with a single reducible pair, when one exists.

    K must keep every maximal reducibility path together or apart, and its
    complement must avoid every out- and in-neighborhood; the first such K in
    lexicographic order is used when none is supplied.
    """
    p = pi.p
    n = (p + 1) // 2
    rep = reducibility_graph(pi)
    paths = [sum(1 << v for v in c) for c in rep.components]
    taboo = {*pi.rows, *pi._cols}

    def good(ks: tuple[int, ...]) -> bool:
        kmask = sum(1 << k for k in ks)
        if any(path & kmask and path & ~kmask for path in paths):
            return False
        return (((1 << p) - 1) ^ kmask) not in taboo

    if K is not None:
        ks = _k_vertices(pi, K)
        if not good(ks):
            raise NotApplicable("K violates the unique-reducibility conditions")
        chosen = ks
    else:
        chosen = None
        if rep.kind != "hamiltonian_cycle":
            for ks in combinations(range(p), n):
                if good(ks):
                    chosen = ks
                    break
        if chosen is None:
            raise NotApplicable("no K satisfies the unique-reducibility conditions")
    g, u, v = extend(pi, chosen)
    out = reducibility_graph(g)
    if out.edges.edge_count() != 1:
        raise InvariantViolation(f"the extension has {out.edges.edge_count()} reducible pairs, not one")
    return g, u, v


def is_double(g: Game, base: int) -> Optional[DoubleLayout]:
    """Recover a double structure pointed at base, if one exists.

    The partner of each lower vertex is forced (at most one reducible
    out-pair per vertex), so the check is a lookup in the reducibility graph
    followed by one exact comparison against the rebuilt double.
    """
    partner = reducibility_graph(g).edges.rows
    i_minus = g.out_set(base)
    if any(not partner[i] & g._cols[base] for i in i_minus):
        return None
    source, sidx = restrict(g, i_minus)
    rebuilt, lay = double(source)
    image = [0] * g.p  # the base goes to 0
    for i in i_minus:
        image[i] = lay.minus(sidx[i])
        image[partner[i].bit_length() - 1] = lay.plus(sidx[i])
    if relabel(g, Permutation(image)) != rebuilt:
        return None
    return lay


# -- simple extension property and saturation ---------------------------------------


@dataclass(frozen=True)
class SepReport:
    ok: bool
    witness: dict[frozenset[int], int]
    failing: Optional[frozenset[int]]


def has_sep(g: Tournament, T0: Iterable[int]) -> SepReport:
    """Witness map J -> v_J (v_J beats exactly J inside T0), or the first failing J.

    v_J is the least outside vertex joined to every anchor whose row meets
    the anchors in exactly J: one lookup per J, keyed by that mask."""
    anchors = 0
    for v in T0:
        if not 0 <= v < g.p:
            raise VertexOutOfRange(f"anchor vertices must lie in 0..{g.p - 1}")
        anchors |= 1 << v
    t0 = list(_bits(anchors))
    if len(t0) > 20:
        raise TooLarge("2^|T0| subsets is past the budget")
    least: dict[int, int] = {}
    for v in _bits(((1 << g.p) - 1) & ~anchors):
        if (g.rows[v] | g._cols[v]) & anchors == anchors:
            least.setdefault(g.rows[v] & anchors, v)
    witness: dict[frozenset[int], int] = {}
    for mask in range(1 << len(t0)):
        jmask = sum(1 << t0[k] for k in _bits(mask))
        found = least.get(jmask)
        if found is None:
            return SepReport(False, witness, frozenset(_bits(jmask)))
        witness[frozenset(_bits(jmask))] = found
    return SepReport(True, witness, None)


def saturate(t: Tournament) -> tuple[Tournament, dict[int, frozenset[int]]]:
    """One saturation stage: adds a chooser vertex for every subset of the
    old vertex set, so the old set gains the simple extension property.

    New vertex for subset J sits at index |S0| + mask(J); among new vertices
    the smaller mask beats the larger.
    """
    s = t.p
    p = s + (1 << s)
    if p > MAX_VERTICES:
        raise TooLarge(f"saturating {s} vertices gives {p} > {MAX_VERTICES}")
    full = (1 << p) - 1
    rows = list(t.rows)
    labels: dict[int, frozenset[int]] = {}
    for mask in range(1 << s):
        v = s + mask
        labels[v] = frozenset(_bits(mask))
        rows.append(mask | (full ^ ((2 << v) - 1)))
        for k in _bits(((1 << s) - 1) ^ mask):
            rows[k] |= 1 << v
    return Tournament(p, rows), labels


def extend_embedding(
    pi: Tournament,
    S0: Iterable[int],
    rho: dict[int, int],
    gamma: Tournament,
) -> dict[int, int]:
    """Extend an embedding of pi|S0 into gamma to all of pi, one vertex at a
    time with backtracking over the candidate choosers.

    Raises SepExhausted when gamma has no room for some extension step.
    """
    placed = dict(rho)
    S0 = list(S0)
    if not all(0 <= a < pi.p for a in S0 + list(placed)):
        raise VertexOutOfRange(f"S0 and the domain of rho must lie in 0..{pi.p - 1}")
    if not all(0 <= w < gamma.p for w in placed.values()):
        raise VertexOutOfRange(f"the images of rho must lie in 0..{gamma.p - 1}")
    s0 = sorted(placed)
    if s0 != sorted(dict.fromkeys(S0)):
        raise SepExhausted("rho must be defined exactly on S0")
    for a in s0:
        for b in s0:
            if a != b and pi.has_edge(a, b) != gamma.has_edge(placed[a], placed[b]):
                raise SepExhausted("rho is not an embedding of pi|S0")
    todo = [v for v in range(pi.p) if v not in placed]
    free = (1 << gamma.p) - 1

    def rec(k: int, done: int, used: int) -> bool:
        # done: the placed vertices of pi; used: their images in gamma
        if k == len(todo):
            return True
        v = todo[k]
        out = sum(1 << placed[u] for u in _bits(pi.rows[v] & done))
        inn = sum(1 << placed[u] for u in _bits(pi._cols[v] & done))
        for w in _bits(free & ~used):
            if gamma.rows[w] & used == out and gamma._cols[w] & used == inn:
                placed[v] = w
                if rec(k + 1, done | 1 << v, used | 1 << w):
                    return True
                del placed[v]
        return False

    if not rec(0, sum(1 << a for a in placed), sum(1 << w for w in placed.values())):
        raise SepExhausted("gamma cannot absorb the remaining vertices")
    return placed
