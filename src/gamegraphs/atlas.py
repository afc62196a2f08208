"""Atlas of labeled games: the isomorphism census and interchange-graph analytics.

The interchange graph has the labeled games of one size as nodes, adjacent
when a single 3-cycle reversal apart; the census searches it class by
class.  BFS distance there must agree with the balance invariant of the
difference graph, which is checked against the span solver in the
acceptance suite.  Point-to-point distance and geodesic counting search
from both ends and stop where the two searches meet (Pohl, *Bi-directional
search*, 1971); whole-graph sweeps such as the diameter search from one
source over the materialized `FullInterchange`.  Every search steps with one
neighbor routine over row-mask tuples.  The labeled and pointed game counts
both come from the labeled-count DP, which enumerates nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, factorial
from typing import Iterator, Optional, Sequence

from .core import Game, _bits, circulant, restrict
from .errors import BudgetExceeded, InvariantViolation, SizeMismatch, VertexOutOfRange
from .eulerian import _three_cycles, count_eulerian_subgraphs
from .morph import automorphisms, canon_hex, canonical_form


SIZE_LIMIT = 9  # largest size enumerated or censused
DIAMETER_LIMIT = 7  # largest size swept from every class


def _check_size(p: int, limit: Optional[int] = None) -> None:
    if p < 0:
        raise VertexOutOfRange(f"vertex count {p} is negative")
    if p % 2 == 0:
        raise SizeMismatch("games have odd size")
    if limit is not None and p > limit:
        raise BudgetExceeded(f"size {p} is past the budget of size {limit}")


def _game_rows(p: int) -> Iterator[tuple[int, ...]]:
    """Backtracking over out-neighbor masks, ascending, so the stream is
    lexicographic in the row-mask tuple.  Vertex i beats the later vertices
    of its win mask and loses to the rest, which must not have n wins yet."""
    n = (p - 1) // 2
    rows = [0] * p

    def rec(i: int) -> Iterator[tuple[int, ...]]:
        if i == p:
            yield tuple(rows)
            return
        later = range(i + 1, p)
        need = n - rows[i].bit_count()
        wins = sorted(sum(1 << j for j in c) for c in combinations(later, need))
        rest = sum(1 << j for j in later)
        done = sum(1 << j for j in later if rows[j].bit_count() >= n)  # no win to spare
        for win in wins:
            lose = rest ^ win
            if lose & done:
                continue
            rows[i] |= win
            for j in _bits(lose):
                rows[j] |= 1 << i
            yield from rec(i + 1)
            rows[i] ^= win
            for j in _bits(lose):
                rows[j] ^= 1 << i

    yield from rec(0)


def enumerate_games(p: int) -> Iterator[Game]:
    """All labeled games of size p, lexicographic by row masks, no duplicates."""
    _check_size(p, SIZE_LIMIT)
    for rows in _game_rows(p):
        yield Game(p, rows)


def count_pointed_games(p: int) -> int:
    """|Games(I+, I-)|: labeled games whose base vertex 0 beats exactly 1..n.
    Without vertex 0 they are the tournaments where 1..n have n wins and the
    rest n - 1, as in the circulant 1..n minus 0, so the DP counts them."""
    _check_size(p)
    base, _ = restrict(circulant(p, range(1, (p - 1) // 2 + 1)), range(1, p))
    return count_eulerian_subgraphs(base)


@dataclass(frozen=True)
class ClassInfo:
    canon_hex: str
    aut_order: int
    labeled_count: int
    representative: Game


@dataclass(frozen=True)
class Atlas:
    p: int
    labeled_total: int
    classes: tuple[ClassInfo, ...]


def census(p: int) -> Atlas:
    """Isomorphism census: per class the canonical form, |Aut|, and labeled
    count p!/|Aut|, sorted by canonical bits.

    A BFS over classes from the circulant 1..n canonicalizes the 3-cycle
    neighbors of each new class's first-found member.  Isomorphic games have
    isomorphic neighbors and the interchange graph is connected, so every
    class is reached; a missed one would leave the labeled counts short of
    the DP count of labeled games, which raises InvariantViolation.
    """
    _check_size(p, SIZE_LIMIT)
    start = circulant(p, range(1, (p - 1) // 2 + 1))
    reps = {canonical_form(start).bits: start}
    queue = [start]
    for g in queue:  # grows while it is walked
        for rows in _neighbors(g.rows, p):
            h = Game(p, rows)
            bits = canonical_form(h).bits
            if bits not in reps:
                reps[bits] = h
                queue.append(h)
    classes = []
    for bits in sorted(reps):
        aut = automorphisms(reps[bits]).order
        classes.append(ClassInfo(canon_hex(p, bits), aut, factorial(p) // aut, reps[bits]))
    total = sum(c.labeled_count for c in classes)
    labeled = count_eulerian_subgraphs(start)
    if total != labeled:
        raise InvariantViolation(f"classes hold {total} labeled games, the DP counts {labeled}")
    return Atlas(p, total, tuple(classes))


# -- interchange graph ----------------------------------------------------------


def _neighbors(rows: tuple[int, ...], p: int) -> list[tuple[int, ...]]:
    """Row tuples of the games one 3-cycle reversal from the game `rows`,
    in 3-cycle order.  A game is a tournament, so a vertex's in-neighbors
    are the complement of its out-neighbors."""
    full = (1 << p) - 1
    cols = [full ^ r ^ (1 << i) for i, r in enumerate(rows)]
    out = []
    for a, b, c in _three_cycles(rows, cols):
        flipped = list(rows)
        flipped[a] ^= (1 << b) | (1 << c)
        flipped[b] ^= (1 << c) | (1 << a)
        flipped[c] ^= (1 << a) | (1 << b)
        out.append(tuple(flipped))
    return out


class FullInterchange:
    """Materialized interchange graph for one size: index maps and adjacency."""

    def __init__(self, p: int):
        self.p = p
        self.nodes = [g.rows for g in enumerate_games(p)]
        self.index = {rows: k for k, rows in enumerate(self.nodes)}
        self.adj = [[self.index[r] for r in _neighbors(rows, p)] for rows in self.nodes]

    def bfs(self, src: int) -> list[int]:
        dist = [-1] * len(self.nodes)
        dist[src] = 0
        frontier = [src]
        while frontier:
            nxt = []
            for v in frontier:
                dv = dist[v]
                for w in self.adj[v]:
                    if dist[w] < 0:
                        dist[w] = dv + 1
                        nxt.append(w)
            frontier = nxt
        return dist


def _meet(p: int, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, int, int]:
    """Bidirectional BFS from a and b: (distance, number of geodesics, games
    stored by both ends).

    Each step grows the end with the smaller frontier by one full level,
    until the new level holds games the other end has seen.  Up to then no
    game was seen by both ends, so the distance is more than the sum of the
    two depths before the step, and the met games reach the least sum.  Every
    geodesic crosses the new level at one met game x, and count[x] *
    ocount[x] geodesics cross there: the shortest paths from each end to x.
    """
    if a == b:
        return 0, 1, 1
    ends = [({a: 0}, {a: 1}, [a]), ({b: 0}, {b: 1}, [b])]
    while True:
        k = 0 if len(ends[0][2]) <= len(ends[1][2]) else 1
        dist, count, frontier = ends[k]
        odist, ocount, _ = ends[1 - k]
        if not frontier:
            raise InvariantViolation("games in different components of the interchange graph")
        level = dist[frontier[0]] + 1
        nxt = []
        for rows in frontier:
            c = count[rows]
            for r2 in _neighbors(rows, p):
                d = dist.get(r2)
                if d is None:
                    dist[r2] = level
                    count[r2] = c
                    nxt.append(r2)
                elif d == level:
                    count[r2] += c
        ends[k] = (dist, count, nxt)
        met = [r for r in nxt if r in odist]
        if met:
            best = min(level + odist[r] for r in met)
            paths = sum(count[r] * ocount[r] for r in met if level + odist[r] == best)
            return best, paths, len(dist) + len(odist)


def interchange_distance(a: Game, b: Game) -> int:
    """Interchange-graph distance, by BFS from both ends; equals beta(Delta(a, b))."""
    if a.p != b.p:
        raise SizeMismatch("games on different vertex counts")
    return _meet(a.p, a.rows, b.rows)[0]


def geodesic_count(a: Game, b: Game) -> tuple[int, int]:
    """(distance, number of geodesics), by BFS from both ends; the count is
    at least distance!."""
    if a.p != b.p:
        raise SizeMismatch("games on different vertex counts")
    d, paths, _ = _meet(a.p, a.rows, b.rows)
    return d, paths


@dataclass(frozen=True)
class DiameterReport:
    p: int
    value: int
    conjectured: int  # n^2, reported but never asserted
    witness: tuple[Game, Game]


def diameter(p: int) -> DiameterReport:
    """Exact diameter via one full BFS per isomorphism class representative
    (distance spectra are relabeling-invariant, so class reps see every
    eccentricity).  The nodes are in lexicographic row order, so a tie
    between farthest games goes to the greatest row tuple."""
    _check_size(p, DIAMETER_LIMIT)
    graph = FullInterchange(p)
    far = []  # per class: eccentricity, representative, a farthest game
    for cls in census(p).classes:
        dist = graph.bfs(graph.index[cls.representative.rows])
        d, k = max((d, k) for k, d in enumerate(dist))
        far.append((d, cls.representative, graph.nodes[k]))
    d, rep, rows = max(far, key=lambda t: t[0])
    return DiameterReport(p, d, ((p - 1) // 2) ** 2, (rep, Game(p, rows)))


def convexity_check(pi: Game, Q: Sequence[int]) -> bool:
    """Whether the games agreeing with pi on every edge at Q form a convex set
    (no geodesic between members leaves the set)."""
    p = pi.p
    if p > DIAMETER_LIMIT:
        raise BudgetExceeded(f"convexity check is exhaustive; size {DIAMETER_LIMIT} is the budget")
    qset = set(Q)
    if not qset <= set(range(p)):
        raise VertexOutOfRange(f"Q vertices must lie in 0..{p - 1}")
    fixed = [
        (i, j)
        for (i, j) in pi.edges()
        if i in qset or j in qset
    ]

    def inside(rows: tuple[int, ...]) -> bool:
        return all((rows[i] >> j) & 1 for (i, j) in fixed)

    import numpy as np

    graph = FullInterchange(p)
    member_idx = [k for k, rows in enumerate(graph.nodes) if inside(rows)]
    mask_out = np.ones(len(graph.nodes), dtype=bool)
    mask_out[member_idx] = False
    D = np.empty((len(member_idx), len(graph.nodes)), dtype=np.int32)
    for r, k in enumerate(member_idx):
        D[r] = graph.bfs(k)
    midx = np.array(member_idx)
    outside = D[:, mask_out]
    for i in range(len(member_idx)):
        # a node v off the set with d(a,v) + d(v,b) = d(a,b) breaks convexity
        through = outside[i][None, :] + outside[i + 1:]
        direct = D[i + 1:, midx[i]]
        if through.size and (through.min(axis=1) <= direct).any():
            return False
    return True


# -- counting report -------------------------------------------------------------


@dataclass(frozen=True)
class CountReport:
    n: int
    p: int
    binom: int
    exact_total: int
    exact_pointed: int
    formula_pointed_lower: int
    formula_total_lower: int
    is_lower_bound_num: int
    is_lower_bound_den: int
    literature_pointed: Optional[int]
    literature_total: Optional[int]

    @property
    def literature_agrees(self) -> Optional[bool]:
        if self.literature_total is None:
            return None
        return self.literature_total == self.exact_total and self.literature_pointed == self.exact_pointed


def count_report(n: int) -> CountReport:
    """Exact labeled and pointed counts against the formula lower bounds.

    Both exact counts come from the labeled-count DP (n <= 9; TooLarge
    past it), and the product law total = C(2n, n) * pointed is verified.
    Literature values for n = 3 are carried along purely for comparison.
    """
    p = 2 * n + 1
    base = circulant(p, range(1, n + 1))
    if not isinstance(base, Game):
        raise InvariantViolation(f"circulant 1..{n} is not a game")
    exact_total = count_eulerian_subgraphs(base)
    exact_pointed = count_pointed_games(p)
    bi = comb(2 * n, n)
    if exact_total != bi * exact_pointed:
        raise InvariantViolation(f"labeled total {exact_total} != C({2 * n},{n}) * {exact_pointed} pointed")
    literature_pointed, literature_total = (84, 1680) if n == 3 else (None, None)
    return CountReport(
        n=n,
        p=p,
        binom=bi,
        exact_total=exact_total,
        exact_pointed=exact_pointed,
        formula_pointed_lower=2 ** (n * (n - 1)),
        formula_total_lower=bi * 2 ** (n * (n - 1)),
        is_lower_bound_num=2 ** (n * (n - 1)),
        is_lower_bound_den=(2 * n + 1) * factorial(n) ** 2,
        literature_pointed=literature_pointed,
        literature_total=literature_total,
    )
