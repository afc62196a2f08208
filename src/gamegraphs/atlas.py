"""Exhaustive atlas of labeled games and interchange-graph analytics.

The interchange graph has the labeled games of one size as nodes, adjacent
when a single 3-cycle reversal apart.  BFS distance there must agree with
the balance invariant of the difference graph, which is checked against the
span solver in the acceptance suite.  Point-to-point distance and geodesic
counting search from both ends and stop where the two searches meet
(Pohl, *Bi-directional search*, 1971); whole-graph sweeps such as the
diameter search from one source.  Every search steps with one neighbor
routine over row-mask tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, factorial
from typing import Iterator, Optional, Sequence

from .core import Game
from .errors import BudgetExceeded, InvariantViolation, SizeMismatch
from .eulerian import _three_cycles, count_eulerian_subgraphs
from .morph import automorphisms, canon_hex, canonical_form


def _game_rows(p: int, fixed_row0: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """Backtracking over out-neighbor masks, ascending, so the stream is
    lexicographic in the row-mask tuple."""
    n = (p - 1) // 2
    rows = [0] * p
    wins = [0] * p

    def candidates(i: int) -> list[int]:
        later = list(range(i + 1, p))
        need = n - wins[i]
        if need < 0 or need > len(later):
            return []
        masks = []
        for comb_ in combinations(later, need):
            lose = [j for j in later if j not in set(comb_)]
            if all(wins[j] + 1 <= n for j in lose):
                masks.append((sum(1 << j for j in comb_), comb_, lose))
        masks.sort(key=lambda t: t[0])
        return masks

    def rec(i: int) -> Iterator[tuple[int, ...]]:
        if i == p:
            yield tuple(rows)
            return
        if i == 0 and fixed_row0 is not None:
            opts = []
            later = list(range(1, p))
            comb_ = tuple(j for j in later if (fixed_row0 >> j) & 1)
            if len(comb_) == n:
                lose = [j for j in later if not (fixed_row0 >> j) & 1]
                opts = [(fixed_row0, comb_, lose)]
        else:
            opts = candidates(i)
        for mask, comb_, lose in opts:
            rows[i] |= mask
            wins[i] += len(comb_)
            for j in lose:
                rows[j] |= 1 << i
                wins[j] += 1
            yield from rec(i + 1)
            wins[i] -= len(comb_)
            rows[i] &= ~mask
            for j in lose:
                rows[j] &= ~(1 << i)
                wins[j] -= 1

    yield from rec(0)


def enumerate_games(p: int, allow_large: bool = False) -> Iterator[Game]:
    """All labeled games of size p, lexicographic by row masks, no duplicates."""
    if p % 2 == 0:
        raise SizeMismatch("games have odd size")
    if p > 9 and not allow_large:
        raise BudgetExceeded("enumeration beyond size 9 needs allow_large=True")
    for rows in _game_rows(p):
        yield Game(p, rows)


def count_pointed_games(p: int) -> int:
    """|Games(I+, I-)|: labeled games whose base vertex 0 beats exactly 1..n."""
    n = (p - 1) // 2
    fixed = sum(1 << j for j in range(1, n + 1))
    return sum(1 for _ in _game_rows(p, fixed_row0=fixed))


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
    count, which must equal p!/|Aut|; the labeled total must match the
    Eulerian-subgraph count of any one game (both are verified here)."""
    groups: dict[int, list[Game]] = {}
    total = 0
    for g in enumerate_games(p):
        total += 1
        groups.setdefault(canonical_form(g).bits, []).append(g)
    classes = []
    for bits in sorted(groups):
        members = groups[bits]
        rep = members[0]
        aut = automorphisms(rep).order
        if len(members) * aut != factorial(p):
            raise InvariantViolation(f"orbit-stabilizer: {len(members)} * {aut} != {p}!")
        classes.append(ClassInfo(canon_hex(p, bits), aut, len(members), rep))
    if sum(c.labeled_count for c in classes) != total:
        raise InvariantViolation("class sizes do not sum to the labeled total")
    if total and count_eulerian_subgraphs(classes[0].representative) != total:
        raise InvariantViolation("labeled total differs from the Eulerian-subgraph count")
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


def _bfs(p: int, src: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Single-source sweep: the distance from src to every game of its size."""
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for rows in frontier:
            d = dist[rows] + 1
            for r2 in _neighbors(rows, p):
                if r2 not in dist:
                    dist[r2] = d
                    nxt.append(r2)
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


def diameter(p: int, allow_large: bool = False) -> DiameterReport:
    """Exact diameter via one full BFS per isomorphism class representative
    (distance spectra are relabeling-invariant, so class reps see every
    eccentricity)."""
    if p > 7 and not allow_large:
        raise BudgetExceeded("diameter beyond size 7 needs allow_large=True")
    atl = census(p)
    n = (p - 1) // 2
    best = -1
    wit = None
    for cls in atl.classes:
        dist = _bfs(p, cls.representative.rows)
        far_rows, far_d = max(dist.items(), key=lambda kv: (kv[1], kv[0]))
        if far_d > best:
            best = far_d
            wit = (cls.representative, Game(p, far_rows))
    if wit is None:
        raise InvariantViolation("diameter found no class to sweep from")
    return DiameterReport(p, best, n * n, wit)


def parity_bipartition(p: int) -> tuple[list[Game], list[Game]]:
    """Games split by parity of |Delta(., base)| with the lexicographically
    least game as base; every interchange edge crosses the split."""
    games = list(enumerate_games(p))
    base = games[0]
    even, odd = [], []
    for g in games:
        diff = sum(
            1 for (i, j) in g.edges() if base.has_edge(j, i)
        )
        (even if diff % 2 == 0 else odd).append(g)
    return even, odd


def convexity_check(pi: Game, Q: Sequence[int]) -> bool:
    """Whether the games agreeing with pi on every edge at Q form a convex set
    (no geodesic between members leaves the set)."""
    p = pi.p
    if p > 7:
        raise BudgetExceeded("convexity check is exhaustive; size 7 is the budget")
    qset = set(Q)
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

    The exact total comes from the Eulerian-subgraph oracle, the pointed
    count from constrained enumeration, and the product law
    total = C(2n, n) * pointed is verified.  Literature values for n = 3
    are carried along purely for comparison.
    """
    from .core import circulant

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
