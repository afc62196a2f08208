"""Difference graphs and 3-cycle reversal planning.

Delta(rho, Pi, Gamma) collects the edges of Pi that rho reverses relative to
Gamma, as a Digraph built row by row; reversing Delta in Pi, a flip of row
masks, recovers Gamma.  Between same-score tournaments the minimum number of
single-3-cycle reversal steps is the balance invariant
beta(Delta) = |Delta| - 2 span(Delta).  Every plan reverses edge-disjoint
cycles of Delta one at a time, a length-l cycle in l - 2 moves, so the plans
differ only in the decomposition: greedy for `plan_any`, and for
`plan_optimal` the witness of one span solve, a maximum decomposition and so
exactly beta moves.  Each plan is certified by replay and the optimal one
also by its length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import Digraph, Permutation, Tournament, from_rows, relabel
from .errors import (
    InvariantViolation,
    NotACycle,
    NotSubgraph,
    ParseError,
    ScoreMismatch,
    SizeMismatch,
    VertexOutOfRange,
)
from .eulerian import cycle_decomposition, span


def delta(rho: Permutation, pi: Tournament, gamma: Tournament) -> Digraph:
    """Edges of pi that rho sends to reversed edges of gamma: Delta(Pi, rho^-1 Gamma)."""
    if len(rho) != gamma.p:
        raise SizeMismatch("graphs and permutation must share one vertex count")
    return delta_id(pi, relabel(gamma, rho.inverse()))


def delta_id(pi: Tournament, gamma: Tournament) -> Digraph:
    """Delta(Pi, Gamma): the edges of pi whose reverse is in gamma, row i of
    pi meeting column i of gamma."""
    if pi.p != gamma.p:
        raise SizeMismatch("graphs and permutation must share one vertex count")
    return Digraph(pi.p, [r & c for r, c in zip(pi.rows, gamma._cols)])


def reverse_subgraph(pi: Digraph, d: Digraph) -> Digraph:
    """Pi with d reversed: (Pi minus d) plus d^-1.  Scores survive iff d is Eulerian."""
    if d.p != pi.p:
        raise SizeMismatch("edge set on a different vertex count")
    if not d.is_subgraph_of(pi):
        raise NotSubgraph("edge set is not contained in the graph")
    return from_rows(pi.p, [(r & ~dr) | dc for r, dr, dc in zip(pi.rows, d.rows, d._cols)])


# -- plans ---------------------------------------------------------------------


@dataclass(frozen=True)
class ReversalPlan:
    """Ordered moves; each is an oriented 3-cycle (a,b,c) or 4-cycle (a,b,c,d)
    that must be present at its step."""

    moves: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.moves)

    def __iter__(self):
        return iter(self.moves)


def format_plan(plan: ReversalPlan) -> str:
    lines = []
    for mv in plan.moves:
        tag = "r3" if len(mv) == 3 else "r4"
        lines.append(tag + " " + " ".join(str(v) for v in mv))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_plan(text: str) -> ReversalPlan:
    moves = []
    for ln in text.split("\n"):
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        if (parts[0], len(parts)) not in (("r3", 4), ("r4", 5)):
            raise ParseError(f"bad plan line: {ln!r}")
        try:
            moves.append(tuple(int(x) for x in parts[1:]))
        except ValueError:
            raise ParseError(f"bad vertex in plan line: {ln!r}") from None
    return ReversalPlan(tuple(moves))


def _reverse_path(rows: list[int], path: Sequence[int]) -> None:
    """Reverse the oriented path path[0] -> ... -> path[-1] of the row list in place."""
    for a, b in zip(path, path[1:]):
        if not (rows[a] >> b) & 1:
            raise NotACycle(f"edge {a}->{b} absent at this step")
        rows[a] &= ~(1 << b)
        rows[b] |= 1 << a


def _reverse_cycle(rows: list[int], cycle: Sequence[int]) -> None:
    """Reverse one oriented cycle of the row list in place."""
    _reverse_path(rows, (*cycle, cycle[0]))


def apply_plan(pi: Digraph, plan: ReversalPlan) -> Digraph:
    """Replay a plan, checking each listed cycle exists with its stated orientation."""
    rows = list(pi.rows)
    for mv in plan.moves:
        if not all(0 <= v < pi.p for v in mv):
            raise VertexOutOfRange(f"move {mv} names a vertex outside 0..{pi.p - 1}")
        if len(set(mv)) != len(mv):
            raise NotACycle(f"repeated vertex in move {mv}")
        _reverse_cycle(rows, mv)
    return from_rows(pi.p, rows)


def _cycle_plan_moves(rows: list[int], cycle: tuple[int, ...], k: int) -> list[tuple[int, ...]]:
    """Moves reversing one cycle through k-cycles on its first vertex, each
    cutting k - 2 vertices off the rest; the rows are flipped as they go."""
    head = cycle[:k]
    if len(cycle) == k:
        _reverse_cycle(rows, head)
        return [head]
    shorter = (cycle[0],) + cycle[k - 1:]
    if (rows[cycle[0]] >> cycle[k - 1]) & 1:
        moves = _cycle_plan_moves(rows, shorter, k)
        _reverse_cycle(rows, head)
        return moves + [head]
    _reverse_cycle(rows, head)
    return [head] + _cycle_plan_moves(rows, shorter, k)


def _plan_cycles(pi: Digraph, gamma: Digraph, cycles: Iterable[tuple[int, ...]], k: int) -> ReversalPlan:
    """The moves reversing edge-disjoint cycles of Delta one at a time, each
    cycle of length l in (l - 2) / (k - 2) k-cycle moves, certified by
    reaching gamma."""
    rows = list(pi.rows)
    moves: list[tuple[int, ...]] = []
    for cycle in cycles:
        moves.extend(_cycle_plan_moves(rows, cycle, k))
    if tuple(rows) != gamma.rows:
        raise InvariantViolation("plan replay does not reach the target")
    return ReversalPlan(tuple(moves))


def _score_preserving_delta(pi: Tournament, gamma: Tournament) -> Digraph:
    if pi.p != gamma.p:
        raise SizeMismatch("tournaments on different vertex counts")
    d = delta_id(pi, gamma)
    if not d.is_eulerian():
        raise ScoreMismatch("no 3-cycle plan between tournaments with different scores")
    return d


def plan_any(pi: Tournament, gamma: Tournament) -> ReversalPlan:
    """A valid (not necessarily minimal) 3-cycle plan from pi to gamma.

    Reverses the cycles of the greedy decomposition of Delta one at a time;
    a single length-l cycle costs l - 2 steps.
    """
    return _plan_cycles(pi, gamma, cycle_decomposition(_score_preserving_delta(pi, gamma)), 3)


def plan_optimal(pi: Tournament, gamma: Tournament) -> ReversalPlan:
    """A minimum-length plan: exactly beta(Delta(pi, gamma)) moves.

    Reverses the cycles of one maximum decomposition of Delta, the span
    witness, for |Delta| - 2 span = beta moves in all.
    """
    report = span(_score_preserving_delta(pi, gamma))
    plan = _plan_cycles(pi, gamma, report.witness, 3)
    if len(plan) != report.balance:
        raise InvariantViolation(f"plan has {len(plan)} moves, beta is {report.balance}")
    return plan


def parity(pi: Tournament, gamma: Tournament) -> str:
    """Shared parity of |Delta|, beta(Delta) and every plan length."""
    if pi.p != gamma.p:
        raise SizeMismatch("tournaments on different vertex counts")
    return "even" if delta_id(pi, gamma).edge_count() % 2 == 0 else "odd"


# -- bipartite tournaments ------------------------------------------------------


def _check_bipartite_tournament(g: Digraph, J: Iterable[int], K: Iterable[int]) -> None:
    """Cross pairs all joined and no edge inside a part; reports the least bad pair (a, b)."""
    js, ks = set(J), set(K)
    if js & ks or js | ks != set(range(g.p)):
        raise SizeMismatch("parts must partition the vertices")
    full = (1 << g.p) - 1
    jmask = sum(1 << v for v in js)
    for a in range(g.p):
        same = jmask if (jmask >> a) & 1 else full & ~jmask
        undecided = full & ~same & ~(g.rows[a] | g._cols[a])
        bad = undecided | (g.rows[a] & same)
        if bad:
            b = (bad & -bad).bit_length() - 1
            if (undecided >> b) & 1:
                raise ScoreMismatch(f"undecided cross pair {a},{b}")
            raise ScoreMismatch(f"edge inside one part: {a}->{b}")


def bipartite_plan(pi: Digraph, gamma: Digraph, J: Iterable[int], K: Iterable[int]) -> ReversalPlan:
    """A 4-cycle plan between bipartite tournaments on (J, K) with equal scores.

    A single cycle of length 2l costs l - 1 moves.
    """
    if pi.p != gamma.p:
        raise SizeMismatch("graphs on different vertex counts")
    J, K = list(J), list(K)
    _check_bipartite_tournament(pi, J, K)
    _check_bipartite_tournament(gamma, J, K)
    d = delta_id(pi, gamma)
    if not d.is_eulerian():
        raise ScoreMismatch("parts have unequal scores; no 4-cycle plan exists")
    return _plan_cycles(pi, gamma, cycle_decomposition(d), 4)


# -- special cycles -------------------------------------------------------------


@dataclass(frozen=True)
class SpecialCycles:
    near: tuple[tuple[int, int, int], ...]
    far: tuple[tuple[int, int, int], ...]

    @property
    def count(self) -> int:
        return len(self.near) + len(self.far)


def special_cycles(gamma: Tournament, cycle: Sequence[int]) -> SpecialCycles:
    """Near and far 3-cycles of a cycle in gamma, the single-reversal moves
    that shorten the remaining difference when the cycle is to be undone.

    A vertex whose cycle neighbors close up backwards (successor beats
    predecessor) yields the near cycle through it; a far cycle at x rides a
    cycle edge (j, j+1) with x -> j and j+1 -> x, meeting the cycle only there.
    """
    c = tuple(cycle)
    k = len(c)
    if k < 4 or len(set(c)) != k:
        raise NotACycle("need a cycle of length >= 4 with distinct vertices")
    for t in range(k):
        if not gamma.has_edge(c[t], c[(t + 1) % k]):
            raise NotACycle(f"edge {c[t]}->{c[(t + 1) % k]} not in the tournament")
    near = []
    for t in range(k):
        prv, nxt = c[(t - 1) % k], c[(t + 1) % k]
        if gamma.has_edge(nxt, prv):
            near.append((prv, c[t], nxt))
    far = []
    for t in range(k):
        x = c[t]
        for s in range(k):
            if (s - t) % k in (0, k - 1, k - 2, 1):
                continue
            j, jn = c[s], c[(s + 1) % k]
            if gamma.has_edge(x, j) and gamma.has_edge(jn, x):
                far.append((x, j, jn))
    return SpecialCycles(tuple(sorted(near)), tuple(sorted(far)))
