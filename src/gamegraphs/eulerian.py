"""Decomposition machinery for Eulerian digraphs and tournaments.

Central quantities: the span (maximum number of edge-disjoint cycles whose
union is the graph) and the balance invariant beta = edges - 2*span, which
is also the minimum 3-cycle reversal distance between tournaments.  Every
function takes a Digraph and reads its row masks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, groupby
from math import comb
from typing import Iterable, Optional, Sequence

from .core import Digraph, Game, Tournament, _bits, scores
from .errors import (
    BadLength,
    BudgetExceeded,
    InvariantViolation,
    NotConnected,
    NotEulerian,
    NotStrong,
    TooLarge,
)

def normalize_cycle(cycle: Iterable[int]) -> tuple[int, ...]:
    """Rotate so the least vertex comes first (orientation is preserved)."""
    c = tuple(cycle)
    k = c.index(min(c))
    return c[k:] + c[:k]


def cycle_edges(cycle: Iterable[int]) -> list[tuple[int, int]]:
    c = tuple(cycle)
    return [(c[i], c[(i + 1) % len(c)]) for i in range(len(c))]


def cycle_decomposition(d: Digraph) -> list[tuple[int, ...]]:
    """Greedy decomposition into edge-disjoint cycles covering d exactly.

    Deterministic: peel the cycle through the least remaining edge found by
    a least-successor-first depth-first search.  Not necessarily a maximum
    decomposition.
    """
    if not d.is_eulerian():
        raise NotEulerian("in/out degrees unbalanced")
    return _peel(list(d.rows))


def _peel(rows: list[int]) -> list[tuple[int, ...]]:
    """The greedy peel on a row list, which it empties.

    The least remaining edge is u -> v for the least u with a row left and
    v the lowest bit of that row; the path v..u closes it.  No vertex below
    u has an edge left, so each cycle already starts at its least vertex.
    """
    out = []
    for u in range(len(rows)):
        while rows[u]:
            path = _simple_path(rows, (rows[u] & -rows[u]).bit_length() - 1, u)
            if path is None:
                raise NotEulerian("edge lies on no cycle")  # cannot happen when Eulerian
            cyc = (u, *path)  # closed: ends at u again
            for a, b in zip(cyc, cyc[1:]):
                rows[a] &= ~(1 << b)
            out.append(cyc[:-1])
    return out


def _simple_path(rows: Sequence[int], src: int, dst: int) -> Optional[list[int]]:
    """Vertex-simple path src..dst over the row masks, least successor first.

    A vertex whose subtree failed stays dead for the rest of the search:
    dst was unreachable from it avoiding the path above it, and any later
    path keeps a prefix of that path whose dropped vertices reached it and
    failed as well.  Skipping dead vertices leaves the returned path
    unchanged, and no vertex is entered twice: `seen` holds every vertex
    entered, on the path or dead.
    """
    seen = 1 << src
    path, untried = [src], [rows[src]]  # untried[k]: successors of path[k] not yet tried
    while path:
        m = untried[-1] & ~seen
        if not m:
            path.pop()
            untried.pop()
            continue
        b = m & -m
        untried[-1] = m ^ b
        w = b.bit_length() - 1
        path.append(w)
        if w == dst:
            return path
        seen |= b
        untried.append(rows[w])
    return None


def euler_trail(d: Digraph) -> list[int]:
    """Closed edge-simple trail covering every edge once (Hierholzer, least successor first)."""
    rows = list(d.rows)
    if not any(rows):
        raise NotEulerian("empty edge set has no trail")
    if not d.is_eulerian():
        raise NotEulerian("in/out degrees unbalanced")
    stack = [next(v for v, r in enumerate(rows) if r)]
    trail: list[int] = []
    while stack:
        v = stack[-1]
        if rows[v]:
            b = rows[v] & -rows[v]
            rows[v] ^= b
            stack.append(b.bit_length() - 1)
        else:
            trail.append(stack.pop())
    # in an Eulerian digraph the trail uses every edge of its start's weak
    # component, so an edge left over lies in another one
    if any(rows):
        raise NotConnected("edge set splits into vertex-separated parts")
    trail.reverse()
    return trail


# -- exact span ---------------------------------------------------------------


@dataclass(frozen=True)
class DecompReport:
    """Exact span report: balance = edge_count - 2*span = sum(len(C)-2) over the witness."""

    edge_count: int
    span: int
    balance: int
    witness: tuple[tuple[int, ...], ...]


def _edge_bits(rows: Sequence[int]) -> list[list[int]]:
    """The one edge numbering of the mask searches: bit[u][w] is the mask bit
    of edge u -> w, the edges numbered in lexicographic order as in a
    Digraph's edge list, and 0 off the edges."""
    bit, k = [[0] * len(rows) for _ in rows], 0
    for u, r in enumerate(rows):
        for w in _bits(r):
            bit[u][w], k = 1 << k, k + 1
    return bit


def _all_cycles(rows: Sequence[int], max_cycles: int, max_len: int) -> list[tuple[int, tuple[int, ...], int]]:
    """Every vertex-simple cycle of length <= max_len as (length, vertex tuple,
    edge mask), sorted; BudgetExceeded once there are more than max_cycles.

    Each cycle is rooted at its least vertex and listed once: a walk only
    enters the free vertices, those above its root and off its path.  A walk
    lists the cycles its next step closes (the step enters `into`, the
    root's in-neighbours), and a step to the last length closes or stops, so
    it is listed without a call.  Roots ascend and every walk tries the
    least successor first, so each length's cycles come out in vertex-tuple
    order and the lengths need only be put one after another.
    """
    bit = _edge_bits(rows)
    by_length: list[list[tuple[int, tuple[int, ...], int]]] = [[] for _ in range(max_len + 1)]
    count = 0

    def dfs(start: int, into: int, v: int, free: int, path: tuple[int, ...], mask: int) -> None:
        nonlocal count
        k = len(path) + 1
        m = rows[v] & free
        if k == max_len:
            m &= into
        while m:
            b = m & -m
            m ^= b
            w = b.bit_length() - 1
            step = mask | bit[v][w]
            if b & into and k >= 3:
                by_length[k].append((k, (*path, w), step | bit[w][start]))
                count += 1
                if count > max_cycles:
                    raise BudgetExceeded(f"more than {max_cycles} cycles")
            if k < max_len:
                dfs(start, into, w, free ^ b, (*path, w), step)

    for s in range(len(rows)):
        into = sum(1 << u for u, r in enumerate(rows) if (r >> s) & 1)
        dfs(s, into, s, -(2 << s), (s,), 0)
    return list(chain.from_iterable(by_length))


# the feedback order is an exact minimum up to this many vertices with
# edges; above it any order still bounds the span.  `_feedback_order`
# visits at most 2^n placed sets per pass: on the span11 games (one to
# three passes) it takes 0.24 ms on average and 1.5 ms at most on a 2-core
# VM with Python 3.11, where a DP over all 2^11 sets took about 2 ms.  At
# 16 vertices that DP took 0.1-0.2 s, and the search's worst case grows as
# fast, while the span search on sparse Eulerian digraphs takes well under
# 5 ms.
_EXACT_ORDER = 11


def _feedback_order(d: Digraph, cycles: Sequence[Sequence[int]]) -> tuple[list[int], int]:
    """A vertex order of the vertices with edges and tau, the number of
    edges that run backward in it; `cycles` are edge-disjoint cycles that
    cover d.

    Every cycle leaves some vertex for an earlier one, so the backward
    edges form a feedback arc set and no set of edge-disjoint cycles among
    some edges is larger than the backward edges among them: tau bounds
    the span, and tau >= len(cycles).  Above _EXACT_ORDER vertices the order
    is the identity.  Up to it the order has the least tau, found from the
    cycles as follows.

    Vertices are placed back to front: placing v last among the unplaced
    set R makes its out-edges into R - {v} backward.  Each cycle that meets
    the placed vertices has one backward edge already: the out-edge of its
    first placed vertex.  So placing v adds to extra = backward edges -
    cycles met exactly its out-edges into R - {v} on cycles met before v
    (each cycle newly met at v has one out-edge of v, its own), and extra
    never decreases.  Once all are placed, extra = tau - len(cycles).  With
    the cycles' edges numbered, `started` holds the edges of the cycles met
    and `into` the edges into placed vertices, so v adds the popcount of its
    out-edges in started but not in into.

    Pass k = 0, 1, 2, ... is a depth-first search that tries v in ascending
    order and skips a child whose extra would exceed k; the first pass that
    completes has k = tau_min - len(cycles), and the pass at the identity's
    tau completes at the latest.  What is left to add from R depends on R
    alone, so a set that failed at extra e needs at least k - e + 1 more,
    in this pass and every later one.  In the completing pass every vertex
    taken is the least one that some order of least tau places there, which
    is the tie-break of the subset DP over placed sets
    (`oracle_feedback_order` in the tests), so the order is exactly the
    DP's.  The worst case is tau_min - len(cycles) + 1 passes of at most 2^n
    sets each, for n vertices with edges, n tries per set.
    """
    verts = [v for v in range(d.p) if d.rows[v]]
    if len(verts) > _EXACT_ORDER:
        return verts, sum((d.rows[v] & ((1 << v) - 1)).bit_count() for v in verts)
    ins, outs, through = [0] * d.p, [0] * d.p, [0] * d.p
    i = 0
    for cyc in cycles:
        first = i
        for x, v in zip((cyc[-1], *cyc), cyc):
            ins[v] |= 1 << i
            outs[x] |= 1 << i
            i += 1
        for v in cyc:
            through[v] |= (1 << i) - (1 << first)
    table = [(v, 1 << v, outs[v], ins[v], through[v]) for v in verts]
    need: dict[int, int] = {}
    order: list[int] = []

    def place(r: int, started: int, into: int, extra: int) -> bool:
        waiting = started & ~into
        for v, b, out, inn, thr in table:
            if not r & b:
                continue
            e = extra + (out & waiting).bit_count()
            rest = r ^ b
            if e > k or e + need.get(rest, 0) > k:
                continue
            order.append(v)
            if not rest or place(rest, started | thr, into | inn, e):
                return True
            order.pop()
        need[r] = k - extra + 1
        return False

    k = 0
    while not place(sum(1 << v for v in verts), 0, 0, 0):
        k += 1
    order.reverse()
    return order, len(cycles) + k


def span(d: Digraph, node_budget: int = 50_000_000, cycle_budget: int = 2_000_000) -> DecompReport:
    """Exact maximum decomposition by branch and bound.

    The search starts from the 3-cycle-first greedy decomposition of
    `span_lower_bound`, whose size lb is a lower bound on the span.  Two
    upper bounds close it: floor(edges/3), and tau, the number of edges that
    run backward in a vertex order, since every cycle uses a backward edge.
    When lb meets floor(edges/3) the greedy is returned at once.  Otherwise
    `_feedback_order` takes the order from the greedy's own cycles: up to
    _EXACT_ORDER vertices with edges one of least tau, above it the
    identity.  The order is checked to be a permutation of the vertices
    with edges and to have exactly tau backward edges, else
    InvariantViolation, and when lb meets tau the greedy decomposition is
    certified maximum at the root, before any cycle is listed.  (On C_p for
    p = 11, 13, 15 the greedy reaches n(n+1)/2, the tau of the natural
    order, so the root certifies beta = n^2.)

    Otherwise only cycles of length at most max(3, edges - 3*lb) are listed
    (cycle_budget caps how many): a decomposition into k >= lb + 1 cycles
    has k - 1 others of length >= 3 beside any one cycle, so none of its
    cycles is longer than edges - 3*(k - 1) <= edges - 3*lb, and no
    decomposition that beats the greedy one needs a longer cycle.

    Branches over the listed cycles through the lexicographically least
    uncovered edge, shortest cycles first (ties by vertex sequence), pruning
    a child when taken + min(floor(remaining/3), backward edges remaining)
    cannot beat the best decomposition found so far; the bound depends only
    on the child, so pruning never changes which leaf first improves on
    the best.  Each cycle is filed once, under its own least edge: every
    edge below the least uncovered one is covered, so a cycle through that
    edge fits only if the edge is its least, and the list for it holds
    exactly the cycles that can fit, in the same order.  A node tests each
    fitting child (leaf, bound, memo) before the call, so only surviving
    children recurse; the root and every fitting child count one node
    against node_budget.  When no decomposition beats the greedy one, the
    witness is the greedy decomposition itself.  The witness is checked to
    cover the edges disjointly with span cycles before return.
    """
    lower = span_lower_bound(d)
    ne, best = lower.edge_count, lower.span
    if ne == 0:
        return lower
    nodes = 1  # the root
    if nodes > node_budget:
        raise BudgetExceeded(f"span search exceeded {node_budget} nodes")
    if ne // 3 <= best:
        return _checked_report(d, best, lower.witness)
    order, tau = _feedback_order(d, lower.witness)
    if sorted(order) != [v for v in range(d.p) if d.rows[v]]:
        raise InvariantViolation("feedback order is not a permutation of the vertices with edges")
    bit = _edge_bits(d.rows)
    back = placed = 0
    for u in order:
        for v in _bits(d.rows[u] & placed):
            back |= bit[u][v]
        placed |= 1 << u
    if back.bit_count() != tau:
        raise InvariantViolation(f"feedback order has {back.bit_count()} backward edges, not tau = {tau}")
    if tau <= best:
        return _checked_report(d, best, lower.witness)
    cycles = _all_cycles(d.rows, cycle_budget, max(3, ne - 3 * best))
    through: list[list[tuple[int, int, int]]] = [[] for _ in range(ne)]
    for ci, (length, _, mask) in enumerate(cycles):
        through[(mask & -mask).bit_length() - 1].append((length, mask, ci))
    full = (1 << ne) - 1
    best_stack: Optional[tuple[int, ...]] = None
    seen: dict[int, int] = {full: 0}
    stack: list[int] = []

    def rec(mask: int, cur: int, rem: int) -> None:
        nonlocal best, best_stack, nodes
        nxt = cur + 1
        # a longer cycle cannot beat best even with a perfect 3-cycle tail;
        # when cur > best, limit exceeds rem and no longer cycle fits
        limit = rem - 3 * (best - cur)
        for length, cmask, ci in through[(mask & -mask).bit_length() - 1]:
            if length > limit:
                break
            if cmask & mask != cmask:
                continue
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceeded(f"span search exceeded {node_budget} nodes")
            child = mask ^ cmask
            if child == 0:
                if nxt > best:
                    best = nxt
                    best_stack = (*stack, ci)
                    limit = rem - 3 * (best - cur)
                continue
            left = rem - length
            if nxt + left // 3 <= best or nxt + (child & back).bit_count() <= best:
                continue
            if seen.get(child, -1) >= nxt:
                continue
            seen[child] = nxt
            stack.append(ci)
            rec(child, nxt, left)
            stack.pop()
            limit = rem - 3 * (best - cur)

    rec(full, 0, ne)
    if best_stack is None:
        witness = lower.witness
    else:
        witness = tuple(normalize_cycle(cycles[ci][1]) for ci in best_stack)
    return _checked_report(d, best, witness)


def _checked_report(d: Digraph, best: int, witness: tuple[tuple[int, ...], ...]) -> DecompReport:
    """The span report, once the witness is checked to cover the edges
    disjointly with best cycles."""
    if len(witness) != best:
        raise InvariantViolation(f"span witness has {len(witness)} cycles, not {best}")
    _check_cover(d.rows, witness)
    ne = d.edge_count()
    return DecompReport(ne, best, ne - 2 * best, witness)


def _check_cover(rows: Sequence[int], cycles: Iterable[Sequence[int]]) -> None:
    """The one decomposition certificate: clears each cycle edge from a copy
    of the rows and raises InvariantViolation when an edge is missing or used
    twice, or when an edge is left uncovered."""
    left = list(rows)
    for cyc in cycles:
        for a, b in zip(cyc, (*cyc[1:], cyc[0])):
            if not (left[a] >> b) & 1:
                why = "used twice" if (rows[a] >> b) & 1 else "missing"
                raise InvariantViolation(f"cycle edge {a}->{b} {why}")
            left[a] ^= 1 << b
    if any(left):
        raise InvariantViolation("the cycles leave an edge uncovered")


def span_lower_bound(d: Digraph) -> DecompReport:
    """Bound-only mode: the 3-cycle-first greedy decomposition that `span`
    starts from.

    Walks the edges in sorted order and peels, through each edge still
    present, the 3-cycle closed by its least possible third vertex (one pass
    suffices: removing edges never creates a 3-cycle); what is left is
    Eulerian and goes to the greedy peel of `cycle_decomposition`.  The
    number of cycles is a lower bound on the span, never below
    ceil(edges / vertices) since no cycle is longer than the vertex count;
    balance here is an upper bound.
    """
    if not d.is_eulerian():
        raise NotEulerian("span needs balanced in/out degrees")
    out_rows = list(d.rows)
    in_rows = list(d._cols)
    greedy: list[tuple[int, ...]] = []
    for u in range(d.p):
        for v in _bits(d.rows[u]):
            if not (out_rows[u] >> v) & 1:
                continue
            closing = out_rows[v] & in_rows[u]
            if not closing:
                continue
            w = (closing & -closing).bit_length() - 1
            for (a, b) in ((u, v), (v, w), (w, u)):
                out_rows[a] &= ~(1 << b)
                in_rows[b] &= ~(1 << a)
            greedy.append(normalize_cycle((u, v, w)))
    greedy += _peel(out_rows)
    ne, lb = d.edge_count(), len(greedy)
    return DecompReport(ne, lb, ne - 2 * lb, tuple(greedy))


def balance(d: Digraph) -> int:
    return span(d).balance


def format_decomposition(report: DecompReport) -> str:
    """Text form: one 'c v1 v2 ... vk' line per cycle, then the report line."""
    lines = ["c " + " ".join(str(v) for v in cyc) for cyc in report.witness]
    lines.append(f"span={report.span} balance={report.balance} edges={report.edge_count}")
    return "\n".join(lines) + "\n"


# -- tournament structure -----------------------------------------------------


def strong_components(g: Digraph) -> list[list[int]]:
    """Maximal strongly connected classes, listed in the induced quotient order.

    For a tournament the condensation is a total order ([i] -> [j] for listed
    i before j); for general digraphs the classes come in a topological order
    of the condensation with ties by least vertex.  Every member of a class
    reaches the same vertices, and a class reaches more than any class it
    reaches, so the classes sort by that reach, largest first.
    """
    rows = g.rows
    reach = []
    for v in range(g.p):
        seen = frontier = 1 << v
        while frontier:
            step = 0
            for u in _bits(frontier):
                step |= rows[u]
            frontier = step & ~seen
            seen |= frontier
        reach.append(seen)
    classes = {sum(1 << w for w in _bits(reach[v]) if reach[w] >> v & 1) for v in range(g.p)}
    comps = [list(_bits(c)) for c in classes]
    comps.sort(key=lambda c: (-reach[c[0]].bit_count(), c[0]))
    return comps


def cycle_through(g: Tournament, v: int, length: int) -> tuple[int, ...]:
    """A cycle of the requested length through v, grown by the insertion
    argument of Moon's theorem (every vertex of a strong tournament lies on
    a cycle of every length from 3 to p).

    Needs a strong tournament with p > 1 and 3 <= length <= p; a digraph
    that is no tournament raises InvariantViolation.
    """
    p, rows, cols = g.p, g.rows, g._cols
    if not (0 <= v < p):
        raise BadLength(f"vertex {v} out of range")
    if p <= 1 or not (3 <= length <= p):
        raise BadLength(f"no {length}-cycle in a tournament on {p} vertices")
    full = (1 << p) - 1
    if any(rows[u] | cols[u] != full ^ (1 << u) for u in range(p)):
        raise InvariantViolation("cycle_through needs a tournament")
    if len(strong_components(g)) != 1:
        raise NotStrong("tournament is not strong")
    # least 3-cycle through v: its least out-neighbor that beats an in-neighbor
    j1 = next((j for j in _bits(rows[v]) if rows[j] & cols[v]), None)
    if j1 is None:
        raise NotStrong("no 3-cycle through vertex")  # impossible in a strong tournament
    cyc = [v, j1, next(_bits(rows[j1] & cols[v]))]
    while len(cyc) < length:
        on = sum(1 << u for u in cyc)
        j = next((j for j in _bits(full ^ on) if rows[j] & on and cols[j] & on), None)
        if j is not None:
            # rotate so position 0 beats j, insert j after the last
            # consecutive beats-j prefix
            k0 = next(k for k, u in enumerate(cyc) if cols[j] >> u & 1)
            rot = cyc[k0:] + cyc[:k0]
            s = next(s for s, u in enumerate(rot) if not cols[j] >> u & 1)
            cyc = rot[:s] + [j] + rot[s:]
            continue
        # every outside vertex beats the whole cycle or loses to all of it;
        # a vertex is in no row or column of its own, so A and B lie outside
        A = B = -1
        for u in cyc:
            A &= rows[u]
            B &= cols[u]
        u = next((u for u in _bits(A) if rows[u] & B), None)
        if u is None:
            raise NotStrong("tournament is not strong")  # defensive; cannot happen
        k0 = 0 if cyc[1] != v else 1
        rot = cyc[k0:] + cyc[:k0]
        cyc = [rot[0], u, next(_bits(rows[u] & B))] + rot[2:]
    return normalize_cycle(cyc)


def is_order(g: Tournament) -> Optional[list[int]]:
    """Ordering witness [first, ..., last] (earlier beats later) iff g is transitive."""
    if scores(g) != tuple(range(g.p)):
        return None
    order = sorted(range(g.p), key=lambda v: -g.out_degree(v))
    later = 0
    for v in reversed(order):
        if g.rows[v] != later:
            return None
        later |= 1 << v
    return order


@dataclass(frozen=True)
class ThreeCycleStats:
    per_vertex: tuple[int, ...]
    total: int
    formula_total: int


def three_cycle_stats(g: Tournament) -> ThreeCycleStats:
    """3-cycle counts by direct enumeration plus the score-vector formula.

    For a game of size 2n+1 each vertex lies in n(n+1)/2 3-cycles and the
    total is (2n+1)n(n+1)/6.
    """
    p = g.p
    tris = _three_cycles(g.rows, g._cols)
    per = Counter(chain.from_iterable(tris))
    s2 = sum(g.out_degree(i) ** 2 for i in range(p))
    num = p * (p - 1) * (2 * p - 1) - 6 * s2
    if num % 12:
        raise InvariantViolation("3-cycle formula is not an integer")
    return ThreeCycleStats(tuple(per[v] for v in range(p)), len(tris), num // 12)


def _three_cycles(rows: Sequence[int], cols: Sequence[int]) -> list[tuple[int, int, int]]:
    """3-cycles a -> b -> c -> a with a least, from out-neighbor masks (rows)
    and in-neighbor masks (cols).  The loops run a, b, c upwards, so the list
    comes out in lexicographic order without a sort."""
    out = []
    for a, ra in enumerate(rows):
        above = ~((2 << a) - 1)
        m = ra & above
        ins = cols[a] & above
        while m:
            bb = m & -m
            m ^= bb
            b = bb.bit_length() - 1
            mm = rows[b] & ins
            while mm:
                cc = mm & -mm
                mm ^= cc
                out.append((a, b, cc.bit_length() - 1))
    return out


def three_cycles(g: Digraph) -> list[tuple[int, int, int]]:
    """All 3-cycles (a,b,c), a minimal, in lexicographic order."""
    return _three_cycles(g.rows, g._cols)


# steiner_decomposition's budget of edges scanned, 2-4 s at p = 21-31: the
# tests scan at most 84, and the p = 31 Steiner variants of the p = 15 variants
# of the size-7 type II circulant up to 1.71 M, so `steiner_variants` reaches p = 63.
_STEINER_WORK = 2_000_000


def steiner_decomposition(g: Game) -> Optional[list[tuple[int, int, int]]]:
    """Exact-cover search for a decomposition of a game into 3-cycles.

    Returns a witness (automatically a maximum decomposition, with balance
    n(2n+1)/3), checked by `_check_cover`, or None when the game is not
    Steiner.  Each node scans the uncovered edges for the one with the
    fewest fitting 3-cycles; past _STEINER_WORK edges scanned in all it
    raises BudgetExceeded.
    """
    if not isinstance(g, Game):
        raise InvariantViolation("steiner decomposition needs a game")
    ne = g.edge_count()
    if ne % 3:
        return None
    bit = _edge_bits(g.rows)
    tris = three_cycles(g)
    tri_masks = [bit[a][b] | bit[b][c] | bit[c][a] for a, b, c in tris]
    by_edge: list[list[int]] = [[] for _ in range(ne)]
    for ti, m in enumerate(tri_masks):
        for k in _bits(m):
            by_edge[k].append(ti)
    chosen: list[int] = []
    work = 0

    def rec(mask: int) -> bool:
        nonlocal work
        if mask == 0:
            return True
        # branch on the uncovered edge with fewest available triangles
        best_opts = None
        for e in _bits(mask):
            work += 1
            if work > _STEINER_WORK:
                raise BudgetExceeded(f"steiner search scanned more than {_STEINER_WORK} edges")
            opts = [ti for ti in by_edge[e] if tri_masks[ti] & mask == tri_masks[ti]]
            if best_opts is None or len(opts) < len(best_opts):
                best_opts = opts
                if not opts:
                    return False
        for ti in best_opts:  # type: ignore[union-attr]
            chosen.append(ti)
            if rec(mask ^ tri_masks[ti]):
                return True
            chosen.pop()
        return False

    if not rec((1 << ne) - 1):
        return None
    witness = sorted(tris[ti] for ti in chosen)
    _check_cover(g.rows, witness)
    return witness


# count_eulerian_subgraphs raises TooLarge past this many tuple entries
# touched: about 2 s, enough for the regular scores through p = 19.
_COUNT_WORK = 10_000_000


def count_eulerian_subgraphs(g: Tournament) -> int:
    """Number of Eulerian subgraphs (including the empty one): reversing one
    keeps every score, and tournaments with equal scores differ by one, so
    this counts the labeled tournaments with g's scores (for a game, the
    labeled games of its size).  A memoized DP over the sorted wins each
    remaining vertex still needs: the first vertex beats that many of the
    others, chosen per group of equal need by a binomial, and the rest beat
    it.  A state is kept in the form, itself or its reversal (needs x ->
    k-1-x on k vertices), with the smaller first need."""
    if not isinstance(g, Tournament):
        raise InvariantViolation("counting Eulerian subgraphs needs a tournament")
    memo: dict[tuple[int, ...], int] = {(): 1}
    work = 0

    def count(needs: tuple[int, ...]) -> int:
        nonlocal work
        k = len(needs)
        work += k
        if k and needs[0] > k - 1 - needs[-1]:
            needs = tuple(k - 1 - x for x in reversed(needs))
        if needs in memo:
            return memo[needs]
        groups = [(x, len(list(run))) for x, run in groupby(needs[1:])]
        total = 0
        # depth first over how many of each group the first vertex beats;
        # the rest beat it and need one win fewer, so heads stay sorted
        stack = [(0, needs[0], 1, ())]
        while stack:
            i, left, weight, head = stack.pop()
            if i == len(groups):
                if left == 0:
                    total += weight * count(head)
                continue
            work += k
            if work > _COUNT_WORK:
                raise TooLarge(f"labeled count past {_COUNT_WORK} steps")
            x, c = groups[i]
            for b in range(c if x == 0 else 0, min(c, left) + 1):
                stack.append((i + 1, left - b, weight * comb(c, b), head + (x - 1,) * (c - b) + (x,) * b))
        memo[needs] = total
        return total

    return count(scores(g))
