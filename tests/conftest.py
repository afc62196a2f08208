"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's own algorithms: spans by
exhaustive decomposition enumeration, isomorphism by raw permutation search,
Eulerian-subgraph counts by direct subset enumeration.  Some keep the
methods the library replaced: the census by canonicalizing every labeled
game, the meet-in-the-middle Eulerian-subgraph count, the parity split by
enumeration, and the difference graph and subgraph reversal edge by edge.
Game-subset families come from a scan of every mask, and the greedy cycle
peel, the 3-cycle-first greedy and the Euler trail run on edge sets with
successor lists and a union-find.  Others keep the plain forms of searches
the library now prunes or speeds up: the canonical refinement tree, whole
or orbit-pruned, over the plain refinement step (every signature rebuilt
from the bitmasks each round, in-colors always included) and the plain leaf
value (all p^2 pairs), the simple-path DFS without its dead-end memory, the
one-sided interchange BFS with its own 3-cycle listing, the per-step descent
planner that re-solves the span after every move, and the span branch and
bound that files each cycle under every one of its edges and tests each
child after the call.  The cycle listing it branches over and the Steiner
exact cover keep their edge-list forms, each numbering the edges through
its own (i, j) -> index dict.  The constructions keep their edge-by-edge forms:
the double and its parts from edge lists, pointed realization and Eulerian
completion that rebuild the graph after every reversed path, and the
uniquely reducible extension found by testing every pair of every
extension.  So do the lexicographic product, edge by edge, and the
vertex-set forms of the SEP check, saturation, embedding extension, the
reducibility graph and double recognition, each tested pair by pair.
The tournament-structure oracles are pair by pair too: strong components
from the all-pairs reach fixpoint, the cycle insertion of Moon's theorem,
the transitive-order test and the morphism test of a projection.  The game
enumerator keeps a running win count for every vertex.  The group and
quotient games apply i^-1 j in A pair by pair, the bipartite-tournament
check scans every ordered pair, and the size-7 classification restricts a
Digraph to every out-set and in-set.  Group automorphisms come from a scan
of every bijection that fixes the identity, each tested on all pairs of
elements, and on a relabelled cyclic table from the unit maps conjugated by
the relabelling.
"""

import random
from collections import defaultdict
from itertools import combinations, permutations
from math import factorial, gcd

import pytest

from gamegraphs.atlas import Atlas, ClassInfo, census, enumerate_games
from gamegraphs.construct import lex_product
from gamegraphs.core import (
    Digraph,
    EdgeSet,
    Game,
    Permutation,
    circulant,
    from_rows,
    make_digraph,
    relabel,
    restrict,
)
from gamegraphs.eulerian import (
    DecompReport,
    normalize_cycle,
    span,
    span_lower_bound,
    three_cycles,
)
from gamegraphs.groups import FiniteGroup, GameSubset, subgroup_group
from gamegraphs.morph import _canon_search, automorphisms, canon_hex, canonical_form
from gamegraphs.reversal import delta_id
from gamegraphs.errors import (
    BadLength,
    BudgetExceeded,
    NotConnected,
    NotStrong,
    NotSubgraph,
    ScoreMismatch,
    SepExhausted,
    SizeMismatch,
)


@pytest.fixture(scope="session")
def c3() -> Game:
    return circulant(3, (1,))


@pytest.fixture(scope="session")
def g5() -> Game:
    return circulant(5, (1, 2))


@pytest.fixture(scope="session")
def g7i() -> Game:
    return circulant(7, (1, 2, 3))


@pytest.fixture(scope="session")
def g7ii() -> Game:
    return circulant(7, (1, 2, 4))


@pytest.fixture(scope="session")
def g7iii(g7ii) -> Game:
    # the type II circulant with its 3-cycle 3 -> 5 -> 6 -> 3 reversed
    rows = list(g7ii.rows)
    for (u, v) in ((3, 5), (5, 6), (6, 3)):
        rows[u] &= ~(1 << v)
        rows[v] |= 1 << u
    return Game(7, rows)


@pytest.fixture(scope="session")
def census7():
    """The size-7 census (three classes from the circulant), built once per
    session."""
    return census(7)


@pytest.fixture(scope="session")
def straddle() -> Digraph:
    return make_digraph(3, [(0, 1), (0, 2), (1, 2)])


@pytest.fixture(scope="session")
def order4() -> Digraph:
    return standard_order(4)


@pytest.fixture(scope="session")
def chorded_nine_ring() -> EdgeSet:
    cyc9 = [(i, (i + 1) % 9) for i in range(9)]
    return EdgeSet(9, cyc9 + [(6, 3), (3, 0), (0, 6)])


def standard_order(p: int) -> Digraph:
    rows = [0] * p
    for i in range(p):
        for j in range(i + 1, p):
            rows[i] |= 1 << j
    return from_rows(p, rows)


def random_tournament(p: int, rng: random.Random) -> Digraph:
    rows = [0] * p
    for i in range(p):
        for j in range(i + 1, p):
            if rng.random() < 0.5:
                rows[i] |= 1 << j
            else:
                rows[j] |= 1 << i
    return from_rows(p, rows)


def random_digraph(p: int, rng: random.Random) -> Digraph:
    """Each pair of vertices unjoined or joined one way, a third each."""
    rows = [0] * p
    for i in range(p):
        for j in range(i + 1, p):
            x = rng.randrange(3)
            if x == 1:
                rows[i] |= 1 << j
            elif x == 2:
                rows[j] |= 1 << i
    return from_rows(p, rows)


def random_eulerian_edgeset(p: int, rng: random.Random, tries: int = 30) -> EdgeSet:
    """Union of random vertex-disjoint-edge cycles; always Eulerian."""
    edges: set = set()
    for _ in range(tries):
        k = rng.randint(3, p)
        verts = rng.sample(range(p), k)
        cyc = [(verts[t], verts[(t + 1) % k]) for t in range(k)]
        if any((v, u) in edges or (u, v) in edges for (u, v) in cyc):
            continue
        edges.update(cyc)
    return EdgeSet(p, edges)


def disjoint_walk(start: Game, steps: int, rng: random.Random) -> Game:
    """The game `steps` 3-cycle flips from start, no two flips sharing a
    pair of vertices, so its interchange distance from start is `steps`.

    Raises ValueError when no 3-cycle on three unused pairs is left.  That
    check draws nothing from rng, so a walk that succeeds is unchanged."""
    p = start.p
    rows = list(start.rows)
    used = [0] * p  # used[a] has bit b once the pair {a, b} was flipped

    def usable() -> bool:
        free = [r & ~u for r, u in zip(rows, used)]  # edges on unused pairs
        free_in = [sum(1 << c for c in range(p) if (free[c] >> a) & 1) for a in range(p)]
        return any(free[b] & free_in[a] for a in range(p) for b in range(p) if (free[a] >> b) & 1)

    done = 0
    while done < steps:
        a = rng.randrange(p)
        outs = [j for j in range(p) if (rows[a] >> j) & 1 and not (used[a] >> j) & 1]
        closing = []
        if outs:
            b = rng.choice(outs)
            closing = [c for c in range(p) if (rows[b] >> c) & 1 and (rows[c] >> a) & 1
                       and not ((used[b] >> c) | (used[c] >> a)) & 1]
        if not closing:
            if not usable():
                raise ValueError(f"no 3-cycle on unused pairs after {done} of {steps} flips")
            continue
        c = rng.choice(closing)
        for (x, y) in ((a, b), (b, c), (c, a)):
            rows[x] &= ~(1 << y)
            rows[y] |= 1 << x
            used[x] |= 1 << y
            used[y] |= 1 << x
        done += 1
    return Game(p, rows)


# -- oracles ---------------------------------------------------------------------


def oracle_iso(a: Digraph, b: Digraph):
    """Raw permutation search for an isomorphism witness."""
    if a.p != b.p:
        return None
    for img in permutations(range(a.p)):
        ok = True
        for i in range(a.p):
            for j in range(a.p):
                if i != j and a.has_edge(i, j) != b.has_edge(img[i], img[j]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return img
    return None


def oracle_span(d: EdgeSet) -> int:
    """Exhaustive maximum over all decompositions; viable up to ~14 edges."""
    edges = sorted(d.edges())

    def all_cycles_through(first, remaining):
        (u, v) = first
        out = []

        def dfs(x, seen, path):
            if x == u:
                out.append(list(path))
                return
            for (a, b) in remaining:
                if a == x and (b == u or b not in seen):
                    dfs(b, seen | {b}, path + [(a, b)])

        dfs(v, {v}, [first])
        return out

    def best(remaining: frozenset) -> int:
        if not remaining:
            return 0
        first = min(remaining)
        top = 0
        for cyc in all_cycles_through(first, remaining):
            top = max(top, 1 + best(remaining - frozenset(cyc)))
        return top

    return best(frozenset(edges))


def oracle_all_cycles(p: int, edges: list, max_cycles: int, max_len: int) -> list:
    """Every vertex-simple cycle of length <= max_len as (length, vertex
    tuple, edge mask), sorted, from successor lists over the edge list, each
    edge's mask bit its index in that list.  Cycles are rooted at their least
    vertex; past max_cycles cycles the next DFS entry raises BudgetExceeded."""
    eidx = {e: k for k, e in enumerate(edges)}
    succ = defaultdict(list)
    for (i, j) in edges:
        succ[i].append(j)
    for v in succ:
        succ[v].sort()
    cycles = []

    def dfs(start, v, visited, path, mask):
        if len(cycles) > max_cycles:
            raise BudgetExceeded(f"more than {max_cycles} cycles")
        for w in succ[v]:
            if w == start and len(path) >= 3:
                cycles.append((len(path), tuple(path), mask | (1 << eidx[(v, start)])))
            elif w > start and len(path) < max_len and not (visited >> w) & 1:
                path.append(w)
                dfs(start, w, visited | (1 << w), path, mask | (1 << eidx[(v, w)]))
                path.pop()

    for s in sorted(succ):
        dfs(s, s, 1 << s, [s], 0)
    cycles.sort(key=lambda t: (t[0], t[1]))
    return cycles


def oracle_steiner_decomposition(g: Game, work_budget: int = 2_000_000):
    """The fewest-options exact cover of a game by 3-cycles over its edge
    list: each 3-cycle's mask from an (i, j) -> index dict, each node
    branching on the uncovered edge with the fewest fitting 3-cycles.  The
    sorted witness, or None; BudgetExceeded past work_budget edges scanned."""
    edges = g.edges()
    if len(edges) % 3:
        return None
    eidx = {e: k for k, e in enumerate(edges)}
    tris = three_cycles(g)
    tri_masks = []
    by_edge = [[] for _ in edges]
    for ti, (a, b, c) in enumerate(tris):
        ks = (eidx[(a, b)], eidx[(b, c)], eidx[(c, a)])
        tri_masks.append(sum(1 << k for k in ks))
        for k in ks:
            by_edge[k].append(ti)
    chosen = []
    work = 0

    def rec(mask):
        nonlocal work
        if mask == 0:
            return True
        best_opts = None
        for e in _set_bits(mask):
            work += 1
            if work > work_budget:
                raise BudgetExceeded(f"steiner search scanned more than {work_budget} edges")
            opts = [ti for ti in by_edge[e] if tri_masks[ti] & mask == tri_masks[ti]]
            if best_opts is None or len(opts) < len(best_opts):
                best_opts = opts
                if not opts:
                    return False
        for ti in best_opts:
            chosen.append(ti)
            if rec(mask ^ tri_masks[ti]):
                return True
            chosen.pop()
        return False

    if not rec((1 << len(edges)) - 1):
        return None
    return sorted(tris[ti] for ti in chosen)


def oracle_span_search(d) -> DecompReport:
    """The span branch and bound in its plain form: each cycle is filed
    under every edge it contains, the popcount is recomputed per node, and
    every fitting child is entered before its leaf, bound and memo tests,
    and the only bound is edges/3.  Same witness as `span`, whose extra
    feedback-arc-set bound prunes only subtrees that cannot beat the best."""
    lower = span_lower_bound(d)
    ne, best = lower.edge_count, lower.span
    if ne == 0:
        return lower
    p, edges = d.p, d.edges()
    cycles = oracle_all_cycles(p, edges, 2_000_000, max(3, ne - 3 * best))
    through = [[] for _ in range(ne)]
    for ci, (length, _, mask) in enumerate(cycles):
        m = mask
        while m:
            b = m & -m
            through[b.bit_length() - 1].append((length, mask, ci))
            m ^= b
    best_stack = None
    seen = {}
    stack = []

    def rec(mask: int, cur: int) -> None:
        nonlocal best, best_stack
        if mask == 0:
            if cur > best:
                best = cur
                best_stack = tuple(stack)
            return
        rem = bin(mask).count("1")
        if cur + rem // 3 <= best:
            return
        if seen.get(mask, -1) >= cur:
            return
        seen[mask] = cur
        least = (mask & -mask).bit_length() - 1
        for length, cmask, ci in through[least]:
            if best >= cur and length > rem - 3 * (best - cur):
                break
            if cmask & mask == cmask:
                stack.append(ci)
                rec(mask ^ cmask, cur + 1)
                stack.pop()

    rec((1 << ne) - 1, 0)
    if best_stack is None:
        witness = lower.witness
    else:
        witness = tuple(normalize_cycle(cycles[ci][1]) for ci in best_stack)
    return DecompReport(ne, best, ne - 2 * best, witness)


def oracle_delta(rho, pi: Digraph, gamma: Digraph) -> EdgeSet:
    """Delta pair by pair: the edges of pi that rho sends to reversed edges
    of gamma."""
    return EdgeSet(pi.p, [(i, j) for (i, j) in pi.edges() if gamma.has_edge(rho(j), rho(i))])


def oracle_reverse_subgraph(pi: Digraph, d: Digraph) -> Digraph:
    """pi with d reversed, one edge at a time."""
    rows = list(pi.rows)
    for (i, j) in d.edges():
        if not pi.has_edge(i, j):
            raise NotSubgraph(f"edge {i}->{j} is not in the graph")
        rows[i] &= ~(1 << j)
        rows[j] |= 1 << i
    return from_rows(pi.p, rows)


def oracle_eulerian_count(g: Digraph) -> int:
    """Direct enumeration of balanced edge subsets; viable up to ~16 edges."""
    edges = sorted(g.edges())
    count = 0
    for mask in range(1 << len(edges)):
        bal = [0] * g.p
        for k, (i, j) in enumerate(edges):
            if (mask >> k) & 1:
                bal[i] += 1
                bal[j] -= 1
        if all(b == 0 for b in bal):
            count += 1
    return count


def all_labeled_tournaments(p: int):
    """Every labeled tournament on p vertices (2^(p choose 2) of them)."""
    pairs = list(combinations(range(p), 2))
    for mask in range(1 << len(pairs)):
        rows = [0] * p
        for k, (i, j) in enumerate(pairs):
            if (mask >> k) & 1:
                rows[i] |= 1 << j
            else:
                rows[j] |= 1 << i
        yield from_rows(p, rows)


def _set_bits(mask: int) -> list:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def oracle_refine(p: int, rows, cols, colors: list) -> list:
    """Plain color refinement: signature (color, sorted out-colors, sorted
    in-colors) rebuilt from the bitmasks every round, ranked, to a fixed point."""
    while True:
        sigs = []
        for v in range(p):
            so = sorted(colors[w] for w in _set_bits(rows[v]))
            si = sorted(colors[w] for w in _set_bits(cols[v]))
            sigs.append((colors[v], tuple(so), tuple(si)))
        table = {s: k for k, s in enumerate(sorted(set(sigs)))}
        new = [table[s] for s in sigs]
        if new == colors:
            return new
        colors = new


def oracle_bits_under(p: int, rows, perm) -> int:
    """Adjacency bit-string relabeled by perm, read over all p^2 pairs."""
    inv = [0] * p
    for v, label in enumerate(perm):
        inv[label] = v
    val = 0
    for a in range(p):
        ra = rows[inv[a]]
        for b in range(p):
            if a != b and (ra >> inv[b]) & 1:
                val |= 1 << (a * p + b)
    return val


def oracle_canon_tree(g: Digraph):
    """The whole individualization-refinement tree, no pruning.

    Returns the minimum leaf value, the first leaf reaching it, and the
    sorted automorphism group read off all the leaves that reach it.
    """
    p = g.p
    rows, cols = g.rows, g._cols
    leaves = []

    def rec(colors):
        classes = {}
        for v, c in enumerate(colors):
            classes.setdefault(c, []).append(v)
        cells = [classes[c] for c in sorted(classes) if len(classes[c]) > 1]
        if not cells:
            leaves.append((oracle_bits_under(p, rows, colors), tuple(colors)))
            return
        for v in cells[0]:
            c2 = list(colors)
            c2[v] = p
            rec(oracle_refine(p, rows, cols, c2))

    rec(oracle_refine(p, rows, cols, [0] * p))
    best = min(val for val, _ in leaves)
    mins = [leaf for val, leaf in leaves if val == best]
    inv = [0] * p
    for v, label in enumerate(mins[0]):
        inv[label] = v
    group = sorted(tuple(inv[label] for label in leaf) for leaf in mins)
    return best, mins[0], group


def oracle_canon_search(g: Digraph):
    """The orbit-pruned refinement tree over the plain refinement step.

    Depth first, like the full tree; a leaf that ties the best value so far
    records gamma = best^-1 o leaf, and a child w is skipped when an earlier
    explored sibling lies in w's orbit, found by closing w under the
    recorded gammas that fix the individualized prefix.  Returns the
    minimum value, the first leaf reaching it, the gammas in the order
    found and the number of nodes visited.
    """
    p = g.p
    rows, cols = g.rows, g._cols
    best = [None, None, None]  # value, leaf, inverse of the leaf
    gens = []
    nodes = 0

    def orbit(v, prefix):
        fixing = [a for a in gens if all(a[x] == x for x in prefix)]
        seen, todo = {v}, [v]
        while todo:
            x = todo.pop()
            for a in fixing:
                if a[x] not in seen:
                    seen.add(a[x])
                    todo.append(a[x])
        return seen

    def rec(colors, prefix):
        nonlocal nodes
        nodes += 1
        classes = {}
        for v, c in enumerate(colors):
            classes.setdefault(c, []).append(v)
        cells = [classes[c] for c in sorted(classes) if len(classes[c]) > 1]
        if not cells:
            val = oracle_bits_under(p, rows, colors)
            if best[0] is None or val < best[0]:
                inv = [0] * p
                for v, label in enumerate(colors):
                    inv[label] = v
                best[:] = [val, tuple(colors), inv]
            elif val == best[0]:
                gens.append(tuple(best[2][label] for label in colors))
            return
        explored = []
        for v in cells[0]:
            if explored and orbit(v, prefix) & set(explored):
                continue
            explored.append(v)
            c2 = list(colors)
            c2[v] = p
            rec(oracle_refine(p, rows, cols, c2), prefix + (v,))

    rec(oracle_refine(p, rows, cols, [0] * p), ())
    return best[0], best[1], tuple(gens), nodes


def oracle_aut_closure(g: Digraph) -> list:
    """The automorphism group as the sorted closure of every generator the
    search records."""
    return sorted(oracle_closure(g.p, _canon_search(g, 2_000_000).generators))


def oracle_closure(p: int, gens) -> set:
    """The group that the image tuples gens generate on 0..p-1, built breadth
    first by composing each element found with each generator."""
    ident = tuple(range(p))
    group = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for gen in gens:
                b = tuple(gen[x] for x in a)
                if b not in group:
                    group.add(b)
                    nxt.append(b)
        frontier = nxt
    return group


def oracle_simple_path(edges, src: int, dst: int):
    """Least-successor-first simple path src..dst with no memory of dead ends."""
    succ = defaultdict(list)
    for (i, j) in sorted(edges):
        succ[i].append(j)

    def dfs(v, visited, path):
        if v == dst:
            return path
        for w in succ[v]:
            if w == dst or w not in visited:
                got = dfs(w, visited | {w}, path + [w])
                if got is not None:
                    return got
        return None

    return dfs(src, {src}, [src])


def _oracle_dead_end_path(succ, src: int, dst: int):
    """The same path as oracle_simple_path, with a set of dead vertices
    whose subtrees failed; fast enough for 63-vertex difference graphs."""
    dead = set()

    def dfs(v, visited, path):
        if v == dst:
            return path
        for w in succ[v]:
            if w == dst or (w not in visited and w not in dead):
                got = dfs(w, visited | {w}, path + [w])
                if got is not None:
                    return got
        dead.add(v)
        return None

    return dfs(src, {src}, [src])


def oracle_cycle_decomposition(d: Digraph) -> list:
    """The greedy peel on an edge set: remove the cycle that the least
    remaining edge (u, v) closes with the least-successor-first path v..u,
    with the successor lists rebuilt from the set for every cycle."""
    remaining = set(d.edges())
    out = []
    while remaining:
        (u, v) = min(remaining)
        succ = defaultdict(list)
        for (i, j) in sorted(remaining):
            succ[i].append(j)
        path = _oracle_dead_end_path(succ, v, u)
        assert path is not None, "edge lies on no cycle"
        cyc = (u,) + tuple(path[:-1])
        for e in zip(cyc, cyc[1:] + cyc[:1]):
            remaining.remove(e)
        out.append(normalize_cycle(cyc))
    return out


def oracle_span_lower_bound(d: Digraph) -> tuple:
    """The 3-cycle-first greedy on an edge set: each edge still present, in
    sorted order, loses the 3-cycle through its least closing vertex; the
    rest is peeled by oracle_cycle_decomposition."""
    remaining = set(d.edges())
    greedy = []
    for (u, v) in sorted(remaining):
        if (u, v) not in remaining:
            continue
        closing = [w for w in range(d.p) if (v, w) in remaining and (w, u) in remaining]
        if closing:
            w = closing[0]
            remaining -= {(u, v), (v, w), (w, u)}
            greedy.append(normalize_cycle((u, v, w)))
    return tuple(greedy + oracle_cycle_decomposition(EdgeSet(d.p, remaining)))


def oracle_euler_trail(d: Digraph) -> list:
    """Closed trail over every edge of a connected Eulerian digraph by
    Hierholzer's splice, least successor first, from the least vertex with
    an edge; connectivity is checked by a union-find over the edges."""
    edges = d.edges()
    parent = list(range(d.p))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for (i, j) in edges:
        parent[find(i)] = find(j)
    verts = {v for e in edges for v in e}
    if len({find(v) for v in verts}) > 1:
        raise NotConnected("edge set splits into vertex-separated parts")
    succ = defaultdict(list)
    for (i, j) in sorted(edges, reverse=True):
        succ[i].append(j)
    stack, trail = [min(verts)], []
    while stack:
        v = stack[-1]
        if succ[v]:
            stack.append(succ[v].pop())
        else:
            trail.append(stack.pop())
    return trail[::-1]


def _oracle_flip3(rows: tuple, tri: tuple) -> tuple:
    a, b, c = tri
    out = list(rows)
    out[a] = (out[a] & ~(1 << b)) | (1 << c)
    out[b] = (out[b] & ~(1 << c)) | (1 << a)
    out[c] = (out[c] & ~(1 << a)) | (1 << b)
    return tuple(out)


def _oracle_tris(rows: tuple, p: int) -> list:
    cols = [0] * p
    for i in range(p):
        m = rows[i]
        while m:
            b = m & -m
            cols[b.bit_length() - 1] |= 1 << i
            m ^= b
    out = []
    for a in range(p):
        m = rows[a]
        while m:
            bb = m & -m
            b = bb.bit_length() - 1
            m ^= bb
            if b < a:
                continue
            mm = rows[b] & cols[a]
            while mm:
                cc = mm & -mm
                c = cc.bit_length() - 1
                mm ^= cc
                if c > a:
                    out.append((a, b, c))
    return out


def oracle_interchange_bfs(p: int, src: tuple, dst=None):
    """One-sided BFS over game row tuples with geodesic counting.

    Returns (dist, count): interchange distance from src and the number of
    shortest paths from src, per game reached.  With dst, stops once the
    level holding dst is complete; without, sweeps the whole graph.
    """
    dist = {src: 0}
    count = {src: 1}
    frontier = [src]
    level = 0
    while frontier:
        if dst in dist and level >= dist[dst]:
            break
        nxt = []
        for rows in frontier:
            for tri in _oracle_tris(rows, p):
                r2 = _oracle_flip3(rows, tri)
                if r2 not in dist:
                    dist[r2] = level + 1
                    count[r2] = count[rows]
                    nxt.append(r2)
                elif dist[r2] == level + 1:
                    count[r2] += count[rows]
        frontier = nxt
        level += 1
    return dist, count


def oracle_plan_descent(pi: Digraph, gamma: Digraph) -> list:
    """A minimum plan by descent: at each step reverse the first 3-cycle, in
    `three_cycles` order, whose reversal lowers beta, found by re-solving the
    span for every candidate.  Such a 3-cycle exists while the games differ."""
    moves = []
    g = pi
    beta = span(delta_id(pi, gamma)).balance
    while g != gamma:
        for tri in three_cycles(g):
            g2 = from_rows(g.p, _oracle_flip3(g.rows, tri))
            b2 = span(delta_id(g2, gamma)).balance
            if b2 == beta - 1:
                moves.append(tri)
                g, beta = g2, b2
                break
        else:
            raise AssertionError("no descent step while the graphs differ")
    return moves


def oracle_census(p: int) -> Atlas:
    """Census by canonicalizing every labeled game (p <= 7 in practice): the
    first member of each class in enumeration order is its representative,
    and each class holds p!/|Aut| labeled games."""
    groups = {}
    total = 0
    for g in enumerate_games(p):
        total += 1
        groups.setdefault(canonical_form(g).bits, []).append(g)
    classes = []
    for bits in sorted(groups):
        members = groups[bits]
        aut = automorphisms(members[0]).order
        assert len(members) * aut == factorial(p)
        classes.append(ClassInfo(canon_hex(p, bits), aut, len(members), members[0]))
    return Atlas(p, total, tuple(classes))


def oracle_count_mitm(g: Digraph) -> int:
    """Eulerian subgraphs by meet in the middle over edge subsets keyed by
    degree-balance vectors, each half walked in Gray-code order so each step
    flips one edge; viable up to ~40 edges."""
    p = g.p
    edges = sorted(g.edges())
    half = len(edges) // 2

    def table(es):
        out = defaultdict(int)
        bal = [0] * p
        prev = 0
        out[tuple(bal)] += 1
        for k in range(1, 1 << len(es)):
            gray = k ^ (k >> 1)
            bit = (gray ^ prev).bit_length() - 1
            u, v = es[bit]
            if (gray >> bit) & 1:
                bal[u] += 1
                bal[v] -= 1
            else:
                bal[u] -= 1
                bal[v] += 1
            prev = gray
            out[tuple(bal)] += 1
        return out

    ta = table(edges[:half])
    tb = table(edges[half:])
    return sum(c * tb.get(tuple(-x for x in key), 0) for key, c in ta.items())


def oracle_parity_bipartition(p: int):
    """Labeled games split by the parity of |Delta(., base)|, the base being
    the lexicographically least game."""
    games = list(enumerate_games(p))
    base = games[0]
    even, odd = [], []
    for g in games:
        diff = sum(1 for (i, j) in g.edges() if base.has_edge(j, i))
        (even if diff % 2 == 0 else odd).append(g)
    return even, odd


def oracle_game_subsets(G, keep) -> list:
    """Masks of the full game subsets of G whose element set satisfies
    `keep`, ascending: a scan over every mask on G \\ {e}."""
    half = (G.m - 1) // 2
    out = []
    for mask in range(0, 1 << G.m, 2):
        if bin(mask).count("1") != half:
            continue
        elems = frozenset(_set_bits(mask))
        if all(G.inverse(e) not in elems for e in elems) and keep(elems):
            out.append(mask)
    return out


def oracle_is_associative(table) -> bool:
    """(ij)k == i(jk) over every triple."""
    m = len(table)
    return all(
        table[table[i][j]][k] == table[i][table[j][k]]
        for i in range(m) for j in range(m) for k in range(m)
    )


def oracle_is_group_automorphism(G, image) -> bool:
    """image(i j) = image(i) image(j) for every pair i, j, one row i at a time."""
    return all(
        list(map(image.__getitem__, G.table[i])) == list(map(G.table[image[i]].__getitem__, image))
        for i in range(G.m)
    )


def oracle_group_automorphisms(G) -> list:
    """Every automorphism of G, sorted by image: a scan of all (m-1)!
    bijections that fix the identity, each given the all-pairs test."""
    return [
        Permutation((0,) + img)
        for img in permutations(range(1, G.m))
        if oracle_is_group_automorphism(G, (0,) + img)
    ]


def relabelled_group(G, sigma: Permutation):
    """The Cayley table of G with element x renamed sigma(x); sigma fixes 0."""
    back = sigma.inverse().image
    return FiniteGroup([[sigma(G.mult(i, j)) for j in back] for i in back])


def oracle_relabelled_cyclic_automorphisms(m: int, sigma: Permutation) -> list:
    """The automorphisms of Z_m renamed by sigma, sorted by image: each unit
    map x -> a x, conjugated by sigma."""
    back = sigma.inverse()
    maps = [Permutation([sigma((a * back(x)) % m) for x in range(m)]) for a in range(m) if gcd(a, m) == 1]
    return sorted(maps, key=lambda q: q.image)


def all_reduced_latin_squares(m: int):
    """Every m x m Latin square on 0..m-1 whose row 0 and column 0 are
    0..m-1 (element 0 a two-sided identity), in lexicographic order."""
    rows = [list(range(m))] + [[i] + [-1] * (m - 1) for i in range(1, m)]
    row_used = [1 << i for i in range(m)]
    col_used = [1 << j for j in range(m)]

    def fill(cell):
        if cell == m * m:
            yield tuple(tuple(r) for r in rows)
            return
        i, j = divmod(cell, m)
        if i == 0 or j == 0:
            yield from fill(cell + 1)
            return
        for x in range(m):
            bit = 1 << x
            if not (row_used[i] | col_used[j]) & bit:
                rows[i][j] = x
                row_used[i] |= bit
                col_used[j] |= bit
                yield from fill(cell + 1)
                row_used[i] ^= bit
                col_used[j] ^= bit

    yield from fill(0)


def oracle_double(t: Digraph) -> Game:
    """The double 2t edge by edge: base 0, j- = 1+j, j+ = 1+n+j."""
    n = t.p
    edges = []
    for j in range(n):
        edges += [(0, 1 + j), (1 + n + j, 0), (1 + j, 1 + n + j)]
    for (i, j) in t.edges():
        edges += [(1 + i, 1 + j), (1 + n + i, 1 + n + j), (1 + n + j, 1 + i), (1 + j, 1 + n + i)]
    return make_digraph(2 * n + 1, edges)


def oracle_double_part(t: Digraph, names) -> EdgeSet:
    """The union of the named parts of 2t ("plus", "minus", "cross"), edge by edge."""
    n = t.p
    parts = {
        "plus": [(1 + n + i, 1 + n + j) for (i, j) in t.edges()],
        "minus": [(1 + i, 1 + j) for (i, j) in t.edges()],
        "cross": [e for (i, j) in t.edges() for e in ((1 + n + j, 1 + i), (1 + j, 1 + n + i))],
    }
    return EdgeSet(2 * n + 1, [e for name in names for e in parts[name]])


def oracle_realize_pointed(gp: Digraph, gm: Digraph):
    """Pointed realization rebuilding the game after every step: from the
    double of gm, each difference edge in lexicographic order is closed into
    a cycle by the shortest cross path (least-vertex tie break, found with
    vertex sets) and the cycle is reversed edge by edge."""
    n = gp.p
    g = oracle_double(gm)
    plus_set = {1 + n + j for j in range(n)}
    cross = plus_set | {1 + j for j in range(n)}
    diffs = sorted((i, j) for (i, j) in gm.edges() if gp.has_edge(j, i))
    for (i, j) in diffs:
        ip, jp = 1 + n + i, 1 + n + j
        parent = {jp: -1}
        frontier = [jp]
        while ip not in parent:
            if not frontier:
                raise ValueError("no cross path")
            nxt = []
            for v in sorted(frontier):
                for w in _set_bits(g.rows[v]):
                    if w not in cross or w in parent or (v in plus_set) == (w in plus_set):
                        continue
                    parent[w] = v
                    nxt.append(w)
                    if w == ip:
                        break
                if ip in parent:
                    break
            frontier = nxt
        path = [ip]
        while parent[path[-1]] != -1:
            path.append(parent[path[-1]])
        path.reverse()
        g = oracle_reverse_subgraph(g, EdgeSet(g.p, list(zip(path, path[1:])) + [(ip, jp)]))
    return g


def oracle_eulerian_to_game(d: Digraph, record=None) -> Digraph:
    """Eulerian completion rebuilding the graph after every step: undecided
    pairs i < j oriented i -> j, then, while some score exceeds n, the first
    free (outside d) path found by BFS from an overweight vertex, ascending,
    through balanced vertices to an underweight one is reversed edge by edge."""
    p = d.p
    n = (p - 1) // 2
    rows = list(d.rows)
    for i in range(p):
        for j in range(i + 1, p):
            if not (rows[i] >> j) & 1 and not (rows[j] >> i) & 1:
                rows[i] |= 1 << j
    g = from_rows(p, rows)

    def deviation(t):
        return sum(max(t.out_degree(i) - n, 0) for i in range(p))

    if record is not None:
        record.append(deviation(g))
    while deviation(g) > 0:
        over = [i for i in range(p) if g.out_degree(i) > n]
        under = {i for i in range(p) if g.out_degree(i) < n}
        middle = set(range(p)) - set(over) - under
        path = None
        for s in over:
            parent = {s: -1}
            frontier = [s]
            while frontier and path is None:
                nxt = []
                for v in sorted(frontier):
                    for w in _set_bits(g.rows[v]):
                        if w in parent or d.has_edge(v, w):
                            continue
                        parent[w] = v
                        if w in under:
                            path = [w]
                            while parent[path[-1]] != -1:
                                path.append(parent[path[-1]])
                            path.reverse()
                            break
                        if w in middle:
                            nxt.append(w)
                    if path:
                        break
                frontier = nxt
            if path:
                break
        if path is None:
            raise ValueError("no free over-to-under path")
        g = oracle_reverse_subgraph(g, EdgeSet(p, list(zip(path, path[1:]))))
        if record is not None:
            record.append(deviation(g))
    return g


def oracle_extend(pi: Digraph, K) -> Digraph:
    """The extension of pi via u -> v and K, edge by edge: u = p, v = p+1."""
    p = pi.p
    u, v = p, p + 1
    edges = pi.edges() + [(u, v)]
    for k in range(p):
        edges += [(k, u), (v, k)] if k in K else [(u, k), (k, v)]
    return make_digraph(p + 2, edges)


def oracle_uniquely_reducible_extension(pi: Digraph):
    """The extension by the lexicographically first K that leaves exactly one
    reducible pair, found by testing every pair of every extension; None
    when no K does."""
    n = (pi.p + 1) // 2
    for K in combinations(range(pi.p), n):
        g = oracle_extend(pi, K)
        pairs = [(a, b) for (a, b) in combinations(range(g.p), 2) if not g.rows[a] & g.rows[b]]
        if len(pairs) == 1:
            return g
    return None


def oracle_lex_product(gamma: Digraph, pi: Digraph) -> Digraph:
    """gamma lex pi edge by edge on (i, j) -> i*|pi| + j: (i1, j1) -> (i2, j2)
    exactly when i1 -> i2, or i1 = i2 and j1 -> j2."""
    q = pi.p
    edges = []
    for i1 in range(gamma.p):
        for j1 in range(q):
            for i2 in range(gamma.p):
                for j2 in range(q):
                    if gamma.has_edge(i1, i2) or (i1 == i2 and pi.has_edge(j1, j2)):
                        edges.append((i1 * q + j1, i2 * q + j2))
    return make_digraph(gamma.p * q, edges)


def oracle_has_sep(g: Digraph, T0):
    """SEP witnesses with vertex sets: for every subset J of T0, in mask
    order, the first outside vertex that beats all of J and loses to the rest
    of T0, one edge test per anchor.  Returns (ok, witness, failing J)."""
    t0 = sorted(set(T0))
    outside = [v for v in range(g.p) if v not in set(t0)]
    witness = {}
    for mask in range(1 << len(t0)):
        J = [t0[k] for k in range(len(t0)) if (mask >> k) & 1]
        jset = set(J)
        found = None
        for v in outside:
            if all(g.has_edge(v, j) for j in J) and all(g.has_edge(j, v) for j in t0 if j not in jset):
                found = v
                break
        if found is None:
            return False, witness, frozenset(J)
        witness[frozenset(J)] = found
    return True, witness, None


def oracle_saturate(t: Digraph):
    """One saturation stage bit by bit: chooser s + mask beats the anchors in
    mask and every chooser with a larger mask; the other anchors beat it."""
    s = t.p
    p = s + (1 << s)
    rows = list(t.rows) + [0] * (1 << s)
    labels = {}
    for mask in range(1 << s):
        v = s + mask
        labels[v] = frozenset(k for k in range(s) if (mask >> k) & 1)
        for k in range(s):
            if (mask >> k) & 1:
                rows[v] |= 1 << k
            else:
                rows[k] |= 1 << v
        for other in range(mask + 1, 1 << s):
            rows[v] |= 1 << (s + other)
    return from_rows(p, rows), labels


def oracle_extend_embedding(pi: Digraph, S0, rho: dict, gamma: Digraph) -> dict:
    """Backtracking embedding extension with vertex sets: each unplaced vertex
    of pi, ascending, takes the least unused vertex of gamma whose edges to
    every placed image match, tested pair by pair."""
    placed = dict(rho)
    s0 = sorted(set(S0))
    if sorted(placed) != s0:
        raise SepExhausted("rho must be defined exactly on S0")
    for a in s0:
        for b in s0:
            if a != b and pi.has_edge(a, b) != gamma.has_edge(placed[a], placed[b]):
                raise SepExhausted("rho is not an embedding of pi|S0")
    todo = [v for v in range(pi.p) if v not in placed]

    def rec(k: int) -> bool:
        if k == len(todo):
            return True
        v = todo[k]
        used = set(placed.values())
        for w in range(gamma.p):
            if w in used:
                continue
            if all(
                gamma.has_edge(w, placed[u]) == pi.has_edge(v, u)
                and gamma.has_edge(placed[u], w) == pi.has_edge(u, v)
                for u in placed
            ):
                placed[v] = w
                if rec(k + 1):
                    return True
                del placed[v]
        return False

    if not rec(0):
        raise SepExhausted("gamma cannot absorb the remaining vertices")
    return placed


def oracle_reducibility_graph(g: Game):
    """rPi from the edge list: successor and predecessor dicts, the cycle
    followed from the least vertex, the paths from their heads.  Returns
    (edges, kind, components)."""
    rows = [sum(1 << j for j in _set_bits(r) if not g.rows[i] & g.rows[j]) for i, r in enumerate(g.rows)]
    edges = Digraph(g.p, rows)
    es = edges.edges()
    if not es:
        return edges, "empty", ()
    nxt = {i: j for (i, j) in es}
    prv = {j: i for (i, j) in es}
    if len(nxt) != len(es) or len(prv) != len(es):
        raise ValueError("a vertex has two reducible out-edges or two reducible in-edges")
    if len(es) == g.p:
        start = min(nxt)
        cyc = [start]
        while nxt[cyc[-1]] != start:
            cyc.append(nxt[cyc[-1]])
        return edges, "hamiltonian_cycle", (tuple(cyc),)
    comps = []
    for h in sorted(i for i in nxt if i not in prv):
        path = [h]
        while path[-1] in nxt:
            path.append(nxt[path[-1]])
        comps.append(tuple(path))
    return edges, "paths", tuple(comps)


def oracle_is_double(g: Game, base: int):
    """The source tournament of a double structure pointed at base, or None:
    each output of the base must have a reducible partner among its inputs,
    the partners distinct, and relabelling g onto the double chart must
    rebuild the double of the outputs' restriction exactly."""
    edges, _, _ = oracle_reducibility_graph(g)
    nxt = {i: j for (i, j) in edges.edges()}
    i_minus = g.out_set(base)
    i_plus = set(g.in_set(base))
    pairing = {}
    for i in i_minus:
        j = nxt.get(i)
        if j is None or j not in i_plus:
            return None
        pairing[i] = j
    if len(set(pairing.values())) != len(i_minus):
        return None
    source, sidx = restrict(g, i_minus)
    n = len(i_minus)
    image = [0] * g.p
    for i in i_minus:
        image[i] = 1 + sidx[i]
        image[pairing[i]] = 1 + n + sidx[i]
    if relabel(g, Permutation(image)) != oracle_double(source):
        return None
    return source


def oracle_strong_components(g: Digraph) -> list:
    """Strong classes from the all-pairs reach fixpoint, each class sorted by
    the size of its members' joint reach (largest first), then least vertex."""
    p = g.p
    reach = [g.rows[i] | (1 << i) for i in range(p)]
    changed = True
    while changed:
        changed = False
        for i in range(p):
            acc = reach[i]
            for j in _set_bits(reach[i]):
                acc |= reach[j]
            if acc != reach[i]:
                reach[i] = acc
                changed = True
    comps, seen = [], set()
    for v in range(p):
        if v not in seen:
            members = [w for w in range(p) if (reach[v] >> w) & 1 and (reach[w] >> v) & 1]
            seen.update(members)
            comps.append(members)

    def key(c):
        r = 0
        for v in c:
            r |= reach[v]
        return (-bin(r).count("1"), min(c))

    return sorted(comps, key=key)


def oracle_cycle_through(g: Digraph, v: int, length: int) -> tuple:
    """Moon's insertion argument with vertex lists, tested pair by pair: the
    least 3-cycle through v, then the first outside vertex with an edge each
    way to the cycle, inserted after the last of the cycle's leading vertices
    that beat it; failing that, the first pair u -> w with u beaten by the
    whole cycle and w beating all of it replaces the cycle's second vertex
    (its third when that second vertex is v)."""
    p = g.p
    if not (0 <= v < p):
        raise BadLength(f"vertex {v} out of range")
    if p <= 1 or not (3 <= length <= p):
        raise BadLength(f"no {length}-cycle in a tournament on {p} vertices")
    if len(oracle_strong_components(g)) != 1:
        raise NotStrong("tournament is not strong")
    tris = [[v, a, b] for a in range(p) for b in range(p) if g.has_edge(v, a) and g.has_edge(a, b) and g.has_edge(b, v)]
    if not tris:
        raise NotStrong("no 3-cycle through vertex")
    cyc = tris[0]
    while len(cyc) < length:
        r = len(cyc)
        movable = [
            j
            for j in range(p)
            if j not in cyc and any(g.has_edge(j, u) for u in cyc) and any(g.has_edge(u, j) for u in cyc)
        ]
        if movable:
            j = movable[0]
            k0 = min(k for k, u in enumerate(cyc) if g.has_edge(u, j))
            rot = cyc[k0:] + cyc[:k0]
            s = 0
            while s < r and g.has_edge(rot[s], j):
                s += 1
            cyc = rot[:s] + [j] + rot[s:]
            continue
        A = [j for j in range(p) if j not in cyc and all(g.has_edge(u, j) for u in cyc)]
        B = [j for j in range(p) if j not in cyc and all(g.has_edge(j, u) for u in cyc)]
        pairs = [(u, w) for u in A for w in B if g.has_edge(u, w)]
        if not pairs:
            raise NotStrong("tournament is not strong")
        u, w = pairs[0]
        k0 = 0 if cyc[1] != v else 1
        rot = cyc[k0:] + cyc[:k0]
        cyc = [rot[0], u, w] + rot[2:]
    return normalize_cycle(cyc)


def oracle_is_order(g: Digraph):
    """The order by descending out-degree, if the scores are 0..p-1 and
    every earlier vertex beats every later one, else None."""
    if tuple(sorted(g.out_degree(v) for v in range(g.p))) != tuple(range(g.p)):
        return None
    order = sorted(range(g.p), key=lambda v: -g.out_degree(v))
    if all(g.has_edge(order[a], order[b]) for a in range(g.p) for b in range(a + 1, g.p)):
        return order
    return None


def oracle_game_rows(p: int, fixed_row0=None) -> list:
    """Every row tuple of a labeled game, by backtracking over the wins of
    each vertex among the later ones, with a running win count per vertex;
    candidates ascend by mask, so the list is lexicographic."""
    n = (p - 1) // 2
    rows, wins, out = [0] * p, [0] * p, []

    def rec(i):
        if i == p:
            out.append(tuple(rows))
            return
        later = list(range(i + 1, p))
        need = n - wins[i]
        if need < 0 or need > len(later):
            return
        opts = []
        for beat in combinations(later, need):
            lose = [j for j in later if j not in beat]
            if all(wins[j] < n for j in lose):
                opts.append((sum(1 << j for j in beat), lose))
        opts.sort()
        for mask, lose in opts:
            if i == 0 and fixed_row0 is not None and mask != fixed_row0:
                continue
            rows[i] |= mask
            wins[i] += need
            for j in lose:
                rows[j] |= 1 << i
                wins[j] += 1
            rec(i + 1)
            wins[i] -= need
            rows[i] &= ~mask
            for j in lose:
                rows[j] &= ~(1 << i)
                wins[j] -= 1

    rec(0)
    return out


def oracle_is_morphism(theta, big: Digraph, small: Digraph) -> bool:
    """theta preserves and reflects every edge between distinct fibers,
    tested pair by pair."""
    return all(
        big.has_edge(a, b) == small.has_edge(theta[a], theta[b])
        for a in range(big.p)
        for b in range(big.p)
        if a != b and theta[a] != theta[b]
    )


def oracle_group_game(G, A) -> Digraph:
    """Gamma[A] pair by pair: i -> j iff i^-1 j lies in A."""
    rows = [0] * G.m
    for i in range(G.m):
        for j in range(G.m):
            if i != j and G.mult(G.inverse(i), j) in A:
                rows[i] |= 1 << j
    return from_rows(G.m, rows)


def oracle_quotient_game(G, H, A):
    """Gamma[A/H] coset pair by coset pair, from least representatives:
    (game, cosets sorted by least member, element -> coset)."""
    hs = tuple(sorted(set(H)))
    cosets = sorted({tuple(sorted(G.mult(i, h) for h in hs)) for i in range(G.m)})
    proj = [0] * G.m
    for k, c in enumerate(cosets):
        for x in c:
            proj[x] = k
    elems = set(A.elements())
    rows = [0] * len(cosets)
    for a, ca in enumerate(cosets):
        for b, cb in enumerate(cosets):
            if a != b and G.mult(G.inverse(ca[0]), cb[0]) in elems:
                rows[a] |= 1 << b
    return from_rows(len(cosets), rows), cosets, proj


def oracle_lex_factorization(G, H, A) -> Permutation:
    """The witness of Gamma[A/H] lex Gamma[A cap H] = Gamma[A] from the two
    oracle builders: coset x, element k of H goes to (least member of x) h_k."""
    quotient, cosets, _ = oracle_quotient_game(G, H, A)
    Hgrp, hlist = subgroup_group(G, H)
    inner = GameSubset(Hgrp, [k for k, h in enumerate(hlist) if h in A])
    prod = lex_product(quotient, oracle_group_game(Hgrp, inner))
    rho = Permutation([G.mult(c[0], h) for c in cosets for h in hlist])
    if relabel(prod, rho) != oracle_group_game(G, A):
        raise ValueError("section map fails to carry the product onto Gamma[A]")
    return rho


def oracle_check_bipartite(g: Digraph, J, K) -> None:
    """The bipartite-tournament check over every ordered pair, raising on
    the first bad pair (a, b) in lexicographic order."""
    js, ks = set(J), set(K)
    if js & ks or js | ks != set(range(g.p)):
        raise SizeMismatch("parts must partition the vertices")
    for a in range(g.p):
        for b in range(g.p):
            if a == b:
                continue
            cross = (a in js) != (b in js)
            has = g.has_edge(a, b) or g.has_edge(b, a)
            if cross and not has and a < b:
                raise ScoreMismatch(f"undecided cross pair {a},{b}")
            if not cross and g.has_edge(a, b):
                raise ScoreMismatch(f"edge inside one part: {a}->{b}")


def oracle_classify7(g: Game) -> str:
    """Type I, II or III of a size-7 game from restricted Digraphs: type I
    when some vertex has neither its out-set nor its in-set a 3-cycle, type
    II when every one has both, type III otherwise.  (The library
    cross-checks its answer against canonical forms itself.)"""

    def three_cycle(verts) -> bool:
        t = restrict(g, verts)[0]
        return t.p == 3 and all(t.out_degree(i) == 1 for i in range(3))

    shapes = [(three_cycle(g.out_set(v)), three_cycle(g.in_set(v))) for v in range(g.p)]
    if any(s == (False, False) for s in shapes):
        return "I"
    if all(s == (True, True) for s in shapes):
        return "II"
    return "III"
