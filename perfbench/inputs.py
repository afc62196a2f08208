"""Seeded inputs for the benchmark, built without the library under test.

A graph is a tuple of row bitmasks (bit j of row i set iff i -> j), the
same representation the text format spells out.  Games are made by random
walks of 3-cycle flips, so every input is a real game of the stated size.
"""

from __future__ import annotations

import random
from typing import Sequence

Rows = tuple[int, ...]


def cols_of(rows: Sequence[int]) -> list[int]:
    p = len(rows)
    cols = [0] * p
    for i, r in enumerate(rows):
        for j in range(p):
            if (r >> j) & 1:
                cols[j] |= 1 << i
    return cols


def circulant(p: int) -> Rows:
    """The circulant game C_p: i -> i + d (mod p) for d = 1..(p-1)/2."""
    n = (p - 1) // 2
    return tuple(sum(1 << ((i + d) % p) for d in range(1, n + 1)) for i in range(p))


def reverse(rows: Sequence[int]) -> Rows:
    return tuple(cols_of(rows))


def relabel(rows: Sequence[int], image: Sequence[int]) -> Rows:
    """Edge (image[i], image[j]) for every edge (i, j)."""
    p = len(rows)
    out = [0] * p
    for i, r in enumerate(rows):
        for j in range(p):
            if (r >> j) & 1:
                out[image[i]] |= 1 << image[j]
    return tuple(out)


def three_cycles(rows: Sequence[int]) -> list[tuple[int, int, int]]:
    """Every 3-cycle once, as (a, b, c) with a -> b -> c -> a and a least."""
    p = len(rows)
    cols = cols_of(rows)
    out = []
    for a in range(p):
        for b in range(a + 1, p):
            if not (rows[a] >> b) & 1:
                continue
            m = rows[b] & cols[a]
            for c in range(a + 1, p):
                if (m >> c) & 1:
                    out.append((a, b, c))
    return out


def flip(rows: Sequence[int], cycle: Sequence[int]) -> Rows:
    """Reverse the cycle; raises ValueError if one of its edges is absent."""
    out = list(rows)
    k = len(cycle)
    for t in range(k):
        a, b = cycle[t], cycle[(t + 1) % k]
        if not (out[a] >> b) & 1:
            raise ValueError(f"edge {a}->{b} absent")
        out[a] &= ~(1 << b)
        out[b] |= 1 << a
    return tuple(out)


def walk(rows: Rows, steps: int, rng: random.Random) -> Rows:
    """Flip `steps` 3-cycles, each drawn uniformly from the current game's."""
    for _ in range(steps):
        tris = three_cycles(rows)
        rows = flip(rows, tris[rng.randrange(len(tris))])
    return rows


def sparse_walk(rows: Rows, steps: int, rng: random.Random) -> Rows:
    """Flip `steps` 3-cycles found by sampling an edge and a closing vertex.

    Cheaper than `walk` on large games, where listing every 3-cycle per step
    would dominate the set-up time.
    """
    p = len(rows)
    cur = list(rows)
    done = 0
    while done < steps:
        a = rng.randrange(p)
        outs = [j for j in range(p) if (cur[a] >> j) & 1]
        b = outs[rng.randrange(len(outs))]
        closing = [c for c in range(p) if (cur[b] >> c) & 1 and (cur[c] >> a) & 1]
        if not closing:
            continue
        cur = list(flip(cur, (a, b, closing[rng.randrange(len(closing))])))
        done += 1
    return tuple(cur)


def random_tournament(p: int, rng: random.Random) -> Rows:
    rows = [0] * p
    for i in range(p):
        for j in range(i + 1, p):
            if rng.random() < 0.5:
                rows[i] |= 1 << j
            else:
                rows[j] |= 1 << i
    return tuple(rows)


def double(t: Sequence[int]) -> Rows:
    """The double 2T on 2n + 1 vertices: base 0, j- = 1 + j, j+ = 1 + n + j.

    0 -> j- -> j+ -> 0; i -> j in T gives i- -> j-, i+ -> j+, j+ -> i- and
    j- -> i+.  Written from the paper's definition, as an oracle for
    `gen double`.
    """
    n = len(t)
    rows = [0] * (2 * n + 1)
    for j in range(n):
        rows[0] |= 1 << (1 + j)
        rows[1 + n + j] |= 1
        rows[1 + j] |= 1 << (1 + n + j)
    for i in range(n):
        for j in range(n):
            if (t[i] >> j) & 1:
                rows[1 + i] |= 1 << (1 + j)
                rows[1 + n + i] |= 1 << (1 + n + j)
                rows[1 + n + j] |= 1 << (1 + i)
                rows[1 + j] |= 1 << (1 + n + i)
    return tuple(rows)


def is_game(rows: Sequence[int]) -> bool:
    p = len(rows)
    if p % 2 == 0:
        return False
    n = (p - 1) // 2
    cols = cols_of(rows)
    full = (1 << p) - 1
    return all(
        rows[i] & cols[i] == 0
        and rows[i] | cols[i] == full & ~(1 << i)
        and bin(rows[i]).count("1") == n
        for i in range(p)
    )


def to_text(rows: Sequence[int]) -> str:
    """The library's text format with the header the bits support."""
    p = len(rows)
    kind = "game" if is_game(rows) else "tournament"
    lines = [f"{kind} {p}"]
    for r in rows:
        lines.append("".join("1" if (r >> j) & 1 else "0" for j in range(p)))
    return "\n".join(lines) + "\n"


def from_text(text: str) -> Rows:
    lines = [ln.strip() for ln in text.split("\n") if ln.strip() and not ln.startswith("#")]
    p = int(lines[0].split()[1])
    if len(lines) != p + 1:
        raise ValueError(f"expected {p} rows, got {len(lines) - 1}")
    return tuple(sum(1 << j for j, ch in enumerate(ln) if ch == "1") for ln in lines[1:])


def diff_edges(a: Sequence[int], b: Sequence[int]) -> int:
    """|Delta(a, b)|: edges of a that b has reversed."""
    return sum(bin(ra & cb).count("1") for ra, cb in zip(a, cols_of(b)))


def disjoint_walk_moves(rows: Rows, steps: int, rng: random.Random) -> list[tuple[int, int, int]]:
    """`steps` 3-cycles to flip in turn, no two sharing a pair of vertices.

    The flipped cycles are then edge-disjoint in the difference graph, so the
    interchange distance from the start is exactly `steps`.
    """
    p = len(rows)
    cur = list(rows)
    used = [0] * p  # used[a] has bit b once the pair {a, b} was flipped
    moves: list[tuple[int, int, int]] = []
    for _ in range(10_000 * steps):
        if len(moves) == steps:
            return moves
        a = rng.randrange(p)
        outs = [j for j in range(p) if (cur[a] >> j) & 1 and not (used[a] >> j) & 1]
        if not outs:
            continue
        b = outs[rng.randrange(len(outs))]
        closing = [
            c for c in range(p)
            if (cur[b] >> c) & 1 and (cur[c] >> a) & 1 and not ((used[b] >> c) | (used[c] >> a)) & 1
        ]
        if not closing:
            continue
        c = closing[rng.randrange(len(closing))]
        cur = list(flip(cur, (a, b, c)))
        for x, y in ((a, b), (b, c), (c, a)):
            used[x] |= 1 << y
            used[y] |= 1 << x
        moves.append((a, b, c))
    if len(moves) == steps:
        return moves
    raise ValueError(f"no walk of {steps} disjoint flips found on {p} vertices")


def disjoint_walk(rows: Rows, steps: int, rng: random.Random) -> Rows:
    for mv in disjoint_walk_moves(rows, steps, rng):
        rows = flip(rows, mv)
    return rows


def plan_text(moves: Sequence[Sequence[int]]) -> str:
    """The library's plan format: one 'r3 a b c' line per move."""
    return "".join("r3 " + " ".join(str(v) for v in mv) + "\n" for mv in moves)
