"""Output checks for the benchmark's jobs.

Each check reads a job's output text and raises CheckFailed when it is
wrong.  Where possible the oracle is independent of the library: witness
covers, plan replays, automorphism and relabeling checks all use the
benchmark's own bit-row code in `inputs`.  The one library call, `beta`,
cross-checks a result against a second method, after timing stops.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

import inputs


class CheckFailed(Exception):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def beta(a: Sequence[int], b: Sequence[int]) -> int:
    """beta(Delta(a, b)) = |Delta| - 2 span(Delta), through the library's span solver."""
    from gamegraphs.core import EdgeSet
    from gamegraphs.eulerian import span

    cb = inputs.cols_of(b)
    p = len(a)
    delta = [(i, j) for i in range(p) for j in range(p) if (a[i] & cb[i]) >> j & 1]
    return span(EdgeSet(p, delta)).balance


def game_text(text: str, rows: Sequence[int]) -> None:
    """The output is the text form of exactly this game."""
    require(text.split("\n", 1)[0] == f"game {len(rows)}", f"header {text.split(chr(10), 1)[0]!r}")
    require(inputs.from_text(text) == tuple(rows), "output game differs from the expected one")


def span_report(text: str, rows: Sequence[int], ref_span: Optional[int]) -> None:
    """The witness is edge-disjoint simple cycles covering the game exactly;
    span and balance agree with it, the edges/3 bound and the reference."""
    lines = text.strip().split("\n")
    fields = dict(kv.split("=") for kv in lines[-1].split())
    s, bal, ne = int(fields["span"]), int(fields["balance"]), int(fields["edges"])
    edges = {(i, j) for i, r in enumerate(rows) for j in range(len(rows)) if r >> j & 1}
    covered: set[tuple[int, int]] = set()
    cycles = [tuple(int(v) for v in ln.split()[1:]) for ln in lines[:-1]]
    for c in cycles:
        require(len(c) >= 3 and len(set(c)) == len(c), f"not a simple cycle: {c}")
        for t in range(len(c)):
            e = (c[t], c[(t + 1) % len(c)])
            require(e in edges, f"cycle edge {e} not in the game")
            require(e not in covered, f"edge {e} used twice")
            covered.add(e)
    require(covered == edges, "witness does not cover every edge")
    require(ne == len(edges), f"edges={ne}, game has {len(edges)}")
    require(s == len(cycles), f"span={s} but {len(cycles)} cycles listed")
    require(bal == ne - 2 * s, "balance != edges - 2 span")
    require(s <= ne // 3, "span above floor(edges/3)")
    require(ref_span is None or s == ref_span, f"span={s}, reference {ref_span}")


def plan_moves(text: str) -> list[tuple[int, ...]]:
    moves = []
    for ln in text.split("\n"):
        if ln.strip():
            tag, *vs = ln.split()
            require(tag == "r3" and len(vs) == 3, f"bad move line {ln!r}")
            moves.append(tuple(int(v) for v in vs))
    return moves


def plan(text: str, start: Sequence[int], target: Sequence[int]) -> int:
    """Replaying the plan with our own flips reaches the target, and its
    length has the parity of |Delta|.  Returns the length."""
    moves = plan_moves(text)
    rows = tuple(start)
    for mv in moves:
        try:
            rows = inputs.flip(rows, mv)
        except ValueError as exc:
            raise CheckFailed(f"move {mv}: {exc}") from None
    require(rows == tuple(target), "replayed plan does not reach the target")
    require(len(moves) % 2 == inputs.diff_edges(start, target) % 2, "plan length parity != |Delta| parity")
    return len(moves)


def optimal_plan(text: str, start: Sequence[int], target: Sequence[int], expect: Optional[int]) -> None:
    """A replayable plan of length beta(Delta), the minimum."""
    n = plan(text, start, target)
    require(expect is None or n == expect, f"plan length {n}, expected {expect}")
    require(n == beta(start, target), f"plan length {n} != beta")


def any_plan(text: str, start: Sequence[int], target: Sequence[int]) -> None:
    """A replayable plan no shorter than the optimal length beta(Delta)."""
    require(plan(text, start, target) >= beta(start, target), "plan any shorter than beta")


def census7(text: str) -> None:
    """Three classes of size-7 games: |Aut| 3, 7, 21 with 1680, 720, 240 labelings."""
    got = json.loads(text)
    require(got["p"] == 7 and got["labeled_total"] == 2640, "size-7 census total != 2640")
    pairs = sorted((c["aut_order"], c["labeled_count"]) for c in got["classes"])
    require(pairs == [(3, 1680), (7, 720), (21, 240)], f"classes {pairs}")
    require(sum(got["parity_split"]) == 2640, "parity split does not cover 2640 games")


def qr_rows(p: int) -> tuple[int, ...]:
    squares = {x * x % p for x in range(1, p)}
    return tuple(sum(1 << j for j in range(p) if (j - i) % p in squares) for i in range(p))


def automorphisms(text: str, rows: Sequence[int], order: int) -> None:
    """The listed group has the stated order and every permutation fixes the game."""
    lines = text.strip().split("\n")
    require(lines[0] == f"order {order}", f"{lines[0]!r}, expected order {order}")
    perms = [tuple(int(v) for v in ln.split()) for ln in lines[1:]]
    require(len(perms) == order and len(set(perms)) == order, "listed permutations != order")
    p = len(rows)
    for perm in perms:
        require(sorted(perm) == list(range(p)), f"not a permutation: {perm}")
        require(inputs.relabel(rows, perm) == tuple(rows), f"{perm} is not an automorphism")


def isomorphism(text: str, a: Sequence[int], b: Sequence[int]) -> None:
    words = text.split()
    require(words[0] == "isomorphic", f"{text.strip()!r}, expected isomorphic")
    image = [int(v) for v in words[1:]]
    require(sorted(image) == list(range(len(a))), "witness is not a permutation")
    require(inputs.relabel(a, image) == tuple(b), "witness does not relabel a onto b")


def distance(text: str, a: Sequence[int], b: Sequence[int], steps: int) -> None:
    """BFS distance equals the walk length and beta(Delta), the paper's two-oracle check."""
    d = int(text.strip())
    require(d == steps, f"distance {d}, walk of {steps} disjoint flips")
    require(d == beta(a, b), f"distance {d} != beta(Delta)")
