"""The benchmark's workloads: seeded job lists written as text-format files.

A job is one gamegraphs CLI verb run in-process through `cli.main(argv)`;
its output goes to a file that the job's check reads after timing stops.
Jobs of one workload run serially, in list order, on one core.

Workloads, and why each was chosen:

span11      `analyze span` on 12 size-11 games from span11_pool.json: 4 with
            span 16 and 6 with span 17 (short walks from C11, below the
            floor(55/3) = 18 bound, so branch and bound has to prove the
            optimum), and 2 with span 18 (long walks, bound tight), the
            last 8 in a seeded labelling.  `eulerian.span` does nearly all
            the work, as a few large solves; `core` and `cli` only parse
            once per job.
plan_atlas  every other layer.  Reversal round trips: `plan optimal` and
            `plan any` from C9 and from 16 seeded size-9 games to their
            reverses, then `plan apply` of the optimal plan (thousands of
            small span solves); `gen double` of two seeded 31-vertex
            tournaments, then `plan apply` of a 100-flip walk to the
            63-vertex double and of its undo (one validated graph per move
            at p = 63).  Exhaustive and isomorphism jobs: `atlas census 7`
            (2640 canonical forms, thousands of small validated games),
            `gen qr` + `iso aut` for p = 23, 31, 43, `iso test` on 40
            relabelled pairs at p = 9..15, and `atlas distance` from C9 to
            four seeded 4-flip walks and one fixed 5-flip walk (p = 9 BFS).
            `plan any` at p = 63 is left out: its greedy cycle search
            (`_simple_path`) ran past 4 s on 3 of 30 seeded 100-flip walks,
            and for minutes on one.

The reversal and atlas jobs share one workload because, on the 2-core VM
the benchmark was built on, the speed of identical work drifted by 15-25%
within seconds: with two workloads each run can be long enough to average
much of that out.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import inputs

HERE = Path(__file__).resolve().parent
WORKLOADS = ("span11", "plan_atlas")

# The span11 games, by pool class: the four span-16 games with the longest
# solves when the pool was made (2.1-2.2 s each), then the first six span-17
# and first two span-18 games.  The seed relabels the span-17/18 games, whose
# solve times hardly depend on the labelling; the span-16 ones keep theirs,
# because a relabelled span-16 game can take three times as long.
SPAN11_GAMES = {"16": (18, 41, 45, 57), "17": (2, 3, 8, 10, 12, 13), "18": (0, 4)}
# Walk lengths of the seeded size-9 starts: fixed, so that every seed has
# the same mix of near-circulant (costly) and well-mixed (cheap) starts.
PLAN_WALK_STEPS = (2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 18, 21, 24, 27, 30)
PLAN_DOUBLES = 2
PLAN_WALK = 100
ISO_SIZES = (9, 11, 13, 15)
ISO_PER_SIZE = 10
QR_PRIMES = (23, 31, 43)
DISTANCE_WALKS = (4, 4, 4, 4)
# A fixed 5-flip target whose BFS from C9 stores about 119k games, more than
# any 4-flip target can: the run's memory high-water mark does not depend
# on the seed.
DISTANCE_ANCHOR = "distance-anchor:3"


# Percentile reported as job_tail_ms.  Each has at least 10 job runs above it
# at this commit's run length, and sits inside one group of like jobs, so a
# different number of passes does not move it across a gap between groups:
# in span11 the top 33% of runs are the four span-16 solves; in plan_atlas
# 72% are sub-40 ms jobs and the next 19% `plan optimal` and 4-flip BFS jobs.
TAIL_PERCENTILE = {"span11": 0.72, "plan_atlas": 0.85}


@dataclass
class Job:
    jid: str
    argv: list[str]
    out: Path
    check: Callable[[str], None]


def span11_game(walk_seed: int, steps: int) -> inputs.Rows:
    return inputs.walk(inputs.circulant(11), steps, random.Random(walk_seed))


class JobList:
    """Writes input files into a work directory and collects the jobs.

    Jobs come in chains, where a later job reads an earlier one's output;
    the chains run in a seeded order, so that jobs of one kind are spread
    over the pass rather than timed in one stretch.
    """

    def __init__(self, workdir: Path):
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.chains: list[list[Job]] = []

    def chain(self) -> None:
        self.chains.append([])

    def file(self, name: str, rows: inputs.Rows) -> str:
        path = self.dir / name
        path.write_text(inputs.to_text(rows))
        return str(path)

    def job(self, jid: str, argv: list[str], check: Callable[[str], None]) -> str:
        out = self.dir / f"{jid}.out"
        self.chains[-1].append(Job(jid, argv + ["-o", str(out)], out, check))
        return str(out)


def build(workload: str, seed: int, workdir: Path) -> list[Job]:
    b = JobList(workdir)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "span11":
        _span11(b, rng)
    else:
        _plan(b, rng)
        _atlas(b, rng)
    rng.shuffle(b.chains)
    return [job for chain in b.chains for job in chain]


def _span11(b: JobList, rng: random.Random) -> None:
    pool = json.loads((HERE / "span11_pool.json").read_text())["classes"]
    k = 0
    for cls, seeds in SPAN11_GAMES.items():
        for e in pool[cls]:
            if e["walk_seed"] not in seeds:
                continue
            rows = span11_game(e["walk_seed"], e["steps"])
            if cls != "16":
                image = list(range(11))
                rng.shuffle(image)
                rows = inputs.relabel(rows, image)
            g = b.file(f"g{k}.game", rows)
            b.chain()
            b.job(f"span{k}", ["analyze", "span", g],
                  lambda t, rows=rows, ref=e["span"]: checks.span_report(t, rows, ref))
            k += 1


def _plan(b: JobList, rng: random.Random) -> None:
    c9 = inputs.circulant(9)
    starts = [c9]
    for steps in PLAN_WALK_STEPS:
        g = inputs.walk(c9, steps, rng)
        perm = list(range(9))
        rng.shuffle(perm)
        starts.append(inputs.relabel(g, perm))
    for k, start in enumerate(starts):
        target = inputs.reverse(start)
        a, z = b.file(f"a{k}.game", start), b.file(f"a{k}.rev.game", target)
        expect = 16 if k == 0 else None  # beta(C9 -> reverse) = n^2
        b.chain()
        opt = b.job(f"optimal{k}", ["plan", "optimal", a, z],
                    lambda t, s=start, z=target, e=expect: checks.optimal_plan(t, s, z, e))
        b.job(f"any{k}", ["plan", "any", a, z], lambda t, s=start, z=target: checks.any_plan(t, s, z))
        b.job(f"apply{k}", ["plan", "apply", a, opt], lambda t, z=target: checks.game_text(t, z))
    for k in range(PLAN_DOUBLES):
        t31 = inputs.random_tournament(31, rng)
        d63 = inputs.double(t31)
        moves = inputs.disjoint_walk_moves(d63, PLAN_WALK, rng)
        target = d63
        for mv in moves:
            target = inputs.flip(target, mv)
        t = b.file(f"t{k}.tournament", t31)
        there = b.dir / f"walk{k}.plan"
        there.write_text(inputs.plan_text(moves))
        back = b.dir / f"back{k}.plan"
        back.write_text(inputs.plan_text([(a, c, bb) for (a, bb, c) in reversed(moves)]))
        b.chain()
        d = b.job(f"double{k}", ["gen", "double", t], lambda x, d63=d63: checks.game_text(x, d63))
        w = b.job(f"walk{k}", ["plan", "apply", d, str(there)], lambda x, z=target: checks.game_text(x, z))
        b.job(f"back{k}", ["plan", "apply", w, str(back)], lambda x, d63=d63: checks.game_text(x, d63))


def _atlas(b: JobList, rng: random.Random) -> None:
    b.chain()
    b.job("census7", ["atlas", "census", "7"], checks.census7)
    for p in QR_PRIMES:
        rows = checks.qr_rows(p)
        b.chain()
        g = b.job(f"qr{p}", ["gen", "qr", "--prime", str(p)], lambda t, rows=rows: checks.game_text(t, rows))
        b.job(f"aut{p}", ["iso", "aut", g],
              lambda t, rows=rows, p=p: checks.automorphisms(t, rows, p * (p - 1) // 2))
    for p in ISO_SIZES:
        for k in range(ISO_PER_SIZE):
            g = inputs.sparse_walk(inputs.circulant(p), 3 * p, rng)
            perm = list(range(p))
            rng.shuffle(perm)
            h = inputs.relabel(g, perm)
            x, y = b.file(f"iso{p}_{k}.a.game", g), b.file(f"iso{p}_{k}.b.game", h)
            b.chain()
            b.job(f"iso{p}_{k}", ["iso", "test", x, y], lambda t, g=g, h=h: checks.isomorphism(t, g, h))
    c9 = inputs.circulant(9)
    src = b.file("c9.game", c9)
    walks = [(5, inputs.disjoint_walk(c9, 5, random.Random(DISTANCE_ANCHOR)))]
    walks += [(steps, inputs.disjoint_walk(c9, steps, rng)) for steps in DISTANCE_WALKS]
    for k, (steps, target) in enumerate(walks):
        dst = b.file(f"dist{k}.game", target)
        b.chain()
        b.job(f"distance{k}", ["atlas", "distance", src, dst],
              lambda t, z=target, s=steps: checks.distance(t, c9, z, s))


def warmup_argvs(workload: str, workdir: Path) -> list[list[str]]:
    """Small versions of each verb the workload runs, so lazy imports and
    first-call costs are paid in set-up."""
    workdir.mkdir(parents=True, exist_ok=True)
    c7, t3 = workdir / "c7.game", workdir / "t3.tournament"
    c7.write_text(inputs.to_text(inputs.circulant(7)))
    rev = workdir / "c7.rev.game"
    rev.write_text(inputs.to_text(inputs.reverse(inputs.circulant(7))))
    t3.write_text(inputs.to_text(inputs.random_tournament(3, random.Random(0))))
    o = str(workdir / "warm.out")
    if workload == "span11":
        return [["analyze", "span", str(c7), "-o", o]]
    return [
        ["plan", "optimal", str(c7), str(rev), "-o", o],
        ["plan", "apply", str(c7), o, "-o", str(workdir / "warm.game")],
        ["gen", "double", str(t3), "-o", o],
        ["plan", "any", str(c7), str(rev), "-o", o],
        ["atlas", "census", "5", "-o", o],
        ["gen", "qr", "--prime", "7", "-o", str(workdir / "qr7.game")],
        ["iso", "aut", str(workdir / "qr7.game"), "-o", o],
        ["iso", "test", str(c7), str(rev), "-o", o],
        ["atlas", "distance", str(c7), str(rev), "-o", o],
    ]
