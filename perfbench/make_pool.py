"""Regenerate span11_pool.json, the size-11 games the span11 workload draws from.

Candidates are walks of 3-cycle flips away from the circulant C11, taken in
a fixed order: walk seed i has 40 steps when i is a multiple of 4 and
2 + i % 9 steps otherwise.  Each candidate is filed under its exact span
(16, 17 or 18 = floor(55/3)) until that class is full.  A candidate whose
span search needs more than NODE_BUDGET branch-and-bound nodes is left out
and counted in the file: those games, like C11 itself (span 15, about 55 s),
would make a single run last minutes.

    python3 perfbench/make_pool.py      # from the repository root, ~3 min
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
from gamegraphs.core import EdgeSet, Game  # noqa: E402
from gamegraphs.errors import BudgetExceeded  # noqa: E402
from gamegraphs.eulerian import span  # noqa: E402

NODE_BUDGET = 1_500_000
CLASS_SIZES = {16: 12, 17: 56, 18: 16}


def walk_steps(walk_seed: int) -> int:
    return 40 if walk_seed % 4 == 0 else 2 + walk_seed % 9


def pool_game(walk_seed: int) -> inputs.Rows:
    return inputs.walk(inputs.circulant(11), walk_steps(walk_seed), random.Random(walk_seed))


def main() -> int:
    pools: dict[int, list[dict]] = {k: [] for k in CLASS_SIZES}
    left_out = []
    walk_seed = 0
    while any(len(pools[k]) < n for k, n in CLASS_SIZES.items()):
        g = pool_game(walk_seed)
        t = time.perf_counter()
        try:
            s = span(EdgeSet.from_digraph(Game(11, g)), node_budget=NODE_BUDGET).span
        except BudgetExceeded:
            left_out.append(walk_seed)
            s = None
        dt = time.perf_counter() - t
        if s in pools and len(pools[s]) < CLASS_SIZES[s]:
            pools[s].append({"walk_seed": walk_seed, "steps": walk_steps(walk_seed), "span": s})
        elif s is not None and s not in pools:
            left_out.append(walk_seed)
        print(walk_seed, walk_steps(walk_seed), s, f"{dt:.2f}", file=sys.stderr, flush=True)
        walk_seed += 1
    out = {
        "node_budget": NODE_BUDGET,
        "candidates": walk_seed,
        "left_out": left_out,
        "classes": {str(k): v for k, v in pools.items()},
    }
    (HERE / "span11_pool.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
