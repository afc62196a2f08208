"""Tests of the benchmark itself:  python3 -m pytest perfbench -q  (about a minute)."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from gamegraphs import construct, core  # noqa: E402


def test_walks_stay_games_and_disjoint_walks_have_exact_distance():
    rng = random.Random(0)
    for p in (7, 9, 11):
        assert inputs.is_game(inputs.walk(inputs.circulant(p), 5, rng))
        g = inputs.disjoint_walk(inputs.circulant(p), 3, rng)
        assert inputs.is_game(g)
        assert inputs.diff_edges(inputs.circulant(p), g) == 9
        assert checks.beta(inputs.circulant(p), g) == 3


def test_text_format_and_double_match_the_library():
    rng = random.Random(1)
    t = inputs.random_tournament(9, rng)
    parsed = core.parse(inputs.to_text(t))
    assert isinstance(parsed, core.Tournament) and parsed.rows == t
    d, _ = construct.double(parsed)
    assert d.rows == inputs.double(t)
    assert core.serialize(d) == inputs.to_text(inputs.double(t))
    assert checks.qr_rows(7) == core.parse(inputs.to_text(checks.qr_rows(7))).rows


def test_span11_pool_regenerates_with_recorded_spans():
    pool = json.loads((HERE / "span11_pool.json").read_text())["classes"]
    for cls, seeds in workloads.SPAN11_GAMES.items():
        assert all(e["span"] == int(cls) for e in pool[cls])
        assert set(seeds) <= {e["walk_seed"] for e in pool[cls]}
    e = pool["18"][0]
    assert inputs.is_game(workloads.span11_game(e["walk_seed"], e["steps"]))


def test_checks_reject_wrong_outputs():
    c7 = inputs.circulant(7)
    good = "c 0 1 2 3 4 5 6\nc 0 2 4 6 1 3 5\nc 0 3 6 2 5 1 4\nspan=3 balance=15 edges=21\n"
    checks.span_report(good, c7, None)
    for bad, ref in ((good.replace("span=3 balance=15", "span=3 balance=14"), None),
                     (good, 4),
                     ("c 0 1 2 3 4 5 6\nc 0 2 4 6 1 3 5\nspan=2 balance=17 edges=21\n", None)):
        with pytest.raises(checks.CheckFailed):
            checks.span_report(bad, c7, ref)
    rev = inputs.reverse(c7)
    with pytest.raises(checks.CheckFailed):
        checks.plan("r3 0 1 2\n", c7, rev)
    qr7 = checks.qr_rows(7)
    with pytest.raises(checks.CheckFailed):
        checks.automorphisms("order 2\n0 1 2 3 4 5 6\n1 0 2 3 4 5 6\n", qr7, 2)
    with pytest.raises(checks.CheckFailed):
        checks.isomorphism("isomorphic 1 0 2 3 4 5 6\n", c7, c7)
    with pytest.raises(checks.CheckFailed):
        checks.census7(json.dumps({"p": 7, "labeled_total": 2640, "parity_split": [1320, 1320],
                                   "classes": [{"aut_order": 3, "labeled_count": 2640}]}))


def test_same_seed_same_inputs(tmp_path):
    for w in workloads.WORKLOADS:
        a = workloads.build(w, 5, tmp_path / "a")
        b = workloads.build(w, 5, tmp_path / "b")
        assert [j.argv[:2] for j in a] == [j.argv[:2] for j in b]
        for name in sorted(os.listdir(tmp_path / "a")):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


COUNTS = ("core.digraph_init.calls", "eulerian.span.calls", "atlas.enumerate_games.games",
          "reversal.plan_optimal.span_calls_per_move", "morph.canonical_form.calls", "cli.main.calls")
SUBSETS = {
    "span11": ("span0", "span4", "span10"),
    "plan_atlas": ("optimal0", "any0", "apply0", "optimal1", "double0", "walk0", "back0",
                   "census7", "qr23", "aut23", "iso9_0", "distance0"),
}
PROBE = """
import json, sys
from pathlib import Path
sys.path.insert(0, {here!r})
import run, tracing
workload, keep, workdir = {workload!r}, {keep!r}, Path({workdir!r})
_, cli, jobs = run.setup(workload, 7, workdir)
runs = run.Runs(cli, [j for j in jobs if j.jid in keep])
tracer = tracing.Tracer()
tracer.install()
runs.one_pass(tracer)
tracer.uninstall()
runs.check_outputs()
assert runs.failed == 0, runs.errors
print(json.dumps(tracing.layer_metrics(tracer.spans, tracer.notes)))
"""


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_exactly_across_processes(workload, tmp_path):
    """The counts a gain may rest on repeat exactly for one seed, whatever the hash seed."""
    got = []
    for hash_seed in ("1", "2"):
        code = PROBE.format(here=str(HERE), workload=workload, keep=SUBSETS[workload],
                            workdir=str(tmp_path / hash_seed))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONHASHSEED": hash_seed}, timeout=170)
        assert proc.returncode == 0, proc.stderr
        got.append(json.loads(proc.stdout.strip().split("\n")[-1]))
    assert {k: got[0][k] for k in COUNTS} == {k: got[1][k] for k in COUNTS}
    assert got[0]["cli.main.calls"] == len(SUBSETS[workload])
    if workload == "plan_atlas":
        assert got[0]["atlas.enumerate_games.games"] == 2 * 2640  # census and its parity split
        assert got[0]["reversal.plan_optimal.span_calls_per_move"] > 1
