import json
import random
import time
from itertools import permutations

import pytest

from gamegraphs.cli import main
from gamegraphs.core import circulant, make_digraph, parse, serialize
from gamegraphs.groups import GameSubset, group_game, semidirect_cyclic


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_group_game_file(self, tmp_path, capsys, g7i):
        out = tmp_path / "g.game"
        code, _, _ = run(capsys, "gen", "group", "--cyclic", "7", "--subset", "1,2,3", "-o", str(out))
        assert code == 0
        assert parse(out.read_text()) == g7i
        assert out.read_text() == serialize(g7i)

    def test_double_stdout(self, tmp_path, capsys, c3):
        src = tmp_path / "c3.game"
        src.write_text(serialize(c3))
        code, stdout, _ = run(capsys, "gen", "double", str(src))
        assert code == 0
        assert parse(stdout).p == 7

    def test_semidirect_group_game(self, capsys):
        G = semidirect_cyclic(3, 7, 2)
        A = GameSubset(G, [1, 2, 3, 7, 8, 9, 10, 11, 12, 13])
        code, stdout, _ = run(capsys, "gen", "group", "--semidirect", "3,7,2", "--subset", "1,2,3,7,8,9,10,11,12,13")
        assert code == 0 and stdout == serialize(group_game(G, A))

    def test_qr(self, capsys, g7ii):
        code, stdout, _ = run(capsys, "gen", "qr", "--prime", "7")
        assert code == 0
        assert parse(stdout) == g7ii

    def test_random_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "gen", "random", "--size", "7", "--seed", "5")
        code2, out2, _ = run(capsys, "gen", "random", "--size", "7", "--seed", "5")
        assert code1 == code2 == 0 and out1 == out2
        assert parse(out1).p == 7

    def test_random_even_size(self, capsys):
        code, stdout, err = run(capsys, "gen", "random", "--size", "4", "--seed", "5")
        assert code == 1 and stdout == "" and err.startswith("SizeMismatch")

    def test_random_one_vertex_stays_put(self, capsys):
        code, stdout, _ = run(capsys, "gen", "random", "--size", "1", "--seed", "5")
        code0, still, _ = run(capsys, "gen", "random", "--size", "1", "--seed", "5", "--steps", "0")
        assert code == code0 == 0
        assert stdout == still == serialize(circulant(1, ()))

    def test_saturate(self, tmp_path, capsys, c3):
        src = tmp_path / "c3.game"
        src.write_text(serialize(c3))
        code, stdout, _ = run(capsys, "gen", "saturate", str(src))
        assert code == 0 and parse(stdout).p == 11

    def test_lex_past_the_vertex_ceiling_fails_fast(self, tmp_path, capsys):
        src = tmp_path / "c63.game"
        src.write_text(serialize(circulant(63, range(1, 32))))
        start = time.perf_counter()
        code, stdout, err = run(capsys, "gen", "lex", str(src), str(src))
        elapsed = time.perf_counter() - start
        assert (code, stdout) == (1, "")
        assert err == "VertexOutOfRange: vertex count 3969 outside 0..64\n"
        assert elapsed < 0.5  # the size is checked before any row is built

    @pytest.mark.parametrize("argv", [
        ["atlas", "report", "10000"],
        ["gen", "random", "--size", "20001", "--seed", "1", "--steps", "0"],
    ])
    def test_circulant_past_the_vertex_ceiling_fails_fast(self, capsys, argv):
        start = time.perf_counter()
        code, stdout, err = run(capsys, *argv)
        elapsed = time.perf_counter() - start
        assert (code, stdout) == (1, "")
        assert err == "VertexOutOfRange: vertex count 20001 outside 0..64\n"
        assert elapsed < 1.0  # the size is checked before any row is built


class TestPlan:
    @pytest.mark.parametrize("line, error", [
        ("r3 x 1 2", "ParseError"),
        ("r3 5 0 1", "VertexOutOfRange"),
        ("r3 -1 0 1", "VertexOutOfRange"),
    ])
    def test_apply_bad_plan_file(self, tmp_path, capsys, c3, line, error):
        g = tmp_path / "c3.game"
        g.write_text(serialize(c3))
        plan = tmp_path / "bad.plan"
        plan.write_text(line + "\n")
        code, stdout, err = run(capsys, "plan", "apply", str(g), str(plan))
        assert code == 1 and stdout == ""
        assert err.startswith(error + ": ")

    def test_optimal_single_move(self, tmp_path, capsys, g7iii, g7ii):
        a = tmp_path / "a.game"
        b = tmp_path / "b.game"
        a.write_text(serialize(g7iii))
        b.write_text(serialize(g7ii))
        code, stdout, _ = run(capsys, "plan", "optimal", str(a), str(b))
        assert code == 0
        assert stdout == "r3 3 6 5\n"

    def test_apply_round_trip(self, tmp_path, capsys, g7i):
        from gamegraphs.core import reverse

        a = tmp_path / "a.game"
        b = tmp_path / "b.game"
        plan_file = tmp_path / "p.plan"
        out = tmp_path / "out.game"
        a.write_text(serialize(g7i))
        b.write_text(serialize(reverse(g7i)))
        code, _, _ = run(capsys, "plan", "any", str(a), str(b), "-o", str(plan_file))
        assert code == 0
        code, _, _ = run(capsys, "plan", "apply", str(a), str(plan_file), "-o", str(out))
        assert code == 0
        assert out.read_text() == b.read_text()  # byte-exact target

    def test_score_mismatch_is_domain_error(self, tmp_path, capsys):
        from gamegraphs.core import make_digraph

        a = tmp_path / "a.t"
        b = tmp_path / "b.t"
        a.write_text(serialize(make_digraph(3, [(0, 1), (0, 2), (1, 2)])))
        b.write_text(serialize(circulant(3, (1,))))
        code, _, err = run(capsys, "plan", "any", str(a), str(b))
        assert code == 1
        assert err.startswith("ScoreMismatch")


class TestAnalyze:
    def test_scores(self, tmp_path, capsys, g5):
        src = tmp_path / "g.game"
        src.write_text(serialize(g5))
        code, stdout, _ = run(capsys, "analyze", "scores", str(src))
        assert code == 0 and stdout == "2 2 2 2 2\n"

    def test_scores_of_empty_digraph(self, tmp_path, capsys):
        src = tmp_path / "empty.digraph"
        src.write_text("digraph 0\n")
        code, stdout, err = run(capsys, "analyze", "scores", str(src))
        assert code == 0 and stdout == "\n" and err == ""

    def test_span_report_line(self, tmp_path, capsys, g7i):
        src = tmp_path / "g.game"
        src.write_text(serialize(g7i))
        code, stdout, _ = run(capsys, "analyze", "span", str(src))
        assert code == 0
        assert stdout.strip().endswith("span=6 balance=9 edges=21")

    def test_steiner(self, tmp_path, capsys, g7i, g7ii):
        a = tmp_path / "a.game"
        a.write_text(serialize(g7i))
        code, stdout, _ = run(capsys, "analyze", "steiner", str(a))
        assert code == 0 and stdout == "not steiner\n"
        b = tmp_path / "b.game"
        b.write_text(serialize(g7ii))
        code, stdout, _ = run(capsys, "analyze", "steiner", str(b))
        assert code == 0 and len(stdout.strip().split("\n")) == 7

    def test_steiner_search_past_its_budget(self, tmp_path, capsys):
        # the exact cover on this walk game runs far past its work budget
        g = tmp_path / "r21.game"
        argv = ["--size", "21", "--seed", "1", "--steps", "20", "-o", str(g)]
        code, _, _ = run(capsys, "gen", "random", *argv)
        assert code == 0
        code, stdout, err = run(capsys, "analyze", "steiner", str(g))
        assert code == 1 and stdout == "" and err.startswith("BudgetExceeded")

    def test_sep(self, tmp_path, capsys, c3):
        src = tmp_path / "c3.game"
        src.write_text(serialize(c3))
        code, stdout, _ = run(capsys, "analyze", "sep", str(src), "--t0", "0")
        assert code == 0
        assert stdout.splitlines()[0] == "ok"


class TestIso:
    def test_canon_equal_for_isomorphs(self, tmp_path, capsys):
        a = tmp_path / "a.game"
        b = tmp_path / "b.game"
        a.write_text(serialize(circulant(7, (1, 2, 3))))
        b.write_text(serialize(circulant(7, (1, 3, 5))))
        _, out1, _ = run(capsys, "iso", "canon", str(a))
        _, out2, _ = run(capsys, "iso", "canon", str(b))
        assert out1 == out2

    def test_test_verb(self, tmp_path, capsys, g7i, g7ii):
        a = tmp_path / "a.game"
        b = tmp_path / "b.game"
        a.write_text(serialize(g7i))
        b.write_text(serialize(g7ii))
        code, stdout, _ = run(capsys, "iso", "test", str(a), str(b))
        assert code == 0 and stdout == "non-isomorphic\n"

    def test_aut(self, tmp_path, capsys, g7ii):
        src = tmp_path / "g.game"
        src.write_text(serialize(g7ii))
        code, stdout, _ = run(capsys, "iso", "aut", str(src))
        assert code == 0
        assert stdout.splitlines()[0] == "order 21"

    def test_classify7(self, tmp_path, capsys, g7iii):
        src = tmp_path / "g.game"
        src.write_text(serialize(g7iii))
        code, stdout, _ = run(capsys, "iso", "classify7", str(src))
        assert code == 0 and stdout == "III\n"


class TestGroups:
    def test_phi(self, capsys):
        code, stdout, _ = run(capsys, "groups", "phi", "9")
        assert code == 0 and stdout == "6\n"

    def test_fermat(self, capsys):
        code, stdout, _ = run(capsys, "groups", "fermat", "15")
        assert code == 0 and stdout == "yes\n"
        code, stdout, _ = run(capsys, "groups", "fermat", "21")
        assert code == 0 and stdout == "no\n"

    def test_subsets(self, capsys):
        code, stdout, _ = run(capsys, "groups", "subsets", "--cyclic", "7")
        assert code == 0 and len(stdout.strip().split("\n")) == 8

    def test_pair_subsets(self, capsys):
        code, stdout, _ = run(capsys, "groups", "pair-subsets", "--cyclic", "9", "--subgroup", "0,3,6")
        assert code == 0 and len(stdout.strip().split("\n")) == 4

    def test_explore_aut(self, capsys):
        code, stdout, _ = run(capsys, "groups", "explore-aut", "9")
        assert code == 0
        assert "aut_order=9 subsets=12" in stdout
        assert "aut_order=81 subsets=4" in stdout

    def test_explore_iso_families(self, capsys):
        code, stdout, _ = run(capsys, "groups", "explore-iso-families", "9")
        assert code == 0
        assert "family_sizes=6,6,4" in stdout
        assert "exceeds_phi=no" in stdout

    def test_quotient(self, capsys, c3):
        code, stdout, _ = run(
            capsys, "groups", "quotient", "--cyclic", "9",
            "--subgroup", "0,3,6", "--subset", "1,3,4,7",
        )
        assert code == 0 and parse(stdout) == c3


class TestAtlas:
    def test_census7(self, capsys):
        code, stdout, _ = run(capsys, "atlas", "census", "7")
        assert code == 0
        data = json.loads(stdout)
        assert data["labeled_total"] == 2640
        assert len(data["classes"]) == 3
        assert sorted(c["aut_order"] for c in data["classes"]) == [3, 7, 21]

    def test_enumerate(self, capsys):
        code, stdout, _ = run(capsys, "atlas", "enumerate", "5")
        assert code == 0 and stdout == "24\n"

    @pytest.mark.parametrize("verb", ["census", "enumerate", "diameter"])
    def test_negative_size(self, capsys, verb):
        code, stdout, err = run(capsys, "atlas", verb, "-1")
        assert code == 1 and stdout == "" and err.startswith("VertexOutOfRange")

    def test_report_past_the_enumeration_budget(self, capsys):
        # size 11 is past enumeration; both counts come from the DP
        code, stdout, err = run(capsys, "atlas", "report", "5")
        assert code == 0 and err == ""
        data = json.loads(stdout)
        assert (data["n"], data["p"], data["binom"]) == (5, 11, 252)
        assert data["exact_pointed"] == 191_474_240
        assert data["exact_total"] == data["binom"] * data["exact_pointed"]

    def test_report_past_the_dp(self, capsys):
        code, stdout, err = run(capsys, "atlas", "report", "10")
        assert code == 1 and stdout == "" and err.startswith("TooLarge")

    def test_report_banner(self, capsys):
        code, stdout, err = run(capsys, "atlas", "report", "3")
        assert code == 0
        data = json.loads(stdout)
        assert data["literature_agrees"] is False
        assert "DISCREPANCY" in err

    def test_distance(self, tmp_path, capsys, g7iii, g7ii):
        a = tmp_path / "a.game"
        b = tmp_path / "b.game"
        a.write_text(serialize(g7iii))
        b.write_text(serialize(g7ii))
        code, stdout, _ = run(capsys, "atlas", "distance", str(a), str(b))
        assert code == 0 and stdout == "1\n"


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "nonsense"])
        assert exc.value.code == 2

    def test_domain_error_is_1(self, tmp_path, capsys, g5):
        src = tmp_path / "g.game"
        src.write_text(serialize(g5))
        code, _, err = run(capsys, "iso", "classify7", str(src))
        assert code == 1 and err.startswith("BadSize")

    @pytest.mark.parametrize("argv, error", [
        (["groups", "quotient", "--cyclic", "9", "--subgroup", "0,3,6,9", "--subset", "1"], "NotSubgroup"),
        (["groups", "pair-subsets", "--cyclic", "9", "--subgroup", "0,12"], "NotSubgroup"),
        (["groups", "subsets", "--cyclic", "9,3"], "UsageError"),
        (["groups", "subsets", "--product", "3"], "UsageError"),
        (["groups", "subsets", "--semidirect", "3,7"], "UsageError"),
        (["analyze", "sep", "GAME", "--t0", "0,99"], "VertexOutOfRange"),
        (["analyze", "sep", "GAME", "--t0", "-1"], "VertexOutOfRange"),
        (["gen", "group", "--cyclic", "7", "--subset", "-1"], "NotGameSubset"),
        (["gen", "group", "--cyclic", "7", "--subset", "1,1,1,3"], "NotGameSubset"),
        (["groups", "subsets", "--cyclic", "35"], "TooLarge"),
        (["groups", "pair-subsets", "--cyclic", "35", "--subgroup", "0"], "TooLarge"),
        (["groups", "explore-aut", "35"], "TooLarge"),
        (["groups", "explore-iso-families", "35"], "TooLarge"),
        (["groups", "subsets", "--cyclic", "65"], "TooLarge"),
        (["groups", "subsets", "--product", "9,9"], "TooLarge"),
        (["groups", "subsets", "--cyclic", "5000"], "TooLarge"),
        (["groups", "subsets", "--product", "63,63"], "TooLarge"),
        (["iso", "classify7", "ORDER"], "UsageError"),
        (["gen", "extend", "GAME", "--k", "1,x"], "UsageError"),
        (["gen", "group", "--subset", "1"], "UsageError"),
        (["gen", "group", "--cyclic", "7", "--product", "3,3", "--subset", "1"], "UsageError"),
        (["gen", "group", "--cyclic", "0", "--subset", ""], "InvariantViolation"),
    ])
    def test_bad_arguments_are_domain_errors(self, tmp_path, capsys, c3, argv, error):
        src = tmp_path / "c3.game"
        src.write_text(serialize(c3))
        order = tmp_path / "order.tournament"
        order.write_text(serialize(make_digraph(3, [(0, 1), (0, 2), (1, 2)])))
        files = {"GAME": str(src), "ORDER": str(order)}
        code, stdout, err = run(capsys, *[files.get(a, a) for a in argv])
        assert code == 1 and stdout == ""
        assert err.startswith(error + ": ") and "Traceback" not in err

    def test_determinism(self, capsys):
        _, out1, _ = run(capsys, "atlas", "census", "5")
        _, out2, _ = run(capsys, "atlas", "census", "5")
        assert out1 == out2


def _four_cycles(edges, J, K):
    cycles = (
        ((j1, k1), (k1, j2), (j2, k2), (k2, j1))
        for j1, j2 in permutations(J, 2)
        for k1, k2 in permutations(K, 2)
    )
    return [c for c in cycles if all(e in edges for e in c)]


def _bipartite_pair(rng, nj, nk, flips):
    """A random bipartite tournament on J = 0..nj-1, K = the rest, with at
    least one 4-cycle, and the same tournament after `flips` random 4-cycle
    reversals (so with equal scores)."""
    J, K = range(nj), range(nj, nj + nk)
    edges: set = set()
    while not _four_cycles(edges, J, K):
        edges = {(j, k) if rng.random() < 0.5 else (k, j) for j in J for k in K}
    first = make_digraph(nj + nk, edges)
    for _ in range(flips):
        cycle = rng.choice(_four_cycles(edges, J, K))
        edges = (edges - set(cycle)) | {(b, a) for (a, b) in cycle}
    return first, make_digraph(nj + nk, edges), ",".join(map(str, J))


class TestPlanBipartite:
    @pytest.mark.parametrize("seed", range(8))
    def test_plan_replays_to_the_second_file(self, tmp_path, capsys, seed):
        rng = random.Random(seed)
        first, second, j = _bipartite_pair(rng, rng.choice((3, 4)), rng.choice((3, 4)), 7)
        a, b, plan = tmp_path / "a.t", tmp_path / "b.t", tmp_path / "p.plan"
        a.write_text(serialize(first))
        b.write_text(serialize(second))
        code, _, err = run(capsys, "plan", "bipartite", str(a), str(b), "--j", j, "-o", str(plan))
        assert code == 0 and err == ""
        code, stdout, _ = run(capsys, "plan", "apply", str(a), str(plan))
        assert code == 0 and stdout == b.read_text()

    def test_tournaments_are_not_bipartite(self, tmp_path, capsys, g7i, g7iii):
        a, b = tmp_path / "a.game", tmp_path / "b.game"
        a.write_text(serialize(g7i))
        b.write_text(serialize(g7iii))
        code, stdout, err = run(capsys, "plan", "bipartite", str(a), str(b), "--j", "0,1,2")
        assert code == 1 and stdout == ""
        assert err.startswith("ScoreMismatch: ") and "Traceback" not in err


class TestFileErrors:
    @pytest.mark.parametrize("argv, error, named", [
        (["analyze", "scores", "MISSING"], "UsageError", "MISSING"),
        (["analyze", "scores", "JUNK"], "ParseError", "JUNK"),
        (["analyze", "scores", "GAME", "-o", "NODIR"], "UsageError", "NODIR"),
        (["plan", "apply", "GAME", "MISSING"], "UsageError", "MISSING"),
        (["plan", "apply", "GAME", "JUNK"], "ParseError", "JUNK"),
        (["gen", "group", "--group-file", "MISSING", "--subset", "1"], "UsageError", "MISSING"),
        (["groups", "subsets", "--group-file", "JUNK"], "ParseError", "JUNK"),
        (["atlas", "enumerate", "3", "-o", "NODIR"], "UsageError", "NODIR"),
    ])
    def test_file_errors_are_domain_errors(self, tmp_path, capsys, c3, argv, error, named):
        game, junk = tmp_path / "c3.game", tmp_path / "junk.bin"
        game.write_text(serialize(c3))
        junk.write_bytes(random.Random(0).randbytes(200))  # not UTF-8
        paths = {"GAME": game, "JUNK": junk, "MISSING": tmp_path / "missing", "NODIR": tmp_path / "no" / "x"}
        code, stdout, err = run(capsys, *[str(paths.get(a, a)) for a in argv])
        assert code == 1 and stdout == ""
        assert err.startswith(error + ": ") and str(paths[named]) in err
        assert "Traceback" not in err
