"""Every CLI sub-verb, pinned byte for byte on small fixed inputs.

Each case runs one sub-verb and pins its exit code, its stdout and the class
name at the head of stderr.  Stdout is stored as literal text up to five
lines and as a sha256 beyond.  The same call with `-o FILE` must write
exactly stdout's bytes to FILE and print nothing; a failing call writes no
file.  `atlas enumerate` is the one exception: its `-o` gets the games and
its stdout gets the count.  A sub-verb with no case here fails
`test_every_sub_verb_is_pinned`, so a new verb cannot land untested.
"""

import hashlib
import random

import pytest

from gamegraphs import cli
from gamegraphs.core import Permutation, relabel, serialize
from gamegraphs.groups import cyclic_group, group_game, quadratic_residue_subset, serialize_group

from conftest import random_eulerian_edgeset, random_tournament

# (argv with {input} placeholders, exit code, stdout, stderr head)
CASES = [
    ('gen double {c3}', 0, 'sha256:d0a9d7da7b95d9a423700ad3ed9788aa336ecac1321719793889a7c179d463a4', ''),
    ('gen complete {ed31}', 0, 'sha256:528df7f6d54bec752f97b8bda8ff8ae3eb0cf049b41e6f9674f88f2ac48c0fb0', ''),
    ('gen complete {ed9}', 0, 'sha256:e94bf76f9dc9fdd0489868f6b97888ca6d2678192531235d3f588b1e80f8bd63', ''),
    ('gen saturate {c3}', 0, 'sha256:5182e1b7e225aa9c145544d5ad348b07fc5f0a93f36a4b0ceceb38364fdb34e6', ''),
    ('gen lex {c3} {c3}', 0, 'sha256:3b27ffc2c71bb3eae86bb5a810651ebd42c21607d4d7a2ef37ec844dc5436fcd', ''),
    ('gen extend {c3} --k 0,1', 0, 'sha256:8496ab6c8dd98447145624b361f2d63a39fc95a4407e5fdc3ddec46cea37fb10', ''),
    ('gen extend {c3} --k 0,0,1', 1, '', 'BadK'),
    ('gen group --cyclic 7 --subset 1,2,3', 0, 'sha256:952987542b3814ea687c746701314c57e070e65bd27f83c1cdb4ff9ccb3d87b3', ''),
    ('gen group --semidirect 3,0,1 --subset 1', 1, '', 'BadAction'),
    ('gen group --group-file {z7} --subset 1,2,4', 0, 'sha256:c3f2c4a5a4469b852e761f2e0b846badf9093bab79a5b15e5d750a84abb46340', ''),
    ('gen qr --prime 7', 0, 'sha256:c3f2c4a5a4469b852e761f2e0b846badf9093bab79a5b15e5d750a84abb46340', ''),
    ('gen realize {t3} {c3}', 0, 'sha256:2a357558b9c106513f44f4dacc573473f1a3948b0befc65b3395412d9817d6f9', ''),
    ('gen realize {t15a} {t15b}', 0, 'sha256:fa00bcb4f4b01864dc571b6784714a874edc1b50aef357779887cf1da8793a2f', ''),
    ('gen random --size 7 --seed 5', 0, 'sha256:a4b3a15058c03483e142673e9c4a853969a693b71364faaeb194a100a6b536d9', ''),
    ('gen random --size 9 --seed 1', 0, 'sha256:55bd9c74b44af70e8c26a0f26ff2fa77b1326de69a5701c63cd6d4ba389384d4', ''),
    ('gen random --size 63 --seed 3 --steps 200', 0, 'sha256:0d3b0e61da26b4e77780d6a100850302e85288c78a344a1a542b3c5f4ee010d1', ''),
    ('gen random --size 1 --seed 5', 0, 'game 1\n0\n', ''),
    ('analyze scores {g5}', 0, '2 2 2 2 2\n', ''),
    ('analyze classify {ed9}', 0, 'sha256:47d90a3469d149315a9b0e7c1e8993f0fa1f40d580c2e4c0615902a4e7cac211', ''),
    ('analyze cycles {c3}', 0, 'sha256:753642a75d11418e53633ee326ac2720a6525a6d931aa9a8fb7dd0956459de0c', ''),
    ('analyze steiner {g7ii}', 0, 'sha256:041e326e20bea2617b4e42d65a7575a7a95719d4dad34bf880dfedab2512c481', ''),
    ('analyze steiner {g5}', 0, 'not steiner\n', ''),
    ('analyze reducibility {g7iii}', 0, 'kind=paths\npath 1 3\npath 2 6\npath 4 5\n', ''),
    ('analyze span {g5}', 0, 'c 0 1 3\nc 0 2 4\nc 1 2 3 4\nspan=3 balance=4 edges=10\n', ''),
    ('analyze span {ed9} --bound-only', 0, 'c 0 6 3\nc 0 1 2 3 4 5 6 7 8\nspan=2 balance=8 edges=12\n', ''),
    ('analyze sep {g7ii} --t0 0,1', 0, 'ok\nJ={} v=2\nJ={0} v=3\nJ={1} v=4\nJ={0,1} v=6\n', ''),
    ('analyze sep {t3} --t0 0', 0, 'fail J={0}\n', ''),
    ('plan any {g7i} {g7iii}', 0, 'r3 0 3 5\nr3 0 1 4\nr3 0 5 1\nr3 2 5 6\n', ''),
    ('plan optimal {g7i} {g7iii}', 0, 'r3 2 5 6\nr3 0 3 5\nr3 0 1 4\nr3 0 5 1\n', ''),
    ('plan bipartite {g7i} {g7iii} --j 0,1,2', 1, '', 'ScoreMismatch'),
    ('plan apply {g7iii} {plan}', 0, 'sha256:c3f2c4a5a4469b852e761f2e0b846badf9093bab79a5b15e5d750a84abb46340', ''),
    ('iso canon {g7i}', 0, '01ec4986e1a26\n', ''),
    ('iso test {g7i} {g7ii}', 0, 'non-isomorphic\n', ''),
    ('iso test {g7i} {g7i}', 0, 'isomorphic 0 1 2 3 4 5 6\n', ''),
    ('iso aut {g7ii}', 0, 'sha256:333fec51567890793329d6a36c50c105fa287a2433fc9359d90a454fa116f04a', ''),
    ('iso aut {t3}', 0, 'order 1\n0 1 2\n', ''),
    ('iso test {qr23} {qr23r}', 0, 'isomorphic 0 1 14 8 4 9 22 2 5 7 10 12 21 13 19 18 6 15 20 17 3 16 11\n', ''),
    ('iso aut {qr43}', 0, 'sha256:295110293804b861ed9b6af3c4d50094a7706f28f1e89e316e1ce10f70ed9444', ''),
    ('iso classify7 {g7i}', 0, 'I\n', ''),
    ('groups subsets --cyclic 7', 0, 'sha256:093467582612dc7bd8c405ac94f6683264d8c36a076bb1d633c8c0b3e3131d3c', ''),
    ('groups pair-subsets --cyclic 9 --subgroup 0,3,6', 0, 'subset 9 010110010\nsubset 9 010010110\nsubset 9 001101001\nsubset 9 001001101\n', ''),
    ('groups quotient --cyclic 9 --subgroup 0,3,6 --subset 1,3,4,7', 0, 'game 3\n010\n001\n100\n', ''),
    ('groups factorize --cyclic 9 --subgroup 0,3,6 --subset 1,3,4,7', 0, 'witness 0 3 6 1 4 7 2 5 8\n', ''),
    ('groups phi 21', 0, '12\n', ''),
    ('groups phi 100000007', 0, '100000006\n', ''),
    ('groups fermat 15', 0, 'yes\n', ''),
    ('groups explore-aut 5', 0, 'aut_order=5 subsets=4\nextra_automorphism_subsets=0\n', ''),
    ('groups explore-iso-families 9', 0, 'phi=6\nfamily_sizes=6,6,4\nexceeds_phi=no\n', ''),
    ('atlas enumerate 5', 0, '24\n', ''),
    ('atlas census 3', 0, 'sha256:edc129217ed6a20920d4246e531bf2ea35310be4474581ed1fc218bdc0c47ee6', ''),
    ('atlas diameter 5', 0, '{\n  "diameter": 4,\n  "n_squared": 4,\n  "p": 5\n}\n', ''),
    ('atlas distance {g7iii} {g7ii}', 0, '1\n', ''),
    ('atlas report 3', 0, 'sha256:85af5bdef53d2df836ebf9537bd6d9c57b2a6330f2f7459311772e2a31fc17ca', 'DISCREPANCY'),
    ('atlas report 9', 0, 'sha256:bfe64975b7d024d8b0bbe9486106e78d7013a952e1e05e6fbc59df3983ab8299', ''),
]


ENUMERATE_5_GAMES = "sha256:2539a96ea37909dba645ded3bb9372c3428a9a7b41c0448d6d44ccc8887e2af3"


def _qr_game(p: int):
    sub = quadratic_residue_subset(p)
    return group_game(sub.group, sub)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, c3, g5, g7i, g7ii, g7iii, straddle, chorded_nine_ring):
    texts = {
        "c3": serialize(c3),
        "g5": serialize(g5),
        "g7i": serialize(g7i),
        "g7ii": serialize(g7ii),
        "g7iii": serialize(g7iii),
        "t3": serialize(straddle),
        "ed9": serialize(chorded_nine_ring),
        "ed31": serialize(random_eulerian_edgeset(31, random.Random(181), tries=12)),
        "t15a": serialize(random_tournament(15, random.Random(191))),
        "t15b": serialize(random_tournament(15, random.Random(193))),
        "qr23": serialize(_qr_game(23)),
        "qr23r": serialize(relabel(_qr_game(23), Permutation(random.Random(197).sample(range(23), 23)))),
        "qr43": serialize(_qr_game(43)),
        "z7": serialize_group(cyclic_group(7)),
        "plan": "r3 3 6 5\n",
    }
    d = tmp_path_factory.mktemp("pinned")
    for name, text in texts.items():
        (d / name).write_text(text)
    return {name: str(d / name) for name in texts}


def _pin(text: str) -> str:
    if text.count("\n") <= 5:
        return text
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err.split(":", 1)[0]


@pytest.mark.parametrize("line, code, out, err", CASES, ids=[c[0] for c in CASES])
def test_pinned(tmp_path, capsys, inputs, line, code, out, err):
    argv = line.format(**inputs).split()
    got_code, got_out, got_err = _run(capsys, argv)
    assert (got_code, _pin(got_out), got_err) == (code, out, err)
    target = tmp_path / "out"
    o_code, o_out, o_err = _run(capsys, argv + ["-o", str(target)])
    assert (o_code, o_err) == (code, err)
    if argv[:2] == ["atlas", "enumerate"]:
        assert o_out == got_out
        assert _pin(target.read_text()) == ENUMERATE_5_GAMES
    elif code == 0:
        assert o_out == ""
        assert target.read_bytes() == got_out.encode()
    else:
        assert not target.exists()


def test_every_sub_verb_is_pinned():
    pinned = {tuple(line.split()[:2]) for line, *_ in CASES}
    table = {(verb, sub) for verb, (_, subs) in cli.COMMANDS.items() for sub in subs}
    assert len(table) == 37
    assert table <= pinned
