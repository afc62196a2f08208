"""Batch command line front end.

Every command is a pure function from input files and flags to output files
and an exit code: 0 on success, 1 on a domain error (error class name on
stderr), 2 on usage errors.  Identical inputs give byte-identical outputs.

Each sub-verb is declared once, as a row of the table `COMMANDS` that names
its arguments and its handler.  A handler reads its own inputs through
`_graph`, `_tournament` or `_game` and returns its output text, which `main`
writes to stdout or to `-o`.  `build_parser` builds every sub-parser from the
table, once per process.  A new verb needs one row in the table and one
pinned case in tests/test_cli_pinned.py.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path
from typing import Iterable, Optional

from . import atlas, construct, eulerian, groups, morph, reversal
from .core import (
    Digraph,
    Game,
    Tournament,
    circulant,
    classify_digraph,
    from_rows,
    parse,
    scores,
    serialize,
)
from .errors import DomainError, ParseError, SizeMismatch, UsageError


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError:
        raise ParseError(f"{path} is not UTF-8 text")


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}")


def _graph(path: str, kind: type = Digraph) -> Digraph:
    g = parse(_read(path))
    if not isinstance(g, kind):
        raise UsageError(f"input must be a {kind.__name__.lower()}")
    return g


_tournament = functools.partial(_graph, kind=Tournament)
_game = functools.partial(_graph, kind=Game)


def _ints(s: str) -> list[int]:
    if not s:
        return []
    try:
        return [int(x) for x in s.split(",")]
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {s!r}")


def _arity(xs: list[int], k: int, form: str) -> list[int]:
    if len(xs) != k:
        raise UsageError(f"expected {form}, got {len(xs)} integers")
    return xs


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _words(xs: Iterable, sep: str = " ") -> str:
    return sep.join(str(x) for x in xs)


def _lines(xs: Iterable[str]) -> str:
    return "".join(x + "\n" for x in xs)


def _group(args) -> groups.FiniteGroup:
    picked = [x for x in (args.cyclic, args.product, args.semidirect, args.group_file) if x]
    if len(picked) != 1:
        raise UsageError("pick exactly one of --cyclic/--product/--semidirect/--group-file")
    if args.cyclic:
        (m,) = _arity(_ints(args.cyclic), 1, "--cyclic m")
        return groups.cyclic_group(m)
    if args.product:
        m1, m2 = _arity(_ints(args.product), 2, "--product m1,m2")
        return groups.direct_product(groups.cyclic_group(m1), groups.cyclic_group(m2))
    if args.semidirect:
        q, p, a = _arity(_ints(args.semidirect), 3, "--semidirect q,p,a")
        return groups.semidirect_cyclic(q, p, a)
    return groups.parse_group(_read(args.group_file))


def _group_game(A: groups.GameSubset) -> str:
    return serialize(groups.group_game(A.group, A))


# -- handlers too long for a table row; each returns its output text ------------


def _gen_realize(args) -> str:
    g, _ = construct.realize_pointed(_tournament(args.plus), _tournament(args.minus))
    return serialize(g)


def _gen_random(args) -> str:
    """A seeded walk of 3-cycle reversals from the circulant, flipped on a
    row list and validated once at the end."""
    rng = random.Random(args.seed)
    p = args.size
    if p % 2 == 0:
        raise SizeMismatch("games have odd size")
    rows = list(circulant(p, range(1, (p - 1) // 2 + 1)).rows)
    full = (1 << p) - 1
    for _ in range(args.steps):
        # a game is a tournament: a vertex's in-neighbors complement its out-neighbors
        cols = [full ^ r ^ (1 << i) for i, r in enumerate(rows)]
        tris = eulerian._three_cycles(rows, cols)
        if not tris:
            break  # the 1-vertex game has no 3-cycle to reverse
        reversal._reverse_cycle(rows, tris[rng.randrange(len(tris))])
    return serialize(from_rows(p, rows))


def _analyze_steiner(args) -> str:
    triples = eulerian.steiner_decomposition(_game(args.input))
    if triples is None:
        return "not steiner\n"
    return _lines("c " + _words(t) for t in triples)


def _analyze_reducibility(args) -> str:
    rep = construct.reducibility_graph(_game(args.input))
    return _lines([f"kind={rep.kind}"] + ["path " + _words(comp) for comp in rep.components])


def _analyze_span(args) -> str:
    g = _graph(args.input)
    rep = eulerian.span_lower_bound(g) if args.bound_only else eulerian.span(g)
    return eulerian.format_decomposition(rep)


def _analyze_sep(args) -> str:
    rep = construct.has_sep(_tournament(args.input), _ints(args.t0))
    if not rep.ok:
        return "fail J={" + _words(sorted(rep.failing or ()), ",") + "}\n"
    witnessed = sorted(rep.witness, key=lambda s: (len(s), sorted(s)))
    return _lines(["ok"] + ["J={" + _words(sorted(J), ",") + "} v=" + str(rep.witness[J]) for J in witnessed])


def _plan_any(args) -> str:
    return reversal.format_plan(reversal.plan_any(_tournament(args.a), _tournament(args.b)))


def _plan_optimal(args) -> str:
    return reversal.format_plan(reversal.plan_optimal(_tournament(args.a), _tournament(args.b)))


def _plan_bipartite(args) -> str:
    a, b, J = _graph(args.a), _graph(args.b), _ints(args.j)
    K = [v for v in range(a.p) if v not in set(J)]
    return reversal.format_plan(reversal.bipartite_plan(a, b, J, K))


def _plan_apply(args) -> str:
    g = _graph(args.input)
    return serialize(reversal.apply_plan(g, reversal.parse_plan(_read(args.plan))))


def _iso_aut(args) -> str:
    ag = morph.automorphisms(_graph(args.input))
    return _lines([f"order {ag.order}"] + [_words(perm.image) for perm in ag])


def _iso_test(args) -> str:
    w = morph.are_isomorphic(_graph(args.a), _graph(args.b))
    return "non-isomorphic\n" if w is None else "isomorphic " + _words(w.image) + "\n"


def _groups_pair_subsets(args) -> str:
    G = _group(args)
    return "".join(map(groups.serialize_subset, groups.pair_game_subsets(G, _ints(args.subgroup))))


def _groups_quotient(args) -> str:
    A = groups.GameSubset(_group(args), _ints(args.subset))
    q, _, _ = groups.quotient_game(A.group, _ints(args.subgroup), A)
    return serialize(q)


def _groups_factorize(args) -> str:
    A = groups.GameSubset(_group(args), _ints(args.subset))
    w = groups.lex_factorization_check(A.group, _ints(args.subgroup), A)
    return "witness " + _words(w.image) + "\n"


def _groups_explore_aut(args) -> str:
    # open question: does any game subset of Z_m (m a Fermat prime, e.g. 17)
    # carry extra automorphisms beyond the m translations?
    G = groups.cyclic_group(args.m)
    games = (groups.group_game(G, A) for A in groups.enumerate_game_subsets(G))
    tally = Counter(morph.automorphisms(g).order for g in games)
    extra = sum(n for order, n in tally.items() if order != args.m)
    lines = [f"aut_order={k} subsets={tally[k]}" for k in sorted(tally)]
    return _lines(lines + [f"extra_automorphism_subsets={extra}"])


def _groups_explore_iso_families(args) -> str:
    # open question: can more than phi(m) game subsets share one game type?
    G = groups.cyclic_group(args.m)
    games = (groups.group_game(G, A) for A in groups.enumerate_game_subsets(G))
    fams = Counter(morph.canonical_form(g).bits for g in games)
    phi = groups.euler_phi(args.m)
    sizes = sorted(fams.values(), reverse=True)
    exceeds = "yes" if sizes and sizes[0] > phi else "no"
    return _lines([f"phi={phi}", "family_sizes=" + _words(sizes, ","), f"exceeds_phi={exceeds}"])


def _atlas_enumerate(args) -> None:
    """The one verb that writes its own output: -o gets the games, stdout the count."""
    gs = list(atlas.enumerate_games(args.p))
    if args.output:
        _write(args.output, "\n".join(serialize(g) for g in gs))
    sys.stdout.write(f"{len(gs)}\n")


def _atlas_census(args) -> str:
    atl = atlas.census(args.p)
    # from size 3 on, swapping labels 0 and 1 pairs the games an odd
    # number of edges apart, so each parity of |Delta(., base)| has half
    t = atl.labeled_total
    return _json(
        {
            "p": atl.p,
            "labeled_total": atl.labeled_total,
            "classes": [
                {
                    "canon_hex": c.canon_hex,
                    "aut_order": c.aut_order,
                    "labeled_count": c.labeled_count,
                }
                for c in atl.classes
            ],
            "parity_split": [t - t // 2, t // 2],
        }
    )


def _atlas_diameter(args) -> str:
    rep = atlas.diameter(args.p)
    return _json({"p": rep.p, "diameter": rep.value, "n_squared": rep.conjectured})


def _atlas_report(args) -> str:
    rep = atlas.count_report(args.n)
    if rep.literature_agrees is False:
        sys.stderr.write(
            "DISCREPANCY: the counts disagree with the literature values; both "
            "come from the labeled-count DP, which the tests check against enumeration\n"
        )
    payload = asdict(rep)
    num, den = payload.pop("is_lower_bound_num"), payload.pop("is_lower_bound_den")
    return _json({**payload, "is_lower_bound": f"{num}/{den}", "literature_agrees": rep.literature_agrees})


# -- the command table ----------------------------------------------------------


def _arg(*flags: str, **kw) -> tuple[tuple[str, ...], dict]:
    return flags, kw


_INPUT, _A, _B = _arg("input"), _arg("a"), _arg("b")
_P, _M = _arg("p", type=int), _arg("m", type=int)
_GROUP = [
    _arg("--cyclic", help="cyclic group Z_m"),
    _arg("--product", help="direct product Z_m1 x Z_m2, as m1,m2"),
    _arg("--semidirect", help="semidirect Z_q acting on Z_p by a, as q,p,a"),
    _arg("--group-file", help="Cayley table file"),
]
_SUBGROUP, _SUBSET = _arg("--subgroup", required=True), _arg("--subset", required=True)

# verb -> (help, {sub-verb -> ([arguments], handler)}), the sub-verbs in their
# --help order; every sub-parser also gets -o/--output
COMMANDS = {
    "gen": ("construct graphs", {
        "double": ([_INPUT], lambda args: serialize(construct.double(_tournament(args.input))[0])),
        "complete": ([_INPUT], lambda args: serialize(construct.eulerian_to_game(_graph(args.input)))),
        "saturate": ([_INPUT], lambda args: serialize(construct.saturate(_tournament(args.input))[0])),
        "lex": ([_A, _B], lambda args: serialize(construct.lex_product(_graph(args.a), _graph(args.b)))),
        "extend": (
            [_INPUT, _arg("--k", required=True, help="comma list, the future in-set of u")],
            lambda args: serialize(construct.extend(_game(args.input), _ints(args.k))[0]),
        ),
        "group": (
            [*_GROUP, _arg("--subset", required=True, help="comma list of subset elements")],
            lambda args: _group_game(groups.GameSubset(_group(args), _ints(args.subset))),
        ),
        "qr": (
            [_arg("--prime", type=int, required=True)],
            lambda args: _group_game(groups.quadratic_residue_subset(args.prime)),
        ),
        "realize": ([_arg("plus"), _arg("minus")], _gen_realize),
        "random": (
            [
                _arg("--size", type=int, required=True),
                _arg("--seed", type=int, required=True),
                _arg("--steps", type=int, default=64),
            ],
            _gen_random,
        ),
    }),
    "analyze": ("inspect graphs", {
        "scores": ([_INPUT], lambda args: _words(scores(_graph(args.input))) + "\n"),
        "classify": ([_INPUT], lambda args: _json(asdict(classify_digraph(_graph(args.input))))),
        "cycles": ([_INPUT], lambda args: _json(asdict(eulerian.three_cycle_stats(_tournament(args.input))))),
        "steiner": ([_INPUT], _analyze_steiner),
        "reducibility": ([_INPUT], _analyze_reducibility),
        "span": ([_INPUT, _arg("--bound-only", action="store_true")], _analyze_span),
        "sep": ([_INPUT, _arg("--t0", required=True, help="comma list of anchor vertices")], _analyze_sep),
    }),
    "plan": ("reversal planning", {
        "any": ([_A, _B], _plan_any),
        "optimal": ([_A, _B], _plan_optimal),
        "bipartite": (
            [_A, _B, _arg("--j", required=True, help="comma list: one part of the bipartition")],
            _plan_bipartite,
        ),
        "apply": ([_INPUT, _arg("plan")], _plan_apply),
    }),
    "iso": ("isomorphism tools", {
        "canon": ([_INPUT], lambda args: morph.canonical_form(_graph(args.input)).hex + "\n"),
        "aut": ([_INPUT], _iso_aut),
        "classify7": ([_INPUT], lambda args: morph.classify7(_game(args.input)) + "\n"),
        "test": ([_A, _B], _iso_test),
    }),
    "groups": ("group machinery", {
        "subsets": (
            _GROUP,
            lambda args: "".join(map(groups.serialize_subset, groups.enumerate_game_subsets(_group(args)))),
        ),
        "pair-subsets": ([*_GROUP, _SUBGROUP], _groups_pair_subsets),
        "quotient": ([*_GROUP, _SUBGROUP, _SUBSET], _groups_quotient),
        "factorize": ([*_GROUP, _SUBGROUP, _SUBSET], _groups_factorize),
        "phi": ([_M], lambda args: f"{groups.euler_phi(args.m)}\n"),
        "fermat": ([_M], lambda args: ("yes" if groups.is_fermat_square_free(args.m) else "no") + "\n"),
        "explore-aut": ([_M], _groups_explore_aut),
        "explore-iso-families": ([_M], _groups_explore_iso_families),
    }),
    "atlas": ("exhaustive atlas", {
        "enumerate": ([_P], _atlas_enumerate),
        "census": ([_P], _atlas_census),
        "diameter": ([_P], _atlas_diameter),
        "distance": ([_A, _B], lambda args: f"{atlas.interchange_distance(_game(args.a), _game(args.b))}\n"),
        "report": ([_arg("n", type=int)], _atlas_report),
    }),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser for every row of `COMMANDS`, built once per process and
    shared by every call: callers must not modify it."""
    # --help shows the docstring's first two paragraphs, the part for users
    description = "\n\n".join((__doc__ or "").split("\n\n")[:2])
    ap = argparse.ArgumentParser(prog="gamegraphs", description=description)
    verbs = ap.add_subparsers(dest="verb", required=True)
    for verb, (help_text, subs) in COMMANDS.items():
        sub_verbs = verbs.add_parser(verb, help=help_text).add_subparsers(dest="sub", required=True)
        for sub, (arguments, handler) in subs.items():
            sp = sub_verbs.add_parser(sub)
            for flags, kw in arguments:
                sp.add_argument(*flags, **kw)
            sp.add_argument("-o", "--output")
            sp.set_defaults(func=handler)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = args.func(args)
        if text is not None and args.output:
            _write(args.output, text)
        elif text is not None:
            sys.stdout.write(text)
    except DomainError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
