"""Batch command line front end.

Every command is a pure function from input files and flags to output files
and an exit code: 0 on success, 1 on a domain error (error class name on
stderr), 2 on usage errors.  Identical inputs give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path
from typing import Optional

from . import atlas as atlas_mod
from . import construct, eulerian, groups, morph, reversal
from .core import (
    Digraph,
    Game,
    Tournament,
    circulant,
    classify_digraph,
    parse,
    scores,
    serialize,
)
from .errors import DomainError, SizeMismatch, UsageError


def _read_graph(path: str) -> Digraph:
    return parse(Path(path).read_text())


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


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


def _group_from_args(args) -> groups.FiniteGroup:
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
    return groups.parse_group(Path(args.group_file).read_text())


def _add_group_args(sp) -> None:
    sp.add_argument("--cyclic", help="cyclic group Z_m")
    sp.add_argument("--product", help="direct product Z_m1 x Z_m2, as m1,m2")
    sp.add_argument("--semidirect", help="semidirect Z_q acting on Z_p by a, as q,p,a")
    sp.add_argument("--group-file", help="Cayley table file")


# -- command handlers -----------------------------------------------------------


def _cmd_gen(args) -> int:
    if args.sub == "double":
        g, _ = construct.double(_require_tournament(_read_graph(args.input)))
        _emit(serialize(g), args.output)
    elif args.sub == "lex":
        g = construct.lex_product(_read_graph(args.a), _read_graph(args.b))
        _emit(serialize(g), args.output)
    elif args.sub == "extend":
        g, _, _ = construct.extend(_require_game(_read_graph(args.input)), _ints(args.k))
        _emit(serialize(g), args.output)
    elif args.sub == "group":
        G = _group_from_args(args)
        A = groups.GameSubset(G, _ints(args.subset))
        _emit(serialize(groups.group_game(G, A)), args.output)
    elif args.sub == "qr":
        A = groups.quadratic_residue_subset(args.prime)
        _emit(serialize(groups.group_game(A.group, A)), args.output)
    elif args.sub == "realize":
        g, _ = construct.realize_pointed(
            _require_tournament(_read_graph(args.plus)),
            _require_tournament(_read_graph(args.minus)),
        )
        _emit(serialize(g), args.output)
    elif args.sub == "complete":
        g = construct.eulerian_to_game(_read_graph(args.input))
        _emit(serialize(g), args.output)
    elif args.sub == "saturate":
        g, _ = construct.saturate(_require_tournament(_read_graph(args.input)))
        _emit(serialize(g), args.output)
    elif args.sub == "random":
        rng = random.Random(args.seed)
        if args.size % 2 == 0:
            raise SizeMismatch("games have odd size")
        g = circulant(args.size, range(1, (args.size - 1) // 2 + 1))
        for _ in range(args.steps):
            tris = eulerian.three_cycles(g)
            if not tris:
                break  # the 1-vertex game has no 3-cycle to reverse
            a, b, c = tris[rng.randrange(len(tris))]
            g = reversal.apply_plan(g, reversal.ReversalPlan(((a, b, c),)))
        _emit(serialize(g), args.output)
    return 0


def _require_game(g: Digraph) -> Game:
    if not isinstance(g, Game):
        raise UsageError("input must be a game")
    return g


def _require_tournament(g: Digraph) -> Tournament:
    if not isinstance(g, Tournament):
        raise UsageError("input must be a tournament")
    return g


def _cmd_analyze(args) -> int:
    g = _read_graph(args.input)
    if args.sub == "scores":
        _emit(" ".join(str(s) for s in scores(g)) + "\n", args.output)
    elif args.sub == "classify":
        f = classify_digraph(g)
        _emit(
            _json(
                {
                    "is_tournament": f.is_tournament,
                    "is_eulerian": f.is_eulerian,
                    "is_game": f.is_game,
                    "is_regular": f.is_regular,
                }
            ),
            args.output,
        )
    elif args.sub == "cycles":
        st = eulerian.three_cycle_stats(_require_tournament(g))
        _emit(
            _json(
                {
                    "per_vertex": list(st.per_vertex),
                    "total": st.total,
                    "formula_total": st.formula_total,
                }
            ),
            args.output,
        )
    elif args.sub == "span":
        rep = eulerian.span_lower_bound(g) if args.bound_only else eulerian.span(g)
        _emit(eulerian.format_decomposition(rep), args.output)
    elif args.sub == "steiner":
        triples = eulerian.steiner_decomposition(_require_game(g))
        if triples is None:
            _emit("not steiner\n", args.output)
        else:
            _emit("".join(f"c {a} {b} {c}\n" for (a, b, c) in triples), args.output)
    elif args.sub == "reducibility":
        rep = construct.reducibility_graph(_require_game(g))
        lines = [f"kind={rep.kind}"]
        for comp in rep.components:
            lines.append("path " + " ".join(str(v) for v in comp))
        _emit("\n".join(lines) + "\n", args.output)
    elif args.sub == "sep":
        rep = construct.has_sep(_require_tournament(g), _ints(args.t0))
        if rep.ok:
            lines = ["ok"]
            for J in sorted(rep.witness, key=lambda s: (len(s), sorted(s))):
                lines.append(
                    "J={" + ",".join(str(x) for x in sorted(J)) + "} v=" + str(rep.witness[J])
                )
            _emit("\n".join(lines) + "\n", args.output)
        else:
            _emit("fail J={" + ",".join(str(x) for x in sorted(rep.failing or ())) + "}\n", args.output)
    return 0


def _cmd_plan(args) -> int:
    if args.sub == "apply":
        g = _read_graph(args.input)
        plan = reversal.parse_plan(Path(args.plan).read_text())
        _emit(serialize(reversal.apply_plan(g, plan)), args.output)
        return 0
    a = _require_tournament(_read_graph(args.a))
    b = _require_tournament(_read_graph(args.b))
    if args.sub == "any":
        plan = reversal.plan_any(a, b)
    elif args.sub == "optimal":
        plan = reversal.plan_optimal(a, b)
    else:
        J = _ints(args.j)
        K = [v for v in range(a.p) if v not in set(J)]
        plan = reversal.bipartite_plan(a, b, J, K)
    _emit(reversal.format_plan(plan), args.output)
    return 0


def _cmd_iso(args) -> int:
    if args.sub == "canon":
        cf = morph.canonical_form(_read_graph(args.input))
        _emit(cf.hex + "\n", args.output)
    elif args.sub == "test":
        w = morph.are_isomorphic(_read_graph(args.a), _read_graph(args.b))
        if w is None:
            _emit("non-isomorphic\n", args.output)
        else:
            _emit("isomorphic " + " ".join(str(x) for x in w.image) + "\n", args.output)
    elif args.sub == "aut":
        ag = morph.automorphisms(_read_graph(args.input))
        lines = [f"order {ag.order}"]
        for perm in ag:
            lines.append(" ".join(str(x) for x in perm.image))
        _emit("\n".join(lines) + "\n", args.output)
    elif args.sub == "classify7":
        _emit(morph.classify7(_require_game(_read_graph(args.input))) + "\n", args.output)
    return 0


def _cmd_groups(args) -> int:
    if args.sub == "phi":
        _emit(str(groups.euler_phi(args.m)) + "\n", args.output)
        return 0
    if args.sub == "fermat":
        _emit(("yes" if groups.is_fermat_square_free(args.m) else "no") + "\n", args.output)
        return 0
    if args.sub == "explore-aut":
        # open question: does any game subset of Z_m (m a Fermat prime, e.g. 17)
        # carry extra automorphisms beyond the m translations?
        G = groups.cyclic_group(args.m)
        tally: dict[int, int] = {}
        extras = []
        for A in groups.enumerate_game_subsets(G):
            order = morph.automorphisms(groups.group_game(G, A)).order
            tally[order] = tally.get(order, 0) + 1
            if order != args.m:
                extras.append(A)
        lines = [f"aut_order={k} subsets={tally[k]}" for k in sorted(tally)]
        lines.append(f"extra_automorphism_subsets={len(extras)}")
        _emit("\n".join(lines) + "\n", args.output)
        return 0
    if args.sub == "explore-iso-families":
        # open question: can more than phi(m) game subsets share one game type?
        G = groups.cyclic_group(args.m)
        fams: dict[int, int] = {}
        for A in groups.enumerate_game_subsets(G):
            bits = morph.canonical_form(groups.group_game(G, A)).bits
            fams[bits] = fams.get(bits, 0) + 1
        phi = groups.euler_phi(args.m)
        sizes = sorted(fams.values(), reverse=True)
        lines = [f"phi={phi}", "family_sizes=" + ",".join(str(s) for s in sizes)]
        lines.append(f"exceeds_phi={'yes' if sizes and sizes[0] > phi else 'no'}")
        _emit("\n".join(lines) + "\n", args.output)
        return 0
    G = _group_from_args(args)
    if args.sub == "subsets":
        text = "".join(groups.serialize_subset(A) for A in groups.enumerate_game_subsets(G))
        _emit(text, args.output)
    elif args.sub == "pair-subsets":
        H = _ints(args.subgroup)
        text = "".join(groups.serialize_subset(A) for A in groups.pair_game_subsets(G, H))
        _emit(text, args.output)
    elif args.sub == "quotient":
        A = groups.GameSubset(G, _ints(args.subset))
        q, cosets, _ = groups.quotient_game(G, _ints(args.subgroup), A)
        _emit(serialize(q), args.output)
    elif args.sub == "factorize":
        A = groups.GameSubset(G, _ints(args.subset))
        w = groups.lex_factorization_check(G, _ints(args.subgroup), A)
        _emit("witness " + " ".join(str(x) for x in w.image) + "\n", args.output)
    return 0


def _cmd_atlas(args) -> int:
    if args.sub == "enumerate":
        gs = list(atlas_mod.enumerate_games(args.p))
        if args.output:
            Path(args.output).write_text("\n".join(serialize(g) for g in gs))
        sys.stdout.write(f"{len(gs)}\n")
    elif args.sub == "census":
        atl = atlas_mod.census(args.p)
        # from size 3 on, swapping labels 0 and 1 pairs the games an odd
        # number of edges apart, so each parity of |Delta(., base)| has half
        t = atl.labeled_total
        _emit(
            _json(
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
            ),
            args.output,
        )
    elif args.sub == "distance":
        a = _require_game(_read_graph(args.a))
        b = _require_game(_read_graph(args.b))
        d = atlas_mod.interchange_distance(a, b)
        _emit(str(d) + "\n", args.output)
    elif args.sub == "diameter":
        rep = atlas_mod.diameter(args.p)
        _emit(
            _json({"p": rep.p, "diameter": rep.value, "n_squared": rep.conjectured}),
            args.output,
        )
    elif args.sub == "report":
        rep = atlas_mod.count_report(args.n)
        payload = {
            "n": rep.n,
            "p": rep.p,
            "binom": rep.binom,
            "exact_total": rep.exact_total,
            "exact_pointed": rep.exact_pointed,
            "formula_pointed_lower": rep.formula_pointed_lower,
            "formula_total_lower": rep.formula_total_lower,
            "is_lower_bound": f"{rep.is_lower_bound_num}/{rep.is_lower_bound_den}",
            "literature_pointed": rep.literature_pointed,
            "literature_total": rep.literature_total,
            "literature_agrees": rep.literature_agrees,
        }
        if rep.literature_agrees is False:
            sys.stderr.write(
                "DISCREPANCY: enumerated counts disagree with the literature values; "
                "the enumerated values are oracle-backed\n"
            )
        _emit(_json(payload), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gamegraphs", description=__doc__)
    top = ap.add_subparsers(dest="verb", required=True)

    gen = top.add_parser("gen", help="construct graphs").add_subparsers(dest="sub", required=True)
    for name in ("double", "complete", "saturate"):
        sp = gen.add_parser(name)
        sp.add_argument("input")
        sp.add_argument("-o", "--output")
        sp.set_defaults(func=_cmd_gen)
    sp = gen.add_parser("lex")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=_cmd_gen)
    sp = gen.add_parser("extend")
    sp.add_argument("input")
    sp.add_argument("--k", required=True, help="comma list, the future in-set of u")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=_cmd_gen)
    sp = gen.add_parser("group")
    _add_group_args(sp)
    sp.add_argument("--subset", required=True, help="comma list of subset elements")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=_cmd_gen)
    sp = gen.add_parser("qr")
    sp.add_argument("--prime", type=int, required=True)
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=_cmd_gen)
    sp = gen.add_parser("realize")
    sp.add_argument("plus")
    sp.add_argument("minus")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=_cmd_gen)
    sp = gen.add_parser("random")
    sp.add_argument("--size", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--steps", type=int, default=64)
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=_cmd_gen)

    an = top.add_parser("analyze", help="inspect graphs").add_subparsers(dest="sub", required=True)
    for name in ("scores", "classify", "cycles", "steiner", "reducibility"):
        sp = an.add_parser(name)
        sp.add_argument("input")
        sp.add_argument("-o", "--output")
        sp.set_defaults(func=_cmd_analyze)
    sp = an.add_parser("span")
    sp.add_argument("input")
    sp.add_argument("--bound-only", action="store_true")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=_cmd_analyze)
    sp = an.add_parser("sep")
    sp.add_argument("input")
    sp.add_argument("--t0", required=True, help="comma list of anchor vertices")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=_cmd_analyze)

    pl = top.add_parser("plan", help="reversal planning").add_subparsers(dest="sub", required=True)
    for name in ("any", "optimal"):
        sp = pl.add_parser(name)
        sp.add_argument("a")
        sp.add_argument("b")
        sp.add_argument("-o", "--output")
        sp.set_defaults(func=_cmd_plan)
    sp = pl.add_parser("bipartite")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("--j", required=True, help="comma list: one part of the bipartition")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=_cmd_plan)
    sp = pl.add_parser("apply")
    sp.add_argument("input")
    sp.add_argument("plan")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=_cmd_plan)

    iso = top.add_parser("iso", help="isomorphism tools").add_subparsers(dest="sub", required=True)
    for name in ("canon", "aut", "classify7"):
        sp = iso.add_parser(name)
        sp.add_argument("input")
        sp.add_argument("-o", "--output")
        sp.set_defaults(func=_cmd_iso)
    sp = iso.add_parser("test")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=_cmd_iso)

    gr = top.add_parser("groups", help="group machinery").add_subparsers(dest="sub", required=True)
    for name in ("subsets",):
        sp = gr.add_parser(name)
        _add_group_args(sp)
        sp.add_argument("-o", "--output")
        sp.set_defaults(func=_cmd_groups)
    sp = gr.add_parser("pair-subsets")
    _add_group_args(sp)
    sp.add_argument("--subgroup", required=True)
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=_cmd_groups)
    for name in ("quotient", "factorize"):
        sp = gr.add_parser(name)
        _add_group_args(sp)
        sp.add_argument("--subgroup", required=True)
        sp.add_argument("--subset", required=True)
        sp.add_argument("-o", "--output")
        sp.set_defaults(func=_cmd_groups)
    for name in ("phi", "fermat", "explore-aut", "explore-iso-families"):
        sp = gr.add_parser(name)
        sp.add_argument("m", type=int)
        sp.add_argument("-o", "--output")
        sp.set_defaults(func=_cmd_groups)

    at = top.add_parser("atlas", help="exhaustive atlas").add_subparsers(dest="sub", required=True)
    for name in ("enumerate", "census", "diameter"):
        sp = at.add_parser(name)
        sp.add_argument("p", type=int)
        sp.add_argument("-o", "--output")
        sp.set_defaults(func=_cmd_atlas)
    sp = at.add_parser("distance")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=_cmd_atlas)
    sp = at.add_parser("report")
    sp.add_argument("n", type=int)
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=_cmd_atlas)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
