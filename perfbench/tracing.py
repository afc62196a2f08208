"""Per-layer tracing by wrapping the library's public functions.

Each public function of a layer module (and ``Digraph.__init__``) is replaced
by a wrapper that records a span: (name, start, end, parent span, job id).
A function is replaced in every ``gamegraphs`` module namespace that binds
it, because modules import each other's functions by name (``reversal``
calls ``span``, ``atlas`` calls ``canonical_form``).  Spans stay in memory
until the run writes them out.  Spans are only recorded while a job runs,
so untimed output checks that call the library do not show up.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Optional


LAYERS = ("cli", "core", "eulerian", "reversal", "morph", "atlas", "groups", "construct")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Optional[tuple]] = []
        self.stack: list[int] = []
        self.job: Optional[str] = None
        # span index -> value a per-layer ratio needs from the call's arguments or result
        self.notes: dict[int, Any] = {}
        self._patched: list[tuple[Any, str, Any]] = []

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[Any, Callable] = {}
        for layer in LAYERS:
            mod = sys.modules[f"gamegraphs.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for name, mod in list(sys.modules.items()):
            if name != "gamegraphs" and not name.startswith("gamegraphs."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        digraph = sys.modules["gamegraphs.core"].Digraph
        self._patched.append((digraph, "__init__", digraph.__init__))
        digraph.__init__ = self._wrap("core.digraph_init", digraph.__init__)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._patched):
            setattr(owner, attr, obj)
        self._patched.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        tracer = self
        note = _NOTES.get(name)

        def wrapper(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            idx = tracer._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, name, start, time.perf_counter())
            if note is not None:
                tracer.notes[idx] = note(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        """One span per resumption, so consumer work between items is not counted."""
        tracer = self

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                if tracer.job is None:
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    yield item
                    continue
                idx = tracer._open()
                start = time.perf_counter()
                try:
                    item = next(it)
                    tracer.notes[idx] = 1
                except StopIteration:
                    tracer.notes[idx] = 0
                    return
                finally:
                    tracer._close(idx, name, start, time.perf_counter())
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float, end: float) -> None:
        self.stack.pop()
        parent = self.stack[-1] if self.stack else -1
        self.spans[idx] = (name, start, end, parent, self.job)



def write_spans(tracers: list[Tracer], path: Path) -> None:
    """One JSON line per span: [pass, index, name, start, end, parent, job]."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for n, tracer in enumerate(tracers):
            for k, (name, start, end, parent, job) in enumerate(tracer.spans):
                fh.write(json.dumps([n, k, name, round(start, 7), round(end, 7), parent, job]) + "\n")


_NOTES: dict[str, Callable] = {
    "eulerian.span": lambda args, r: r.span == r.edge_count // 3,
    "reversal.plan_optimal": lambda args, r: len(r),
    "reversal.plan_any": lambda args, r: len(r),
    "reversal.apply_plan": lambda args, r: len(args[1]),
}


def layer_metrics(spans: list[tuple], notes: dict[int, Any]) -> dict[str, float]:
    """Per-layer counts, times and ratios from the spans of one pass."""
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    self_s: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for k, (name, start, end, parent, _) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        total[name] += dur
        durations[name].append(dur)
        self_s[name.split(".")[0]] += dur - child_time[k]

    def noted(name: str) -> list[tuple[int, Any]]:
        return [(k, notes[k]) for k, s in enumerate(spans) if s[0] == name and k in notes]

    def under(k: int, name: str) -> bool:
        k = spans[k][3]
        while k >= 0:
            if spans[k][0] == name:
                return True
            k = spans[k][3]
        return False

    def p50_ms(name: str) -> float:
        return statistics.median(durations[name]) * 1e3 if durations[name] else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    span_tight = [v for _, v in noted("eulerian.span")]
    optimal_moves = sum(v for _, v in noted("reversal.plan_optimal"))
    optimal_spans = sum(1 for k, s in enumerate(spans) if s[0] == "eulerian.span" and under(k, "reversal.plan_optimal"))
    any_moves = sum(v for _, v in noted("reversal.plan_any"))
    applied = sum(v for _, v in noted("reversal.apply_plan"))
    games = sum(v for _, v in noted("atlas.enumerate_games"))
    m = {
        "eulerian.span.calls": calls["eulerian.span"],
        "eulerian.span.s": total["eulerian.span"],
        "eulerian.span.p50_ms": p50_ms("eulerian.span"),
        "eulerian.span.tight_frac": ratio(sum(span_tight), len(span_tight)),
        "eulerian.three_cycles.s": total["eulerian.three_cycles"],
        "eulerian.cycle_decomposition.s": total["eulerian.cycle_decomposition"],
        "reversal.plan_optimal.calls": calls["reversal.plan_optimal"],
        "reversal.plan_optimal.s": total["reversal.plan_optimal"],
        "reversal.plan_optimal.span_calls_per_move": ratio(optimal_spans, optimal_moves),
        "reversal.plan_any.s": total["reversal.plan_any"],
        # the plan workload runs plan any and plan optimal on the same pairs,
        # and an optimal plan has exactly beta(Delta) moves
        "reversal.plan_any.moves_per_beta": ratio(any_moves, optimal_moves),
        "reversal.apply_plan.s": total["reversal.apply_plan"],
        "reversal.apply_plan.moves_per_s": ratio(applied, total["reversal.apply_plan"]),
        "core.digraph_init.calls": calls["core.digraph_init"],
        "core.digraph_init.s": total["core.digraph_init"],
        "core.parse.s": total["core.parse"],
        "core.serialize.s": total["core.serialize"],
        "morph.canonical_form.calls": calls["morph.canonical_form"],
        "morph.canonical_form.s": total["morph.canonical_form"],
        "morph.canonical_form.p50_ms": p50_ms("morph.canonical_form"),
        "morph.automorphisms.calls": calls["morph.automorphisms"],
        "morph.automorphisms.s": total["morph.automorphisms"],
        "morph.are_isomorphic.calls": calls["morph.are_isomorphic"],
        "morph.are_isomorphic.s": total["morph.are_isomorphic"],
        "atlas.census.s": total["atlas.census"],
        "atlas.interchange_distance.s": total["atlas.interchange_distance"],
        "atlas.parity_bipartition.s": total["atlas.parity_bipartition"],
        "atlas.enumerate_games.games": games,
        "atlas.enumerate_games.games_per_s": ratio(games, total["atlas.enumerate_games"]),
        "groups.group_game.s": total["groups.group_game"],
        "construct.double.s": total["construct.double"],
        "cli.main.calls": calls["cli.main"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    return m
