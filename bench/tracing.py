"""Per-layer tracing from outside the program.

`Tracer.install` replaces the public entry points of each natstrat layer,
in every natstrat module that holds a reference to them, with wrappers that
record a span per call: its name, its parent span, its duration and its self
time (duration minus the time of its child spans). Spans are aggregated in
memory by (parent, name) and written out when the run ends. The spans of
one operation are held apart until `commit` scales their times to the
reference machine speed the worker measured around that operation.

Per-state helpers (`eval_guard`, `enabled_moves`, `apply_move`,
`available_actions`, `match_rule`, `guard_length`) are not wrapped: they run
millions of times per pass, so a span each would cost more than the work it
measures. Their time is part of their caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

from natstrat.errors import ResourceLimitError

# layer -> (module, wrapped names); "Class.method" wraps a method
LAYERS = {
    "dsl": ("natstrat.dsl", ("parse_bundle", "load_bundle", "parse_network",
                             "parse_strategy", "parse_formula", "parse_guard_text",
                             "print_guard", "print_strategy", "print_formula",
                             "print_network")),
    "model": ("natstrat.model", ("explore",)),
    "strategy": ("natstrat.strategy", ("allowed_actions", "fix_strategy",
                                       "make_mutually_exclusive", "firing_exclusive",
                                       "audit_strategy")),
    "outcome": ("natstrat.outcome", ("outcomes", "steps_to_goal")),
    "checker": ("natstrat.checker", ("eval_formula", "verify_strategic",
                                     "synthesize_strategic", "check_temporal_universal",
                                     "eval_knows", "indistinguishability_classes",
                                     "default_vocabulary")),
    "uppaal": ("natstrat.uppaal", ("export_uppaal", "validate_document")),
    "cli": ("natstrat.cli", ("cli_main", "main", "build_parser")),
    "report": ("natstrat.report", ("RunReport.to_json", "RunReport.to_text")),
}

PARSE = {"dsl.parse_bundle", "dsl.load_bundle", "dsl.parse_network",
         "dsl.parse_strategy", "dsl.parse_formula", "dsl.parse_guard_text"}
KNOWLEDGE = {"checker.eval_knows", "checker.indistinguishability_classes"}


def _text_bytes(args, kwargs) -> int:
    text = args[0] if args else kwargs.get("text", "")
    return len(text.encode("utf-8"))


def _explored(result, exc):
    if result is None:      # a strategy error or the state cap ended it
        return {}
    return {"states": result.n_states, "transitions": len(result.transitions)}


def _candidates(result, exc):
    if isinstance(exc, ResourceLimitError):
        return {"candidates": exc.partial or 0}
    if result is not None:
        return {"candidates": result.stats.strategies_enumerated}
    return {}


# counts taken from a call's result (or the exception it raised)
RESULT_COUNTS = {"model.explore": _explored, "checker.synthesize_strategic": _candidates}
# counts taken from a call's arguments
ARG_COUNTS = {"dsl.parse_bundle": _text_bytes, "dsl.parse_guard_text": _text_bytes}


class Tracer:
    def __init__(self):
        self.active = False
        self.missing: list[str] = []
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])   # (parent, name) -> calls, total, self
        self._pending = defaultdict(lambda: [0, 0.0, 0.0])  # the same, for the running operation
        self.counts = defaultdict(float)                  # (name, count) -> sum
        self._stack: list[list] = []                      # [name, child time]
        self._patched: list[tuple] = []

    def wrap(self, name, fn):
        stack, spans, counts = self._stack, self._pending, self.counts
        result_counts = RESULT_COUNTS.get(name)
        arg_count = ARG_COUNTS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            result = exc = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if parent is not None:
                    parent[1] += dur
                rec = spans[(parent[0] if parent else None, name)]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                if arg_count is not None:
                    counts[(name, "bytes")] += arg_count(args, kwargs)
                if result_counts is not None:
                    for key, value in result_counts(result, exc).items():
                        counts[(name, key)] += value

        return functools.wraps(fn)(traced)

    def commit(self, scale: float) -> None:
        """Add the running operation's spans, times multiplied by `scale`."""
        for key, (n, dur, own) in self._pending.items():
            rec = self.spans[key]
            rec[0] += n
            rec[1] += dur * scale
            rec[2] += own * scale
        self._pending.clear()

    def install(self, extra_modules=()) -> None:
        """Wrap every entry point in LAYERS wherever a natstrat module (or one
        of `extra_modules`) holds it. Names that no longer exist are listed in
        `missing` instead."""
        wrappers = {}
        for layer, (module_name, names) in LAYERS.items():
            module = importlib.import_module(module_name)
            for dotted in names:
                owner, _, attr = dotted.rpartition(".")
                target = getattr(module, owner, None) if owner else module
                fn = getattr(target, attr, None)
                if not callable(fn):
                    self.missing.append(f"{module_name}.{dotted}")
                    continue
                key = f"{layer}.{dotted}"
                if owner:
                    self._patch(target, attr, self.wrap(key, fn))
                else:
                    wrappers[id(fn)] = (fn, self.wrap(key, fn))
        modules = [m for name, m in list(sys.modules.items())
                   if name == "natstrat" or name.startswith("natstrat.")]
        for module in modules + list(extra_modules):
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    # -- summaries ---------------------------------------------------------------
    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics for one pass on average; rates over all passes."""
        calls, total, self_time = defaultdict(int), defaultdict(float), defaultdict(float)
        parse_calls, parse_s = 0, 0.0
        for (parent, name), (n, dur, own) in self.spans.items():
            calls[name] += n
            total[name] += dur
            self_time[name] += own
            if name in PARSE and not (parent or "").startswith("dsl."):
                parse_calls += n
                parse_s += dur
        count = self.counts
        kb = (count[("dsl.parse_bundle", "bytes")]
              + count[("dsl.parse_guard_text", "bytes")]) / 1000
        explore_s = total["model.explore"]
        synth_s = total["checker.synthesize_strategic"]
        candidates = count[("checker.synthesize_strategic", "candidates")]
        cli_self = sum(v for k, v in self_time.items() if k.startswith(("cli.", "report.")))

        def rate(amount, seconds):
            return amount / seconds if seconds > 0 else 0.0

        per_pass = {
            "dsl.parse_calls": (parse_calls, "count"),
            "dsl.parse_s": (parse_s, "s"),
            "model.explore_calls": (calls["model.explore"], "count"),
            "model.explore_s": (explore_s, "s"),
            "model.states_explored": (count[("model.explore", "states")], "count"),
            "strategy.allowed_calls": (calls["strategy.allowed_actions"], "count"),
            "strategy.allowed_s": (total["strategy.allowed_actions"], "s"),
            "strategy.fix_s": (total["strategy.fix_strategy"], "s"),
            "outcome.outcomes_calls": (calls["outcome.outcomes"], "count"),
            "outcome.outcomes_self_s": (self_time["outcome.outcomes"], "s"),
            "outcome.steps_self_s": (self_time["outcome.steps_to_goal"], "s"),
            "checker.fixpoint_calls": (calls["checker.check_temporal_universal"], "count"),
            "checker.fixpoint_s": (total["checker.check_temporal_universal"], "s"),
            "checker.knowledge_s": (sum(total[k] for k in KNOWLEDGE), "s"),
            "checker.label_self_s": (self_time["checker.eval_formula"], "s"),
            "checker.candidates_checked": (candidates, "count"),
            "checker.synth_self_s": (self_time["checker.synthesize_strategic"], "s"),
            "uppaal.export_s": (total["uppaal.export_uppaal"], "s"),
            "cli.self_s": (cli_self, "s"),
        }
        out = {name: {"value": value / passes, "unit": unit}
               for name, (value, unit) in per_pass.items()}
        out["dsl.kb_per_s"] = {"value": rate(kb, parse_s), "unit": "kB/s"}
        out["model.transitions_per_s"] = {
            "value": rate(count[("model.explore", "transitions")], explore_s), "unit": "1/s"}
        out["checker.candidates_per_s"] = {"value": rate(candidates, synth_s), "unit": "1/s"}
        return out

    def dump(self) -> dict:
        return {
            "spans": [{"parent": parent, "name": name, "calls": n,
                       "total_s": dur, "self_s": own}
                      for (parent, name), (n, dur, own) in sorted(
                          self.spans.items(), key=lambda kv: -kv[1][1])],
            "counts": {f"{name}:{key}": v for (name, key), v in sorted(self.counts.items())},
            "missing": self.missing,
        }
