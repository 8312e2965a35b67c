"""The benchmark's workloads: the fixed list of operations one pass runs, and
the answer each operation is checked against.

A workload object is built in two steps. Its constructor is the set-up that
`setup_s` times: it loads or generates the models and parses formulas and
strategies. `prepare` then works out every expected answer apart from the
code under test (the published case-study numbers, closed forms, the
reference labeller in reference.py, and the model arguments in README.md);
it is neither timed nor traced.

Operations call natstrat through module attributes (`checker.eval_formula`)
so that the traced run, which replaces those attributes, sees every call.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Callable, Optional

import natstrat.checker as checker
import natstrat.cli as cli
import natstrat.dsl as dsl
import natstrat.model as model
import natstrat.outcome as outcome
import natstrat.uppaal as uppaal
from natstrat import casestudy
from natstrat.errors import ResourceLimitError

import reference
import scale_model


@dataclass
class Op:
    """One operation of a pass. `run` calls natstrat and returns a small
    summary of its answer; `check` returns None when the summary is right and
    a message otherwise. `results` is how many checked results it yields."""

    name: str
    run: Callable[[], object]
    results: int = 1
    check: Callable[[object], Optional[str]] = field(default=lambda out: "no expected answer")


def expect(expected) -> Callable[[object], Optional[str]]:
    return lambda got: None if got == expected else f"got {got!r}, expected {expected!r}"


def guard_pred(net, text: str):
    """A goal predicate over global states, as the CLI builds it."""
    goal = dsl.parse_guard_text(text, net)
    return lambda q: model.eval_guard(goal, q, net)


# ---------------------------------------------------------------------------
# casestudy: the regression table through the CLI, the bundled formulas,
# extra symbolwise step counts and UPPAAL export

# Numbers published in the paper's case study.
PUBLISHED_COMPLEXITY = {
    "cast_verify": 15, "cast_verify_extra_checks": 21,
    "cast_verify_split_check4": 17, "cast_verify_symbolwise": 29,
    "punish_disobedient": 16, "infect_replace": 6, "infect_watch_punish": 7,
}
PUBLISHED_GUARD_LENGTHS = [1, 5, 10]
PUBLISHED_STEPS = [9, 11, 13, 15, 35]
PUBLISHED_VERDICTS = [False, True, True, True, True, True, True]

# (model, formula, strategy supplied with --use, or None when the formula
# names its own)
BUNDLED_CHECKS = (
    ("voter_base", "reach_end", "cast_verify"),
    ("voter_base", "receipt_checked", "cast_verify"),
    ("voter_base", "reach_end_all_checks", "cast_verify_extra_checks"),
    ("voter_base", "voter_verifiability", "cast_verify"),
    ("voter_base", "dispute_resolution", None),
    ("voter_check4", "reach_end", "cast_verify_split_check4"),
    ("voter_check4", "complete_split_verification", "cast_verify_split_check4"),
    ("voter_full", "reach_end", "cast_verify_symbolwise"),
    ("voter_full", "complete_symbolwise_verification", "cast_verify_symbolwise"),
)
EXTRA_STEPS_NM = ((1, 4), (3, 2), (5, 5), (10, 8))
SYMBOLWISE_GOAL = ("checked4 && wbb_checked_sn && receipt_checked_sn && checked4_1 "
                   "&& wbb_checked_pr && receipt_checked_pr && checked4_2")


def symbolwise_steps(n: int, m: int) -> int:
    """The paper's closed form for the symbol-by-symbol check."""
    return 9 + (2 * n + 1) + (2 * m + 1)


def check_run_all(out) -> Optional[str]:
    code, text = out
    report = json.loads(text)
    rows: dict = {}
    for task in report["tasks"]:
        rows.setdefault(task["kind"], []).append(task)
    got_complexity = {t["name"]: t["value"] for t in rows.get("complexity", [])}
    checks = (
        ("exit status", code, 0),
        ("complexities", got_complexity, PUBLISHED_COMPLEXITY),
        ("guard lengths", sorted(t["value"] for t in rows.get("guard-length", [])),
         PUBLISHED_GUARD_LENGTHS),
        ("step counts", sorted(t["value"] for t in rows.get("steps", [])),
         PUBLISHED_STEPS),
        ("verdicts", sorted(t["value"] for t in rows.get("verdict", [])),
         PUBLISHED_VERDICTS),
        ("row kinds", sorted(rows), ["complexity", "guard-length", "steps", "verdict"]),
    )
    for what, got, want in checks:
        if got != want:
            return f"{what}: got {got!r}, published {want!r}"
    return None


def check_cli_verdict(verdict: bool):
    """`natstrat check` reports the verdict and exits 0 when it is True, 1
    when it is False."""
    def check(out) -> Optional[str]:
        code, text = out
        got = (code, json.loads(text)["tasks"][0]["value"])
        want = (0 if verdict else 1, verdict)
        return None if got == want else f"got {got!r}, expected {want!r}"
    return check


def check_export(net, fixed_agent: Optional[str], n_queries: int):
    """Structure of an exported document, read back with ElementTree and
    compared with the network it came from."""
    def check(out) -> Optional[str]:
        xml, queries = out
        root = ET.fromstring(xml)
        templates = root.findall("template")
        names = [t.findtext("name") for t in templates]
        if names != [a.name for a in net.agents]:
            return f"templates {names}"
        for tpl, agent in zip(templates, net.agents):
            locs = {le.get("id"): le.findtext("name") for le in tpl.findall("location")}
            if sorted(locs.values()) != sorted(agent.locations):
                return f"{agent.name}: locations {sorted(locs.values())}"
            if locs.get(tpl.find("init").get("ref")) != agent.initial:
                return f"{agent.name}: wrong initial location"
            n_edges = len(tpl.findall("transition"))
            full = len(agent.edges) + (len(agent.locations) if agent.lazy else 0)
            if agent.name == fixed_agent:
                if not 0 < n_edges <= full:
                    return f"{agent.name}: {n_edges} transitions after fixing, {full} before"
            elif n_edges != full:
                return f"{agent.name}: {n_edges} transitions, model has {full}"
        system = root.findtext("system").strip()
        if system != "system " + ", ".join(a.name for a in net.agents) + ";":
            return f"system line {system!r}"
        lines = [ln for ln in queries.splitlines() if ln.strip()]
        if len(lines) != n_queries or not all(ln[:4] in ("A<> ", "A[] ") for ln in lines):
            return f"queries {lines!r}"
        return None
    return check


class CaseStudy:
    """What every user runs first: many small models, parsed again on every
    pass by the CLI. Parsing, strategy fixing and export lead here."""

    def __init__(self, rng):
        self.bundles = {
            "voter_base": casestudy.build_voter("base"),
            "voter_check4": casestudy.build_voter("check4"),
            "voter_full": casestudy.build_voter("full", 7, 5),
        }
        for variant in casestudy.COERCER_VARIANTS:
            self.bundles[f"coercion_{variant}"] = casestudy.build_coercer(variant)
        self.infrastructure = casestudy.infrastructure_network()
        self.steps_models = {nm: casestudy.build_voter("full", *nm)
                             for nm in EXTRA_STEPS_NM}
        self.steps_goals = {nm: dsl.parse_guard_text(SYMBOLWISE_GOAL, b.network)
                            for nm, b in self.steps_models.items()}

        self.ops = [Op("run-all", self.run_all,
                       results=len(PUBLISHED_COMPLEXITY) + len(PUBLISHED_GUARD_LENGTHS)
                       + len(PUBLISHED_STEPS) + len(PUBLISHED_VERDICTS))]
        for model_name, formula, strategy in BUNDLED_CHECKS:
            self.ops.append(Op(f"check {model_name}:{formula}",
                               lambda a=(model_name, formula, strategy): self.cli_check(*a)))
        for nm in EXTRA_STEPS_NM:
            self.ops.append(Op(f"steps symbolwise n={nm[0]} m={nm[1]}",
                               lambda nm=nm: self.steps(nm)))
        self.exports = self._export_jobs()
        for label, (net, s_A, formulas) in self.exports.items():
            self.ops.append(Op(f"export {label}",
                               lambda job=(net, s_A, formulas): self.export(*job)))

    def _export_jobs(self) -> dict:
        b = self.bundles
        base = b["voter_base"]
        jobs = {
            "voter_base": (base.network, None, [base.formulas["reach_end"]]),
            "voter_base fixed cast_verify": (
                base.network, {"Voter": base.strategies["cast_verify"]},
                [base.formulas["reach_end"]]),
            "voter_check4": (b["voter_check4"].network, None,
                             [b["voter_check4"].formulas["complete_split_verification"]]),
            "voter_full": (b["voter_full"].network, None,
                           [b["voter_full"].formulas["complete_symbolwise_verification"]]),
        }
        for variant in casestudy.COERCER_VARIANTS:
            jobs[f"coercion_{variant}"] = (b[f"coercion_{variant}"].network, None, [])
        jobs["infrastructure"] = (self.infrastructure, None, [])
        return jobs

    # -- operations ---------------------------------------------------------------
    @staticmethod
    def run_all():
        code, report = cli.cli_main(["casestudy", "--run-all", "--format", "json"])
        return code, report.to_json()

    @staticmethod
    def cli_check(model_name: str, formula: str, strategy: Optional[str]):
        argv = ["check", "--model", model_name, "--formula-name", formula,
                "--format", "json"]
        if strategy:
            argv += ["--use", strategy]
        code, report = cli.cli_main(argv)
        return code, report.to_json()

    def steps(self, nm):
        bundle = self.steps_models[nm]
        s = bundle.strategies["cast_verify_symbolwise"]
        res = outcome.steps_to_goal(bundle.network, None, {s.agent: s},
                                    self.steps_goals[nm])
        return res.kind, res.value

    @staticmethod
    def export(net, s_A, formulas):
        doc = uppaal.export_uppaal(net, s_A, formulas)
        return doc.xml, doc.queries

    # -- expected answers -----------------------------------------------------------
    def prepare(self) -> None:
        ops = iter(self.ops)
        next(ops).check = check_run_all
        for model_name, formula, strategy in BUNDLED_CHECKS:
            bundle = self.bundles[model_name]
            supplied = {}
            if strategy:
                s = bundle.strategies[strategy]
                supplied[s.agent] = s
            ref = reference.Labeller(bundle.network, bundle.strategies, supplied)
            verdict = ref.holds_initially(bundle.formulas[formula])
            next(ops).check = check_cli_verdict(verdict)
        for n, m in EXTRA_STEPS_NM:
            next(ops).check = expect(("reached", symbolwise_steps(n, m)))
        for net, s_A, formulas in self.exports.values():
            fixed = next(iter(s_A)) if s_A else None
            next(ops).check = check_export(net, fixed, len(formulas))


# ---------------------------------------------------------------------------
# nested: a strategic operator under A G, labelled at every reachable state

NESTED = (
    ("voter_full(30,20)", "A G A F end"),
    ("voter_full(60,40)", "A G A F end"),
    ("voter_full(30,20)", "A G <<Voter:cast_verify_symbolwise>>^29 F end"),
    ("infrastructure", "A G A F true"),
    ("coercion_punisher",
     "A G (Voter@end -> (K[Coercer] ca_v == 1 || K[Coercer] !(ca_v == 1)))"),
    ("voter_base", "dispute_resolution"),
)


class Nested:
    """Formulas whose inner strategic operator natstrat evaluates once per
    reachable state, each time exploring again. Exploration calls, outcome
    building and labelling lead here."""

    def __init__(self, rng):
        self.bundles = {
            "voter_full(30,20)": casestudy.build_voter("full", 30, 20),
            "voter_full(60,40)": casestudy.build_voter("full", 60, 40),
            "infrastructure": dsl.load_bundle(casestudy.DATA_DIR / "infrastructure.nsm"),
            "coercion_punisher": casestudy.build_coercer("punisher"),
            "voter_base": casestudy.build_voter("base"),
        }
        self.formulas = []
        for model_name, text in NESTED:
            bundle = self.bundles[model_name]
            f = (bundle.formulas[text] if text in bundle.formulas
                 else dsl.parse_formula(text, bundle.network))
            self.formulas.append((model_name, text, f))
        self.ops = [Op(f"{text} on {model_name}",
                       lambda a=(model_name, f): self.evaluate(*a))
                    for model_name, text, f in self.formulas]

    def evaluate(self, model_name, f):
        bundle = self.bundles[model_name]
        return checker.eval_formula(bundle.network, f,
                                    strategies_by_name=bundle.strategies).verdict

    def prepare(self) -> None:
        for op, (model_name, text, f) in zip(self.ops, self.formulas):
            bundle = self.bundles[model_name]
            verdict = reference.Labeller(bundle.network, bundle.strategies).holds_initially(f)
            if text == "A G A F true" and verdict is not True:
                raise ValueError("reference labeller: A G A F true must hold")
            op.check = expect(verdict)


# ---------------------------------------------------------------------------
# synth: bounded synthesis, exhaustive, successful and capped

# (name, model, coalition, bound, temporal operator, goal, enumeration cap,
# expected verdict; the argument for each False is in README.md)
SYNTH = (
    ("<<Voter>>^2 F end", "voter_base", ("Voter",), 2, "F", "end", None, False),
    ("<<Coercer>>^3 G !(ca_v == 2)", "coercion_infector", ("Coercer",), 3, "G",
     "!(ca_v == 2)", None, False),
    ("<<Coercer>>^4 F (punished_v == 1 && infected == 1)", "coercion_watchdog",
     ("Coercer",), 4, "F", "punished_v == 1 && infected == 1", None, True),
    ("<<Coercer>>^4 G !(ca_v == 2), capped", "coercion_watchdog", ("Coercer",), 4,
     "G", "!(ca_v == 2)", 5767, None),
)


class Synth:
    """Bounded synthesis: candidate generation, one outcome graph per
    candidate, and the enumeration cap. The capped search sets peak memory."""

    def __init__(self, rng):
        self.bundles = {
            "voter_base": casestudy.build_voter("base"),
            "coercion_infector": casestudy.build_coercer("infector"),
            "coercion_watchdog": casestudy.build_coercer("watchdog"),
            "coercion_punisher": casestudy.build_coercer("punisher"),
        }
        self.goals = {spec[0]: guard_pred(self.bundles[spec[1]].network, spec[5])
                      for spec in SYNTH}
        self.ops = [Op(spec[0], lambda spec=spec: self.synthesize(*spec))
                    for spec in SYNTH]
        self.ops.append(Op("receipt_freeness, synthesis mode", self.receipt_freeness))

    def synthesize(self, name, model_name, coalition, bound, op, goal, cap, _):
        config = (checker.SynthesisConfig() if cap is None
                  else checker.SynthesisConfig(enumeration_cap=cap))
        try:
            res = checker.synthesize_strategic(
                self.bundles[model_name].network, None, list(coalition), bound, op,
                [self.goals[name]], config=config)
        except ResourceLimitError:
            return None, None
        return res.verdict, res.witness_strategy

    def receipt_freeness(self):
        bundle = self.bundles["coercion_punisher"]
        res = checker.eval_formula(bundle.network, bundle.formulas["receipt_freeness"],
                                   mode="synthesize")
        return res.verdict, res.witness_strategy

    def prepare(self) -> None:
        for op, spec in zip(self.ops, SYNTH):
            name, model_name, coalition, bound, temporal, _, cap, verdict = spec
            net = self.bundles[model_name].network
            if model_name == "coercion_infector":
                self._voter_can_vote_other(net)
            if cap is not None:
                op.check = self._capped_check
            elif verdict:
                op.check = self._witness_check(net, coalition, bound, temporal,
                                               [self.goals[name]])
            else:
                op.check = lambda out: None if out[0] is False else f"got {out[0]!r}"
        self.ops[-1].check = self._receipt_freeness_check()

    @staticmethod
    def _voter_can_vote_other(net) -> None:
        """The fact the infector argument rests on: the voter, outside the
        coalition, moves from the initial state to ca_v == 2."""
        ref = reference.Labeller(net)
        bad = ref.satisfying(dsl.parse_guard_text("ca_v == 2", net))
        if not any(j in bad and set(acts) == {"Voter"} for j, acts in ref.moves[0]):
            raise ValueError("coercion_infector: no Voter move to ca_v == 2 at the start")

    @staticmethod
    def _capped_check(out) -> Optional[str]:
        return "a capped search reported True" if out[0] is True else None

    @staticmethod
    def _witness_check(net, coalition, bound, temporal, preds):
        def check(out) -> Optional[str]:
            verdict, witness = out
            if verdict is not True or not witness:
                return f"got {verdict!r} with witness {witness!r}"
            if sorted(witness) != sorted(coalition):
                return f"witness covers {sorted(witness)}"
            if reference.strategy_size(witness.values()) > bound:
                return "witness exceeds the bound"
            again = checker.verify_strategic(net, None, coalition, bound, temporal,
                                             preds, witness)
            return None if again.verdict is True else "witness does not re-verify"
        return check

    def _receipt_freeness_check(self):
        """Both conjuncts are ¬<<Coercer,Voter>>^4 G goal; the vote is global,
        so the Coercer knows it everywhere and every goal holds at every
        state. The formula is False, and a reported witness must make one
        conjunct's strategic formula True again under verify_strategic."""
        bundle = self.bundles["coercion_punisher"]
        net = bundle.network
        ref = reference.Labeller(net)
        f = bundle.formulas["receipt_freeness"]
        nodes = [f.left.sub, f.right.sub]
        index = {q: i for i, q in enumerate(ref.states)}
        preds = []
        for node in nodes:
            labels = ref.label(node.subs[0])
            if len(labels) != ref.n:
                raise ValueError("coercion_punisher: the coercer does not always know the vote")
            preds.append(lambda q, labels=labels: index.get(q) in labels)

        def check(out) -> Optional[str]:
            verdict, witness = out
            if verdict is not False:
                return f"got {verdict!r}"
            if witness is None:
                return None
            for node, pred in zip(nodes, preds):
                again = checker.verify_strategic(net, None, node.coalition, node.bound,
                                                 node.op, [pred], witness)
                if again.verdict is True:
                    return None
            return "the reported witness does not re-verify"
        return check


# ---------------------------------------------------------------------------
# scale: one large graph, N independent copies of one voter

SCALE_COPIES = 2
SCALE_NM = (7, 5)


class Scale:
    """The one workload with a large graph: exploration throughput, state
    storage and the fixpoint sweep dominate, not per-call overhead."""

    def __init__(self, rng):
        n, m = SCALE_NM
        order = rng.sample(range(SCALE_COPIES), SCALE_COPIES)
        self.net = dsl.parse_network(scale_model.copies_text(order, n, m),
                                     name="voter_copies")
        self.af = dsl.parse_formula("A F Voter0@end", self.net)
        self.ag = dsl.parse_formula("A G !(Voter0@error && Voter1@error)", self.net)
        self.strategy = dsl.parse_strategy(
            scale_model.strategy_text("cast_verify_symbolwise", "Voter0"), self.net)
        self.goal = dsl.parse_guard_text(SYMBOLWISE_GOAL, self.net, owner="Voter0")
        self.ops = [
            Op("explore", self.explore),
            Op("A F Voter0@end", lambda: self.evaluate(self.af)),
            Op("A G !(Voter0@error && Voter1@error)", lambda: self.evaluate(self.ag)),
            Op("steps cast_verify_symbolwise for Voter0", self.steps),
        ]

    def explore(self):
        graph = model.explore(self.net)
        return graph.n_states, len(graph.transitions)

    def evaluate(self, f):
        return checker.eval_formula(self.net, f).verdict

    def steps(self):
        res = outcome.steps_to_goal(self.net, None, {"Voter0": self.strategy}, self.goal)
        return res.kind, res.value

    def prepare(self) -> None:
        """Every answer follows from facts about one copy: product states and
        transitions multiply out, and each verdict is a single-copy verdict."""
        n, m = SCALE_NM
        single = casestudy.build_voter("full", n, m)
        net = single.network
        s = single.strategies["cast_verify_symbolwise"]
        ref = reference.Labeller(net, single.strategies, {"Voter": s})
        free = ref.successors()
        S, T, N = ref.n, ref.n_transitions, SCALE_COPIES
        af_end = ref.holds_initially(dsl.parse_formula("A F end", net))
        cycle = ref.has_reachable_cycle(free)
        error = 0 in ref.can_reach(free, ref.satisfying(dsl.parse_guard_text("error", net)))
        reaches = ref.holds_initially(dsl.parse_formula(f"<<Voter>>^29 F ({SYMBOLWISE_GOAL})", net))
        if reaches and not cycle:
            raise ValueError("scale: a bounded step count needs a longest-path argument")
        self.ops[0].check = expect((S ** N, N * T * S ** (N - 1)))
        # another copy looping forever keeps Voter0 from ever ending
        self.ops[1].check = expect(af_end and not cycle)
        self.ops[2].check = expect(not error)
        self.ops[3].check = expect(("unbounded", None) if reaches else ("unreachable", None))


WORKLOADS = {"casestudy": CaseStudy, "nested": Nested, "synth": Synth, "scale": Scale}
