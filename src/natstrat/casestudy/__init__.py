"""Bundled voting case study: parameterized voter models, attacker models,
election infrastructure, the strategies that drive them, and the expected
metrics they must reproduce.

The .nsm/.nss/.nsq files under data/ are the ground truth; the constructors
here only load them (with constant overrides for the parameterized model).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from ..checker import check_temporal_universal, verify_strategic
from ..dsl import ParsedBundle, load_bundle, parse_guard_text
from ..errors import DefinitionError
from ..formula import FAtom, FImplies, FNot, FAnd, FOr, Formula, Knows, Strategic
from ..model import AgentTemplate, Network
from ..outcome import outcomes, steps_to_goal
from ..strategy import complexity, fix_strategy, guard_length

DATA_DIR = Path(__file__).parent / "data"

VOTER_LEVELS = ("base", "check4", "full")
COERCER_VARIANTS = ("punisher", "infector", "watchdog")


def _load(stem: str, consts: Optional[dict[str, int]] = None) -> ParsedBundle:
    nsm = DATA_DIR / f"{stem}.nsm"
    bundle = load_bundle(nsm, consts=consts)
    net = bundle.network
    for suffix in (".nss", ".nsq"):
        extra = nsm.with_suffix(suffix)
        if extra.exists():
            sub = load_bundle(extra, net=net, consts=consts)
            bundle.strategies.update(sub.strategies)
            bundle.formulas.update(sub.formulas)
            bundle.spans.update(sub.spans)
    return bundle


def build_voter(level: str = "base", n: int = 7, m: int = 5) -> ParsedBundle:
    """Voter model at one of three granularities: 'base' (atomic bulletin
    board check), 'check4' (serial/preference split), 'full' (symbol by
    symbol, parameterized by serial length n and candidate count m)."""
    if level not in VOTER_LEVELS:
        raise DefinitionError(f"unknown voter level {level!r}; pick from {VOTER_LEVELS}")
    if level == "full":
        if n < 1 or m < 1:
            raise DefinitionError("full voter model needs n >= 1 and m >= 1")
        return _load("voter_full", consts={"n": n, "m": m})
    return _load(f"voter_{level}")


def build_coercer(variant: str = "punisher") -> ParsedBundle:
    """Two-agent coercion scenario: 'punisher' (demand/request/punish),
    'infector' (infect the machine and replace the vote), 'watchdog'
    (infect read-only, watch the reported vote, punish on mismatch)."""
    if variant not in COERCER_VARIANTS:
        raise DefinitionError(
            f"unknown coercer variant {variant!r}; pick from {COERCER_VARIANTS}")
    return _load(f"coercion_{variant}")


def build_infrastructure() -> dict[str, AgentTemplate]:
    """The five election-infrastructure device templates (the bundled network
    also contains a PollWorker driver so its channels are exercised)."""
    net = infrastructure_network()
    devices = ("PublicWBB", "PrivateWBB", "CancelStation", "Printer", "EBM")
    return {name: net.agent(name) for name in devices}


def infrastructure_network() -> Network:
    return _load("infrastructure").network


def receipt_freeness(bound: int, candidates: tuple[int, ...] = (1, 2),
                     coercer: str = "Coercer", voter: str = "Voter",
                     net: Optional[Network] = None,
                     vote_var: str = "ca_v", end_atom: str = "end") -> Formula:
    """Receipt-freeness template: for every candidate i, the coercer and the
    voter have no joint strategy within the bound to make the coercer know,
    once the procedure has ended, whether the vote was i or not."""
    if net is None:
        net = build_coercer("punisher").network
    parts: list[Formula] = []
    for cand in candidates:
        voted_i = FAtom(parse_guard_text(f"{vote_var} == {cand}", net))
        end = FAtom(parse_guard_text(f"{voter}@{end_atom}", net))
        knows = FOr(Knows(coercer, voted_i), Knows(coercer, FNot(voted_i)))
        goal = FImplies(end, knows)
        parts.append(FNot(Strategic(coalition=(coercer, voter), bound=bound,
                                    op="G", subs=(goal,))))
    out = parts[0]
    for p in parts[1:]:
        out = FAnd(out, p)
    return out


# ---------------------------------------------------------------------------
# Catalog and expected metrics

@dataclass
class CaseStudyCatalog:
    networks: dict[str, Network] = field(default_factory=dict)
    strategies: dict = field(default_factory=dict)
    formulas: dict = field(default_factory=dict)
    expected_metrics: tuple = ()


# (strategy name, bundle) -> published complexity
EXPECTED_COMPLEXITIES = {
    "cast_verify": 15,
    "cast_verify_extra_checks": 21,
    "cast_verify_split_check4": 17,
    "cast_verify_symbolwise": 29,
    "punish_disobedient": 16,
    "infect_replace": 6,
    "infect_watch_punish": 7,
}

# worst-case step counts, row name -> published count; run_all computes
# them in this order
EXPECTED_STEPS = {
    "cast_verify to end (from has_ballot)": 9,
    "cast_verify_extra_checks to end (from has_ballot)": 13,
    "cast_verify_split_check4 to full verification (from start)": 11,
    "cast_verify_symbolwise, n=1 m=1": 15,
    "cast_verify_symbolwise, n=7 m=5": 35,
}


_SYMBOLWISE_GOAL = ("checked4 && wbb_checked_sn && receipt_checked_sn && checked4_1 "
                    "&& wbb_checked_pr && receipt_checked_pr && checked4_2")


def symbolwise_steps(n: int, m: int) -> int:
    """Closed form for the symbol-by-symbol run: reach the board check, then
    one pass per serial symbol and per preference entry plus the loop exits."""
    return 9 + (2 * n + 1) + (2 * m + 1)


def catalog() -> CaseStudyCatalog:
    bundles = {
        "voter_base": build_voter("base"),
        "voter_check4": build_voter("check4"),
        "voter_full": build_voter("full"),
        "coercion_punisher": build_coercer("punisher"),
        "coercion_infector": build_coercer("infector"),
        "coercion_watchdog": build_coercer("watchdog"),
    }
    networks = {name: b.network for name, b in bundles.items()}
    networks["infrastructure"] = infrastructure_network()
    strategies = {}
    formulas = {}
    for name, b in bundles.items():
        for sname, s in b.strategies.items():
            strategies[sname] = (name, s)
        for fname, f in b.formulas.items():
            formulas[f"{name}:{fname}"] = (name, f)
    rows = tuple(
        ("complexity", name, value) for name, value in EXPECTED_COMPLEXITIES.items()
    ) + tuple(
        ("steps", name, value) for name, value in EXPECTED_STEPS.items()
    )
    return CaseStudyCatalog(networks=networks, strategies=strategies,
                            formulas=formulas, expected_metrics=rows)


# ---------------------------------------------------------------------------
# Regression runner (used by the CLI and the acceptance suite)

@dataclass
class TaskResult:
    kind: str
    name: str
    expected: object
    actual: object

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


def run_all(state_cap: int = 200_000) -> list[TaskResult]:
    """Recompute every published number from the bundled files."""
    results: list[TaskResult] = []
    base = build_voter("base")
    check4 = build_voter("check4")
    full75 = build_voter("full", 7, 5)
    full11 = build_voter("full", 1, 1)
    punisher = build_coercer("punisher")
    infector = build_coercer("infector")
    watchdog = build_coercer("watchdog")

    ns1 = base.strategies["cast_verify"]
    ns2 = base.strategies["cast_verify_extra_checks"]
    ns3 = check4.strategies["cast_verify_split_check4"]
    ns4_75 = full75.strategies["cast_verify_symbolwise"]
    ns4_11 = full11.strategies["cast_verify_symbolwise"]
    cs1 = punisher.strategies["punish_disobedient"]
    cs2 = infector.strategies["infect_replace"]
    cs3 = watchdog.strategies["infect_watch_punish"]

    for s, key in ((ns1, "cast_verify"), (ns2, "cast_verify_extra_checks"),
                   (ns3, "cast_verify_split_check4"), (ns4_75, "cast_verify_symbolwise"),
                   (cs1, "punish_disobedient"), (cs2, "infect_replace"),
                   (cs3, "infect_watch_punish")):
        results.append(TaskResult("complexity", key,
                                  EXPECTED_COMPLEXITIES[key], complexity(s)))

    results.append(TaskResult(
        "guard-length", "check2_ok || check2_fail || out", 5,
        guard_length(ns1.rules[3].guard)))
    results.append(TaskResult(
        "guard-length", "punish guard of punish_disobedient", 10,
        guard_length(cs1.rules[2].guard)))
    results.append(TaskResult("guard-length", "true", 1,
                              guard_length(ns1.rules[-1].guard)))

    # Worst-case step counts, in the order of EXPECTED_STEPS.
    def steps(bundle, strategy, goal_text, start=None):
        net = bundle.network
        q = net.state(locations=start) if start else None
        goal = parse_guard_text(goal_text, net)
        return steps_to_goal(net, q, {strategy.agent: strategy}, goal,
                             state_cap=state_cap).value

    step_runs = (
        (base, ns1, "end", {"Voter": "has_ballot"}),
        (base, ns2, "end", {"Voter": "has_ballot"}),
        (check4, ns3, "checked4 && checked4_1 && checked4_2"),
        (full11, ns4_11, _SYMBOLWISE_GOAL),
        (full75, ns4_75, _SYMBOLWISE_GOAL),
    )
    for (name, expected), run in zip(EXPECTED_STEPS.items(), step_runs, strict=True):
        results.append(TaskResult("steps", name, expected, steps(*run)))

    # Verification verdicts.
    def verdict(bundle, strategy, bound, goal_text):
        net = bundle.network
        goal = parse_guard_text(goal_text, net)
        res = verify_strategic(
            net, None, [strategy.agent], bound, "F",
            [lambda q, g=goal, n=net: _holds(g, q, n)],
            {strategy.agent: strategy}, state_cap=state_cap)
        return res.verdict

    def _holds(g, q, n):
        from ..model import eval_guard
        return eval_guard(g, q, n)

    results.append(TaskResult("verdict", "reach_end with cast_verify, bound 15",
                              True, verdict(base, ns1, 15, "end")))
    results.append(TaskResult("verdict", "reach_end with cast_verify, bound 14",
                              False, verdict(base, ns1, 14, "end")))
    results.append(TaskResult(
        "verdict", "receipt_checked with cast_verify minus its finish rule, bound 12",
        True, verdict(base, ns1.without_rule(8), 12, "check4_ok || check4_fail")))
    results.append(TaskResult(
        "verdict", "reach_end_all_checks with cast_verify_extra_checks, bound 21",
        True, verdict(base, ns2, 21, "checked1 && checked3 && end")))
    results.append(TaskResult(
        "verdict", "complete_split_verification with cast_verify_split_check4, bound 17",
        True, verdict(check4, ns3, 17, "checked4 && checked4_1 && checked4_2")))
    results.append(TaskResult(
        "verdict", "complete_symbolwise_verification with cast_verify_symbolwise, bound 29",
        True, verdict(full75, ns4_75, 29, _SYMBOLWISE_GOAL)))

    fixed = fix_strategy(base.network, {"Voter": ns1})
    og = outcomes(fixed, None, {}, state_cap=state_cap)
    end_set = og.satisfying(parse_guard_text("end", fixed))
    results.append(TaskResult(
        "verdict", "AF end on the cast_verify-fixed model", True,
        check_temporal_universal(og, "F", [end_set]).verdict))

    return results
