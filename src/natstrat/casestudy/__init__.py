"""Bundled voting case study: parameterized voter models, attacker models,
election infrastructure, the strategies that drive them, and the table of
published numbers they must reproduce.

The .nsm/.nss/.nsq files under data/ are the ground truth. Every .nsm stem
there is a bundled model (`models()`), which `load` reads together with the
.nss strategies and .nsq formulas of the same stem; the constructors below
only name models (with constant overrides for the parameterized one).
`TABLE` holds the case-study regression table, one row per published
number, and `run_all` recomputes each row from the bundled files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from ..checker import verify_strategic
from ..dsl import ParsedBundle, load_bundle, parse_formula
from ..errors import DefinitionError
from ..formula import Formula
from ..model import DEFAULT_STATE_CAP, AgentTemplate, Network
from ..outcome import steps_to_goal
from ..strategy import complexity, fix_strategy, guard_length

DATA_DIR = Path(__file__).parent / "data"

VOTER_LEVELS = ("base", "check4", "full")
COERCER_VARIANTS = ("punisher", "infector", "watchdog")


def models() -> tuple[str, ...]:
    """Names of the bundled models: the .nsm stems under DATA_DIR."""
    return tuple(sorted(p.stem for p in DATA_DIR.glob("*.nsm")))


def load(stem: str, consts: Optional[dict[str, int]] = None) -> ParsedBundle:
    """The bundled model `stem` with the strategies and formulas of its
    .nss/.nsq files; `consts` overrides declared constants."""
    if stem not in models():
        raise DefinitionError(f"no bundled model {stem!r}; pick from {models()}")
    nsm = DATA_DIR / f"{stem}.nsm"
    bundle = load_bundle(nsm, consts=consts)
    net = bundle.network
    for suffix in (".nss", ".nsq"):
        extra = nsm.with_suffix(suffix)
        if extra.exists():
            sub = load_bundle(extra, net=net, consts=consts)
            bundle.strategies.update(sub.strategies)
            bundle.formulas.update(sub.formulas)
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
        return load("voter_full", consts={"n": n, "m": m})
    return load(f"voter_{level}")


def build_coercer(variant: str = "punisher") -> ParsedBundle:
    """Two-agent coercion scenario: 'punisher' (demand/request/punish),
    'infector' (infect the machine and replace the vote), 'watchdog'
    (infect read-only, watch the reported vote, punish on mismatch)."""
    if variant not in COERCER_VARIANTS:
        raise DefinitionError(
            f"unknown coercer variant {variant!r}; pick from {COERCER_VARIANTS}")
    return load(f"coercion_{variant}")


def build_infrastructure() -> dict[str, AgentTemplate]:
    """The five election-infrastructure device templates (the bundled network
    also contains a PollWorker driver so its channels are exercised)."""
    net = infrastructure_network()
    devices = ("PublicWBB", "PrivateWBB", "CancelStation", "Printer", "EBM")
    return {name: net.agent(name) for name in devices}


def infrastructure_network() -> Network:
    return load("infrastructure").network


# the receipt_freeness formula of coercion_punisher.nsq, bound aside
RECEIPT_FREENESS = """
  !<<Coercer,Voter>>^{k} G (Voter@end -> (K[Coercer] ca_v == 1 || K[Coercer] !(ca_v == 1)))
  && !<<Coercer,Voter>>^{k} G (Voter@end -> (K[Coercer] ca_v == 2 || K[Coercer] !(ca_v == 2)))"""


def receipt_freeness(bound: int, net: Network) -> Formula:
    """Receipt-freeness over `net`: for each candidate 1 and 2, the coercer
    and the voter have no joint strategy within the bound to make the
    coercer know, once the voter has ended, whether the vote `ca_v` was that
    candidate or not."""
    return parse_formula(RECEIPT_FREENESS.format(k=bound), net)


# ---------------------------------------------------------------------------
# Catalog and the regression table

@dataclass
class CaseStudyCatalog:
    networks: dict[str, Network] = field(default_factory=dict)
    strategies: dict = field(default_factory=dict)
    formulas: dict = field(default_factory=dict)


def catalog() -> CaseStudyCatalog:
    """Every bundled model's network, strategies (by name, with the model)
    and formulas (as `model:name`)."""
    cat = CaseStudyCatalog()
    for stem in models():
        bundle = load(stem)
        cat.networks[stem] = bundle.network
        for name, s in bundle.strategies.items():
            cat.strategies[name] = (stem, s)
        for name, f in bundle.formulas.items():
            cat.formulas[f"{stem}:{name}"] = (stem, f)
    return cat


def symbolwise_steps(n: int, m: int) -> int:
    """Closed form for the symbol-by-symbol run: reach the board check, then
    one pass per serial symbol and per preference entry plus the loop exits."""
    return 9 + (2 * n + 1) + (2 * m + 1)


@dataclass(frozen=True)
class Row:
    """One published number and how to recompute it from a bundled model
    (with constant overrides) and one of its strategies:
    - complexity: the strategy's complexity;
    - guard-length: the length of the guard of rule `rule` (1-based);
    - steps: worst-case steps to the goal of `formula`, from the initial
      state with `start` locations;
    - verdict: `formula`'s operator and goal verified with the strategy
      (minus rule `rule`, if given) under `bound` (default: the formula's);
      bound 0 checks them under A on the model with the strategy fixed in.
    """

    kind: str
    name: str
    model: str
    strategy: str
    expected: object
    formula: str = ""
    consts: tuple[tuple[str, int], ...] = ()
    bound: Optional[int] = None
    start: tuple[tuple[str, str], ...] = ()
    rule: Optional[int] = None


_FULL_7_5 = (("n", 7), ("m", 5))
_FROM_BALLOT = (("Voter", "has_ballot"),)

TABLE = (
    Row("complexity", "cast_verify", "voter_base", "cast_verify", 15),
    Row("complexity", "cast_verify_extra_checks", "voter_base",
        "cast_verify_extra_checks", 21),
    Row("complexity", "cast_verify_split_check4", "voter_check4",
        "cast_verify_split_check4", 17),
    Row("complexity", "cast_verify_symbolwise", "voter_full", "cast_verify_symbolwise", 29,
        consts=_FULL_7_5),
    Row("complexity", "punish_disobedient", "coercion_punisher", "punish_disobedient", 16),
    Row("complexity", "infect_replace", "coercion_infector", "infect_replace", 6),
    Row("complexity", "infect_watch_punish", "coercion_watchdog", "infect_watch_punish", 7),
    Row("guard-length", "check2_ok || check2_fail || out", "voter_base", "cast_verify", 5,
        rule=4),
    Row("guard-length", "punish guard of punish_disobedient", "coercion_punisher",
        "punish_disobedient", 10, rule=3),
    Row("guard-length", "true", "voter_base", "cast_verify", 1, rule=9),
    Row("steps", "cast_verify to end (from has_ballot)", "voter_base", "cast_verify", 9,
        formula="reach_end", start=_FROM_BALLOT),
    Row("steps", "cast_verify_extra_checks to end (from has_ballot)", "voter_base",
        "cast_verify_extra_checks", 13, formula="reach_end", start=_FROM_BALLOT),
    Row("steps", "cast_verify_split_check4 to full verification (from start)",
        "voter_check4", "cast_verify_split_check4", 11,
        formula="complete_split_verification"),
    Row("steps", "cast_verify_symbolwise, n=1 m=1", "voter_full", "cast_verify_symbolwise",
        15, formula="complete_symbolwise_verification", consts=(("n", 1), ("m", 1))),
    Row("steps", "cast_verify_symbolwise, n=7 m=5", "voter_full", "cast_verify_symbolwise",
        35, formula="complete_symbolwise_verification", consts=_FULL_7_5),
    Row("verdict", "reach_end with cast_verify, bound 15", "voter_base", "cast_verify",
        True, formula="reach_end"),
    Row("verdict", "reach_end with cast_verify, bound 14", "voter_base", "cast_verify",
        False, formula="reach_end", bound=14),
    Row("verdict", "receipt_checked with cast_verify minus its finish rule, bound 12",
        "voter_base", "cast_verify", True, formula="receipt_checked", rule=8),
    Row("verdict", "reach_end_all_checks with cast_verify_extra_checks, bound 21",
        "voter_base", "cast_verify_extra_checks", True, formula="reach_end_all_checks"),
    Row("verdict", "complete_split_verification with cast_verify_split_check4, bound 17",
        "voter_check4", "cast_verify_split_check4", True,
        formula="complete_split_verification"),
    Row("verdict", "complete_symbolwise_verification with cast_verify_symbolwise, bound 29",
        "voter_full", "cast_verify_symbolwise", True,
        formula="complete_symbolwise_verification", consts=_FULL_7_5),
    Row("verdict", "AF end on the cast_verify-fixed model", "voter_base", "cast_verify",
        True, formula="reach_end", bound=0),
)


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


def _recompute(row: Row, bundle: ParsedBundle, state_cap: int):
    s = bundle.strategies[row.strategy]
    if row.kind == "complexity":
        return complexity(s)
    if row.kind == "guard-length":
        return guard_length(s.rules[row.rule - 1].guard)
    if row.rule is not None:
        s = s.without_rule(row.rule)
    net, f = bundle.network, bundle.formulas[row.formula]
    s_A = {s.agent: s}
    bound = f.bound if row.bound is None else row.bound
    if bound == 0:
        net, s_A = fix_strategy(net, s_A), {}
    goal = f.subs[0].guard
    if row.kind == "steps":
        q = net.state(locations=dict(row.start)) if row.start else None
        return steps_to_goal(net, q, s_A, goal, state_cap=state_cap).value
    return verify_strategic(net, None, list(s_A), bound, f.op, [goal], s_A,
                            state_cap=state_cap).verdict


def run_all(state_cap: int = DEFAULT_STATE_CAP) -> list[TaskResult]:
    """Recompute every row of TABLE from the bundled files, loading each
    model (with its constants) once."""
    bundles: dict[tuple, ParsedBundle] = {}
    results = []
    for row in TABLE:
        key = (row.model, row.consts)
        if key not in bundles:
            bundles[key] = load(row.model, dict(row.consts))
        results.append(TaskResult(row.kind, row.name, row.expected,
                                  _recompute(row, bundles[key], state_cap)))
    return results
