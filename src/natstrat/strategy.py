"""Natural strategies: guarded-command lists, the complexity metric,
first-match rule selection, the mutual-exclusion transformation, and
strategy fixing (pruning a network down to on-strategy behavior)."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Union

from .errors import DefinitionError, StrategyError
from .model import (
    FALSE, TRUE, WAIT_ACTION, And, Comparison, Edge, FalseConst,
    GlobalState, GuardExpr, LocAtom, Network, Not, Or, TrueConst,
    _compiled, and_all, available_actions, explore, map_atoms, nodes, or_all,
)


class _Wildcard:
    """The ⋆ action: any action available to the agent at the matched state."""

    def __repr__(self):
        return "*"

    def __str__(self):
        return "*"


WILDCARD = _Wildcard()
ActionSpec = Union[str, _Wildcard]


@dataclass(frozen=True)
class Rule:
    guard: GuardExpr
    action: ActionSpec

    def __str__(self):
        return f"when {self.guard} do {self.action};"


@dataclass(frozen=True)
class NaturalStrategy:
    """Ordered guarded-command list for one agent.

    Total strategies end in a ⊤-guarded rule and always prescribe something;
    an unavailable final concrete action is an error there. Partial
    strategies (no ⊤ rule, or declared `partial`) may run out of matching
    rules, in which case the agent simply stops acting.
    """

    agent: str
    rules: tuple[Rule, ...]
    name: str = ""
    declared_partial: bool = False

    def __post_init__(self):
        if not self.rules:
            raise DefinitionError("a strategy needs at least one rule")

    @property
    def is_total(self) -> bool:
        return (isinstance(self.rules[-1].guard, TrueConst)
                and not self.declared_partial)

    def without_rule(self, index: int) -> "NaturalStrategy":
        """1-based removal, handy for the 'drop one guarded command' variants."""
        rules = tuple(r for i, r in enumerate(self.rules, start=1) if i != index)
        return replace(self, rules=rules, name=f"{self.name}-r{index}" if self.name else "")


# A collective strategy maps each coalition member to its strategy.
CollectiveStrategy = dict[str, NaturalStrategy]


def collective(*strategies: NaturalStrategy) -> CollectiveStrategy:
    out: CollectiveStrategy = {}
    for s in strategies:
        if s.agent in out:
            raise DefinitionError(f"two strategies for agent {s.agent}")
        out[s.agent] = s
    return out


# ---------------------------------------------------------------------------
# Complexity metric

PAPER_CONVENTION = "paper"
LITERAL_CONVENTION = "literal"


def guard_length(g: GuardExpr, convention: str = PAPER_CONVENTION) -> int:
    """Symbol count of a guard, parentheses excluded.

    Atoms, ⊤ and each !/&&/|| cost 1. Under the default (calibrated)
    convention an atomic comparison like `i == n` also costs 1; the literal
    convention charges 3 (operand, operator, operand)."""
    extra = 0 if convention == PAPER_CONVENTION else 2
    return sum(1 + extra if isinstance(n, Comparison) else 1 for n in nodes(g))


def complexity(s: Union[NaturalStrategy, CollectiveStrategy],
               convention: str = PAPER_CONVENTION) -> int:
    """Sum of guard lengths over all rules; collective = sum over members."""
    if isinstance(s, NaturalStrategy):
        return sum(guard_length(r.guard, convention) for r in s.rules)
    return sum(complexity(member, convention) for member in s.values())


# ---------------------------------------------------------------------------
# Matching

def match_rule(net: Network, q: GlobalState, s: NaturalStrategy) -> Optional[int]:
    """First rule (1-based) whose guard holds at q and whose action is
    available there; the wildcard counts as available whenever any action is.

    Returns None when a partial strategy runs out of rules, or when the agent
    has no available action at all (nothing to prescribe). Raises
    StrategyError when actions exist but a total strategy's final concrete
    action is not among them.
    """
    avail = available_actions(net, q, s.agent)
    return _matcher(net, s)(_compiled(net).encode(net, q), avail)[0]


def _matcher(net: Network, s: NaturalStrategy
             ) -> Callable[[int, set[str]], tuple[Optional[int], set[str]]]:
    """`match_rule` for s as a function of a state's key and the
    agent's available actions there, with the actions the matched rule
    allows (none without a match); each rule's guard is compiled once."""
    comp = _compiled(net)
    rules = [(i, comp.guard(net, r.guard), r.action) for i, r in enumerate(s.rules, start=1)]
    total, name = s.is_total, s.name or s.agent

    def first(key: int, avail: set[str]) -> tuple[Optional[int], set[str]]:
        for i, holds, action in rules:
            if holds(key) and (avail if action is WILDCARD else action in avail):
                return i, avail if action is WILDCARD else {action}
        if avail and total:
            raise StrategyError(
                f"strategy {name}: no rule matches at {comp.decode(key)} "
                f"(final rule's action unavailable)")
        return None, set()
    return first


def strategy_filter(net: Network, s_A: CollectiveStrategy
                    ) -> Callable[[int, Sequence[int]], list[int]]:
    """The move filter of s_A, for `explore`: given a state's key and
    the ids of the moves enabled there, the ids s_A allows, in order. A
    coalition agent takes only its matched rule's action, or any available
    one under the wildcard; others act freely. An agent's rules are matched,
    against the actions it has in those moves, at the first move it takes
    part in (a sync refused for its sender is not checked for its
    receiver)."""
    for agent in s_A:
        net.agent(agent)  # unknown coalition member -> DefinitionError
    moves = _compiled(net).moves
    match = {agent: _matcher(net, s) for agent, s in s_A.items()}
    sides: dict[int, tuple] = {}  # move id -> its coalition actors with their actions

    def keep(key: int, ids: Sequence[int]) -> list[int]:
        avail: dict[str, set[str]] = {}
        for m in ids:
            if m not in sides:
                sides[m] = tuple((a, act) for a, act in zip(moves[m].actors, moves[m].actions)
                                 if a in match)
            for agent, action in sides[m]:
                avail.setdefault(agent, set()).add(action)
        allowed: dict[str, set[str]] = {}
        out = []
        for m in ids:
            for agent, action in sides[m]:
                if agent not in allowed:
                    allowed[agent] = match[agent](key, avail[agent])[1]
                if action not in allowed[agent]:
                    break
            else:
                out.append(m)
        return out
    return keep


def audit_strategy(net: Network, s: NaturalStrategy, graph=None) -> None:
    """Availability audit over the explored state space (`graph`, default
    `explore(net)`): matching must never fail with an error, i.e. wherever
    some rule's guard holds and actions exist, a rule fires."""
    g = graph if graph is not None else explore(net)
    keep = strategy_filter(net, {s.agent: s})
    for i, key in enumerate(g.keys):  # raises StrategyError on a violation
        keep(key, g.move_ids[g.offsets[i]:g.offsets[i + 1]])


# ---------------------------------------------------------------------------
# Guard simplification (used when conjoining strategy guards onto edges)

def _loc_disjuncts(g: GuardExpr, agent: str) -> Optional[list[str]]:
    """If g is a disjunction of location atoms of `agent`, their names in
    order; else None."""
    if isinstance(g, LocAtom) and g.agent == agent:
        return [g.location]
    if isinstance(g, Or):
        left = _loc_disjuncts(g.left, agent)
        right = _loc_disjuncts(g.right, agent)
        if left is not None and right is not None:
            return left + right
    return None


def simplify(g: GuardExpr, agent: Optional[str] = None) -> GuardExpr:
    """Light structural simplification: boolean units, double negation, and
    (when `agent` is given) intersection of that agent's location-atom
    disjunctions, exploiting that an agent occupies exactly one location."""
    if isinstance(g, Not):
        sub = simplify(g.sub, agent)
        if isinstance(sub, TrueConst):
            return FALSE
        if isinstance(sub, FalseConst):
            return TRUE
        if isinstance(sub, Not):
            return sub.sub
        return Not(sub)
    if isinstance(g, And):
        left = simplify(g.left, agent)
        right = simplify(g.right, agent)
        if isinstance(left, FalseConst) or isinstance(right, FalseConst):
            return FALSE
        if isinstance(left, TrueConst):
            return right
        if isinstance(right, TrueConst):
            return left
        if agent is not None:
            ls = _loc_disjuncts(left, agent)
            rs = _loc_disjuncts(right, agent)
            if ls is not None and rs is not None:
                keep = [loc for loc in ls if loc in rs]
                if not keep:
                    return FALSE
                return or_all(LocAtom(agent, loc) for loc in keep)
        if left == right:
            return left
        return And(left, right)
    if isinstance(g, Or):
        left = simplify(g.left, agent)
        right = simplify(g.right, agent)
        if isinstance(left, TrueConst) or isinstance(right, TrueConst):
            return TRUE
        if isinstance(left, FalseConst):
            return right
        if isinstance(right, FalseConst):
            return left
        if left == right:
            return left
        return Or(left, right)
    return g


# ---------------------------------------------------------------------------
# Mutual exclusion and fixing

def specialize_at(g: GuardExpr, agent: str, location: str) -> GuardExpr:
    """Resolve `agent`'s own location atoms assuming it sits at `location`
    (sound on an edge whose source is `location`). Everything else stays."""
    return map_atoms(g, lambda a: a if not (isinstance(a, LocAtom) and a.agent == agent)
                     else TRUE if a.location == location else FALSE)


def make_mutually_exclusive(s: NaturalStrategy) -> NaturalStrategy:
    """Prefix every rule's guard with the negated guards of all previous
    rules; the final ⊤ rule (if any) is kept verbatim. Rule order and actions
    are unchanged.

    It is match-equivalent to the original whenever each earlier rule's
    action is available wherever its guard holds; `firing_exclusive`, the
    variant that also accounts for availability, is what `fix_strategy`
    (and so export) uses."""
    rules = list(s.rules)
    out: list[Rule] = []
    for i, rule in enumerate(rules):
        if i == len(rules) - 1 and isinstance(rule.guard, TrueConst):
            out.append(rule)
            continue
        prefix = [Not(r.guard) for r in rules[:i]]
        out.append(Rule(and_all(prefix + [rule.guard]), rule.action))
    return replace(s, rules=tuple(out),
                   name=f"{s.name}!me" if s.name else "")


def action_availability_guard(net: Network, agent: str, action: ActionSpec) -> GuardExpr:
    """State predicate 'this action is available to the agent': disjunction
    over the action's edges of at(source) ∧ edge guard. The wildcard (and any
    action of a lazy agent's `wait`) is available everywhere."""
    tpl = net.agent(agent)
    if action is WILDCARD or (tpl.lazy and action == WAIT_ACTION):
        return TRUE
    parts = []
    for e in tpl.edges:
        if e.action == action:
            parts.append(simplify(And(LocAtom(agent, e.source), e.guard), agent))
    return simplify(or_all(parts), agent)


def firing_exclusive(net: Network, s: NaturalStrategy) -> NaturalStrategy:
    """Mutual exclusion on firing conditions: rule i gets
    ¬(g_1 ∧ avail_1) ∧ … ∧ ¬(g_{i-1} ∧ avail_{i-1}) ∧ g_i.

    For strategies where availability is implied by the guards this
    simplifies to exactly `make_mutually_exclusive`; in general it is the
    form that preserves first-match semantics (a guard-true rule whose action
    is unavailable is skipped, so its bare negation must not poison later
    rules)."""
    fire = [simplify(And(r.guard, action_availability_guard(net, s.agent, r.action)),
                     s.agent)
            for r in s.rules]
    out: list[Rule] = []
    for i, rule in enumerate(s.rules):
        prefix = [simplify(Not(f), s.agent) for f in fire[:i]]
        guard = simplify(and_all(prefix + [rule.guard]), s.agent)
        out.append(Rule(guard, rule.action))
    return replace(s, rules=tuple(out), name=f"{s.name}!fx" if s.name else "")


def fix_strategy(net: Network, s_A: CollectiveStrategy) -> Network:
    """Conjoin each coalition agent's (availability-aware) mutually exclusive
    rule guards onto its edges: an edge with action α keeps
    guard ∧ ⋁ {exclusive guard of rule i | act_i = α or act_i = ⋆}.

    Off-strategy edges (empty disjunction, or one that simplifies to false)
    are removed. Lazy coalition agents get explicit `wait` self-loops guarded
    the same way, so idling survives exactly where a wait/wildcard rule
    matches. Non-coalition agents are untouched."""
    new_agents = []
    for tpl in net.agents:
        s = s_A.get(tpl.name)
        if s is None:
            new_agents.append(tpl)
            continue
        excl = firing_exclusive(net, s)
        by_action: dict[object, list[GuardExpr]] = {}
        wildcard_guards: list[GuardExpr] = []
        for rule in excl.rules:
            if rule.action is WILDCARD:
                wildcard_guards.append(rule.guard)
            else:
                by_action.setdefault(rule.action, []).append(rule.guard)
        def strategy_guard(action: str) -> GuardExpr:
            parts = by_action.get(action, []) + wildcard_guards
            return simplify(or_all(parts), tpl.name)
        new_edges = []
        for e in tpl.edges:
            extra = strategy_guard(e.action)
            guard = simplify(And(e.guard, extra), tpl.name)
            if isinstance(guard, FalseConst):
                continue
            # edges whose guard is false at their own source can never fire
            dead_check = simplify(specialize_at(guard, tpl.name, e.source),
                                  tpl.name)
            if isinstance(dead_check, FalseConst):
                continue
            new_edges.append(replace(e, guard=guard))
        if tpl.lazy:
            wait_guard = strategy_guard(WAIT_ACTION)
            for loc in tpl.locations:
                if isinstance(simplify(specialize_at(wait_guard, tpl.name, loc),
                                       tpl.name), FalseConst):
                    continue
                guard = simplify(And(LocAtom(tpl.name, loc), wait_guard), tpl.name)
                new_edges.append(Edge(source=loc, target=loc, action=WAIT_ACTION,
                                      guard=guard))
        new_agents.append(replace(tpl, edges=tuple(new_edges), lazy=False))
    for agent in s_A:
        net.agent(agent)  # unknown coalition member -> DefinitionError
    return replace(net, agents=tuple(new_agents))
