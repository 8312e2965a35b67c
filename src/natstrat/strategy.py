"""Natural strategies: guarded-command lists, the complexity metric,
first-match rule selection, the mutual-exclusion transformation, and
strategy fixing (pruning a network down to on-strategy behavior)."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from typing import Callable, Optional, Sequence, Union

from .errors import DefinitionError, StrategyError
from .model import (
    FALSE, TRUE, WAIT_ACTION, And, Comparison, Edge, FalseConst,
    GuardExpr, LocAtom, Network, Not, Or, TrueConst,
    _compiled, and_all, explore, map_atoms, nodes, or_all, var_refs,
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

def _matcher(net: Network, s: NaturalStrategy) -> Callable[[int, set[str]], set[str]]:
    """The actions s allows at a state, given its key and the agent's
    available actions there: the action of the first rule whose guard holds
    and whose action is available, or all of them under the wildcard; none
    when no rule matches, or the agent has no action. Raises StrategyError
    when actions exist but a total strategy's final concrete action is not
    among them. Each rule's guard is compiled once. The one first-match
    rule: `explore`'s successor tables, `strategy_filter` (so `restrict`)
    and `audit_strategy` all match through it."""
    comp = _compiled(net)
    rules = [(comp.guard(net, r.guard), r.action) for r in s.rules]
    total, name = s.is_total, s.name or s.agent

    def allowed(key: int, avail: set[str]) -> set[str]:
        for holds, action in rules:
            if holds(key) and (avail if action is WILDCARD else action in avail):
                return avail if action is WILDCARD else {action}
        if avail and total:
            raise StrategyError(
                f"strategy {name}: no rule matches at {comp.decode(key)} "
                f"(final rule's action unavailable)")
        return set()
    return allowed


def _check_members(net: Network, s_A: CollectiveStrategy) -> None:
    """An unknown coalition member, or a member's strategy written for
    another agent, is a DefinitionError."""
    for agent, s in s_A.items():
        net.agent(agent)
        if s.agent != agent:
            raise DefinitionError(f"strategy {s.name or s.agent} is for {s.agent}, not {agent}")


def strategy_filter(net: Network, s_A: CollectiveStrategy
                    ) -> Callable[[int, Sequence[int]], tuple[int, ...]]:
    """The move filter of s_A: given a state's key and
    the ids of the moves enabled there, the ids s_A allows, in order. A
    coalition agent takes only its matched rule's action, or any available
    one under the wildcard; others act freely. An agent's rules are matched,
    against the actions it has in those moves, at the first move it takes
    part in (a sync refused for its sender is not checked for its
    receiver). An unknown member, or a member's strategy written for
    another agent, is a DefinitionError.

    The filter reads a key only through its members' rule guards, so it
    matches once per distinct (key under their read mask, ids) and keeps
    the result for as long as it lives. A StrategyError is never kept: it
    names the whole state, so each state where matching fails raises its
    own."""
    _check_members(net, s_A)
    comp = _compiled(net)
    moves = comp.moves
    match = {agent: _matcher(net, s) for agent, s in s_A.items()}
    read = comp.read_mask(net, *(r.guard for s in s_A.values() for r in s.rules))
    sides: dict[int, tuple] = {}  # move id -> its coalition actors with their actions
    kept: dict[tuple, tuple[int, ...]] = {}  # (key & read, ids) -> the ids allowed

    def keep(key: int, ids: Sequence[int]) -> tuple[int, ...]:
        memo = (key & read, tuple(ids))
        hit = kept.get(memo)
        if hit is not None:
            return hit
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
                    allowed[agent] = match[agent](key, avail[agent])
                if action not in allowed[agent]:
                    break
            else:
                out.append(m)
        kept[memo] = hit = tuple(out)
        return hit
    return keep


def audit_strategy(net: Network, s: NaturalStrategy, graph=None) -> None:
    """Availability audit over the explored state space (`graph`, default
    `explore(net)`): matching must never fail with an error, i.e. wherever
    some rule's guard holds and actions exist, a rule fires. One
    `strategy_filter` serves every state, so states that agree on the
    fields the rules read and on their moves are matched once."""
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
    disjunctions, exploiting that an agent occupies exactly one location.
    An intersection keeps each location once, so simplifying a simplified
    guard gives it back."""
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
        return _conjoin(simplify(g.left, agent), simplify(g.right, agent), agent)
    if isinstance(g, Or):
        return _disjoin(simplify(g.left, agent), simplify(g.right, agent))
    return g


# `_conjoin` and `_disjoin` are `simplify` of an And / Or given its operands
# simplified, so that a caller can simplify a shared operand once.

def _conjoin(left: GuardExpr, right: GuardExpr, agent: Optional[str]) -> GuardExpr:
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
            keep = list(dict.fromkeys(loc for loc in ls if loc in rs))
            if not keep:
                return FALSE
            return or_all(LocAtom(agent, loc) for loc in keep)
    return left if left == right else And(left, right)


def _disjoin(left: GuardExpr, right: GuardExpr) -> GuardExpr:
    if isinstance(left, TrueConst) or isinstance(right, TrueConst):
        return TRUE
    if isinstance(left, FalseConst):
        return right
    if isinstance(right, FalseConst):
        return left
    return left if left == right else Or(left, right)


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
    agent = s.agent
    fire = [simplify(And(r.guard, action_availability_guard(net, agent, r.action)), agent)
            for r in s.rules]
    out: list[Rule] = []
    before = None  # simplify(and_all(Not(f) for each earlier rule's f))
    for rule, f in zip(s.rules, fire):
        guard = simplify(rule.guard, agent)
        out.append(Rule(guard if before is None else _conjoin(before, guard, agent),
                        rule.action))
        unfired = simplify(Not(f), agent)
        before = unfired if before is None else _conjoin(before, unfired, agent)
    return replace(s, rules=tuple(out), name=f"{s.name}!fx" if s.name else "")


def fix_strategy(net: Network, s_A: CollectiveStrategy) -> Network:
    """Conjoin each coalition agent's (availability-aware) mutually exclusive
    rule guards onto its edges: an edge with action α keeps
    guard ∧ ⋁ {exclusive guard of rule i | act_i = α or act_i = ⋆}.

    Off-strategy edges (empty disjunction, or one that simplifies to false)
    are removed. Lazy coalition agents get explicit `wait` self-loops guarded
    the same way, so idling survives exactly where a wait/wildcard rule
    matches. Non-coalition agents are untouched.

    The new edge guards are built from the network's own guards, which it
    validated, and the rule guards, whose variable references are checked
    here: a rule guard naming an undeclared variable is a DefinitionError."""
    _check_members(net, s_A)
    for agent, s in s_A.items():
        for rule in s.rules:
            for ref in var_refs(rule.guard):
                net._check_ref(ref, net._constants, net.agent(agent))
    new_agents = []
    for tpl in net.agents:
        s, agent = s_A.get(tpl.name), tpl.name
        if s is None:
            new_agents.append(tpl)
            continue
        # firing_exclusive's guards are simplified, and so is what _disjoin
        # and _conjoin make of simplified operands
        by_action: dict[object, list[GuardExpr]] = {}
        wildcard_guards: list[GuardExpr] = []
        for rule in firing_exclusive(net, s).rules:
            if rule.action is WILDCARD:
                wildcard_guards.append(rule.guard)
            else:
                by_action.setdefault(rule.action, []).append(rule.guard)
        guards: dict[str, GuardExpr] = {}

        def strategy_guard(action: str) -> GuardExpr:
            # simplify(or_all(guards of the rules allowing action))
            if action not in guards:
                parts = by_action.get(action, []) + wildcard_guards
                guards[action] = reduce(_disjoin, parts) if parts else FALSE
            return guards[action]
        new_edges = []
        for e in tpl.edges:
            guard = _conjoin(simplify(e.guard, agent), strategy_guard(e.action), agent)
            if isinstance(guard, FalseConst):
                continue
            # edges whose guard is false at their own source can never fire
            if isinstance(simplify(specialize_at(guard, agent, e.source), agent), FalseConst):
                continue
            new_edges.append(replace(e, guard=guard))
        if tpl.lazy:
            wait_guard = strategy_guard(WAIT_ACTION)
            for loc in tpl.locations:
                if isinstance(simplify(specialize_at(wait_guard, agent, loc), agent),
                              FalseConst):
                    continue
                guard = _conjoin(LocAtom(agent, loc), wait_guard, agent)
                new_edges.append(Edge(source=loc, target=loc, action=WAIT_ACTION,
                                      guard=guard))
        new_agents.append(replace(tpl, edges=tuple(new_edges), lazy=False))
    return net._with_agents(tuple(new_agents))
