"""Strategy fixing as natstrat did it before each guard was simplified once:
`firing_exclusive` negates and simplifies every earlier rule's firing
condition again for each later rule, and `fix_strategy` builds and
simplifies an action's strategy guard again at every edge and simplifies
the whole conjunction from its leaves. It is kept, with the `simplify` it
used, as the oracle of `natstrat.strategy`'s `simplify`, `firing_exclusive`
and `fix_strategy`. Its `simplify` keeps each location of an intersection
once, as natstrat's does: without that, `simplify` is not idempotent, and a
guard simplified once is not what simplifying it from its leaves gives."""

from dataclasses import replace
from typing import Optional

from natstrat.model import (
    FALSE, TRUE, WAIT_ACTION, And, Edge, FalseConst, GuardExpr, LocAtom, Network,
    Not, Or, TrueConst, and_all, or_all,
)
from natstrat.strategy import (
    WILDCARD, CollectiveStrategy, NaturalStrategy, Rule, _loc_disjuncts,
    action_availability_guard, specialize_at,
)


def simplify(g: GuardExpr, agent: Optional[str] = None) -> GuardExpr:
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
                keep = list(dict.fromkeys(loc for loc in ls if loc in rs))
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


def firing_exclusive(net: Network, s: NaturalStrategy) -> NaturalStrategy:
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
        net.agent(agent)
    return replace(net, agents=tuple(new_agents))
