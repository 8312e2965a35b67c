"""Three earlier forms of bounded synthesis, kept as oracles.

The eager candidate enumeration that synthesis used before it became a lazy
depth-first search: every candidate of a complexity level is built, then
the level is sorted by (rule count, text). It is the oracle of canonical
order.

The lazy search that synthesis used before it skipped dominated prefixes:
`checker._canonical` with no key, deciding the first candidate of each
behaviour. It is the oracle of the dominance memo.

The behaviour walk that synthesis used before it decided each behaviour on
masks (`checker._Behaviours.wins`): it builds the restricted successor
lists and error states in full, to be labelled afterwards. It is the oracle
of `wins` and of `outcome.restrict`."""

import itertools
from collections import deque
from typing import Iterator, Optional, Sequence

from natstrat.checker import _canonical
from natstrat.dsl import print_strategy
from natstrat.model import WAIT_ACTION, And, GuardExpr, Network, Not, Or, TrueConst
from natstrat.strategy import WILDCARD, CollectiveStrategy, NaturalStrategy, Rule, complexity


def guards_of_cost(vocab: Sequence[GuardExpr], cost: int, memo: dict) -> list[GuardExpr]:
    """All guards of exactly `cost` symbols over the vocabulary: atoms cost 1,
    negation adds 1, each binary connective adds 1. Deduplicated by printed
    form; double negation skipped, and a chain of `&&` or `||` built
    left-nested only, as it prints and parses."""
    if cost in memo:
        return memo[cost]
    out: list[GuardExpr] = []
    seen: set[str] = set()
    if cost == 1:
        for atom in vocab:
            txt = str(atom)
            if txt not in seen:
                seen.add(txt)
                out.append(atom)
    elif cost >= 2:
        for sub in guards_of_cost(vocab, cost - 1, memo):
            if not isinstance(sub, Not):
                g = Not(sub)
                txt = str(g)
                if txt not in seen:
                    seen.add(txt)
                    out.append(g)
        for lc in range(1, cost - 1):
            rc = cost - 1 - lc
            for left in guards_of_cost(vocab, lc, memo):
                for right in guards_of_cost(vocab, rc, memo):
                    for ctor in (And, Or):
                        if isinstance(right, ctor):
                            continue
                        g = ctor(left, right)
                        txt = str(g)
                        if txt not in seen:
                            seen.add(txt)
                            out.append(g)
    memo[cost] = out
    return out


def agent_strategies(net: Network, agent: str, budget: int,
                     vocab: Sequence[GuardExpr]) -> Iterator[NaturalStrategy]:
    """Strategies for one agent of total complexity exactly `budget`:
    a prefix of guarded rules (guards over `vocab`, total cost budget-1)
    followed by the mandatory ⊤ rule."""
    tpl = net.agent(agent)
    actions: list = sorted({e.action for e in tpl.edges})
    if tpl.lazy:
        actions.append(WAIT_ACTION)
        actions.sort()
    action_specs: list = actions + [WILDCARD]
    memo: dict = {}
    prefix_budget = budget - 1
    if prefix_budget < 0:
        return

    def cost_splits(total: int) -> Iterator[tuple[int, ...]]:
        if total == 0:
            yield ()
            return
        for first in range(1, total + 1):
            for rest in cost_splits(total - first):
                yield (first,) + rest

    for split in cost_splits(prefix_budget):
        guard_pools = [guards_of_cost(vocab, c, memo) for c in split]
        for guards in itertools.product(*guard_pools):
            for acts in itertools.product(action_specs, repeat=len(split)):
                for last in action_specs:
                    rules = tuple(Rule(g, a) for g, a in zip(guards, acts))
                    rules += (Rule(TrueConst(), last),)
                    yield NaturalStrategy(agent=agent, rules=rules)


def splits(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in splits(total - first, parts - 1):
            yield (first,) + rest


def strategy_text(c: CollectiveStrategy) -> str:
    # '~' sorts after alphanumerics, so wildcard rules come after concrete
    # actions among candidates of equal complexity and rule count
    return " | ".join(
        f"{a}: " + " ".join(str(r) for r in s.rules)
        for a, s in sorted(c.items())).replace("do *;", "do ~;")


def candidates(net: Network, coalition: Sequence[str], k: int,
               vocab: Sequence[GuardExpr]) -> Iterator[CollectiveStrategy]:
    """Collective strategies of complexity up to k in canonical order
    (complexity, rule count, text), each level built and sorted in full."""
    for total in range(len(coalition), k + 1):
        level = [{s.agent: s for s in combo}
                 for split in splits(total, len(coalition))
                 for combo in itertools.product(*[agent_strategies(net, a, b, vocab)
                                                  for a, b in zip(coalition, split)])]
        level.sort(key=lambda c: (sum(len(s.rules) for s in c.values()),
                                  strategy_text(c)))
        yield from level


def stored_moves(space) -> list[list[tuple[int, bool, tuple]]]:
    """Each state's stored moves as (target, idle, checks), checks pairing
    each coalition actor of the move, in actor order, with its action's
    index in the space's `acts`."""
    graph = space.graph
    member = {a: m for m, a in enumerate(space.agents)}
    index = [{a: j for j, a in enumerate(acts)} for acts in space.acts]
    checks = {}
    for m in set(graph.move_ids):
        move = graph.moves[m]
        checks[m] = (graph.idle[m],
                     tuple((member[a], index[member[a]][act])
                           for a, act in zip(move.actors, move.actions) if a in member))
    return [[(graph.targets[e], *checks[graph.move_ids[e]])
             for e in range(graph.offsets[i], graph.offsets[i + 1])]
            for i in range(graph.n_states)]


def walk(moves, start: int, behaviour) -> tuple[list[Sequence[int]], list[int]]:
    """Over a space's `stored_moves`, the part of `outcome.restrict(graph,
    s_A)` reachable from `start` for a candidate s_A with this behaviour:
    the successor lists of the visited states and the visited states where
    matching fails, in breadth-first order over the stored edges, as
    `outcome.outcomes` explores; unvisited states share one empty tuple.
    Stored moves are filtered as `strategy.strategy_filter` does: in actor
    order, the first coalition actor that refuses its action rejects the
    move, and a member's error counts only where one of its moves is
    checked."""
    succ: list[Sequence[int]] = [()] * len(moves)
    errors: list[int] = []
    todo = deque([start])
    seen = {start}
    while todo:
        i = todo.popleft()
        bit = 1 << i
        targets: Optional[list[int]] = []
        for target, idle, checks in moves[i]:
            for m, act in checks:
                allowed, err = behaviour[m]
                if err & bit:
                    targets = None
                    break
                if not allowed[act] & bit:
                    break
            else:
                if not idle:
                    targets.append(target)
            if targets is None:
                break
        if targets is None:
            errors.append(i)
            continue
        succ[i] = sorted(set(targets))
        for j in targets:
            if j not in seen:
                seen.add(j)
                todo.append(j)
    return succ, errors


def first_seen(space, k: int, key=None) -> Iterator[tuple[int, object]]:
    """(position, behaviour) for each behaviour of the space's candidates of
    complexity up to k, at its first canonical position, then (the number
    of candidates, None): `checker._canonical` with no key, or, given the
    space's `key`, with dominated prefixes skipped."""
    seen: set = set()
    position = 0
    for position, state in _canonical(space.options, k, space.extend, space.ROOT, key):
        if state is not None and state[0] not in seen:
            seen.add(state[0])
            yield position, state[0]
    yield position, None


def synthesize(space, start: int, k: int, op: str, subgoals, cap: int) -> tuple:
    """(verdict, reason, candidates enumerated, behaviours checked, witness
    text) of `checker._synthesize` over the space as it was before dominated
    prefixes were skipped: every first-seen behaviour in the unpruned order
    is decided by `wins`. Past the cap: (None, the error's text, its
    `partial`, behaviours checked, None)."""
    if k < len(space.coalition):
        return False, f"bound {k} below coalition size", 0, 0, None
    decided: set = set()
    for position, state in _canonical(space.options, k, space.extend, space.ROOT):
        if position > cap:
            return None, f"synthesis cap {cap} exceeded (verdict unknown)", cap + 1, \
                len(decided), None
        if state is None or state[0] in decided:
            continue
        decided.add(state[0])
        if space.wins(start, state[0], op, subgoals):
            s_A = space.strategy(state[3])
            return (True, f"witness of complexity {complexity(s_A)}",
                    position, len(decided),
                    [print_strategy(s) for _, s in sorted(s_A.items())])
    return False, "exhaustive enumeration", position, len(decided), None
