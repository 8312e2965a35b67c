"""Four earlier forms of bounded synthesis, kept as oracles.

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
of `wins` and of `outcome.restrict`.

The decision on masks that synthesis used before it pruned by the
coalition's perfect-information winning region: one pass over the stored
groups from the start, with no region. It is the oracle of `wins`, and the
unpruned search decides behaviours with it.

`vocabulary` builds a coalition's atoms from the rule that
`checker.default_vocabulary` states, for oracles that must not take them
from the code they check."""

import itertools
from collections import deque
from typing import Collection, Iterator, Optional, Sequence

from natstrat.checker import _canonical, label_universal
from natstrat.dsl import print_strategy
from natstrat.model import (
    WAIT_ACTION, And, Comparison, GuardExpr, LocAtom, Network, Not, Or, TrueConst, VarAtom,
)
from natstrat.strategy import WILDCARD, CollectiveStrategy, NaturalStrategy, Rule, complexity


def vocabulary(net: Network, members: Collection[str]) -> list[GuardExpr]:
    """The coalition's atoms, as `checker.default_vocabulary`'s docstring
    states the rule, for the members taken in name order: each member's
    location atoms, named Agent@loc where another member has the same
    location, then the comparison and 0/1-variable atoms of its edge
    guards, left to right. Of two atoms with the same printed text, the
    first is kept."""
    def atoms(g: GuardExpr) -> Iterator[GuardExpr]:
        if isinstance(g, (Comparison, VarAtom)):
            yield g
        elif isinstance(g, Not):
            yield from atoms(g.sub)
        elif isinstance(g, (And, Or)):
            yield from atoms(g.left)
            yield from atoms(g.right)

    names = sorted(members)
    out: dict[str, GuardExpr] = {}
    for agent in names:
        tpl = net.agent(agent)
        others = {loc for a in names if a != agent for loc in net.agent(a).locations}
        found = [LocAtom(agent, loc, qualified=loc in others) for loc in tpl.locations]
        found += [g for e in tpl.edges for g in atoms(e.guard)]
        for g in found:
            out.setdefault(str(g), g)
    return list(out.values())


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


def wins(space, start: int, behaviour, op: str, goals: Sequence[set[int]]) -> bool:
    """Whether a candidate with this behaviour wins op(goals) from `start`
    over the space's groups: one pass over the reachable states, in
    discovery order, returns False at the first state where matching fails,
    and for G at the first state outside the goal; X, F and U then label
    the successor sets of the visited states."""
    groups = space.groups
    safe = goals[0] if op == "G" else None
    succ: dict[int, set[int]] = {start: set()}  # visited state -> its successors
    todo = [start]  # the visited states, in discovery order
    for i in todo:
        if safe is not None and i not in safe:
            return False
        bit, out = 1 << i, succ[i]
        for checks, targets in groups[i]:
            for m, act in checks:
                allowed, err = behaviour[m]
                if err & bit:
                    return False
                if not allowed[act] & bit:
                    break
            else:
                out.update(targets)
        for j in out:
            if j not in succ:
                succ[j] = set()
                todo.append(j)
    if safe is not None:
        return True
    lists: list[Collection[int]] = [()] * space.graph.n_states
    for i, out in succ.items():
        lists[i] = out
    return start in label_universal(lists, op, goals)


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
    prefixes were skipped and behaviours pruned by the winning region: every
    first-seen behaviour in the unpruned order is decided by this module's
    `wins`. Past the cap: (None, the error's text, its
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
        if wins(space, start, state[0], op, subgoals):
            s_A = space.strategy(state[3])
            return (True, f"witness of complexity {complexity(s_A)}",
                    position, len(decided),
                    [print_strategy(s) for _, s in sorted(s_A.items())])
    return False, "exhaustive enumeration", position, len(decided), None


def choices(space) -> list[list[set[int]]]:
    """Per state, the successor set of each perfect-information choice of
    the space's coalition, over its `stored_moves`: a choice gives each
    member with a stored move at the state one of its actions there, and
    keeps the non-idle moves whose coalition actors all take their chosen
    action."""
    out = []
    for moves in stored_moves(space):
        acts: dict[int, set[int]] = {}
        for _, _, checks in moves:
            for m, act in checks:
                acts.setdefault(m, set()).add(act)
        members = sorted(acts)
        out.append([{target for target, idle, checks in moves
                     if not idle and all(chosen[m] == act for m, act in checks)}
                    for combo in itertools.product(*(sorted(acts[m]) for m in members))
                    for chosen in [dict(zip(members, combo))]])
    return out


def choice_function_wins(options: list[list[set[int]]], start: int, op: str,
                         goals: Sequence[set[int]], budget: int = 20_000) -> Optional[bool]:
    """Whether some memoryless choice function (one of `options[i]` at each
    state i) wins op(goals) from `start`, op being F, G or U: for G, every
    state it reaches is in the goal; for F and U, every maximal path
    reaches the goal, and for U every state before it is in f. The search
    fixes a state's choice when a path from `start` (for F and U, one that
    avoids the goal) first needs it, and stops a branch as soon as it has
    lost. None when it would try more than `budget` partial choice
    functions."""
    goal = goals[-1] if op in ("F", "U") else ()
    tried = 0

    def search(fixed: dict[int, int]) -> Optional[bool]:
        nonlocal tried
        tried += 1
        if tried > budget:
            return None
        seen, todo = {start}, [start]
        for i in todo:
            if i in goal:
                continue
            if op in ("G", "U") and i not in goals[0]:
                return False
            if i not in fixed:
                for c in range(len(options[i])):
                    got = search({**fixed, i: c})
                    if got is not False:  # a win, or the budget ran out
                        return got
                return False
            succ = options[i][fixed[i]]
            if op != "G" and not succ:
                return False  # a maximal path ends before the goal
            for j in succ:
                if j not in seen:
                    seen.add(j)
                    todo.append(j)
        if op == "G":
            return True
        # the reached states before the goal must admit no cycle
        before = [i for i in todo if i not in goal]
        indegree = dict.fromkeys(before, 0)
        for i in before:
            for j in options[i][fixed[i]]:
                if j in indegree:
                    indegree[j] += 1
        ready = [i for i in before if not indegree[i]]
        for i in ready:
            for j in options[i][fixed[i]]:
                if j in indegree:
                    indegree[j] -= 1
                    if not indegree[j]:
                        ready.append(j)
        return len(ready) == len(before)

    return search({})
