"""The semantics that natstrat used before networks were compiled, over
`GlobalState`s: guards and updates are evaluated over their syntax trees at
every state, constants are looked up by a linear scan, and every enabled
edge makes a fresh move object. Strategies are matched by interpreting
their rules' guards at a decoded state, and an agent's observation is read
off its location name and values. It is kept as the oracle of
`natstrat.model`'s `explore` (the moves it stores at each state, in order,
and their targets) and `eval_guard`, of `natstrat.strategy`'s
`strategy_filter`, of `natstrat.outcome`'s `outcomes` and `restrict`, and
of the knowledge classes of `natstrat.checker`. Its `explore` takes the
per-state form of a strategy, a `move_filter` such as `allowed_moves`,
against which natstrat's `explore` under a strategy, matched once per
projection of a state, is compared. Its `enabled_moves`,
`apply_move`, `available_actions` and `match_rule` are the reference for
what natstrat computes on state keys and no longer offers per
`GlobalState`."""

import itertools
import operator
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from natstrat.errors import BoundViolationError, ResourceLimitError, StrategyError
from natstrat.model import (
    DEFAULT_STATE_CAP, WAIT_ACTION, And, Assignment, Comparison, Edge, FalseConst,
    GlobalState, GuardExpr, IntBin, IntExpr, IntLit, IntVar, Internal, LocAtom,
    Move, Network, Not, Or, Synchronized, Transition, TrueConst, VarAtom, VarRef,
)
from natstrat.strategy import WILDCARD, CollectiveStrategy, NaturalStrategy


def _wait_edge(location: str) -> Edge:
    return Edge(source=location, target=location, action=WAIT_ACTION)


def _ref_value(net: Network, q: GlobalState, ref: VarRef) -> int:
    if ref.owner is None:
        for n, v in net.constants:
            if n == ref.name:
                return v
    return q.values[net.var_pos(ref.owner, ref.name)]


_CMP = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def eval_guard(g: GuardExpr, q: GlobalState, net: Network) -> bool:
    """Standard boolean semantics; total on well-formed guards."""
    if isinstance(g, TrueConst):
        return True
    if isinstance(g, FalseConst):
        return False
    if isinstance(g, LocAtom):
        return q.locations[net.agent_pos(g.agent)] == g.location
    if isinstance(g, VarAtom):
        return _ref_value(net, q, g.var) != 0
    if isinstance(g, Comparison):
        lhs = _ref_value(net, q, g.lhs)
        rhs = g.rhs if isinstance(g.rhs, int) else _ref_value(net, q, g.rhs)
        return _CMP[g.op](lhs, rhs)
    if isinstance(g, Not):
        return not eval_guard(g.sub, q, net)
    if isinstance(g, And):
        return eval_guard(g.left, q, net) and eval_guard(g.right, q, net)
    if isinstance(g, Or):
        return eval_guard(g.left, q, net) or eval_guard(g.right, q, net)
    raise TypeError(f"not a guard expression: {g!r}")


def eval_int(net: Network, q: GlobalState, e: IntExpr) -> int:
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, IntVar):
        return _ref_value(net, q, e.var)
    if isinstance(e, IntBin):
        l = eval_int(net, q, e.left)
        r = eval_int(net, q, e.right)
        return l + r if e.op == "+" else l - r
    raise TypeError(f"not an int expression: {e!r}")


def enabled_moves(net: Network, q: GlobalState) -> list[Move]:
    """All moves enabled at q: internal edges with true guards (plus the
    implicit `wait` self-loop of lazy agents), and every send/receive pair
    on a common channel between distinct agents."""
    moves: list[Move] = []
    senders: dict[str, list[tuple[str, Edge]]] = {}
    receivers: dict[str, list[tuple[str, Edge]]] = {}
    for pos, agent in enumerate(net.agents):
        loc = q.locations[pos]
        for e in agent.edges:
            if e.source != loc or not eval_guard(e.guard, q, net):
                continue
            if e.sync is None:
                moves.append(Internal(agent.name, e))
            elif e.sync[1] == "!":
                senders.setdefault(e.sync[0], []).append((agent.name, e))
            else:
                receivers.setdefault(e.sync[0], []).append((agent.name, e))
        if agent.lazy:
            moves.append(Internal(agent.name, _wait_edge(loc)))
    for chan, snd in senders.items():
        for (sa, se), (ra, re) in itertools.product(snd, receivers.get(chan, ())):
            if sa != ra:
                moves.append(Synchronized(sa, se, ra, re, chan))
    return moves


def _apply_updates(net: Network, values: list[int], updates: tuple[Assignment, ...],
                   q_view: GlobalState) -> None:
    # Assignments are evaluated left to right over the progressively updated
    # valuation, mirroring the exported semantics.
    for asg in updates:
        current = GlobalState(q_view.locations, tuple(values))
        val = eval_int(net, current, asg.expr)
        idx = net.var_pos(asg.target.owner, asg.target.name)
        decl = net.var_decls()[idx][1]
        if not decl.lo <= val <= decl.hi:
            raise BoundViolationError(
                f"assignment {asg} yields {val}, outside [{decl.lo},{decl.hi}] "
                f"of variable {decl.name}")
        values[idx] = val


def apply_move(net: Network, q: GlobalState, move: Move) -> GlobalState:
    """Deterministic successor: install target locations, run updates in edge
    order (sender's before receiver's on synchronized moves)."""
    locs = list(q.locations)
    vals = list(q.values)
    if isinstance(move, Internal):
        locs[net.agent_pos(move.agent)] = move.edge.target
        _apply_updates(net, vals, move.edge.updates, q)
    else:
        locs[net.agent_pos(move.sender)] = move.send_edge.target
        locs[net.agent_pos(move.receiver)] = move.recv_edge.target
        _apply_updates(net, vals, move.send_edge.updates, q)
        _apply_updates(net, vals, move.recv_edge.updates, q)
    return GlobalState(tuple(locs), tuple(vals))


@dataclass
class Explored:
    """The reached states in discovery order, and every transition taken.
    Not a tuple: `test_explore` tells an oracle error apart by its being
    one."""

    states: list[GlobalState]
    transitions: list[Transition]


def explore(net: Network, start: Optional[GlobalState] = None,
            state_cap: int = DEFAULT_STATE_CAP,
            move_filter=None) -> Explored:
    """BFS over enabled_moves/apply_move from `start` (default: initial
    state); `move_filter(q, moves)` returns the moves to keep at q. Raises
    ResourceLimitError past `state_cap` states."""
    q0 = net.initial_state() if start is None else start
    states = [q0]
    index = {q0: 0}
    transitions: list[Transition] = []
    queue = deque([0])
    while queue:
        i = queue.popleft()
        q = states[i]
        moves = enabled_moves(net, q)
        for move in moves if move_filter is None else move_filter(q, moves):
            nxt = apply_move(net, q, move)
            j = index.get(nxt)
            if j is None:
                if len(states) >= state_cap:
                    raise ResourceLimitError(
                        f"state cap {state_cap} exceeded", partial=len(states))
                j = len(states)
                index[nxt] = j
                states.append(nxt)
                queue.append(j)
            transitions.append(Transition(i, move, j))
    return Explored(states, transitions)


# ---------------------------------------------------------------------------
# Strategies and knowledge over GlobalStates

def available_actions(net: Network, q: GlobalState, agent: str) -> set[str]:
    net.agent(agent)
    return {action for move in enabled_moves(net, q)
            for actor, action in zip(move.actors, move.actions) if actor == agent}


def first_match(net: Network, q: GlobalState, s: NaturalStrategy,
                avail: set[str]) -> Optional[int]:
    """`match_rule` given the agent's available actions at q."""
    for i, rule in enumerate(s.rules, start=1):
        if not eval_guard(rule.guard, q, net):
            continue
        if rule.action is WILDCARD:
            if avail:
                return i
        elif rule.action in avail:
            return i
    if not avail:
        return None
    if s.is_total:
        raise StrategyError(
            f"strategy {s.name or s.agent}: no rule matches at {q} "
            f"(final rule's action unavailable)")
    return None


def match_rule(net: Network, q: GlobalState, s: NaturalStrategy) -> Optional[int]:
    """First rule (1-based) whose guard holds at q and whose action is
    available there; None when there is none, or no action at all; a
    StrategyError when a total strategy's final action is unavailable."""
    return first_match(net, q, s, available_actions(net, q, s.agent))


def allowed_moves(net: Network, q: GlobalState, moves: Sequence[Move],
                  s_A: CollectiveStrategy) -> list[Move]:
    """The moves enabled at q (`moves`) that s_A allows: a coalition agent
    takes only its matched rule's action, or any available one under the
    wildcard; others act freely. An agent's rules are matched, against the
    actions it has in `moves`, at the first move it takes part in (a sync
    refused for its sender is not checked for its receiver)."""
    for agent in s_A:
        net.agent(agent)
    allowed: dict[str, set[str]] = {}

    def permits(agent: str, action: str) -> bool:
        s = s_A.get(agent)
        if s is None:
            return True
        if agent not in allowed:
            avail = {act for m in moves for a, act in zip(m.actors, m.actions) if a == agent}
            i = first_match(net, q, s, avail)
            rule = s.rules[i - 1] if i is not None else None
            allowed[agent] = (set() if rule is None else
                              avail if rule.action is WILDCARD else {rule.action})
        return action in allowed[agent]

    return [m for m in moves if all(map(permits, m.actors, m.actions))]


def outcomes(net: Network, q: Optional[GlobalState], s_A: CollectiveStrategy,
             state_cap: int = DEFAULT_STATE_CAP) -> Explored:
    """out(q, s_A), explored through `allowed_moves`."""
    return explore(net, start=q, state_cap=state_cap,
                   move_filter=(lambda state, moves: allowed_moves(net, state, moves, s_A))
                   if s_A else None)


def restrict(net: Network, graph: Explored, s_A: CollectiveStrategy,
             start: Optional[int] = None) -> tuple[list[list[int]], dict[int, str]]:
    """The productive successors that s_A keeps at each state of an explored
    graph (every state, or those reachable from `start` under s_A, the
    others getting []) and the text of the StrategyError raised at each
    visited state where matching fails; breadth-first over the stored edges."""
    out_edges: list[list[Transition]] = [[] for _ in graph.states]
    for t in graph.transitions:
        out_edges[t.source].append(t)
    succ: list[list[int]] = [[] for _ in graph.states]
    errors: dict[int, str] = {}
    todo = deque(range(len(graph.states)) if start is None else [start])
    seen = set(todo)
    while todo:
        i = todo.popleft()
        edges = out_edges[i]
        try:
            kept = allowed_moves(net, graph.states[i], [t.move for t in edges], s_A)
        except StrategyError as exc:
            errors[i] = str(exc)
            continue
        keep = {id(m) for m in kept}  # the moves of one state are distinct objects
        targets = [t.target for t in edges if id(t.move) in keep and not t.move.is_idle]
        succ[i] = sorted(set(targets))
        for j in targets:
            if j not in seen:
                seen.add(j)
                todo.append(j)
    return succ, errors


def observation(net: Network, agent: str, q: GlobalState):
    """What `agent` observes in q: its own location, its local variables and
    all global variables."""
    values = tuple(v for (owner, _), v in zip(net.var_decls(), q.values)
                   if owner is None or owner == agent)
    return q.locations[net.agent_pos(agent)], values


def indistinguishability_classes(net: Network, states: Sequence[GlobalState],
                                 agent: str) -> set[frozenset[int]]:
    """The partition of the state indices by the agent's observation."""
    classes: dict = {}
    for i, q in enumerate(states):
        classes.setdefault(observation(net, agent, q), set()).add(i)
    return {frozenset(c) for c in classes.values()}
