"""The transition semantics that exploration used before networks were
compiled: guards and updates are evaluated over their syntax trees at every
state, constants are looked up by a linear scan, and every enabled edge
makes a fresh move object. It is kept as the oracle of `natstrat.model`'s
`explore`, `enabled_moves` and `apply_move`."""

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Optional

from natstrat.errors import BoundViolationError, ResourceLimitError
from natstrat.model import (
    DEFAULT_STATE_CAP, WAIT_ACTION, Assignment, Edge, GlobalState, IntBin,
    IntExpr, IntLit, IntVar, Internal, Move, Network, Synchronized,
    Transition, VarRef, eval_guard,
)


def _wait_edge(location: str) -> Edge:
    return Edge(source=location, target=location, action=WAIT_ACTION)


def _ref_value(net: Network, q: GlobalState, ref: VarRef) -> int:
    if ref.owner is None:
        for n, v in net.constants:
            if n == ref.name:
                return v
    return q.values[net.var_pos(ref.owner, ref.name)]


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
