"""Networks of guarded automata: guard expressions, agent templates,
interleaving composition with binary channel synchronization, and
explicit-state exploration.

A network is a set of agent templates (one instance each). A global state is
the tuple of current locations plus a valuation of all bounded-integer
variables. Moves are either internal (one agent fires a non-sync edge) or
synchronized (a matching send/receive pair on a channel, fired jointly).
All operations here are pure; built networks and state graphs are immutable
and safe to share.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Union

from .errors import BoundViolationError, DefinitionError, ResourceLimitError

WAIT_ACTION = "wait"

# ---------------------------------------------------------------------------
# Guard expressions

CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class VarRef:
    """Reference to a variable, resolved to its owner (None = global)."""

    owner: Optional[str]
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class TrueConst:
    def __str__(self):
        return "true"


@dataclass(frozen=True)
class FalseConst:
    def __str__(self):
        return "false"


@dataclass(frozen=True)
class LocAtom:
    """Location predicate: agent is currently at `location`."""

    agent: str
    location: str
    qualified: bool = False  # printed as Agent@loc when True

    def __str__(self):
        if self.qualified:
            return f"{self.agent}@{self.location}"
        return self.location


@dataclass(frozen=True)
class VarAtom:
    """Boolean view of a 0/1 variable: true iff value != 0."""

    var: VarRef

    def __str__(self):
        return self.var.name


@dataclass(frozen=True)
class Comparison:
    lhs: VarRef
    op: str
    rhs: Union[int, VarRef]

    def __str__(self):
        return f"{self.lhs} {self.op} {self.rhs}"


@dataclass(frozen=True)
class Not:
    sub: "GuardExpr"

    def __str__(self):
        if isinstance(self.sub, (And, Or, Comparison)):
            return f"!({self.sub})"
        return f"!{self.sub}"


@dataclass(frozen=True)
class And:
    left: "GuardExpr"
    right: "GuardExpr"

    def __str__(self):
        parts = []
        for side in (self.left, self.right):
            if isinstance(side, Or):
                parts.append(f"({side})")
            else:
                parts.append(str(side))
        return " && ".join(parts)


@dataclass(frozen=True)
class Or:
    left: "GuardExpr"
    right: "GuardExpr"

    def __str__(self):
        return f"{self.left} || {self.right}"


GuardExpr = Union[TrueConst, FalseConst, LocAtom, VarAtom, Comparison, Not, And, Or]

TRUE = TrueConst()
FALSE = FalseConst()


def and_all(guards: Iterable[GuardExpr]) -> GuardExpr:
    out = None
    for g in guards:
        out = g if out is None else And(out, g)
    return TRUE if out is None else out


def or_all(guards: Iterable[GuardExpr]) -> GuardExpr:
    out = None
    for g in guards:
        out = g if out is None else Or(out, g)
    return FALSE if out is None else out


# ---------------------------------------------------------------------------
# Integer update expressions

@dataclass(frozen=True)
class IntLit:
    value: int

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True)
class IntVar:
    var: VarRef

    def __str__(self):
        return self.var.name


@dataclass(frozen=True)
class IntBin:
    op: str  # '+' or '-'
    left: "IntExpr"
    right: "IntExpr"

    def __str__(self):
        return f"{self.left} {self.op} {self.right}"


IntExpr = Union[IntLit, IntVar, IntBin]


@dataclass(frozen=True)
class Assignment:
    target: VarRef
    expr: IntExpr

    def __str__(self):
        return f"{self.target} := {self.expr}"


# ---------------------------------------------------------------------------
# Structure

@dataclass(frozen=True)
class VarDecl:
    name: str
    lo: int
    hi: int
    init: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise DefinitionError(f"variable {self.name}: empty domain [{self.lo},{self.hi}]")
        if not self.lo <= self.init <= self.hi:
            raise DefinitionError(
                f"variable {self.name}: initial value {self.init} outside [{self.lo},{self.hi}]")


@dataclass(frozen=True)
class Edge:
    source: str
    target: str
    action: str
    guard: GuardExpr = TRUE
    sync: Optional[tuple[str, str]] = None  # (channel, '!' or '?')
    updates: tuple[Assignment, ...] = ()


@dataclass(frozen=True)
class AgentTemplate:
    name: str
    locations: tuple[str, ...]
    initial: str
    local_vars: tuple[VarDecl, ...] = ()
    edges: tuple[Edge, ...] = ()
    lazy: bool = False
    # extra atom labels a location carries besides its own name
    atom_labels: tuple[tuple[str, str], ...] = ()  # (label, location)
    formal_constants: tuple[str, ...] = ()

    def atoms_of(self, location: str) -> tuple[str, ...]:
        extra = tuple(lbl for lbl, loc in self.atom_labels if loc == location)
        return (location,) + extra


@dataclass(frozen=True)
class Network:
    name: str
    agents: tuple[AgentTemplate, ...]
    global_vars: tuple[VarDecl, ...] = ()
    channels: tuple[str, ...] = ()
    constants: tuple[tuple[str, int], ...] = ()

    # -- derived lookups (computed once, cached via object.__setattr__) ----
    def __post_init__(self):
        object.__setattr__(self, "_agent_index", {a.name: i for i, a in enumerate(self.agents)})
        order: list[tuple[Optional[str], VarDecl]] = [(None, v) for v in self.global_vars]
        for a in self.agents:
            order.extend((a.name, v) for v in a.local_vars)
        object.__setattr__(self, "_var_order", tuple(order))
        object.__setattr__(
            self, "_var_index",
            {(owner, v.name): i for i, (owner, v) in enumerate(order)})
        by_src: dict[tuple[str, str], list[Edge]] = {}
        for a in self.agents:
            for e in a.edges:
                by_src.setdefault((a.name, e.source), []).append(e)
        object.__setattr__(self, "_edges_from", by_src)
        self._validate()

    def _validate(self):
        if len(self._agent_index) != len(self.agents):
            raise DefinitionError("duplicate agent names")
        seen_vars = {}
        for owner, v in self._var_order:
            key = (owner, v.name)
            if key in seen_vars:
                raise DefinitionError(f"duplicate variable {v.name} (owner {owner})")
            seen_vars[key] = v
        consts = dict(self.constants)
        for a in self.agents:
            locs = set(a.locations)
            if len(locs) != len(a.locations):
                raise DefinitionError(f"agent {a.name}: duplicate location names")
            if a.initial not in locs:
                raise DefinitionError(f"agent {a.name}: initial location {a.initial} undeclared")
            for e in a.edges:
                if e.source not in locs or e.target not in locs:
                    raise DefinitionError(
                        f"agent {a.name}: edge {e.source}->{e.target} uses undeclared location")
                if e.sync is not None and e.sync[0] not in self.channels:
                    raise DefinitionError(
                        f"agent {a.name}: sync on undeclared channel {e.sync[0]}")
                if a.lazy and e.action == WAIT_ACTION and e.source != e.target:
                    raise DefinitionError(
                        f"agent {a.name}: action '{WAIT_ACTION}' is reserved for lazy idling")
                for ref in guard_var_refs(e.guard):
                    self._check_ref(ref, consts, a)
                for asg in e.updates:
                    self._check_ref(asg.target, consts, a, writing=True)
                    for ref in int_expr_refs(asg.expr):
                        self._check_ref(ref, consts, a)

    def _check_ref(self, ref: VarRef, consts, agent: AgentTemplate, writing=False):
        if ref.owner is None and ref.name in consts:
            if writing:
                raise DefinitionError(f"cannot assign to constant {ref.name}")
            return
        if (ref.owner, ref.name) not in self._var_index:
            raise DefinitionError(
                f"agent {agent.name}: unresolved variable reference {ref.name}")
        if writing and ref.owner is not None and ref.owner != agent.name:
            raise DefinitionError(
                f"agent {agent.name} cannot write local variable of {ref.owner}")

    # -- accessors ----------------------------------------------------------
    def agent(self, name: str) -> AgentTemplate:
        try:
            return self.agents[self._agent_index[name]]
        except KeyError:
            raise DefinitionError(f"unknown agent {name}") from None

    def agent_pos(self, name: str) -> int:
        try:
            return self._agent_index[name]
        except KeyError:
            raise DefinitionError(f"unknown agent {name}") from None

    def var_pos(self, owner: Optional[str], name: str) -> int:
        try:
            return self._var_index[(owner, name)]
        except KeyError:
            raise DefinitionError(f"unknown variable {name} (owner {owner})") from None

    def var_decls(self) -> tuple[tuple[Optional[str], VarDecl], ...]:
        return self._var_order

    def constant(self, name: str) -> int:
        for n, v in self.constants:
            if n == name:
                return v
        raise DefinitionError(f"unknown constant {name}")

    def initial_state(self) -> "GlobalState":
        return GlobalState(
            locations=tuple(a.initial for a in self.agents),
            values=tuple(v.init for _, v in self._var_order))

    def state(self, locations: Optional[dict[str, str]] = None,
              values: Optional[dict[str, int]] = None) -> "GlobalState":
        """Build a state from the initial one with selected overrides."""
        q = self.initial_state()
        locs = list(q.locations)
        vals = list(q.values)
        for agent, loc in (locations or {}).items():
            tpl = self.agent(agent)
            if loc not in tpl.locations:
                raise DefinitionError(f"agent {agent}: no location {loc}")
            locs[self.agent_pos(agent)] = loc
        for name, value in (values or {}).items():
            vals[self._resolve_bare_var(name)] = value
        return GlobalState(tuple(locs), tuple(vals))

    def _resolve_bare_var(self, name: str) -> int:
        matches = [i for (owner, n), i in self._var_index.items() if n == name]
        if not matches:
            raise DefinitionError(f"unknown variable {name}")
        if len(matches) > 1:
            raise DefinitionError(f"ambiguous variable name {name}")
        return matches[0]

    def edges_from(self, agent: str, location: str) -> tuple[Edge, ...]:
        return tuple(self._edges_from.get((agent, location), ()))


@dataclass(frozen=True)
class GlobalState:
    locations: tuple[str, ...]
    values: tuple[int, ...]

    def location_of(self, net: Network, agent: str) -> str:
        return self.locations[net.agent_pos(agent)]

    def value_of(self, net: Network, owner: Optional[str], name: str) -> int:
        return self.values[net.var_pos(owner, name)]


# ---------------------------------------------------------------------------
# Moves

@dataclass(frozen=True)
class Internal:
    agent: str
    edge: Edge

    @property
    def actors(self) -> tuple[str, ...]:
        return (self.agent,)

    @property
    def actions(self) -> tuple[str, ...]:
        """The action each actor takes, in the order of `actors`."""
        return (self.edge.action,)

    @property
    def is_idle(self) -> bool:
        return (self.edge.action == WAIT_ACTION and self.edge.source == self.edge.target
                and not self.edge.updates)

    def label(self) -> str:
        return f"{self.agent}.{self.edge.action}"


@dataclass(frozen=True)
class Synchronized:
    sender: str
    send_edge: Edge
    receiver: str
    recv_edge: Edge
    channel: str

    @property
    def actors(self) -> tuple[str, ...]:
        return (self.sender, self.receiver)

    @property
    def actions(self) -> tuple[str, ...]:
        return (self.send_edge.action, self.recv_edge.action)

    @property
    def is_idle(self) -> bool:
        return False

    def label(self) -> str:
        return (f"{self.sender}.{self.send_edge.action}!{self.channel} / "
                f"{self.receiver}.{self.recv_edge.action}")


Move = Union[Internal, Synchronized]


def _wait_edge(location: str) -> Edge:
    return Edge(source=location, target=location, action=WAIT_ACTION)


# ---------------------------------------------------------------------------
# Guard evaluation

def guard_var_refs(g: GuardExpr) -> Iterator[VarRef]:
    if isinstance(g, VarAtom):
        yield g.var
    elif isinstance(g, Comparison):
        yield g.lhs
        if isinstance(g.rhs, VarRef):
            yield g.rhs
    elif isinstance(g, Not):
        yield from guard_var_refs(g.sub)
    elif isinstance(g, (And, Or)):
        yield from guard_var_refs(g.left)
        yield from guard_var_refs(g.right)


def guard_loc_atoms(g: GuardExpr) -> Iterator[LocAtom]:
    if isinstance(g, LocAtom):
        yield g
    elif isinstance(g, Not):
        yield from guard_loc_atoms(g.sub)
    elif isinstance(g, (And, Or)):
        yield from guard_loc_atoms(g.left)
        yield from guard_loc_atoms(g.right)


def int_expr_refs(e: IntExpr) -> Iterator[VarRef]:
    if isinstance(e, IntVar):
        yield e.var
    elif isinstance(e, IntBin):
        yield from int_expr_refs(e.left)
        yield from int_expr_refs(e.right)


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


_CMP = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


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


# ---------------------------------------------------------------------------
# Transition relation

def enabled_moves(net: Network, q: GlobalState) -> list[Move]:
    """All moves enabled at q: internal edges with true guards (plus the
    implicit `wait` self-loop of lazy agents), and every send/receive pair
    on a common channel between distinct agents."""
    moves: list[Move] = []
    senders: dict[str, list[tuple[str, Edge]]] = {}
    receivers: dict[str, list[tuple[str, Edge]]] = {}
    for pos, agent in enumerate(net.agents):
        loc = q.locations[pos]
        for e in net.edges_from(agent.name, loc):
            if not eval_guard(e.guard, q, net):
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


def available_actions(net: Network, q: GlobalState, agent: str) -> set[str]:
    """Action labels the agent can take at q; an agent's side of an enabled
    synchronized move counts, and lazy agents can always `wait`."""
    net.agent(agent)  # raises DefinitionError on unknown agents
    return {action for move in enabled_moves(net, q)
            for actor, action in zip(move.actors, move.actions) if actor == agent}


# ---------------------------------------------------------------------------
# Exploration

@dataclass(frozen=True)
class Transition:
    source: int
    move: Move
    target: int


@dataclass
class StateGraph:
    """Reachable fragment of the global transition relation.

    States are indexed in BFS discovery order (deterministic for a given
    network), transitions keep their full move labels. `wait` self-loops are
    included; path-level analyses read `succ`, which drops them.
    """

    net: Network
    states: list[GlobalState]
    transitions: list[Transition]
    initial: int = 0

    def __post_init__(self):
        self._index = {q: i for i, q in enumerate(self.states)}
        out: list[list[Transition]] = [[] for _ in self.states]
        for t in self.transitions:
            out[t.source].append(t)
        self._out = out

    def index_of(self, q: GlobalState) -> int:
        return self._index[q]

    def __contains__(self, q: GlobalState) -> bool:
        return q in self._index

    def out_edges(self, i: int) -> list[Transition]:
        return self._out[i]

    @cached_property
    def succ(self) -> list[list[int]]:
        """The distinct productive (non-idle) successors of each state, in
        index order."""
        return [sorted({t.target for t in outs if not t.move.is_idle})
                for outs in self._out]

    def satisfying(self, guard: GuardExpr) -> set[int]:
        return {i for i, q in enumerate(self.states)
                if eval_guard(guard, q, self.net)}

    @property
    def n_states(self) -> int:
        return len(self.states)


DEFAULT_STATE_CAP = 200_000


def explore(net: Network, start: Optional[GlobalState] = None,
            state_cap: int = DEFAULT_STATE_CAP,
            move_filter=None) -> StateGraph:
    """BFS over enabledMoves/applyMove from `start` (default: initial state).

    `move_filter(q, moves)`, called once per state with the moves enabled
    there, returns the ones to keep; it is how strategy-constrained outcome
    graphs are built without materializing a pruned network. Raises
    ResourceLimitError past `state_cap` states.
    """
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
    return StateGraph(net=net, states=states, transitions=transitions, initial=0)
