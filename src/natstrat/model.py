"""Networks of guarded automata: guard expressions, agent templates,
interleaving composition with binary channel synchronization, and
explicit-state exploration.

A network is a set of agent templates (one instance each). A global state is
the tuple of current locations plus a valuation of all bounded-integer
variables. Moves are either internal (one agent fires a non-sync edge) or
synchronized (a matching send/receive pair on a channel, fired jointly).
All operations here are pure; built networks and state graphs are immutable
and safe to share.

A network is compiled on its first use (`_CompiledNetwork`) and keeps that
form: states become flat int tuples, guards and updates closures over them
with constants inlined, and every move one shared object with a dense int
id. `explore`, `enabled_moves`, `apply_move` and `eval_guard` all run on it,
and so does every reader of an explored graph: past exploration a state is
its int tuple, and a `GlobalState` is decoded only to be printed.

An explored `StateGraph` is stored as int columns: the int tuple of each
state with the dict from tuple to index, and the edges as three
`array('i')` columns, `offsets` (one per state, plus one), `targets` and
`move_ids`. No `GlobalState` or `Transition` is kept: `states` and
`transitions` are read-only sequence views that build one per item read,
and `satisfying` and the checker's atoms run the compiled guards over the
int tuples.
"""

from __future__ import annotations

import bisect
import operator
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Union

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
        # && binds tighter than || and associates to the left
        left = f"({self.left})" if isinstance(self.left, Or) else str(self.left)
        right = f"({self.right})" if isinstance(self.right, (And, Or)) else str(self.right)
        return f"{left} && {right}"


@dataclass(frozen=True)
class Or:
    left: "GuardExpr"
    right: "GuardExpr"

    def __str__(self):
        right = f"({self.right})" if isinstance(self.right, Or) else str(self.right)
        return f"{self.left} || {right}"


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
        # reversed, so that the first of two equal names wins, as in a scan
        object.__setattr__(self, "_constants", dict(reversed(self.constants)))
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
        consts = self._constants
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
        try:
            return self._constants[name]
        except KeyError:
            raise DefinitionError(f"unknown constant {name}") from None

    def initial_state(self) -> "GlobalState":
        return GlobalState(
            locations=tuple(a.initial for a in self.agents),
            values=tuple(v.init for _, v in self._var_order))

    def state(self, locations: Optional[dict[str, str]] = None,
              values: Optional[dict[str, int]] = None) -> "GlobalState":
        """Build a state from the initial one with selected overrides; a value
        outside its variable's domain is a DefinitionError."""
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
        self._check_values(vals)
        return GlobalState(tuple(locs), tuple(vals))

    def _check_values(self, values: Sequence[int]) -> None:
        for (_, v), x in zip(self._var_order, values):
            if not v.lo <= x <= v.hi:
                raise DefinitionError(f"variable {v.name}: value {x} outside [{v.lo},{v.hi}]")

    def _resolve_bare_var(self, name: str) -> int:
        matches = [i for (owner, n), i in self._var_index.items() if n == name]
        if not matches:
            raise DefinitionError(f"unknown variable {name}")
        if len(matches) > 1:
            raise DefinitionError(f"ambiguous variable name {name}")
        return matches[0]


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


# The comparison operators guards may use. Compiled guards call these and
# nothing else: no source text is generated or evaluated.
_CMP = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def eval_guard(g: GuardExpr, q: GlobalState, net: Network) -> bool:
    """Standard boolean semantics, by the guard's compiled closure (see
    `StateGraph.predicate`); total on well-formed guards."""
    comp = _compiled(net)
    return comp.guard(net, g)(comp.encode(net, q))


# ---------------------------------------------------------------------------
# The compiled network: the transition relation

# A compiled guard is a function of the state tuple; a compiled int
# expression is an int when it is a literal or a constant, else a function of
# the state (as a list while updates run).
_Code = Union[int, Callable]


def _fn(code: _Code) -> Callable:
    """A compiled int expression as a function of the state."""
    return code if callable(code) else (lambda s: code)


class _Sync(NamedTuple):
    """One side of a synchronizing edge, to be paired at a state."""

    key: int  # the edge's declared position in the network
    agent: str
    edge: Edge


def _identity(s: tuple) -> tuple:
    return s


class _CompiledNetwork:
    """A network compiled for exploration.

    A state is one flat tuple of ints: each agent's location, numbered by its
    position in the agent's `locations`, then the variable values in
    `var_decls` order. Guards and update expressions are closures over that
    tuple, with constants inlined. Each agent has, per location, its edges in
    declaration order. Moves are interned by declared position: one move
    object per internal edge, per location of a lazy agent (its `wait`) and
    per (send edge, receive edge) pair, each with a dense int id (its index
    in `moves` and `idle`) and its successor function.
    It keeps no reference to its network, which keeps it; the methods that
    need the network's declarations take it.
    """

    def __init__(self, net: Network):
        self.n = len(net.agents)
        self.n_values = len(net.var_decls())
        self.names = tuple(a.locations for a in net.agents)
        self.numbers = tuple({loc: k for k, loc in enumerate(a.locations)}
                             for a in net.agents)
        self.pairs: dict[tuple[int, int], tuple[int, Callable]] = {}
        self.moves: list[Move] = []  # move id -> move
        self.idle: list[bool] = []   # move id -> move.is_idle
        self.guards: dict[GuardExpr, Callable] = {}  # the memo of `guard`
        table, waits, key = [], [], 0
        for pos, agent in enumerate(net.agents):
            by_loc: list[list] = [[] for _ in agent.locations]
            for e in agent.edges:
                guard = None if isinstance(e.guard, TrueConst) else self.guard(net, e.guard)
                if e.sync is None:
                    chan, side = None, None
                    item = self.interned(net, Internal(agent.name, e))
                else:
                    (chan, side), item = e.sync, _Sync(key, agent.name, e)
                by_loc[self.numbers[pos][e.source]].append((guard, chan, side, item))
                key += 1
            table.append(tuple(map(tuple, by_loc)))
            waits.append(tuple(self.interned(net, Internal(agent.name, Edge(loc, loc, WAIT_ACTION)))
                               for loc in agent.locations) if agent.lazy else None)
        self.table = tuple(table)
        self.waits = tuple(waits)

    # -- compiling ------------------------------------------------------------
    def ref(self, net: Network, ref: VarRef) -> _Code:
        """A constant's value, or the getter of the variable's slot in a state."""
        if ref.owner is None and ref.name in net._constants:
            return net._constants[ref.name]
        return operator.itemgetter(self.n + net.var_pos(ref.owner, ref.name))

    def guard(self, net: Network, g: GuardExpr) -> Callable:
        """The closure of a guard; equal guards share one (`self.guards`),
        edge guards and the atoms labelled over explored graphs alike. A
        strategy fixed into a network repeats its rules' conditions on every
        edge: in voter_base under cast_verify, 922 guard nodes are 56
        distinct ones."""
        code = self.guards.get(g)
        if code is None:
            code = self.guards[g] = self.new_guard(net, g)
        return code

    def new_guard(self, net: Network, g: GuardExpr) -> Callable:
        if isinstance(g, (TrueConst, FalseConst)):
            value = isinstance(g, TrueConst)
            return lambda s: value
        if isinstance(g, LocAtom):
            if g.agent not in net._agent_index:
                def unknown(s, msg=f"unknown agent {g.agent}"):
                    raise DefinitionError(msg)
                return unknown
            pos = net.agent_pos(g.agent)
            number = self.numbers[pos].get(g.location)  # None: never equal
            return lambda s: s[pos] == number
        if isinstance(g, VarAtom):
            value = _fn(self.ref(net, g.var))
            return lambda s: value(s) != 0
        if isinstance(g, Comparison):
            cmp = _CMP[g.op]
            lhs = _fn(self.ref(net, g.lhs))
            rhs = g.rhs if isinstance(g.rhs, int) else self.ref(net, g.rhs)
            if isinstance(rhs, int):
                return lambda s: cmp(lhs(s), rhs)
            return lambda s: cmp(lhs(s), rhs(s))
        if isinstance(g, Not):
            sub = self.guard(net, g.sub)
            return lambda s: not sub(s)
        if isinstance(g, (And, Or)):
            left, right = self.guard(net, g.left), self.guard(net, g.right)
            if isinstance(g, Or):
                return lambda s: left(s) or right(s)
            return lambda s: left(s) and right(s)
        raise TypeError(f"not a guard expression: {g!r}")

    def int_expr(self, net: Network, e: IntExpr) -> _Code:
        if isinstance(e, IntLit):
            return e.value
        if isinstance(e, IntVar):
            return self.ref(net, e.var)
        if isinstance(e, IntBin):
            op = operator.add if e.op == "+" else operator.sub
            left, right = _fn(self.int_expr(net, e.left)), self.int_expr(net, e.right)
            if isinstance(right, int):
                return lambda v: op(left(v), right)
            return lambda v: op(left(v), right(v))
        raise TypeError(f"not an int expression: {e!r}")

    def updates(self, net: Network, assignments: Iterable[Assignment]) -> tuple:
        out = []
        for asg in assignments:
            idx = net.var_pos(asg.target.owner, asg.target.name)
            decl = net.var_decls()[idx][1]
            out.append((self.n + idx, self.int_expr(net, asg.expr), decl.lo, decl.hi, asg,
                        decl.name))
        return tuple(out)

    def step(self, net: Network, move: Move) -> Callable:
        """The successor function of a move enabled at a state: it installs
        the target locations, then runs the updates (the sender's before the
        receiver's) left to right over the progressively updated valuation,
        checking each against its variable's bounds."""
        if isinstance(move, Internal):
            ends = ((move.agent, move.edge),)
        else:
            ends = ((move.sender, move.send_edge), (move.receiver, move.recv_edge))
        changes = []
        for agent, e in ends:
            pos = net.agent_pos(agent)
            changes.append((pos, self.numbers[pos][e.target]))
        updates = self.updates(net, [asg for _, e in ends for asg in e.updates])
        if not updates and all(e.source == e.target for _, e in ends):
            return _identity

        def step(s):
            v = list(s)
            for pos, target in changes:
                v[pos] = target
            for idx, expr, lo, hi, asg, name in updates:
                value = expr if isinstance(expr, int) else expr(v)
                if not lo <= value <= hi:
                    raise BoundViolationError(
                        f"assignment {asg} yields {value}, outside [{lo},{hi}] "
                        f"of variable {name}")
                v[idx] = value
            return tuple(v)
        return step

    def interned(self, net: Network, move: Move) -> tuple[int, Callable]:
        """The move's dense id, and its successor function."""
        self.moves.append(move)
        self.idle.append(move.is_idle)
        return len(self.moves) - 1, self.step(net, move)

    def pair(self, net: Network, snd: _Sync, rcv: _Sync) -> tuple[int, Callable]:
        hit = self.pairs.get((snd.key, rcv.key))
        if hit is None:
            hit = self.pairs[(snd.key, rcv.key)] = self.interned(net, Synchronized(
                snd.agent, snd.edge, rcv.agent, rcv.edge, snd.edge.sync[0]))
        return hit

    # -- running ----------------------------------------------------------------
    def encode(self, net: Network, q: GlobalState) -> tuple:
        if len(q.locations) != self.n or len(q.values) != self.n_values:
            raise DefinitionError(
                f"a state of network {net.name} has {self.n} locations "
                f"and {self.n_values} values")
        locs = []
        for agent, numbers, loc in zip(net.agents, self.numbers, q.locations):
            number = numbers.get(loc)
            if number is None:
                raise DefinitionError(f"agent {agent.name}: no location {loc}")
            locs.append(number)
        return tuple(locs) + tuple(q.values)

    def decode(self, s: tuple) -> GlobalState:
        return GlobalState(tuple(map(operator.getitem, self.names, s)), s[self.n:])

    def observer(self, net: Network, agent: str) -> Callable[[tuple], object]:
        """The items of a state that `agent` observes: its own location, its
        local variables and all global variables."""
        return operator.itemgetter(net.agent_pos(agent), *(
            self.n + k for k, (owner, _) in enumerate(net.var_decls()) if owner in (None, agent)))

    def enabled(self, net: Network, s: tuple) -> list[tuple[int, Callable]]:
        """The ids of the moves enabled at s with their successor functions,
        in the order `enabled_moves` documents."""
        out = []
        senders: dict[str, list[_Sync]] = {}
        receivers: dict[str, list[_Sync]] = {}
        for edges, loc, waits in zip(self.table, s, self.waits):
            for guard, chan, side, item in edges[loc]:
                if guard is not None and not guard(s):
                    continue
                if chan is None:
                    out.append(item)
                else:
                    (senders if side == "!" else receivers).setdefault(chan, []).append(item)
            if waits is not None:
                out.append(waits[loc])
        for chan, snd in senders.items():
            rcv = receivers.get(chan, ())
            for a in snd:
                for b in rcv:
                    if a.agent != b.agent:
                        out.append(self.pair(net, a, b))
        return out


def _compiled(net: Network) -> _CompiledNetwork:
    """The network's compiled form, built at its first use and kept on it."""
    comp = net.__dict__.get("_compiled")
    if comp is None:
        comp = _CompiledNetwork(net)
        object.__setattr__(net, "_compiled", comp)
    return comp


def enabled_moves(net: Network, q: GlobalState) -> list[Move]:
    """All moves enabled at q: per agent in declaration order, its internal
    edges with true guards and then the implicit `wait` self-loop of a lazy
    agent; then every send/receive pair on a common channel between distinct
    agents, channels in the order their first enabled sender appears. The
    same edge always gives the same move object."""
    comp = _compiled(net)
    return [comp.moves[m] for m, _ in comp.enabled(net, comp.encode(net, q))]


def apply_move(net: Network, q: GlobalState, move: Move) -> GlobalState:
    """Deterministic successor: install target locations, run updates in edge
    order (sender's before receiver's on synchronized moves)."""
    comp = _compiled(net)
    return comp.decode(comp.step(net, move)(comp.encode(net, q)))


def available_actions(net: Network, q: GlobalState, agent: str) -> set[str]:
    """Action labels the agent can take at q; an agent's side of an enabled
    synchronized move counts, and lazy agents can always `wait`."""
    net.agent(agent)  # raises DefinitionError on unknown agents
    return {action for move in enabled_moves(net, q)
            for actor, action in zip(move.actors, move.actions) if actor == agent}


# ---------------------------------------------------------------------------
# Exploration

@dataclass(frozen=True, slots=True)
class Transition:
    source: int
    move: Move
    target: int


class _View(Sequence):
    """A read-only sequence of n items built on access; equal to a list (or
    another view) with equal items, as a list would be."""

    def __init__(self, n: int, item: Callable[[int], object]):
        self._n = n
        self._item = item

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._item(j) for j in range(self._n)[i]]
        return self._item(range(self._n)[i])  # range raises IndexError

    def __eq__(self, other):
        if isinstance(other, _View):
            other = list(other)
        return list(self) == other if isinstance(other, list) else NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass(eq=False)
class StateGraph:
    """Reachable fragment of the global transition relation, as int columns.

    State i is `keys[i]`, its int tuple in the compiled network's encoding
    (`index` maps a key back to i); states are indexed in BFS discovery
    order, deterministic for a given network. The out-edges of state i are
    the positions offsets[i] to offsets[i+1] of `targets` and `move_ids`,
    in the order the moves were enabled; a move id indexes `moves` and
    `idle`. No object is kept per state or per edge: `states` and
    `transitions` are read-only sequence views that decode a `GlobalState`
    or build a `Transition` per item accessed, and `out_edges(i)` builds
    state i's. `wait` self-loops are included; path-level analyses read
    `succ`, which drops them.
    """

    net: Network
    keys: list[tuple]
    index: dict[tuple, int]
    offsets: array
    targets: array
    move_ids: array
    initial: int = 0

    @property
    def moves(self) -> list[Move]:
        return _compiled(self.net).moves

    @property
    def idle(self) -> list[bool]:
        return _compiled(self.net).idle

    @property
    def n_states(self) -> int:
        return len(self.keys)

    # The views close over the columns, not the graph, so that no reference
    # cycle keeps a dropped graph alive until a collector pass.
    @property
    def states(self) -> Sequence[GlobalState]:
        keys, decode = self.keys, _compiled(self.net).decode
        return _View(len(keys), lambda i: decode(keys[i]))

    @property
    def transitions(self) -> Sequence[Transition]:
        offsets, targets, move_ids, moves = self.offsets, self.targets, self.move_ids, self.moves

        def item(e: int) -> Transition:
            return Transition(bisect.bisect_right(offsets, e) - 1, moves[move_ids[e]], targets[e])
        return _View(len(targets), item)

    def out_edges(self, i: int) -> list[Transition]:
        lo, hi, moves = self.offsets[i], self.offsets[i + 1], self.moves
        return [Transition(i, moves[m], j)
                for m, j in zip(self.move_ids[lo:hi], self.targets[lo:hi])]

    def _key(self, q: GlobalState) -> Optional[tuple]:
        try:
            return _compiled(self.net).encode(self.net, q)
        except DefinitionError:  # wrong arity or an undeclared location
            return None

    def index_of(self, q: GlobalState) -> int:
        i = self.index.get(self._key(q))
        if i is None:
            raise KeyError(q)
        return i

    def __contains__(self, q: GlobalState) -> bool:
        return self._key(q) in self.index

    @cached_property
    def succ(self) -> list[list[int]]:
        """The distinct productive (non-idle) successors of each state, in
        index order."""
        offsets, targets, move_ids, idle = self.offsets, self.targets, self.move_ids, self.idle
        return [sorted({j for m, j in zip(move_ids[lo:hi], targets[lo:hi]) if not idle[m]})
                for lo, hi in zip(offsets, offsets[1:])]

    def predicate(self, guard: GuardExpr) -> Callable[[tuple], bool]:
        """`guard` compiled, as a test of a state's key; the network keeps
        one closure per distinct guard."""
        return _compiled(self.net).guard(self.net, guard)

    def satisfying(self, guard: GuardExpr) -> set[int]:
        holds = self.predicate(guard)
        return {i for i, s in enumerate(self.keys) if holds(s)}


DEFAULT_STATE_CAP = 200_000


def explore(net: Network, start: Optional[GlobalState] = None,
            state_cap: int = DEFAULT_STATE_CAP,
            move_filter=None) -> StateGraph:
    """Breadth-first search over the enabled moves from `start` (default: the
    initial state), on the network's compiled form. It stores the int tuple
    of each state and three int columns of edges, nothing else per state or
    per edge (see `StateGraph`).

    `move_filter(s, ids)`, called once per state with its int tuple and the
    ids of the moves enabled there, returns the ids to keep, in their order
    (`strategy.strategy_filter` builds one for a collective strategy); it is
    how strategy-constrained outcome graphs are built without materializing
    a pruned network. It stays because it explores only the outcome: for one
    strategy on two copies of voter_full(7,5) that is 6,320 of 24,964 states,
    in a third of the time of `restrict(explore(net), s_A)`. Raises
    ResourceLimitError past `state_cap` states, the initial one included,
    and DefinitionError when `start` is at a location its agent does not
    declare or holds a value outside its variable's domain.
    """
    if state_cap < 1:
        raise ResourceLimitError(f"state cap {state_cap} exceeded", partial=0)
    comp = _compiled(net)
    q0 = net.initial_state() if start is None else start
    keys = [comp.encode(net, q0)]  # the int tuple of each state, by index
    if start is not None:
        net._check_values(start.values)
    index = {keys[0]: 0}
    offsets, targets, move_ids = array("i", [0]), array("i"), array("i")
    i = 0
    while i < len(keys):  # states are expanded in discovery order
        s = keys[i]
        enabled = comp.enabled(net, s)
        if move_filter is not None:
            kept = move_filter(s, [m for m, _ in enabled])
            enabled = [item for item in enabled if item[0] in kept]
        for m, step in enabled:
            nxt = step(s)
            j = index.get(nxt)
            if j is None:
                if len(keys) >= state_cap:
                    raise ResourceLimitError(
                        f"state cap {state_cap} exceeded", partial=len(keys))
                j = len(keys)
                index[nxt] = j
                keys.append(nxt)
            targets.append(j)
            move_ids.append(m)
        offsets.append(len(targets))
        i += 1
    return StateGraph(net, keys, index, offsets, targets, move_ids)
