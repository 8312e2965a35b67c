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
form: a state becomes one int, its key, with a bit field per location and
variable; guards and updates become closures over keys with constants
inlined, and every move one shared object with a dense int id. `explore`
and `eval_guard` run on it, and so does every reader of an explored graph:
past exploration a state is its key, and a `GlobalState` is decoded only
to be printed. Exploration asks each agent what it can do only once per
distinct value of the fields it reads, through successor tables that live
as long as one `explore` call. Under a collective strategy, a coalition
member's table is keyed also by the fields its rules read, so its rules are
matched once per distinct value of those fields, not once per state.

An explored `StateGraph` is stored as int columns: the key of each state
with the dict from key to index, the edges as three `array('i')` columns,
`offsets` (one per state, plus one), `targets` and `move_ids`, and `succ`.
No `GlobalState` or `Transition` is kept: `states` and `transitions` are
read-only sequence views that build one per item read, and `satisfying`
and the checker's atoms run the compiled guards over the keys.
"""

from __future__ import annotations

import bisect
import operator
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Optional, Union

from .errors import BoundViolationError, DefinitionError, ResourceLimitError, StrategyError

if TYPE_CHECKING:
    from .strategy import CollectiveStrategy

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
        object.__setattr__(self, "_bounds", (tuple(v.lo for _, v in order),
                                             tuple(v.hi for _, v in order)))
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
                for ref in var_refs(e.guard):
                    self._check_ref(ref, consts, a)
                for asg in e.updates:
                    self._check_ref(asg.target, consts, a, writing=True)
                    for ref in var_refs(asg.expr):
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

    def _with_agents(self, agents: tuple[AgentTemplate, ...]) -> "Network":
        """This network with `agents` in place of its own, which declare the
        same names, locations and variables, so its lookups stay and are
        not validated again (`strategy.fix_strategy` checks what it adds)."""
        out = object.__new__(Network)
        out.__dict__.update(self.__dict__)
        out.__dict__.pop("_compiled", None)
        object.__setattr__(out, "agents", agents)
        return out

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
        los, his = self._bounds  # every state key is encoded through here
        if all(map(operator.le, los, values)) and all(map(operator.le, values, his)):
            return
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
# Walking and evaluating guards

_LEAVES = (TrueConst, FalseConst, LocAtom, VarAtom, Comparison, IntLit, IntVar)


def nodes(tree: Union[GuardExpr, IntExpr]) -> Iterator[Union[GuardExpr, IntExpr]]:
    """The nodes of a guard or update expression in pre-order, operands left
    to right; a comparison is one node. TypeError on any other object."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Not):
            stack.append(node.sub)
        elif isinstance(node, (And, Or, IntBin)):
            stack += (node.right, node.left)
        elif not isinstance(node, _LEAVES):
            raise TypeError(f"not a guard or int expression: {node!r}")
        yield node


def var_refs(tree: Union[GuardExpr, IntExpr]) -> Iterator[VarRef]:
    """The variable references of a guard or update expression, constants
    included, left to right."""
    for node in nodes(tree):
        if isinstance(node, (VarAtom, IntVar)):
            yield node.var
        elif isinstance(node, Comparison):
            yield node.lhs
            if isinstance(node.rhs, VarRef):
                yield node.rhs


def map_atoms(g: GuardExpr, fn: Callable[[GuardExpr], GuardExpr]) -> GuardExpr:
    """g with each leaf (an atom, true or false) replaced by fn(leaf). A
    connective is rebuilt only when one of its operands changed, so an fn
    that returns its argument returns g itself."""
    if isinstance(g, Not):
        sub = map_atoms(g.sub, fn)
        return g if sub is g.sub else Not(sub)
    if isinstance(g, (And, Or)):
        left, right = map_atoms(g.left, fn), map_atoms(g.right, fn)
        return g if left is g.left and right is g.right else type(g)(left, right)
    return fn(g)


# The comparison operators guards may use. Compiled guards call these and
# nothing else: no source text is generated or evaluated.
_CMP = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def eval_guard(g: GuardExpr, q: GlobalState, net: Network) -> bool:
    """Standard boolean semantics, by the guard's compiled closure (see
    `StateGraph.predicate`); total on well-formed guards. Like every call on
    a `GlobalState` here, it raises DefinitionError for a state with a value
    outside its variable's domain, which no key can hold."""
    comp = _compiled(net)
    return comp.guard(net, g)(comp.encode(net, q))


# ---------------------------------------------------------------------------
# The compiled network: the transition relation

# A compiled guard is a function of the state key; a compiled int expression
# is an int when it is a literal or a constant, else a function of the key.
_Code = Union[int, Callable]


def _fn(code: _Code) -> Callable:
    """A compiled int expression as a function of the state."""
    return code if callable(code) else (lambda s: code)


class _Field(NamedTuple):
    """The bits of one location or variable in a state key: the number
    stored is the location's position, or the value minus `lo`."""

    shift: int
    mask: int  # the field's bits, in place
    lo: int


def _getter(f: _Field) -> Callable[[int], int]:
    """The value a field holds in a key."""
    shift, width, lo = f.shift, f.mask >> f.shift, f.lo
    if lo == 0:
        return lambda s: s >> shift & width
    return lambda s: (s >> shift & width) + lo


# `c op v` is `v flipped(op) c`
_FLIPPED = {"==": "==", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _field_test(f: _Field, op: str, k: int) -> Callable[[int], bool]:
    """`number op k` for the number a field stores, tested in place."""
    cmp = _CMP[op]
    if k < 0:  # below every number, as 0 is
        value = cmp(0, k)
        return lambda s: value
    mask, bits = f.mask, k << f.shift
    if op == "==":
        return lambda s: s & mask == bits
    if op == "!=":
        return lambda s: s & mask != bits
    return lambda s: cmp(s & mask, bits)


class _Sync(NamedTuple):
    """One side of a synchronizing edge, to be paired at a state."""

    key: int  # the edge's declared position in the network
    agent: str
    edge: Edge


class _CompiledNetwork:
    """A network compiled for exploration.

    A state is one int, its key. Each agent's location, numbered by its
    position in the agent's `locations`, and then each variable's value minus
    its lower bound, in `var_decls` order, has a bit field (`fields`), lowest
    bits first, as wide as its largest number needs: a singleton domain takes
    none. Guards test fields in place (`s & mask == k`), update expressions
    read them by shift, and a move's successor clears the fields it writes
    (`writes`) and installs the new bits, so a target location is installed
    whatever the source. Constants are inlined.

    Each agent has, per location, its edges in declaration order, and a read
    mask (`reads`): its location field and every field its edges' guards and
    update expressions read. What an agent can do at a state depends only on
    the state's bits under that mask, so `explore` looks it up in a
    successor table per agent, keyed by that projection (see `entry`).
    Moves are interned by declared position: one move object per internal
    edge, per location of a lazy agent (its `wait`) and per (send edge,
    receive edge) pair, each with a dense int id (its index in `moves`,
    `idle` and `writes`) and its successor function.
    It keeps no reference to its network, which keeps it; the methods that
    need the network's declarations take it.
    """

    def __init__(self, net: Network):
        self.n = len(net.agents)
        self.n_values = len(net.var_decls())
        self.names = tuple(a.locations for a in net.agents)
        self.numbers = tuple({loc: k for k, loc in enumerate(a.locations)}
                             for a in net.agents)
        fields, shift = [], 0
        for lo, hi in ([(0, len(a.locations) - 1) for a in net.agents]
                       + [(v.lo, v.hi) for _, v in net.var_decls()]):
            width = (hi - lo).bit_length()
            fields.append(_Field(shift, ((1 << width) - 1) << shift, lo))
            shift += width
        self.fields = tuple(fields)  # agents' locations, then the variables
        # the same, column by column, for `encode` and `decode`
        self.shifts = tuple(f.shift for f in fields)
        self.slots = tuple((f.shift, f.mask >> f.shift) for f in fields)
        self.los = tuple(f.lo for f in fields[self.n:])
        self.lifted = any(self.los)  # else a value is the number its field stores
        self.pairs: dict[tuple[int, int], tuple[int, Callable]] = {}
        self.moves: list[Move] = []  # move id -> move
        self.idle: list[bool] = []   # move id -> move.is_idle
        self.writes: list[int] = []  # move id -> the mask of the fields it writes
        self.guards: dict[GuardExpr, Callable] = {}  # the memo of `guard`
        self.masks: dict[Union[GuardExpr, IntExpr], int] = {}  # the memo of `read_mask`
        table, waits, reads, key = [], [], [], 0
        for pos, agent in enumerate(net.agents):
            by_loc: list[list] = [[] for _ in agent.locations]
            read = self.fields[pos].mask
            for e in agent.edges:
                guard = None if isinstance(e.guard, TrueConst) else self.guard(net, e.guard)
                if e.sync is None:
                    chan, side = None, None
                    item = self.interned(net, Internal(agent.name, e))
                else:
                    (chan, side), item = e.sync, _Sync(key, agent.name, e)
                by_loc[self.numbers[pos][e.source]].append((guard, chan, side, item))
                key += 1
                read |= self.read_mask(net, e.guard, *(asg.expr for asg in e.updates))
            table.append(tuple(map(tuple, by_loc)))
            waits.append(tuple(self.interned(net, Internal(agent.name, Edge(loc, loc, WAIT_ACTION)))[0]
                               for loc in agent.locations) if agent.lazy else None)
            reads.append(read)
        self.table = tuple(table)
        self.waits = tuple(waits)
        self.reads = tuple(reads)

    # -- compiling ------------------------------------------------------------
    def ref(self, net: Network, ref: VarRef) -> Union[int, _Field]:
        """A constant's value, or the variable's field."""
        if ref.owner is None and ref.name in net._constants:
            return net._constants[ref.name]
        return self.fields[self.n + net.var_pos(ref.owner, ref.name)]

    def read_mask(self, net: Network, *trees: Union[GuardExpr, IntExpr]) -> int:
        """The fields that guard and update expressions read. Each distinct
        tree is walked once (`self.masks`), so `explore` under a strategy
        walks its rule guards once per network."""
        mask = 0
        for tree in trees:
            bits = self.masks.get(tree)
            if bits is None:
                bits = 0
                for node in nodes(tree):
                    if isinstance(node, LocAtom) and node.agent in net._agent_index:
                        bits |= self.fields[net.agent_pos(node.agent)].mask
                for ref in var_refs(tree):
                    f = self.ref(net, ref)
                    if not isinstance(f, int):
                        bits |= f.mask
                self.masks[tree] = bits
            mask |= bits
        return mask

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
            number = self.numbers[pos].get(g.location, -1)  # -1: never equal
            return _field_test(self.fields[pos], "==", number)
        if isinstance(g, VarAtom):
            f = self.ref(net, g.var)
            if isinstance(f, int):
                value = f != 0
                return lambda s: value
            return _field_test(f, "!=", -f.lo)
        if isinstance(g, Comparison):
            op, lhs = g.op, self.ref(net, g.lhs)
            rhs = g.rhs if isinstance(g.rhs, int) else self.ref(net, g.rhs)
            if isinstance(lhs, int):
                if isinstance(rhs, int):
                    value = _CMP[op](lhs, rhs)
                    return lambda s: value
                lhs, op, rhs = rhs, _FLIPPED[op], lhs
            if isinstance(rhs, int):
                return _field_test(lhs, op, rhs - lhs.lo)
            cmp, left, right = _CMP[op], _getter(lhs), _getter(rhs)
            return lambda s: cmp(left(s), right(s))
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
            f = self.ref(net, e.var)
            return f if isinstance(f, int) else _getter(f)
        if isinstance(e, IntBin):
            op = operator.add if e.op == "+" else operator.sub
            left, right = _fn(self.int_expr(net, e.left)), self.int_expr(net, e.right)
            if isinstance(right, int):
                return lambda v: op(left(v), right)
            return lambda v: op(left(v), right(v))
        raise TypeError(f"not an int expression: {e!r}")

    def step(self, net: Network, move: Move) -> tuple[int, Callable]:
        """The mask of the fields a move writes, and its successor function:
        it installs the target locations, then runs the updates (the
        sender's before the receiver's) left to right over the progressively
        updated state, checking each against its variable's bounds."""
        if isinstance(move, Internal):
            ends = ((move.agent, move.edge),)
        else:
            ends = ((move.sender, move.send_edge), (move.receiver, move.recv_edge))
        write = put = 0
        for agent, e in ends:
            pos = net.agent_pos(agent)
            f = self.fields[pos]
            write |= f.mask
            put |= self.numbers[pos][e.target] << f.shift
        keep = ~write  # the updates read the values before they run
        updates = []
        for asg in (asg for _, e in ends for asg in e.updates):
            idx = net.var_pos(asg.target.owner, asg.target.name)
            decl, f = net.var_decls()[idx][1], self.fields[self.n + idx]
            write |= f.mask
            updates.append((f.shift, ~f.mask, self.int_expr(net, asg.expr), decl.lo, decl.hi,
                            asg, decl.name))
        if not updates:
            return write, lambda s: s & keep | put

        def step(s):
            v = s & keep | put
            for shift, clear, expr, lo, hi, asg, name in updates:
                value = expr if isinstance(expr, int) else expr(v)
                if not lo <= value <= hi:
                    raise BoundViolationError(
                        f"assignment {asg} yields {value}, outside [{lo},{hi}] "
                        f"of variable {name}")
                v = v & clear | (value - lo) << shift
            return v
        return write, step

    def interned(self, net: Network, move: Move) -> tuple[int, Callable]:
        """The move's dense id, and its successor function."""
        write, step = self.step(net, move)
        self.moves.append(move)
        self.idle.append(move.is_idle)
        self.writes.append(write)
        return len(self.moves) - 1, step

    def pair(self, net: Network, snd: _Sync, rcv: _Sync) -> tuple[int, Callable]:
        hit = self.pairs.get((snd.key, rcv.key))
        if hit is None:
            hit = self.pairs[(snd.key, rcv.key)] = self.interned(net, Synchronized(
                snd.agent, snd.edge, rcv.agent, rcv.edge, snd.edge.sync[0]))
        return hit

    # -- running ----------------------------------------------------------------
    def encode(self, net: Network, q: GlobalState) -> int:
        if len(q.locations) != self.n or len(q.values) != self.n_values:
            raise DefinitionError(
                f"a state of network {net.name} has {self.n} locations "
                f"and {self.n_values} values")
        numbers = list(map(dict.get, self.numbers, q.locations))
        if None in numbers:
            pos = numbers.index(None)
            raise DefinitionError(f"agent {net.agents[pos].name}: no location {q.locations[pos]}")
        net._check_values(q.values)  # only a value in its domain fits its field
        numbers += map(operator.sub, q.values, self.los) if self.lifted else q.values
        return sum(map(operator.lshift, numbers, self.shifts))  # the fields do not overlap

    def decode(self, s: int) -> GlobalState:
        numbers = [s >> shift & width for shift, width in self.slots]
        values = numbers[self.n:]
        return GlobalState(tuple(map(operator.getitem, self.names, numbers)),
                           tuple(map(operator.add, values, self.los) if self.lifted else values))

    def observer(self, net: Network, agent: str) -> Callable[[int], int]:
        """The bits of a key that `agent` observes: its own location, its
        local variables and all global variables."""
        mask = self.fields[net.agent_pos(agent)].mask
        for f, (owner, _) in zip(self.fields[self.n:], net.var_decls()):
            if owner in (None, agent):
                mask |= f.mask
        return partial(operator.and_, mask)

    def entry(self, net: Network, pos: int, p: int,
              match: Optional[Callable[[int, set[str]], set[str]]] = None) -> tuple:
        """What agent `pos` can do at the projection p of a key, as a flat
        record (effects, ids, wait, more): `effect`'s triple for each of its
        enabled internal moves; the move ids stored for them, followed by
        that of its `wait`; the id of the `wait` (None when it has none);
        and None, or, when the entry needs the whole state (see
        `complete`), its enabled synchronizing sides as (channel, '!' or
        '?', side), whether its strategy is still to be matched there, and
        the two as a tuple of small ints, the sides' edge positions and
        then that flag, which `complete` keys its pairings on.

        `match` (`strategy._matcher`), given when p also holds the fields
        the agent's rules read, folds its strategy in. With no side enabled
        the agent's actions are those of its internal moves, so the entry
        keeps only the moves its first matching rule allows. With a side
        enabled its actions depend on partners, and where no rule matches
        the error names the whole state: then the entry keeps every move."""
        f = self.fields[pos]
        loc = (p & f.mask) >> f.shift
        items, sides = [], []
        for guard, chan, side, item in self.table[pos][loc]:
            if guard is None or guard(p):
                if chan is None:
                    items.append(item)
                else:
                    sides.append((chan, side, item))
        wait = None if self.waits[pos] is None else self.waits[pos][loc]
        unmatched = match is not None and bool(sides)
        if match is not None and not sides:
            moves = self.moves
            avail = {moves[m].edge.action for m, _ in items}
            if wait is not None:
                avail.add(WAIT_ACTION)
            try:
                allowed = match(p, avail)
            except StrategyError:
                unmatched = True
            else:
                items = [item for item in items if moves[item[0]].edge.action in allowed]
                if WAIT_ACTION not in allowed:
                    wait = None
        effects = tuple(self.effect(item, p) for item in items)
        ids = tuple(m for m, _ in items) + (() if wait is None else (wait,))
        if not (sides or unmatched):
            return effects, ids, wait, None
        code = (*(item.key for _, _, item in sides), unmatched)
        return effects, ids, wait, (tuple(sides), unmatched, code)

    def effect(self, item: tuple[int, Callable], p: int) -> tuple:
        """An internal move (id, successor function) at the projection p, as
        (mask of the bits it keeps, bits it installs, whether it is
        productive): the fields it writes depend on p alone. A move whose
        update leaves its variable's domain keeps None and installs its
        successor function, which raises only where it is taken."""
        m, step = item
        try:
            after = step(p)
        except BoundViolationError:
            return None, step, not self.idle[m]
        return ~self.writes[m], after & self.writes[m], not self.idle[m]

    def complete(self, net: Network, s: int, hits: list[tuple],
                 keep: Optional[Callable[[int, Sequence[int]], Sequence[int]]],
                 pairings: dict[tuple, tuple]) -> list[tuple]:
        """The entries of every agent at the key s (`hits`, from `entry`),
        followed by one record that holds the synchronized moves their sides
        form (see `pairing`). Which pairs form depends only on which sides
        are enabled, so `pairings`, a memo that lives as long as one
        `explore` call, holds them per combination of the agents' side
        codes: their successor functions, not successors. When some entry is
        still to be matched, each record keeps only the moves `keep`, the
        strategy's filter, keeps at s, its effects and ids alike."""
        combo = tuple(more and more[2] for _, _, _, more in hits)
        hit = pairings.get(combo)
        if hit is None:
            hit = pairings[combo] = self.pairing(net, hits)
        pairs, unmatched = hit
        hits = [*hits, pairs]
        if not unmatched:
            return hits
        kept = set(keep(s, [m for _, ids, _, _ in hits for m in ids]))
        return [(tuple(e for e, m in zip(effects, ids) if m in kept),
                 tuple(m for m in ids if m in kept), wait if wait in kept else None, None)
                for effects, ids, wait, _ in hits]

    def pairing(self, net: Network, hits: list[tuple]) -> tuple[tuple, bool]:
        """The synchronized moves the entries' sides form, as a record in
        `entry`'s form whose effects are (None, successor function, True)
        and which has no `wait`: the pairs on a common channel between
        distinct agents, channels in the order their first enabled sender
        appears; and whether some entry is still to be matched."""
        senders: dict[str, list[_Sync]] = {}
        receivers: dict[str, list[_Sync]] = {}
        unmatched = False
        for _, _, _, more in hits:
            if more is not None:
                unmatched |= more[1]
                for chan, side, item in more[0]:
                    (senders if side == "!" else receivers).setdefault(chan, []).append(item)
        effects, ids = [], []
        for chan, snd in senders.items():
            for a in snd:
                for b in receivers.get(chan, ()):
                    if a.agent != b.agent:
                        m, step = self.pair(net, a, b)
                        effects.append((None, step, True))
                        ids.append(m)
        return (tuple(effects), tuple(ids), None, None), unmatched


def _compiled(net: Network) -> _CompiledNetwork:
    """The network's compiled form, built at its first use and kept on it."""
    comp = net.__dict__.get("_compiled")
    if comp is None:
        comp = _CompiledNetwork(net)
        object.__setattr__(net, "_compiled", comp)
    return comp


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

    State i is `keys[i]`, its int key in the compiled network's encoding
    (`index` maps a key back to i); states are indexed in BFS discovery
    order, deterministic for a given network. The out-edges of state i are
    the positions offsets[i] to offsets[i+1] of `targets` and `move_ids`,
    in the order the moves are enabled: per agent in declaration order, its
    internal edges with true guards and then the implicit `wait` self-loop
    of a lazy agent; then every send/receive pair on a common channel
    between distinct agents, channels in the order their first enabled
    sender appears (under a strategy, `explore` keeps a subsequence). A move
    id indexes `moves` and `idle`: the same edge, `wait` loop or pair is the
    same move object at every state. No object is kept per state or per edge:
    `states` and `transitions` are read-only sequence views that decode a
    `GlobalState` or build a `Transition` per item accessed. `wait`
    self-loops are included; path-level analyses read `succ`, the distinct
    productive (non-idle) successors of each state in index order, which
    drops them. `explore` fills `offsets` state by state, `targets` and
    `move_ids` in chunks from list buffers, and `succ` with one list per
    state.
    """

    net: Network
    keys: list[int]
    index: dict[int, int]
    offsets: array
    targets: array
    move_ids: array
    succ: list[list[int]]
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

    def _key(self, q: GlobalState) -> Optional[int]:
        try:
            return _compiled(self.net).encode(self.net, q)
        except DefinitionError:  # wrong arity, undeclared location or value outside its domain
            return None

    def index_of(self, q: GlobalState) -> int:
        i = self.index.get(self._key(q))
        if i is None:
            raise KeyError(q)
        return i

    def __contains__(self, q: GlobalState) -> bool:
        return self._key(q) in self.index

    def predicate(self, guard: GuardExpr) -> Callable[[int], bool]:
        """`guard` compiled, as a test of a state's key; the network keeps
        one closure per distinct guard."""
        return _compiled(self.net).guard(self.net, guard)

    def satisfying(self, guard: GuardExpr) -> set[int]:
        holds = self.predicate(guard)
        return {i for i, s in enumerate(self.keys) if holds(s)}


DEFAULT_STATE_CAP = 200_000
# Edges buffered in lists before they go into the array columns. Buffers of
# 1,024 or 4,096 edges explored no faster, and raised the scale benchmark's
# peak RSS by 0.1-0.7 MB.
_CHUNK = 64


def explore(net: Network, start: Optional[GlobalState] = None,
            state_cap: int = DEFAULT_STATE_CAP,
            s_A: Optional[CollectiveStrategy] = None) -> StateGraph:
    """Breadth-first search over the enabled moves from `start` (default: the
    initial state), on the network's compiled form. It stores the key of
    each state, three int columns of edges and each state's `succ`, filled
    as the state is expanded, nothing else per state or per edge (see
    `StateGraph`). Each agent's successor table, made here and dropped with
    the call, maps the projection of a key on the fields its edges read to
    its `entry` there, a flat record: the loop applies its effects to the
    key and copies its move ids to the `move_ids` column as they stand. A
    `wait` is stored as a self-loop with no successor computed; any other
    successor, the state itself included, is found with one `index` lookup.
    Targets and move ids collect in two lists that go into their array
    columns `_CHUNK` edges at a time, and a state with two productive
    targets sorts them with one comparison. Sync pairs are formed once per
    distinct combination of the agents' enabled sides, and kept as
    successor functions until the call returns (see `complete`).

    With a collective strategy s_A, only the moves s_A allows are followed,
    as `strategy.strategy_filter` keeps them. A member's table is keyed also
    by the fields its rules read, so its rules are matched once per
    projection; where it has a synchronizing side enabled, or no rule
    matches, at each state the projection serves. This explores only the
    outcome: for one strategy on two copies of voter_full(7,5), 6,320 of
    24,964 states, matched at 40 projections, in about a fifth of the time
    of `restrict(explore(net), s_A)`, which matches 1,125 times (11.1
    against 53.3 ms after an `explore` of 48.5 ms, medians of 7 runs, Python
    3.11, 2 CPUs).

    Raises ResourceLimitError past `state_cap` states, the initial one
    included; StrategyError at the first expanded state where matching
    fails, before any of its successors; and DefinitionError when `start`
    is at a location its agent does not declare or holds a value outside
    its variable's domain, or for a member of s_A that is not an agent of
    `net` or whose strategy is for another agent.
    """
    comp = _compiled(net)
    masks, matches, keep = list(comp.reads), [None] * comp.n, None
    if s_A:
        from .strategy import _matcher, strategy_filter  # it imports this module
        keep = strategy_filter(net, s_A)
        for agent, s in s_A.items():
            pos = net.agent_pos(agent)
            masks[pos] |= comp.read_mask(net, *(r.guard for r in s.rules))
            matches[pos] = _matcher(net, s)
    if state_cap < 1:
        raise ResourceLimitError(f"state cap {state_cap} exceeded", partial=0)
    tables = [(mask, {}, partial(comp.entry, net, pos, match=match))
              for pos, (mask, match) in enumerate(zip(masks, matches))]
    pairings: dict[tuple, tuple] = {}  # the memo of `complete`, for this call only
    keys = [comp.encode(net, net.initial_state() if start is None else start)]
    index = {keys[0]: 0}
    offsets, targets, move_ids = array("i", [0]), array("i"), array("i")
    tbuf: list[int] = []  # targets and move ids not yet in their columns
    mbuf: list[int] = []
    succ: list[list[int]] = []
    for i, s in enumerate(keys):  # it grows as states are found: discovery order
        hits, more = [], False
        for mask, table, entry in tables:
            p = s & mask
            hit = table.get(p)
            if hit is None:
                hit = table[p] = entry(p)
            hits.append(hit)
            if hit[3] is not None:
                more = True
        if more:
            hits = comp.complete(net, s, hits, keep, pairings)
        outs = []
        for effects, ids, wait, _ in hits:
            for hold, put, productive in effects:
                nxt = put(s) if hold is None else s & hold | put
                j = index.get(nxt)  # s itself is i
                if j is None:
                    if len(keys) >= state_cap:
                        raise ResourceLimitError(
                            f"state cap {state_cap} exceeded", partial=len(keys))
                    j = index[nxt] = len(keys)
                    keys.append(nxt)
                tbuf.append(j)
                if productive:
                    outs.append(j)
            if wait is not None:
                tbuf.append(i)
            mbuf += ids
        if len(outs) == 2:
            a, b = outs
            succ.append([a, b] if a < b else [b, a] if b < a else [a])
        else:
            succ.append(sorted(set(outs)) if len(outs) > 2 else outs)
        if len(tbuf) >= _CHUNK:
            targets.fromlist(tbuf)
            move_ids.fromlist(mbuf)
            tbuf.clear()
            mbuf.clear()
        offsets.append(len(targets) + len(tbuf))
    targets.fromlist(tbuf)
    move_ids.fromlist(mbuf)
    return StateGraph(net, keys, index, offsets, targets, move_ids, succ)
