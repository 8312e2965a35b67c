"""Reference semantics that the benchmark checks natstrat's answers against.

Written apart from natstrat.checker and natstrat.outcome: it takes the graph
that natstrat.model.explore returns, drops idle `wait` loops, restricts named
strategies by first match, and labels every temporal operator with one
backward pass over all states at once. Guards, knowledge and strategy
complexity are evaluated here too, straight from the parsed syntax trees.

Only what the benchmark's formulas need is covered: atoms, the boolean
connectives, K, the universal A and strategic operators whose strategies are
named or supplied (verify mode). A strategy whose first-match lookup fails
anywhere is rejected rather than given natstrat's reachable-error semantics.
"""

from __future__ import annotations

from natstrat.formula import FAnd, FAtom, FImplies, FNot, FOr, Knows, Strategic
from natstrat.model import (
    And, Comparison, FalseConst, Internal, LocAtom, Not, Or, TrueConst, VarAtom,
    explore,
)
from natstrat.strategy import WILDCARD

_CMP = {
    "==": lambda a, b: a == b, "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
}


def guard_size(g) -> int:
    """Symbols in a guard: atoms, comparisons and constants cost 1, each
    connective 1 more."""
    if isinstance(g, Not):
        return 1 + guard_size(g.sub)
    if isinstance(g, (And, Or)):
        return 1 + guard_size(g.left) + guard_size(g.right)
    return 1


def strategy_size(strategies) -> int:
    return sum(guard_size(r.guard) for s in strategies for r in s.rules)


def move_actions(move) -> dict:
    """The action each acting agent takes in a move."""
    if isinstance(move, Internal):
        return {move.agent: move.edge.action}
    return {move.sender: move.send_edge.action,
            move.receiver: move.recv_edge.action}


class Labeller:
    """Labels formulas at every reachable state of one network."""

    def __init__(self, net, strategies_by_name=None, supplied=None):
        """`strategies_by_name` resolves strategies named in a formula;
        `supplied` maps an agent to the strategy used where a formula names
        none."""
        self.net = net
        self.strategies = strategies_by_name or {}
        self.supplied = supplied or {}
        graph = explore(net)
        self.states = graph.states
        self.n = len(self.states)
        self.n_transitions = len(graph.transitions)
        self.acts = [set() for _ in range(self.n)]     # (agent, action) pairs
        self.moves = [[] for _ in range(self.n)]       # productive: (target, actions)
        for t in graph.transitions:
            actions = move_actions(t.move)
            self.acts[t.source].update(actions.items())
            if not t.move.is_idle:
                self.moves[t.source].append((t.target, actions))
        self.agent_pos = {a.name: i for i, a in enumerate(net.agents)}
        self.var_pos = {(owner, v.name): i
                        for i, (owner, v) in enumerate(net.var_decls())}
        self.consts = dict(net.constants)
        self._memo: dict = {}

    # -- guards ---------------------------------------------------------------
    def _value(self, ref, q) -> int:
        if ref.owner is None and ref.name in self.consts:
            return self.consts[ref.name]
        return q.values[self.var_pos[(ref.owner, ref.name)]]

    def holds(self, g, q) -> bool:
        if isinstance(g, TrueConst):
            return True
        if isinstance(g, FalseConst):
            return False
        if isinstance(g, LocAtom):
            return q.locations[self.agent_pos[g.agent]] == g.location
        if isinstance(g, VarAtom):
            return self._value(g.var, q) != 0
        if isinstance(g, Comparison):
            rhs = g.rhs if isinstance(g.rhs, int) else self._value(g.rhs, q)
            return _CMP[g.op](self._value(g.lhs, q), rhs)
        if isinstance(g, Not):
            return not self.holds(g.sub, q)
        if isinstance(g, And):
            return self.holds(g.left, q) and self.holds(g.right, q)
        if isinstance(g, Or):
            return self.holds(g.left, q) or self.holds(g.right, q)
        raise TypeError(f"not a guard: {g!r}")

    def satisfying(self, g) -> frozenset:
        return frozenset(i for i, q in enumerate(self.states) if self.holds(g, q))

    # -- strategies -------------------------------------------------------------
    def allowed(self, strategy, i: int) -> set:
        """First match: the action of the first rule whose guard holds and
        whose action the agent has here; the wildcard allows every action."""
        avail = {a for agent, a in self.acts[i] if agent == strategy.agent}
        for rule in strategy.rules:
            if not self.holds(rule.guard, self.states[i]):
                continue
            if rule.action is WILDCARD:
                if avail:
                    return avail
            elif rule.action in avail:
                return {rule.action}
        if avail and strategy.is_total:
            raise ValueError(f"reference: no rule of {strategy.agent}'s strategy "
                             f"fires at state {i}")
        return set()

    def successors(self, strategies=()) -> list:
        """Productive successors of every state when each strategy's agent
        takes only the actions its strategy allows."""
        if not strategies:
            return [[j for j, _ in self.moves[i]] for i in range(self.n)]
        out = []
        for i in range(self.n):
            allowed = {s.agent: self.allowed(s, i) for s in strategies}
            out.append([j for j, actions in self.moves[i]
                        if all(act in allowed[agent]
                               for agent, act in actions.items()
                               if agent in allowed)])
        return out

    # -- temporal operators -------------------------------------------------------
    @staticmethod
    def predecessors(succ) -> list:
        pred = [[] for _ in succ]
        for i, outs in enumerate(succ):
            for j in outs:
                pred[j].append(i)
        return pred

    @classmethod
    def always_until(cls, succ, hold, goal) -> frozenset:
        """A(hold U goal): a goal state, or a non-terminal hold state all of
        whose successors are in the set (least fixpoint by counting)."""
        pending = [len(outs) for outs in succ]
        good = set(goal)
        work = list(good)
        pred = cls.predecessors(succ)
        while work:
            j = work.pop()
            for i in pred[j]:
                if i in good:
                    continue
                pending[i] -= 1
                if pending[i] == 0 and i in hold:
                    good.add(i)
                    work.append(i)
        return frozenset(good)

    @classmethod
    def can_reach(cls, succ, targets) -> frozenset:
        pred = cls.predecessors(succ)
        seen = set(targets)
        work = list(seen)
        while work:
            for i in pred[work.pop()]:
                if i not in seen:
                    seen.add(i)
                    work.append(i)
        return frozenset(seen)

    def temporal(self, op, succ, subsets) -> frozenset:
        every = frozenset(range(self.n))
        if op == "X":
            return frozenset(i for i in every if all(j in subsets[0] for j in succ[i]))
        if op == "F":
            return self.always_until(succ, every, subsets[0])
        if op == "G":
            return every - self.can_reach(succ, every - subsets[0])
        if op == "U":
            return self.always_until(succ, subsets[0], subsets[1])
        raise ValueError(f"reference: unknown temporal operator {op}")

    # -- formulas ---------------------------------------------------------------
    def label(self, f) -> frozenset:
        key = id(f)
        if key not in self._memo:
            self._memo[key] = self._label(f)
        return self._memo[key]

    def _label(self, f) -> frozenset:
        every = frozenset(range(self.n))
        if isinstance(f, FAtom):
            return self.satisfying(f.guard)
        if isinstance(f, FNot):
            return every - self.label(f.sub)
        if isinstance(f, FAnd):
            return self.label(f.left) & self.label(f.right)
        if isinstance(f, FOr):
            return self.label(f.left) | self.label(f.right)
        if isinstance(f, FImplies):
            return (every - self.label(f.left)) | self.label(f.right)
        if isinstance(f, Knows):
            return self._knows(f.agent, self.label(f.sub))
        if isinstance(f, Strategic):
            subsets = [self.label(s) for s in f.subs]
            if not f.coalition:
                return self.temporal(f.op, self.successors(), subsets)
            if f.witness:
                strategies = [self.strategies[name] for name in f.witness]
            else:
                strategies = [self.supplied[agent] for agent in f.coalition]
            if strategy_size(strategies) > f.bound:
                return frozenset()
            return self.temporal(f.op, self.successors(strategies), subsets)
        raise TypeError(f"not a formula: {f!r}")

    def _knows(self, agent, inner) -> frozenset:
        """K[agent]: true where every state with the same observation (own
        location, own variables, global variables) satisfies `inner`."""
        pos = self.agent_pos[agent]
        seen = [i for i, (owner, _) in enumerate(self.net.var_decls())
                if owner is None or owner == agent]
        classes: dict = {}
        for i, q in enumerate(self.states):
            obs = (q.locations[pos], tuple(q.values[k] for k in seen))
            classes.setdefault(obs, []).append(i)
        return frozenset(i for members in classes.values()
                         if all(j in inner for j in members) for i in members)

    def holds_initially(self, f) -> bool:
        return 0 in self.label(f)

    # -- path facts --------------------------------------------------------------
    def has_reachable_cycle(self, succ) -> bool:
        """Whether a productive cycle is reachable from the initial state."""
        colour = [0] * self.n
        stack = [(0, iter(succ[0]))]
        colour[0] = 1
        while stack:
            i, it = stack[-1]
            j = next(it, None)
            if j is None:
                colour[i] = 2
                stack.pop()
            elif colour[j] == 1:
                return True
            elif colour[j] == 0:
                colour[j] = 1
                stack.append((j, iter(succ[j])))
        return False
