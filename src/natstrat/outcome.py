"""Outcomes of collective strategies and the worst-case step metric.

The outcome of a collective strategy from a state is the reachable graph in
which every coalition member only takes actions its strategy prescribes
(first-match semantics), while all other agents behave freely. `outcomes`
explores it from one state, matching a member's rules once per projection
of a state on the fields its edges and rules read (see `model.explore`),
and raises the StrategyError of the first state it expands where matching
fails; `restrict` cuts it out of an explored graph as successor lists for
every state at once, in one pass in index order through one
`strategy.strategy_filter`, which matches once per distinct projection on
the fields the rules read and stored move ids, and returns the states
where matching fails. Both match by `strategy._matcher` at the same move
of each state, so they keep the same moves and fail at the same states;
the error a state's outcome raises comes from exploring that outcome.

`wait` self-loops are idle transitions: path-level analyses run under a weak
fairness assumption (no agent idles forever while a productive move is
enabled), which is realized by ignoring idle self-loops and treating states
with no productive move as terminal. Idle transitions never count toward
step totals. A state's successor list (`StateGraph.succ`, or what `restrict`
returns) holds its distinct productive successors in index order; maximal
traces are the infinite paths over these lists plus the finite ones ending
in a state whose list is empty.

`backward_fixpoint` is the one fixpoint routine: the checker's temporal
labels, of outcomes and of a coalition's game (its winning region), and
the step metric all run on it, and `checker.label_universal` is the one
place that maps F, G and U to it. A seed that is empty or holds every
state is its own result, found without reading a successor. It returns
each member's distance to the seed: its work list is first-in-first-out,
so a state joins on its farthest successor, or on its nearest one where
it picks the successor, and the distance is the min-max one of a
reachability game. Every witness path descends such a distance by the
first successor in list order one step nearer the seed (`_descend`):
that is a breadth-first search's first shortest path, or in the `all`
form the first successor with the largest distance. Steps are
decided with goal states as sinks: a reachable state outside EF goal
makes the goal unreachable, a start outside AF goal makes the steps
unbounded, and otherwise a state's distance in AF goal is its worst case.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Collection, Container, Iterable, Optional, Sequence

from .errors import StrategyError
from .model import (
    DEFAULT_STATE_CAP, GlobalState, GuardExpr, Network, StateGraph, explore,
)
from .strategy import CollectiveStrategy, strategy_filter


def outcomes(net: Network, q: Optional[GlobalState], s_A: CollectiveStrategy,
             state_cap: int = DEFAULT_STATE_CAP) -> StateGraph:
    """Explore out(q, s_A) directly, following only the moves s_A allows.
    Raises the StrategyError of the first state, in breadth-first order,
    where matching a rule fails."""
    return explore(net, start=q, state_cap=state_cap, s_A=s_A)


def restrict(graph: StateGraph, s_A: CollectiveStrategy
             ) -> tuple[list[Sequence[int]], list[int]]:
    """Successor lists of the explored graph keeping only the moves s_A
    allows at each state, and the states where matching a rule fails, in
    index order; those states get an empty tuple. With no coalition they
    are `graph.succ`. Strategies are memoryless, so out(q, s_A) is the part
    reachable from q. One `strategy_filter` serves every state, so the
    rules are matched once per distinct (projection on the fields they
    read, stored move ids), not once per state."""
    if not s_A:
        return graph.succ, []
    keep = strategy_filter(graph.net, s_A)
    succ: list[Sequence[int]] = [()] * graph.n_states
    errors: list[int] = []
    keys, offsets, move_ids, targets, idle = (
        graph.keys, graph.offsets, graph.move_ids, graph.targets, graph.idle)
    for i in range(graph.n_states):
        lo, hi = offsets[i], offsets[i + 1]
        ids = move_ids[lo:hi]
        try:  # a state's stored moves have distinct ids
            kept = keep(keys[i], ids)
        except StrategyError:
            errors.append(i)
            continue
        succ[i] = sorted({j for m, j in zip(ids, targets[lo:hi]) if m in kept and not idle[m]})
    return succ, errors


# ---------------------------------------------------------------------------
# The backward fixpoint behind every temporal label

def backward_fixpoint(succ: Sequence[Collection[int]], seed: Iterable[int],
                      allowed: Optional[Container[int]] = None,
                      some: range = range(0)) -> dict[int, int]:
    """Least set that contains `seed` and every state of `allowed` (default:
    every state) with a successor, all of whose successors are in it -- or,
    for a state of `some`, a range of consecutive states, one of whose
    successors is. With `some` every state, that is backward reachability;
    with a block of a game's states and choices, an attractor. `succ[i]`
    lists the distinct successors of state i. Returns each member's
    distance: 0 for a seed, else one more than the largest of its
    successors' distances (the smallest, for a state of `some`).

    One backward pass: each state counts its successors not yet in the set
    and joins when the count reaches zero, so the cost is linear in the
    number of edges. Over productive successors, the `all` form is A(h U g)
    and the `some` form is backward reachability E(h U g). The work list is
    first-in-first-out, so members are taken in order of distance: the
    successor whose turn makes a state join is its last, farthest one (its
    first, nearest one in `some`), and the distance is the min-max number
    of steps to the seed of a reachability game. An empty seed is the
    result at once, as no state joins without a successor in it, and so is
    a seed of every state (its indices are states).
    """
    dist = dict.fromkeys(seed, 0)
    if not dist or len(dist) == len(succ):
        return dist
    preds: list[list[int]] = [[] for _ in succ]
    for i, outs in enumerate(succ):
        for j in outs:
            preds[j].append(i)
    missing = [len(outs) for outs in succ]
    missing[some.start:some.stop] = [1] * len(some)
    queue = deque(dist)
    while queue:
        j = queue.popleft()
        for i in preds[j]:
            if i in dist or (allowed is not None and i not in allowed):
                continue
            missing[i] -= 1
            if missing[i] == 0:
                dist[i] = dist[j] + 1
                queue.append(i)
    return dist


# ---------------------------------------------------------------------------
# Worst-case steps to a goal

@dataclass
class StepsResult:
    kind: str                      # 'reached' | 'unreachable' | 'unbounded'
    value: Optional[int] = None    # worst-case first-occurrence index
    witness: tuple[int, ...] = ()  # state-index path (lasso: cycle appended)
    lasso_start: Optional[int] = None
    # the outcome graph whose states the witness indexes
    graph: Optional[StateGraph] = field(default=None, repr=False, compare=False)

    @property
    def reached(self) -> bool:
        return self.kind == "reached"


def _descend(succ: Sequence[Sequence[int]], start: int,
             dist: dict[int, int]) -> tuple[int, ...]:
    """The path from `start` down `dist`, a `backward_fixpoint` result, to
    its seed: at each state, the first successor in list order one step
    nearer. () when `start` is not a member."""
    path = [start]
    for d in reversed(range(dist.get(start, 0))):
        path.append(next(j for j in succ[path[-1]] if dist.get(j) == d))
    return tuple(path) if start in dist else ()


def _bad_witness(succ: Sequence[Sequence[int]], path: Sequence[int],
                 good: Container[int]) -> tuple[int, ...]:
    """`path` extended by the first successor outside `good` to a terminal
    or around a cycle, so the trace is recognizably maximal: from the start
    of an AF, A(U) or unbounded counterexample, or an AG one's descent."""
    path = list(path)
    seen = set(path)
    while (nxt := next((j for j in succ[path[-1]] if j not in good), None)) is not None:
        path.append(nxt)
        if nxt in seen:
            break
        seen.add(nxt)
    return tuple(path)


def steps_to_goal(net: Network, q: Optional[GlobalState], s_A: CollectiveStrategy,
                  goal: GuardExpr, state_cap: int = DEFAULT_STATE_CAP) -> StepsResult:
    """Worst case, over all maximal traces of out(q, s_A), of the index of the
    first goal state; 0 when the goal already holds at q. Counts every
    productive transition of the interleaved run; idle `wait` loops are
    excluded via the fairness convention.

    'unreachable': some maximal trace never visits the goal and cannot anymore
    (a trapped or terminal region). 'unbounded': every trace can still reach
    the goal but a pre-goal cycle makes the worst case infinite. Witnesses
    descend `backward_fixpoint` distances: the first shortest path to a
    trapped state, or the first successor with the largest worst case.
    """
    graph = outcomes(net, q, s_A, state_cap=state_cap)
    goals = graph.satisfying(goal)
    start = graph.initial
    # Goal states are sinks. A reachable state outside EF goal is trapped.
    succ = [() if i in goals else outs for i, outs in enumerate(graph.succ)]
    every = range(len(succ))
    dead = set(every).difference(backward_fixpoint(succ, goals, some=every))
    trapped = _descend(succ, start, backward_fixpoint(succ, dead, some=every))
    if trapped:
        return StepsResult("unreachable", witness=trapped, graph=graph)
    # Outside AF goal with no trap, some trace loops before the goal.
    sure = backward_fixpoint(succ, goals)
    if start not in sure:
        path = _bad_witness(succ, (start,), sure)
        return StepsResult("unbounded", witness=path, lasso_start=path.index(path[-1]),
                           graph=graph)

    # A state's distance in `sure` is its worst case, as goals are sinks.
    return StepsResult("reached", sure[start], witness=_descend(succ, start, sure),
                       graph=graph)
