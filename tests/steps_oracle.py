"""The worst-case step metric as natstrat computed it before it was decided
on `outcome.backward_fixpoint`: one depth-first pass from the start finds
the pre-goal region, the first cycle and a topological order, and a forward
longest-path pass over that order gives the value and the witness. It is
kept as the oracle of `natstrat.outcome.steps_to_goal`."""

from typing import Optional

from natstrat.model import DEFAULT_STATE_CAP, GlobalState, GuardExpr, Network
from natstrat.outcome import StepsResult, backward_fixpoint, outcomes, shortest_path
from natstrat.strategy import CollectiveStrategy


def steps_to_goal(net: Network, q: Optional[GlobalState], s_A: CollectiveStrategy,
                  goal: GuardExpr, state_cap: int = DEFAULT_STATE_CAP) -> StepsResult:
    """Worst case, over all maximal traces of out(q, s_A), of the index of the
    first goal state; 0 when the goal already holds at q.

    'unreachable': some maximal trace never visits the goal and cannot anymore
    (a trapped or terminal region). 'unbounded': every trace can still reach
    the goal but a pre-goal cycle makes the worst case infinite.
    """
    graph = outcomes(net, q, s_A, state_cap=state_cap)
    goal_set = graph.satisfying(goal)
    if graph.initial in goal_set:
        return StepsResult("reached", 0, witness=(graph.initial,), graph=graph)

    # Goal states are sinks. One depth-first pass from the start visits the
    # pre-goal region: a successor still on the stack closes a cycle, the
    # stack from it up being the loop; without one, the reversed finishing
    # order is a topological order of the region.
    succ = [[] if i in goal_set else outs for i, outs in enumerate(graph.succ)]
    depth = {graph.initial: 0}  # stack position of each node on the stack
    stack = [(graph.initial, iter(succ[graph.initial]))]
    order: list[int] = []
    region: set[int] = set()
    lasso: Optional[StepsResult] = None
    while stack:
        node, outs = stack[-1]
        nxt = next(outs, None)
        if nxt is None:
            stack.pop()
            del depth[node]
            region.add(node)
            order.append(node)
        elif nxt in depth:
            if lasso is None:
                lasso = StepsResult("unbounded", witness=tuple(n for n, _ in stack) + (nxt,),
                                    lasso_start=depth[nxt], graph=graph)
        elif nxt not in region:
            depth[nxt] = len(stack)
            stack.append((nxt, iter(succ[nxt])))

    region_goals = region & goal_set
    dead = region.difference(backward_fixpoint(succ, region_goals, some=range(len(succ))))
    if dead:
        return StepsResult("unreachable", witness=shortest_path(succ, graph.initial, dead),
                           graph=graph)
    if lasso is not None:
        return lasso

    # Acyclic pre-goal region: longest path to a goal state.
    order.reverse()
    dist = {graph.initial: 0}
    parent: dict[int, int] = {}
    for i in order:
        if i not in dist or i in goal_set:
            continue
        for j in succ[i]:
            if dist[i] + 1 > dist.get(j, -1):
                dist[j] = dist[i] + 1
                parent[j] = i
    worst = max(region_goals, key=lambda g: dist.get(g, -1))
    path = [worst]
    while path[-1] != graph.initial:
        path.append(parent[path[-1]])
    return StepsResult("reached", dist[worst], witness=tuple(reversed(path)), graph=graph)
