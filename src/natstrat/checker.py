"""Query evaluation: universal temporal labelling over successor lists,
knowledge via observational indistinguishability, strategy verification
against a bound, and bounded brute-force strategy synthesis.

AX, AF, AG and A(U) are labelled at every state of an outcome at once, each
by one backward pass of `outcome.backward_fixpoint` over its successor
lists; a verdict at a state reads that state's label. Natural strategies are
memoryless, so a strategic operator whose strategy is fixed is labelled over
one outcome: the explored graph's successors restricted to that strategy
(`outcome.restrict`), the way synthesis checks each candidate from the state
in question. A state that reaches a state where matching fails raises the
StrategyError that exploring its outcome (`outcome.outcomes`) raises. Where
such an operator is the goal of another one, the other reads its whole
label set, not its value state by state.

Bounded synthesis enumerates candidates lazily, in canonical order, and
checks behaviours rather than candidates. On the one explored graph, a
candidate's behaviour is, for each coalition member and action, the states
where its matched rule allows that action, and the states where matching
fails, all int bitsets. Four exact prunings hold, the first three because
strategies are memoryless. A rule other than the last that fires nowhere
makes every candidate under its prefix equal to a cheaper one, already
checked, so that subtree is skipped. A candidate whose behaviour was
already checked is skipped. And a prefix is skipped when an earlier one dominates it: it left
the same state (the behaviours of the members done, and the states where
the current member's rules fired, per action), so each completion behaves
alike under both, and it used less cost, or as much cost and fewer rules,
or both equal in the same (complexity, rule count) bucket. The earlier
prefix with the same completion is then a candidate of an earlier bucket,
or earlier in the same one, so the skipped behaviour was already seen. The
last clause needs the same bucket: with both equal but the earlier prefix
from an earlier bucket, that completion lands in the later bucket, and
possibly after the skipped one (a search that allowed it reported False for
`<<Voter>>^4 F end` on voter_base, which is True). And a behaviour is
lost once it reaches a state outside the coalition's perfect-information
winning region, for F and U before the goal: every natural strategy is a
perfect-information one, and at a state where matching does not fail a
candidate's moves are the union of those of the choices it allows (each
member's last rule is ⊤, so it allows one wherever it has one), so a
candidate that wins from a state wins the game there. The region is
`label_universal`'s label of a game the space builds when first needed,
with the coalition's states as its block, once per operator and goal sets.
A space is fixed by its graph, member set and vocabulary (by default the
members', in name order).

A new behaviour is decided without building its outcome: one pass from the
start over each state's moves, stored per coalition as target lists
grouped by the actions they check, stops at the first state where matching
fails or that lies outside the region, which for G decides, as its region
lies inside the goal. For F and U the pass stops at the goal, a second one
walks past it only for matching errors, and the states of the first are
labelled; X labels the visited states' successor sets. The enumeration cap
counts canonical positions, skipped ones included, so it fires where a
full enumeration would.

Truth values are three-valued at the result level: True, False, or None
("unknown", produced only when an enumeration cap is hit inside synthesis).
"""

from __future__ import annotations

import functools
import itertools
import operator
import time
from dataclasses import dataclass, field
from typing import (
    Callable, Collection, Hashable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union,
)

from .errors import DefinitionError, ResourceLimitError
from .formula import (
    FAnd, FAtom, FImplies, FNot, FOr, Formula, Knows, Strategic, check_goals,
)
from .model import (
    DEFAULT_STATE_CAP, TRUE, WAIT_ACTION, And, Comparison, GlobalState, GuardExpr,
    LocAtom, Network, Not, Or, StateGraph, VarAtom, _compiled, explore, nodes,
)
from .outcome import _bad_witness, backward_fixpoint, outcomes, restrict
from .strategy import (
    WILDCARD, CollectiveStrategy, NaturalStrategy, Rule, _check_members, complexity,
)

Verdict = Optional[bool]


@dataclass
class CheckStats:
    states_explored: int = 0
    strategies_enumerated: int = 0
    strategies_checked: int = 0
    wall_time: float = 0.0


@dataclass
class CheckResult:
    verdict: Verdict
    witness_strategy: Optional[CollectiveStrategy] = None
    witness_path: tuple[int, ...] = ()
    reason: str = ""
    stats: CheckStats = field(default_factory=CheckStats)
    # the explored graph whose states witness_path indexes
    graph: Optional[StateGraph] = field(default=None, repr=False, compare=False)

    def __bool__(self):
        return bool(self.verdict)


# ---------------------------------------------------------------------------
# Universal temporal labelling on successor lists

def label_universal(succ: Sequence[Collection[int]], op: str,
                    subgoals: Sequence[set[int]], some: range = range(0)) -> set[int]:
    """States where AX/AF/AG/A(U) of the pre-labelled state sets holds over
    every maximal trace of the successor lists (`succ[i]`: the productive
    successors of state i), each in one backward pass: AF g = A(true U g),
    and AG g is the complement of backward reachability of the states
    outside g. A terminal state satisfies every AX. On a game, `some` is
    the block of nodes where the coalition picks the successor: F and U
    pass it to `backward_fixpoint`, and G gives the nodes after it to the
    opponent, so the label is the coalition's winning region."""
    if op == "X":
        return {i for i, outs in enumerate(succ)
                if all(j in subgoals[0] for j in outs)}
    if op == "F":
        return set(backward_fixpoint(succ, subgoals[0], some=some))
    if op == "G":
        unsafe = [i for i in range(len(succ)) if i not in subgoals[0]]
        every = range(len(succ))
        return set(every).difference(backward_fixpoint(succ, unsafe, some=every[some.stop:]))
    if op == "U":
        return set(backward_fixpoint(succ, subgoals[1], allowed=subgoals[0], some=some))
    raise DefinitionError(f"unknown temporal operator {op}")


_FAILURE_REASONS = {
    "X": "a successor falsifies the X-subformula",
    "F": "a maximal trace avoids the goal",
    "G": "a reachable state falsifies the G-subformula",
    "U": "a maximal trace falsifies the until",
}


def check_temporal_universal(succ: Sequence[Sequence[int]], op: str,
                             subgoals: Sequence[set[int]],
                             start: int = 0) -> CheckResult:
    """Check AX/AF/AG/A(U) of pre-labeled state sets over all maximal traces
    of the successor lists from state `start`. Returns a counterexample
    path or lasso on failure; an AX one goes to the first violating
    successor in index order."""
    return _check_at(succ, op, subgoals, label_universal(succ, op, subgoals), start)


def _check_at(succ: Sequence[Sequence[int]], op: str, subgoals: Sequence[set[int]],
              good: set[int], start: int) -> CheckResult:
    """`check_temporal_universal` given `good`, the states that
    `label_universal(succ, op, subgoals)` labels."""
    if start in good:
        return CheckResult(True)
    if op == "X":
        path = (start, next(j for j in succ[start] if j not in subgoals[0]))
    else:
        # an AG counterexample runs to a state outside g, an AF or A(U) one
        # stays outside the label
        path = _bad_witness(succ, start, subgoals[0] if op == "G" else good)
    return CheckResult(False, witness_path=path, reason=_FAILURE_REASONS[op])


# ---------------------------------------------------------------------------
# Knowledge

def observation(net: Network, agent: str, s: int) -> int:
    """What `agent` observes in the state whose key is s: the bits of its own
    location, its local variables and all global variables. Two states look
    alike to the agent iff their observations are equal."""
    return _compiled(net).observer(net, agent)(s)


def indistinguishability_classes(graph: StateGraph, agent: str) -> dict:
    see = _compiled(graph.net).observer(graph.net, agent)
    classes: dict = {}
    for i, s in enumerate(graph.keys):
        classes.setdefault(see(s), set()).add(i)
    return classes


# ---------------------------------------------------------------------------
# Strategic verification

def _complexity_gate(net: Network, coalition: Iterable[str], k: int,
                     s_A: CollectiveStrategy) -> Optional[CheckResult]:
    """Strict gating of a supplied strategy: a strategy for another coalition,
    or a member's strategy written for another agent, is a definition error,
    and one above the bound makes the operator false (the returned result);
    None when the strategy may be checked."""
    if frozenset(coalition) != frozenset(s_A):
        raise DefinitionError(
            f"strategy covers {sorted(s_A)} but the coalition is {sorted(coalition)}")
    _check_members(net, s_A)
    c = complexity(s_A)
    return CheckResult(False, reason=f"complexity {c} exceeds bound {k}") if c > k else None


_Goal = Union[GuardExpr, Callable[[GlobalState], bool]]


def _goal_states(graph: StateGraph, goals: Sequence[_Goal]) -> list[set[int]]:
    """The states of the graph where each goal holds: a guard is labelled on
    the state keys (`StateGraph.satisfying`), a predicate is called on each
    decoded state."""
    decode = _compiled(graph.net).decode
    return [{i for i, key in enumerate(graph.keys) if goal(decode(key))} if callable(goal)
            else graph.satisfying(goal) for goal in goals]


def verify_strategic(net: Network, q: Optional[GlobalState], coalition: Iterable[str],
                     k: int, op: str, goals: Sequence[_Goal], s_A: CollectiveStrategy,
                     state_cap: int = DEFAULT_STATE_CAP) -> CheckResult:
    """<<coalition>>^<=k op(goals) with a supplied strategy: true iff the
    collective complexity is within the bound (strict gating) and the
    universal temporal check holds on the strategy's outcome; a
    counterexample path indexes the states of that outcome (`graph`). An
    unknown coalition member, or a number of goals that `op` does not take,
    is a DefinitionError, whatever the bound."""
    t0 = time.perf_counter()
    coalition = list(coalition)
    for agent in coalition:
        net.agent(agent)  # unknown coalition member -> DefinitionError
    check_goals(op, goals)
    gated = _complexity_gate(net, coalition, k, s_A)
    if gated is not None:
        gated.stats = CheckStats(wall_time=time.perf_counter() - t0)
        return gated
    graph = outcomes(net, q, s_A, state_cap=state_cap)
    res = check_temporal_universal(graph.succ, op, _goal_states(graph, goals))
    res.witness_strategy = dict(s_A)
    res.graph = graph
    res.stats = CheckStats(states_explored=graph.n_states,
                           wall_time=time.perf_counter() - t0)
    return res


# ---------------------------------------------------------------------------
# Strategy synthesis

@dataclass(frozen=True)
class SynthesisConfig:
    enumeration_cap: int = 200_000


def _guards_of_cost(graph: StateGraph, vocab: Sequence[GuardExpr], cost: int,
                    memo: dict) -> list[tuple[str, GuardExpr, int]]:
    """All guards of exactly `cost` symbols over the vocabulary, each with
    its printed form and its truth set over the graph's states (an int
    bitset, bit i for state i): atoms cost 1, negation adds 1, each binary
    connective adds 1. Deduplicated by printed form; double negation
    skipped, and a chain of `&&` or `||` built left-nested only, as it
    prints and parses (no `a && (b && c)` beside `a && b && c`). Only atoms
    are evaluated; every other truth set is built from its parts'."""
    if cost in memo:
        return memo[cost]
    out: list[tuple[str, GuardExpr, int]] = []
    seen: set[str] = set()

    def add(g: GuardExpr, truth: int):
        txt = str(g)
        if txt not in seen:
            seen.add(txt)
            out.append((txt, g, truth))

    if cost == 1:
        for atom in vocab:
            add(atom, sum(1 << i for i in graph.satisfying(atom)))
    elif cost >= 2:
        full = (1 << graph.n_states) - 1
        for _, sub, truth in _guards_of_cost(graph, vocab, cost - 1, memo):
            if not isinstance(sub, Not):
                add(Not(sub), full & ~truth)
        for lc in range(1, cost - 1):
            for _, left, lt in _guards_of_cost(graph, vocab, lc, memo):
                for _, right, rt in _guards_of_cost(graph, vocab, cost - 1 - lc, memo):
                    if not isinstance(right, And):
                        add(And(left, right), lt & rt)
                    if not isinstance(right, Or):
                        add(Or(left, right), lt | rt)
    memo[cost] = out
    return out


def default_vocabulary(net: Network, coalition: Sequence[str]) -> list[GuardExpr]:
    """Coalition-observable atoms: each member's own location atoms plus
    every comparison and 0/1-variable atom occurring in that member's edge
    guards. A location that another member also has is named Agent@loc."""
    vocab: list[GuardExpr] = []
    seen: set[str] = set()

    def add(g: GuardExpr):
        txt = str(g)
        if txt not in seen:
            seen.add(txt)
            vocab.append(g)

    for agent in coalition:
        tpl = net.agent(agent)
        shared = {loc for a in coalition if a != agent for loc in net.agent(a).locations}
        for loc in tpl.locations:
            add(LocAtom(agent, loc, qualified=loc in shared))
        for e in tpl.edges:
            for g in nodes(e.guard):
                if isinstance(g, (Comparison, VarAtom)):
                    add(g)
    return vocab


class _Option(NamedTuple):
    """A rule that one member's list may hold: its text as canonical order
    compares it ('~' for the wildcard), whether it is the final ⊤ rule, its
    guard's cost, and `live`, the states where its guard holds and its
    action is available."""
    text: str
    final: bool
    cost: int
    rule: Rule
    live: int


def _canonical(options: Callable[[int], Sequence[Sequence[_Option]]], k: int,
               extend: Callable[[object, int, _Option], object], root: object,
               key: Optional[Callable[[object], Hashable]] = None
               ) -> Iterator[tuple[int, object]]:
    """Collective strategies of complexity up to k, lazily, in canonical
    order: by complexity, then rule count, then the members' rule texts in
    turn (members in name order; `options(c)[m]` holds member m's options
    with guards of cost at most c, sorted by text). One depth-first search
    over rule slots per (complexity, rule count) bucket; a slot offers an
    option only if the slots still to fill can take the budget left.

    `extend(state, m, option)` folds a member's next rule into the state of
    a candidate prefix (`root` for the empty one), or returns None to skip
    every candidate under the prefix. Yields (position, state) for each
    candidate, with its 1-based canonical position and its full state, and
    for each skipped subtree, with None and the position of its last
    candidate; so the last position yielded is the number of candidates.
    The guards of a complexity level (fixed by the space's graph, member set
    and vocabulary) and its slot counts are built when the search reaches it.

    With a `key`, a prefix that is not a whole candidate is also skipped
    when an earlier prefix dominates it: one with an equal key that used
    less cost; or equal cost and fewer rules; or equal cost and rules in the
    same bucket. Equal keys must mean the same next member, and equal full
    states after every completion. The earlier prefix with the same
    completion is then a candidate at an earlier position, so no state is
    first seen under a dominated prefix. The memo lives for one run."""
    n = len(options(0))
    position = 0
    # key -> (cost used, rules used, -complexity, -rule count) of the last
    # prefix stored under it
    memo: Optional[dict] = None if key is None else {}

    def after(m: int, c: int, r: int, opt: _Option) -> tuple[int, int, int]:
        return (m + 1, c - 1, r - 1) if opt.final else (m, c - opt.cost, r - 1)

    for total in range(n, k + 1):
        level = options(total - n)

        @functools.cache
        def count(m: int, c: int, r: int) -> int:  # completions of a prefix
            if m == n:
                return int(c == r == 0)
            if c < 1 or r < 1:
                return 0
            return sum(count(*after(m, c, r, opt)) for opt in level[m])

        @functools.cache
        def slot(m: int, c: int, r: int) -> list[tuple[_Option, tuple[int, int, int], int]]:
            return [(opt, nxt, size) for opt in level[m]
                    for nxt in [after(m, c, r, opt)] if (size := count(*nxt))]

        def search(m: int, c: int, r: int, state: object):
            nonlocal position
            for opt, nxt, size in slot(m, c, r):
                state2 = extend(state, m, opt)
                if state2 is not None and memo is not None and nxt[0] < n:
                    # the stored prefix is from this bucket or an earlier one,
                    # so its value is <= this prefix's iff it dominates it
                    at, used = key(state2), (total - nxt[1], rules - nxt[2], -total, -rules)
                    stored = memo.get(at)
                    if stored is not None and stored <= used:
                        state2 = None
                    else:
                        memo[at] = used
                if state2 is None or nxt[0] == n:
                    position += size
                    yield position, state2
                else:
                    yield from search(*nxt, state2)

        for rules in range(n, total + 1):
            yield from search(0, total, rules, root)


class _Behaviours:
    """The candidates of one coalition and what they do on one explored
    graph, as int bitsets over its state indices (bit i for state i), with
    each state's moves as target lists.

    A member's rule fires at the states where its guard holds, its action
    (any action, for the wildcard) is available, and no earlier rule
    fired. A member's behaviour is, for each action it has, the states where
    a fired rule allows it, and its error set: the states where it has an
    action and no rule fired. A candidate's behaviour is its members'.
    Natural strategies are memoryless, so candidates with equal behaviours
    restrict the graph alike. Nothing here depends on the start or the goal,
    so one space serves every operator of its coalition (see `wins`). It is
    fixed by its graph, member set and vocabulary (by default the members',
    in name order); `coalition` only orders a witness's members."""

    def __init__(self, graph: StateGraph, coalition: Sequence[str],
                 vocab: Optional[Sequence[GuardExpr]] = None):
        self.graph = graph
        self.coalition = list(dict.fromkeys(coalition))  # the order of a witness
        self.agents = sorted(self.coalition)  # the order of a candidate's text
        self.vocab = default_vocabulary(graph.net, self.agents) if vocab is None else list(vocab)
        member = {a: m for m, a in enumerate(self.agents)}
        # per stored move id: its coalition actors, in actor order, with
        # their actions
        moves = graph.moves
        sides = {m: [(member[a], act) for a, act in zip(moves[m].actors, moves[m].actions)
                     if a in member]
                 for m in set(graph.move_ids)}
        # per member: action -> the states where it has that action in the
        # stored moves; `acts` lists those actions in order
        self.avail: list[dict[str, int]] = [{} for _ in self.agents]
        offsets, targets, move_ids, idle = graph.offsets, graph.targets, graph.move_ids, graph.idle
        for i in range(graph.n_states):
            bit = 1 << i
            for e in range(offsets[i], offsets[i + 1]):
                for m, act in sides[move_ids[e]]:
                    av = self.avail[m]
                    av[act] = av.get(act, 0) | bit
        self.acts = [sorted(av) for av in self.avail]
        index = [{a: j for j, a in enumerate(acts)} for acts in self.acts]
        # per member: its actions' states in `acts` order, and the slots of a
        # prefix state's fired bits, one per action and then the wildcard's
        self.avail_bits = [[av[a] for a in acts] for av, acts in zip(self.avail, self.acts)]
        self.slots = [{**idx, WILDCARD: len(idx)} for idx in index]
        self.unfired = [(0,) * len(slots) for slots in self.slots] + [()]
        self.ROOT = ((), 0, self.unfired[0], ())
        self.any = [functools.reduce(operator.or_, av.values(), 0) for av in self.avail]
        # per state: one (checks, targets) pair per distinct checks of its
        # stored moves, in first-seen order, with the targets of the non-idle
        # ones; checks pair each coalition actor, in actor order, with its
        # action's index, and are empty for a move no member takes part in
        checks = {m: tuple((a, index[a][act]) for a, act in side) for m, side in sides.items()}
        self.groups: list[tuple[tuple[tuple, tuple[int, ...]], ...]] = []
        for i in range(graph.n_states):
            groups: dict[tuple, list[int]] = {}
            for e in range(offsets[i], offsets[i + 1]):
                out = groups.setdefault(checks[move_ids[e]], [])
                if not idle[move_ids[e]]:
                    out.append(targets[e])
            self.groups.append(tuple((c, tuple(out)) for c, out in groups.items()))
        self._guards: dict = {}  # the memo of _guards_of_cost
        self._options_memo: dict[int, list[list[_Option]]] = {}
        self._game: Optional[list[Collection[int]]] = None  # see `game`
        self._regions: dict[tuple, Optional[set[int]]] = {}  # (op, *goals) -> `region`

    def options(self, max_cost: int) -> list[list[_Option]]:
        """Each member's options, sorted by text, with guards of cost at most
        `max_cost`, built once per cost; so, like the space, fixed by its
        graph, member set and vocabulary (by default the members', by name)."""
        if max_cost not in self._options_memo:
            guards = [(cost, txt, g, truth) for cost in range(1, max_cost + 1)
                      for txt, g, truth in _guards_of_cost(self.graph, self.vocab, cost,
                                                           self._guards)]
            self._options_memo[max_cost] = [self._options(m, guards)
                                            for m in range(len(self.agents))]
        return self._options_memo[max_cost]

    def _options(self, m: int, guards) -> list[_Option]:
        """Member m's options: every guarded rule over the guards and every
        final ⊤ rule, each action being one of the agent's edge actions (and
        `wait` for a lazy agent) or the wildcard."""
        tpl = self.graph.net.agent(self.agents[m])
        actions: list = sorted({e.action for e in tpl.edges})
        if tpl.lazy:
            actions = sorted(actions + [WAIT_ACTION])
        actions.append(WILDCARD)
        live = [self.any[m] if a is WILDCARD else self.avail[m].get(a, 0) for a in actions]
        heads = [(False, cost, txt, g, truth) for cost, txt, g, truth in guards]
        heads.append((True, 1, str(TRUE), TRUE, (1 << self.graph.n_states) - 1))
        out = [_Option(f"when {txt} do {'~' if a is WILDCARD else a};", final, cost,
                       Rule(g, a), truth & av)
               for final, cost, txt, g, truth in heads for a, av in zip(actions, live)]
        out.sort(key=lambda opt: (opt.text, opt.final))
        return out

    def extend(self, state, m: int, opt: _Option):
        """A candidate prefix's state with `opt` next in member m's list:
        the behaviour of the members done, the states covered by member m's
        rules so far, the states where they fired, as one union per action
        of `acts[m]` and one for the wildcard, and the options taken. None
        when `opt` is not final and fires nowhere, as then dropping it gives
        a cheaper candidate with the same behaviour."""
        done, covered, fired, path = state
        fire = opt.live & ~covered
        if not fire and not opt.final:
            return None
        fired = list(fired)
        if fire:
            fired[self.slots[m][opt.rule.action]] |= fire
        if not opt.final:
            return done, covered | fire, tuple(fired), path + (opt,)
        wild = fired.pop()
        if wild:
            fired = map(operator.or_, fired, map(wild.__and__, self.avail_bits[m]))
        behaviour = (tuple(fired), self.any[m] & ~(covered | fire))
        return done + (behaviour,), 0, self.unfired[m + 1], path + (opt,)

    # what the completions of a prefix depend on, `_canonical`'s key: its
    # state without the options taken (its members done fix the next one)
    key = operator.itemgetter(0, 1, 2)

    def game(self) -> list[Collection[int]]:
        """The coalition's perfect-information game on the graph, as
        successor lists: first the states, each leading to its choices, then
        one node per (state, choice), leading to the choice's successors. A
        choice gives each member with an action at the state one of them; a
        group passes when each of its checks names the chosen action (the
        group with no checks always passes), and the choice's successors
        are the targets of the groups that pass. Built when first needed."""
        if self._game is None:
            states: list[Collection[int]] = []
            choices: list[Collection[int]] = []
            n = self.graph.n_states
            for groups in self.groups:
                acts: dict[int, set[int]] = {}  # member -> its actions here
                for checks, _ in groups:
                    for m, act in checks:
                        acts.setdefault(m, set()).add(act)
                index = {combo: c for c, combo in enumerate(itertools.product(*acts.values()))}
                outs: list[set[int]] = [set() for _ in index]
                for checks, targets in groups:  # into each choice the group passes
                    fixed = dict(checks)
                    for combo in itertools.product(*([fixed[m]] if m in fixed else options
                                                     for m, options in acts.items())):
                        outs[index[combo]].update(targets)
                states.append(range(n + len(choices), n + len(choices) + len(outs)))
                choices.extend(outs)
            self._game = states + choices
        return self._game

    def region(self, op: str, goals: Sequence[set[int]]) -> Optional[set[int]]:
        """The states from which the coalition wins op(goals) in `game`:
        `label_universal`'s label of the game with the states as the
        coalition's block, every goal but the F or U target (goals[-1])
        holding the choice nodes. So a state joins F's and U's attractor
        once one of its choices has successors, all inside, and leaves G's
        region once each of its choices has a lost successor. None for X,
        and where the region holds every state, as it does where goals[-1]
        does (no game is built then): nothing is pruned. Computed once per
        op and goal sets.

        Every natural strategy is a perfect-information one. A candidate's
        member, whose last rule is ⊤, allows an action wherever it has one
        and matching does not fail, so there the candidate's moves are the
        union of those of the choices it allows, and a candidate that wins
        op(goals) from a state wins the game there."""
        n, key = self.graph.n_states, (op, *map(frozenset, goals))
        if key not in self._regions and op != "X" and len(goals[-1]) < n:
            game = self.game()
            lifted = [g.union(range(n, len(game))) for g in goals]
            if op != "G":  # a choice node is never an F or U target
                lifted[-1] = goals[-1]
            region = {i for i in label_universal(game, op, lifted, some=range(n)) if i < n}
            self._regions[key] = region if len(region) < n else None
        return self._regions.get(key)

    def _kept(self, i: int, behaviour) -> Optional[set[int]]:
        """The targets of state i's groups that the behaviour keeps, None
        where matching fails."""
        bit, out = 1 << i, set()
        for checks, targets in self.groups[i]:
            for m, act in checks:
                allowed, err = behaviour[m]
                if err & bit:
                    return None
                if not allowed[act] & bit:
                    break
            else:
                out.update(targets)
        return out

    def wins(self, start: int, behaviour, op: str, goals: Sequence[set[int]],
             region: Optional[set[int]]) -> bool:
        """Whether a candidate s_A with this behaviour wins op(goals) from
        `start`: no error state of `outcome.restrict(graph, s_A)` is
        reachable from `start` over its successor lists, and
        `label_universal` of those lists holds `start`. `region` is None or
        `self.region(op, goals)`, which holds every state from which such a
        candidate wins: so it is lost at a start outside the region, and at
        a state outside it that it reaches (for F and U, before the goal).

        One pass over the reachable states, in discovery order, reads each
        state's move groups through `_kept`, which matches as
        `strategy.strategy_filter` does: in actor order, the first coalition
        actor that refuses its action rejects the group, and a member's
        error counts only where one of its moves is checked. The pass
        returns False at the first state where matching fails or that lies
        outside the region, which for G (whose region, or else goal, it
        tests) decides. For F and U it stops at the goal's states; a second
        pass walks on from them only for matching errors, and the label
        reads the first pass's successor sets, with the goal's states as
        sinks, which labels `start` alike.
        X labels the successor sets of every visited state."""
        if region is None and op == "G":
            region = goals[0]
        if region is not None and start not in region:
            return False
        kept = self._kept
        stop = goals[-1] if op in ("F", "U") else ()
        # visited state -> its successors, empty past the goal
        succ: dict[int, Collection[int]] = {start: ()}
        todo = [start]  # the states visited before the goal, in discovery order
        later: list[int] = []  # then the goal's states reached and those past them
        for i in todo:
            if i in stop:
                later.append(i)
                continue
            if region is not None and i not in region:
                return False
            out = kept(i, behaviour)
            if out is None:
                return False
            succ[i] = out
            for j in out:
                if j not in succ:
                    succ[j] = ()
                    todo.append(j)
        if op == "G":
            return True
        lists: list[Collection[int]] = [()] * self.graph.n_states
        for i, out in succ.items():
            lists[i] = out
        for i in later:  # grows as the second pass reaches new states
            out = kept(i, behaviour)
            if out is None:
                return False
            for j in out:
                if j not in succ:
                    succ[j] = ()
                    later.append(j)
        return start in label_universal(lists, op, goals)

    def strategy(self, path: Sequence[_Option]) -> CollectiveStrategy:
        """The candidate whose options, member after member, are `path`."""
        rules: list[Rule] = []
        members = iter(self.agents)
        out = {}
        for opt in path:
            rules.append(opt.rule)
            if opt.final:
                agent = next(members)
                out[agent] = NaturalStrategy(agent=agent, rules=tuple(rules))
                rules = []
        return {a: out[a] for a in self.coalition}


def synthesize_strategic(net: Network, q: Optional[GlobalState],
                         coalition: Sequence[str], k: int, op: str,
                         goals: Sequence[_Goal],
                         vocabulary: Optional[Sequence[GuardExpr]] = None,
                         config: SynthesisConfig = SynthesisConfig(),
                         state_cap: int = DEFAULT_STATE_CAP) -> CheckResult:
    """Enumerate collective natural strategies lazily in canonical order --
    nondecreasing complexity up to k, then rule count, then the members'
    rule texts, members in name order and '~' for the wildcard -- and
    return the first one whose outcome passes the universal temporal check.
    False means the enumeration was exhaustive; a cap raises
    ResourceLimitError so that 'unknown' is never conflated with 'false'.
    An unknown coalition member, a negative k or a number of goals that
    `op` does not take is a DefinitionError; a k below the coalition size
    is False. The network is explored once from q, within `state_cap`, and
    each goal, a guard or a predicate, labelled once on it (`_goal_states`).

    Only the first candidate of each behaviour is checked, on int bitsets
    over that graph, stopping at its first error state or state outside
    the coalition's perfect-information winning region, which holds every
    state a winning candidate reaches (for F and U, before the goal), as
    every natural strategy is a perfect-information one
    (`_Behaviours.wins` and `region`); a rule other than the last that
    fires nowhere skips every candidate under its prefix, and so does a
    prefix that an earlier one dominates (the four exact prunings of the
    module docstring). The result's `stats.strategies_enumerated` is the
    canonical position reached, skipped candidates included, and
    `config.enumeration_cap` caps it; `stats.strategies_checked` counts the
    behaviours decided.
    `<<Voter>>^3 F end` on voter_base enumerates 1,192,464 candidates and
    checks 17,747."""
    t0 = time.perf_counter()
    for agent in coalition:
        net.agent(agent)  # unknown coalition member -> DefinitionError
    if k < 0:
        raise DefinitionError("complexity bound must be >= 0")
    check_goals(op, goals)
    if not coalition:
        return verify_strategic(net, q, [], k, op, goals, {}, state_cap=state_cap)
    graph = explore(net, start=q, state_cap=state_cap)
    res = _synthesize(_Behaviours(graph, coalition, vocabulary), graph.initial, k, op,
                      _goal_states(graph, goals), config,
                      CheckStats(states_explored=graph.n_states))
    res.stats.wall_time = time.perf_counter() - t0
    return res


def _synthesize(space: _Behaviours, start: int, k: int, op: str,
                subgoals: Sequence[set[int]], config: SynthesisConfig,
                stats: CheckStats) -> CheckResult:
    """<<coalition>>^<=k op(subgoals) at state `start` of the space's
    explored graph: the first candidate in canonical order whose restriction
    from `start` visits no state where matching a rule fails and labels
    `start`. Only the first candidate of each behaviour is decided, by
    `_Behaviours.wins` with `space.region(op, subgoals)`, asked for only
    past the bound check, which returns at the first error state it reaches
    and at the first state outside the region (for F and U, before the
    goal). The search counts into `stats`, which the result carries; past
    the cap, `stats` holds the counts of the capped search."""
    if k < len(space.coalition):
        # every member's strategy has at least the ⊤ rule, costing 1
        return CheckResult(False, reason=f"bound {k} below coalition size", stats=stats)
    region = space.region(op, subgoals)
    decided: set = set()
    for position, state in _canonical(space.options, k, space.extend, space.ROOT,
                                      space.key):
        stats.strategies_enumerated = position
        if position > config.enumeration_cap:
            stats.strategies_enumerated = config.enumeration_cap + 1
            raise ResourceLimitError(
                f"synthesis cap {config.enumeration_cap} exceeded "
                f"(verdict unknown)", partial=stats.strategies_enumerated)
        if state is None or state[0] in decided:
            continue
        behaviour, _, _, path = state
        decided.add(behaviour)
        stats.strategies_checked += 1
        if space.wins(start, behaviour, op, subgoals, region):
            cand = space.strategy(path)
            return CheckResult(True, witness_strategy=cand,
                               reason=f"witness of complexity {complexity(cand)}",
                               stats=stats)
    return CheckResult(False, reason="exhaustive enumeration", stats=stats)


# ---------------------------------------------------------------------------
# Formula evaluation

_UNKNOWN = object()
# (left, right) child values that alone fix a connective; the right one is its result
_FIXING_VALUES = {FAnd: (False, False), FOr: (True, True), FImplies: (False, True)}


class FormulaEvaluator:
    """Bottom-up, demand-driven labelling of a formula over the reachable
    graph of a network. A node needed at every state (an atom, K and its
    subformula, a strategic node's goals) is labelled once, as a state set;
    connectives are evaluated only at the states asked for, with no memo.

    Knowledge accessibility always ranges over the full reachable state
    space: an observer cannot condition what it knows on strategies it does
    not see. A strategic node whose strategy is fixed (an empty coalition,
    verify mode, or named witness strategies) is labelled once, at every
    state, over the explored graph restricted to that strategy, and a node
    above it that needs it at every state reads that label set whole; its
    counterexample is built only when it is the node reported. Other
    coalition nodes are decided per state by bounded synthesis on that graph,
    over one space per set of coalition members, which computes each
    winning region once; a witness lists the members in its node's order.
    A space is fixed by its graph, member set and vocabulary (the members'
    default one, in name order), so no search depends on the written order.
    In verify mode, a coalition node that names no witness strategies takes
    the first `supplied` collective strategy whose agents are its coalition.
    """

    def __init__(self, net: Network, mode: str = "verify",
                 supplied: Sequence[CollectiveStrategy] = (),
                 strategies_by_name: Optional[dict[str, NaturalStrategy]] = None,
                 synthesis: SynthesisConfig = SynthesisConfig(),
                 state_cap: int = DEFAULT_STATE_CAP):
        if mode not in ("verify", "synthesize"):
            raise DefinitionError(f"unknown mode {mode}")
        self.net = net
        self.mode = mode
        self.supplied = supplied
        self.strategies_by_name = strategies_by_name or {}
        self.synthesis = synthesis
        self.graph = explore(net, state_cap=state_cap)
        self._classes: dict[str, dict] = {}
        self._nodes: dict[int, Formula] = {}  # each node keyed below, so no later node takes its id
        self._labels: dict[int, object] = {}  # id(node) -> _label_set(node)
        self._fixed: dict[int, object] = {}  # id(node) -> _label_fixed(node)
        self._spaces: dict[frozenset[str], _Behaviours] = {}  # coalition members -> space
        # (id(node), state) -> result of a synthesis there, None if it hit the cap
        self._synthesized: dict[tuple[int, int], Optional[CheckResult]] = {}
        self.stats = CheckStats(states_explored=self.graph.n_states)

    def witness(self, f: Formula, i: int) -> Optional[CheckResult]:
        """Result of the strategic node and state that decided the evaluated
        formula f at state i (None if none did, or synthesis hit its cap).
        The walk goes to the child whose value alone fixes the result (the
        first evaluated one), else to the left child (∧ True, ∨ False) or the
        consequent (→ False); K False goes to a state of the class where its
        child is False, and unknown values to the first unknown child."""
        v = self.holds(f, i)
        if isinstance(f, FNot) or (isinstance(f, Knows) and v is True):
            return self.witness(f.sub, i)
        if isinstance(f, (FAnd, FOr, FImplies)):
            fix_l, fix_r = _FIXING_VALUES[type(f)]
            if self.holds(f.left, i) is (_UNKNOWN if v is _UNKNOWN else fix_l):
                return self.witness(f.left, i)
            if self.holds(f.right, i) is (_UNKNOWN if v is _UNKNOWN else fix_r):
                return self.witness(f.right, i)
            return self.witness(f.right if isinstance(f, FImplies) else f.left, i)
        if isinstance(f, Knows):
            states = range(self.graph.n_states) if v is _UNKNOWN else sorted(
                self.classes_for(f.agent)[observation(self.net, f.agent, self.graph.keys[i])])
            return self.witness(f.sub, next(j for j in states if self.holds(f.sub, j) is v))
        fixed = self._fixed.get(id(f), _UNKNOWN)
        if fixed is _UNKNOWN:  # an atom, or a node decided by synthesis or unknown
            return self._synthesized.get((id(f), i))
        if isinstance(fixed, CheckResult):
            return fixed
        s_A, succ, subgoals, labels, _ = fixed
        res = _check_at(succ, f.op, subgoals, labels, i)
        res.witness_strategy = dict(s_A)
        return res

    # -- helpers ------------------------------------------------------------
    def classes_for(self, agent: str) -> dict:
        if agent not in self._classes:
            self._classes[agent] = indistinguishability_classes(self.graph, agent)
        return self._classes[agent]

    def _strategy_for(self, node: Strategic) -> CollectiveStrategy:
        if node.witness:
            named = {}
            for agent, name in zip(node.coalition, node.witness):
                if name not in self.strategies_by_name:
                    raise DefinitionError(f"unknown strategy {name}")
                named[agent] = self.strategies_by_name[name]
            return named
        # otherwise: the first supplied strategy for exactly the coalition
        key = frozenset(node.coalition)
        for cand in self.supplied:
            if frozenset(cand) == key:
                return cand
        if not key:
            return {}
        raise DefinitionError(
            f"verify mode: no strategy supplied for coalition {sorted(key)}")

    # -- evaluation -----------------------------------------------------------
    def holds(self, f: Formula, i: int):
        """The value of f at state i: True, False or _UNKNOWN."""
        if isinstance(f, (FAtom, Knows)):
            labels = self._label_set(f)
            return _UNKNOWN if labels is _UNKNOWN else i in labels
        if isinstance(f, FNot):
            v = self.holds(f.sub, i)
            return _UNKNOWN if v is _UNKNOWN else (not v)
        if isinstance(f, (FAnd, FOr, FImplies)):
            fix_l, fix_r = _FIXING_VALUES[type(f)]
            l = self.holds(f.left, i)
            if l is fix_l:
                return fix_r
            r = self.holds(f.right, i)
            if r is fix_r:
                return fix_r
            return _UNKNOWN if l is _UNKNOWN or r is _UNKNOWN else not fix_r
        if isinstance(f, Strategic):
            return self._eval_strategic(f, i)
        raise TypeError(f"not a formula: {f!r}")

    def _label_set(self, f: Formula):
        """The states where f holds, or _UNKNOWN. A strategic node whose
        strategy is fixed reads its whole label set from its `_label_fixed`
        record. Other than that, an atom or K, f is evaluated at every state
        in index order. Either raises (again when asked again) at the first
        state that raises."""
        labels = self._labels.get(id(f))
        if labels is not None:
            return labels
        if isinstance(f, FAtom):
            labels = self.graph.satisfying(f.guard)
        elif isinstance(f, Knows):
            labels = self._label_set(f.sub)
            if labels is not _UNKNOWN:  # the classes the agent knows f.sub in
                labels = set().union(*(cls for cls in self.classes_for(f.agent).values()
                                       if cls <= labels))
        elif isinstance(f, Strategic) and self._is_fixed(f):
            labels = self._fixed_labels(f)
        else:
            labels = set()
            for i in range(self.graph.n_states):
                v = self.holds(f, i)
                if v is _UNKNOWN:
                    labels = _UNKNOWN
                    break
                if v:
                    labels.add(i)
        self._labels[id(f)] = labels
        self._nodes[id(f)] = f
        return labels

    def _goal_sets(self, node: Strategic):
        sets = []
        for sub in node.subs:
            labels = self._label_set(sub)
            if labels is _UNKNOWN:
                return _UNKNOWN
            sets.append(labels)
        return sets

    def _label_fixed(self, node: Strategic):
        """Label a node whose strategy is fixed at every state at once:
        (strategy, restricted successor lists, goal sets, label set, tainted
        states), the gate's CheckResult when the strategy exceeds the bound,
        or _UNKNOWN. Tainted states reach a state where matching a rule
        fails."""
        s_A = self._strategy_for(node)
        gated = _complexity_gate(self.net, node.coalition, node.bound, s_A)
        if gated is not None:
            return gated
        succ, errors = restrict(self.graph, s_A)
        subgoals = self._goal_sets(node)
        if subgoals is _UNKNOWN:
            return _UNKNOWN
        tainted = backward_fixpoint(succ, errors, some=range(len(succ)))
        return s_A, succ, subgoals, label_universal(succ, node.op, subgoals), tainted

    def _is_fixed(self, node: Strategic) -> bool:
        return node.is_universal or self.mode == "verify" or bool(node.witness)

    def _fixed_labels(self, node: Strategic, i: Optional[int] = None):
        """The label set of a node whose strategy is fixed, from its
        `_label_fixed` record (made once): empty when the gate rejects the
        strategy, or _UNKNOWN. Raises the StrategyError that
        verify_strategic raises at state i if i is tainted, or, with no i,
        at the least tainted state: exploring that state's outcome raises
        it. The outcome is part of the graph, so the graph's size caps it."""
        fixed = self._fixed.get(id(node))
        if fixed is None:
            fixed = self._fixed[id(node)] = self._label_fixed(node)
            self._nodes[id(node)] = node
        if fixed is _UNKNOWN:
            return _UNKNOWN
        if isinstance(fixed, CheckResult):
            return set()
        s_A, _, _, labels, tainted = fixed
        if tainted and (i is None or i in tainted):
            start = min(tainted) if i is None else i
            outcomes(self.net, self.graph.states[start], s_A, state_cap=self.graph.n_states)
        return labels

    def _eval_strategic(self, node: Strategic, i: int):
        if self._is_fixed(node):
            labels = self._fixed_labels(node, i)
            return _UNKNOWN if labels is _UNKNOWN else i in labels
        key = (id(node), i)
        if key not in self._synthesized:
            sets = self._goal_sets(node)
            if sets is _UNKNOWN:
                return _UNKNOWN
            members = frozenset(node.coalition)
            space = self._spaces.get(members)
            if space is None:
                space = self._spaces[members] = _Behaviours(self.graph, node.coalition)
            self._nodes[id(node)] = node
            stats = CheckStats(states_explored=self.graph.n_states)
            try:
                res = _synthesize(space, i, node.bound, node.op, sets, self.synthesis, stats)
            except ResourceLimitError:
                res = None
            finally:  # a capped search's counts are reported too
                self.stats.strategies_enumerated += stats.strategies_enumerated
                self.stats.strategies_checked += stats.strategies_checked
            if res is not None and res.witness_strategy:  # in the node's member order
                res.witness_strategy = {a: res.witness_strategy[a] for a in node.coalition}
            self._synthesized[key] = res
        res = self._synthesized[key]
        return _UNKNOWN if res is None else res.verdict


def eval_formula(net: Network, f: Formula, q: Optional[GlobalState] = None,
                 mode: str = "verify",
                 supplied: Sequence[CollectiveStrategy] = (),
                 strategies_by_name: Optional[dict[str, NaturalStrategy]] = None,
                 synthesis: SynthesisConfig = SynthesisConfig(),
                 state_cap: int = DEFAULT_STATE_CAP) -> CheckResult:
    """Evaluate a formula at state q (default: the initial state)."""
    t0 = time.perf_counter()
    ev = FormulaEvaluator(net, mode=mode, supplied=supplied,
                          strategies_by_name=strategies_by_name,
                          synthesis=synthesis, state_cap=state_cap)
    q0 = net.initial_state() if q is None else q
    if q0 not in ev.graph:
        raise DefinitionError("state to check is not reachable from the initial state")
    v = ev.holds(f, ev.graph.index_of(q0))
    stats = CheckStats(states_explored=ev.graph.n_states,
                       strategies_enumerated=ev.stats.strategies_enumerated,
                       strategies_checked=ev.stats.strategies_checked,
                       wall_time=time.perf_counter() - t0)
    verdict: Verdict = None if v is _UNKNOWN else bool(v)
    witness = ev.witness(f, ev.graph.index_of(q0))
    if witness is None:
        witness = CheckResult(None)
    reason = witness.reason or ("enumeration cap hit (unknown)" if verdict is None else "")
    return CheckResult(verdict, witness_strategy=witness.witness_strategy,
                       witness_path=witness.witness_path, reason=reason, stats=stats,
                       graph=ev.graph)
