"""The formula evaluator that natstrat used before each formula node was
labelled once: `holds` memoizes every (node, state) value it computes, an
atom runs its compiled guard state by state, and `K[a] g` is decided at
each state by `eval_knows` over the whole label set of g, rebuilt from the
memo at every state. It is kept as the oracle of
`natstrat.checker.FormulaEvaluator` and `eval_formula`: verdicts, raised
errors, reasons, witnesses and synthesis counts."""

import time
from typing import Callable, Optional, Sequence

from natstrat.checker import (
    _FIXING_VALUES, _UNKNOWN, CheckResult, CheckStats, SynthesisConfig, Verdict,
    _Behaviours, _complexity_gate, _synthesize, check_temporal_universal,
    indistinguishability_classes, label_universal, observation,
)
from natstrat.errors import DefinitionError, ResourceLimitError
from natstrat.formula import FAnd, FAtom, FImplies, FNot, FOr, Formula, Knows, Strategic
from natstrat.model import DEFAULT_STATE_CAP, GlobalState, GuardExpr, Network, explore
from natstrat.outcome import backward_fixpoint, restrict
from natstrat.strategy import CollectiveStrategy, NaturalStrategy

import explore_oracle


def eval_knows(graph, agent: str, state_set: set[int], i: int,
               classes: Optional[dict] = None) -> bool:
    """True iff every state of the graph the agent cannot distinguish from
    state i belongs to `state_set`."""
    if classes is None:
        classes = indistinguishability_classes(graph, agent)
    return classes[observation(graph.net, agent, graph.keys[i])] <= state_set


class FormulaEvaluator:
    """Bottom-up, demand-driven labeling of a formula over the reachable
    graph of a network.

    Knowledge accessibility always ranges over the full reachable state
    space: an observer cannot condition what it knows on strategies it does
    not see. A strategic node whose strategy is fixed (an empty coalition,
    verify mode, or named witness strategies) is labelled once, at every
    state, over the explored graph restricted to that strategy; its
    counterexample is built only when it is the node reported. Other
    coalition nodes are decided per state by bounded synthesis on that graph.
    """

    def __init__(self, net: Network, mode: str = "verify",
                 supplied: Sequence[CollectiveStrategy] = (),
                 strategies_by_name: Optional[dict[str, NaturalStrategy]] = None,
                 vocabulary: Optional[Sequence[GuardExpr]] = None,
                 synthesis: SynthesisConfig = SynthesisConfig(),
                 state_cap: int = DEFAULT_STATE_CAP):
        if mode not in ("verify", "synthesize"):
            raise DefinitionError(f"unknown mode {mode}")
        self.net = net
        self.mode = mode
        self.supplied = supplied
        self.strategies_by_name = strategies_by_name or {}
        self.vocabulary = vocabulary
        self.synthesis = synthesis
        self.graph = explore(net, state_cap=state_cap)
        self._classes: dict[str, dict] = {}
        self._memo: dict[tuple[int, int], object] = {}
        self._atoms: dict[int, Callable] = {}  # id(atom node) -> its compiled guard
        self._fixed: dict[int, object] = {}  # id(node) -> _label_fixed(node)
        self._spaces: dict[int, _Behaviours] = {}  # id(node) -> its synthesis space
        # (id(node), state) -> result of a node decided by synthesis
        self._synthesized: dict[tuple[int, int], CheckResult] = {}
        self.stats = CheckStats(states_explored=self.graph.n_states)

    def witness(self, f: Formula, i: int) -> Optional[CheckResult]:
        """Result of the strategic node and state that decided the evaluated
        formula f at state i (None if none did, or synthesis hit its cap).
        The walk goes to the child whose value alone fixes the result (the
        first evaluated one), else to the left child (∧ True, ∨ False) or the
        consequent (→ False); K False goes to a state of the class where its
        child is False, and unknown values to the first unknown child."""
        v = self._memo[(id(f), i)]
        if isinstance(f, FNot) or (isinstance(f, Knows) and v is True):
            return self.witness(f.sub, i)
        if isinstance(f, (FAnd, FOr, FImplies)):
            l, r = (self._memo.get((id(sub), i)) for sub in (f.left, f.right))
            fix_l, fix_r = _FIXING_VALUES[type(f)]
            if l is (_UNKNOWN if v is _UNKNOWN else fix_l):
                return self.witness(f.left, i)
            if r is (_UNKNOWN if v is _UNKNOWN else fix_r):
                return self.witness(f.right, i)
            return self.witness(f.right if isinstance(f, FImplies) else f.left, i)
        if isinstance(f, Knows):
            states = (range(self.graph.n_states) if v is _UNKNOWN else self.classes_for(
                f.agent)[observation(self.net, f.agent, self.graph.keys[i])])
            return self.witness(f.sub, min(
                j for j in states if self._memo.get((id(f.sub), j)) is v))
        fixed = self._fixed.get(id(f), _UNKNOWN)
        if fixed is _UNKNOWN:  # an atom, or a node decided by synthesis or unknown
            return self._synthesized.get((id(f), i))
        if isinstance(fixed, CheckResult):
            return fixed
        s_A, succ, subgoals, _, _ = fixed
        res = check_temporal_universal(succ, f.op, subgoals, start=i)
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
        # otherwise: one supplied strategy set per coalition signature
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
        key = (id(f), i)
        if key not in self._memo:
            self._memo[key] = self._eval(f, i)
        return self._memo[key]

    def _eval(self, f: Formula, i: int):
        if isinstance(f, FAtom):
            holds = self._atoms.get(id(f))
            if holds is None:
                holds = self._atoms[id(f)] = self.graph.predicate(f.guard)
            return holds(self.graph.keys[i])
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
        if isinstance(f, Knows):
            state_set = self._label_set(f.sub)
            if state_set is _UNKNOWN:
                return _UNKNOWN
            return eval_knows(self.graph, f.agent, state_set, i,
                              classes=self.classes_for(f.agent))
        if isinstance(f, Strategic):
            return self._eval_strategic(f, i)
        raise TypeError(f"not a formula: {f!r}")

    def _label_set(self, f: Formula):
        out = set()
        for i in range(self.graph.n_states):
            v = self.holds(f, i)
            if v is _UNKNOWN:
                return _UNKNOWN
            if v:
                out.add(i)
        return out

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
        tainted = backward_fixpoint(succ, errors, some=True) if errors else errors
        return s_A, succ, subgoals, label_universal(succ, node.op, subgoals), tainted

    def _eval_strategic(self, node: Strategic, i: int):
        if node.is_universal or self.mode == "verify" or node.witness:
            if id(node) not in self._fixed:
                self._fixed[id(node)] = self._label_fixed(node)
            fixed = self._fixed[id(node)]
            if fixed is _UNKNOWN:
                return _UNKNOWN
            if isinstance(fixed, CheckResult):
                return fixed.verdict
            s_A, _, _, labels, tainted = fixed
            if i in tainted:
                # the StrategyError that verify_strategic raises here
                explore_oracle.outcomes(self.net, self.graph.states[i], s_A,
                                        state_cap=self.graph.n_states)
            return i in labels
        sets = self._goal_sets(node)
        if sets is _UNKNOWN:
            return _UNKNOWN
        space = self._spaces.get(id(node))
        if space is None:
            space = self._spaces[id(node)] = _Behaviours(self.graph, node.coalition,
                                                         self.vocabulary)
        stats = CheckStats(states_explored=self.graph.n_states)
        try:
            res = _synthesize(space, i, node.bound, node.op, sets, self.synthesis, stats)
        except ResourceLimitError:
            return _UNKNOWN
        finally:  # a capped search's counts are reported too
            self.stats.strategies_enumerated += stats.strategies_enumerated
            self.stats.strategies_checked += stats.strategies_checked
        self._synthesized[(id(node), i)] = res
        return res.verdict


def eval_formula(net: Network, f: Formula, q: Optional[GlobalState] = None,
                 mode: str = "verify",
                 supplied: Sequence[CollectiveStrategy] = (),
                 strategies_by_name: Optional[dict[str, NaturalStrategy]] = None,
                 vocabulary: Optional[Sequence[GuardExpr]] = None,
                 synthesis: SynthesisConfig = SynthesisConfig(),
                 state_cap: int = DEFAULT_STATE_CAP) -> CheckResult:
    """Evaluate a formula at state q (default: the initial state)."""
    t0 = time.perf_counter()
    ev = FormulaEvaluator(net, mode=mode, supplied=supplied,
                          strategies_by_name=strategies_by_name,
                          vocabulary=vocabulary, synthesis=synthesis,
                          state_cap=state_cap)
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
