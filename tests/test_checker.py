import collections

import pytest
from hypothesis import event, given, settings, strategies as st

from natstrat.checker import (
    FormulaEvaluator, SynthesisConfig, check_temporal_universal, eval_formula,
    synthesize_strategic, verify_strategic,
)
from natstrat.casestudy import build_voter
from natstrat.dsl import (
    parse_formula, parse_guard_text, parse_network, parse_strategy,
)
from natstrat.errors import DefinitionError, StrategyError
from natstrat.formula import FAtom, FNot, Strategic
from natstrat.model import LocAtom, TrueConst, eval_guard, or_all
from natstrat.outcome import outcomes, restrict
from natstrat.strategy import WILDCARD, NaturalStrategy, Rule, fix_strategy

from conftest import count_explore, out_edges


# -- direct spec examples --------------------------------------------------------

def test_ag_true_everywhere(base):
    og = outcomes(base.network, None, {})
    assert check_temporal_universal(og.succ, "G", [set(range(og.n_states))]).verdict


def test_af_end_on_fixed_model(base):
    from natstrat.strategy import fix_strategy
    fixed = fix_strategy(base.network, {"Voter": base.strategies["cast_verify"]})
    og = outcomes(fixed, None, {})
    end = og.satisfying(parse_guard_text("end", fixed))
    assert check_temporal_universal(og.succ, "F", [end]).verdict is True


def test_af_error_false_with_counterexample(base):
    net = base.network
    og = outcomes(net, None, {"Voter": base.strategies["cast_verify"]})
    err = og.satisfying(parse_guard_text("error", net))
    res = check_temporal_universal(og.succ, "F", [err])
    assert res.verdict is False
    assert res.witness_path
    assert all(i not in err for i in res.witness_path)


def test_verify_strategic_table(base, check4, full75):
    def run(bundle, sname, bound, goal_text):
        net = bundle.network
        goal = parse_guard_text(goal_text, net)
        s = bundle.strategies[sname]
        return verify_strategic(net, None, [s.agent], bound, "F",
                                [lambda q: eval_guard(goal, q, net)],
                                {s.agent: s}).verdict

    assert run(base, "cast_verify", 15, "end") is True
    assert run(base, "cast_verify", 14, "end") is False
    assert run(base, "cast_verify_extra_checks", 21,
               "checked1 && checked3 && end") is True
    assert run(check4, "cast_verify_split_check4", 17,
               "checked4 && checked4_1 && checked4_2") is True
    assert run(full75, "cast_verify_symbolwise", 29,
               "checked4 && wbb_checked_sn && receipt_checked_sn && checked4_1 "
               "&& wbb_checked_pr && receipt_checked_pr && checked4_2") is True


def test_verify_psi_without_finish_rule(base):
    net = base.network
    s = base.strategies["cast_verify"].without_rule(8)
    goal = parse_guard_text("check4_ok || check4_fail", net)
    res = verify_strategic(net, None, ["Voter"], 12, "F",
                           [lambda q: eval_guard(goal, q, net)], {"Voter": s})
    assert res.verdict is True
    assert verify_strategic(net, None, ["Voter"], 11, "F",
                            [lambda q: eval_guard(goal, q, net)],
                            {"Voter": s}).verdict is False


def test_k_monotonicity_verify(base):
    net = base.network
    goal = parse_guard_text("end", net)
    s = base.strategies["cast_verify"]
    verdicts = [verify_strategic(net, None, ["Voter"], k, "F",
                                 [lambda q: eval_guard(goal, q, net)],
                                 {"Voter": s}).verdict
                for k in range(10, 22)]
    assert verdicts == [False] * 5 + [True] * 7


def test_coalition_strategy_mismatch(base):
    s = base.strategies["cast_verify"]
    with pytest.raises(DefinitionError):
        verify_strategic(base.network, None, ["Voter", "Ghost"], 15, "F",
                         [lambda q: True], {"Voter": s})


def test_unknown_coalition_member_is_a_definition_error_at_any_bound(base):
    # checked before the complexity gate, which alone would report False
    net = base.network
    ghost = {"Ghost": base.strategies["cast_verify"]}
    for k in (0, 15):
        with pytest.raises(DefinitionError, match="unknown agent Ghost"):
            verify_strategic(net, None, ["Ghost"], k, "F", [lambda q: True], ghost)


def test_a_strategy_for_another_agent_is_a_definition_error_at_any_bound(punisher):
    # the Voter's strategy handed to the Coercer: above the bound as well,
    # where the complexity gate alone would report False
    net = punisher.network
    voter_any = parse_strategy("strategy voter_any for Voter { when true do *; }", net)
    message = "^strategy voter_any is for Voter, not Coercer$"
    for k in (0, 5):
        with pytest.raises(DefinitionError, match=message):
            verify_strategic(net, None, ["Coercer"], k, "F", [TrueConst()],
                             {"Coercer": voter_any})
        with pytest.raises(DefinitionError, match=message):
            eval_formula(net, parse_formula(f"<<Coercer:voter_any>>^{k} F true", net),
                         strategies_by_name={"voter_any": voter_any})
    with pytest.raises(DefinitionError, match=message):
        outcomes(net, None, {"Coercer": voter_any})
    with pytest.raises(DefinitionError, match=message):
        fix_strategy(net, {"Coercer": voter_any})


def test_a_number_of_goals_the_operator_does_not_take_is_a_definition_error(
        base, monkeypatch):
    # checked before anything is explored, whatever the bound
    calls = count_explore(monkeypatch)
    net = base.network
    s = base.strategies["cast_verify"]
    end, false = parse_guard_text("end", net), parse_guard_text("false", net)
    for op, goals in (("F", [end, false]), ("F", []), ("U", [end]), ("X", []), ("G", [end, end])):
        takes = 2 if op == "U" else 1
        message = rf"^temporal operator {op} takes {takes} goal\(s\), got {len(goals)}$"
        for k in (0, 15):
            with pytest.raises(DefinitionError, match=message):
                verify_strategic(net, None, ["Voter"], k, op, goals, {"Voter": s})
            with pytest.raises(DefinitionError, match=message):
                synthesize_strategic(net, None, ["Voter"], k, op, goals)
        with pytest.raises(DefinitionError, match=message):
            Strategic(("Voter",), 3, op, tuple(FAtom(g) for g in goals))
    assert calls == []


def test_universal_quantifier_identity(base):
    """<<>>^0 gamma coincides with the universal check on the unpruned graph."""
    net = base.network
    og = outcomes(net, None, {})
    for goal_text in ("end", "error", "has_ballot", "true"):
        goal = parse_guard_text(goal_text, net)
        goal_set = og.satisfying(goal)
        direct = check_temporal_universal(og.succ, "F", [goal_set]).verdict
        via_formula = eval_formula(net, parse_formula(f"A F {goal_text}", net))
        assert via_formula.verdict == direct


def test_dispute_resolution(base):
    res = eval_formula(base.network, base.formulas["dispute_resolution"],
                       strategies_by_name=base.strategies)
    assert res.verdict is True


def test_atom_at_own_state(base):
    res = eval_formula(base.network, parse_formula("start", base.network))
    assert res.verdict is True
    res2 = eval_formula(base.network, parse_formula("end", base.network))
    assert res2.verdict is False


def test_ax_and_au(base):
    net = base.network
    og = outcomes(net, None, {})
    printing = og.satisfying(parse_guard_text("printing", net))
    start_or_printing = og.satisfying(parse_guard_text("start || printing", net))
    # from start, the only productive move is enter -> printing
    assert check_temporal_universal(og.succ, "X", [printing]).verdict is True
    assert check_temporal_universal(og.succ, "U", [start_or_printing, printing]).verdict


# -- random-graph oracle ----------------------------------------------------------

def _automaton(n, edges):
    lines = [f"agent G {{ init s0;"]
    lines += [f"loc s{i};" for i in range(1, n)]
    for k, (a, b) in enumerate(edges):
        lines.append(f"edge s{a} -> s{b} on e{k};")
    lines.append("}")
    return parse_network(" ".join(lines), name="rand")


def _adjacency(og):
    return {i: sorted(set(og.succ[i])) for i in range(og.n_states)}


def _af_oracle_paths(succ, start, goal):
    """Naive: enumerate maximal paths, truncating at the first revisit."""
    def ok(u, onpath):
        if u in goal:
            return True
        if u in onpath or not succ[u]:
            return False
        return all(ok(v, onpath | {u}) for v in succ[u])
    return ok(start, frozenset())


def _au_oracle_paths(succ, start, hold, until):
    def ok(u, onpath):
        if u in until:
            return True
        if u not in hold or u in onpath or not succ[u]:
            return False
        return all(ok(v, onpath | {u}) for v in succ[u])
    return ok(start, frozenset())


def _ag_oracle(succ, start, safe):
    seen, stack = {start}, [start]
    while stack:
        u = stack.pop()
        if u not in safe:
            return False
        for v in succ[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return True


def _au_oracle_witness(succ, start, hold, until):
    """A(hold U until) fails iff, staying in hold-minus-until, the start can
    reach a state outside hold, a terminal, or a cycle."""
    region, stack = set(), [start]
    while stack:
        u = stack.pop()
        if u in until or u in region:
            continue
        if u not in hold:
            return False
        region.add(u)
        if not succ[u]:
            return False
        stack.extend(succ[u])
    color = {}
    for root in region:
        if root in color:
            continue
        dfs = [(root, iter([v for v in succ[root] if v in region]))]
        color[root] = 1
        while dfs:
            node, it = dfs[-1]
            adv = next(it, None)
            if adv is None:
                color[node] = 2
                dfs.pop()
            elif color.get(adv, 0) == 1:
                return False
            elif adv not in color:
                color[adv] = 1
                dfs.append((adv, iter([v for v in succ[adv] if v in region])))
    return True


def _af_oracle_witness(succ, start, goal):
    """Independent route for larger graphs: AF fails iff the goal-avoiding
    region reachable from start contains a terminal or a cycle."""
    if start in goal:
        return True
    region, stack = {start}, [start]
    while stack:
        u = stack.pop()
        for v in succ[u]:
            if v not in goal and v not in region:
                region.add(v)
                stack.append(v)
    for u in region:
        if not succ[u]:
            return False
    color = {}
    for root in region:
        if root in color:
            continue
        dfs = [(root, iter([v for v in succ[root] if v in region]))]
        color[root] = 1
        while dfs:
            node, it = dfs[-1]
            adv = next(it, None)
            if adv is None:
                color[node] = 2
                dfs.pop()
            elif color.get(adv, 0) == 1:
                return False
            elif adv not in color:
                color[adv] = 1
                dfs.append((adv, iter([v for v in succ[adv] if v in region])))
    return True


def _edges(draw, n, n_edges):
    """`n_edges` random edges over n locations, the first leaving s0, so
    that most graphs reach more than their initial state."""
    return [(0 if k == 0 else draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
            for k in range(n_edges)]


def _states_at(og, locations):
    """The reachable states of a `_automaton` graph at the given locations."""
    return {i for i in range(og.n_states) if int(og.states[i].locations[0][1:]) in locations}


def _graph_coverage(n, edges, labels, labels2) -> list[str]:
    """What an example of `_small_graph` reaches: one state or several, a
    state with no successor, and whether A F, A G and A U of its labels
    hold at the start."""
    og = outcomes(_automaton(n, edges), None, {})
    goal, hold = _states_at(og, labels), _states_at(og, labels2)
    out = ["one state" if og.n_states == 1 else "several states"]
    if not all(og.succ):
        out.append("a deadlock")
    for op, subs in (("F", [goal]), ("G", [goal]), ("U", [hold, goal])):
        holds = check_temporal_universal(og.succ, op, subs).verdict
        out.append(f"A {op} {'holds' if holds else 'fails'}")
    return out


@st.composite
def _small_graph(draw):
    """A random automaton of 1 to 12 locations (`_edges`) and two random
    sets of its locations. Each example is labelled with its
    `_graph_coverage`."""
    n = draw(st.integers(1, 12))
    edges = _edges(draw, n, draw(st.integers(0, min(2 * n, 18))))
    labels = frozenset(i for i in range(n) if draw(st.booleans()))
    labels2 = frozenset(i for i in range(n) if draw(st.booleans()))
    for label in _graph_coverage(n, edges, labels, labels2):
        event(label)
    return n, edges, labels, labels2


def test_small_graph_covers_several_states_and_both_verdicts():
    # the `ci` profile's sample is fixed, so what it covers can be counted:
    # of its 300 examples, 235 reach several states, 65 one state and 191 a
    # deadlock; A F holds in 175 and fails in 125, A G in 54 and 246, A U in
    # 142 and 158
    counts: collections.Counter = collections.Counter()

    @settings(settings.get_profile("ci"), database=None, deadline=None)
    @given(case=_small_graph())
    def count(case):
        counts.update(_graph_coverage(*case))
        counts["examples"] += 1

    count()
    assert counts["examples"] == 300
    assert counts["several states"] >= 150, counts
    assert counts["one state"] >= 30 and counts["a deadlock"] >= 100, counts
    for op in "FGU":
        assert min(counts[f"A {op} holds"], counts[f"A {op} fails"]) >= 30, counts


@settings(max_examples=120, deadline=None)
@given(case=_small_graph())
def test_temporal_matches_path_enumeration(case):
    n, edges, labels, labels2 = case
    net = _automaton(n, edges)
    og = outcomes(net, None, {})
    # hypothesis labels index locations; map to reachable state indices
    goal, hold = _states_at(og, labels), _states_at(og, labels2)
    succ = _adjacency(og)
    assert check_temporal_universal(og.succ, "F", [goal]).verdict == \
        _af_oracle_paths(succ, og.initial, goal)
    assert check_temporal_universal(og.succ, "G", [goal]).verdict == \
        _ag_oracle(succ, og.initial, goal)
    assert check_temporal_universal(og.succ, "U", [hold, goal]).verdict == \
        _au_oracle_paths(succ, og.initial, hold, goal)


def _size(og) -> str:
    """A graph's reachable states, bucketed."""
    return "one state" if og.n_states == 1 else \
        "2 to 9 states" if og.n_states < 10 else "10 or more states"


@st.composite
def _large_graph(draw):
    """A random automaton of 2 to 200 locations (`_edges`) and a goal set of
    at most a quarter of them."""
    n = draw(st.integers(2, 200))
    edges = _edges(draw, n, draw(st.integers(1, min(2 * n, 260))))
    goal_locs = draw(st.sets(st.integers(0, n - 1), max_size=max(1, n // 4)))
    return n, edges, goal_locs


def test_large_graph_covers_large_outcomes():
    # the `ci` profile's sample is fixed, so what it covers can be counted:
    # of its 300 examples, 107 reach 10 or more states, 155 from 2 to 9 and
    # 38 one state
    counts: collections.Counter = collections.Counter()

    @settings(settings.get_profile("ci"), database=None, deadline=None)
    @given(case=_large_graph())
    def count(case):
        counts[_size(outcomes(_automaton(*case[:2]), None, {}))] += 1
        counts["examples"] += 1

    count()
    assert counts["examples"] == 300
    assert counts["10 or more states"] >= 60 and counts["2 to 9 states"] >= 60, counts


@settings(max_examples=40, deadline=None)
@given(case=_large_graph())
def test_temporal_matches_witness_search_large(case):
    n, edges, goal_locs = case
    net = _automaton(n, edges)
    og = outcomes(net, None, {})
    event(_size(og))
    goal = _states_at(og, goal_locs)
    succ = _adjacency(og)
    assert check_temporal_universal(og.succ, "F", [goal]).verdict == \
        _af_oracle_witness(succ, og.initial, goal)
    assert check_temporal_universal(og.succ, "G", [goal]).verdict == \
        _ag_oracle(succ, og.initial, goal)


# -- universal labelling against a fresh per-state check ----------------------------

def _fresh(net, f, q, memo):
    """Truth of `f` (atoms, negation and universal nodes) at state q, each
    universal node checked by verify_strategic on its own outcome graph."""
    if isinstance(f, FAtom):
        return eval_guard(f.guard, q, net)
    if isinstance(f, FNot):
        return not _fresh(net, f.sub, q, memo)
    key = (id(f), q)
    if key not in memo:
        preds = [lambda s, sub=sub: _fresh(net, sub, s, memo) for sub in f.subs]
        memo[key] = verify_strategic(net, q, [], 0, f.op, preds, {}).verdict
    return memo[key]


def _assert_labels_match(net, formulas, stride=1):
    ev = FormulaEvaluator(net)
    memo = {}
    for f in formulas:
        for i in range(0, ev.graph.n_states, stride):
            assert ev.holds(f, i) == _fresh(net, f, ev.graph.states[i], memo), (str(f), i)


def _universal(op, *subs):
    return Strategic(coalition=(), bound=0, op=op, subs=subs)


def _at(locations):
    return FAtom(or_all(LocAtom("G", f"s{i}") for i in sorted(locations)))


@settings(max_examples=80, deadline=None)
@given(case=_small_graph())
def test_universal_labels_match_fresh_check(case):
    n, edges, labels, labels2 = case
    goal, hold = _at(labels), _at(labels2)
    _assert_labels_match(_automaton(n, edges), [
        _universal("X", goal), _universal("F", goal), _universal("G", goal),
        _universal("U", hold, goal),
        _universal("G", _universal("F", goal)),
        _universal("F", FNot(_universal("U", hold, goal))),
    ])


def test_universal_labels_match_fresh_check_lazy_agents(punisher):
    net = punisher.network
    _assert_labels_match(net, [parse_formula(t, net) for t in (
        "A X Voter@end", "A F Voter@end", "A G !(ca_v == 2)",
        "A (!(punished_v == 1) U Voter@end)", "A G A F Voter@end",
        "A G A F punished_v == 1")])


def test_universal_labels_match_fresh_check_nested_voter(base):
    net = base.network
    _assert_labels_match(net, [parse_formula(t, net) for t in (
        "A G A F end", "A G A F error", "A F A G end", "A (!end U A G !error)")])


def test_universal_labels_match_fresh_check_channels(infra_net):
    # every 11th state: a fresh check explores up to all 448 states
    net = infra_net
    _assert_labels_match(net, [parse_formula(t, net) for t in (
        "A X Printer@start", "A F EBM@wait", "A G !EBM@error",
        "A (!(has_account == 1) U Printer@start)")], stride=11)


def test_nested_universal_formula_explores_once(base, monkeypatch):
    calls = count_explore(monkeypatch)
    res = eval_formula(base.network, parse_formula("A G A F end", base.network))
    assert res.verdict is False
    assert len(calls) == 1


def test_false_verdict_keeps_its_counterexample(base):
    net = base.network
    res = eval_formula(net, parse_formula("A F end", net))
    assert res.verdict is False
    assert res.witness_path == (0, 1, 2, 3, 5, 7, 3)
    ev = FormulaEvaluator(net)
    assert res.witness_path[0] == ev.graph.index_of(net.initial_state())
    end = parse_guard_text("end", net)
    assert not any(eval_guard(end, ev.graph.states[i], net) for i in res.witness_path)


# -- fixed-strategy coalition labelling against a fresh per-state check ------------

def _outcome_at(check):
    """(verdict, reason) of a check, or the message of its StrategyError."""
    try:
        return check()
    except StrategyError as exc:
        return f"StrategyError: {exc}"


def _assert_coalition_labels_match(net, node, s_A):
    """At every reachable state, the evaluator's value of `node` and the
    reason it reports equal those of a fresh verify_strategic there, or both
    raise the same StrategyError. Returns how many states raised."""
    ev = FormulaEvaluator(net, supplied=[s_A])
    memo = {}
    preds = [lambda q, sub=sub: _fresh(net, sub, q, memo) for sub in node.subs]

    def evaluated(i):
        verdict = ev.holds(node, i)
        return verdict, ev.witness(node, i).reason

    def fresh(q):
        res = verify_strategic(net, q, node.coalition, node.bound, node.op, preds, s_A)
        return res.verdict, res.reason

    errors = 0
    for i, q in enumerate(ev.graph.states):
        got = _outcome_at(lambda: evaluated(i))
        assert got == _outcome_at(lambda: fresh(q)), (str(node), i)
        errors += isinstance(got, str)
    return errors


def _strategy_coverage(net, node, s) -> list[str]:
    """What an example of `_graph_and_strategy` reaches: a partial
    strategy, a state where matching it fails, and a node that holds at
    one state and fails at another where matching does not fail."""
    ev = FormulaEvaluator(net, supplied=[{"G": s}])
    out = [] if s.is_total else ["a partial strategy"]
    if restrict(ev.graph, {"G": s})[1]:
        out.append("an error state")
    values = set()
    for i in range(ev.graph.n_states):
        try:
            values.add(ev.holds(node, i))
        except StrategyError:
            pass
    if values == {True, False}:
        out.append("both values")
    return out


@st.composite
def _graph_and_strategy(draw):
    """A random automaton, a total or partial strategy for it over location
    guards (concrete actions and the wildcard), and a coalition node. Each
    example is labelled with its `_strategy_coverage`."""
    n, edges, labels, labels2 = draw(_small_graph())
    actions = [f"e{k}" for k in range(len(edges))] + [WILDCARD]
    rules = [Rule(_at(draw(st.frozensets(st.integers(0, n - 1)))).guard,
                  draw(st.sampled_from(actions)))
             for _ in range(draw(st.integers(0, 3)))]
    if not rules or draw(st.booleans()):
        rules.append(Rule(TrueConst(), draw(st.sampled_from(actions))))
    op = draw(st.sampled_from("XFGU"))
    subs = (_at(labels2), _at(labels)) if op == "U" else (_at(labels),)
    node = Strategic(coalition=("G",), bound=draw(st.integers(1, 20)), op=op, subs=subs)
    case = _automaton(n, edges), node, NaturalStrategy(agent="G", rules=tuple(rules))
    for label in _strategy_coverage(*case):
        event(label)
    return case


def test_graph_and_strategy_covers_errors_and_both_values():
    # the `ci` profile's sample is fixed, so what it covers can be counted:
    # of its 300 examples, 111 have a state where matching fails, 99 a
    # partial strategy and 42 a node that holds at one state and fails at
    # another
    counts: collections.Counter = collections.Counter()

    @settings(settings.get_profile("ci"), database=None, deadline=None)
    @given(case=_graph_and_strategy())
    def count(case):
        counts.update(_strategy_coverage(*case))
        counts["examples"] += 1

    count()
    assert counts["examples"] == 300
    assert counts["an error state"] >= 60 and counts["a partial strategy"] >= 50, counts
    assert counts["both values"] >= 20, counts


@settings(max_examples=150, deadline=None)
@given(case=_graph_and_strategy())
def test_coalition_labels_match_fresh_check(case):
    net, node, s = case
    _assert_coalition_labels_match(net, node, {"G": s})


def test_coalition_labels_match_fresh_check_voter(base):
    net = base.network
    s_A = {"Voter": base.strategies["cast_verify"]}
    for text in ("<<Voter>>^15 F end", "<<Voter>>^15 G !error", "<<Voter>>^15 X printing",
                 "<<Voter>>^15 (!error U end)", "<<Voter>>^14 F end"):
        assert _assert_coalition_labels_match(net, parse_formula(text, net), s_A) == 0


def test_coalition_labels_match_fresh_check_errors_at_some_states(base):
    net = base.network
    # `enter` is unavailable once the voter has voted, so matching fails there
    bad = parse_strategy("strategy bad for Voter { when !voted do *; when true do enter; }",
                         net)
    node = parse_formula("<<Voter>>^3 F end", net)
    errors = _assert_coalition_labels_match(net, node, {"Voter": bad})
    assert 0 < errors < FormulaEvaluator(net).graph.n_states


def test_error_reraised_is_the_first_one_exploration_expands():
    # s2 lists its move to s4 before its move to s3, while s3 has the lower
    # index; matching fails at both, so an exploration from s2 raises at s4
    net = _automaton(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (2, 3), (3, 5), (4, 5)])
    s = NaturalStrategy(agent="G", rules=(Rule(_at({0, 1, 2}).guard, WILDCARD),
                                          Rule(TrueConst(), "e0")))
    node = Strategic(coalition=("G",), bound=20, op="F", subs=(_at({5}),))
    assert _assert_coalition_labels_match(net, node, {"G": s}) == 5


def test_coalition_labels_match_fresh_check_lazy_agents(punisher):
    net = punisher.network
    s_A = {"Coercer": punisher.strategies["punish_disobedient"]}
    for text in ("<<Coercer>>^16 F punished_v == 1", "<<Coercer>>^16 G !(ca_v == 2)",
                 "<<Coercer>>^16 X Voter@voted", "<<Coercer>>^16 F A G Voter@end"):
        _assert_coalition_labels_match(net, parse_formula(text, net), s_A)


def test_nested_coalition_formula_explores_once(monkeypatch):
    bundle = build_voter("full", 30, 20)
    net = bundle.network
    calls = count_explore(monkeypatch)
    res = eval_formula(net, parse_formula("A G <<Voter:cast_verify_symbolwise>>^29 F end", net),
                       strategies_by_name=bundle.strategies)
    assert res.verdict is False
    assert len(calls) == 1


def test_empty_coalition_with_a_bound_is_universal_in_verify_mode(base):
    net = base.network
    got = eval_formula(net, parse_formula("<<>>^3 F end", net))
    want = eval_formula(net, parse_formula("A F end", net))
    assert got.verdict is want.verdict is False
    assert (got.reason, got.witness_path, got.witness_strategy) == \
        (want.reason, want.witness_path, want.witness_strategy)


def test_witness_comes_from_the_deciding_subformula(base):
    net = base.network
    supplied = [{"Voter": base.strategies["cast_verify"]}]
    avoids = "a maximal trace avoids the goal"
    gated = "complexity 15 exceeds bound 14"

    def reported(text, **kwargs):
        res = eval_formula(net, parse_formula(text, net), supplied=supplied, **kwargs)
        return res.verdict, res.reason, len(res.witness_path)

    assert reported("<<Voter>>^15 F end && A F end") == (False, avoids, 7)
    assert reported("<<Voter>>^14 F end && A F end") == (False, gated, 0)
    assert reported("<<Voter>>^15 F end && !<<Voter>>^14 F end") == (True, "", 0)
    assert reported("A F end || <<Voter>>^14 F end") == (False, avoids, 7)
    assert reported("A F end || <<Voter>>^15 F end") == (True, "", 0)
    assert reported("<<Voter>>^14 F end -> A F end") == (True, gated, 0)
    assert reported("<<Voter>>^15 F end -> A F end") == (False, avoids, 7)
    assert reported("K[Voter] A F end") == (False, avoids, 7)
    assert reported("K[Voter] <<Voter>>^15 F end") == (True, "", 0)
    # the right child's synthesis hits the cap: the verdict is unknown
    assert reported("A F end || <<Voter>>^2 F end", mode="synthesize",
                    synthesis=SynthesisConfig(enumeration_cap=10)) == \
        (None, "enumeration cap hit (unknown)", 0)


def test_ax_counterexample_takes_the_first_violating_successor_by_index():
    # a's stored edges go to c (index 3) before b (index 2); the reported
    # successor is the first in index order
    net = parse_network("""
agent T {
  init s0; loc a; loc b; loc c;
  edge s0 -> a on x;
  edge s0 -> b on y;
  edge a -> c on p;
  edge a -> b on q;
}""", name="ax_order")
    a = net.state(locations={"T": "a"})
    res = eval_formula(net, parse_formula("A X T@s0", net), q=a)
    assert res.verdict is False
    assert [res.graph.states[i].locations for i in res.witness_path] == [("a",), ("b",)]
    assert [t.target for t in out_edges(res.graph, res.witness_path[0])] == [3, 2]
