import collections
import itertools
import re
import tracemalloc

import pytest
from hypothesis import event, given, settings, strategies as st

from natstrat.casestudy import DATA_DIR, load, models
from natstrat.checker import (
    CheckStats, FormulaEvaluator, SynthesisConfig, _Behaviours, _canonical, _guards_of_cost,
    _synthesize, check_temporal_universal, default_vocabulary, eval_formula,
    synthesize_strategic, verify_strategic,
)
from natstrat.dsl import parse_formula, parse_guard_text, parse_network, print_strategy
from natstrat.errors import DefinitionError, ParseError, ResourceLimitError, StrategyError
from natstrat.model import (
    And, LocAtom, Not, Or, TrueConst, eval_guard, explore,
)
from natstrat.outcome import outcomes
from natstrat.strategy import WILDCARD, NaturalStrategy, Rule, complexity

import explore_oracle
import synthesis_oracle as oracle
import test_evaluator as evaluator_tests
from conftest import (
    count_explore, out_edges, predicates_of, result_facts, trap_net, two_state_net,
)


def three_action_net():
    # reaching the goal needs a distinct action at each of three stages,
    # so no strategy below complexity 3 can win
    return parse_network("""
agent T {
  init s0; loc s1; loc s2; loc w; loc t0; loc t1; loc t2;
  edge s0 -> s1 on a;  edge s0 -> t0 on b;  edge s0 -> t0 on c;
  edge s1 -> s2 on b;  edge s1 -> t1 on a;  edge s1 -> t1 on c;
  edge s2 -> w on c;   edge s2 -> t2 on a;  edge s2 -> t2 on b;
}""", name="threestage")


def _goal_pred(net, text):
    g = parse_guard_text(text, net)
    return lambda q: eval_guard(g, q, net)


# -- an independent brute-force oracle ----------------------------------------

def _oracle_guards(vocab, max_cost):
    """Every guard of cost <= max_cost over the vocabulary (plain recursive
    expansion, duplicates and all)."""
    by_cost = {1: list(vocab)}
    for cost in range(2, max_cost + 1):
        out = [Not(g) for g in by_cost[cost - 1]]
        for lc in range(1, cost - 1):
            for left in by_cost[lc]:
                for right in by_cost[cost - 1 - lc]:
                    out.append(And(left, right))
                    out.append(Or(left, right))
        by_cost[cost] = out
    result = []
    for cost in range(1, max_cost + 1):
        result.extend((g, cost) for g in by_cost[cost])
    return result


def brute_force_exists(net, agent, k, op, pred, vocab):
    """Check every guarded list of total complexity <= k (final rule ⊤),
    with no ordering, pruning or deduplication."""
    tpl = net.agent(agent)
    actions = sorted({e.action for e in tpl.edges}) + [WILDCARD]
    guards = _oracle_guards(vocab, max(0, k - 1))
    found = []
    for prefix_len in range(0, k):
        for combo in itertools.product(guards, repeat=prefix_len):
            used = sum(c for _, c in combo)
            if used > k - 1:
                continue
            guard_list = [g for g, _ in combo]
            for acts in itertools.product(actions, repeat=prefix_len + 1):
                rules = tuple(Rule(g, a) for g, a in zip(guard_list, acts))
                rules += (Rule(TrueConst(), acts[-1]),)
                cand = NaturalStrategy(agent, rules)
                try:
                    og = outcomes(net, None, {agent: cand})
                except StrategyError:
                    continue
                goal = {i for i in range(og.n_states) if pred(og.states[i])}
                if check_temporal_universal(og.succ, op, [goal]).verdict:
                    found.append(cand)
    return found


TOYS = [
    (two_state_net, "s1", ["s0", "s1"]),
    (trap_net, "win", ["s0", "s1", "trap", "win"]),
    (three_action_net, "w", ["s0", "s1", "s2"]),
]


@pytest.mark.parametrize("make_net,goal,vocab_locs", TOYS)
def test_synthesis_matches_brute_force(make_net, goal, vocab_locs):
    net = make_net()
    agent = net.agents[0].name
    vocab = [LocAtom(agent, l) for l in vocab_locs]
    pred = _goal_pred(net, goal)
    for k in range(0, 4):
        res = synthesize_strategic(net, None, [agent], k, "F", [pred],
                                   vocabulary=vocab)
        oracle = brute_force_exists(net, agent, k, "F", pred, vocab)
        assert res.verdict == bool(oracle), (net.name, k)


def test_two_state_toy_minimal_witness():
    net = two_state_net()
    res = synthesize_strategic(net, None, ["T"], 1, "F",
                               [_goal_pred(net, "s1")])
    assert res.verdict is True
    s = res.witness_strategy["T"]
    assert complexity(s) == 1
    assert len(s.rules) == 1 and s.rules[0].action == "a"


def test_nonempty_coalition_bound_zero():
    net = two_state_net()
    res = synthesize_strategic(net, None, ["T"], 0, "F",
                               [_goal_pred(net, "s1")])
    assert res.verdict is False


def test_three_stage_needs_exactly_three():
    net = three_action_net()
    pred = _goal_pred(net, "w")
    assert synthesize_strategic(net, None, ["T"], 2, "F", [pred]).verdict is False
    res = synthesize_strategic(net, None, ["T"], 3, "F", [pred])
    assert res.verdict is True
    assert complexity(res.witness_strategy["T"]) == 3


def test_witness_reverifies():
    """Verify/synthesize coherence: any synthesized witness passes
    verify_strategic at the same bound."""
    for make_net, goal, _ in TOYS:
        net = make_net()
        agent = net.agents[0].name
        pred = _goal_pred(net, goal)
        res = synthesize_strategic(net, None, [agent], 3, "F", [pred])
        if res.verdict:
            again = verify_strategic(net, None, [agent], 3, "F", [pred],
                                     res.witness_strategy)
            assert again.verdict is True


def test_synthesis_k_monotone():
    net = three_action_net()
    pred = _goal_pred(net, "w")
    verdicts = [synthesize_strategic(net, None, ["T"], k, "F", [pred]).verdict
                for k in range(0, 6)]
    assert verdicts == [False, False, False, True, True, True]


def test_synthesis_deterministic_witness():
    net = trap_net()
    pred = _goal_pred(net, "win")
    runs = [synthesize_strategic(net, None, ["T"], 3, "F", [pred])
            for _ in range(3)]
    texts = [[str(r) for r in res.witness_strategy["T"].rules] for res in runs]
    assert texts[0] == texts[1] == texts[2]


def test_enumeration_cap_raises():
    net = three_action_net()
    pred = _goal_pred(net, "w")
    with pytest.raises(ResourceLimitError):
        synthesize_strategic(net, None, ["T"], 3, "F", [pred],
                             config=SynthesisConfig(enumeration_cap=5))


def test_state_cap_raises(base):
    net = base.network
    pred = _goal_pred(net, "end")
    for coalition in (["Voter"], []):
        with pytest.raises(ResourceLimitError, match="state cap 5 exceeded"):
            synthesize_strategic(net, None, coalition, 2, "F", [pred], state_cap=5)


def test_empty_coalition_synthesis_is_universal_check(base):
    net = base.network
    pred = _goal_pred(net, "end")
    res = synthesize_strategic(net, None, [], 0, "F", [pred])
    og = outcomes(net, None, {})
    end = {i for i in range(og.n_states) if pred(og.states[i])}
    assert res.verdict == check_temporal_universal(og.succ, "F", [end]).verdict


# -- one explored graph against one outcome graph per candidate ----------------

def reference_synthesis(net, q, coalition, k, op, preds, vocabulary=None):
    """(verdict, reason, candidates enumerated, witness) of bounded synthesis
    that explores each candidate's own outcome graph from q: the same
    canonical order, then `outcomes` and `check_temporal_universal`, skipping
    candidates whose outcome raises StrategyError."""
    coalition = list(dict.fromkeys(coalition))
    if k < len(coalition):
        return False, f"bound {k} below coalition size", 0, None
    vocab = vocabulary if vocabulary is not None else default_vocabulary(net, coalition)
    enumerated = 0
    for cand in oracle.candidates(net, coalition, k, vocab):
        enumerated += 1
        try:
            og = outcomes(net, q, cand)
        except StrategyError:
            continue
        sets = [{i for i in range(og.n_states) if pred(og.states[i])} for pred in preds]
        if check_temporal_universal(og.succ, op, sets).verdict:
            return (True, f"witness of complexity {complexity(cand)}", enumerated,
                    _text(cand))
    return False, "exhaustive enumeration", enumerated, None


def _text(s_A):
    return None if not s_A else [print_strategy(s) for _, s in sorted(s_A.items())]


def _summary(res):
    return (res.verdict, res.reason, res.stats.strategies_enumerated,
            _text(res.witness_strategy))


# the uncapped synthesis problems of the benchmark
BENCH_SYNTH = [
    ("voter_base", ("Voter",), 2, "F", "end"),
    ("coercion_infector", ("Coercer",), 3, "G", "!(ca_v == 2)"),
    ("coercion_watchdog", ("Coercer",), 4, "F", "punished_v == 1 && infected == 1"),
]


# The results of the benchmark's synthesis problems, recorded before
# synthesis decided behaviours on masks: (verdict, reason, enumerated,
# checked, witness text)
PINNED_SYNTH = [
    ("voter_base", ("Voter",), 2, "F", "end",
     (False, "exhaustive enumeration", 4368, 783, None)),
    ("coercion_infector", ("Coercer",), 3, "G", "!(ca_v == 2)",
     (False, "exhaustive enumeration", 1156, 26, None)),
    ("coercion_watchdog", ("Coercer",), 4, "F", "punished_v == 1 && infected == 1",
     (True, "witness of complexity 2", 30, 26,
      ["strategy unnamed for Coercer {\n  when coerced_v == 0 do punish;\n"
       "  when true do *;\n}"])),
]


@pytest.mark.parametrize("model,coalition,k,op,goal,want", PINNED_SYNTH)
def test_pinned_synthesis_results(model, coalition, k, op, goal, want,
                                  base, infector, watchdog):
    net = {"voter_base": base, "coercion_infector": infector,
           "coercion_watchdog": watchdog}[model].network
    res = synthesize_strategic(net, None, coalition, k, op, [_goal_pred(net, goal)])
    assert (res.verdict, res.reason, res.stats.strategies_enumerated,
            res.stats.strategies_checked, _text(res.witness_strategy)) == want


@pytest.mark.parametrize("model,coalition,k,op,goal,want", PINNED_SYNTH)
def test_guard_goals_synthesize_as_predicate_goals(model, coalition, k, op, goal, want,
                                                   base, infector, watchdog):
    net = {"voter_base": base, "coercion_infector": infector,
           "coercion_watchdog": watchdog}[model].network
    goals = [parse_guard_text(goal, net)]
    by_guard = synthesize_strategic(net, None, coalition, k, op, goals)
    by_pred = synthesize_strategic(net, None, coalition, k, op, predicates_of(goals, net))
    assert result_facts(by_guard) == result_facts(by_pred)
    assert (by_guard.verdict, by_guard.reason, by_guard.stats.strategies_enumerated,
            by_guard.stats.strategies_checked, _text(by_guard.witness_strategy)) == want


def test_guards_of_cost_print_what_parses_back(base):
    # a chain of && or || is built left-nested only, so each guard's printed
    # form parses back to it; the counts are those of the right- and
    # left-nested chains deduplicated by a printed form without brackets
    net = base.network
    graph, memo = explore(net), {}
    vocab = default_vocabulary(net, ["Voter"])
    counts = [len(_guards_of_cost(graph, vocab, cost, memo)) for cost in range(1, 6)]
    assert counts == [17, 17, 578, 1734, 31_212]
    for cost in range(1, 6):
        for txt, g, _ in memo[cost]:
            assert parse_guard_text(txt, net) == g, txt


def test_pinned_capped_and_receipt_freeness_results(watchdog, punisher):
    net = watchdog.network
    config = SynthesisConfig(enumeration_cap=5767)
    with pytest.raises(ResourceLimitError) as exc:
        synthesize_strategic(net, None, ["Coercer"], 4, "G",
                             [_goal_pred(net, "!(ca_v == 2)")], config=config)
    assert (str(exc.value), exc.value.partial) == (
        "synthesis cap 5767 exceeded (verdict unknown)", 5768)
    res = eval_formula(net, parse_formula("<<Coercer>>^4 G !(ca_v == 2)", net),
                       mode="synthesize", synthesis=config)
    assert (res.verdict, res.reason, res.stats.strategies_enumerated,
            res.stats.strategies_checked) == (None, "enumeration cap hit (unknown)", 5768, 1149)
    res = eval_formula(punisher.network, punisher.formulas["receipt_freeness"],
                       mode="synthesize")
    assert (res.verdict, res.reason, res.stats.strategies_enumerated,
            res.stats.strategies_checked, _text(res.witness_strategy)) == (
        False, "witness of complexity 2", 33, 33,
        ["strategy unnamed for Coercer {\n  when true do wait;\n}",
         "strategy unnamed for Voter {\n  when true do wait;\n}"])


@pytest.mark.parametrize("model,coalition,k,op,goal", BENCH_SYNTH)
def test_synthesis_matches_reference(model, coalition, k, op, goal,
                                     base, infector, watchdog):
    net = {"voter_base": base, "coercion_infector": infector,
           "coercion_watchdog": watchdog}[model].network
    pred = _goal_pred(net, goal)
    states = explore(net).states
    for idx in range(0, len(states), 7):
        q = None if idx == 0 else states[idx]
        got = synthesize_strategic(net, q, coalition, k, op, [pred])
        assert _summary(got) == reference_synthesis(net, q, coalition, k, op, [pred]), idx


@pytest.mark.parametrize("make_net,goal,vocab_locs", TOYS)
def test_synthesis_matches_reference_toys(make_net, goal, vocab_locs):
    net = make_net()
    agent = net.agents[0].name
    vocab = [LocAtom(agent, l) for l in vocab_locs]
    pred = _goal_pred(net, goal)
    for k in range(0, 4):
        for op in ("F", "G"):
            got = synthesize_strategic(net, None, [agent], k, op, [pred], vocabulary=vocab)
            want = reference_synthesis(net, None, [agent], k, op, [pred], vocabulary=vocab)
            assert _summary(got) == want, (net.name, k, op)


def test_synthesis_mode_nodes_match_synthesize_strategic(punisher):
    net = punisher.network
    f = punisher.formulas["receipt_freeness"]
    ev = FormulaEvaluator(net, mode="synthesize")
    for node in (f.left.sub, f.right.sub):
        goal = {i for i in range(ev.graph.n_states) if ev.holds(node.subs[0], i)}
        pred = lambda q, goal=goal: ev.graph.index_of(q) in goal
        for i, q in enumerate(ev.graph.states):
            verdict = ev.holds(node, i)
            want = synthesize_strategic(net, q, node.coalition, node.bound, node.op, [pred])
            assert verdict is want.verdict
            assert _summary(ev.witness(node, i)) == _summary(want), (str(node), i)


def test_synthesis_explores_once(watchdog, monkeypatch):
    net = watchdog.network
    calls = count_explore(monkeypatch)
    res = synthesize_strategic(net, None, ["Coercer"], 4, "F",
                               [_goal_pred(net, "punished_v == 1 && infected == 1")])
    assert res.verdict is True
    assert len(calls) == 1
    assert res.stats.states_explored == explore(net).n_states


def test_synthesis_mode_formula_explores_once(punisher, monkeypatch):
    calls = count_explore(monkeypatch)
    res = eval_formula(punisher.network, punisher.formulas["receipt_freeness"],
                       mode="synthesize")
    assert res.verdict is False
    assert len(calls) == 1


def test_synthesis_builds_one_state_graph(base, monkeypatch):
    # every candidate restricts the one explored graph to successor lists
    net = base.network
    calls = count_explore(monkeypatch)
    res = synthesize_strategic(net, None, ["Voter"], 2, "F", [_goal_pred(net, "end")])
    assert (res.verdict, res.stats.strategies_enumerated) == (False, 4368)
    assert len(calls) == 1


def count_spaces(monkeypatch) -> list:
    """Record the arguments of every synthesis space the checker builds."""
    import natstrat.checker as checker
    built = []

    class Counting(checker._Behaviours):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(checker, "_Behaviours", Counting)
    return built


def test_synthesis_mode_builds_one_space_per_node(base, monkeypatch):
    # only the walk depends on the state synthesis starts from, so the space
    # and the node's winning region are built once
    built = count_spaces(monkeypatch)
    net = base.network
    f = parse_formula("A G <<Voter>>^2 F end", net)
    res = eval_formula(net, f, mode="synthesize")
    assert len(built) == 1
    # the verdict and counterexample of a space built at every state
    assert (res.verdict, res.reason, res.witness_path, res.witness_strategy) == \
        (False, "a reachable state falsifies the G-subformula", (0, 1, 2, 3, 5, 7, 3), {})
    assert (res.stats.strategies_enumerated, res.stats.strategies_checked) == (100916, 19328)
    ev = FormulaEvaluator(net, mode="synthesize")
    node = f.subs[0]  # <<Voter>>^2 F end, under the universal A G
    end = _goal_pred(net, "end")
    for i, q in enumerate(ev.graph.states):
        assert ev.holds(node, i) is not None
        want = synthesize_strategic(net, q, ["Voter"], 2, "F", [end])
        assert _summary(ev.witness(node, i)) == _summary(want), i
    [space] = ev._spaces.values()
    assert list(space._regions) == [("F", frozenset(i for i, q in enumerate(ev.graph.states)
                                                    if end(q)))]
    assert len(built) == 2 + ev.graph.n_states


@pytest.mark.parametrize("model", models())
def test_space_stores_each_non_idle_target_once(model):
    # a space stores each state's moves as target lists, so it grows with
    # the graph's edges, not with its states squared
    graph = explore(load(model).network)
    agents = [a.name for a in graph.net.agents]
    for coalition in [*([a] for a in agents), agents]:
        space = _Behaviours(graph, coalition)
        stored = [[j for _, targets in groups for j in targets] for groups in space.groups]
        assert sum(map(len, stored)) <= len(graph.targets), coalition
        assert [sorted(set(targets)) for targets in stored] == \
            [sorted(outs) for outs in graph.succ], coalition


def test_space_memory_on_the_scale_graph():
    # two renamed voter_full(7,5) copies side by side, as the scale benchmark
    # declares them: 24,964 states and 103,016 stored edges. A bitset of
    # targets per state peaked at 82.7 MiB here, target tuples at 9.7 MiB
    text = (DATA_DIR / "voter_full.nsm").read_text(encoding="utf-8")
    block = re.search(r"^agent Voter\(lazy\) \{$.*?^\}$", text, re.S | re.M).group(0)
    copies = [block.replace("agent Voter(", f"agent Voter{k}(", 1) for k in range(2)]
    graph = explore(parse_network("const n = 7;\nconst m = 5;\n" + "\n".join(copies),
                                  name="voter_copies"))
    assert (graph.n_states, len(graph.targets)) == (24_964, 103_016)
    tracemalloc.start()
    try:
        _Behaviours(graph, ["Voter0"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 42 * 2**20


# -- the lazy canonical order against the eager oracle -------------------------

def _lazy_candidates(net, coalition, k, vocab):
    """(position, candidate) in the order synthesis enumerates them, with no
    pruning."""
    space = _Behaviours(explore(net), coalition, vocab)
    for position, path in _canonical(space.options, k, lambda path, m, opt: path + (opt,), ()):
        yield position, space.strategy(path)


ORDER_CASES = [
    ("voter_base", ("Voter",), 2),
    ("coercion_infector", ("Coercer",), 3),
    ("coercion_watchdog", ("Coercer",), 4),
    ("coercion_punisher", ("Voter", "Coercer"), 3),
]


@pytest.mark.parametrize("model,coalition,k", ORDER_CASES)
def test_lazy_order_matches_oracle(model, coalition, k, base, infector, watchdog, punisher):
    net = {"voter_base": base, "coercion_infector": infector,
           "coercion_watchdog": watchdog, "coercion_punisher": punisher}[model].network
    vocab = default_vocabulary(net, coalition)
    n = 0
    for n, (lazy, eager) in enumerate(itertools.zip_longest(
            _lazy_candidates(net, coalition, k, vocab),
            oracle.candidates(net, coalition, k, vocab)), start=1):
        assert lazy is not None and eager is not None, n
        assert lazy == (n, eager), n
        assert list(lazy[1]) == list(dict.fromkeys(coalition))  # members in coalition order
    assert n == {"voter_base": 4368, "coercion_infector": 1156,
                 "coercion_watchdog": 180_366}.get(model, n)


@pytest.mark.parametrize("make_net,goal,vocab_locs", TOYS)
def test_lazy_order_matches_oracle_toys(make_net, goal, vocab_locs):
    net = make_net()
    agent = net.agents[0].name
    for vocab in ([LocAtom(agent, l) for l in vocab_locs],
                  default_vocabulary(net, [agent])):
        lazy = [cand for _, cand in _lazy_candidates(net, [agent], 3, vocab)]
        assert lazy == list(oracle.candidates(net, [agent], 3, vocab)), net.name


def test_vocabulary_lists_each_guard_s_atoms_left_to_right(infector):
    net = parse_network("agent A { var int[0,1] b = 0; var int[0,2] x = 0; init a0; loc a1; "
                        "edge a0 -> a1 on go when !(x == 1 || b) && x < 2 && a0; "
                        "edge a1 -> a0 on back when b || x == 1; }")
    assert [str(g) for g in default_vocabulary(net, ["A"])] == ["a0", "a1", "x == 1", "b", "x < 2"]
    assert [str(g) for g in default_vocabulary(infector.network, ["Coercer"])] == \
        ["watching", "infected == 0", "infected == 1", "replaced_v == 0"]


def _atom_key(g):
    """An atom up to how it is printed: a location atom by agent and name."""
    return (g.agent, g.location) if isinstance(g, LocAtom) else g


@pytest.mark.parametrize("model", models())
def test_coalition_vocabulary_atoms_parse_back(model):
    """Every atom of each member's own vocabulary is in the coalition's,
    printed so that it parses back to itself for that member, even where
    two members have a location of the same name (Printer's and EBM's
    `wait` in the infrastructure)."""
    net = load(model).network
    agents = [a.name for a in net.agents]
    for coalition in [*([a] for a in agents), *itertools.combinations(agents, 2)]:
        vocab = {_atom_key(g): g for g in default_vocabulary(net, coalition)}
        for member in coalition:
            for own in default_vocabulary(net, [member]):
                atom = vocab[_atom_key(own)]
                assert parse_guard_text(str(atom), net, owner=member) == atom, \
                    (coalition, member, str(atom))


@pytest.mark.parametrize("model", models())
def test_oracle_vocabulary_matches_default_vocabulary(model):
    """The rule of `default_vocabulary`'s docstring, written out on its own
    in the oracle, gives the same atoms in the same order, whatever order
    the members are written in."""
    net = load(model).network
    agents = [a.name for a in net.agents]
    for size in range(1, len(agents) + 1):
        for members in itertools.permutations(agents, size):
            assert oracle.vocabulary(net, members) == \
                default_vocabulary(net, sorted(members)), members


# -- the two prunings ----------------------------------------------------------

def _matched_behaviour(space, s_A):
    """Each member's behaviour, state by state: the actions its first
    matching rule allows among those it has in the stored moves, and the
    states where matching fails."""
    graph = space.graph
    out = []
    for m, agent in enumerate(space.agents):
        allowed, err = dict.fromkeys(space.acts[m], 0), 0
        for i, q in enumerate(graph.states):
            avail = {act for t in out_edges(graph, i)
                     for a, act in zip(t.move.actors, t.move.actions) if a == agent}
            try:
                r = explore_oracle.first_match(graph.net, q, s_A[agent], avail)
            except StrategyError:
                err |= 1 << i
                continue
            if r is not None:
                action = s_A[agent].rules[r - 1].action
                for a in avail if action is WILDCARD else {action}:
                    allowed[a] |= 1 << i
        out.append((tuple(allowed.values()), err))
    return tuple(out)


@pytest.mark.parametrize("model,coalition,k,op,goal", BENCH_SYNTH[:2])
def test_one_check_per_behaviour(model, coalition, k, op, goal, base, infector):
    # exhaustive searches walk each distinct behaviour of the candidates once
    net = {"voter_base": base, "coercion_infector": infector}[model].network
    res = synthesize_strategic(net, None, coalition, k, op, [_goal_pred(net, goal)])
    assert res.verdict is False
    space = _Behaviours(explore(net), coalition, default_vocabulary(net, coalition))
    behaviours = {_matched_behaviour(space, cand) for _, cand in _lazy_candidates(
        net, coalition, k, default_vocabulary(net, coalition))}
    assert res.stats.strategies_checked == len(behaviours) < res.stats.strategies_enumerated


# -- skipping dominated prefixes against the unpruned order ---------------------

def _decided(space, start, k, op, subgoals, cap):
    """`_synthesize`'s result, or its cap's error, as `oracle.synthesize`
    summarizes them."""
    stats = CheckStats()
    try:
        res = _synthesize(space, start, k, op, subgoals,
                          SynthesisConfig(enumeration_cap=cap), stats)
    except ResourceLimitError as exc:
        return None, str(exc), exc.partial, stats.strategies_checked, None
    return (res.verdict, res.reason, res.stats.strategies_enumerated,
            res.stats.strategies_checked, _text(res.witness_strategy))


def _assert_prunes_exactly(space, k, problems):
    """With dominated prefixes skipped, each behaviour is first seen at the
    position where the unpruned order first sees it, and the last position
    is the same; each problem (start, op, goal sets, cap) gets the unpruned
    search's verdict, reason, counts and witness text."""
    assert list(oracle.first_seen(space, k, space.key)) == list(oracle.first_seen(space, k))
    verdicts = []
    for start, op, subgoals, cap in problems:
        got = _decided(space, start, k, op, subgoals, cap)
        assert got == oracle.synthesize(space, start, k, op, subgoals, cap), (start, op, cap)
        verdicts.append(got[0])
    return verdicts


# a goal per model of ORDER_CASES
ORDER_GOALS = {
    "voter_base": ("F", "end"),
    "coercion_infector": ("G", "!(ca_v == 2)"),
    "coercion_watchdog": ("F", "punished_v == 1 && infected == 1"),
    "coercion_punisher": ("F", "not_show_v == 1 && punished_v == 1"),
}


@pytest.mark.parametrize("model,coalition,k", ORDER_CASES)
def test_dominance_matches_unpruned_order(model, coalition, k,
                                          base, infector, watchdog, punisher):
    net = {"voter_base": base, "coercion_infector": infector,
           "coercion_watchdog": watchdog, "coercion_punisher": punisher}[model].network
    graph = explore(net)
    space = _Behaviours(graph, coalition)
    op, goal = ORDER_GOALS[model]
    subgoals = [graph.satisfying(parse_guard_text(goal, net))]
    _assert_prunes_exactly(space, k, [(start, op, subgoals, cap)
                                      for start in range(0, graph.n_states, 7)
                                      for cap in (10**9, 1000)])


@pytest.mark.parametrize("make_net,goal,vocab_locs", TOYS)
def test_dominance_matches_unpruned_order_toys(make_net, goal, vocab_locs):
    net = make_net()
    agent = net.agents[0].name
    graph = explore(net)
    subgoals = [graph.satisfying(parse_guard_text(goal, net))]
    for vocab in ([LocAtom(agent, l) for l in vocab_locs], None):
        space = _Behaviours(graph, [agent], vocab)
        for k in range(0, 5):
            _assert_prunes_exactly(space, k, [(start, op, subgoals, 10**9)
                                              for start in range(graph.n_states)
                                              for op in ("F", "G")])


@st.composite
def _synthesis_case(draw):
    """A random two-agent network (`test_evaluator._network`), a coalition,
    up to four atoms of its vocabulary, a bound from 2 to 4, a start, a
    temporal operator with random goal sets, and a cap that may fire."""
    net, _ = draw(evaluator_tests._network())
    graph = explore(net)
    coalition = draw(st.sampled_from(evaluator_tests.COALITIONS))
    op = draw(st.sampled_from("XFGU"))
    states = st.frozensets(st.integers(0, graph.n_states - 1))
    subgoals = [set(draw(states)) for _ in range(2 if op == "U" else 1)]
    problem = (draw(st.integers(0, graph.n_states - 1)), op, subgoals,
               draw(st.one_of(st.just(10**9), st.integers(1, 3000))))
    vocab = draw(st.lists(st.sampled_from(default_vocabulary(net, coalition)),
                          min_size=1, max_size=4, unique_by=str))
    # bounds of 3 and 4 give members more than one rule, where prefixes
    # can dominate each other
    case = _Behaviours(graph, coalition, vocab), draw(st.sampled_from((4, 3, 2))), problem
    for label in _region_coverage(*case):
        event(label)
    return case


def _walks(space, k, problem):
    """For each behaviour that the unpruned search decides, in its order
    (`oracle.first_seen` up to the cap and the first win): whether it wins,
    the states that its walk from the start reaches by paths that avoid
    the goal, for F and U, or reaches at all, for X and G, and its error
    states."""
    start, op, subgoals, cap = problem
    moves = oracle.stored_moves(space)
    stop = subgoals[-1] if op in ("F", "U") else ()
    for position, behaviour in oracle.first_seen(space, k):
        if behaviour is None or position > cap:
            return
        succ, errors = oracle.walk(moves, start, behaviour)
        before = [start]
        for i in before:
            before += [j for j in succ[i] if j not in before] if i not in stop else []
        won = oracle.wins(space, start, behaviour, op, subgoals)
        yield won, {i for i in before if i not in stop}, errors
        if won:
            return


def _region_coverage(space, k, problem) -> list[str]:
    """What an example of `_synthesis_case` meets: no winning region, a
    start outside it, a behaviour whose walk reaches a state outside it
    before the goal, and one whose walk meets a matching error only past
    the goal, where `wins` finds it in its second pass."""
    start, op, subgoals, _ = problem
    region = space.region(op, subgoals)
    if region is None:
        return ["no region"]
    if start not in region:
        return ["the start outside the region"]
    labels = set()
    for _, before, errors in _walks(space, k, problem):
        if not before <= region:
            labels.add("a state before the goal outside the region")
        elif errors and not before.intersection(errors) and op in ("F", "U"):
            labels.add("an error past the goal")
    return sorted(labels)


@settings(deadline=None)
@given(case=_synthesis_case())
def test_dominance_matches_unpruned_order_on_random_networks(case):
    # the number of examples is the hypothesis profile's
    space, k, problem = case
    verdict, = _assert_prunes_exactly(space, k, [problem])
    event(f"{len(space.agents)} member(s), bound {k}")
    event("cap fired" if verdict is None else f"verdict {verdict}")
    walks = [sum(1 for _ in _canonical(space.options, k, space.extend, space.ROOT, key))
             for key in (None, space.key)]
    event("a dominated prefix skipped" if walks[1] < walks[0] else "no prefix dominated")


def test_synthesis_case_covers_the_region():
    # the `ci` profile's sample is fixed, so what it covers can be counted,
    # each example checked as the test above checks it: of its 300
    # examples, 92 start outside the winning region, 6 decide a behaviour
    # that reaches a state outside it before the goal, and 32 one whose
    # only matching error lies past the goal (159 have no region)
    counts: collections.Counter = collections.Counter()

    @settings(settings.get_profile("ci"), database=None, deadline=None)
    @given(case=_synthesis_case())
    def count(case):
        space, k, problem = case
        counts.update(_region_coverage(*case))
        _assert_prunes_exactly(space, k, [problem])
        counts["examples"] += 1

    count()
    assert counts["examples"] == 300
    assert counts["the start outside the region"] >= 50, counts
    assert counts["a state before the goal outside the region"] >= 5, counts
    assert counts["an error past the goal"] >= 10, counts


# -- the coalition's winning region against a brute force ------------------------

def _assert_region_matches_brute_force(space, problems) -> int:
    """For each (start, op, goal sets), op being F, G or U: the start is in
    the space's region (every state, where it is None) iff some memoryless
    perfect-information choice function wins from it. Returns how many
    problems the brute force decided within its budget."""
    options = oracle.choices(space)
    decided = 0
    for start, op, subgoals in problems:
        want = oracle.choice_function_wins(options, start, op, subgoals)
        if want is not None:
            region = space.region(op, subgoals)
            assert (region is None or start in region) is want, (start, op)
            decided += 1
    return decided


@pytest.mark.parametrize("make_net,goal,vocab_locs", TOYS)
def test_region_matches_brute_force_toys(make_net, goal, vocab_locs):
    # F and G of every goal, and f U goal for every f, from every start
    net = make_net()
    graph = explore(net)
    space = _Behaviours(graph, [net.agents[0].name])
    n = graph.n_states
    subsets = [{i for i in range(n) if mask >> i & 1} for mask in range(1 << n)]
    toy_goal = graph.satisfying(parse_guard_text(goal, net))
    problems = [(start, op, [g]) for g in subsets for op in ("F", "G") for start in range(n)]
    problems += [(start, "U", [f, toy_goal]) for f in subsets for start in range(n)]
    assert _assert_region_matches_brute_force(space, problems) == len(problems)


def test_region_matches_brute_force_two_members():
    # a sync pair beside each member's own moves, and A's wait: each single
    # member, and both, where a group that checks one member passes the
    # choices of every action of the other; every goal, f and start
    net = parse_network("""
channel c;
agent A(lazy) { init a0; loc a1; edge a0 -> a1 on x; edge a0 -> a0 on y sync c!; edge a1 -> a0 on z; }
agent B { init b0; loc b1; edge b0 -> b1 on u sync c?; edge b0 -> b0 on v; edge b1 -> b0 on w; }
""", name="pair")
    graph = explore(net)
    n = graph.n_states
    subsets = [{i for i in range(n) if mask >> i & 1} for mask in range(1 << n)]
    problems = [(start, op, [g]) for g in subsets for op in ("F", "G") for start in range(n)]
    problems += [(start, "U", [f, g]) for f in subsets for g in subsets for start in range(n)]
    for coalition in (["A", "B"], ["A"], ["B"]):
        space = _Behaviours(graph, coalition)
        assert _assert_region_matches_brute_force(space, problems) == len(problems), coalition


@settings(deadline=None)
@given(case=_synthesis_case())
def test_region_matches_brute_force_on_random_networks(case):
    # the number of examples is the hypothesis profile's
    space, k, problem = case
    _, op, subgoals, _ = problem
    if op == "X":
        assert space.region(op, subgoals) is None
        return
    n = space.graph.n_states
    decided = _assert_region_matches_brute_force(
        space, [(start, op, subgoals) for start in range(n)])
    event("every start decided by the brute force" if decided == n
          else "some start over the brute force's budget")
    # a behaviour that wins reaches no state outside the region before the goal
    region = space.region(op, subgoals)
    for won, before, _ in _walks(space, k, problem):
        if won and region is not None:
            assert before <= region


def test_cap_inside_a_dominated_subtree(base):
    # a cap that fires inside a skipped subtree that the unpruned order
    # walks fires at the same position, after the same behaviours
    net = base.network
    graph = explore(net)
    space = _Behaviours(graph, ["Voter"])
    walked = {position for position, _ in _canonical(space.options, 3, space.extend, space.ROOT)}
    last = 0
    for position, state in _canonical(space.options, 3, space.extend, space.ROOT, space.key):
        if state is None and position - last > 1 and last + 1 in walked:
            break
        last = position
    subgoals = [graph.satisfying(parse_guard_text("end", net))]
    got = _decided(space, graph.initial, 3, "F", subgoals, last + 1)
    assert got == oracle.synthesize(space, graph.initial, 3, "F", subgoals, last + 1)
    assert got[:3] == (None, f"synthesis cap {last + 1} exceeded (verdict unknown)", last + 2)


K4_END = ["strategy unnamed for Voter {\n  when !check1 do skip;\n"
          "  when has_ballot do scan_ballot;\n  when true do *;\n}"]
K4_RECEIPT = ["strategy unnamed for Voter {\n  when check2_fail do check3;\n"
              "  when check4 do check4;\n  when has_ballot do scan_ballot;\n"
              "  when true do *;\n}"]


@pytest.mark.parametrize("goal,want", [
    ("end", (True, "witness of complexity 4", 1_399_488, 18_687, K4_END)),
    ("check4_ok || check4_fail", (True, "witness of complexity 4", 25_309_376, 67_522,
                                  K4_RECEIPT)),
])
def test_pinned_bound_four_results(base, goal, want):
    # each cap is the witness's position, so the search finds it exactly there
    net = base.network
    res = synthesize_strategic(net, None, ["Voter"], 4, "F", [parse_guard_text(goal, net)],
                               config=SynthesisConfig(enumeration_cap=want[2]))
    assert (res.verdict, res.reason, res.stats.strategies_enumerated,
            res.stats.strategies_checked, _text(res.witness_strategy)) == want


@pytest.mark.parametrize("text,want", [
    ("<<Voter>>^2 F end || <<Voter>>^3 F end",
     (False, "exhaustive enumeration", 1_196_832, 18_530, None)),
    ("<<Voter>>^2 F end || <<Voter>>^4 F end",
     (True, "witness of complexity 4", 1_403_856, 19_470, K4_END)),
])
def test_synthesis_mode_builds_one_space_per_coalition(base, monkeypatch, text, want):
    # both operators are synthesized at the initial state, on one space;
    # the counts add the k=2 search's 4,368 positions and 783 behaviours
    built = count_spaces(monkeypatch)
    net = base.network
    res = eval_formula(net, parse_formula(text, net), mode="synthesize",
                       synthesis=SynthesisConfig(enumeration_cap=1_399_488))
    assert len(built) == 1
    assert (res.verdict, res.reason, res.stats.strategies_enumerated,
            res.stats.strategies_checked, _text(res.witness_strategy)) == want


def test_synthesis_mode_builds_one_space_per_member_set(punisher, monkeypatch):
    # both orders of one coalition share a space; each search is counted,
    # and each witness lists the members in its node's order
    built = count_spaces(monkeypatch)
    net = punisher.network
    f = parse_formula("<<Voter,Coercer>>^3 F punished_v == 1 && "
                      "<<Coercer,Voter>>^3 F punished_v == 1", net)
    res = eval_formula(net, f, mode="synthesize")
    assert len(built) == 1
    assert (res.verdict, res.reason, res.stats.strategies_enumerated,
            res.stats.strategies_checked) == (True, "witness of complexity 2", 80, 80)
    ev = FormulaEvaluator(net, mode="synthesize")
    assert ev.holds(f, ev.graph.initial) is True
    coercer = "strategy unnamed for Coercer {\n  when true do *;\n}"
    voter = "strategy unnamed for Voter {\n  when true do wait;\n}"
    for node, want in ((f.left, [voter, coercer]), (f.right, [coercer, voter])):
        res = ev.witness(node, ev.graph.initial)
        assert (res.verdict, res.reason, res.stats.strategies_enumerated,
                res.stats.strategies_checked) == (True, "witness of complexity 2", 40, 40)
        assert [print_strategy(s) for s in res.witness_strategy.values()] == want
        assert list(res.witness_strategy) == list(node.coalition)


# two agents with a same-named local `x`: the atom `x == 0` prints alike for
# both, so a vocabulary keeps one of them, and which one must not depend on
# the order in which a formula names the coalition
TWINS = ("agent A { var int[0,1] x = 0; init a0; loc a1; "
         "edge a0 -> a0 on flip when x == 0 do x := 1; edge a0 -> a1 on go when x == 1; } "
         "agent B { var int[0,1] x = 0; init b0; loc b1; loc bad; "
         "edge b0 -> b0 on flip when x == 0 do x := 1; edge b0 -> b1 on go when x == 1; "
         "edge b0 -> bad on oops when x == 0; }")


def test_shared_space_does_not_depend_on_member_order():
    net = parse_network(TWINS, name="twins")
    goal = parse_guard_text("a1 && b1", net)
    alone = [synthesize_strategic(net, None, coalition, 6, "F", [goal])
             for coalition in (["A", "B"], ["B", "A"])]
    assert [(r.verdict, r.stats.strategies_enumerated, r.stats.strategies_checked)
            for r in alone] == [(True, 450, 141)] * 2
    assert _text(alone[0].witness_strategy) == _text(alone[1].witness_strategy)
    node = "<<{}>>^6 F (a1 && b1)"
    runs = []
    for first, second in (("A,B", "B,A"), ("B,A", "A,B")):
        f = parse_formula(f"{node.format(first)} && {node.format(second)}", net)
        res = eval_formula(net, f, mode="synthesize")
        assert result_facts(res) == result_facts(
            evaluator_tests.oracle.eval_formula(net, f, mode="synthesize"))
        runs.append((res.verdict, res.reason, res.stats.strategies_enumerated,
                     res.stats.strategies_checked))
    # each conjunction runs both nodes' searches, each as it runs alone
    both = (sum(r.stats.strategies_enumerated for r in alone),
            sum(r.stats.strategies_checked for r in alone))
    assert runs == [(True, "witness of complexity 3", *both)] * 2
    assert both == (900, 282)


def test_twins_name_their_variable_and_start_from_a_reachable_state():
    net = parse_network(TWINS, name="twins")
    for text in ("x == 0", "A F x"):
        with pytest.raises(ParseError, match=r"ambiguous variable x \(locals of A, B\)"):
            parse_formula(text, net)
    # A reaches a1 only once x == 1, and B's x stays 0 meanwhile
    with pytest.raises(DefinitionError,
                       match="state to check is not reachable from the initial state"):
        eval_formula(net, parse_formula("A F a1", net), net.state(locations={"A": "a1"}))


def test_cap_inside_a_skipped_subtree(base):
    # the cap counts canonical positions, so it fires inside a subtree of
    # dead-rule candidates that is never generated
    net = base.network
    space = _Behaviours(explore(net), ["Voter"], default_vocabulary(net, ["Voter"]))
    last = 0
    for position, state in _canonical(space.options, 2, space.extend, space.ROOT):
        if state is None and position - last > 1:
            break
        last = position
    cap = last + 1  # candidate cap + 1 is the second of the skipped subtree
    pred = _goal_pred(net, "end")
    with pytest.raises(ResourceLimitError) as exc:
        synthesize_strategic(net, None, ["Voter"], 2, "F", [pred],
                             config=SynthesisConfig(enumeration_cap=cap))
    assert exc.value.partial == cap + 1


# the verdict of one run of reference_synthesis with no cap, which explored
# the outcome of each of the 1,192,464 candidates
VOTER_LEVEL_3 = (False, "exhaustive enumeration", 1_192_464, None)


def test_voter_level_three_is_exhaustive(base):
    net = base.network
    pred = _goal_pred(net, "end")
    res = synthesize_strategic(net, None, ["Voter"], 3, "F", [pred],
                               config=SynthesisConfig(enumeration_cap=1_192_464))
    assert _summary(res) == VOTER_LEVEL_3
    with pytest.raises(ResourceLimitError) as exc:
        synthesize_strategic(net, None, ["Voter"], 3, "F", [pred],
                             config=SynthesisConfig(enumeration_cap=1_192_463))
    assert exc.value.partial == 1_192_464


def test_a_large_bound_builds_only_the_levels_it_reaches(base):
    # the guards of a complexity level are built when the search reaches it,
    # so the default cap fires at complexity 3 and costs about as much as a
    # bound of 3
    net = base.network
    with pytest.raises(ResourceLimitError) as exc:
        synthesize_strategic(net, None, ["Voter"], 29, "F", [_goal_pred(net, "end")])
    assert exc.value.partial == SynthesisConfig().enumeration_cap + 1


def test_negative_bound_is_a_definition_error(base):
    net = base.network
    pred = _goal_pred(net, "end")
    for coalition in (["Voter"], []):
        with pytest.raises(DefinitionError):
            synthesize_strategic(net, None, coalition, -1, "F", [pred])
    res = synthesize_strategic(net, None, ["Voter"], 0, "F", [pred])
    assert (res.verdict, res.reason) == (False, "bound 0 below coalition size")


def test_bound_below_coalition_size_builds_no_game(punisher):
    # the perfect-information game grows with the product of the members'
    # actions, so a search that the bound alone decides never builds it
    graph = explore(punisher.network)
    space = _Behaviours(graph, ["Voter", "Coercer"])
    goals = [set(range(1, graph.n_states))]
    for op in ("F", "G"):
        res = _synthesize(space, graph.initial, 1, op, goals, SynthesisConfig(), CheckStats())
        assert (res.verdict, res.reason) == (False, "bound 1 below coalition size")
    assert space._game is None and not space._regions


def test_a_goal_holding_everywhere_builds_no_game(punisher):
    # the region then holds every state and prunes nothing, as for the
    # receipt-freeness goals on coercion_punisher
    graph = explore(punisher.network)
    space = _Behaviours(graph, ["Voter", "Coercer"])
    every = set(range(graph.n_states))
    for op, goals in (("F", [every]), ("G", [every]), ("U", [{graph.initial}, every])):
        assert space.region(op, goals) is None
    assert space._game is None
