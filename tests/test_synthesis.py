import itertools

import pytest

from natstrat.casestudy import load, models
from natstrat.checker import (
    FormulaEvaluator, SynthesisConfig, _Behaviours, _canonical, _guards_of_cost,
    check_temporal_universal, default_vocabulary, eval_formula,
    synthesize_strategic, verify_strategic,
)
from natstrat.dsl import parse_formula, parse_guard_text, parse_network, print_strategy
from natstrat.errors import DefinitionError, ResourceLimitError, StrategyError
from natstrat.model import (
    And, LocAtom, Not, Or, TrueConst, eval_guard, explore,
)
from natstrat.outcome import outcomes
from natstrat.strategy import WILDCARD, NaturalStrategy, Rule, complexity

import explore_oracle
import synthesis_oracle as oracle
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


def test_synthesis_mode_builds_one_space_per_node(base, monkeypatch):
    # only the walk depends on the state synthesis starts from
    import natstrat.checker as checker
    built = []

    class Counting(checker._Behaviours):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(checker, "_Behaviours", Counting)
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
    assert len(built) == 2 + ev.graph.n_states


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
