"""The formula evaluator against the per-(node, state) memo evaluator it
replaced (`evaluator_oracle`), and the counts that show each node labelled
once."""

import collections
import itertools

import pytest
from hypothesis import event, given, settings, strategies as st

import natstrat.checker as checker
from natstrat.casestudy import build_coercer, build_voter, catalog, load
from natstrat.checker import FormulaEvaluator, SynthesisConfig, eval_formula
from natstrat.dsl import parse_formula, parse_network, parse_strategy
from natstrat.errors import DefinitionError, StrategyError
from natstrat.formula import FAnd, FAtom, FImplies, FNot, FOr, Knows, Strategic
from natstrat.model import LocAtom, TrueConst, or_all
from natstrat.strategy import WILDCARD, NaturalStrategy, Rule

import evaluator_oracle as oracle
from test_dsl import unfold

# per agent: its location names' prefix, the most locations, its action prefix
AGENTS = {"G": ("s", 6, "e"), "H": ("t", 3, "f")}
# both orders of G and H: nodes of one member set share a synthesis space
COALITIONS = (("G",), ("H",), ("G", "H"), ("H", "G"))


@st.composite
def _network(draw):
    """Two interleaved random automata, G and H, each maybe lazy, with
    every location reachable; returns
    the network and each agent's (location count, actions). Each agent has
    a 0/1 local `x`, which one edge reads and sets (`when x == 0 do x :=
    1`), so the coalition's vocabulary holds one `x == 0` for two
    variables."""
    lines, shape = [], {}
    for agent, (loc, most, act) in AGENTS.items():
        n = draw(st.integers(2, most))
        # a tree from loc0 reaches every location; then random edges
        edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
        edges += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                               max_size=n))
        # only this edge sets x, so it is enabled until it is taken
        reads_x = draw(st.integers(0, len(edges) - 1))
        lazy = draw(st.booleans())
        lines.append(f"agent {agent}{'(lazy)' if lazy else ''} {{ var int[0,1] x = 0; "
                     f"init {loc}0;")
        lines += [f"loc {loc}{i};" for i in range(1, n)]
        lines += [f"edge {loc}{a} -> {loc}{b} on {act}{k}"
                  f"{' when x == 0 do x := 1' if k == reads_x else ''};"
                  for k, (a, b) in enumerate(edges)]
        lines.append("}")
        shape[agent] = n, [f"{act}{k}" for k in range(len(edges))] + (["wait"] if lazy else [])
    return parse_network("\n".join(lines), name="rand2"), shape


def _at(draw, agent, n):
    """A guard: `agent` is at one of a random set of its locations."""
    locs = draw(st.frozensets(st.integers(0, n - 1)))
    return or_all(LocAtom(agent, f"{AGENTS[agent][0]}{i}") for i in sorted(locs))


def _strategy(draw, agent, n, actions):
    """A total strategy, or one with no final ⊤ rule, whose matching fails
    wherever no rule fires (a StrategyError where an outcome reaches)."""
    acts = st.sampled_from(actions + [WILDCARD])
    rules = [Rule(_at(draw, agent, n), draw(acts)) for _ in range(draw(st.integers(0, 2)))]
    if not rules or draw(st.booleans()):
        rules.append(Rule(TrueConst(), draw(acts)))
    return NaturalStrategy(agent=agent, rules=tuple(rules))


def _formula(draw, shape, depth):
    """A formula whose leaves, `depth` levels down, are atoms over the
    agents' locations."""
    agent = draw(st.sampled_from(sorted(AGENTS)))
    if not depth:
        return FAtom(_at(draw, agent, shape[agent][0]))
    kind = draw(st.sampled_from(("not", "binary", "K", "A", "named", "coalition",
                                 "both orders")))
    sub = _formula(draw, shape, depth - 1)
    if kind == "not":
        return FNot(sub)
    if kind == "K":
        return Knows(agent, sub)
    other = _formula(draw, shape, depth - 1)
    if kind == "binary":
        return draw(st.sampled_from((FAnd, FOr, FImplies)))(sub, other)
    op = draw(st.sampled_from("XFGU"))
    subs = (sub, other) if op == "U" else (sub,)
    if kind == "A":
        return Strategic(coalition=(), bound=0, op=op, subs=subs)
    if kind == "both orders":  # two nodes of one member set, which share a space
        first = draw(st.sampled_from((("G", "H"), ("H", "G"))))  # the one evaluated first
        return draw(st.sampled_from((FAnd, FOr)))(*(
            Strategic(coalition=coalition, bound=draw(st.sampled_from(range(6))), op=op,
                      subs=subs) for coalition in (first, first[::-1])))
    coalition = draw(st.sampled_from(COALITIONS))
    witness = tuple(f"s{a}" for a in coalition) if kind == "named" else ()
    return Strategic(coalition=coalition, bound=draw(st.sampled_from(range(6))), op=op,
                     subs=subs, witness=witness)


def _coverage(net, f, mode, named, supplied, cap) -> list[str]:
    """What an example of `_case` meets when f is evaluated at every state:
    a coalition node decided by synthesis, such nodes of one member set
    written in both orders, a member set whose space a node written out of
    name order built, a StrategyError, and a node that synthesis leaves
    unknown at its cap."""
    ev = FormulaEvaluator(net, mode=mode, supplied=supplied, strategies_by_name=named,
                          synthesis=SynthesisConfig(enumeration_cap=cap))
    labels = set()
    for i in range(ev.graph.n_states):
        try:
            ev.holds(f, i)
        except StrategyError:
            labels.add("a StrategyError")
    orders = {ev._nodes[node].coalition for node, _ in ev._synthesized}
    if orders:
        labels.add("a synthesized coalition node")
    if {("G", "H"), ("H", "G")} <= orders:
        labels.add("one member set in both orders")
    if any(space.coalition != space.agents for space in ev._spaces.values()):
        labels.add("a member set first synthesized in non-name order")
    if None in ev._synthesized.values():
        labels.add("a capped node")
    return sorted(labels)


@st.composite
def _case(draw):
    """A random network, a nested formula over it (atoms, ¬, ∧, ∨, →, K, A,
    coalition nodes whose strategy is named or supplied, and coalition
    nodes left to synthesis), a mode, a strategy per agent and a synthesis
    cap. Each example is labelled with its `_coverage`."""
    net, shape = draw(_network())
    named = {f"s{a}": _strategy(draw, a, *shape[a]) for a in AGENTS}
    f = _formula(draw, shape, draw(st.sampled_from((2, 3, 4))))
    supplied = [{a: named[f"s{a}"] for a in coalition} for coalition in COALITIONS]
    cap = draw(st.sampled_from((10, 300, 3000)))
    case = net, f, draw(st.sampled_from(("verify", "synthesize"))), named, supplied, cap
    for label in _coverage(*case):
        event(label)
    return case


def _summary(res):
    if res is None:
        return None
    return (res.verdict, res.reason, res.witness_path, res.witness_strategy,
            res.stats.strategies_enumerated, res.stats.strategies_checked)


def _outcome(run):
    """What `run()` returns, or the type and text of what it raises."""
    try:
        return run()
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc).__name__, str(exc)


def _assert_agrees(net, f, mode, every_state=True, **kwargs):
    """`eval_formula` and the oracle's report the same result, or raise the
    same error. With `every_state`, also at every state, in index order,
    the new evaluator and the oracle's give the same value and witness, or
    raise the same error, and count the same synthesis."""
    got = _outcome(lambda: _summary(eval_formula(net, f, mode=mode, **kwargs)))
    assert got == _outcome(lambda: _summary(oracle.eval_formula(net, f, mode=mode, **kwargs)))
    if every_state:
        new = FormulaEvaluator(net, mode=mode, **kwargs)
        old = oracle.FormulaEvaluator(net, mode=mode, **kwargs)
        for i in range(new.graph.n_states):
            value = _outcome(lambda: (new.holds(f, i), _summary(new.witness(f, i))))
            want = _outcome(lambda: (old.holds(f, i), _summary(old.witness(f, i))))
            assert value == want, (str(f), mode, i)
        assert (new.stats.strategies_enumerated, new.stats.strategies_checked) == \
            (old.stats.strategies_enumerated, old.stats.strategies_checked), (str(f), mode)
    return got


@settings(max_examples=300, deadline=None)
@given(case=_case())
def test_evaluator_matches_oracle_on_random_formulas(case):
    net, f, mode, named, supplied, cap = case
    _assert_agrees(net, f, mode, supplied=supplied, strategies_by_name=named,
                   synthesis=SynthesisConfig(enumeration_cap=cap))


def test_case_covers_synthesis_and_errors():
    # the `ci` profile's sample is fixed, so what it covers can be counted:
    # of its 300 examples, 61 decide a coalition node by synthesis, 21 of
    # them two nodes of one member set in both orders and 24 a member set
    # whose space a node written out of name order built; 24 raise a
    # StrategyError and 28 leave a node unknown at the cap
    counts: collections.Counter = collections.Counter()

    @settings(settings.get_profile("ci"), database=None, deadline=None)
    @given(case=_case())
    def count(case):
        counts.update(_coverage(*case))
        counts["examples"] += 1

    count()
    assert counts["examples"] == 300
    assert counts["a synthesized coalition node"] >= 30, counts
    assert counts["one member set in both orders"] >= 5, counts
    assert counts["a member set first synthesized in non-name order"] >= 10, counts
    assert counts["a StrategyError"] >= 15 and counts["a capped node"] >= 15, counts


def test_evaluator_matches_oracle_on_bundled_formulas():
    outcomes = set()
    for stem, f in catalog().formulas.values():
        bundle = load(stem)
        net, named = bundle.network, bundle.strategies
        by_agent = {}
        for s in named.values():
            by_agent.setdefault(s.agent, []).append(s)
        # every strategy alone, and every Coercer and Voter pair, supplied
        choices = [{s.agent: s} for s in named.values()]
        choices += [{"Coercer": c, "Voter": v} for c, v in itertools.product(
            by_agent.get("Coercer", []), by_agent.get("Voter", []))]
        for supplied in [{}] + choices:
            outcomes.add(_assert_agrees(net, f, "verify", supplied=[supplied],
                                        strategies_by_name=named)[0])
        # at every state under a small cap, at the initial state under the default one
        for cap, every_state in ((3000, True), (SynthesisConfig().enumeration_cap, False)):
            outcomes.add(_assert_agrees(net, f, "synthesize", every_state,
                                        strategies_by_name=named,
                                        synthesis=SynthesisConfig(enumeration_cap=cap))[0])
    assert {True, False, None, "DefinitionError"} <= outcomes


# -- a connective over atoms folded into one atom -----------------------------------

# the formulas of the `nested` benchmark workload, each with its model
NESTED = (
    (lambda: build_voter("full", 30, 20), "A G A F end"),
    (lambda: build_voter("full", 60, 40), "A G A F end"),
    (lambda: build_voter("full", 30, 20), "A G <<Voter:cast_verify_symbolwise>>^29 F end"),
    (lambda: load("infrastructure"), "A G A F true"),
    (lambda: build_coercer("punisher"),
     "A G (Voter@end -> (K[Coercer] ca_v == 1 || K[Coercer] !(ca_v == 1)))"),
    (lambda: build_voter("base"), "A G (check4_fail -> <<Voter:signal_on_dispute>>^2 F error)"),
)


def _assert_folding_keeps_labels(net, f, mode, **kwargs):
    """At every state, f as parsed and f with its atoms' connectives spelled
    out as formula connectives have the same value and witness, or raise
    the same error, and count the same synthesis. Returns whether the two
    differ as trees."""
    spelled = unfold(f)
    ev_f, ev_spelled = (FormulaEvaluator(net, mode=mode, **kwargs) for _ in range(2))
    for i in range(ev_f.graph.n_states):
        got = _outcome(lambda: (ev_f.holds(f, i), _summary(ev_f.witness(f, i))))
        want = _outcome(lambda: (ev_spelled.holds(spelled, i),
                                 _summary(ev_spelled.witness(spelled, i))))
        assert got == want, (str(f), mode, i)
    assert (ev_f.stats.strategies_enumerated, ev_f.stats.strategies_checked) == \
        (ev_spelled.stats.strategies_enumerated, ev_spelled.stats.strategies_checked)
    return spelled != f


def test_folded_atoms_label_like_their_connectives():
    differ = 0
    for stem, f in catalog().formulas.values():
        bundle = load(stem)
        first = {}
        for s in bundle.strategies.values():
            first.setdefault(s.agent, s)
        supplied = [{a: s} for a, s in first.items()] + [first]
        for mode in ("verify", "synthesize"):
            differ += _assert_folding_keeps_labels(
                bundle.network, f, mode, supplied=supplied,
                strategies_by_name=bundle.strategies,
                synthesis=SynthesisConfig(enumeration_cap=300))
    for build, text in NESTED:
        bundle = build()
        differ += _assert_folding_keeps_labels(
            bundle.network, parse_formula(text, bundle.network), "verify",
            strategies_by_name=bundle.strategies)
    assert differ == 13  # six bundled formulas in two modes, one nested formula


# -- each node labelled once ------------------------------------------------------

def test_knowledge_labels_its_subformula_once_per_state(monkeypatch):
    net = build_voter("full", 30, 20).network
    # built by hand: the parser folds `!error` into one atom
    f = Knows("Voter", FNot(parse_formula("error", net)))
    calls = []
    holds = FormulaEvaluator.holds

    def counting(self, g, i):
        if g is f.sub:
            calls.append(i)
        return holds(self, g, i)

    monkeypatch.setattr(FormulaEvaluator, "holds", counting)
    ev = FormulaEvaluator(net)
    values = [ev.holds(f, i) for i in range(ev.graph.n_states)]
    assert True in values and False in values
    assert len(calls) <= ev.graph.n_states
    assert len(set(calls)) == len(calls)


def test_fixed_node_is_labelled_once_for_verdict_and_witness(base, monkeypatch):
    calls = []
    label = checker.label_universal
    monkeypatch.setattr(checker, "label_universal",
                        lambda *args: calls.append(args[1]) or label(*args))
    res = eval_formula(base.network, parse_formula("A F end", base.network))
    assert (res.verdict, res.witness_path) == (False, (0, 1, 2, 3, 5, 7, 3))
    assert calls == ["F"]


def test_fixed_goal_node_is_read_as_a_whole_label_set(monkeypatch):
    net = build_voter("full", 30, 20).network
    calls = []
    strategic = FormulaEvaluator._eval_strategic
    monkeypatch.setattr(FormulaEvaluator, "_eval_strategic",
                        lambda self, node, i: calls.append(i) or strategic(self, node, i))
    res = eval_formula(net, parse_formula("A G A F end", net))
    assert res.verdict is False
    # the outer node at the asked state, once for the verdict and once for
    # its witness; the inner node only as its label set
    start = res.graph.index_of(net.initial_state())
    assert calls == [start, start]


def test_fixed_goal_node_that_fails_to_match_raises_like_the_oracle(base):
    net = base.network
    # `enter` is unavailable once the voter has voted, so matching fails
    # there; `skip` has no ⊤ rule and runs out of rules instead
    named = {
        "bad": parse_strategy("strategy bad for Voter { when !voted do *; "
                              "when true do enter; }", net),
        "skip": parse_strategy("partial strategy skip for Voter { when !voted do *; }",
                               net),
    }
    for text, error in (("A G <<Voter:bad>>^3 F end", True),
                        ("A G <<Voter:skip>>^3 F end", False),
                        ("A F (end || <<Voter:bad>>^3 X end)", True)):
        f = parse_formula(text, net)
        got = _assert_agrees(net, f, "verify", strategies_by_name=named)
        assert (got[0] == "StrategyError") is error, text
        if error:  # nothing is stored, so asking again raises again
            ev = FormulaEvaluator(net, strategies_by_name=named)
            assert [_outcome(lambda: ev.holds(f, 0)) for _ in range(2)] == [got, got]


def test_a_tainted_state_raises_its_strategy_error_within_the_graphs_size():
    # the error comes from exploring the tainted state's outcome, part of
    # the graph: here all of it, with `go` unavailable at the last state
    # it adds, so a state cap the graph meets exactly does not fire
    net = parse_network("agent A { init a0; loc a1; loc a2; edge a0 -> a1 on go; "
                        "edge a1 -> a2 on go; edge a2 -> a2 on stop; }", name="chain")
    named = {"s": parse_strategy("strategy s for A { when true do go; }", net)}
    f = parse_formula("A G <<A:s>>^5 F a2", net)
    cap = FormulaEvaluator(net).graph.n_states
    got = _assert_agrees(net, f, "verify", strategies_by_name=named, state_cap=cap)
    assert (cap, got[0]) == (3, "StrategyError")
    assert got == _outcome(lambda: eval_formula(net, f, strategies_by_name=named))


def test_fixed_goal_node_rejected_by_the_gate_agrees_with_the_oracle(base):
    net = base.network
    f = parse_formula("A G <<Voter:cast_verify>>^14 F end", net)
    inner = f.subs[0]
    got = _assert_agrees(net, f, "verify", strategies_by_name=base.strategies)
    assert got[:2] == (False, "a reachable state falsifies the G-subformula")
    ev = FormulaEvaluator(net, strategies_by_name=base.strategies)
    assert ev._label_set(inner) == set()


def test_capped_synthesis_state_counts_once(base):
    net = base.network
    node = parse_formula("<<Voter>>^2 F end", net)
    ev = FormulaEvaluator(net, mode="synthesize",
                          synthesis=SynthesisConfig(enumeration_cap=10))
    assert ev.holds(node, 0) is checker._UNKNOWN
    counts = (ev.stats.strategies_enumerated, ev.stats.strategies_checked)
    assert counts[0] == 11
    assert ev.holds(node, 0) is checker._UNKNOWN
    assert ev.witness(node, 0) is None
    assert (ev.stats.strategies_enumerated, ev.stats.strategies_checked) == counts


def test_formulas_dropped_between_calls_keep_apart(base):
    # a formula freed after its call must not hand its labels to the next
    # one, which may be allocated at the same address
    net = base.network
    ev = FormulaEvaluator(net)
    i = ev.graph.index_of(net.initial_state())
    for texts in (("!start", "!end"), ("K[Voter] start", "K[Voter] end"),
                  ("A F start", "A F end")):
        want = {t: eval_formula(net, parse_formula(t, net)).verdict for t in texts}
        for t in texts * 20:
            assert ev.holds(parse_formula(t, net), i) is want[t], t


def test_an_unknown_mode_is_a_definition_error():
    with pytest.raises(DefinitionError, match="unknown mode bogus"):
        FormulaEvaluator(build_voter("base").network, mode="bogus")
