import pytest
from hypothesis import given, settings, strategies as st

from natstrat.dsl import parse_guard_text, parse_strategy
from natstrat.errors import DefinitionError, StrategyError
from natstrat.model import Comparison, Network, TrueConst, VarRef, explore, eval_guard
from natstrat.outcome import outcomes
from natstrat.strategy import (
    LITERAL_CONVENTION, WILDCARD, NaturalStrategy, Rule, complexity,
    firing_exclusive, fix_strategy, guard_length, make_mutually_exclusive,
    audit_strategy,
)

from conftest import two_state_net
from explore_oracle import match_rule


# -- guard length / complexity -------------------------------------------------

def test_guard_length_spot_checks(base, punisher):
    ns1 = base.strategies["cast_verify"]
    assert guard_length(ns1.rules[3].guard) == 5
    assert guard_length(ns1.rules[-1].guard) == 1
    cs1 = punisher.strategies["punish_disobedient"]
    assert guard_length(cs1.rules[2].guard) == 10


def test_guard_length_literal_convention(full75, punisher):
    net = full75.network
    g = parse_guard_text("i == n", net, owner="Voter")
    assert guard_length(g) == 1
    assert guard_length(g, LITERAL_CONVENTION) == 3
    cs1 = punisher.strategies["punish_disobedient"]
    assert complexity(cs1, LITERAL_CONVENTION) == 18  # ca_v != ca counts 3


def test_complexities(base, check4, full75, punisher, infector, watchdog):
    assert complexity(base.strategies["cast_verify"]) == 15
    assert complexity(base.strategies["cast_verify_extra_checks"]) == 21
    assert complexity(check4.strategies["cast_verify_split_check4"]) == 17
    assert complexity(full75.strategies["cast_verify_symbolwise"]) == 29
    assert complexity(punisher.strategies["punish_disobedient"]) == 16
    assert complexity(infector.strategies["infect_replace"]) == 6
    assert complexity(watchdog.strategies["infect_watch_punish"]) == 7


def test_collective_complexity_sums(base, punisher):
    ns1 = base.strategies["cast_verify"]
    cs1 = punisher.strategies["punish_disobedient"]
    coll = {"Voter": ns1, "Coercer": cs1}
    assert complexity(coll) == 31


# -- matching ---------------------------------------------------------------------
# the rule numbers come from the oracle's `match_rule`; `test_explore` checks
# the moves `strategy_filter` keeps against it at every state

def test_match_rule_examples(base):
    net = base.network
    ns1 = base.strategies["cast_verify"]
    assert match_rule(net, net.state(locations={"Voter": "has_ballot"}), ns1) == 1
    assert match_rule(net, net.state(locations={"Voter": "voted"}), ns1) == 3
    assert match_rule(net, net.state(locations={"Voter": "printing"}), ns1) == 9


def test_match_rule_availability_skip(full22):
    net = full22.network
    ns4 = full22.strategies["cast_verify_symbolwise"]
    # mid-loop: move_next is available, the disjunction rule fires
    mid = net.state(locations={"Voter": "receipt_check_sn"}, values={"i": 1})
    assert match_rule(net, mid, ns4) == 6
    # loop exit: move_next's guard i<n fails, so the exit rule fires instead
    done = net.state(locations={"Voter": "receipt_check_sn"}, values={"i": 2})
    assert match_rule(net, done, ns4) == 9


def test_match_rule_partial_returns_none(punisher):
    net = punisher.network
    cs1 = punisher.strategies["punish_disobedient"]
    spent = net.state(values={"coerced_v": 1, "requested_v": 1, "punished_v": 1})
    assert match_rule(net, spent, cs1) is None


def test_match_rule_total_unavailable_raises():
    net = two_state_net()
    s = NaturalStrategy("T", (Rule(TrueConst(), "b"),))  # 'b' never exists
    with pytest.raises(StrategyError):
        match_rule(net, net.initial_state(), s)
    with pytest.raises(StrategyError, match=r"^strategy T: no rule matches at "
                       r"GlobalState\(locations=\('s0',\), values=\(\)\)"):
        audit_strategy(net, s)


def test_availability_audit_bundled(base, check4, full75, punisher, infector,
                                    watchdog):
    for bundle, names in ((base, ["cast_verify", "cast_verify_extra_checks"]),
                          (check4, ["cast_verify_split_check4"]),
                          (full75, ["cast_verify_symbolwise"]),
                          (punisher, ["punish_disobedient"]),
                          (infector, ["infect_replace"]),
                          (watchdog, ["infect_watch_punish"])):
        g = explore(bundle.network)
        for name in names:
            audit_strategy(bundle.network, bundle.strategies[name], g)


# -- mutual exclusion --------------------------------------------------------------

def test_me_matches_published_listing(base):
    ns1 = base.strategies["cast_verify"]
    me = make_mutually_exclusive(ns1)
    assert str(me.rules[1].guard) == "!has_ballot && scanning"
    assert me.rules[1].action == "enter_vote"
    assert str(me.rules[3].guard) == \
        "!has_ballot && !scanning && !voted && (check2_ok || check2_fail || out)"
    assert me.rules[3].action == "move_next"
    # the final rule stays verbatim
    assert isinstance(me.rules[-1].guard, TrueConst)
    assert me.rules[-1].action is WILDCARD


def test_me_single_rule_unchanged(base):
    s = parse_strategy("strategy one for Voter { when true do wait; }",
                       base.network)
    assert make_mutually_exclusive(s).rules == s.rules


def test_me_preserves_actions_and_order(base):
    ns2 = base.strategies["cast_verify_extra_checks"]
    me = make_mutually_exclusive(ns2)
    assert [r.action for r in me.rules] == [r.action for r in ns2.rules]


def test_me_match_invariance(base, check4, punisher, infector, watchdog):
    for bundle, names in ((base, ["cast_verify", "cast_verify_extra_checks",
                                  "signal_on_dispute"]),
                          (check4, ["cast_verify_split_check4"]),
                          (punisher, ["punish_disobedient"]),
                          (infector, ["infect_replace"]),
                          (watchdog, ["infect_watch_punish"])):
        net = bundle.network
        graph = explore(net)
        for name in names:
            s = bundle.strategies[name]
            me = make_mutually_exclusive(s)
            for q in graph.states:
                assert match_rule(net, q, s) == match_rule(net, q, me), (name, q)


def test_me_invariance_symbolwise_needs_availability(full22):
    """The guard-only transformation is exact everywhere except the two
    comparison-loop exits, where a guard-true rule is skipped for lack of its
    action; the firing-aware variant is exact everywhere."""
    net = full22.network
    ns4 = full22.strategies["cast_verify_symbolwise"]
    me = make_mutually_exclusive(ns4)
    fx = firing_exclusive(net, ns4)
    divergent = set()
    for q in explore(net).states:
        assert match_rule(net, q, ns4) == match_rule(net, q, fx)
        if match_rule(net, q, ns4) != match_rule(net, q, me):
            loc = q.locations[net.agent_pos("Voter")]
            i = q.values[net.var_pos("Voter", "i")]
            j = q.values[net.var_pos("Voter", "j")]
            divergent.add((loc, i, j))
    assert divergent == {("receipt_check_sn", 2, 0), ("receipt_check_pr", 2, 2)}


def test_transformed_guards_disjoint(base):
    net = base.network
    me = make_mutually_exclusive(base.strategies["cast_verify"])
    for q in explore(net).states:
        holding = [r for r in me.rules[:-1] if eval_guard(r.guard, q, net)]
        assert len(holding) <= 1


@st.composite
def _random_strategies(draw):
    atoms = ["has_ballot", "scanning", "voted", "check2_ok", "out", "shred"]
    n = draw(st.integers(1, 5))
    lines = []
    for _ in range(n):
        k = draw(st.integers(1, 3))
        picks = draw(st.lists(st.sampled_from(atoms), min_size=k, max_size=k))
        op = draw(st.sampled_from(["||", "&&"]))
        guard = f" {op} ".join(picks)
        if draw(st.booleans()):
            guard = f"!({guard})" if k > 1 else f"!{guard}"
        lines.append(f"when {guard} do wait;")
    lines.append("when true do *;")
    return "strategy r for Voter { " + " ".join(lines) + " }"


@settings(max_examples=80, deadline=None)
@given(src=_random_strategies())
def test_me_complexity_monotone(base, src):
    s = parse_strategy(src, base.network)
    me = make_mutually_exclusive(s)
    assert complexity(me) >= complexity(s)
    assert complexity(s) >= len(s.rules)


# -- fixing ------------------------------------------------------------------------

def test_fix_empty_coalition_is_identity(base):
    assert fix_strategy(base.network, {}) == base.network


def test_fix_unknown_agent(base):
    s = base.strategies["cast_verify"]
    with pytest.raises(DefinitionError):
        fix_strategy(base.network, {"Ghost": s})


def test_fix_validates_the_rule_guards_not_the_network(toy_net, monkeypatch):
    net = toy_net
    ok = parse_strategy("strategy s for T { when x < 3 do go; when true do wait; }", net)
    # built by hand, as the parser resolves every name it reads
    bad = NaturalStrategy("T", (Rule(Comparison(VarRef(None, "nope"), "==", 1), "go"),
                                Rule(TrueConst(), "wait")))
    monkeypatch.setattr(Network, "_validate", lambda self: pytest.fail("validated again"))
    assert explore(fix_strategy(net, {"T": ok})).n_states > 1
    with pytest.raises(DefinitionError, match="^agent T: unresolved variable reference nope$"):
        fix_strategy(net, {"T": bad})


def test_fix_ns1_every_path_reaches_end(base):
    net = fix_strategy(base.network, {"Voter": base.strategies["cast_verify"]})
    og = outcomes(net, None, {})
    end = og.satisfying(parse_guard_text("end", net))
    # every maximal trace reaches end: no terminal or cycle outside it
    from natstrat.checker import check_temporal_universal
    assert check_temporal_universal(og.succ, "F", [end]).verdict is True


def test_fix_forbidding_check2_removes_check2_ok(base):
    net = base.network
    s = parse_strategy(
        "strategy stubborn for Voter { when voted do wait; when true do *; }",
        net)
    fixed = fix_strategy(net, {"Voter": s})
    g = explore(fixed)
    ok = parse_guard_text("check2_ok", net)
    assert not g.satisfying(ok)


def test_fix_equals_direct_outcomes(base, check4, full22, punisher):
    cases = [(base, "cast_verify"), (base, "cast_verify_extra_checks"),
             (check4, "cast_verify_split_check4"),
             (full22, "cast_verify_symbolwise"),
             (punisher, "punish_disobedient")]
    for bundle, name in cases:
        net = bundle.network
        s = bundle.strategies[name]
        fixed_graph = explore(fix_strategy(net, {s.agent: s}))
        direct = outcomes(net, None, {s.agent: s})
        as_set = lambda g: {(q.locations, q.values) for q in g.states}
        assert as_set(fixed_graph) == as_set(direct), name
        key = lambda g: {(g.states[t.source], t.move.label(), g.states[t.target])
                         for t in g.transitions}
        assert key(fixed_graph) == key(direct), name


def test_fixed_network_stays_valid(base):
    fixed = fix_strategy(base.network, {"Voter": base.strategies["cast_verify"]})
    # wait loops survive exactly where only the wildcard rule can match
    tpl = fixed.agent("Voter")
    assert not tpl.lazy
    waits = {e.source for e in tpl.edges if e.action == "wait"}
    assert waits == {"start", "printing", "check1", "check3", "end", "error"}
    # off-strategy actions are gone entirely
    assert not any(e.action in ("check1", "check3", "skip", "signal_error")
                   for e in tpl.edges)
