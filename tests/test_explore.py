"""The compiled explorer and strategy matching against the syntax-tree
semantics over `GlobalState`s that they replaced (`explore_oracle`): the
same states in the same breadth-first order, the same transitions, the same
enabled moves, in the same order, stored at every reached state, the same
moves kept by a strategy and knowledge classes, and the same errors at the
same points."""

import collections
import importlib.util
import itertools
import pathlib
import re

import pytest
from hypothesis import event, given, settings

import explore_oracle as oracle
from natstrat import casestudy
from natstrat.checker import indistinguishability_classes
from natstrat.dsl import parse_guard_text, parse_network, parse_strategy
from natstrat.errors import (
    BoundViolationError, DefinitionError, ResourceLimitError, StrategyError,
)
from natstrat.model import (
    TRUE, And, Edge, GlobalState, Internal, LocAtom, Not, _compiled, _CompiledNetwork, explore,
)
from natstrat.outcome import backward_fixpoint, outcomes, restrict
from natstrat.strategy import NaturalStrategy, Rule, fix_strategy, strategy_filter

from conftest import out_edges
from test_outcome import _network_and_strategies, _packed_network_and_strategy


def _run(f):
    """f's result, or the type, text and `partial` of the error it raised."""
    try:
        return f()
    except (BoundViolationError, ResourceLimitError, StrategyError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "partial", None)


def _kind(what: str, got) -> str:
    """What `what` gave, as a hypothesis example's label: the type of the
    error it raised (BoundViolationError for an update that leaves its
    domain), or a graph."""
    return f"{what}: {got[0] if isinstance(got, tuple) else 'a graph'}"


def _shape(graph):
    return graph.states, [(t.source, t.move.label(), t.move, t.target)
                          for t in graph.transitions]


def assert_matches_oracle(net, s_A=None, **kwargs):
    """`explore` (under s_A, if any) against the oracle's, which filters
    each state's moves through `allowed_moves`: the same states,
    transitions or error; at each reached state, the stored moves are the
    oracle's enabled moves, or those s_A allows, in the oracle's order,
    each move id at most once; and each state's `succ` is its distinct
    productive targets in index order."""
    ref_keep = None if s_A is None else (lambda q, moves: oracle.allowed_moves(net, q, moves, s_A))
    got = _run(lambda: explore(net, s_A=s_A, **kwargs))
    want = _run(lambda: oracle.explore(net, move_filter=ref_keep, **kwargs))
    if isinstance(want, tuple):
        assert got == want
        return got
    assert _shape(got) == _shape(want)
    for i, q in enumerate(got.states):
        ids = got.move_ids[got.offsets[i]:got.offsets[i + 1]]
        moves = oracle.enabled_moves(net, q)
        if s_A is not None:
            moves = oracle.allowed_moves(net, q, moves, s_A)
        assert [got.moves[m] for m in ids] == moves, q
        assert len(set(ids)) == len(ids), q
    productive = [set() for _ in want.states]
    for t in want.transitions:
        if not t.move.is_idle:
            productive[t.source].add(t.target)
    assert got.succ == [sorted(js) for js in productive]
    return got


def _restricted(result):
    """`restrict`'s result with every successor list a list."""
    succ, errors = result
    return [list(outs) for outs in succ], errors


def _oracle_restricted(net, ref, s_A):
    """The oracle's `restrict` over the whole graph, with its error states,
    in index order, in place of their texts."""
    succ, errors = oracle.restrict(net, ref, s_A)
    return succ, list(errors)


def _pairs(states, succ):
    return {(states[i], states[j]) for i, outs in enumerate(succ) for j in outs}


def assert_outcomes_match_oracle(net, s_A, graph, ref, starts):
    """From each state i of `starts` in graph = explore(net), out(i, s_A),
    explored within the graph's size, against the oracle's walk from i
    over ref = oracle.explore(net): it raises a StrategyError exactly
    where i reaches an error state of `restrict(graph, s_A)` (the
    evaluator's tainted states), with the text of the first error the walk
    records, and otherwise has the states and successors the walk visits."""
    succ, errors = restrict(graph, s_A)
    tainted = backward_fixpoint(succ, errors, some=range(len(succ)))
    for i in starts:
        walked, walk_errors = oracle.restrict(net, ref, s_A, i)
        got = _run(lambda: outcomes(net, graph.states[i], s_A, state_cap=graph.n_states))
        assert bool(walk_errors) is (i in tainted), i
        if walk_errors:
            assert got == ("StrategyError", next(iter(walk_errors.values())), None), i
            continue
        assert set(got.states) == {ref.states[j] for j in {i}.union(*walked)}, i
        assert _pairs(got.states, got.succ) == _pairs(ref.states, walked), i


def assert_strategy_matches_oracle(net, s_A, starts=None):
    """At every state of explore(net): the moves s_A keeps (or the
    StrategyError its matching raises) and each agent's knowledge class;
    then `outcomes` from the initial state, `restrict` over the whole
    graph, and `outcomes` from each state of `starts` (default: all)."""
    graph, ref = explore(net), oracle.explore(net)
    assert graph.states == ref.states
    keep = strategy_filter(net, s_A)
    for i, q in enumerate(ref.states):
        moves = [t.move for t in ref.transitions if t.source == i]
        ids = graph.move_ids[graph.offsets[i]:graph.offsets[i + 1]]
        assert _run(lambda: [graph.moves[m] for m in keep(graph.keys[i], ids)]) == \
            _run(lambda: oracle.allowed_moves(net, q, moves, s_A)), q
    for agent in net.agents:
        classes = indistinguishability_classes(graph, agent.name)
        assert {frozenset(c) for c in classes.values()} == \
            oracle.indistinguishability_classes(net, ref.states, agent.name), agent.name
    got, want = _run(lambda: outcomes(net, None, s_A)), _run(lambda: oracle.outcomes(net, None, s_A))
    assert got == want if isinstance(want, tuple) else _shape(got) == _shape(want)
    assert _restricted(restrict(graph, s_A)) == _oracle_restricted(net, ref, s_A)
    assert_outcomes_match_oracle(net, s_A, graph, ref,
                                 range(graph.n_states) if starts is None else starts)


def _bundled_cases():
    """(name, network, strategy or None): every bundled model unfiltered and
    under each of its strategies, and voter_full(7,5)."""
    cases = []
    bundles = [(stem, casestudy.load(stem)) for stem in casestudy.models()]
    bundles.append(("voter_full(7,5)", casestudy.build_voter("full", 7, 5)))
    for name, bundle in bundles:
        net = bundle.network
        cases.append((name, net, None))
        for s in bundle.strategies.values():
            cases.append((f"{name}/{s.name}", net, {s.agent: s}))
        if not bundle.strategies:
            s = parse_strategy("strategy printing for PollWorker { when true do request_print; "
                               "when true do *; }", net)
            cases.append((f"{name}/printing", net, {s.agent: s}))
    return cases


@pytest.mark.parametrize("name,net,s_A", _bundled_cases(), ids=lambda v: v if isinstance(v, str) else "")
def test_bundled_models_match_oracle(name, net, s_A):
    assert_matches_oracle(net, s_A)
    if s_A is not None:
        # from every start on the small graphs, from a spread of them on the others
        n = len(oracle.explore(net).states)
        assert_strategy_matches_oracle(net, s_A, None if n <= 80 else range(0, n, n // 40))


def _corner_starts(net):
    """The states with every agent at its last or its middle location and
    every variable at its upper or lower bound that are not reachable from
    the initial state."""
    reached = explore(net)
    locations = [tuple(a.locations[-1] for a in net.agents),
                 tuple(a.locations[len(a.locations) // 2] for a in net.agents)]
    values = [tuple(v.hi for _, v in net.var_decls()), tuple(v.lo for _, v in net.var_decls())]
    starts = [GlobalState(locs, vals) for locs in locations for vals in values]
    return [q for q in starts if q not in reached]


@pytest.mark.parametrize("name,net,s_A", _bundled_cases(), ids=lambda v: v if isinstance(v, str) else "")
def test_bundled_models_match_oracle_from_unreachable_starts(name, net, s_A):
    starts = _corner_starts(net)
    assert starts
    for q in starts:
        assert_matches_oracle(net, s_A, start=q)


@settings(max_examples=150, deadline=None)
@given(case=_network_and_strategies())
def test_random_networks_match_oracle_from_every_start(case):
    # most of these starts are not reachable from the initial state
    net, s_A = case
    for locs in itertools.product(*(a.locations for a in net.agents)):
        for v in range(3):
            assert_matches_oracle(net, start=GlobalState(locs, (v,)))
            assert_matches_oracle(net, s_A, start=GlobalState(locs, (v,)))


@settings(max_examples=150, deadline=None)
@given(case=_network_and_strategies())
def test_random_networks_match_oracle(case):
    net, s_A = case
    assert_matches_oracle(net)
    assert_matches_oracle(net, s_A)
    assert_strategy_matches_oracle(net, s_A)


def _checked_packed_encoding(net, s_A) -> list[str]:
    """`explore`, unrestricted and under s_A, against the oracle; what each
    gave, as labels."""
    return [_kind("explore", assert_matches_oracle(net)),
            _kind("explore under the strategy", assert_matches_oracle(net, s_A))]


def _checked_packed_outcomes(net, s_A) -> str:
    """Unless exploring the network overflows, out(i, s_A) from every state
    i against the oracle's walk; what exploring gave, as a label."""
    graph = _run(lambda: explore(net))
    if not isinstance(graph, tuple):  # no update leaves its domain
        assert_outcomes_match_oracle(net, s_A, graph, oracle.explore(net),
                                     range(graph.n_states))
    return _kind("explore", graph)


@settings(deadline=None)
@given(case=_packed_network_and_strategy())
def test_packed_encoding_matches_oracle(case):
    # the number of examples is the hypothesis profile's: 100 by default,
    # 300 under the `ci` profile (tests/conftest.py)
    for label in _checked_packed_encoding(*case):
        event(label)


@settings(deadline=None)
@given(case=_packed_network_and_strategy())
def test_packed_outcomes_match_oracle_from_every_state(case):
    # sync sides assigning g, members on both ends, partial strategies;
    # _network_and_strategies gets the same check through
    # test_random_networks_match_oracle
    event(_checked_packed_outcomes(*case))


def test_packed_cases_mostly_explore_without_overflow():
    # the `ci` profile's sample is fixed, so what it covers can be counted,
    # each example checked as both tests above check it: of its 300
    # examples, 70 overflow when explored unrestricted and 43 under the
    # strategy (44 more raise a StrategyError there)
    counts: collections.Counter = collections.Counter()

    @settings(settings.get_profile("ci"), database=None, deadline=None)
    @given(case=_packed_network_and_strategy())
    def count(case):
        counts.update(_checked_packed_encoding(*case))
        _checked_packed_outcomes(*case)
        counts["examples"] += 1

    count()
    assert counts["examples"] == 300
    assert counts["explore: BoundViolationError"] <= 90, counts
    assert counts["explore under the strategy: BoundViolationError"] <= 70, counts


def test_a_strategy_that_drops_the_only_overflowing_move_raises_nothing():
    # `up` leaves x's domain at x = 1, where the strategy takes `done`: the
    # successor table keeps its step, and nothing runs it
    net = parse_network("agent A { var int[0,1] x = 0; init a0; loc a1; "
                        "edge a0 -> a0 on up do x := x + 1; edge a0 -> a1 on done; }",
                        name="dropped")
    with pytest.raises(BoundViolationError):
        explore(net)
    s_A = {"A": parse_strategy("strategy s for A { when x == 1 do done; when true do up; }", net)}
    graph = outcomes(net, None, s_A)
    assert [(q.locations, q.values) for q in graph.states] == [
        (("a0",), (0,)), (("a0",), (1,)), (("a1",), (1,))]
    assert_matches_oracle(net, s_A)


def test_a_refused_sync_whose_update_overflows_raises_nothing():
    # the pair's update leaves g's domain, and A's strategy never sends
    net = parse_network("channel c; global int[0,1] g = 1; "
                        "agent A(lazy) { init a0; loc a1; edge a0 -> a1 on s sync c! do g := g + 1; } "
                        "agent B { init b0; loc b1; edge b0 -> b1 on r sync c?; }",
                        name="dropped_sync")
    with pytest.raises(BoundViolationError):
        explore(net)
    s_A = {"A": parse_strategy("strategy s for A { when true do wait; }", net)}
    assert [t.move.label() for t in explore(net, s_A=s_A).transitions] == ["A.wait"]
    assert_matches_oracle(net, s_A)


# A's edges read only A's location; its rules also read B's location or the
# global g, which B's moves change while A stays at a0.
UNREAD_SRC = """
global int[0,1] g = 0;
agent A(lazy) { init a0; loc a1; edge a0 -> a1 on go; edge a1 -> a0 on back; }
agent B { init b0; loc b1; loc b2; edge b0 -> b1 on step do g := 1; edge b1 -> b2 on stop; }
"""


@pytest.mark.parametrize("guard", [
    # a parsed strategy observes no other agent's location: built by hand
    LocAtom("B", "b1"), And(Not(LocAtom("B", "b0")), LocAtom("A", "a0")), "g == 1"])
def test_a_rule_guard_on_a_field_the_edges_do_not_read(guard):
    net = parse_network(UNREAD_SRC, name="unread")
    if isinstance(guard, str):
        guard = parse_guard_text(guard, net, owner="A")
    s_A = {"A": NaturalStrategy("A", (Rule(guard, "go"), Rule(TRUE, "wait")), name="s")}
    graph = explore(net, s_A=s_A)
    # (a0, b0) and (a0, b1) agree on A's location: A waits at the one and goes at the other
    went = {graph.states[t.source].locations for t in graph.transitions if t.move.label() == "A.go"}
    assert ("a0", "b0") not in went and ("a0", "b1") in went
    assert_matches_oracle(net, s_A)
    for q in _corner_starts(net):
        assert_matches_oracle(net, s_A, start=q)


def test_two_copies_match_each_projection_once(monkeypatch):
    # A0's entries are shared by the states that differ only in A1
    copy = ("agent {0}(lazy) {{ var int[0,2] c = 0; init s; loc t; "
            "edge s -> t on up when c < 2 do c := c + 1; edge t -> s on down; }}")
    net = parse_network(copy.format("A0") + copy.format("A1"), name="copies")
    s_A = {"A0": parse_strategy("strategy s for A0 { when c < 2 do up; when t do down; "
                                "when true do wait; }", net)}
    comp = _compiled(net)
    calls = []

    def entry(net, pos, p, match=None):
        calls.append((pos, p))
        return type(comp).entry(comp, net, pos, p, match)
    monkeypatch.setattr(comp, "entry", entry)
    graph = explore(net, s_A=s_A)
    monkeypatch.undo()
    assert len(calls) == len(set(calls)) < 2 * graph.n_states
    assert len({p for pos, p in calls if pos == 0}) < graph.n_states
    assert_matches_oracle(net, s_A)


def test_a_second_explore_walks_no_rule_guard(monkeypatch):
    import natstrat.model as model
    base = casestudy.load("voter_base")  # a network no other test has compiled
    net, s = base.network, base.strategies["cast_verify"]
    rule_guards = {r.guard for r in s.rules}
    walked = []
    for name in ("nodes", "var_refs"):
        walk = getattr(model, name)
        monkeypatch.setattr(model, name,
                            lambda tree, walk=walk: walked.append(tree) or walk(tree))
    first = explore(net, s_A={"Voter": s})
    assert rule_guards & set(walked)
    walked.clear()
    again = explore(net, s_A={"Voter": s})
    assert not rule_guards & set(walked)
    assert again.keys == first.keys and again.succ == first.succ


# At the initial state, B's move would pass a cap of 1 and no rule of A's
# total strategy has its action available, whether A has a side enabled
# there or not
CAP_SRC = """
channel c;
agent B {{ init b0; loc b1; edge b0 -> b1 on step; {recv} }}
agent A {{ init a0; loc a1; edge a0 -> a1 on x; edge a1 -> a0 on y; {send} }}
"""


@pytest.mark.parametrize("sync", [False, True])
def test_a_strategy_error_and_the_state_cap_at_one_state(sync):
    net = parse_network(CAP_SRC.format(recv="edge b0 -> b0 on r sync c?;" if sync else "",
                                       send="edge a0 -> a0 on z sync c!;" if sync else ""),
                        name="capped")
    s_A = {"A": parse_strategy("strategy s for A { when a1 do x; when true do y; }", net)}
    assert _run(lambda: explore(net, state_cap=1))[0] == "ResourceLimitError"
    assert _run(lambda: explore(net, s_A=s_A, state_cap=1))[0] == "StrategyError"
    assert_matches_oracle(net, s_A, state_cap=1)


GUARDS_SRC = """
const top = 2;
const off = 0;
channel c;
global int[0,3] g = 0;
agent A(lazy) {
  var int[0,2] x = 0;
  init a0; loc a1; loc a2;
  edge a0 -> a1 on up when top > 1 && x < top do x := x + 1;
  edge a1 -> a0 on back when !(x == top) || off != 0 do g := top - x;
  edge a1 -> a2 on send when B@b0 || false sync c!;
  edge a2 -> a0 on never when top < 1 || false do x := 0;
  edge a2 -> a0 on reset when g >= x && true do x := off, g := g - g + x;
  edge a2 -> a2 on stay;
  edge a0 -> a2 on blocked when top < 1 && x == 0;
  edge a0 -> a0 on nope when x < 1 && off == 1;
  edge a2 -> a1 on open when top > 1 || x == 2;
  edge a1 -> a1 on always when x > 5 || top == 2;
}
agent B {
  init b0; loc b1;
  edge b0 -> b1 on recv sync c? do g := top + 1;
  edge b1 -> b0 on ret when A@a2 && !(g < off);
}
"""


def test_constant_guards_and_cross_agent_atoms_match_oracle():
    net = parse_network(GUARDS_SRC, name="guards")
    assert_matches_oracle(net)
    labels = {t.move.label() for t in explore(net).transitions}
    assert not {"A.never", "A.blocked", "A.nope"} & labels
    assert {"A.stay", "A.open", "A.always", "A.send!c / B.recv", "B.ret"} <= labels


def test_a_fixed_strategy_network_matches_oracle(base):
    # its edges repeat the strategy's conditions, which share closures
    s = base.strategies["cast_verify"]
    assert_matches_oracle(fix_strategy(base.network, {s.agent: s}))


PAIRS_SRC = """
channel c; channel d;
agent A { init a0; loc a1;
  edge a0 -> a1 on s1 sync d!; edge a0 -> a1 on s2 sync c!; edge a0 -> a0 on s3 sync c!; }
agent B { init b0; loc b1;
  edge b0 -> b1 on r1 sync c?; edge b0 -> b0 on s4 sync c!; edge b0 -> b0 on r2 sync c?;
  edge b0 -> b1 on r3 sync d?; }
agent C(lazy) { init c0; edge c0 -> c0 on r4 sync c?; }
"""


def test_sync_pairs_come_sender_by_sender_per_channel():
    net = parse_network(PAIRS_SRC, name="pairs")
    assert [t.move.label() for t in out_edges(explore(net), 0)] == [
        "C.wait",
        "A.s1!d / B.r3",
        "A.s2!c / B.r1", "A.s2!c / B.r2", "A.s2!c / C.r4",
        "A.s3!c / B.r1", "A.s3!c / B.r2", "A.s3!c / C.r4",
        "B.s4!c / C.r4",
    ]
    assert_matches_oracle(net)


def _count_pairings(monkeypatch) -> list:
    """One item per call of `_CompiledNetwork.pairing` from now on."""
    calls = []
    pairing = _CompiledNetwork.pairing
    monkeypatch.setattr(_CompiledNetwork, "pairing",
                        lambda self, net, hits: calls.append(1) or pairing(self, net, hits))
    return calls


def test_sync_pairs_are_formed_once_per_side_combination(infra_net, monkeypatch):
    calls = _count_pairings(monkeypatch)
    assert (explore(infra_net).n_states, len(calls)) == (448, 32)
    explore(infra_net)  # no pairing outlives its call
    assert len(calls) == 64


# One side combination at every state, and the paired move's update reads
# g, which differs from state to state; A keeps its side enabled, so its
# strategy is matched at every state
RECUR_SRC = """
channel c;
global int[0,3] g = 0;
agent A { init a0; edge a0 -> a0 on inc when g < 3 do g := g + 1; edge a0 -> a0 on send sync c!; }
agent B { var int[0,3] y = 0; init b0; edge b0 -> b0 on recv sync c? do y := g; }
"""


def test_a_recurring_side_combination_pairs_once_and_steps_per_state(monkeypatch):
    net = parse_network(RECUR_SRC, name="recur")
    calls = _count_pairings(monkeypatch)
    graph = explore(net)
    assert (graph.n_states, len(calls)) == (10, 1)  # y <= g
    monkeypatch.undo()
    assert_matches_oracle(net)
    s_A = {"A": parse_strategy("strategy s for A { when g < 2 do inc; when true do send; }", net)}
    assert_matches_oracle(net, s_A)
    assert_strategy_matches_oracle(net, s_A)


# At a0 no rule of A's total strategy has its action available; B's flip
# changes only g, which no rule reads, so the two a0 states share the
# filter's memo key (the key under the rules' read mask, and the move ids)
SHARED_KEY_SRC = """
global int[0,1] g = 0;
agent A { init a0; loc a1; edge a0 -> a1 on go; edge a1 -> a0 on back; }
agent B { init b0; edge b0 -> b0 on flip do g := 1 - g; }
"""


def test_states_sharing_a_memo_key_each_raise_their_own_error():
    net = parse_network(SHARED_KEY_SRC, name="shared")
    s_A = {"A": parse_strategy("strategy s for A { when a1 do go; when true do back; }", net)}
    graph, ref = explore(net), oracle.explore(net)
    failing = [i for i, q in enumerate(graph.states) if q.locations[0] == "a0"]
    ids = [tuple(graph.move_ids[graph.offsets[i]:graph.offsets[i + 1]]) for i in failing]
    assert len(failing) == 2 and ids[0] == ids[1]
    keep = strategy_filter(net, s_A)
    for _ in range(2):  # nothing kept from the first pass hides an error
        texts = {}
        for i in range(graph.n_states):
            try:
                keep(graph.keys[i], graph.move_ids[graph.offsets[i]:graph.offsets[i + 1]])
            except StrategyError as exc:
                texts[i] = str(exc)
        assert sorted(texts) == failing
        for i in failing:
            assert texts[i].endswith(f"no rule matches at {graph.states[i]} "
                                     "(final rule's action unavailable)")
        assert texts == oracle.restrict(net, ref, s_A)[1]
    assert _restricted(restrict(graph, s_A)) == _oracle_restricted(net, ref, s_A)
    assert_strategy_matches_oracle(net, s_A)


def test_restrict_matches_once_per_memo_key(monkeypatch):
    import natstrat.strategy as strategy
    bundle = casestudy.build_voter("full", 30, 20)
    s = bundle.strategies["cast_verify_symbolwise"]
    graph = explore(bundle.network)
    calls = []
    matcher = strategy._matcher

    def counting(net, s):
        allowed = matcher(net, s)
        return lambda key, avail: calls.append(key) or allowed(key, avail)
    monkeypatch.setattr(strategy, "_matcher", counting)
    succ, errors = restrict(graph, {s.agent: s})
    assert (len(calls), graph.n_states) == (121, 462)
    monkeypatch.undo()
    assert (succ, errors) == restrict(graph, {s.agent: s})


@pytest.mark.parametrize("src,message", [
    ("const top = 2; agent A { var int[0,2] x = 1; init a0; loc a1; "
     "edge a0 -> a1 on up do x := x + top; }",
     "assignment x := x + top yields 3, outside [0,2] of variable x"),
    # the receiver's update overflows after the sender's ran
    ("channel c; global int[0,1] g = 0; "
     "agent A { init a0; loc a1; edge a0 -> a1 on s sync c! do g := g + 1; } "
     "agent B { init b0; loc b1; edge b0 -> b1 on r sync c? do g := g + 1; }",
     "assignment g := g + 1 yields 2, outside [0,1] of variable g"),
    # a later assignment of the same edge reads the earlier one's value
    ("agent A { var int[0,3] x = 0; var int[0,1] y = 0; init a0; loc a1; "
     "edge a0 -> a1 on up do x := 3, y := x - 1; }",
     "assignment y := x - 1 yields 2, outside [0,1] of variable y"),
])
def test_overflow_raises_the_oracles_error(src, message):
    net = parse_network(src, name="overflow")
    with pytest.raises(BoundViolationError, match=f"^{re.escape(message)}$"):
        explore(net)
    assert _run(lambda: explore(net)) == _run(lambda: oracle.explore(net)) == \
        ("BoundViolationError", message, None)
    assert_matches_oracle(net)


@pytest.mark.parametrize("cap", [1, 2, 10, 157])
def test_state_cap_raises_with_the_oracles_partial(full75, cap):
    net = full75.network
    got = _run(lambda: explore(net, state_cap=cap))
    assert got == _run(lambda: oracle.explore(net, state_cap=cap))
    assert got == ("ResourceLimitError", f"state cap {cap} exceeded", cap)
    assert_matches_oracle(net, state_cap=158)


def test_a_repeated_edge_gives_two_transitions_that_restrict_keeps():
    # moves are interned by declared position, so the two equal edges stay
    # two moves, distinct within the state's out-edges
    net = parse_network("agent T { init s0; loc s1; loc s2; "
                        "edge s0 -> s1 on a; edge s0 -> s1 on a; edge s0 -> s2 on b; }",
                        name="twice")
    graph = explore(net)
    first, second, other = out_edges(graph, 0)
    assert first.move == second.move and first.move is not second.move
    assert (first.target, second.target) == (1, 1)
    assert_matches_oracle(net)
    s_A = {"T": parse_strategy("strategy sa for T { when true do a; }", net)}
    ids = graph.move_ids[0:3]
    assert strategy_filter(net, s_A)(graph.keys[0], ids) == tuple(ids[:2])
    assert_strategy_matches_oracle(net, s_A)
    assert restrict(graph, s_A)[0][0] == [1]
    s_B = {"T": parse_strategy("strategy sb for T { when true do b; }", net)}
    assert restrict(graph, s_B)[0][0] == [2]
    # explored under sa, s0's two kept moves reach one state: a successor
    # list of one; unrestricted, s0 has three productive moves
    assert graph.succ[0] == [1, 2]
    outcome = explore(net, s_A=s_A)
    assert (outcome.succ, list(outcome.targets)) == ([[1], []], [1, 1])
    assert_matches_oracle(net, s_A)


# s0's two successors are found in index order, s1's in reverse order, and
# s2's productive spin leaves it where it is, beside its wait
ORDERS_SRC = """
agent T(lazy) { init s0; loc s1; loc s2;
  edge s0 -> s1 on a; edge s0 -> s2 on b;
  edge s1 -> s2 on c; edge s1 -> s0 on d;
  edge s2 -> s2 on spin; }
"""


def test_successor_lists_in_either_order_and_a_productive_self_loop():
    net = parse_network(ORDERS_SRC, name="orders")
    graph = explore(net)
    assert [[t.target for t in out_edges(graph, i)] for i in range(3)] == \
        [[1, 2, 0], [2, 0, 1], [2, 2]]
    assert graph.succ == [[1, 2], [0, 2], [2]]
    assert_matches_oracle(net)
    for i in range(3):
        assert_matches_oracle(net, start=graph.states[i])


def _scale_model():
    """bench/scale_model.py, which builds the scale workload's network."""
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "scale_model.py"
    spec = importlib.util.spec_from_file_location("scale_model", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("order", [[0, 1], [1, 0]])
def test_two_voter_copies_match_oracle(order):
    # the scale workload's shape at voter_full(1,1): 6,084 states and 25,896
    # stored edges, across some 400 flushes of the edge buffers
    scale_model = _scale_model()
    net = parse_network(scale_model.copies_text(order, 1, 1), name="voter_copies")
    graph = assert_matches_oracle(net)
    assert (graph.n_states, len(graph.targets)) == (6_084, 25_896)
    s = parse_strategy(scale_model.strategy_text("cast_verify_symbolwise", "Voter0"), net)
    assert_matches_oracle(net, {"Voter0": s})


def test_an_interned_move_is_shared_across_states(base):
    graph = explore(base.network)
    by_edge: dict = {}  # the wait edges are interned too: one per location
    for t in graph.transitions:
        key = (t.move.edge.source, t.move.label()) if t.move.is_idle else id(t.move.edge)
        by_edge.setdefault(key, set()).add(id(t.move))
    assert all(len(ids) == 1 for ids in by_edge.values())
    assert len(graph.transitions) > len(by_edge)  # some move recurs
    # and across explorations: from a later state, the same objects again
    i = graph.n_states // 2
    again = explore(base.network, start=graph.states[i])
    assert [id(t.move) for t in out_edges(again, 0)] == [id(t.move) for t in out_edges(graph, i)]


def test_undeclared_start_location_is_a_definition_error(base):
    net = base.network
    q = GlobalState(("nowhere",), net.initial_state().values)
    with pytest.raises(DefinitionError, match="^agent Voter: no location nowhere$"):
        explore(net, start=q)


def test_a_start_of_the_wrong_shape_is_a_definition_error(base):
    with pytest.raises(DefinitionError):
        explore(base.network, start=GlobalState(("start", "start"), ()))


def test_a_hand_built_move_is_applied_like_the_oracle(toy_net):
    # the compiled successor function of a move that no edge interned
    net = toy_net
    comp = _compiled(net)

    def apply(q, move):
        return comp.decode(comp.step(net, move)[1](comp.encode(net, q)))

    q = net.state(locations={"T": "l1"})
    move = Internal("T", Edge("l1", "l2", "step", updates=net.agent("T").edges[1].updates))
    assert all(m is not move for m in comp.moves)
    assert apply(q, move) == oracle.apply_move(net, q, move)
    # a self-loop off its source still installs its target location
    loop = Internal("T", Edge("l1", "l1", "bump"))
    at_l0 = net.state(locations={"T": "l0"})
    assert apply(at_l0, loop) == oracle.apply_move(net, at_l0, loop) == q
