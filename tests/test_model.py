import pytest
from hypothesis import given, settings, strategies as st

import explore_oracle as oracle
from natstrat import casestudy
from natstrat.checker import _guards_of_cost, default_vocabulary
from natstrat.errors import BoundViolationError, DefinitionError, ResourceLimitError
from natstrat.model import (
    TRUE, And, Comparison, FalseConst, GlobalState, Internal, LocAtom, Not, Or,
    Synchronized, TrueConst, VarAtom, VarRef, eval_guard, explore,
)
from natstrat.dsl import parse_guard_text, parse_network
from natstrat.strategy import strategy_filter

from conftest import moves_at, out_edges, two_state_net
from test_outcome import _network_and_strategies


def _actions(net, q, agent):
    """The actions the agent takes part in among the moves enabled at q."""
    return {action for m in moves_at(net, q)
            for actor, action in zip(m.actors, m.actions) if actor == agent}


def _successor(net, q, action):
    """The state that the move of `action` enabled at q leads to."""
    g = explore(net, start=q)
    return g.states[next(t.target for t in out_edges(g, 0)
                         if isinstance(t.move, Internal) and t.move.edge.action == action)]


def _both(g, q, net):
    """`eval_guard` at q, checked against the oracle's interpreter."""
    got = eval_guard(g, q, net)
    assert got == oracle.eval_guard(g, q, net), (str(g), q)
    return got


def test_eval_guard_constants_and_atoms(base):
    net = base.network
    q = net.initial_state()
    assert _both(TrueConst(), q, net)
    assert not _both(FalseConst(), q, net)
    at = net.state(locations={"Voter": "has_ballot"})
    assert _both(parse_guard_text("has_ballot", net), at, net)
    assert not _both(parse_guard_text("has_ballot", net), q, net)


def test_eval_guard_const_comparison(full75):
    net = full75.network
    q = net.state(values={"i": 7})
    assert _both(parse_guard_text("i == n", net), q, net)
    assert not _both(parse_guard_text("i == n", net), net.initial_state(), net)


@pytest.mark.parametrize("op", ["==", "!=", "<", "<=", ">", ">="])
def test_comparisons_on_packed_fields_match_oracle(op):
    # g has a negative lower bound and `one` a singleton domain; the
    # constant lies below, inside and above the domains, on either side
    for k in range(-3, 5):
        net = parse_network(f"const c = {k}; global int[-2,1] g = 0; global int[3,3] one = 3; "
                            "agent A { var int[0,2] x = 0; init a0; }", name="cmp")
        guards = [parse_guard_text(text, net) for var in ("g", "x", "one")
                  for text in (f"{var} {op} c", f"c {op} {var}", f"{var} {op} {k}", var)]
        guards += [parse_guard_text(f"{a} {op} {b}", net)
                   for a in ("g", "x", "one") for b in ("g", "x", "one")]
        for g_value in range(-2, 2):
            for x_value in range(3):
                q = net.state(values={"g": g_value, "x": x_value})
                for guard in guards:
                    _both(guard, q, net)


def test_constants_are_looked_up_by_name(full75):
    net = full75.network
    assert (net.constant("n"), net.constant("m")) == (7, 5)
    with pytest.raises(DefinitionError, match="^unknown constant k$"):
        net.constant("k")


def test_enabled_moves_empty_on_deadlock():
    net = parse_network("agent D { init only; }", name="dead")
    assert moves_at(net, net.initial_state()) == []


def test_enabled_moves_voter_has_ballot(base):
    net = base.network
    q = net.state(locations={"Voter": "has_ballot"})
    assert "scan_ballot" in _actions(net, q, "Voter")


def test_enabled_moves_sync_pair():
    net = parse_network("""
channel print;
agent PW { init idle; edge idle -> idle on request sync print!; }
agent Printer { init wait; loc busy; edge wait -> busy on receive sync print?; }
""", name="printtoy")
    moves = moves_at(net, net.initial_state())
    syncs = [m for m in moves if isinstance(m, Synchronized)]
    assert len(syncs) == 1
    assert syncs[0].channel == "print"
    assert syncs[0].sender == "PW" and syncs[0].receiver == "Printer"


def test_apply_wait_is_identity(base):
    net = base.network
    g = explore(net)
    wait = [t.target for t in out_edges(g, 0) if t.move.is_idle]
    assert wait == [0]


def test_apply_scan_ballot(base):
    net = base.network
    q = net.state(locations={"Voter": "has_ballot"})
    q2 = _successor(net, q, "scan_ballot")
    assert q2.locations[net.agent_pos("Voter")] == "scanning"
    assert q2.values == q.values


def test_apply_update_increment(toy_net):
    net = toy_net
    q = net.state(locations={"T": "l1"})
    q2 = _successor(net, q, "step")
    assert q2.values[net.var_pos("T", "x")] == 1


def test_apply_out_of_bounds_raises():
    net = parse_network("""
agent O { var int[0,1] c = 1; init a; loc b; edge a -> b on inc do c := c + 1; }
""", name="oob")
    with pytest.raises(BoundViolationError,
                       match=r"^assignment c := c \+ 1 yields 2, outside \[0,1\] of variable c$"):
        explore(net)


def test_available_actions_lazy_only_wait():
    net = parse_network("agent L(lazy) { init only; }", name="lazyonly")
    assert _actions(net, net.initial_state(), "L") == {"wait"}


def test_available_actions_voter(base):
    net = base.network
    voted = net.state(locations={"Voter": "voted"})
    assert "check2" in _actions(net, voted, "Voter")
    printing = net.state(locations={"Voter": "printing"})
    assert "print_ballot" in _actions(net, printing, "Voter")


def test_available_actions_unknown_agent(base):
    s = base.strategies["cast_verify"]
    with pytest.raises(DefinitionError, match="^unknown agent Nobody$"):
        strategy_filter(base.network, {"Nobody": s})


def test_explore_single_state():
    net = parse_network("agent S { init only; }", name="single")
    g = explore(net)
    assert g.n_states == 1 and g.transitions == []


def test_explore_two_state_toy():
    g = explore(two_state_net())
    assert g.n_states == 2
    assert len(g.transitions) == 1


def test_explore_closed(base):
    g = explore(base.network)
    for t in g.transitions:
        assert 0 <= t.target < g.n_states
        assert 0 <= t.source < g.n_states


def test_explore_deterministic_identity(base):
    g1 = explore(base.network)
    g2 = explore(base.network)
    assert g1.states == g2.states


def test_explore_state_cap(base):
    with pytest.raises(ResourceLimitError) as err:
        explore(base.network, state_cap=10)
    assert err.value.partial == 10


def test_explore_counts_the_initial_state_against_the_cap():
    net = parse_network("agent T { init s0; }")
    assert explore(net, state_cap=1).n_states == 1
    for cap in (0, -1):
        with pytest.raises(ResourceLimitError, match=f"^state cap {cap} exceeded$") as err:
            explore(net, state_cap=cap)
        assert err.value.partial == 0


def test_state_values_lie_in_their_domain(punisher):
    net = punisher.network
    with pytest.raises(DefinitionError, match=r"^variable ca_v: value 9 outside \[0,2\]$"):
        net.state(values={"ca_v": 9})
    with pytest.raises(DefinitionError, match=r"^variable ca_v: value -1 outside \[0,2\]$"):
        net.state(values={"ca_v": -1})
    pos = [v.name for _, v in net.var_decls()].index("ca_v")
    assert net.state(values={"ca_v": 2}).values[pos] == 2


def test_explore_checks_its_start_once(punisher, monkeypatch):
    net = punisher.network
    q = net.state(values={"ca_v": 2})
    pos = [v.name for _, v in net.var_decls()].index("ca_v")
    bad = GlobalState(q.locations, q.values[:pos] + (9,) + q.values[pos + 1:])
    with pytest.raises(DefinitionError, match=r"^variable ca_v: value 9 outside \[0,2\]$"):
        explore(net, start=bad)
    calls = []
    check = type(net)._check_values
    monkeypatch.setattr(type(net), "_check_values",
                        lambda self, values: calls.append(values) or check(self, values))
    assert explore(net, start=q).n_states > 1
    assert calls == [q.values]


def test_a_state_outside_its_domains_is_a_definition_error(punisher):
    # a value outside its domain has no bits in a state key: every call on
    # such a state says so, and no graph holds it
    net = punisher.network
    graph = explore(net)
    q = graph.states[0]
    pos = [v.name for _, v in net.var_decls()].index("ca_v")
    bad = GlobalState(q.locations, q.values[:pos] + (9,) + q.values[pos + 1:])
    message = r"^variable ca_v: value 9 outside \[0,2\]$"
    for call in (lambda: eval_guard(TRUE, bad, net),
                 lambda: eval_guard(parse_guard_text("ca_v == 9", net), bad, net),
                 lambda: explore(net, start=bad)):
        with pytest.raises(DefinitionError, match=message):
            call()
    assert q in graph and bad not in graph
    with pytest.raises(KeyError):
        graph.index_of(bad)


def test_lazy_templates_never_deadlock(base):
    net = base.network
    g = explore(net)
    assert all(g.offsets[i] < g.offsets[i + 1] for i in range(g.n_states))


def test_apply_move_deterministic(toy_net):
    g = explore(toy_net)
    for t in g.transitions[:50]:
        q = g.states[t.source]
        assert oracle.apply_move(toy_net, q, t.move) == g.states[t.target]


def _view_cases():
    bundles = [(stem, casestudy.load(stem)) for stem in casestudy.models()]
    bundles.append(("voter_full(7,5)", casestudy.build_voter("full", 7, 5)))
    return [pytest.param(bundle.network, id=name) for name, bundle in bundles]


@pytest.mark.parametrize("net", _view_cases())
def test_graph_views_read_as_lists(net):
    # the columns read back as the per-edge and per-state lists they replaced
    g = explore(net)
    edges = [t for i in range(g.n_states) for t in out_edges(g, i)]
    assert list(g.transitions) == edges and g.transitions == edges
    assert len(g.transitions) == len(edges) and len(g.states) == g.n_states
    assert g.transitions[:50] == edges[:50] and g.transitions[-1] == edges[-1]
    assert g.states[-1] == list(g.states)[-1] and g.states[2:5] == list(g.states)[2:5]
    with pytest.raises(IndexError):
        g.states[g.n_states]
    for i in range(g.n_states):
        assert g.succ[i] == sorted({t.target for t in out_edges(g, i) if not t.move.is_idle})
    for agent in net.agents:
        for atom in default_vocabulary(net, [agent.name]):
            assert g.satisfying(atom) == {i for i, q in enumerate(g.states)
                                          if oracle.eval_guard(atom, q, net)}, str(atom)
    for i, q in enumerate(g.states):
        assert g.index_of(q) == i and q in g
    q = g.states[0]
    for stranger in (GlobalState(q.locations[1:], q.values),
                     GlobalState(q.locations, q.values + (0,)),
                     GlobalState(("nowhere",) + q.locations[1:], q.values)):
        assert stranger not in g
        with pytest.raises(KeyError):
            g.index_of(stranger)


@settings(max_examples=150, deadline=None)
@given(case=_network_and_strategies())
def test_guards_of_cost_3_agree_with_the_oracle_interpreter(case):
    # every guard synthesis builds up to cost 3 over each agent's default
    # vocabulary: its compiled closure, its satisfying set and its truth
    # bitset, at every reachable state
    net, _ = case
    g = explore(net)
    for agent in net.agents:
        memo: dict = {}
        for cost in (1, 2, 3):
            for txt, guard, truth in _guards_of_cost(g, default_vocabulary(net, [agent.name]),
                                                     cost, memo):
                want = {i for i, q in enumerate(g.states) if oracle.eval_guard(guard, q, net)}
                assert {i for i, q in enumerate(g.states) if eval_guard(guard, q, net)} == want
                assert g.satisfying(guard) == want, txt
                assert truth == sum(1 << i for i in want), txt


# -- property: boolean algebra of guards -------------------------------------

_atoms = st.sampled_from([
    TrueConst(), FalseConst(),
    LocAtom("T", "l0"), LocAtom("T", "l1"), LocAtom("T", "l2"),
    LocAtom("U", "u0", qualified=True),
    VarAtom(VarRef("T", "x")), VarAtom(VarRef(None, "shared")),
    Comparison(VarRef("T", "x"), "<", 2),
    Comparison(VarRef("T", "x"), "==", VarRef(None, "shared")),
    Comparison(VarRef(None, "shared"), ">=", 1),
])

_guards = st.recursive(
    _atoms,
    lambda children: st.one_of(
        children.map(Not),
        st.tuples(children, children).map(lambda p: And(*p)),
        st.tuples(children, children).map(lambda p: Or(*p)),
    ),
    max_leaves=8)


@st.composite
def _toy_states(draw, net):
    locs = (draw(st.sampled_from(["l0", "l1", "l2"])),
            draw(st.sampled_from(["u0", "u1"])))
    vals = (draw(st.integers(0, 2)), draw(st.integers(0, 3)))
    return GlobalState(locs, vals)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), g1=_guards, g2=_guards)
def test_guard_boolean_algebra(toy_net, data, g1, g2):
    q = data.draw(_toy_states(toy_net))
    assert eval_guard(g1, q, toy_net) == oracle.eval_guard(g1, q, toy_net)
    assert eval_guard(Not(g1), q, toy_net) == (not eval_guard(g1, q, toy_net))
    assert eval_guard(And(g1, g2), q, toy_net) == (
        eval_guard(g1, q, toy_net) and eval_guard(g2, q, toy_net))
    assert eval_guard(Or(g1, g2), q, toy_net) == (
        eval_guard(g1, q, toy_net) or eval_guard(g2, q, toy_net))
