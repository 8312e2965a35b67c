import collections

import pytest
from hypothesis import event, given, settings, strategies as st

from natstrat.checker import _Behaviours, _Option, _canonical, label_universal
from natstrat.dsl import parse_guard_text, parse_network, parse_strategy
from natstrat.errors import StrategyError
from natstrat.model import Internal, LocAtom, Synchronized, explore, or_all
from natstrat.outcome import backward_fixpoint, outcomes, restrict, steps_to_goal
from natstrat.strategy import WILDCARD, strategy_filter
from natstrat.casestudy import build_voter, symbolwise_steps

import explore_oracle as oracle
import steps_oracle
import synthesis_oracle
import test_evaluator as evaluator_tests
from conftest import moves_at, two_state_net
from test_synthesis import K4_END, K4_RECEIPT, _matched_behaviour


def test_empty_coalition_gives_full_graph(base):
    net = base.network
    og = outcomes(net, None, {})
    full = explore(net)
    assert og.states == full.states
    assert len(og.transitions) == len(full.transitions)


def test_two_state_toy_single_path():
    net = two_state_net()
    s = parse_strategy("strategy s for T { when true do a; }", net)
    og = outcomes(net, None, {"T": s})
    assert og.n_states == 2
    assert not og.succ[1]


def test_ns1_every_maximal_path_visits_end(base):
    net = base.network
    og = outcomes(net, None, {"Voter": base.strategies["cast_verify"]})
    end = og.satisfying(parse_guard_text("end", net))
    from natstrat.checker import check_temporal_universal
    assert check_temporal_universal(og.succ, "F", [end]).verdict is True


def test_steps_goal_already_holds(base):
    net = base.network
    s = base.strategies["cast_verify"]
    res = steps_to_goal(net, None, {"Voter": s},
                        parse_guard_text("start", net))
    assert res.reached and res.value == 0


def test_steps_regressions(base, check4, full75):
    net = base.network
    ns1 = base.strategies["cast_verify"]
    q = net.state(locations={"Voter": "has_ballot"})
    res = steps_to_goal(net, q, {"Voter": ns1}, parse_guard_text("end", net))
    assert res.value == 9
    ns3 = check4.strategies["cast_verify_split_check4"]
    goal3 = parse_guard_text("checked4 && checked4_1 && checked4_2", check4.network)
    assert steps_to_goal(check4.network, None, {"Voter": ns3}, goal3).value == 11
    ns4 = full75.strategies["cast_verify_symbolwise"]
    goal4 = parse_guard_text(
        "checked4 && wbb_checked_sn && receipt_checked_sn && checked4_1 && "
        "wbb_checked_pr && receipt_checked_pr && checked4_2", full75.network)
    assert steps_to_goal(full75.network, None, {"Voter": ns4}, goal4).value == 35


@pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (7, 5)])
def test_steps_closed_form(n, m):
    bundle = build_voter("full", n, m)
    ns4 = bundle.strategies["cast_verify_symbolwise"]
    goal = parse_guard_text(
        "checked4 && wbb_checked_sn && receipt_checked_sn && checked4_1 && "
        "wbb_checked_pr && receipt_checked_pr && checked4_2", bundle.network)
    res = steps_to_goal(bundle.network, None, {"Voter": ns4}, goal)
    assert res.value == symbolwise_steps(n, m) == 9 + (2 * n + 1) + (2 * m + 1)


def test_steps_unreachable():
    net = parse_network("""
agent T {
  init s0; loc dead; loc win;
  edge s0 -> dead on a;
  edge s0 -> win on b;
}""")
    s = parse_strategy("strategy s for T { when true do a; }", net)
    res = steps_to_goal(net, None, {"T": s}, parse_guard_text("win", net))
    assert res.kind == "unreachable"
    assert res.witness  # a trace into the trapped region


def test_steps_unbounded():
    net = parse_network("""
agent T {
  init s0; loc spin; loc win;
  edge s0 -> spin on a;
  edge spin -> s0 on a;
  edge s0 -> win on b;
}""")
    s = parse_strategy("strategy s for T { when true do *; }", net)
    res = steps_to_goal(net, None, {"T": s}, parse_guard_text("win", net))
    assert res.kind == "unbounded"
    assert res.lasso_start is not None
    assert res.witness == (0, 1, 0)
    assert res.lasso_start == 0


def test_steps_state_reached_twice_before_its_worst_case():
    # l1 is a successor of l0 and of l2: the witness runs through l2, l0's
    # farther successor, and then l1
    net = parse_network("""
agent V {
  init l0; loc l1; loc l2; loc goal;
  edge l0 -> l1 on a;
  edge l0 -> l2 on b;
  edge l2 -> l1 on c;
  edge l1 -> goal on d;
}""")
    s_A = {"V": parse_strategy("strategy s for V { when true do *; }", net)}
    goal = parse_guard_text("goal", net)
    res = steps_to_goal(net, None, s_A, goal)
    assert (res.kind, res.value, res.witness) == ("reached", 3, (0, 2, 1, 3))
    want = steps_oracle.steps_to_goal(net, None, s_A, goal)
    assert (want.kind, want.value, want.witness) == (res.kind, res.value, res.witness)


def test_steps_idle_excluded(base):
    """The wildcard makes the voter's wait loop available at `printing`;
    fairness keeps the worst case finite and waits are not counted."""
    net = base.network
    ns1 = base.strategies["cast_verify"]
    res = steps_to_goal(net, None, {"Voter": ns1}, parse_guard_text("end", net))
    assert res.reached and res.value == 11  # enter, print, then the 9 steps


def test_steps_layer_certification(base):
    """If the result is T, every maximal trace hits the goal within T
    productive transitions and some trace needs exactly T (bounded unroll)."""
    net = base.network
    ns1 = base.strategies["cast_verify"]
    q = net.state(locations={"Voter": "has_ballot"})
    goal = parse_guard_text("end", net)
    res = steps_to_goal(net, q, {"Voter": ns1}, goal)
    T = res.value
    og = outcomes(net, q, {"Voter": ns1})
    goal_set = og.satisfying(goal)
    hit_at = []

    def walk(i, depth, seen):
        if i in goal_set:
            hit_at.append(depth)
            return
        assert depth <= T, "a trace exceeded the reported worst case"
        succs = set(og.succ[i])
        assert succs, "a maximal trace missed the goal"
        for j in succs:
            walk(j, depth + 1, seen | {j})

    walk(og.initial, 0, {og.initial})
    assert max(hit_at) == T


def test_monotone_refinement():
    """Refining an atomic phase into sub-steps never shortens the run."""
    base = build_voter("base")
    check4 = build_voter("check4")
    full = build_voter("full", 1, 1)
    def steps_to_end(bundle, strategy_name):
        net = bundle.network
        s = bundle.strategies[strategy_name]
        return steps_to_goal(net, None, {"Voter": s},
                             parse_guard_text("end", net)).value
    t0 = steps_to_end(base, "cast_verify")
    t1 = steps_to_end(check4, "cast_verify_split_check4")
    t2 = steps_to_end(full, "cast_verify_symbolwise")
    assert t0 == 11 and t1 == 13 and t2 == 17
    assert t0 <= t1 <= t2


SYNC_SRC = """
channel ping;
agent Sender(lazy) {
  init idle;
  edge idle -> idle on send sync ping!;
  edge idle -> idle on chatter;
}
agent Receiver {
  init waiting;
  loc got;
  edge waiting -> got on receive sync ping?;
}
"""


def test_strategy_drives_sync_action():
    net = parse_network(SYNC_SRC, name="synced")
    # partial: once no receiver is listening, the sender just stops
    s = parse_strategy("partial strategy s for Sender { when true do send; }",
                       net)
    og = outcomes(net, None, {"Sender": s})
    got = og.satisfying(parse_guard_text("Receiver@got", net))
    assert got
    # chatter is pruned: only synchronized sends and (post-sync) idling remain
    for t in og.transitions:
        assert t.move.is_idle or t.move.label().startswith("Sender.send")


def test_strategy_withholds_sync_action():
    net = parse_network(SYNC_SRC, name="synced")
    s = parse_strategy("strategy s for Sender { when true do chatter; }", net)
    og = outcomes(net, None, {"Sender": s})
    assert not og.satisfying(parse_guard_text("Receiver@got", net))


def test_sync_action_available_only_with_partner():
    net = parse_network(SYNC_SRC, name="synced")

    def sender_actions(q):
        return {act for m in moves_at(net, q) for a, act in zip(m.actors, m.actions)
                if a == "Sender"}
    assert "send" in sender_actions(net.initial_state())
    q_done = net.state(locations={"Receiver": "got"})
    # no receiver left on the channel: the send cannot synchronize
    assert sender_actions(q_done) == {"chatter", "wait"}
    # a total strategy whose final action cannot fire is ill-formed there
    s = parse_strategy("strategy s for Sender { when true do send; }", net)
    with pytest.raises(StrategyError, match="^strategy s: no rule matches at "):
        outcomes(net, q_done, {"Sender": s})
    # guarding the send and falling back to idling is fine
    fallback = parse_strategy(
        "strategy t for Sender { when Sender@idle do send; when true do wait; }",
        net)
    assert oracle.match_rule(net, q_done, fallback) == 2
    assert outcomes(net, q_done, {"Sender": fallback}).n_states == 1


def test_steps_count_adversary_moves(punisher):
    """Productive moves by agents outside the coalition count toward the
    worst case; only idling is fairness-filtered."""
    net = punisher.network
    s = parse_strategy(
        "strategy straight for Voter { when deciding do vote_other; "
        "when voted do go_home; when true do wait; }", net)
    goal = parse_guard_text("Voter@end", net)
    res = steps_to_goal(net, None, {"Voter": s}, goal)
    # the coercer can interleave coerce, modify_ballot, request_vote and
    # punish (each once) before the voter's two steps
    assert res.reached and res.value == 6
    # independent certification by bounded unrolling
    og = outcomes(net, None, {"Voter": s})
    goal_set = og.satisfying(goal)
    worst = [0]

    def walk(i, depth):
        if i in goal_set:
            worst[0] = max(worst[0], depth)
            return
        assert depth <= res.value
        for j in set(og.succ[i]):
            walk(j, depth + 1)

    walk(og.initial, 0)
    assert worst[0] == res.value


class _Unread(list):
    """Successor lists that fail when read."""

    def __iter__(self):
        raise AssertionError("successor lists read")

    __getitem__ = __iter__


# `some`: whether every state takes the form with one successor in the set
@pytest.mark.parametrize("some", [False, True])
def test_fixpoint_of_an_empty_seed_reads_no_successor(some):
    assert backward_fixpoint(_Unread([[1], [0]]), (), some=range(2 if some else 0)) == {}
    assert backward_fixpoint([[1], [0], []], iter(()), some=range(3 if some else 0)) == {}


@pytest.mark.parametrize("some", [False, True])
def test_fixpoint_of_a_seed_of_every_state_reads_no_successor(some):
    # every seed at distance 0
    assert backward_fixpoint(_Unread([[1], [0], []]), [2, 0, 1],
                             some=range(3 if some else 0)) == {0: 0, 1: 0, 2: 0}
    assert backward_fixpoint(_Unread([[1], [0]]), iter((1, 0, 1)),
                             some=range(2 if some else 0)) == {0: 0, 1: 0}


def test_always_of_a_goal_holding_everywhere_is_every_state():
    succ = [[1, 2], [0], [], [3]]
    assert label_universal(succ, "G", [set(range(4))]) == {0, 1, 2, 3}


# -- the fixpoint's distances against a brute force --------------------------------

@st.composite
def _fixpoint_case(draw):
    """Successor lists over 2 to 8 states (self-loops, cycles and a
    terminal state among them), a seed of one or two states, `allowed`
    (None, or all states but up to half of them) and a `some` range that is
    empty, partial or every state."""
    n = draw(st.integers(2, 8))
    state = st.integers(0, n - 1)
    # one to three successors below each state but the first, so that
    # chains join; then maybe one anywhere, which may close a cycle
    succ = [sorted({*draw(st.lists(st.integers(0, i - 1), min_size=1, max_size=3) if i
                          else st.just(())),
                    *draw(st.just(()) | st.just(()) | st.tuples(state))}) for i in range(n)]
    seed = draw(st.frozensets(state, min_size=1, max_size=2))
    allowed = draw(st.none() | st.frozensets(state, min_size=1, max_size=n // 2).map(
        lambda out: frozenset(range(n)) - out))
    kind = draw(st.sampled_from(("empty", "partial", "every state")))
    if kind == "partial":
        lo = draw(st.integers(0, n - 1))
        some = range(lo, draw(st.integers(lo + 1, n if lo else n - 1)))
    else:
        some = range(n) if kind == "every state" else range(0)
    return succ, seed, allowed, some


def _least_fixpoint(succ, seed, allowed, some) -> set[int]:
    """The set `backward_fixpoint` describes, grown until nothing joins."""
    members = set(seed)
    while True:
        joined = {i for i, outs in enumerate(succ)
                  if i not in members and outs and (allowed is None or i in allowed)
                  and (any if i in some else all)(j in members for j in outs)}
        if not joined:
            return members
        members |= joined


def _value_iteration(succ, seed, allowed, some) -> dict[int, int]:
    """Each state's distance, iterated down from infinity: 0 on the seed,
    else 1 + the largest successor distance, or the smallest for a state in
    `some`; the states left at infinity are dropped."""
    inf = float("inf")
    dist = [0 if i in seed else inf for i in range(len(succ))]
    for _ in range(len(succ) + 1):
        dist = [0 if i in seed else
                1 + (min if i in some else max)(dist[j] for j in outs)
                if outs and (allowed is None or i in allowed) else inf
                for i, outs in enumerate(succ)]
    return {i: d for i, d in enumerate(dist) if d < inf}


def _fixpoint_coverage(succ, seed, allowed, some, dist) -> list[str]:
    """What an example of `_fixpoint_case` meets: the kind of its `some`
    range, a member of `some` nearer than its farthest successor, a member
    outside it whose successors' distances differ, a state `allowed` keeps
    out, and a distance past 1."""
    kind = "empty" if not some else "every state" if len(some) == len(succ) else "partial"
    labels = [f"`some` {kind}"]
    far = {i: max(dist.get(j, float("inf")) for j in succ[i]) for i in dist if i not in seed}
    if any(i in some and dist[i] < 1 + d for i, d in far.items()):
        labels.append("a state of `some` joins before its farthest successor")
    if any(i not in some and min(dist[j] for j in succ[i]) < d for i, d in far.items()):
        labels.append("a state outside `some` with successors at two distances")
    if allowed is not None and _least_fixpoint(succ, seed, None, some) - set(dist):
        labels.append("`allowed` keeps a state out")
    if dist and max(dist.values()) >= 2:
        labels.append("a distance of 2 or more")
    return labels


@settings(max_examples=300, deadline=None)
@given(case=_fixpoint_case())
def test_fixpoint_distances_match_value_iteration(case):
    dist = backward_fixpoint(*case)
    assert set(dist) == _least_fixpoint(*case)
    assert dist == _value_iteration(*case)
    for label in _fixpoint_coverage(*case, dist):
        event(label)


def test_fixpoint_case_covers_min_and_max():
    # the `ci` profile's sample is fixed, so what it covers can be counted:
    # of its 300 examples, 135 have an empty `some`, 99 a partial one and 66
    # every state; 70 have a state of `some` join before its farthest
    # successor, 51 a state outside it with successors at two distances, 23
    # a state that `allowed` keeps out and 86 a distance of 2 or more
    counts: collections.Counter = collections.Counter()

    @settings(settings.get_profile("ci"), database=None, deadline=None)
    @given(case=_fixpoint_case())
    def count(case):
        counts.update(_fixpoint_coverage(*case, backward_fixpoint(*case)))
        counts["examples"] += 1

    count()
    assert counts["examples"] == 300
    assert min(counts[f"`some` {kind}"] for kind in ("empty", "partial", "every state")) >= 30
    assert counts["a state of `some` joins before its farthest successor"] >= 35, counts
    assert counts["a state outside `some` with successors at two distances"] >= 25, counts
    assert counts["`allowed` keeps a state out"] >= 10, counts
    assert counts["a distance of 2 or more"] >= 40, counts


# -- the coalition's rank: half the start's distance in its game -------------------

def _game_distance(bundle, goal: str, start=None) -> int:
    """The start's distance to the goal in the voter's perfect-information
    game, with the states as the block where the voter picks: each step is
    a state and a choice, so half of it is the fewest worst-case steps a
    strategy of the voter can guarantee (its rank)."""
    net = bundle.network
    graph = explore(net, start=start)
    goals = graph.satisfying(parse_guard_text(goal, net))
    return backward_fixpoint(_Behaviours(graph, ["Voter"]).game(), goals,
                             some=range(graph.n_states))[graph.initial]


@pytest.mark.parametrize("model,goal,at,distance", [
    ("base", "end", None, 18),
    ("base", "check4_ok || check4_fail", None, 18),
    ("base", "checked1 && checked3 && end", None, 28),
    ("check4", "checked4 && checked4_1 && checked4_2", None, 20),
    ("base", "end", "has_ballot", 14),
])
def test_game_distances(model, goal, at, distance):
    bundle = build_voter(model)
    start = None if at is None else bundle.network.state(locations={"Voter": at})
    assert _game_distance(bundle, goal, start) == distance


@pytest.mark.parametrize("model,strategy,goal,at,steps,rank", [
    ("base", "K4_END", "end", None, 9, 9),
    ("base", "K4_RECEIPT", "check4_ok || check4_fail", None, 11, 9),
    ("base", "cast_verify", "end", None, 11, 9),
    ("base", "cast_verify", "check4_ok || check4_fail", None, 10, 9),
    ("base", "cast_verify_extra_checks", "checked1 && checked3 && end", None, 15, 14),
    ("check4", "cast_verify_split_check4", "checked4 && checked4_1 && checked4_2", None,
     11, 10),
    ("base", "cast_verify", "end", "has_ballot", 9, 7),
    ("base", "cast_verify_extra_checks", "end", "has_ballot", 13, 7),
])
def test_no_strategy_takes_fewer_steps_than_the_rank(model, strategy, goal, at, steps, rank):
    # K4_END and K4_RECEIPT are the bound-4 synthesis witnesses
    bundle = build_voter(model)
    net = bundle.network
    start = None if at is None else net.state(locations={"Voter": at})
    witnesses = {"K4_END": K4_END, "K4_RECEIPT": K4_RECEIPT}
    s = parse_strategy(witnesses[strategy][0], net) if strategy in witnesses \
        else bundle.strategies[strategy]
    res = steps_to_goal(net, start, {"Voter": s}, parse_guard_text(goal, net))
    assert (res.kind, res.value, _game_distance(bundle, goal, start)) == \
        ("reached", steps, 2 * rank)
    assert res.value >= rank


def test_steps_lower_bounded_by_shortest_path(base):
    net = base.network
    ns1 = base.strategies["cast_verify"]
    q = net.state(locations={"Voter": "has_ballot"})
    goal = parse_guard_text("end", net)
    res = steps_to_goal(net, q, {"Voter": ns1}, goal)
    og = outcomes(net, q, {"Voter": ns1})
    goal_set = og.satisfying(goal)
    from collections import deque
    dist = {og.initial: 0}
    dq = deque([og.initial])
    shortest = None
    while dq:
        i = dq.popleft()
        if i in goal_set:
            shortest = dist[i]
            break
        for j in sorted(set(og.succ[i])):
            if j not in dist:
                dist[j] = dist[i] + 1
                dq.append(j)
    assert shortest is not None and res.value >= shortest


@st.composite
def _steps_case(draw):
    """A random two-agent network, a total or partial strategy for each
    member of a coalition, and a goal: one agent is at one of a set of its
    locations other than its initial one."""
    net, shape = draw(evaluator_tests._network())
    coalition = draw(st.sampled_from(evaluator_tests.COALITIONS))
    s_A = {a: evaluator_tests._strategy(draw, a, *shape[a]) for a in coalition}
    agent = draw(st.sampled_from(sorted(shape)))
    locs = draw(st.frozensets(st.integers(1, shape[agent][0] - 1), min_size=1))
    prefix = evaluator_tests.AGENTS[agent][0]
    goal = or_all(LocAtom(agent, f"{prefix}{i}") for i in sorted(locs))
    return net, s_A, goal


@settings(max_examples=300, deadline=None)
@given(case=_steps_case())
def test_steps_match_the_dfs_oracle(case):
    """Kind and value, the error raised, and the unreachable and unbounded
    witnesses are the depth-first oracle's; a reached witness is a longest
    path along the outcome to its first goal state."""
    net, s_A, goal = case
    got = _raised(lambda: steps_to_goal(net, None, s_A, goal))
    want = _raised(lambda: steps_oracle.steps_to_goal(net, None, s_A, goal))
    if isinstance(want, str):
        assert got == want
        return
    assert (got.kind, got.value) == (want.kind, want.value)
    if not got.reached:
        assert (got.witness, got.lasso_start) == (want.witness, want.lasso_start)
        return
    path, goals = got.witness, got.graph.satisfying(goal)
    assert len(path) == got.value + 1 and path[0] == got.graph.initial
    assert all(j in got.graph.succ[i] for i, j in zip(path, path[1:]))
    assert [i in goals for i in path] == [False] * got.value + [True]


# -- the strategy filter against a per-move filter ----------------------------

def _coverage(net, s_A) -> list[str]:
    """What an example of `_network_and_strategies` reaches: one state or
    several in the unrestricted `explore`, a sync move on one of its
    transitions, a state where matching the strategy fails, and a partial
    strategy."""
    graph = explore(net)
    labels = ["one state" if graph.n_states == 1 else "several states"]
    if any(isinstance(graph.moves[m], Synchronized) for m in graph.move_ids):
        labels.append("a sync move")
    if restrict(graph, s_A)[1]:
        labels.append("an error state")
    if not all(s.is_total for s in s_A.values()):
        labels.append("a partial strategy")
    return labels


@st.composite
def _network_and_strategies(draw):
    """Two agents, A lazy; a global v in [0,2] that edges guard and update; a
    channel c on which A sends and B receives. The first edge of each is a
    sync side that leaves its initial location, so most examples can sync
    at the start. Each coalition member gets a total or partial strategy
    over its location and variable guards, with concrete actions and the
    wildcard. Each example is labelled with its `_coverage`."""
    def guard(loc):
        return draw(st.sampled_from([f"{loc}0", f"{loc}1", "v == 0", "v < 2",
                                     "!(v == 1)", f"{loc}2 || v == 2"]))

    agents, actions = [], {}
    for name, loc, sync in (("A", "a", "c!"), ("B", "b", "c?")):
        edges = []
        for k in range(draw(st.integers(1, 5))):
            action = draw(st.sampled_from("xyz"))
            actions.setdefault(name, {"*"}).add(action)
            # the first edges, a sync pair, both leave the initial locations
            source = 0 if k == 0 else draw(st.integers(0, 2))
            edge = f"edge {loc}{source} -> {loc}{draw(st.integers(0, 2))} on {action}"
            if draw(st.booleans()):
                edge += f" when {guard(loc)}"
            if k == 0 or draw(st.booleans()):
                edge += f" sync {sync}"
            if draw(st.booleans()):
                edge += f" do v := {draw(st.integers(0, 2))}"
            edges.append(edge + ";")
        agents.append(f"agent {name}{'(lazy)' if name == 'A' else ''} {{ init {loc}0; "
                      f"loc {loc}1; loc {loc}2; " + " ".join(edges) + " }")
    actions["A"].add("wait")
    net = parse_network("channel c; global int[0,2] v = 0; " + " ".join(agents),
                        name="random")
    s_A = {}
    for agent in draw(st.sampled_from([("A",), ("B",), ("A", "B")])):
        loc, pool = agent.lower(), sorted(actions[agent])
        rules = [f"when {guard(loc)} do {draw(st.sampled_from(pool))};"
                 for _ in range(draw(st.integers(0, 3)))]
        total = draw(st.booleans())
        if total or not rules or draw(st.booleans()):
            rules.append(f"when true do {draw(st.sampled_from(pool))};")
        s_A[agent] = parse_strategy(f"{'' if total else 'partial '}strategy s{agent} "
                                    f"for {agent} {{ " + " ".join(rules) + " }", net)
    for label in _coverage(net, s_A):
        event(label)
    return net, s_A


def test_network_and_strategies_covers_syncs_and_errors():
    # the `ci` profile's sample is fixed, so what it covers can be counted:
    # 208 of its 300 examples explore several states and take a sync move,
    # 66 stay at one state and 44 have an error state (113, 131 and 30 when
    # the first edges could leave any location)
    counts: collections.Counter = collections.Counter()

    @settings(settings.get_profile("ci"), database=None, deadline=None)
    @given(case=_network_and_strategies())
    def count(case):
        labels = set(_coverage(*case))
        counts.update(labels)
        counts["examples"] += 1
        counts["several states and a sync move"] += {"several states", "a sync move"} <= labels

    count()
    assert counts["examples"] == 300
    assert counts["several states and a sync move"] >= 150, counts
    assert counts["one state"] >= 30 and counts["an error state"] >= 30, counts
    assert counts["a partial strategy"] >= 100, counts


# Guards and updates per agent that reach every corner of the packed state
# key: g has a negative lower bound and `one` a singleton domain; A and B
# each own an x, over different domains; `big` and `neg` lie outside every
# domain, and `top` stands on the left of a comparison. A guard on the
# other agent's location is for edges only: a strategy cannot observe it.
_PACKED_GUARDS = {
    "A": ["x < g", "g == x", "x != one", "g >= neg", "x < big", "x == big", "g > -3",
          "top > x", "g <= -2", "x", "!(g < x) && one >= 3", "B@b1", "x >= -1 || A@a2",
          "g < neg", "x != -5", "top < x", "neg >= g"],
    "B": ["x < g", "x == -1", "x >= big", "g != neg", "A@a1", "A@a2 && x > g", "x",
          "one == 3", "top <= x", "g > x", "top >= x", "big != x"],
}
_PACKED_UPDATES = {
    "A": ["x := x + 1", "x := x - 1", "g := g + 1", "g := x - 2", "x := one - 3",
          "g := g - x, x := g + 2", "x := x + 1, x := x + 1"],
    "B": ["x := x + 1", "x := x - 1", "g := neg + 2", "g := g + x", "x := g"],
}
# Updates that stay in their domains from every state, over the same corners:
# negative results, constants, and a second assignment that reads the first.
_PACKED_SAFE_UPDATES = {
    "A": ["g := x - 2", "x := one - 3", "x := 2 - x", "g := 1 - x", "g := x - 2, x := g + 2"],
    "B": ["g := neg + 2", "g := x - 1", "x := 0 - x", "g := x - 1, x := g + 1"],
}


@st.composite
def _packed_network_and_strategy(draw):
    """Two agents over the packed encoding's corner cases (`_PACKED_GUARDS`,
    `_PACKED_UPDATES`): A lazy, with a local x in [0,2], B with one in
    [-1,1]; globals g in [-2,1] and `one` in [3,3]; a channel c on which A
    sends and B receives, both sides assigning g. One example in three draws
    its other updates from `_PACKED_UPDATES`, which can leave a domain, and
    the rest from `_PACKED_SAFE_UPDATES`, so that most examples explore
    without overflow. A strategy for A, B or both, total or partial, over
    the same guards."""
    updates = _PACKED_UPDATES if draw(st.integers(0, 2)) == 0 else _PACKED_SAFE_UPDATES
    event("updates can leave a domain" if updates is _PACKED_UPDATES
          else "updates stay in their domains")
    agents, actions = [], {}
    for name, loc, sync, domain in (("A", "a", "c!", "[0,2] x = 0"),
                                    ("B", "b", "c?", "[-1,1] x = 1")):
        edges = []
        for k in range(draw(st.integers(2, 7))):
            action = draw(st.sampled_from("xyz"))
            actions.setdefault(name, {"*"}).add(action)
            # the sync edge and one more leave location 0, one leaves location 1
            source = (0, 0, 1)[k] if k < 3 else draw(st.integers(0, 2))
            edge = f"edge {loc}{source} -> {loc}{draw(st.integers(0, 2))} on {action}"
            if draw(st.integers(0, 2)) == 0:
                edge += f" when {draw(st.sampled_from(_PACKED_GUARDS[name]))}"
            if k == 0:
                edge += f" sync {sync} do g := {'x - 1' if name == 'A' else 'x'}"
            elif draw(st.integers(0, 2)) == 0:
                edge += f" do {draw(st.sampled_from(updates[name]))}"
            edges.append(edge + ";")
        agents.append(f"agent {name}{'(lazy)' if name == 'A' else ''} {{ var int{domain}; "
                      f"init {loc}0; loc {loc}1; loc {loc}2; " + " ".join(edges) + " }")
    actions["A"].add("wait")
    net = parse_network("const big = 5; const neg = -4; const top = 1; channel c; "
                        "global int[-2,1] g = 0; global int[3,3] one = 3; " + " ".join(agents),
                        name="packed")
    s_A = {}
    for agent in draw(st.sampled_from([("A",), ("B",), ("A", "B")])):
        pool = sorted(actions[agent])
        guards = [g for g in _PACKED_GUARDS[agent] if "@" not in g or f"{agent}@" in g]
        rules = [f"when {draw(st.sampled_from(guards))} "
                 f"do {draw(st.sampled_from(pool))};" for _ in range(draw(st.integers(0, 3)))]
        total = draw(st.booleans())
        if total or not rules:
            rules.append(f"when true do {draw(st.sampled_from(pool))};")
        s_A[agent] = parse_strategy(f"{'' if total else 'partial '}strategy s{agent} "
                                    f"for {agent} {{ " + " ".join(rules) + " }", net)
    return net, s_A


def _reference_allowed(net, q, moves, s_A):
    """The per-move filter: each coalition agent's matched rule from the
    oracle's `match_rule` and `available_actions`, matched at the first move
    it takes part in (a synchronized move rejected for its sender is not
    checked for its receiver)."""
    cache = {}

    def allowed(agent):
        if agent not in cache:
            s = s_A[agent]
            i = oracle.match_rule(net, q, s)
            action = None if i is None else s.rules[i - 1].action
            cache[agent] = (oracle.available_actions(net, q, agent) if action is WILDCARD
                            else set() if action is None else {action})
        return cache[agent]

    def keep(move):
        if isinstance(move, Internal):
            return move.agent not in s_A or move.edge.action in allowed(move.agent)
        return ((move.sender not in s_A or move.send_edge.action in allowed(move.sender))
                and (move.receiver not in s_A
                     or move.recv_edge.action in allowed(move.receiver)))

    return [m for m in moves if keep(m)]


def _raised(f):
    try:
        return f()
    except StrategyError as exc:
        return f"StrategyError: {exc}"


def _state_pairs(graph, succ):
    return {(graph.states[i], graph.states[j]) for i, outs in enumerate(succ) for j in outs}


def _kept(net, s_A, graph, i):
    """The moves that `strategy_filter` keeps at state i of the graph."""
    ids = graph.move_ids[graph.offsets[i]:graph.offsets[i + 1]]
    return [graph.moves[m] for m in strategy_filter(net, s_A)(graph.keys[i], ids)]


@settings(max_examples=150, deadline=None)
@given(case=_network_and_strategies())
def test_strategy_filter_matches_per_move_filter(case):
    net, s_A = case
    graph = explore(net)
    for i, q in enumerate(graph.states):
        moves = oracle.enabled_moves(net, q)
        assert _raised(lambda: _kept(net, s_A, graph, i)) == \
            _raised(lambda: _reference_allowed(net, q, moves, s_A)), q
    # outcomes explores out(q0, s_A); the oracle's walk cuts it out of
    # the oracle's explored graph, whose states are explore(net)'s
    og = _raised(lambda: outcomes(net, None, s_A))
    succ, errors = oracle.restrict(net, oracle.explore(net), s_A, graph.initial)
    assert isinstance(og, str) == bool(errors)
    if errors:
        # outcomes raises at the first error state its breadth-first
        # exploration expands: the first one the oracle's walk records
        assert og == f"StrategyError: {next(iter(errors.values()))}"
        return
    assert _state_pairs(graph, succ) == _state_pairs(og, og.succ)


def test_strategy_filter_skips_a_receiver_whose_sender_refuses():
    # B's only move is the sync that A's strategy refuses, so B's rules are
    # never matched at the start, though its total strategy fails there
    net = parse_network("""
channel c;
agent A(lazy) { init a0; loc a1; edge a0 -> a1 on x sync c!; }
agent B { init b0; loc b1; edge b0 -> b1 on y sync c?; edge b1 -> b0 on z; }
""", name="refused")
    s_A = {"A": parse_strategy("strategy sA for A { when true do wait; }", net),
           "B": parse_strategy("strategy sB for B { when true do z; }", net)}
    q0 = net.initial_state()
    moves = oracle.enabled_moves(net, q0)
    with pytest.raises(StrategyError):
        oracle.match_rule(net, q0, s_A["B"])
    kept = _kept(net, s_A, explore(net), 0)
    assert [m.label() for m in kept] == ["A.wait"]
    assert _reference_allowed(net, q0, moves, s_A) == kept


# -- the oracle's behaviour walk against the oracle's restrict -----------------

def _option(space, m, rule, final):
    """Member m's synthesis option for a rule of a supplied strategy."""
    truth = sum(1 << i for i in space.graph.satisfying(rule.guard))
    live = space.any[m] if rule.action is WILDCARD else space.avail[m].get(rule.action, 0)
    return _Option(str(rule), final, 1, rule, truth & live)


def _walk_matches_restrict(net, s_A):
    graph = explore(net)
    space = _Behaviours(graph, list(s_A), [])
    behaviour = _matched_behaviour(space, s_A)
    if all(s.is_total for s in s_A.values()):
        # folding the rules gives the same behaviour, also when a rule that
        # fires nowhere is dropped
        state = space.ROOT
        for m, agent in enumerate(space.agents):
            rules = s_A[agent].rules
            for n, rule in enumerate(rules, start=1):
                state = space.extend(state, m, _option(space, m, rule, n == len(rules))) or state
        assert state[0] == behaviour
    moves, ref = synthesis_oracle.stored_moves(space), oracle.explore(net)
    whole, error_states = restrict(graph, s_A)
    for start in range(graph.n_states):
        succ, errors = oracle.restrict(net, ref, s_A, start)
        walked, walk_errors = synthesis_oracle.walk(moves, start, behaviour)
        assert ([list(outs) for outs in walked], walk_errors) == (succ, list(errors)), start
        # restrict over the whole graph agrees at every visited state
        visited = {start}.union(*walked)
        assert set(walk_errors) == visited.intersection(error_states), start
        assert all(walked[i] == whole[i] for i in visited.difference(walk_errors)), start


@settings(max_examples=150, deadline=None)
@given(case=_network_and_strategies())
def test_behaviour_walk_matches_restrict(case):
    _walk_matches_restrict(*case)


def test_behaviour_walk_skips_a_receiver_whose_sender_refuses():
    net = parse_network("""
channel c;
agent A(lazy) { init a0; loc a1; edge a0 -> a1 on x sync c!; }
agent B { init b0; loc b1; edge b0 -> b1 on y sync c?; edge b1 -> b0 on z; }
""", name="refused")
    s_A = {"A": parse_strategy("strategy sA for A { when true do wait; }", net),
           "B": parse_strategy("strategy sB for B { when true do z; }", net)}
    _walk_matches_restrict(net, s_A)
    # B is never matched at the start
    assert oracle.restrict(net, oracle.explore(net), s_A, 0)[1] == {}
    assert outcomes(net, None, s_A).n_states == 1


# -- synthesis's decision on masks against the oracle's walk -------------------

def _wins_matches_walk(net, s_A, goal_masks, positions=300):
    """`wins` and the oracle's `wins` against the oracle's walk and
    `label_universal`, at every start, for X, F, G and U, over the behaviour
    of the supplied strategy (total or partial) and of every candidate
    among the first `positions` canonical positions of its coalition's
    synthesis. `wins` prunes by the space's winning region where every
    member takes an action wherever it has one and matching does not fail,
    as every candidate does (its last rule is ⊤); a partial strategy's
    member may take none, so its behaviour is decided with no region."""
    graph = explore(net)
    space = _Behaviours(graph, list(s_A))
    moves = synthesis_oracle.stored_moves(space)
    # behaviour -> whether it may be pruned by the region
    behaviours = {_matched_behaviour(space, s_A): all(s.is_total for s in s_A.values())}
    k = len(s_A) + 3
    for position, state in _canonical(space.options, k, space.extend, space.ROOT):
        if position > positions:
            break
        if state is not None:
            behaviours.setdefault(state[0], True)
    goals = [{i for i in range(graph.n_states) if mask >> i & 1} for mask in goal_masks]
    problems = [(op, subgoals, space.region(op, subgoals))
                for op, subgoals in (("X", goals[:1]), ("F", goals[:1]), ("G", goals[:1]),
                                     ("U", goals))]
    for behaviour, total in behaviours.items():
        for start in range(graph.n_states):
            succ, errors = synthesis_oracle.walk(moves, start, behaviour)
            for op, subgoals, region in problems:
                want = not errors and start in label_universal(succ, op, subgoals)
                assert synthesis_oracle.wins(space, start, behaviour, op, subgoals) is want, \
                    (op, start)
                assert space.wins(start, behaviour, op, subgoals,
                                  region if total else None) is want, (op, start, total)


@settings(max_examples=60, deadline=None)
@given(case=_network_and_strategies(), masks=st.tuples(st.integers(0, 2**27 - 1),
                                                       st.integers(0, 2**27 - 1)))
def test_behaviour_wins_matches_walk(case, masks):
    _wins_matches_walk(*case, masks)


def test_behaviour_wins_skips_a_receiver_whose_sender_refuses():
    net = parse_network("""
channel c;
agent A(lazy) { init a0; loc a1; edge a0 -> a1 on x sync c!; }
agent B { init b0; loc b1; edge b0 -> b1 on y sync c?; edge b1 -> b0 on z; }
""", name="refused")
    s_A = {"A": parse_strategy("strategy sA for A { when true do wait; }", net),
           "B": parse_strategy("strategy sB for B { when true do z; }", net)}
    n = explore(net).n_states
    for mask in range(1 << n):
        _wins_matches_walk(net, s_A, (mask, ~mask))
