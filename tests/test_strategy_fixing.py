"""`simplify`, `firing_exclusive` and `fix_strategy` against the versions
that simplified every shared operand again (tests/strategy_oracle.py): the
same trees, and the same printed fixed network, for every bundled strategy,
each of its one-rule-shorter variants, and random strategies on the toy
network of conftest.py."""

import collections

import pytest
from hypothesis import event, example, given, settings, strategies as st

from natstrat import casestudy
from natstrat.dsl import parse_guard_text, parse_network, parse_strategy, print_network
from natstrat.model import FalseConst, TrueConst
from natstrat.strategy import firing_exclusive, fix_strategy, simplify

import strategy_oracle
from conftest import TOY_NET_SRC
from test_dsl import _guard_texts

# the toy network of the `toy_net` fixture, for the generators' labels
_TOY = parse_network(TOY_NET_SRC, name="toy")


def _assert_fixed_alike(net, s):
    assert firing_exclusive(net, s) == strategy_oracle.firing_exclusive(net, s)
    assert print_network(fix_strategy(net, {s.agent: s})) == \
        print_network(strategy_oracle.fix_strategy(net, {s.agent: s}))


_BUNDLED = [(stem, name) for stem in casestudy.models()
            for name in sorted(casestudy.load(stem).strategies)]


@pytest.mark.parametrize("stem,name", _BUNDLED)
def test_bundled_strategies_fix_alike(stem, name):
    bundle = casestudy.load(stem)
    s = bundle.strategies[name]
    for variant in [s] + [s.without_rule(i) for i in range(1, len(s.rules))]:
        _assert_fixed_alike(bundle.network, variant)


# what T and U observe, their locations first, and the actions each may name
_VOCABULARY = {
    "T": (["l0", "l1", "l2"], ["shared", "x == 2", "x != 0", "shared == 1", "true", "false"],
          ["go", "step", "back", "bump", "wait", "*"]),
    "U": (["u0", "u1"], ["shared", "shared != 0", "true", "false"], ["move", "*"]),
}


def _guards(agent):
    """Bracketed guards over what `agent` observes. A leaf is one of its
    atoms or a disjunction of two of its locations, so that a conjunction
    often intersects two sets of its locations (`strategy._conjoin`)."""
    locations, atoms, _ = _VOCABULARY[agent]
    pairs = st.lists(st.sampled_from(locations), min_size=2, max_size=2, unique=True)
    return st.recursive(
        st.one_of(st.sampled_from(locations + atoms), pairs.map(" || ".join).map("({})".format)),
        lambda kids: st.one_of(kids.map(lambda t: f"!({t})"),
                               st.tuples(kids, kids).map(lambda p: f"({p[0]} && {p[1]})"),
                               st.tuples(kids, kids).map(lambda p: f"({p[0]} || {p[1]})")),
        max_leaves=6)


def _intersects(g) -> bool:
    """Whether simplifying g for its agent intersects location sets, which
    `simplify` without an agent does not."""
    return any(simplify(g, agent) != simplify(g, None) for agent in _VOCABULARY)


def _fixing_coverage(net, s) -> list[str]:
    """What an example of `_strategy_texts` reaches: a partial strategy, a
    rule guard whose locations intersect, a rule that fires nowhere once
    the earlier ones are excluded, and an edge that fixing removes."""
    out = [] if s.is_total else ["a partial strategy"]
    if any(_intersects(r.guard) for r in s.rules):
        out.append("a location intersection")
    if any(isinstance(r.guard, FalseConst) for r in firing_exclusive(net, s).rules):
        out.append("a rule that never fires")
    tpl = net.agent(s.agent)
    if len(fix_strategy(net, {s.agent: s}).agent(s.agent).edges) < \
            len(tpl.edges) + len(tpl.locations) * tpl.lazy:
        out.append("an edge removed")
    return out


def _simplify_coverage(g) -> list[str]:
    """What a guard of `_simplify_texts` reaches: location sets that
    simplifying for an agent intersects, and a guard that simplifies to a
    constant."""
    out = ["a location intersection"] if _intersects(g) else []
    if isinstance(simplify(g), (TrueConst, FalseConst)):
        out.append("a constant")
    return out


@st.composite
def _simplify_texts(draw):
    """A guard text of the DSL tests (`test_dsl._guard_texts`), or one of
    `_guards` for T or U. Each example is labelled with its
    `_simplify_coverage`."""
    text = draw(st.one_of(_guard_texts(), st.sampled_from(sorted(_VOCABULARY)).flatmap(_guards)))
    for label in _simplify_coverage(parse_guard_text(text, _TOY)):
        event(label)
    return text


@st.composite
def _strategy_texts(draw):
    """A total or partial strategy for T or U over `_guards`, with
    concrete actions and the wildcard. Each example is labelled with its
    `_fixing_coverage` on the toy network."""
    agent = draw(st.sampled_from(sorted(_VOCABULARY)))
    actions = _VOCABULARY[agent][2]
    rules = draw(st.lists(st.tuples(_guards(agent), st.sampled_from(actions)), min_size=1,
                          max_size=5))
    body = " ".join(f"when {g} do {a};" for g, a in rules)
    if draw(st.booleans()):
        text = f"strategy s for {agent} {{ {body} when true do {draw(st.sampled_from(actions))}; }}"
    else:
        text = f"partial strategy s for {agent} {{ {body} }}"
    for label in _fixing_coverage(_TOY, parse_strategy(text, _TOY)):
        event(label)
    return text


def test_strategy_texts_cover_intersections_and_pruning():
    # the `ci` profile's sample is fixed, so what it covers can be counted:
    # of its 300 examples, 53 have a rule guard whose locations intersect,
    # 62 a rule that never fires, 139 an edge that fixing removes and 214 a
    # partial strategy
    counts: collections.Counter = collections.Counter()

    @settings(settings.get_profile("ci"), database=None, deadline=None)
    @given(text=_strategy_texts())
    def count(text):
        counts.update(_fixing_coverage(_TOY, parse_strategy(text, _TOY)))
        counts["examples"] += 1

    count()
    assert counts["examples"] == 300
    assert counts["a location intersection"] >= 30, counts
    assert counts["a rule that never fires"] >= 30, counts
    assert counts["an edge removed"] >= 80 and counts["a partial strategy"] >= 100, counts


@settings(deadline=None)
@given(text=_simplify_texts())
# an intersection that repeats a location keeps it once
@example(text="((l0 || l1) || l0) && l0")
def test_simplify_matches_the_oracle(toy_net, text):
    g = parse_guard_text(text, toy_net)
    for agent in (None, "T", "U"):
        assert simplify(g, agent) == strategy_oracle.simplify(g, agent)


def test_simplify_texts_cover_intersections():
    # the `ci` profile's sample is fixed, so what it covers can be counted:
    # of its 300 examples, 45 have location sets that simplifying for an
    # agent intersects and 22 simplify to a constant
    counts: collections.Counter = collections.Counter()

    @settings(settings.get_profile("ci"), database=None, deadline=None)
    @given(text=_simplify_texts())
    def count(text):
        counts.update(_simplify_coverage(parse_guard_text(text, _TOY)))
        counts["examples"] += 1

    count()
    assert counts["examples"] == 300
    assert counts["a location intersection"] >= 25 and counts["a constant"] >= 10, counts


@settings(deadline=None)
@given(text=_strategy_texts())
# a location repeated in a disjunction, and a rule that can never fire
@example(text="strategy s for T { when (l0 || l1) || l0 do go; when l0 && l1 do step; "
              "when true do *; }")
@example(text="strategy s for T { when l1 do step; "
              "when ((l0 || l1) || l0) && (l0 || l1 || l2) do go; when true do *; }")
def test_random_strategies_fix_alike(toy_net, text):
    _assert_fixed_alike(toy_net, parse_strategy(text, toy_net))
