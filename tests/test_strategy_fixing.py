"""`simplify`, `firing_exclusive` and `fix_strategy` against the versions
that simplified every shared operand again (tests/strategy_oracle.py): the
same trees, and the same printed fixed network, for every bundled strategy,
each of its one-rule-shorter variants, and random strategies on the toy
network of conftest.py."""

import pytest
from hypothesis import example, given, settings, strategies as st

from natstrat import casestudy
from natstrat.dsl import parse_guard_text, parse_strategy, print_network
from natstrat.strategy import firing_exclusive, fix_strategy, simplify

import strategy_oracle
from test_dsl import _guard_texts


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


@settings(deadline=None)
@given(text=_guard_texts())
# an intersection that repeats a location keeps it once
@example(text="((l0 || l1) || l0) && l0")
def test_simplify_matches_the_oracle(toy_net, text):
    g = parse_guard_text(text, toy_net)
    for agent in (None, "T", "U"):
        assert simplify(g, agent) == strategy_oracle.simplify(g, agent)


# what T and U observe, and the actions each may name
_VOCABULARY = {
    "T": (["l0", "l1", "l2", "shared", "x == 2", "x != 0", "shared == 1", "true", "false"],
          ["go", "step", "back", "bump", "wait", "*"]),
    "U": (["u0", "u1", "shared", "shared != 0", "true", "false"], ["move", "*"]),
}


@st.composite
def _strategy_texts(draw):
    agent = draw(st.sampled_from(sorted(_VOCABULARY)))
    atoms, actions = _VOCABULARY[agent]
    guards = st.recursive(
        st.sampled_from(atoms),
        lambda kids: st.one_of(kids.map(lambda t: f"!({t})"),
                               st.tuples(kids, kids).map(lambda p: f"({p[0]} && {p[1]})"),
                               st.tuples(kids, kids).map(lambda p: f"({p[0]} || {p[1]})")),
        max_leaves=6)
    rules = draw(st.lists(st.tuples(guards, st.sampled_from(actions)), min_size=1,
                          max_size=5))
    body = " ".join(f"when {g} do {a};" for g, a in rules)
    if draw(st.booleans()):
        return f"strategy s for {agent} {{ {body} when true do {draw(st.sampled_from(actions))}; }}"
    return f"partial strategy s for {agent} {{ {body} }}"


@settings(deadline=None)
@given(text=_strategy_texts())
# a location repeated in a disjunction, and a rule that can never fire
@example(text="strategy s for T { when (l0 || l1) || l0 do go; when l0 && l1 do step; "
              "when true do *; }")
@example(text="strategy s for T { when l1 do step; "
              "when ((l0 || l1) || l0) && (l0 || l1 || l2) do go; when true do *; }")
def test_random_strategies_fix_alike(toy_net, text):
    _assert_fixed_alike(toy_net, parse_strategy(text, toy_net))
