"""The guard walker (`nodes`, `var_refs`, `map_atoms`) and the rewrites
built on it, against the semantics of the guards they rewrite, at every
explored state of the toy network of conftest.py."""

import re
from collections import Counter

import pytest
from hypothesis import example, given, settings

from natstrat.dsl import parse_guard_text
from natstrat.model import TRUE, And, IntBin, IntLit, explore, map_atoms, nodes, var_refs
from natstrat.strategy import LITERAL_CONVENTION, guard_length, simplify, specialize_at

from test_dsl import _guard_texts

# one token per symbol of a printed guard, parentheses excluded
_SYMBOL = re.compile(r"[\w@]+|[=!<>]=|[<>]|&&|\|\||!")


@pytest.fixture(scope="module")
def toy_graph(toy_net):
    return explore(toy_net)


def _truth(graph, g):
    holds = graph.predicate(g)
    return [holds(key) for key in graph.keys]


@settings(deadline=None)
@given(text=_guard_texts())
# an empty intersection of one agent's locations, and a double negation
@example(text="U@u0 && U@u1 || !!(l0 || l1) && l1")
def test_rewrites_keep_the_guard_s_meaning(toy_net, toy_graph, text):
    g = parse_guard_text(text, toy_net)
    truth = _truth(toy_graph, g)
    for agent in toy_net.agents:
        pos = toy_net.agent_pos(agent.name)
        for loc in agent.locations:
            at = [state.locations[pos] == loc for state in toy_graph.states]
            special = _truth(toy_graph, specialize_at(g, agent.name, loc))
            assert [t for t, here in zip(special, at) if here] == \
                [t for t, here in zip(truth, at) if here], (agent.name, loc)
    for agent in (None, "T", "U"):
        assert _truth(toy_graph, simplify(g, agent)) == truth, agent


@settings(deadline=None)
@given(text=_guard_texts())
def test_walker_counts_and_keeps_every_node(toy_net, text):
    g = parse_guard_text(text, toy_net)
    symbols = _SYMBOL.findall(str(g))
    comparisons = sum(1 for s in symbols if s in ("==", "!="))
    assert guard_length(g, LITERAL_CONVENTION) == len(symbols)
    assert guard_length(g) == len(symbols) - 2 * comparisons == len(list(nodes(g)))
    assert map_atoms(g, lambda a: a) is g
    refs = list(var_refs(g))
    assert Counter(r.name for r in refs) == Counter(s for s in symbols if s in ("shared", "x"))
    assert all(r.owner == ("T" if r.name == "x" else None) for r in refs)


def test_walker_order_and_its_type_check(toy_net):
    g = parse_guard_text("!l0 && (x == 2 || shared)", toy_net)
    assert [type(n).__name__ for n in nodes(g)] == \
        ["And", "Not", "LocAtom", "Or", "Comparison", "VarAtom"]
    assert list(nodes(IntBin("+", IntLit(1), IntLit(2)))) == \
        [IntBin("+", IntLit(1), IntLit(2)), IntLit(1), IntLit(2)]
    assert [(r.owner, r.name) for r in var_refs(parse_guard_text("x == shared || !shared",
                                                                 toy_net))] == \
        [("T", "x"), (None, "shared"), (None, "shared")]
    with pytest.raises(TypeError):
        list(nodes(And(TRUE, 3)))
