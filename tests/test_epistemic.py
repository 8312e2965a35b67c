import itertools

from natstrat.casestudy import receipt_freeness
from natstrat.checker import (
    eval_formula, indistinguishability_classes, observation,
)
from natstrat.dsl import parse_guard_text
from natstrat.model import eval_guard, explore

from evaluator_oracle import eval_knows


def _bundled_graphs(base, check4, full22, punisher, infector, watchdog, infra_net):
    yield "voter_base", explore(base.network)
    yield "voter_check4", explore(check4.network)
    yield "voter_full22", explore(full22.network)
    yield "punisher", explore(punisher.network)
    yield "infector", explore(infector.network)
    yield "watchdog", explore(watchdog.network)
    yield "infrastructure", explore(infra_net)


def _atom_sets(graph, limit=6):
    """A few state sets derived from atoms, as knowledge operands."""
    net = graph.net
    sets = []
    for tpl in net.agents:
        for loc in tpl.locations[:3]:
            g = parse_guard_text(f"{tpl.name}@{loc}", net)
            sets.append(graph.satisfying(g))
    sets.append(set(range(graph.n_states)))  # ⊤
    sets.append(set())
    return sets[:limit] + sets[-2:]


def test_knows_tautology(base):
    g = explore(base.network)
    everything = set(range(g.n_states))
    for i in range(g.n_states):
        assert eval_knows(g, "Voter", everything, i)


def test_knows_reflexive_truth_axiom(base, check4, full22, punisher, infector,
                                     watchdog, infra_net):
    for name, graph in _bundled_graphs(base, check4, full22, punisher,
                                       infector, watchdog, infra_net):
        agents = [a.name for a in graph.net.agents]
        for agent in agents:
            classes = indistinguishability_classes(graph, agent)
            for phi in _atom_sets(graph):
                for i in range(graph.n_states):
                    if eval_knows(graph, agent, phi, i, classes):
                        assert i in phi, (name, agent)


def test_knows_conjunction_distribution(base, check4, full22, punisher,
                                        infector, watchdog, infra_net):
    for name, graph in _bundled_graphs(base, check4, full22, punisher,
                                       infector, watchdog, infra_net):
        for agent in (a.name for a in graph.net.agents):
            classes = indistinguishability_classes(graph, agent)
            sets = _atom_sets(graph, limit=4)
            for phi, psi in itertools.combinations(sets, 2):
                for i in range(0, graph.n_states, max(1, graph.n_states // 40)):
                    both = eval_knows(graph, agent, phi & psi, i, classes)
                    split = (eval_knows(graph, agent, phi, i, classes)
                             and eval_knows(graph, agent, psi, i, classes))
                    assert both == split, (name, agent)


def test_indistinguishability_is_equivalence(base, punisher, infra_net):
    for graph in (explore(base.network), explore(punisher.network),
                  explore(infra_net)):
        for agent in (a.name for a in graph.net.agents):
            obs = [observation(graph.net, agent, s) for s in graph.keys]
            n = len(obs)
            rel = [[obs[i] == obs[j] for j in range(n)] for i in range(n)]
            for i in range(n):
                assert rel[i][i]
                for j in range(n):
                    assert rel[i][j] == rel[j][i]
                    if rel[i][j]:
                        for k in range(n):
                            if rel[j][k]:
                                assert rel[i][k]
            # and the classes partition the states
            classes = indistinguishability_classes(graph, agent)
            union = set().union(*classes.values()) if classes else set()
            assert union == set(range(n))
            total = sum(len(c) for c in classes.values())
            assert total == n


def test_two_state_vote_difference(blind_net):
    """The observer's view coincides on both vote outcomes, so it never
    knows which one happened."""
    g = explore(blind_net)
    voted_1 = g.satisfying(parse_guard_text("ca_v == 1", blind_net))
    ends = g.satisfying(parse_guard_text("Voter@end", blind_net))
    classes = indistinguishability_classes(g, "Coercer")
    for i in ends:
        assert not eval_knows(g, "Coercer", voted_1, i, classes)
    # while the voter herself knows her vote
    for i in ends & voted_1:
        assert eval_knows(g, "Voter", voted_1, i)


def test_receipt_freeness_leaky_false_with_witness(leaky_net):
    rf = receipt_freeness(4, net=leaky_net)
    res = eval_formula(leaky_net, rf, mode="synthesize")
    assert res.verdict is False
    assert res.witness_strategy  # the violating joint strategy


def test_receipt_freeness_blind_true(blind_net):
    rf = receipt_freeness(4, net=blind_net)
    res = eval_formula(blind_net, rf, mode="synthesize")
    assert res.verdict is True


def test_synthesis_cap_inside_negation_gives_unknown(blind_net):
    """A capped enumeration under a negation must surface as 'unknown',
    never as a false negative."""
    from natstrat.checker import SynthesisConfig
    rf = receipt_freeness(4, net=blind_net)
    res = eval_formula(blind_net, rf, mode="synthesize",
                       synthesis=SynthesisConfig(enumeration_cap=2))
    assert res.verdict is None
    assert "unknown" in res.reason


def test_receipt_freeness_template_is_the_bundled_formula(punisher):
    assert receipt_freeness(4, punisher.network) == punisher.formulas["receipt_freeness"]


def test_receipt_freeness_bundle_parses(punisher):
    # exploratory instance on the coercion model: the vote variable is global
    # there (the attacker's own guards need it), hence effectively public
    rf = punisher.formulas["receipt_freeness"]
    res = eval_formula(punisher.network, rf, mode="synthesize")
    assert res.verdict is False
