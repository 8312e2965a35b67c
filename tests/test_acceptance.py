"""Acceptance suite: one test per criterion, each printing a PASS line once
every assertion in it has held at the stated (exact) tolerance."""

import itertools
import random
import time
import xml.etree.ElementTree as ET

from natstrat.casestudy import (
    build_coercer, build_voter, infrastructure_network, receipt_freeness,
    symbolwise_steps,
)
from natstrat.checker import (
    check_temporal_universal, eval_formula,
    indistinguishability_classes, synthesize_strategic, verify_strategic,
)
from natstrat.dsl import parse_guard_text, parse_network
from natstrat.model import LocAtom, eval_guard, explore
from natstrat.outcome import outcomes, steps_to_goal
from natstrat.strategy import (
    complexity, firing_exclusive, fix_strategy, guard_length,
    make_mutually_exclusive, strategy_filter,
)
from natstrat.uppaal import export_uppaal, validate_document

import explore_oracle as oracle
from evaluator_oracle import eval_knows
from conftest import LEAKY_SRC, BLIND_SRC, trap_net, two_state_net
from test_checker import (
    _adjacency, _af_oracle_paths, _af_oracle_witness, _ag_oracle,
    _au_oracle_paths, _au_oracle_witness, _automaton,
)
from test_synthesis import brute_force_exists, three_action_net


def _passed(n, title):
    print(f"\nACCEPTANCE {n} ({title}): PASS")


def _goal_pred(net, text):
    g = parse_guard_text(text, net)
    return lambda q: eval_guard(g, q, net)


def test_criterion_1_complexity_regression():
    t0 = time.perf_counter()
    base = build_voter("base")
    check4 = build_voter("check4")
    full = build_voter("full", 7, 5)
    assert complexity(base.strategies["cast_verify"]) == 15
    assert complexity(base.strategies["cast_verify_extra_checks"]) == 21
    assert complexity(check4.strategies["cast_verify_split_check4"]) == 17
    assert complexity(full.strategies["cast_verify_symbolwise"]) == 29
    assert complexity(build_coercer("punisher").strategies["punish_disobedient"]) == 16
    assert complexity(build_coercer("infector").strategies["infect_replace"]) == 6
    assert complexity(build_coercer("watchdog").strategies["infect_watch_punish"]) == 7
    assert time.perf_counter() - t0 < 1.0
    _passed(1, "complexity regression")


def test_criterion_2_guard_length_spot_checks():
    base = build_voter("base")
    ns1 = base.strategies["cast_verify"]
    assert guard_length(ns1.rules[3].guard) == 5
    cs1 = build_coercer("punisher").strategies["punish_disobedient"]
    assert guard_length(cs1.rules[2].guard) == 10
    assert guard_length(ns1.rules[-1].guard) == 1
    _passed(2, "guard-length spot checks")


def test_criterion_3_verification_regression():
    t0 = time.perf_counter()
    base = build_voter("base")
    check4 = build_voter("check4")
    full = build_voter("full", 7, 5)

    def verdict(bundle, s, k, goal_text):
        net = bundle.network
        return verify_strategic(net, None, [s.agent], k, "F",
                                [_goal_pred(net, goal_text)],
                                {s.agent: s}).verdict

    ns1 = base.strategies["cast_verify"]
    assert verdict(base, ns1, 15, "end") is True
    assert verdict(base, ns1, 14, "end") is False
    assert verdict(base, ns1.without_rule(8), 12,
                   "check4_ok || check4_fail") is True
    assert verdict(base, base.strategies["cast_verify_extra_checks"], 21,
                   "checked1 && checked3 && end") is True
    assert verdict(check4, check4.strategies["cast_verify_split_check4"], 17,
                   "checked4 && checked4_1 && checked4_2") is True
    assert verdict(full, full.strategies["cast_verify_symbolwise"], 29,
                   "checked4 && wbb_checked_sn && receipt_checked_sn && "
                   "checked4_1 && wbb_checked_pr && receipt_checked_pr && "
                   "checked4_2") is True
    fixed = fix_strategy(base.network, {"Voter": ns1})
    og = outcomes(fixed, None, {})
    end = og.satisfying(parse_guard_text("end", fixed))
    assert check_temporal_universal(og.succ, "F", [end]).verdict is True
    assert time.perf_counter() - t0 < 10.0
    _passed(3, "verification regression")


def test_criterion_4_step_count_regression():
    base = build_voter("base")
    net = base.network
    ns1 = base.strategies["cast_verify"]
    q = net.state(locations={"Voter": "has_ballot"})
    assert steps_to_goal(net, q, {"Voter": ns1},
                         parse_guard_text("end", net)).value == 9

    check4 = build_voter("check4")
    ns3 = check4.strategies["cast_verify_split_check4"]
    triple = parse_guard_text("checked4 && checked4_1 && checked4_2",
                              check4.network)
    assert steps_to_goal(check4.network, None, {"Voter": ns3}, triple).value == 11

    for n, m, expected in ((1, 1, 15), (7, 5, 35)):
        assert symbolwise_steps(n, m) == expected == 9 + (2 * n + 1) + (2 * m + 1)
        bundle = build_voter("full", n, m)
        ns4 = bundle.strategies["cast_verify_symbolwise"]
        goal = parse_guard_text(
            "checked4 && wbb_checked_sn && receipt_checked_sn && checked4_1 && "
            "wbb_checked_pr && receipt_checked_pr && checked4_2", bundle.network)
        assert steps_to_goal(bundle.network, None, {"Voter": ns4},
                             goal).value == expected
    _passed(4, "step-count regression")


def test_criterion_5_transformation_properties():
    # matchRule invariance under the transformation, over every reachable
    # state of every bundled (network, strategy) pair
    exact_pairs = []
    base = build_voter("base")
    check4 = build_voter("check4")
    exact_pairs += [(base.network, base.strategies[n])
                    for n in ("cast_verify", "cast_verify_extra_checks",
                              "signal_on_dispute")]
    exact_pairs += [(check4.network, check4.strategies["cast_verify_split_check4"])]
    for variant, sname in (("punisher", "punish_disobedient"),
                           ("infector", "infect_replace"),
                           ("watchdog", "infect_watch_punish")):
        b = build_coercer(variant)
        exact_pairs.append((b.network, b.strategies[sname]))
    total_states = 0
    for net, s in exact_pairs:
        graph = explore(net)
        total_states += graph.n_states
        me = make_mutually_exclusive(s)
        keep_s, keep_me = strategy_filter(net, {s.agent: s}), strategy_filter(net, {s.agent: me})
        for i, q in enumerate(graph.states):
            assert oracle.match_rule(net, q, s) == oracle.match_rule(net, q, me)
            ids = graph.move_ids[graph.offsets[i]:graph.offsets[i + 1]]
            assert keep_s(graph.keys[i], ids) == keep_me(graph.keys[i], ids)
    # the symbol-wise strategy needs the availability-aware form; the plain
    # guard-negation form diverges exactly at the two comparison-loop exits
    full = build_voter("full", 2, 2)
    ns4 = full.strategies["cast_verify_symbolwise"]
    fx = firing_exclusive(full.network, ns4)
    me4 = make_mutually_exclusive(ns4)
    divergent = set()
    graph = explore(full.network)
    total_states += graph.n_states
    net = full.network
    for q in graph.states:
        assert oracle.match_rule(net, q, ns4) == oracle.match_rule(net, q, fx)
        if oracle.match_rule(net, q, ns4) != oracle.match_rule(net, q, me4):
            divergent.add((q.locations[net.agent_pos("Voter")],
                           q.values[net.var_pos("Voter", "i")],
                           q.values[net.var_pos("Voter", "j")]))
    assert divergent == {("receipt_check_sn", 2, 0), ("receipt_check_pr", 2, 2)}
    assert total_states <= 100_000

    # semantic guard disjointness of the transformed cast_verify
    me1 = make_mutually_exclusive(base.strategies["cast_verify"])
    for q in explore(base.network).states:
        assert sum(eval_guard(r.guard, q, base.network)
                   for r in me1.rules[:-1]) <= 1

    # fixStrategy-pruned graph == direct outcome construction
    toys = [(two_state_net(), "strategy s for T { when true do a; }"),
            (trap_net(), "strategy s for T { when s1 do b; when true do *; }")]
    from natstrat.dsl import parse_strategy
    pairs = [(net, parse_strategy(src, net)) for net, src in toys]
    pairs += exact_pairs + [(full.network, ns4)]
    for net, s in pairs:
        fixed_graph = explore(fix_strategy(net, {s.agent: s}))
        direct = outcomes(net, None, {s.agent: s})
        assert fixed_graph.n_states <= 10_000
        assert {(q.locations, q.values) for q in fixed_graph.states} == \
            {(q.locations, q.values) for q in direct.states}
        key = lambda g: {(g.states[t.source], t.move.label(), g.states[t.target])
                         for t in g.transitions}
        assert key(fixed_graph) == key(direct)
    _passed(5, "transformation properties")


def test_criterion_6_checker_oracle_equivalence():
    rng = random.Random(20240817)
    cases = 0
    for _ in range(110):
        n = rng.randint(1, 200)
        n_edges = rng.randint(0, min(2 * n, 240))
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(n_edges)]
        net = _automaton(n, edges)
        og = outcomes(net, None, {})
        goal = {i for i in range(og.n_states) if rng.random() < 0.3}
        hold = {i for i in range(og.n_states) if rng.random() < 0.6}
        succ = _adjacency(og)
        if og.n_states <= 14:
            # pure path enumeration, truncated at the first revisit
            af_oracle = _af_oracle_paths(succ, og.initial, goal)
            au_oracle = _au_oracle_paths(succ, og.initial, hold, goal)
        else:
            # independent witness search (terminal/cycle in the bad region)
            af_oracle = _af_oracle_witness(succ, og.initial, goal)
            au_oracle = _au_oracle_witness(succ, og.initial, hold, goal)
        assert check_temporal_universal(og.succ, "F", [goal]).verdict == af_oracle
        assert check_temporal_universal(og.succ, "G", [goal]).verdict == \
            _ag_oracle(succ, og.initial, goal)
        assert check_temporal_universal(og.succ, "U", [hold, goal]).verdict == au_oracle
        cases += 1
    assert cases >= 100

    toys = [(two_state_net, "s1", ["s0", "s1"]),
            (trap_net, "win", ["s0", "s1", "trap", "win"]),
            (three_action_net, "w", ["s0", "s1", "s2"])]
    for make_net, goal_text, vocab_locs in toys:
        net = make_net()
        agent = net.agents[0].name
        vocab = [LocAtom(agent, l) for l in vocab_locs]
        pred = _goal_pred(net, goal_text)
        for k in range(0, 4):
            mine = synthesize_strategic(net, None, [agent], k, "F", [pred],
                                        vocabulary=vocab).verdict
            oracle = bool(brute_force_exists(net, agent, k, "F", pred, vocab))
            assert mine == oracle
    _passed(6, "checker oracle equivalence")


def test_criterion_7_epistemic_axioms():
    bundles = [build_voter("base").network, build_voter("check4").network,
               build_voter("full", 2, 2).network,
               build_coercer("punisher").network,
               build_coercer("infector").network,
               build_coercer("watchdog").network,
               infrastructure_network()]
    for net in bundles:
        graph = explore(net)
        for tpl in net.agents:
            agent = tpl.name
            classes = indistinguishability_classes(graph, agent)
            assert {frozenset(c) for c in classes.values()} == \
                oracle.indistinguishability_classes(net, graph.states, agent)
            sets = [graph.satisfying(parse_guard_text(f"{a.name}@{loc}", net))
                    for a in net.agents for loc in a.locations[:2]]
            sets.append(set(range(graph.n_states)))
            for phi in sets:
                for i in range(graph.n_states):
                    if eval_knows(graph, agent, phi, i, classes):
                        assert i in phi  # truth
            for phi, psi in itertools.combinations(sets[:4], 2):
                for i in range(graph.n_states):
                    assert eval_knows(graph, agent, phi & psi, i, classes) == (
                        eval_knows(graph, agent, phi, i, classes)
                        and eval_knows(graph, agent, psi, i, classes))
            # the observation map induces an equivalence partition
            union = set()
            for cls in classes.values():
                assert cls
                assert not (union & cls)
                union |= cls
            assert union == set(range(graph.n_states))

    leaky = parse_network(LEAKY_SRC, name="leaky")
    res = eval_formula(leaky, receipt_freeness(4, net=leaky), mode="synthesize")
    assert res.verdict is False and res.witness_strategy

    blind = parse_network(BLIND_SRC, name="blind")
    res2 = eval_formula(blind, receipt_freeness(4, net=blind), mode="synthesize")
    assert res2.verdict is True
    _passed(7, "epistemic axioms and receipt-freeness toys")


def test_criterion_8_export_validity():
    nets = [build_voter("base").network, build_voter("check4").network,
            build_voter("full", 7, 5).network,
            build_coercer("punisher").network,
            build_coercer("infector").network,
            build_coercer("watchdog").network,
            infrastructure_network()]
    for net in nets:
        doc = export_uppaal(net)
        validate_document(ET.fromstring(doc.xml))
    base = build_voter("base")
    doc = export_uppaal(base.network, {"Voter": base.strategies["cast_verify"]},
                        [base.formulas["reach_end"]])
    validate_document(ET.fromstring(doc.xml))
    assert "A<> Voter.end" in doc.queries
    _passed(8, "export validity")
