import pytest

from natstrat import casestudy
from natstrat.casestudy import (
    DATA_DIR, TABLE, build_infrastructure, build_voter, catalog, load, models, run_all,
    symbolwise_steps,
)
from natstrat.dsl import parse_guard_text, print_strategy
from natstrat.errors import DefinitionError
from natstrat.model import Internal, Synchronized, eval_guard, explore
from natstrat.outcome import outcomes
from natstrat.strategy import audit_strategy, complexity

from conftest import out_edges, predicates_of, result_facts


def test_catalog_loads_everything():
    cat = catalog()
    assert set(cat.networks) == {
        "voter_base", "voter_check4", "voter_full", "coercion_punisher",
        "coercion_infector", "coercion_watchdog", "infrastructure"}
    assert len(cat.strategies) == 8
    assert cat.formulas


def test_run_all_matches_every_expected_row():
    results = run_all()
    assert results, "empty regression table"
    for r in results:
        assert r.ok, f"{r.kind} {r.name}: expected {r.expected}, got {r.actual}"


def test_table_guard_goals_verify_as_predicate_goals(monkeypatch):
    # each verdict row's check, with its goal guard and with that guard's
    # predicate over GlobalState, reports the same facts
    real = casestudy.verify_strategic
    checked = []

    def both(net, q, coalition, k, op, goals, s_A, **kw):
        assert not any(callable(g) for g in goals)
        by_guard = real(net, q, coalition, k, op, goals, s_A, **kw)
        by_pred = real(net, q, coalition, k, op, predicates_of(goals, net), s_A, **kw)
        assert result_facts(by_guard) == result_facts(by_pred)
        checked.append(by_guard.verdict)
        return by_guard

    monkeypatch.setattr(casestudy, "verify_strategic", both)
    assert all(r.ok for r in run_all())
    assert len(checked) == sum(row.kind == "verdict" for row in TABLE) > 0


def test_run_all_rows_are_the_published_table():
    assert [(r.kind, r.name, r.expected) for r in run_all()] == [
        ("complexity", "cast_verify", 15),
        ("complexity", "cast_verify_extra_checks", 21),
        ("complexity", "cast_verify_split_check4", 17),
        ("complexity", "cast_verify_symbolwise", 29),
        ("complexity", "punish_disobedient", 16),
        ("complexity", "infect_replace", 6),
        ("complexity", "infect_watch_punish", 7),
        ("guard-length", "check2_ok || check2_fail || out", 5),
        ("guard-length", "punish guard of punish_disobedient", 10),
        ("guard-length", "true", 1),
        ("steps", "cast_verify to end (from has_ballot)", 9),
        ("steps", "cast_verify_extra_checks to end (from has_ballot)", 13),
        ("steps", "cast_verify_split_check4 to full verification (from start)", 11),
        ("steps", "cast_verify_symbolwise, n=1 m=1", 15),
        ("steps", "cast_verify_symbolwise, n=7 m=5", 35),
        ("verdict", "reach_end with cast_verify, bound 15", True),
        ("verdict", "reach_end with cast_verify, bound 14", False),
        ("verdict", "receipt_checked with cast_verify minus its finish rule, bound 12", True),
        ("verdict", "reach_end_all_checks with cast_verify_extra_checks, bound 21", True),
        ("verdict", "complete_split_verification with cast_verify_split_check4, bound 17",
         True),
        ("verdict",
         "complete_symbolwise_verification with cast_verify_symbolwise, bound 29", True),
        ("verdict", "AF end on the cast_verify-fixed model", True),
    ]


def test_registry_is_the_bundled_model_files():
    assert models() == tuple(sorted(p.stem for p in DATA_DIR.glob("*.nsm")))
    assert set(catalog().networks) == set(models())
    with pytest.raises(DefinitionError):
        load("no_such_model")


def test_load_without_constants_is_the_default_full_voter():
    # the bundled voter_full declares n = 7, m = 5
    loaded, built = load("voter_full"), build_voter("full")
    assert str(loaded.network) == str(built.network)
    assert ({n: print_strategy(s) for n, s in loaded.strategies.items()}
            == {n: print_strategy(s) for n, s in built.strategies.items()})
    assert ({n: str(f) for n, f in loaded.formulas.items()}
            == {n: str(f) for n, f in built.formulas.items()})
    assert explore(loaded.network).n_states == 158


def test_load_rejects_an_override_of_no_declared_constant():
    # voter_full declares n and m; "N" used to be ignored, building n = 7
    with pytest.raises(DefinitionError, match="declares no constant N"):
        load("voter_full", {"N": 3, "m": 2})
    net = build_voter("full", 3, 2).network
    assert (net.constant("n"), net.constant("m")) == (3, 2)
    # every row of the table loads with its overrides
    for row in TABLE:
        net = load(row.model, dict(row.consts)).network
        assert all(net.constant(name) == value for name, value in row.consts)


def test_exploration_regression_constant(base):
    g = explore(base.network)
    productive = sum(1 for t in g.transitions if not t.move.is_idle)
    assert (g.n_states, productive, len(g.transitions)) == (48, 64, 112)


def test_build_voter_levels():
    assert build_voter("base").network.agent("Voter")
    with pytest.raises(DefinitionError):
        build_voter("imaginary")
    with pytest.raises(DefinitionError):
        build_voter("full", 0, 3)


def test_voter_base_has_protocol_sequence(base):
    """has_ballot -> scanning -> voted, as the procedure prescribes."""
    tpl = base.network.agent("Voter")
    edges = {(e.source, e.action, e.target) for e in tpl.edges}
    assert ("has_ballot", "scan_ballot", "scanning") in edges
    assert ("scanning", "enter_vote", "voted") in edges


def test_full_1_1_serial_loop_is_three_steps():
    bundle = build_voter("full", 1, 1)
    net = bundle.network
    ns4 = bundle.strategies["cast_verify_symbolwise"]
    start = net.state(locations={"Voter": "check4"},
                      values={"checked4": 1})
    goal = parse_guard_text("check4_1", net)
    from natstrat.outcome import steps_to_goal
    assert steps_to_goal(net, start, {"Voter": ns4}, goal).value == 2 * 1 + 1


def test_symbolwise_closed_form_values():
    assert symbolwise_steps(1, 1) == 15
    assert symbolwise_steps(7, 5) == 35


def test_latches_stay_set(check4):
    net = check4.network
    s = check4.strategies["cast_verify_split_check4"]
    og = outcomes(net, None, {"Voter": s})
    done = parse_guard_text("checked4 && checked4_1 && checked4_2", net)
    end = parse_guard_text("end", net)
    for i in range(og.n_states):
        q = og.states[i]
        if eval_guard(end, q, net):
            assert eval_guard(done, q, net)


def test_refinement_preserves_reach_end_verdict():
    """The reach-the-end goal evaluates the same at every granularity."""
    from natstrat.checker import verify_strategic
    verdicts = []
    for level, sname, k in (("base", "cast_verify", 15),
                            ("check4", "cast_verify_split_check4", 17),
                            ("full", "cast_verify_symbolwise", 29)):
        bundle = build_voter(level) if level != "full" else build_voter("full", 2, 2)
        net = bundle.network
        s = bundle.strategies[sname]
        goal = parse_guard_text("end", net)
        verdicts.append(verify_strategic(
            net, None, ["Voter"], k, "F",
            [lambda q, g=goal, n=net: eval_guard(g, q, n)],
            {"Voter": s}).verdict)
    assert verdicts == [True, True, True]


def test_cast_verify_survives_refined_models():
    """The coarse strategy still reaches the end on refined models: the
    wildcard covers locations its guards never mention."""
    from natstrat.checker import check_temporal_universal
    base = build_voter("base")
    ns1 = base.strategies["cast_verify"]
    for level in ("check4", "full"):
        bundle = build_voter(level) if level != "full" else build_voter("full", 1, 2)
        net = bundle.network
        og = outcomes(net, None, {"Voter": ns1})
        end = og.satisfying(parse_guard_text("end", net))
        assert check_temporal_universal(og.succ, "F", [end]).verdict is True, level


# -- coercion models --------------------------------------------------------------

def test_coercer_complexities(punisher, infector, watchdog):
    assert complexity(punisher.strategies["punish_disobedient"]) == 16
    assert complexity(infector.strategies["infect_replace"]) == 6
    assert complexity(watchdog.strategies["infect_watch_punish"]) == 7


def test_coercer_audits(punisher, infector, watchdog):
    for bundle, name in ((punisher, "punish_disobedient"),
                         (infector, "infect_replace"),
                         (watchdog, "infect_watch_punish")):
        audit_strategy(bundle.network, bundle.strategies[name])


def test_replace_requires_prior_infect(infector):
    net = infector.network
    g = explore(net)
    replaced = parse_guard_text("replaced_v", net)
    infected = parse_guard_text("infected", net)
    for q in g.states:
        if eval_guard(replaced, q, net):
            assert eval_guard(infected, q, net)
    # and the replace move is never enabled while uninfected
    for t in g.transitions:
        if not eval_guard(infected, g.states[t.source], net):
            assert not (isinstance(t.move, Internal) and t.move.edge.action == "replace")


def test_punisher_reaches_punished_against_disobedient_voter(punisher):
    net = punisher.network
    cs1 = punisher.strategies["punish_disobedient"]
    og = outcomes(net, None, {"Coercer": cs1})
    punished = og.satisfying(parse_guard_text("punished_v", net))
    assert punished
    # and specifically after a differing vote
    hit = og.satisfying(parse_guard_text("punished_v && ca_v == 2", net))
    assert hit


def test_watchdog_punishes_on_reported_mismatch(watchdog):
    net = watchdog.network
    cs3 = watchdog.strategies["infect_watch_punish"]
    og = outcomes(net, None, {"Coercer": cs3})
    assert og.satisfying(parse_guard_text("punished_v", net))


# -- infrastructure ---------------------------------------------------------------

def test_infrastructure_templates():
    devices = build_infrastructure()
    assert set(devices) == {"PublicWBB", "PrivateWBB", "CancelStation",
                            "Printer", "EBM"}


def test_public_wbb_single_cycle():
    wbb = build_infrastructure()["PublicWBB"]
    assert len(wbb.locations) == 2
    succ = {e.source: e.target for e in wbb.edges}
    # one cycle through every location, back to the initial one
    seen = [wbb.initial]
    while True:
        nxt = succ[seen[-1]]
        if nxt == wbb.initial:
            break
        seen.append(nxt)
    assert set(seen) == set(wbb.locations)


def test_reactive_loops_return_to_initial():
    devices = build_infrastructure()
    for name in ("PublicWBB", "PrivateWBB", "CancelStation"):
        tpl = devices[name]
        targets = {e.target for e in tpl.edges if e.source != tpl.initial}
        assert targets == {tpl.initial}


def test_printer_rejects_unauthenticated(infra_net):
    g = explore(infra_net)
    pos = infra_net.agent_pos("Printer")
    has_account = parse_guard_text("has_account", infra_net)
    for t in g.transitions:
        move = t.move
        if isinstance(move, Internal) and move.agent == "Printer" \
                and move.edge.action == "print":
            assert eval_guard(has_account, g.states[t.source], infra_net)
    # a pending unauthenticated request can only be rejected
    pending = [i for i, q in enumerate(g.states)
               if q.locations[pos] == "start"
               and not eval_guard(has_account, q, infra_net)]
    assert pending
    for i in pending:
        printer_moves = [t.move.edge.action for t in out_edges(g, i)
                         if isinstance(t.move, Internal)
                         and t.move.agent == "Printer"]
        assert printer_moves == ["reject"]


def test_ebm_bad_barcode_goes_error_then_wait(infra_net):
    g = explore(infra_net)
    pos = infra_net.agent_pos("EBM")
    saw_reject = False
    for t in g.transitions:
        if isinstance(t.move, Internal) and t.move.agent == "EBM" \
                and t.move.edge.action == "reject_barcode":
            saw_reject = True
            assert g.states[t.target].locations[pos] == "error"
            resets = [u for u in out_edges(g, t.target)
                      if isinstance(u.move, Internal) and u.move.agent == "EBM"]
            assert all(u.move.edge.action == "reset" for u in resets)
            assert all(g.states[u.target].locations[pos] == "wait" for u in resets)
    assert saw_reject


def test_infrastructure_sync_moves_exist(infra_net):
    g = explore(infra_net)
    chans = {t.move.channel for t in g.transitions
             if isinstance(t.move, Synchronized)}
    assert chans == {"publish", "submit", "cancelreq", "printreq", "scanreq"}
