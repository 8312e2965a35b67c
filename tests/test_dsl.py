import string

import pytest
from hypothesis import given, settings, strategies as st

from natstrat.dsl import (
    load_bundle, parse_bundle, parse_formula, parse_guard_text, parse_network,
    parse_strategy, print_formula, print_network, print_strategy,
)
from natstrat.errors import ParseError
from natstrat.formula import FAnd, FAtom, FNot, FOr, Knows, Strategic, map_formula
from natstrat.model import And, LocAtom, Not, Or, TrueConst, VarAtom, VarRef
from natstrat.strategy import WILDCARD
from natstrat.casestudy import DATA_DIR


def test_minimal_network():
    net = parse_network("agent A { init only; }")
    assert len(net.agents) == 1
    assert net.agents[0].locations == ("only",)
    from natstrat.model import explore
    assert explore(net).n_states == 1


def test_voter_base_locations(base):
    tpl = base.network.agent("Voter")
    expected = {"printing", "has_ballot", "scanning", "voted", "check2_ok",
                "check2_fail", "out", "vote_ok", "shred", "check4",
                "check4_ok", "check4_fail", "end", "error", "check1"}
    assert expected <= set(tpl.locations)
    # `start` and `check3` complete the reconstruction
    assert {"start", "check3"} <= set(tpl.locations)
    assert tpl.lazy


def test_guard_disjunction_shape(base):
    g = parse_guard_text("check2_ok || check2_fail || out", base.network,
                         owner="Voter")
    # left-associative: Or(Or(a, b), c)
    assert isinstance(g, Or)
    assert isinstance(g.left, Or)
    assert isinstance(g.left.left, LocAtom) and g.left.left.location == "check2_ok"
    assert g.right.location == "out"


def test_strategy_rule_counts(base, full75):
    ns1 = base.strategies["cast_verify"]
    assert len(ns1.rules) == 9
    assert isinstance(ns1.rules[-1].guard, TrueConst)
    assert ns1.rules[-1].action is WILDCARD
    ns4 = full75.strategies["cast_verify_symbolwise"]
    assert len(ns4.rules) == 15


def test_single_rule_wait_strategy(base):
    s = parse_strategy("strategy idle for Voter { when true do wait; }",
                       base.network)
    assert len(s.rules) == 1 and s.is_total


def test_missing_final_true_rule(base):
    with pytest.raises(ParseError, match="final"):
        parse_strategy("strategy s for Voter { when has_ballot do scan_ballot; }",
                       base.network)


def test_partial_strategy_allowed(punisher):
    cs1 = punisher.strategies["punish_disobedient"]
    assert not cs1.is_total
    assert cs1.declared_partial
    assert len(cs1.rules) == 3


def test_partial_with_true_rule_round_trips(base):
    src = "partial strategy p for Voter { when true do scan_ballot; }"
    s = parse_strategy(src, base.network)
    assert s.declared_partial and not s.is_total
    again = parse_strategy(print_strategy(s), base.network)
    assert again.declared_partial and again.rules == s.rules


def test_unknown_action_rejected(base):
    with pytest.raises(ParseError, match="no action"):
        parse_strategy("strategy s for Voter { when true do fly; }", base.network)


def test_observability_rejects_other_agents_atoms(punisher):
    net = punisher.network
    with pytest.raises(ParseError, match="observable"):
        parse_strategy(
            "strategy s for Coercer { when Voter@voted do punish; when true do *; }",
            net)


# A and B each have one local; a name in A's guards resolves only to A's
# locals, globals and constants, so B's `y` is not a variable there
LOCALS_NET = ("agent A { var int[0,1] x = 0; init a0; edge a0 -> a0 on go; }\n"
              "agent B { var int[0,1] y = 0; init b0; edge b0 -> b0 on stay; }")


@pytest.mark.parametrize("guard", ["y", "y == 0", "x == y"])
def test_another_agents_local_is_undeclared_in_a_strategy(guard):
    net = parse_network(LOCALS_NET, name="locals")
    with pytest.raises(ParseError) as exc:
        parse_strategy(f"strategy s for A {{\n  when {guard} do go;\n  when true do *;\n}}",
                       net)
    assert (str(exc.value), exc.value.span.line, exc.value.span.column) == \
        ("<string>:2:8: undeclared variable y", 2, 8)


def test_another_agents_local_is_undeclared_in_an_owned_guard():
    net = parse_network(LOCALS_NET, name="locals")
    with pytest.raises(ParseError) as exc:
        parse_guard_text("y", net, owner="A")
    assert str(exc.value) == "<guard>:1:1: undeclared variable y"
    # with no owner, the name is B's local
    assert parse_guard_text("y", net) == VarAtom(VarRef("B", "y"))


def test_formula_strategic_shape(base):
    f = parse_formula("<<Voter>>^15 F end", base.network)
    assert isinstance(f, Strategic)
    assert f.coalition == ("Voter",) and f.bound == 15 and f.op == "F"
    assert isinstance(f.subs[0], FAtom)


def test_formula_universal_sugar(base):
    f = parse_formula("A G true", base.network)
    assert isinstance(f, Strategic)
    assert f.coalition == () and f.bound == 0 and f.op == "G"


def test_formula_until(base):
    f = parse_formula("<<Voter>>^3 (has_ballot U scanning)", base.network)
    assert f.op == "U" and len(f.subs) == 2


def test_formula_knows_and_receipt_freeness_shape(punisher):
    from natstrat.casestudy import receipt_freeness
    rf = receipt_freeness(4, net=punisher.network)
    assert isinstance(rf, FAnd)
    assert isinstance(rf.left, FNot) and isinstance(rf.left.sub, Strategic)
    node = rf.left.sub
    assert set(node.coalition) == {"Coercer", "Voter"}
    assert node.op == "G"
    # end -> (K voted_i or K not voted_i)
    impl = node.subs[0]
    assert isinstance(impl.right, FOr)
    assert isinstance(impl.right.left, Knows)


def test_formula_witness_annotation(base):
    f = base.formulas["dispute_resolution"]
    inner = f.subs[0].right
    assert isinstance(inner, Strategic)
    assert inner.witness == ("signal_on_dispute",)


def test_errors_carry_spans():
    try:
        parse_network("agent A { init a; edge a -> nowhere on go; }",
                      filename="bad.nsm")
    except ParseError as err:
        assert err.span is not None
        assert "bad.nsm" in str(err)
    else:
        pytest.fail("expected ParseError")


def test_formula_text_is_one_formula(base):
    # neither a second formula nor a declaration may follow the formula
    net = base.network
    for text in ("end; formula g = A F error", "end; global int[0,1] zz = 0"):
        with pytest.raises(ParseError, match="expected end of formula, got ';'"):
            parse_formula(text, net)
    with pytest.raises(ParseError, match="expected end of formula, got 'end'"):
        parse_formula("A F end end", net)


def test_semantic_errors():
    with pytest.raises(ParseError, match="undeclared variable"):
        parse_network("agent A { init a; loc b; edge a -> b on go when x == 1; }")
    with pytest.raises(ParseError, match="duplicate init"):
        parse_network("agent A { init a; init b; }")
    with pytest.raises(ParseError, match="undeclared channel"):
        parse_network("agent A { init a; loc b; edge a -> b on go sync c!; }")
    with pytest.raises(ParseError, match="constant"):
        parse_network("const k = 1; agent A { init a; loc b; "
                      "edge a -> b on go do k := 2; }")


def test_loc_after_init_refines_the_initial_location():
    # `init` declares a0; the `loc` after it gives it its atom labels
    net = parse_network("agent A { init a0; loc a0 [start, home]; loc a1; edge a0 -> a1 on go; }")
    tpl = net.agent("A")
    assert tpl.locations == ("a0", "a1")
    assert tpl.atom_labels == (("start", "a0"), ("home", "a0"))
    assert parse_network(print_network(net)) == net
    for label in ("start", "home"):
        assert parse_guard_text(label, net) == LocAtom("A", "a0")
    # only the location that `init` declared may be declared once more
    with pytest.raises(ParseError, match="duplicate location a0"):
        parse_network("agent A { init a0; loc a0; loc a0; }")


def test_const_override():
    src = "const n = 7;\nagent A { var int[0,n] i = 0; init a; }"
    net = parse_network(src, consts={"n": 3})
    assert net.constant("n") == 3
    assert net.agent("A").local_vars[0].hi == 3


def test_include(tmp_path):
    (tmp_path / "net.nsm").write_text("agent A(lazy) { init a; }")
    main = tmp_path / "all.nss"
    main.write_text('include "net.nsm";\n'
                    "strategy s for A { when true do wait; }\n")
    bundle = load_bundle(main)
    assert bundle.network is not None
    assert "s" in bundle.strategies


def test_circular_include_rejected(tmp_path):
    a = tmp_path / "a.nsm"
    b = tmp_path / "b.nsm"
    a.write_text(f'include "{b.name}";')
    b.write_text(f'include "{a.name}";')
    with pytest.raises(ParseError, match="circular"):
        load_bundle(a)


# -- the two resolver entry points ----------------------------------------------

RESOLVE_NET = """
const n = 2;
global int[0,3] g = 0;
agent A {
  var int[0,3] i = 0;
  init a0; loc a1 [done]; loc shared;
  edge a0 -> a1 on go when i < n do i := i + 1, g := g + 1;
}
agent B { var int[0,1] flag = 0; init b0; loc shared; edge b0 -> b0 on tick do flag := 1; }
"""
RESOLVE_STRATEGY = ("strategy s for A { when done && i < n || A@a0 && g == 1 do go; "
                    "when !a1 do go; when true do *; }")
RESOLVE_FORMULA = "<<A:s>>^5 F (done && g >= n) && A G (B@b0 -> flag == 0)"


def _message(exc):
    return str(exc.value).removeprefix(f"{exc.value.span}: ")


def test_network_source_and_supplied_network_resolve_alike(tmp_path):
    # names resolve the same whether the network is declared in the same
    # source or supplied as net=
    own = parse_bundle(RESOLVE_NET + RESOLVE_STRATEGY + f"\nformula f = {RESOLVE_FORMULA};")
    net = own.network
    nss = tmp_path / "extra.nss"
    nss.write_text(RESOLVE_STRATEGY + f"\nformula f = {RESOLVE_FORMULA};")
    extra = load_bundle(nss, net=net)
    assert parse_strategy(RESOLVE_STRATEGY, net) == own.strategies["s"] == extra.strategies["s"]
    assert parse_formula(RESOLVE_FORMULA, net) == own.formulas["f"] == extra.formulas["f"]
    ambiguous, unobservable = "A F shared", "strategy t for A { when b0 do go; when true do *; }"
    for parse_alone, text, same_source, message in (
            (parse_formula, ambiguous, f"formula f = {ambiguous};",
             "ambiguous location atom shared; use Agent@shared"),
            (parse_strategy, unobservable, unobservable,
             "guard atom b0 (location of B) is not observable by A")):
        with pytest.raises(ParseError) as alone:
            parse_alone(text, net)
        with pytest.raises(ParseError) as together:
            parse_bundle(RESOLVE_NET + same_source)
        assert _message(alone) == _message(together) == message


# -- round trips ---------------------------------------------------------------

# an agent whose initial location is not its first
INIT_LATER_SRC = ("agent A { loc l0; init l1; "
                  "edge l0 -> l1 on go; edge l1 -> l0 on back; }")


@pytest.mark.parametrize("stem", [
    "voter_base", "voter_check4", "voter_full", "coercion_punisher",
    "coercion_infector", "coercion_watchdog", "infrastructure", "init_later"])
def test_network_round_trip(stem):
    net = (parse_network(INIT_LATER_SRC, name=stem) if stem == "init_later"
           else load_bundle(DATA_DIR / f"{stem}.nsm").network)
    again = parse_network(print_network(net), name=net.name)
    assert again == net


@pytest.mark.parametrize("stem", [
    "voter_base", "voter_check4", "voter_full", "coercion_punisher",
    "coercion_infector", "coercion_watchdog"])
def test_strategy_round_trip(stem):
    bundle = load_bundle(DATA_DIR / f"{stem}.nsm")
    nss = (DATA_DIR / f"{stem}.nss")
    if not nss.exists():
        pytest.skip("no strategies bundled")
    strategies = load_bundle(nss, net=bundle.network).strategies
    for s in strategies.values():
        again = parse_strategy(print_strategy(s), bundle.network)
        assert again.rules == s.rules
        assert again.agent == s.agent
        assert again.declared_partial == s.declared_partial


@pytest.mark.parametrize("stem", ["voter_base", "voter_check4", "voter_full",
                                  "coercion_punisher"])
def test_formula_round_trip(stem):
    bundle = load_bundle(DATA_DIR / f"{stem}.nsm")
    nsq = DATA_DIR / f"{stem}.nsq"
    if not nsq.exists():
        pytest.skip("no formulas bundled")
    formulas = load_bundle(nsq, net=bundle.network).formulas
    for f in formulas.values():
        again = parse_formula(print_formula(f), bundle.network)
        assert again == f


# random formulas over the toy net round-trip too
def _formula_atoms(net):
    return st.sampled_from([
        FAtom(parse_guard_text("l0", net)),
        FAtom(parse_guard_text("U@u1", net)),
        FAtom(parse_guard_text("shared", net)),
        FAtom(parse_guard_text("x == 2", net)),
        FAtom(parse_guard_text("true", net)),
    ])


def _formulas(net):
    from natstrat.formula import FImplies
    return st.recursive(
        _formula_atoms(net),
        lambda kids: st.one_of(
            kids.map(FNot),
            st.tuples(kids, kids).map(lambda p: FAnd(*p)),
            st.tuples(kids, kids).map(lambda p: FOr(*p)),
            st.tuples(kids, kids).map(lambda p: FImplies(*p)),
            kids.map(lambda s: Knows("U", s)),
            kids.map(lambda s: Strategic(("T",), 3, "F", (s,))),
            kids.map(lambda s: Strategic((), 0, "G", (s,))),
            st.tuples(kids, kids).map(
                lambda p: Strategic(("T", "U"), 5, "U", p)),
        ),
        max_leaves=6)


def unfold(f):
    """f with each atom's guard connectives spelled out as formula
    connectives: the tree the parser builds before it folds a connective
    over atoms into one atom."""
    def spell(g):
        if isinstance(g, Not):
            return FNot(spell(g.sub))
        if isinstance(g, (And, Or)):
            return (FAnd if isinstance(g, And) else FOr)(spell(g.left), spell(g.right))
        return FAtom(g)
    return map_formula(f, lambda g: spell(g.guard) if isinstance(g, FAtom) else g)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_random_formula_round_trip(toy_net, data):
    f = data.draw(_formulas(toy_net))
    parsed = parse_formula(print_formula(f), toy_net)
    assert unfold(parsed) == f  # the parser folds, and does nothing else
    assert parse_formula(print_formula(parsed), toy_net) == parsed


def _guard_texts():
    return st.recursive(
        st.sampled_from(["l0", "l1", "U@u0", "U@u1", "shared", "x == 2", "x != 0", "true",
                         "false"]),
        lambda kids: st.one_of(
            kids.map(lambda t: f"!{t}"),
            kids.map(lambda t: f"({t})"),
            st.tuples(kids, kids).map(" && ".join),
            st.tuples(kids, kids).map(" || ".join),
        ),
        max_leaves=8)


@settings(max_examples=200, deadline=None)
@given(text=_guard_texts())
def test_boolean_combination_of_atoms_is_one_atom(toy_net, text):
    assert parse_formula(text, toy_net) == FAtom(parse_guard_text(text, toy_net))


def test_connective_over_a_formula_stays_a_formula_node(base):
    net = base.network
    f = parse_formula("!<<Voter>>^3 F end && (end || K[Voter] !error)", net)
    assert isinstance(f, FAnd) and isinstance(f.left, FNot)
    assert isinstance(f.right, FOr) and isinstance(f.right.left, FAtom)
    assert f.right.right.sub == FAtom(parse_guard_text("!error", net))
    # an atom whose guard is a connective is bracketed wherever it would bind
    # less tightly than its context, and a right operand of the same
    # connective keeps its brackets
    for text in ("K[Voter] (end || error)", "!(end && error)",
                 "<<Voter>>^3 F (end && error)", "(end || error) && A F end",
                 "has_ballot && (check1 && voted)", "<<Voter>>^3 F (end || (check1 || voted))",
                 "(end || error) && (check1 || voted)", "end || check1 && voted"):
        assert print_formula(parse_formula(text, net)) == text
    assert str(FNot(FAtom(parse_guard_text("end || error", net)))) == "!(end || error)"


# -- totality fuzz ---------------------------------------------------------------

_soup_tokens = st.sampled_from(
    ["agent", "init", "loc", "edge", "on", "when", "do", "sync", "strategy",
     "formula", "const", "global", "int", "{", "}", "(", ")", "[", "]", ";",
     ",", "->", ":=", "==", "&&", "||", "!", "<<", ">>", "^", "*", "future",
     "A", "F", "G", "K", "x", "0", "7", "@", "?", "true"])


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.text(alphabet=string.printable, max_size=120),
    st.lists(_soup_tokens, max_size=40).map(" ".join)))
def test_parsing_is_total(text):
    try:
        parse_bundle(text)
    except ParseError:
        pass  # rejected with a span; that's the contract


def test_map_formula_visits_bottom_up_and_rebuilds_only_changed_paths(base):
    net = base.network
    f = parse_formula("A G (check4_fail -> <<Voter:signal_on_dispute>>^2 F error) "
                      "&& K[Voter] end", net)
    seen = []
    assert map_formula(f, lambda g: seen.append(g) or g) is f
    assert [str(g) for g in seen] == [
        "check4_fail", "error", "<<Voter:signal_on_dispute>>^2 F error",
        "check4_fail -> <<Voter:signal_on_dispute>>^2 F error",
        "A G (check4_fail -> <<Voter:signal_on_dispute>>^2 F error)",
        "end", "K[Voter] end", str(f)]
    bounded = map_formula(f, lambda g: Strategic(g.coalition, 3, g.op, g.subs, g.witness)
                          if isinstance(g, Strategic) else g)
    assert str(bounded) == ("<<>>^3 G (check4_fail -> <<Voter:signal_on_dispute>>^3 F error)"
                            " && K[Voter] end")
    assert bounded.right is f.right
