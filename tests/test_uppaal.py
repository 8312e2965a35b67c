import xml.etree.ElementTree as ET

import pytest

from natstrat.casestudy import build_coercer
from natstrat.dsl import parse_formula, parse_network
from natstrat.errors import ExportError
from natstrat.strategy import make_mutually_exclusive
from natstrat.uppaal import export_uppaal, validate_document


def test_reach_end_query(base):
    doc = export_uppaal(base.network, formulas=[base.formulas["reach_end"]])
    assert "A<> Voter.end" in doc.queries


def test_universal_g_query(base):
    f = parse_formula("A G !error", base.network)
    doc = export_uppaal(base.network, formulas=[f])
    assert doc.queries.strip() == "A[] !(Voter.error)"


def test_export_parses_and_validates_everywhere(base, check4, full75, infra_net):
    nets = [base.network, check4.network, full75.network, infra_net,
            build_coercer("punisher").network,
            build_coercer("infector").network,
            build_coercer("watchdog").network]
    for net in nets:
        doc = export_uppaal(net)
        root = ET.fromstring(doc.xml)  # well-formed
        validate_document(root)


def test_fixed_export_contains_exclusive_preconditions(base):
    ns1 = base.strategies["cast_verify"]
    doc = export_uppaal(base.network, {"Voter": ns1},
                        [base.formulas["reach_end"]])
    me = make_mutually_exclusive(ns1)
    guards = [lbl.text for lbl in doc.root.iter("label")
              if lbl.get("kind") == "guard"]
    for rule in me.rules[:-1]:
        assert any(str(rule.guard) in g for g in guards), rule
    validate_document(doc.root)


def test_fixed_export_prunes_off_strategy_edges(base):
    ns1 = base.strategies["cast_verify"]
    doc = export_uppaal(base.network, {"Voter": ns1})
    # check1 and check3 are never prescribed; their transitions vanish
    texts = ET.tostring(doc.root, encoding="unicode")
    tpl = doc.root.find("template")
    n_transitions = len(tpl.findall("transition"))
    plain = export_uppaal(base.network)
    n_plain = len(plain.root.find("template").findall("transition"))
    assert n_transitions < n_plain


def test_empty_network_rejected():
    net = parse_network("channel c;", name="empty")
    with pytest.raises(ExportError):
        export_uppaal(net)


def test_nested_strategic_rejected(base):
    with pytest.raises(ExportError, match="nested|natively"):
        export_uppaal(base.network,
                      formulas=[base.formulas["dispute_resolution"]])


def test_until_has_no_query_form(base):
    f = parse_formula("<<Voter>>^3 (has_ballot U scanning)", base.network)
    with pytest.raises(ExportError):
        export_uppaal(base.network, formulas=[f])


def test_sync_labels_and_channels(infra_net):
    doc = export_uppaal(infra_net)
    decl = doc.root.find("declaration").text
    for chan in ("publish", "submit", "cancelreq", "printreq", "scanreq"):
        assert f"chan {chan};" in decl
    syncs = [lbl.text for lbl in doc.root.iter("label")
             if lbl.get("kind") == "synchronisation"]
    assert "publish!" in syncs and "publish?" in syncs


def test_location_trackers_declared_and_maintained(base):
    ns1 = base.strategies["cast_verify"]
    doc = export_uppaal(base.network, {"Voter": ns1})
    decl = doc.root.find("declaration").text
    assert "bool has_ballot = false;" in decl
    assert "bool start = true;" in decl
    assigns = [lbl.text for lbl in doc.root.iter("label")
               if lbl.get("kind") == "assignment"]
    assert any("has_ballot = false" in a and "scanning = true" in a
               for a in assigns)


def test_export_deterministic(base):
    a = export_uppaal(base.network, formulas=[base.formulas["reach_end"]])
    b = export_uppaal(base.network, formulas=[base.formulas["reach_end"]])
    assert a.xml == b.xml and a.queries == b.queries


def test_write_files(tmp_path, base):
    doc = export_uppaal(base.network, formulas=[base.formulas["reach_end"]])
    xml_path, q_path = doc.write(tmp_path, stem="voter")
    assert xml_path.read_text().startswith("<?xml")
    assert "A<> Voter.end" in q_path.read_text()


def test_comparison_and_variable_queries(watchdog):
    net = watchdog.network
    f = parse_formula("<<Coercer>>^4 F (punished_v == 1 && infected == 1)", net)
    assert export_uppaal(net, formulas=[f]).queries == \
        "A<> (punished_v == 1 && infected == 1)\n"


def test_local_variable_and_constant_queries():
    net = parse_network("""
        const k = 1;
        global int[0,1] flag = 0;
        agent A {
          var int[0,2] x = 0;
          init a0;
          loc a1;
          edge a0 -> a1 on go when x < k do x := x + 1, flag := 1;
        }
    """)
    f = parse_formula("A G ((x <= k || flag) && !a1 || x != k && false || true)", net)
    # a local variable is read inside its process; a constant and a global
    # by name
    assert export_uppaal(net, formulas=[f]).queries == (
        "A[] ((((A.x <= k || flag) && !(A.a1)) || (A.x != k && false)) || true)\n")
