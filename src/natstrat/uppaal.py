"""Export networks (optionally strategy-fixed) to UPPAAL 4.x XML plus a
companion query file.

Location atoms inside guards have no direct UPPAAL counterpart, so every
location referenced by a guard gets a tracking boolean (named after the atom,
collision-suffixed if needed) that the owning template maintains on each
transition. Query atoms use the native ``Process.location`` form instead.

Strategic operators are rewritten to universal CTL: <<A>>^k F φ becomes
``A<> φ`` and <<A>>^k G φ becomes ``A[] φ``. Anything UPPAAL cannot express
(nested strategic operators, knowledge, X/U queries) raises ExportError and
must be checked natively.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .errors import ExportError
from .formula import FAnd, FAtom, FImplies, FNot, FOr, Formula, Knows, Strategic
from .model import (
    And, Comparison, Edge, FalseConst, LocAtom, Network, Not, Or, TrueConst,
    VarAtom, VarRef, map_atoms, nodes,
)
from .strategy import CollectiveStrategy, fix_strategy

_QUERY_OPS = {And: "&&", FAnd: "&&", Or: "||", FOr: "||", FImplies: "imply"}

_DOCTYPE = ("<!DOCTYPE nta PUBLIC '-//Uppaal Team//DTD Flat System 1.1//EN' "
            "'http://www.it.uu.se/research/group/darts/uppaal/flat-1_1.dtd'>")


@dataclass
class UppaalDocument:
    xml: str
    queries: str
    root: ET.Element

    def write(self, directory, stem: str = "model"):
        d = Path(directory)
        d.mkdir(parents=True, exist_ok=True)
        xml_path = d / f"{stem}.xml"
        q_path = d / f"{stem}.q"
        xml_path.write_text(self.xml, encoding="utf-8")
        q_path.write_text(self.queries, encoding="utf-8")
        return xml_path, q_path


def mangle(name: str, taken: set[str]) -> str:
    base = re.sub(r"[^A-Za-z0-9_]", "_", name)
    if not base or base[0].isdigit():
        base = "_" + base
    out = base
    i = 2
    while out in taken:
        out = f"{base}_{i}"
        i += 1
    taken.add(out)
    return out


class _Exporter:
    def __init__(self, net: Network):
        self.net = net
        self.taken: set[str] = set()
        # reserve declared names first so trackers get suffixed, not vars
        for _, v in net.var_decls():
            self.taken.add(v.name)
        for c in net.channels:
            self.taken.add(c)
        for n, _ in net.constants:
            self.taken.add(n)
        self.tracked: dict[tuple[str, str], str] = {}
        for tpl in net.agents:
            for e in tpl.edges:
                for a in nodes(e.guard):
                    if isinstance(a, LocAtom) and (a.agent, a.location) not in self.tracked:
                        self.tracked[a.agent, a.location] = mangle(a.location, self.taken)

    # -- document ---------------------------------------------------------------
    def build(self) -> ET.Element:
        if not self.net.agents:
            raise ExportError("cannot export an empty network (system line "
                              "would instantiate nothing)")
        nta = ET.Element("nta")
        decl = ET.SubElement(nta, "declaration")
        lines = ["// generated by natstrat"]
        for n, v in self.net.constants:
            lines.append(f"const int {n} = {v};")
        for c in self.net.channels:
            lines.append(f"chan {c};")
        for v in self.net.global_vars:
            lines.append(f"int[{v.lo},{v.hi}] {v.name} = {v.init};")
        for (agent, loc), tname in sorted(self.tracked.items()):
            init = "true" if self.net.agent(agent).initial == loc else "false"
            lines.append(f"bool {tname} = {init};  // {agent} at {loc}")
        decl.text = "\n".join(lines)

        for tpl in self.net.agents:
            t = ET.SubElement(nta, "template")
            ET.SubElement(t, "name").text = tpl.name
            local = ET.SubElement(t, "declaration")
            local.text = "\n".join(
                f"int[{v.lo},{v.hi}] {v.name} = {v.init};" for v in tpl.local_vars)
            ids = {loc: f"id_{tpl.name}_{i}" for i, loc in enumerate(tpl.locations)}
            for loc in tpl.locations:
                le = ET.SubElement(t, "location", id=ids[loc])
                ET.SubElement(le, "name").text = loc
            ET.SubElement(t, "init", ref=ids[tpl.initial])
            edges = list(tpl.edges)
            if tpl.lazy:
                edges += [Edge(source=loc, target=loc, action="wait")
                          for loc in tpl.locations]
            for e in edges:
                tr = ET.SubElement(t, "transition")
                ET.SubElement(tr, "source", ref=ids[e.source])
                ET.SubElement(tr, "target", ref=ids[e.target])
                if not isinstance(e.guard, TrueConst):
                    # each location atom becomes its tracking boolean
                    guard = map_atoms(e.guard, lambda a: a if not isinstance(a, LocAtom) else
                                      VarAtom(VarRef(None, self.tracked[a.agent, a.location])))
                    ET.SubElement(tr, "label", kind="guard").text = str(guard)
                if e.sync is not None:
                    ET.SubElement(tr, "label", kind="synchronisation").text = \
                        f"{e.sync[0]}{e.sync[1]}"
                assigns = [f"{a.target.name} = {a.expr}" for a in e.updates]
                src_key = (tpl.name, e.source)
                tgt_key = (tpl.name, e.target)
                if e.source != e.target:
                    if src_key in self.tracked:
                        assigns.append(f"{self.tracked[src_key]} = false")
                    if tgt_key in self.tracked:
                        assigns.append(f"{self.tracked[tgt_key]} = true")
                if assigns:
                    ET.SubElement(tr, "label", kind="assignment").text = \
                        ", ".join(assigns)
            ET.SubElement(t, "comment")
        system = ET.SubElement(nta, "system")
        system.text = "system " + ", ".join(a.name for a in self.net.agents) + ";"
        return nta

    # -- queries -----------------------------------------------------------------
    def _query(self, f) -> str:
        """UPPAAL query text of a formula or guard node: location atoms in
        the native ``Process.location`` form, every connective bracketed."""
        if isinstance(f, FAtom):
            return self._query(f.guard)
        if isinstance(f, LocAtom):
            return f"{f.agent}.{f.location}"
        if isinstance(f, VarAtom):
            return self._qvar(f.var)
        if isinstance(f, Comparison):
            rhs = f.rhs if isinstance(f.rhs, int) else self._qvar(f.rhs)
            return f"{self._qvar(f.lhs)} {f.op} {rhs}"
        if isinstance(f, (TrueConst, FalseConst)):
            return str(f)
        if isinstance(f, (Not, FNot)):
            return f"!({self._query(f.sub)})"
        if isinstance(f, (And, Or, FAnd, FOr, FImplies)):
            op = _QUERY_OPS[type(f)]
            return f"({self._query(f.left)} {op} {self._query(f.right)})"
        if isinstance(f, Strategic):
            raise ExportError("nested strategic operators cannot be exported "
                              "to UPPAAL; check them natively")
        if isinstance(f, Knows):
            raise ExportError("knowledge operators cannot be exported to "
                              "UPPAAL; check them natively")
        raise ExportError(f"cannot export formula {f}")

    def _qvar(self, ref: VarRef) -> str:
        # locals live inside their process in the query namespace
        return ref.name if ref.owner is None else f"{ref.owner}.{ref.name}"

    def query_text(self, f: Formula) -> str:
        if isinstance(f, Strategic):
            if f.op == "F":
                return f"A<> {self._query(f.subs[0])}"
            if f.op == "G":
                return f"A[] {self._query(f.subs[0])}"
            raise ExportError(f"temporal operator {f.op} has no UPPAAL query form")
        raise ExportError("only strategic/universally quantified formulas "
                          "export as queries")


def export_uppaal(net: Network, s_A: Optional[CollectiveStrategy] = None,
                  formulas: Sequence[Formula] = ()) -> UppaalDocument:
    """Export `net` (with `s_A` fixed into it first, when given) and rewrite
    `formulas` into the companion query file."""
    if s_A:
        net = fix_strategy(net, s_A)
    exporter = _Exporter(net)
    root = exporter.build()
    queries = "".join(exporter.query_text(f) + "\n" for f in formulas)
    validate_document(root)
    ET.indent(root)
    xml = ('<?xml version="1.0" encoding="utf-8"?>\n' + _DOCTYPE + "\n"
           + ET.tostring(root, encoding="unicode"))
    return UppaalDocument(xml=xml, queries=queries, root=root)


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_RESERVED = {"true", "false", "imply", "not", "and", "or"}


def validate_document(root: ET.Element) -> None:
    """Structural validation against the UPPAAL 4.x document shape: required
    elements present, every reference resolved, every identifier used in a
    label declared somewhere in the document."""
    if root.tag != "nta":
        raise ExportError("document root must be <nta>")
    templates = root.findall("template")
    if not templates:
        raise ExportError("document has no templates")
    system = root.find("system")
    if system is None or not (system.text or "").strip():
        raise ExportError("document has no system line")
    declared: set[str] = set()
    decl = root.find("declaration")
    decl_text = decl.text or "" if decl is not None else ""
    names = set()
    for tpl in templates:
        name_el = tpl.find("name")
        if name_el is None or not name_el.text:
            raise ExportError("template without a name")
        names.add(name_el.text)
        loc_ids = set()
        for le in tpl.findall("location"):
            loc_ids.add(le.get("id"))
        init = tpl.find("init")
        if init is None or init.get("ref") not in loc_ids:
            raise ExportError(f"template {name_el.text}: init does not "
                              f"reference a declared location")
        for tr in tpl.findall("transition"):
            src = tr.find("source")
            tgt = tr.find("target")
            if src is None or tgt is None or \
                    src.get("ref") not in loc_ids or tgt.get("ref") not in loc_ids:
                raise ExportError(f"template {name_el.text}: dangling "
                                  f"transition reference")
        # label identifier check runs after global table is complete
    declared.update(_declared_identifiers(decl_text))
    for tpl in templates:
        name_el = tpl.find("name")
        local = tpl.find("declaration")
        local_text = local.text or "" if local is not None else ""
        scope = declared | _declared_identifiers(local_text)
        for tr in tpl.findall("transition"):
            for label in tr.findall("label"):
                text = label.text or ""
                if label.get("kind") == "synchronisation":
                    chan = text.rstrip("!?")
                    if chan not in declared:
                        raise ExportError(f"sync on undeclared channel {chan}")
                    continue
                for ident in _IDENT_RE.findall(text):
                    if ident in _RESERVED or ident in scope:
                        continue
                    raise ExportError(
                        f"template {name_el.text}: label references "
                        f"undeclared identifier {ident}")
    # system line must instantiate declared templates
    listed = (system.text or "").replace("system", "", 1).strip(" ;\n")
    for proc in filter(None, (s.strip() for s in listed.split(","))):
        if proc not in names:
            raise ExportError(f"system instantiates unknown template {proc}")


def _declared_identifiers(decl_text: str) -> set[str]:
    out = set()
    for line in decl_text.splitlines():
        line = line.split("//")[0].strip().rstrip(";")
        if not line:
            continue
        m = re.match(r"(?:const\s+)?(?:bool|chan|int(?:\[[^\]]*\])?)\s+"
                     r"([A-Za-z_][A-Za-z0-9_]*)", line)
        if m:
            out.add(m.group(1))
    return out
