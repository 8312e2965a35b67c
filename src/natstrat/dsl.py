"""Text formats and parsers.

Three UTF-8 formats share one lexer and may live in one file:

* networks (``.nsm``): constants, channels, global variables, agent blocks;
* strategies (``.nss``): ordered ``when <guard> do <action>;`` rules;
* formulas (``.nsq``): strategic/temporal/epistemic queries.

Guard and update expressions are C-like (&&, ||, !, ==, !=, <, <=, >, >=).
Guards, rules and formulas share one expression grammar, and a formula's
connective over atoms resolves to one atom. See docs/dsl.md for the full
grammar. Parsing is total: any input either yields a bundle or raises
ParseError with a source span.

One regex pass lexes a text into `Token` named tuples, which the parser
reads by index.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple, Optional

from .errors import DefinitionError, ParseError
from .formula import (
    FAnd, FAtom, FImplies, FNot, FOr, Formula, Knows, Strategic,
)
from .model import (
    CMP_OPS, WAIT_ACTION, And, AgentTemplate, Assignment, Comparison, Edge, FalseConst,
    GuardExpr, IntBin, IntExpr, IntLit, IntVar, LocAtom, Network, Not, Or,
    TrueConst, VarAtom, VarDecl, VarRef,
)
from .strategy import WILDCARD, NaturalStrategy, Rule


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int
    column: int

    def __str__(self):
        return f"{self.file}:{self.line}:{self.column}"


@dataclass
class ParsedBundle:
    """Everything one source (plus includes) declares, fully resolved."""

    network: Optional[Network]
    strategies: dict[str, NaturalStrategy] = field(default_factory=dict)
    formulas: dict[str, Formula] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Lexer

# One match per token with the blanks and comment before it (a comment ends
# its line); a newline is a match of its own, so lines and columns come from
# offsets. `bad` starts no token; a match with no group ends the text.
_TOKEN_RE = re.compile(r"""
    [ \t\r]*(?://[^\n]*)?
    (?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)
     | (?P<op><<|>>|->|:=|==|!=|<=|>=|&&|\|\||[{}()\[\];,@!<>=^*?:+\-.])
     | (?P<nl>\n)
     | (?P<int>\d+)
     | (?P<string>"[^"\n]*")
     | (?P<bad>.))?
""", re.VERBOSE)

_KEYWORDS = {
    "const", "channel", "global", "agent", "var", "int", "init", "loc",
    "edge", "on", "when", "sync", "do", "strategy", "partial", "for",
    "formula", "true", "false", "include",
}


class Token(NamedTuple):
    kind: str  # 'int' | 'ident' | 'string' | 'op' | 'eof' or a keyword
    text: str
    line: int
    column: int  # 1-based, one per character


def _tokenize(text: str, filename: str) -> list[Token]:
    tokens: list[Token] = []
    append, new = tokens.append, tuple.__new__  # new(Token, t) skips Token's Python __new__
    line, line_start = 1, 0  # line_start: offset of the line's first character
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            break
        if kind == "nl":
            line += 1
            line_start = m.end()
            continue
        start = m.start(kind)
        if kind == "bad":
            raise ParseError(f"illegal character {text[start]!r}",
                             SourceSpan(filename, line, start - line_start + 1))
        value = m[kind]
        if kind == "ident" and value in _KEYWORDS:
            kind = value
        append(new(Token, (kind, value, line, start - line_start + 1)))
    append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Raw (pre-resolution) parse structures

@dataclass(frozen=True)
class _RawName:
    name: str
    agent: Optional[str] = None  # Agent@name form when set


@dataclass
class _RawEdge:
    source: str
    target: str
    action: str
    guard: object  # raw guard tree
    sync: Optional[tuple[str, str]]
    updates: list[tuple[str, object]]  # (target name, raw int expr)
    span: SourceSpan


@dataclass
class _RawAgent:
    name: str
    lazy: bool
    locations: list[tuple[str, list[str], SourceSpan]]  # (name, labels, span)
    initial: Optional[str]
    raw_var_bounds: list[tuple[str, object, object, int, SourceSpan]]
    edges: list[_RawEdge]
    span: SourceSpan
    auto_locs: set[str] = field(default_factory=set)


# ---------------------------------------------------------------------------
# Parser

class _BundleParser:
    def __init__(self, tokens: list[Token], filename: str, consts_override=None,
                 include_stack=None):
        self.tokens = tokens
        self.filename = filename
        self.pos = 0
        self.consts_override = dict(consts_override or {})
        self.include_stack = include_stack or []
        self.constants: dict[str, int] = {}
        self.channels: list[tuple[str, SourceSpan]] = []
        self.globals: list[tuple[str, object, object, int, SourceSpan]] = []
        self.agents: list[_RawAgent] = []
        self.raw_strategies: list[dict] = []
        self.raw_formulas: list[dict] = []

    # -- token plumbing ------------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        # only a lookahead can run past the final eof token
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1) if offset else self.pos]

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == kind and (text is None or tok.text == text)

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def span(self, tok: Optional[Token] = None) -> SourceSpan:
        tok = tok or self.tokens[self.pos]
        return SourceSpan(self.filename, tok.line, tok.column)

    def fail(self, expected: str) -> ParseError:
        tok = self.tokens[self.pos]
        got = tok.text or "end of input"
        return ParseError(f"expected {expected}, got {got!r}", self.span(tok))

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        if not self.at(kind, text):
            raise self.fail(text or kind)
        return self.advance()

    def expect_op(self, op: str) -> Token:
        tok = self.tokens[self.pos]
        if not (tok.kind == "op" and tok.text == op):
            raise self.fail(f"'{op}'")
        self.pos += 1  # an op is never eof
        return tok

    def at_op(self, op: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == "op" and tok.text == op

    def ident(self, what: str = "identifier") -> str:
        tok = self.tokens[self.pos]
        if tok.kind != "ident":
            raise self.fail(what)
        self.pos += 1
        return tok.text

    def integer(self) -> int:
        neg = False
        if self.at_op("-"):
            self.advance()
            neg = True
        tok = self.expect("int")
        v = int(tok.text)
        return -v if neg else v

    # -- expressions (raw) ------------------------------------------------------
    # Guards and formulas share one grammar: `||`, `&&`, `!`, parentheses,
    # true/false and atoms. With `formula` set, `->`, `<<..>>^k`, `A` and
    # `K[..]` are accepted too.
    def parse_guard(self):
        return self._or(formula=False)

    def _formula(self):
        left = self._or(formula=True)
        if self.at_op("->"):
            self.advance()
            return ("implies", left, self._formula())
        return left

    def _or(self, formula: bool):
        left = self._and(formula)
        while self.at_op("||"):
            self.advance()
            left = ("or", left, self._and(formula))
        return left

    def _and(self, formula: bool):
        left = self._unary(formula)
        while self.at_op("&&"):
            self.advance()
            left = ("and", left, self._unary(formula))
        return left

    def _unary(self, formula: bool):
        tok = self.peek()
        kind, text = tok.kind, tok.text
        if kind == "op" and text == "!":
            self.advance()
            return ("not", self._unary(formula))
        if kind == "op" and text == "(":
            self.advance()
            inner = self._formula() if formula else self._or(formula)
            if formula and self.at("ident") and self.peek().text == "U":
                raise ParseError("'U' belongs under a path quantifier: "
                                 "A (f U g) or <<..>>^k (f U g)", self.span())
            self.expect_op(")")
            return inner
        if formula and kind == "op" and text == "<<":
            return self._strategic(tok)
        if formula and kind == "ident" and text == "A" and self._next_is_temporal():
            self.advance()
            op, subs = self._temporal_tail()
            return ("strategic", (), 0, op, subs, (), self.span(tok))
        if formula and kind == "ident" and text == "K" and self.peek(1).text == "[":
            self.advance()
            self.expect_op("[")
            agent = self.ident("agent name")
            self.expect_op("]")
            return ("knows", agent, self._unary(formula), self.span(tok))
        if kind in ("true", "false"):
            self.advance()
            return (kind,)
        return self._g_atom()

    def _g_atom(self):
        tok = self.peek()
        name = self.ident("guard atom")
        agent = None
        if self.at_op("@"):
            self.advance()
            agent, name = name, self.ident("location name")
        nxt = self.peek()
        if nxt.kind == "op" and nxt.text in CMP_OPS:
            if agent is not None:
                raise ParseError("comparisons apply to variables, not locations",
                                 self.span(tok))
            op = self.advance().text
            if self.at("int") or self.at_op("-"):
                rhs: object = self.integer()
            else:
                rhs = _RawName(self.ident("variable, constant or integer"))
            return ("cmp", _RawName(name), op, rhs, self.span(tok))
        return ("atom", _RawName(name, agent), self.span(tok))

    # -- integer expressions (raw) --------------------------------------------
    def parse_int_expr(self):
        left = self._i_term()
        while self.peek().kind == "op" and self.peek().text in ("+", "-"):
            op = self.advance().text
            left = ("bin", op, left, self._i_term())
        return left

    def _i_term(self):
        if self.at("int"):
            return ("lit", int(self.advance().text))
        tok = self.peek()
        return ("var", _RawName(self.ident("integer term")), self.span(tok))

    # -- declarations -----------------------------------------------------------
    def parse_items(self):
        items = {"const": self._item_const, "channel": self._item_channel,
                 "global": self._item_global, "agent": self._item_agent,
                 "partial": self._item_strategy, "strategy": self._item_strategy,
                 "formula": self._item_formula, "include": self._item_include}
        while not self.at("eof"):
            item = items.get(self.peek().kind)
            if item is None:
                raise self.fail("a declaration (const/channel/global/agent/"
                                "strategy/formula/include)")
            item()

    def _item_const(self):
        self.advance()
        name = self.ident("constant name")
        self.expect_op("=")
        value = self.integer()
        self.expect_op(";")
        self.constants[name] = self.consts_override.get(name, value)

    def _item_channel(self):
        self.advance()
        tok = self.peek()
        name = self.ident("channel name")
        self.channels.append((name, self.span(tok)))
        self.expect_op(";")

    def _vardecl_tail(self):
        """after 'int': [lo,hi] name = init ;  (bounds may be constants)"""
        self.expect("int")
        self.expect_op("[")
        lo = self._bound()
        self.expect_op(",")
        hi = self._bound()
        self.expect_op("]")
        tok = self.peek()
        name = self.ident("variable name")
        self.expect_op("=")
        init = self.integer()
        self.expect_op(";")
        return name, lo, hi, init, self.span(tok)

    def _bound(self):
        if self.at("int") or self.at_op("-"):
            return self.integer()
        return _RawName(self.ident("bound (integer or constant)"))

    def _item_global(self):
        self.advance()
        self.globals.append(self._vardecl_tail())

    def _item_agent(self):
        self.advance()
        tok = self.peek()
        name = self.ident("agent name")
        lazy = False
        if self.at_op("("):
            self.advance()
            flag = self.ident("'lazy'")
            if flag != "lazy":
                raise ParseError(f"unknown agent flag {flag!r}", self.span(tok))
            lazy = True
            self.expect_op(")")
        self.expect_op("{")
        agent = _RawAgent(name=name, lazy=lazy, locations=[], initial=None,
                          raw_var_bounds=[], edges=[], span=self.span(tok))
        while not self.at_op("}"):
            kind = self.peek().kind
            if kind == "var":
                self.advance()
                agent.raw_var_bounds.append(self._vardecl_tail())
            elif kind == "init":
                itok = self.peek()
                self.advance()
                loc = self.ident("location name")
                self.expect_op(";")
                if agent.initial is not None:
                    raise ParseError(f"agent {name}: duplicate init", self.span(itok))
                agent.initial = loc
                if loc not in [l for l, _, _ in agent.locations]:
                    agent.locations.append((loc, [], self.span(itok)))
                    agent.auto_locs.add(loc)
            elif kind == "loc":
                ltok = self.peek()
                self.advance()
                loc = self.ident("location name")
                labels: list[str] = []
                if self.at_op("["):
                    self.advance()
                    labels.append(self.ident("atom label"))
                    while self.at_op(","):
                        self.advance()
                        labels.append(self.ident("atom label"))
                    self.expect_op("]")
                self.expect_op(";")
                existing = [l for l, _, _ in agent.locations]
                if loc in existing:
                    if loc in agent.auto_locs:
                        # `init` auto-declared it; a real decl refines labels
                        agent.auto_locs.discard(loc)
                        idx = existing.index(loc)
                        agent.locations[idx] = (loc, labels, self.span(ltok))
                    else:
                        raise ParseError(f"agent {name}: duplicate location {loc}",
                                         self.span(ltok))
                else:
                    agent.locations.append((loc, labels, self.span(ltok)))
            elif kind == "edge":
                agent.edges.append(self._agent_edge())
            else:
                raise self.fail("var/init/loc/edge or '}'")
        self.expect_op("}")
        if agent.initial is None:
            raise ParseError(f"agent {name}: missing init", agent.span)
        self.agents.append(agent)

    def _agent_edge(self) -> _RawEdge:
        tok = self.peek()
        self.advance()  # 'edge'
        source = self.ident("source location")
        self.expect_op("->")
        target = self.ident("target location")
        self.expect("on")
        action = self.ident("action label")
        guard: object = ("true",)
        sync = None
        updates: list[tuple[str, object]] = []
        if self.at("when"):
            self.advance()
            guard = self.parse_guard()
        if self.at("sync"):
            self.advance()
            chan = self.ident("channel name")
            if self.at_op("!"):
                self.advance()
                sync = (chan, "!")
            elif self.at_op("?"):
                self.advance()
                sync = (chan, "?")
            else:
                raise self.fail("'!' or '?'")
        if self.at("do"):
            self.advance()
            updates.append(self._assignment())
            while self.at_op(","):
                self.advance()
                updates.append(self._assignment())
        self.expect_op(";")
        return _RawEdge(source, target, action, guard, sync, updates, self.span(tok))

    def _assignment(self):
        name = self.ident("assignment target")
        self.expect_op(":=")
        return (name, self.parse_int_expr())

    def _item_strategy(self):
        partial = False
        tok = self.peek()
        if self.at("partial"):
            partial = True
            self.advance()
        self.expect("strategy")
        name = self.ident("strategy name")
        self.expect("for")
        agent = self.ident("agent name")
        self.expect_op("{")
        rules = []
        while not self.at_op("}"):
            rtok = self.peek()
            self.expect("when")
            guard = self.parse_guard()
            self.expect("do")
            if self.at_op("*"):
                self.advance()
                action: object = WILDCARD
            else:
                action = self.ident("action label or '*'")
            self.expect_op(";")
            rules.append((guard, action, self.span(rtok)))
        self.expect_op("}")
        self.raw_strategies.append(dict(name=name, agent=agent, partial=partial,
                                        rules=rules, span=self.span(tok)))

    def _item_formula(self):
        tok = self.peek()
        self.advance()
        name = self.ident("formula name")
        self.expect_op("=")
        tree = self._formula()
        self.expect_op(";")
        self.raw_formulas.append(dict(name=name, tree=tree, span=self.span(tok)))

    def _item_include(self):
        tok = self.peek()
        self.advance()
        path_tok = self.expect("string")
        self.expect_op(";")
        rel = path_tok.text.strip('"')
        base = Path(self.filename).parent if self.filename != "<string>" else Path(".")
        target = (base / rel).resolve()
        if str(target) in self.include_stack:
            raise ParseError(f"circular include of {rel}", self.span(tok))
        try:
            text = target.read_text(encoding="utf-8")
        except OSError as exc:
            raise ParseError(f"cannot include {rel}: {exc}", self.span(tok))
        sub = _BundleParser(_tokenize(text, str(target)), str(target),
                            self.consts_override,
                            self.include_stack + [str(target)])
        sub.parse_items()
        self._merge(sub)

    def _merge(self, sub: "_BundleParser"):
        for k, v in sub.constants.items():
            self.constants.setdefault(k, v)
        self.channels.extend(sub.channels)
        self.globals.extend(sub.globals)
        self.agents.extend(sub.agents)
        self.raw_strategies.extend(sub.raw_strategies)
        self.raw_formulas.extend(sub.raw_formulas)

    # -- strategic operators (raw; formula context only) ------------------------
    def _next_is_temporal(self) -> bool:
        nxt = self.peek(1)
        return (nxt.kind == "ident" and nxt.text in ("X", "F", "G")) or \
            (nxt.kind == "op" and nxt.text == "(")

    def _strategic(self, tok: Token):
        self.expect_op("<<")
        coalition: list[str] = []
        witnesses: list[str] = []
        while not self.at_op(">>"):
            coalition.append(self.ident("agent name"))
            if self.at_op(":"):
                self.advance()
                witnesses.append(self.ident("strategy name"))
            if self.at_op(","):
                self.advance()
        self.expect_op(">>")
        if witnesses and len(witnesses) != len(coalition):
            raise ParseError("either every coalition member names a witness "
                             "strategy or none does", self.span(tok))
        self.expect_op("^")
        bound = self.integer()
        op, subs = self._temporal_tail()
        return ("strategic", tuple(coalition), bound, op, subs,
                tuple(witnesses), self.span(tok))

    def _temporal_tail(self):
        if self.at("ident") and self.peek().text in ("X", "F", "G"):
            op = self.advance().text
            return op, (self._unary(formula=True),)
        if self.at_op("("):
            self.advance()
            left = self._formula()
            if not (self.at("ident") and self.peek().text == "U"):
                raise self.fail("'U'")
            self.advance()
            right = self._formula()
            self.expect_op(")")
            return "U", (left, right)
        raise self.fail("temporal operator X/F/G or '(f U g)'")


# ---------------------------------------------------------------------------
# Resolution

# raw connective tag -> (guard node, formula node)
_CONNECTIVES = {"not": (Not, FNot), "and": (And, FAnd), "or": (Or, FOr)}


class _Resolver:
    def __init__(self, parser: _BundleParser, external_net: Optional[Network] = None):
        self.p = parser
        self.external_net = external_net
        if external_net is not None:
            self._tables(external_net.agents, external_net.global_vars,
                         dict(external_net.constants))

    def _tables(self, agents, global_vars, consts: dict[str, int]) -> None:
        """The name tables that resolution reads, from templates (edges not
        needed), global variable declarations and constant values."""
        self.loc_owner: dict[str, list[str]] = {}
        self.agent_locs: dict[str, set[str]] = {}
        self.atom_alias: dict[str, list[tuple[str, str]]] = {}
        self.local_vars: dict[str, set[str]] = {}
        for a in agents:
            self.agent_locs[a.name] = set(a.locations)
            for l in a.locations:
                self.loc_owner.setdefault(l, []).append(a.name)
            for lbl, l in a.atom_labels:
                self.atom_alias.setdefault(lbl, []).append((a.name, l))
            self.local_vars[a.name] = {v.name for v in a.local_vars}
        self.global_vars = {v.name for v in global_vars}
        self.consts = consts

    # -- network --------------------------------------------------------------
    def build_network(self, name: str) -> Optional[Network]:
        p = self.p
        if not p.agents and not p.globals and not p.channels:
            return self.external_net
        if self.external_net is not None and p.agents:
            raise DefinitionError("source declares agents but a network was "
                                  "also supplied")
        consts = dict(p.constants)

        def bound_value(b, span) -> int:
            if isinstance(b, int):
                return b
            if b.name in consts:
                return consts[b.name]
            raise ParseError(f"unknown constant {b.name} in variable bounds", span)

        def decl(vname, lo, hi, init, span) -> VarDecl:
            return VarDecl(vname, bound_value(lo, span), bound_value(hi, span), init)

        global_decls = [decl(*g) for g in p.globals]
        # templates without edges first: they are what the name tables read
        templates = [AgentTemplate(
            name=a.name,
            locations=tuple(l for l, _, _ in a.locations),
            initial=a.initial,
            local_vars=tuple(decl(*v) for v in a.raw_var_bounds),
            lazy=a.lazy,
            atom_labels=tuple((lbl, l) for l, lbls, _ in a.locations for lbl in lbls))
            for a in p.agents]
        self._tables(templates, global_decls, consts)
        channels = tuple(n for n, _ in p.channels)
        for i, a in enumerate(p.agents):
            edges = []
            for re_ in a.edges:
                for endpoint in (re_.source, re_.target):
                    if endpoint not in self.agent_locs[a.name]:
                        raise ParseError(
                            f"agent {a.name}: undeclared location {endpoint}",
                            re_.span)
                guard = self.resolve_guard(re_.guard, owner=a.name, strict=False)
                updates = tuple(
                    Assignment(self.resolve_var(nm, a.name, re_.span, writing=True),
                               self.resolve_int(ie, a.name, re_.span))
                    for nm, ie in re_.updates)
                if re_.sync is not None and re_.sync[0] not in channels:
                    raise ParseError(f"undeclared channel {re_.sync[0]}", re_.span)
                edges.append(Edge(source=re_.source, target=re_.target,
                                  action=re_.action, guard=guard, sync=re_.sync,
                                  updates=updates))
            templates[i] = replace(templates[i], edges=tuple(edges))
        try:
            return Network(name=name, agents=tuple(templates),
                           global_vars=tuple(global_decls), channels=channels,
                           constants=tuple(sorted(consts.items())))
        except DefinitionError as exc:
            raise ParseError(str(exc), SourceSpan(self.p.filename, 1, 1))

    # -- name resolution -------------------------------------------------------
    def resolve_var(self, name: str, owner: Optional[str], span: SourceSpan,
                    writing: bool = False) -> VarRef:
        if owner is not None and name in self.local_vars.get(owner, ()):
            return VarRef(owner, name)
        if name in self.global_vars:
            return VarRef(None, name)
        if name in self.consts:
            if writing:
                raise ParseError(f"cannot assign to constant {name}", span)
            return VarRef(None, name)
        if owner is None:
            owners = [a for a, names in self.local_vars.items() if name in names]
            if len(owners) == 1:
                return VarRef(owners[0], name)
            if len(owners) > 1:
                raise ParseError(f"ambiguous variable {name} "
                                 f"(locals of {', '.join(sorted(owners))})", span)
        raise ParseError(f"undeclared variable {name}", span)

    def resolve_atom(self, raw: _RawName, span: SourceSpan, owner: Optional[str],
                     strict: bool) -> GuardExpr:
        if raw.agent is not None:
            if raw.agent not in self.agent_locs:
                raise ParseError(f"unknown agent {raw.agent}", span)
            if raw.name not in self.agent_locs[raw.agent]:
                raise ParseError(f"agent {raw.agent} has no location {raw.name}", span)
            if strict and owner is not None and raw.agent != owner:
                raise ParseError(
                    f"guard atom {raw.agent}@{raw.name} is not observable by "
                    f"{owner} (own locations, own locals and globals only)", span)
            return LocAtom(raw.agent, raw.name, qualified=True)
        name = raw.name
        is_own_loc = owner is not None and name in self.agent_locs.get(owner, ())
        if is_own_loc:
            return LocAtom(owner, name)
        owners = self.loc_owner.get(name, [])
        aliases = self.atom_alias.get(name, [])
        is_var = (owner is not None and name in self.local_vars.get(owner, ())) \
            or name in self.global_vars
        if owner is None:
            is_var = is_var or any(name in names for names in self.local_vars.values())
        if (owners or aliases) and is_var:
            raise ParseError(f"ambiguous atom {name}: both a location and a "
                             f"variable; qualify it", span)
        if owners or aliases:
            candidates = [(a, name) for a in owners] + aliases
            if len(candidates) > 1:
                raise ParseError(f"ambiguous location atom {name}; "
                                 f"use Agent@{name}", span)
            agent, loc = candidates[0]
            if strict and owner is not None and agent != owner:
                raise ParseError(
                    f"guard atom {name} (location of {agent}) is not "
                    f"observable by {owner}", span)
            return LocAtom(agent, loc)
        ref = self.resolve_var(name, owner, span)
        if ref.owner is None and name in self.consts and name not in self.global_vars:
            raise ParseError(f"constant {name} cannot stand alone as an atom", span)
        return VarAtom(ref)

    def resolve_guard(self, raw, owner: Optional[str], strict: bool) -> GuardExpr:
        kind = raw[0]
        if kind == "true":
            return TrueConst()
        if kind == "false":
            return FalseConst()
        if kind == "not":
            return Not(self.resolve_guard(raw[1], owner, strict))
        if kind == "and":
            return And(self.resolve_guard(raw[1], owner, strict),
                       self.resolve_guard(raw[2], owner, strict))
        if kind == "or":
            return Or(self.resolve_guard(raw[1], owner, strict),
                      self.resolve_guard(raw[2], owner, strict))
        if kind == "atom":
            return self.resolve_atom(raw[1], raw[2], owner, strict)
        if kind == "cmp":
            _, lhs, op, rhs, span = raw
            # with an owner, a name resolves only to its own local, a global
            # or a constant, so a guard reads nothing its owner cannot observe
            lref = self.resolve_var(lhs.name, owner, span)
            return Comparison(lref, op, rhs if isinstance(rhs, int)
                              else self.resolve_var(rhs.name, owner, span))
        raise AssertionError(f"bad raw guard {raw!r}")

    def resolve_int(self, raw, owner: Optional[str], span: SourceSpan) -> IntExpr:
        kind = raw[0]
        if kind == "lit":
            return IntLit(raw[1])
        if kind == "var":
            return IntVar(self.resolve_var(raw[1].name, owner, raw[2]))
        if kind == "bin":
            return IntBin(raw[1], self.resolve_int(raw[2], owner, span),
                          self.resolve_int(raw[3], owner, span))
        raise AssertionError(f"bad raw int expr {raw!r}")

    # -- strategies -------------------------------------------------------------
    def build_strategy(self, raw: dict, net: Network) -> NaturalStrategy:
        agent = raw["agent"]
        if agent not in {a.name for a in net.agents}:
            raise ParseError(f"unknown agent {agent}", raw["span"])
        tpl = net.agent(agent)
        actions = {e.action for e in tpl.edges}
        if tpl.lazy:
            actions.add(WAIT_ACTION)
        rules = []
        for guard_raw, action, span in raw["rules"]:
            guard = self.resolve_guard(guard_raw, owner=agent, strict=True)
            if action is not WILDCARD and action not in actions:
                raise ParseError(f"agent {agent} has no action {action}", span)
            rules.append(Rule(guard, action))
        if not rules:
            raise ParseError("empty strategy", raw["span"])
        if not raw["partial"] and not isinstance(rules[-1].guard, TrueConst):
            raise ParseError(
                "missing final 'when true do ...;' rule (declare the strategy "
                "'partial' to allow running out of rules)", raw["span"])
        return NaturalStrategy(agent=agent, rules=tuple(rules), name=raw["name"],
                               declared_partial=raw["partial"])

    # -- formulas ----------------------------------------------------------------
    def build_formula(self, raw, net: Network) -> Formula:
        """Resolve a raw formula bottom-up. A connective whose operands are
        all atoms folds into one atom over its guard connective, so a
        Boolean combination of atoms is one FAtom, as in an edge or a rule;
        FNot/FAnd/FOr stand only over a strategic, K or -> subformula."""
        kind = raw[0]
        if kind in _CONNECTIVES:
            subs = [self.build_formula(r, net) for r in raw[1:]]
            guard_op, formula_op = _CONNECTIVES[kind]
            if all(isinstance(s, FAtom) for s in subs):
                return FAtom(guard_op(*(s.guard for s in subs)))
            return formula_op(*subs)
        if kind == "implies":
            return FImplies(self.build_formula(raw[1], net),
                            self.build_formula(raw[2], net))
        if kind == "knows":
            _, agent, sub, span = raw
            if agent not in {a.name for a in net.agents}:
                raise ParseError(f"unknown agent {agent} under K", span)
            return Knows(agent, self.build_formula(sub, net))
        if kind == "strategic":
            _, coalition, bound, op, subs, witnesses, span = raw
            for agent in coalition:
                if agent not in {a.name for a in net.agents}:
                    raise ParseError(f"unknown agent {agent} in coalition", span)
            return Strategic(coalition=tuple(coalition), bound=bound, op=op,
                             subs=tuple(self.build_formula(s, net) for s in subs),
                             witness=tuple(witnesses))
        return FAtom(self.resolve_guard(raw, owner=None, strict=False))


# ---------------------------------------------------------------------------
# Public API

def parse_bundle(text: str, filename: str = "<string>",
                 net: Optional[Network] = None,
                 consts: Optional[dict[str, int]] = None,
                 network_name: Optional[str] = None) -> ParsedBundle:
    """Parse one source (network and/or strategies and/or formulas).

    `consts` overrides declared constant values (parameterized models).
    `net` supplies the network context when the source has no agent blocks.
    """
    parser = _BundleParser(_tokenize(text, filename), filename,
                           consts_override=consts)
    parser.parse_items()
    resolver = _Resolver(parser, external_net=net)
    name = network_name or (Path(filename).stem if filename != "<string>" else "net")
    network = resolver.build_network(name)
    bundle = ParsedBundle(network=network)
    if parser.raw_strategies or parser.raw_formulas:
        if network is None:
            first = (parser.raw_strategies + parser.raw_formulas)[0]
            raise ParseError("strategies/formulas need a network (same file, "
                             "include, or the net= argument)", first["span"])
        for raw in parser.raw_strategies:
            if raw["name"] in bundle.strategies:
                raise ParseError(f"duplicate strategy {raw['name']}", raw["span"])
            bundle.strategies[raw["name"]] = resolver.build_strategy(raw, network)
        for raw in parser.raw_formulas:
            if raw["name"] in bundle.formulas:
                raise ParseError(f"duplicate formula {raw['name']}", raw["span"])
            bundle.formulas[raw["name"]] = resolver.build_formula(raw["tree"], network)
    return bundle


def load_bundle(path, net: Optional[Network] = None,
                consts: Optional[dict[str, int]] = None) -> ParsedBundle:
    p = Path(path)
    return parse_bundle(p.read_text(encoding="utf-8"), filename=str(p),
                        net=net, consts=consts)


def parse_network(text: str, filename: str = "<string>",
                  consts: Optional[dict[str, int]] = None,
                  name: Optional[str] = None) -> Network:
    bundle = parse_bundle(text, filename=filename, consts=consts,
                          network_name=name)
    if bundle.network is None:
        raise ParseError("source declares no network",
                         SourceSpan(filename, 1, 1))
    return bundle.network


def parse_strategy(text: str, net: Network, filename: str = "<string>") -> NaturalStrategy:
    bundle = parse_bundle(text, filename=filename, net=net)
    if len(bundle.strategies) != 1:
        raise ParseError("expected exactly one strategy",
                         SourceSpan(filename, 1, 1))
    return next(iter(bundle.strategies.values()))


def parse_formula(text: str, net: Network, filename: str = "<string>") -> Formula:
    """Parse one formula expression in the context of a network; anything
    after it, a `;` included, is a ParseError."""
    parser = _BundleParser(_tokenize(text, filename), filename)
    tree = parser._formula()
    if not parser.at("eof"):
        raise parser.fail("end of formula")
    return _Resolver(parser, external_net=net).build_formula(tree, net)


def parse_guard_text(text: str, net: Network, owner: Optional[str] = None) -> GuardExpr:
    """Parse a bare guard expression in the context of a network."""
    parser = _BundleParser(_tokenize(text, "<guard>"), "<guard>")
    raw = parser.parse_guard()
    if not parser.at("eof"):
        raise parser.fail("end of guard")
    resolver = _Resolver(parser, external_net=net)
    return resolver.resolve_guard(raw, owner=owner, strict=owner is not None)


# ---------------------------------------------------------------------------
# Pretty-printing (round-trips through the parsers)

def print_strategy(s: NaturalStrategy) -> str:
    partial = s.declared_partial or not isinstance(s.rules[-1].guard, TrueConst)
    head = "partial strategy" if partial else "strategy"
    name = s.name or "unnamed"
    lines = [f"{head} {name} for {s.agent} {{"]
    lines += [f"  {r}" for r in s.rules]
    lines.append("}")
    return "\n".join(lines)


def print_formula(f: Formula) -> str:
    return str(f)


def print_network(net: Network) -> str:
    out: list[str] = []
    for n, v in net.constants:
        out.append(f"const {n} = {v};")
    for c in net.channels:
        out.append(f"channel {c};")
    for v in net.global_vars:
        out.append(f"global int[{v.lo},{v.hi}] {v.name} = {v.init};")
    for a in net.agents:
        flag = "(lazy)" if a.lazy else ""
        out.append(f"agent {a.name}{flag} {{")
        for v in a.local_vars:
            out.append(f"  var int[{v.lo},{v.hi}] {v.name} = {v.init};")
        for loc in a.locations:  # declared in order, so init declares none
            labels = [lbl for lbl, l in a.atom_labels if l == loc]
            suffix = f" [{', '.join(labels)}]" if labels else ""
            out.append(f"  loc {loc}{suffix};")
        out.append(f"  init {a.initial};")
        for e in a.edges:
            parts = [f"  edge {e.source} -> {e.target} on {e.action}"]
            if not isinstance(e.guard, TrueConst):
                parts.append(f"when {e.guard}")
            if e.sync is not None:
                parts.append(f"sync {e.sync[0]}{e.sync[1]}")
            if e.updates:
                parts.append("do " + ", ".join(str(u) for u in e.updates))
            out.append(" ".join(parts) + ";")
        out.append("}")
    return "\n".join(out) + "\n"
