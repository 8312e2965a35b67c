"""Abstract syntax for strategic-temporal-epistemic queries.

The strategic operator <<A>>^k T carries a coalition, a complexity bound and
a temporal layer T in {X, F, G, U}; the universal path quantifier A is stored
as the empty coalition with bound 0. K[a] is the knowledge operator.
Atomic formulas are guard expressions (location atoms, 0/1 variables,
comparisons and Boolean combinations of them), each labelled as one state
set: the parser folds a connective over atoms into one FAtom, so in a
parsed formula FNot, FAnd and FOr stand only over a strategic, K or ->
subformula.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence, Union

from .errors import DefinitionError
from .model import And, GuardExpr, Or

# the number of goals each temporal operator takes
GOALS = {"X": 1, "F": 1, "G": 1, "U": 2}


def check_goals(op: str, goals: Sequence) -> None:
    """A DefinitionError unless op is a temporal operator and `goals` holds
    as many goals as it takes."""
    if op not in GOALS:
        raise DefinitionError(f"bad temporal operator {op}")
    if len(goals) != GOALS[op]:
        raise DefinitionError(f"temporal operator {op} takes {GOALS[op]} goal(s), "
                              f"got {len(goals)}")


@dataclass(frozen=True)
class FAtom:
    guard: GuardExpr

    def __str__(self):
        return str(self.guard)


@dataclass(frozen=True)
class FNot:
    sub: "Formula"

    def __str__(self):
        return f"!{_paren(self.sub)}"


@dataclass(frozen=True)
class FAnd:
    left: "Formula"
    right: "Formula"

    def __str__(self):
        return f"{_paren(self.left)} && {_paren(self.right)}"


@dataclass(frozen=True)
class FOr:
    left: "Formula"
    right: "Formula"

    def __str__(self):
        return f"{_paren(self.left)} || {_paren(self.right)}"


@dataclass(frozen=True)
class FImplies:
    left: "Formula"
    right: "Formula"

    def __str__(self):
        return f"{_paren(self.left)} -> {_paren(self.right)}"


@dataclass(frozen=True)
class Strategic:
    """<<coalition>>^bound op(subs); empty coalition + bound 0 is the
    universal path quantifier A. `witness` optionally names a strategy per
    coalition member to check in verify mode."""

    coalition: tuple[str, ...]
    bound: int
    op: str
    subs: tuple["Formula", ...]
    witness: tuple[str, ...] = ()

    def __post_init__(self):
        check_goals(self.op, self.subs)
        if self.bound < 0:
            raise DefinitionError("complexity bound must be >= 0")

    @property
    def is_universal(self) -> bool:
        return not self.coalition

    def __str__(self):
        if self.is_universal and self.bound == 0:
            quant = "A"
        else:
            members = ",".join(
                f"{a}:{w}" for a, w in zip(self.coalition, self.witness)
            ) if self.witness else ",".join(self.coalition)
            quant = f"<<{members}>>^{self.bound}"
        if self.op == "U":
            return f"{quant} ({self.subs[0]} U {self.subs[1]})"
        return f"{quant} {self.op} {_paren(self.subs[0])}"


@dataclass(frozen=True)
class Knows:
    agent: str
    sub: "Formula"

    def __str__(self):
        return f"K[{self.agent}] {_paren(self.sub)}"


Formula = Union[FAtom, FNot, FAnd, FOr, FImplies, Strategic, Knows]


def _paren(f: Formula) -> str:
    if isinstance(f, (FAnd, FOr, FImplies)) or (
            isinstance(f, FAtom) and isinstance(f.guard, (And, Or))):
        return f"({f})"
    return str(f)


def map_formula(f: Formula, fn: Callable[[Formula], Formula]) -> Formula:
    """f with each node g replaced by fn(g), bottom-up: g's subformulas are
    mapped first, and g is rebuilt over them only when one changed. So an
    fn that returns its argument visits every node and keeps every one."""
    if isinstance(f, (FNot, Knows)):
        sub = map_formula(f.sub, fn)
        if sub is not f.sub:
            f = replace(f, sub=sub)
    elif isinstance(f, (FAnd, FOr, FImplies)):
        left, right = map_formula(f.left, fn), map_formula(f.right, fn)
        if left is not f.left or right is not f.right:
            f = replace(f, left=left, right=right)
    elif isinstance(f, Strategic):
        subs = tuple(map_formula(sub, fn) for sub in f.subs)
        if any(new is not old for new, old in zip(subs, f.subs)):
            f = replace(f, subs=subs)
    return fn(f)
