"""First-order modal logic syntax trees and signature checks.

Terms are built from variables, constants, and rigid function symbols;
formulas add the propositional connectives, box/diamond, and quantifiers
over individuals.  Names follow the TPTP convention: variables start
uppercase, predicate/function/constant names start lowercase.  The three
symbol namespaces must stay disjoint and every symbol must be used with a
single arity.  A ``Problem`` also has closed units and at most one
conjecture: constructing one checks all of this in one scan of its units
(``validate_problem``) and keeps the collected ``signature``, so an
invalid problem cannot be built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

ROLES = ("axiom", "hypothesis", "definition", "conjecture")

_LOWER_NAME = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")
_UPPER_NAME = re.compile(r"[A-Z][a-zA-Z0-9_]*\Z")


class ProblemError(Exception):
    """A problem violates a well-formedness rule."""


class ArityClashError(ProblemError):
    def __init__(self, symbol: str, arity1: int, arity2: int):
        super().__init__(
            f"symbol '{symbol}' used with arity {arity1} and arity {arity2}"
        )
        self.symbol = symbol
        self.arities = (arity1, arity2)


class SortClashError(ProblemError):
    def __init__(self, symbol: str):
        super().__init__(
            f"symbol '{symbol}' used both as a predicate and as a term symbol"
        )
        self.symbol = symbol


class FreeVariableError(ProblemError):
    def __init__(self, unit: str, variable: str):
        super().__init__(f"unit '{unit}' contains a free variable: {variable}")
        self.unit = unit
        self.variable = variable


class MultipleConjecturesError(ProblemError):
    def __init__(self, names: tuple[str, ...]):
        super().__init__("more than one conjecture: " + ", ".join(names))
        self.names = names


class Term:
    """Base class for individual-denoting terms."""


@dataclass(frozen=True)
class Variable(Term):
    name: str

    def __post_init__(self):
        if not _UPPER_NAME.match(self.name):
            raise ValueError(f"variable names start uppercase: {self.name!r}")


@dataclass(frozen=True)
class Constant(Term):
    name: str

    def __post_init__(self):
        if not _LOWER_NAME.match(self.name):
            raise ValueError(f"constant names start lowercase: {self.name!r}")


@dataclass(frozen=True)
class FunctionApp(Term):
    name: str
    args: tuple[Term, ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        if not _LOWER_NAME.match(self.name):
            raise ValueError(f"function names start lowercase: {self.name!r}")
        if not self.args:
            raise ValueError("function applications take at least one argument")


class Formula:
    """Base class for modal formulas."""


@dataclass(frozen=True)
class Atom(Formula):
    pred: str
    args: tuple[Term, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        if not _LOWER_NAME.match(self.pred):
            raise ValueError(f"predicate names start lowercase: {self.pred!r}")


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Box(Formula):
    body: Formula


@dataclass(frozen=True)
class Dia(Formula):
    body: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula

    def __post_init__(self):
        if not _UPPER_NAME.match(self.var):
            raise ValueError(f"bound variable names start uppercase: {self.var!r}")


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula

    def __post_init__(self):
        if not _UPPER_NAME.match(self.var):
            raise ValueError(f"bound variable names start uppercase: {self.var!r}")


@dataclass(frozen=True)
class AnnotatedFormula:
    name: str
    role: str
    formula: Formula

    def __post_init__(self):
        if not _LOWER_NAME.match(self.name):
            raise ValueError(f"unit names start lowercase: {self.name!r}")
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}, expected one of {ROLES}")


@dataclass(frozen=True)
class Problem:
    """A well-formed problem: constructing one validates it, and its
    ``signature`` is the result, so no consumer has to check it again."""

    units: tuple[AnnotatedFormula, ...]
    signature: Signature = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "units", tuple(self.units))
        object.__setattr__(self, "signature", validate_problem(self))

    def conjecture(self) -> AnnotatedFormula | None:
        for unit in self.units:
            if unit.role == "conjecture":
                return unit
        return None


@dataclass
class Signature:
    """Symbols of a problem with their arities, in first-occurrence order."""

    predicates: dict[str, int] = field(default_factory=dict)
    functions: dict[str, int] = field(default_factory=dict)
    constants: tuple[str, ...] = ()


def collect_signature(problem: Problem) -> Signature:
    """Scan all units left to right and record every symbol once.

    Raises ArityClashError if a symbol recurs with a different arity (a
    constant counts as arity 0), SortClashError if a name is used both in
    predicate and in term position, and, after a unit with a free
    variable, FreeVariableError naming the alphabetically first one.  The
    first unit with a defect is the one reported.
    """
    seen = preds, funcs, consts, loose = {}, {}, {}, set()
    for unit in problem.units:
        _scan(unit.formula, frozenset(), seen)
        if loose:
            raise FreeVariableError(unit.name, min(loose))
    return Signature(preds, funcs, tuple(consts))


# module level and called by name, never through a closure of their own: a
# function that calls itself through its closure cell is a reference cycle
def _scan_term(t: Term, bound: frozenset[str], seen):
    preds, funcs, consts, loose = seen
    if isinstance(t, Variable):
        if t.name not in bound:
            loose.add(t.name)
    elif isinstance(t, Constant):
        if t.name in preds:
            raise SortClashError(t.name)
        if t.name in funcs:
            raise ArityClashError(t.name, funcs[t.name], 0)
        consts.setdefault(t.name)
    elif isinstance(t, FunctionApp):
        if t.name in preds:
            raise SortClashError(t.name)
        if t.name in consts:
            raise ArityClashError(t.name, 0, len(t.args))
        arity = funcs.setdefault(t.name, len(t.args))
        if arity != len(t.args):
            raise ArityClashError(t.name, arity, len(t.args))
        for a in t.args:
            _scan_term(a, bound, seen)
    else:
        raise TypeError(f"not a term: {t!r}")


def _scan(f: Formula, bound: frozenset[str], seen):
    preds, funcs, consts, _ = seen
    if isinstance(f, Atom):
        if f.pred in funcs or f.pred in consts:
            raise SortClashError(f.pred)
        arity = preds.setdefault(f.pred, len(f.args))
        if arity != len(f.args):
            raise ArityClashError(f.pred, arity, len(f.args))
        for a in f.args:
            _scan_term(a, bound, seen)
    elif isinstance(f, (Not, Box, Dia)):
        _scan(f.body, bound, seen)
    elif isinstance(f, (And, Or, Implies)):
        _scan(f.left, bound, seen)
        _scan(f.right, bound, seen)
    elif isinstance(f, (Forall, Exists)):
        _scan(f.body, bound | {f.var}, seen)
    else:
        raise TypeError(f"not a formula: {f!r}")


def validate_problem(problem: Problem) -> Signature:
    """Check the conjecture count, then closure and signature consistency
    in one scan (``collect_signature``); returns the signature.

    ``Problem`` calls this when it is constructed and keeps the result as
    ``problem.signature``.
    """
    conjectures = [u.name for u in problem.units if u.role == "conjecture"]
    if len(conjectures) > 1:
        raise MultipleConjecturesError(tuple(conjectures))
    return collect_signature(problem)
