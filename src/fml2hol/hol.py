"""Simply typed higher-order terms over three base types.

``$o`` is the type of truth values, ``$i`` the type of possible worlds,
``mu`` the type of individuals.  Connectives and quantifiers are primitive
term constructors (not encoded constants); application is curried.  The
module provides type checking, beta normalization, alpha equality, and
expansion of named definitions, which is everything the embedding, the
emitter, and the model oracle need.

Beta normal forms are computed by evaluation and read-back, not by
substitution: a lambda evaluates to a closure over the values of its
variables, applying a closure evaluates its body, and a closure left in
a term position is read back into a lambda whose binder is renamed only
where its name would capture a variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce


class Type:
    """Base class for simple types."""


@dataclass(frozen=True)
class BaseType(Type):
    name: str


@dataclass(frozen=True)
class ArrowType(Type):
    arg: Type
    result: Type


TRUTH = BaseType("$o")
WORLD = BaseType("$i")
INDIV = BaseType("mu")

# lifted propositions: predicates on worlds
PROP = ArrowType(WORLD, TRUTH)


def fn(*types: Type) -> Type:
    """Right-associated function type: fn(a, b, c) is a > (b > c)."""
    if not types:
        raise ValueError("fn() needs at least one type")
    return reduce(lambda res, arg: ArrowType(arg, res), reversed(types[:-1]), types[-1])


def print_type(t: Type) -> str:
    if isinstance(t, BaseType):
        return t.name
    if isinstance(t, ArrowType):
        left = print_type(t.arg)
        if isinstance(t.arg, ArrowType):
            left = f"( {left} )"
        return f"{left} > {print_type(t.result)}"
    raise TypeError(f"not a type: {t!r}")


class HolError(Exception):
    """Base class for typing and definition errors."""


class TypeMismatchError(HolError):
    def __init__(self, term, expected, found):
        exp = print_type(expected) if isinstance(expected, Type) else str(expected)
        got = print_type(found) if isinstance(found, Type) else str(found)
        super().__init__(f"type mismatch at {term!r}: expected {exp}, found {got}")
        self.term = term
        self.expected = expected
        self.found = found


class UnboundSymbolError(HolError):
    def __init__(self, name: str):
        super().__init__(f"symbol '{name}' is not declared or defined")
        self.name = name


class CyclicDefinitionError(HolError):
    def __init__(self, name: str):
        super().__init__(f"definition of '{name}' is cyclic")
        self.name = name


class DuplicateSymbolError(HolError):
    def __init__(self, name: str):
        super().__init__(f"symbol '{name}' is declared or defined twice")
        self.name = name


class Term:
    """Base class for terms."""


@dataclass(frozen=True)
class Const(Term):
    name: str
    type: Type


@dataclass(frozen=True)
class Var(Term):
    name: str
    type: Type


@dataclass(frozen=True)
class Lambda(Term):
    var: str
    var_type: Type
    body: Term


@dataclass(frozen=True)
class App(Term):
    fun: Term
    arg: Term


@dataclass(frozen=True)
class Forall(Term):
    var: str
    var_type: Type
    body: Term


@dataclass(frozen=True)
class Exists(Term):
    var: str
    var_type: Type
    body: Term


@dataclass(frozen=True)
class Not(Term):
    body: Term


@dataclass(frozen=True)
class And(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Or(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Implies(Term):
    left: Term
    right: Term


def apply(fun: Term, *args: Term) -> Term:
    """Left-associated application: apply(f, a, b) is (f @ a) @ b."""
    return reduce(App, args, fun)


_BINDERS = (Lambda, Forall, Exists)


def type_of(term: Term, context: dict[str, Type] | None = None) -> Type:
    """Compute the type of a term.

    Without a context, constants and free variables are trusted to carry
    their own types.  With a context, every constant and every free
    variable must be declared in it with a matching type; unknown names
    raise UnboundSymbolError.  Bound variables are always checked against
    their binder.
    """

    def check_name(t, annotated, bound):
        if t.name in bound:
            declared = bound[t.name]
        elif context is None:
            return annotated
        elif t.name in context:
            declared = context[t.name]
        else:
            raise UnboundSymbolError(t.name)
        if declared != annotated:
            raise TypeMismatchError(t, declared, annotated)
        return annotated

    def go(t: Term, bound: dict[str, Type]) -> Type:
        if isinstance(t, Var):
            return check_name(t, t.type, bound)
        if isinstance(t, Const):
            return check_name(t, t.type, {})
        if isinstance(t, Lambda):
            body_type = go(t.body, {**bound, t.var: t.var_type})
            return ArrowType(t.var_type, body_type)
        if isinstance(t, App):
            fun_type = go(t.fun, bound)
            arg_type = go(t.arg, bound)
            if not isinstance(fun_type, ArrowType):
                raise TypeMismatchError(t.fun, "a function type", fun_type)
            if fun_type.arg != arg_type:
                raise TypeMismatchError(t.arg, fun_type.arg, arg_type)
            return fun_type.result
        if isinstance(t, (Forall, Exists)):
            body_type = go(t.body, {**bound, t.var: t.var_type})
            if body_type != TRUTH:
                raise TypeMismatchError(t.body, TRUTH, body_type)
            return TRUTH
        if isinstance(t, Not):
            body_type = go(t.body, bound)
            if body_type != TRUTH:
                raise TypeMismatchError(t.body, TRUTH, body_type)
            return TRUTH
        if isinstance(t, (And, Or, Implies)):
            for side in (t.left, t.right):
                side_type = go(side, bound)
                if side_type != TRUTH:
                    raise TypeMismatchError(side, TRUTH, side_type)
            return TRUTH
        raise TypeError(f"not a term: {t!r}")

    return go(term, {})


def _fresh(base: str, avoid: set[str]) -> str:
    if base not in avoid:
        return base
    i = 0
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"


class _Closure:
    """The value of a lambda: its binder and body, and the values of the
    variables the body was written under."""

    __slots__ = ("var", "var_type", "body", "env")

    def __init__(self, var: str, var_type: Type, body: Term, env: dict):
        self.var, self.var_type, self.body, self.env = var, var_type, body, env


def _names(t: Term) -> list[str]:
    """The names of the constants a term mentions, left to right."""
    if type(t) is Const:
        return [t.name]
    return [n for part in vars(t).values() if isinstance(part, Term) for n in _names(part)]


def _normalize(term: Term, avoid: set[str], defs: dict) -> tuple[Term, set[str], set[str]]:
    """One evaluation and read-back of a term: its beta normal form, the
    free variables met on the way and the names given to binders.

    Values are _Closures and normal terms.  A binder read back keeps its
    name unless that name is in ``avoid`` or names a binder on its path.
    The free variables are known only once the term has been evaluated;
    if a binder took one of their names, the caller normalises again
    with them in ``avoid``.  A constant defined in ``defs`` (closed
    bodies) evaluates to the value of its body, computed once.
    """
    # the walk: definitions, free variables met, names a new binder must not
    # take, names given to binders, definitions' values and those unfolding
    walk = defs, set(), set(avoid), set(), {}, set()
    return _quote(_evaluate(term, {}, walk), walk), walk[1], walk[3]


# module level and called by name, never through a closure of their own: a
# function that calls itself through its closure cell is a reference cycle
def _unfold(name: str, walk):
    defs, _, _, _, values, visiting = walk
    if name not in values:
        if name in visiting:
            raise CyclicDefinitionError(name)
        visiting.add(name)
        # every name the body mentions, under lambdas too, so that a
        # cycle raises even where evaluation would not reach it
        for used in _names(defs[name]):
            if used in defs:
                _unfold(used, walk)
        values[name] = _evaluate(defs[name], {}, walk)
        visiting.discard(name)
    return values[name]


def _bind(t, env, walk):
    # the body of a binder in a term position, under a fresh name
    _, _, path, chosen, _, _ = walk
    name = _fresh(t.var, path)
    path.add(name)
    chosen.add(name)
    body = _quote(_evaluate(t.body, {**env, t.var: Var(name, t.var_type)}, walk), walk)
    path.discard(name)
    return name, body


def _quote(value, walk):
    if type(value) is not _Closure:
        return value
    name, body = _bind(value, value.env, walk)
    return Lambda(name, value.var_type, body)


def _evaluate(t: Term, env: dict, walk):
    cls = type(t)
    if cls is App:
        fun = _evaluate(t.fun, env, walk)
        arg = _evaluate(t.arg, env, walk)
        if type(fun) is _Closure:
            return _evaluate(fun.body, {**fun.env, fun.var: arg}, walk)
        return App(fun, _quote(arg, walk))
    if cls is Var:
        value = env.get(t.name)
        if value is None:
            walk[1].add(t.name)  # free
            return t
        return value
    if cls is Const:
        return _unfold(t.name, walk) if t.name in walk[0] else t  # defined
    if cls is Lambda:
        return _Closure(t.var, t.var_type, t.body, env)
    if cls is And or cls is Or or cls is Implies:
        left = _quote(_evaluate(t.left, env, walk), walk)
        return cls(left, _quote(_evaluate(t.right, env, walk), walk))
    if cls is Not:
        return Not(_quote(_evaluate(t.body, env, walk), walk))
    if cls is Forall or cls is Exists:
        name, body = _bind(t, env, walk)
        return cls(name, t.var_type, body)
    raise TypeError(f"not a term: {t!r}")


def beta_normalize(term: Term) -> Term:
    """Beta normal form by evaluation and read-back (Berger &
    Schwichtenberg 1991); it exists and is unique for simply typed terms.

    A binder keeps its name unless a binder around it in the result or a
    free variable of the term has that name; the result is alpha-equal to
    the one reduction by substitution gives.
    """
    return _normal_form(term, {})


def _normal_form(term: Term, defs: dict) -> Term:
    normal, free, chosen = _normalize(term, set(), defs)
    if free & chosen:
        # a binder took the name of a free variable, which it may capture
        normal, _, _ = _normalize(term, free, defs)
    return normal


def alpha_equal(a: Term, b: Term) -> bool:
    """Structural equality up to renaming of bound variables."""

    def go(x, y, bound_x, bound_y, depth):
        if type(x) is not type(y):
            return False
        if isinstance(x, Var):
            if x.type != y.type:
                return False
            return bound_x.get(x.name, x.name) == bound_y.get(y.name, y.name)
        if isinstance(x, Const):
            return x.name == y.name and x.type == y.type
        if isinstance(x, App):
            return go(x.fun, y.fun, bound_x, bound_y, depth) and go(
                x.arg, y.arg, bound_x, bound_y, depth
            )
        if isinstance(x, _BINDERS):
            if x.var_type != y.var_type:
                return False
            return go(
                x.body,
                y.body,
                {**bound_x, x.var: depth},
                {**bound_y, y.var: depth},
                depth + 1,
            )
        if isinstance(x, Not):
            return go(x.body, y.body, bound_x, bound_y, depth)
        if isinstance(x, (And, Or, Implies)):
            return go(x.left, y.left, bound_x, bound_y, depth) and go(
                x.right, y.right, bound_x, bound_y, depth
            )
        raise TypeError(f"not a term: {x!r}")

    return go(a, b, {}, {}, 0)


UNIT_KINDS = ("type_decl", "definition", "axiom", "hypothesis", "conjecture")


@dataclass(frozen=True)
class Unit:
    """One thf-level unit: a type declaration, a definition, or a formula."""

    name: str
    kind: str
    symbol: str | None = None
    type: Type | None = None
    term: Term | None = None

    def __post_init__(self):
        if self.kind not in UNIT_KINDS:
            raise ValueError(f"unknown unit kind {self.kind!r}")
        if self.kind == "type_decl":
            if self.symbol is None or self.type is None or self.term is not None:
                raise ValueError("type_decl units carry a symbol and a type")
        elif self.kind == "definition":
            if self.symbol is None or self.term is None or self.type is not None:
                raise ValueError("definition units carry a symbol and a term")
        else:
            if self.term is None or self.symbol is not None or self.type is not None:
                raise ValueError(f"{self.kind} units carry just a term")

    @staticmethod
    def type_decl(name: str, symbol: str, ty: Type) -> "Unit":
        return Unit(name, "type_decl", symbol=symbol, type=ty)

    @staticmethod
    def definition(name: str, symbol: str, body: Term) -> "Unit":
        return Unit(name, "definition", symbol=symbol, term=body)

    @staticmethod
    def formula(name: str, kind: str, term: Term) -> "Unit":
        return Unit(name, kind, term=term)


@dataclass(frozen=True)
class Problem:
    units: tuple[Unit, ...]

    def __post_init__(self):
        object.__setattr__(self, "units", tuple(self.units))

    def conjecture(self) -> Unit | None:
        for unit in self.units:
            if unit.kind == "conjecture":
                return unit
        return None


def check_problem(problem: Problem) -> dict[str, Type]:
    """Type-check every unit against the symbols introduced before it.

    Formula payloads must have type $o; at most one conjecture is allowed.
    Returns the final symbol table.
    """
    context: dict[str, Type] = {}
    conjectures = []
    for unit in problem.units:
        if unit.kind == "type_decl":
            if unit.symbol in context:
                raise DuplicateSymbolError(unit.symbol)
            context[unit.symbol] = unit.type
        elif unit.kind == "definition":
            body_type = type_of(unit.term, context)
            if unit.symbol in context:
                raise DuplicateSymbolError(unit.symbol)
            context[unit.symbol] = body_type
        else:
            payload_type = type_of(unit.term, context)
            if payload_type != TRUTH:
                raise TypeMismatchError(unit.term, TRUTH, payload_type)
            if unit.kind == "conjecture":
                conjectures.append(unit.name)
    if len(conjectures) > 1:
        raise HolError("more than one conjecture: " + ", ".join(conjectures))
    return context


def expand_definitions(problem: Problem, term: Term) -> Term:
    """Beta normalize with every defined constant unfolded where met.

    Definitions may reference each other but must be acyclic; a cycle
    raises CyclicDefinitionError.  The result contains no defined constant
    and is beta-normal.
    """
    defs = {u.symbol: u.term for u in problem.units if u.kind == "definition"}
    return _normal_form(term, defs)
