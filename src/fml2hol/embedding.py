"""Embedding of modal problems into classical higher-order logic.

A modal formula becomes a predicate on worlds (type ``$i > $o``): the
connectives are lifted pointwise, box quantifies over accessible worlds
through an explicit relation constant ``rel_<logic>``, and the individual
quantifiers become second-order constants ``mforall_ind``/``mexists_ind``.
Validity is truth at every world (``mvalid``).  Each logic contributes
frame axioms for its relation (serial, reflexive, transitive, symmetric as
appropriate); non-constant domain conditions guard the quantifiers with an
``exists_in_world`` predicate and add domain axioms.  The output is an
ordered unit list ready for the thf emitter: infrastructure first, then
user signature declarations, then the user formulas wrapped in ``mvalid``.
It carries its configuration and, per unit, the include-mode axiom file
the unit belongs to, both set where the units are built.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cache, reduce

from . import fml, hol
from .hol import (
    INDIV,
    PROP,
    TRUTH,
    WORLD,
    And,
    App,
    Const,
    Exists,
    Forall,
    Implies,
    Lambda,
    Not,
    Or,
    Unit,
    Var,
    apply,
    fn,
)


class Logic(Enum):
    K = "k"
    K4 = "k4"
    D = "d"
    D4 = "d4"
    T = "t"
    S4 = "s4"
    S5 = "s5"

    @property
    def tag(self) -> str:
        return self.value


class DomainCondition(Enum):
    CONSTANT = "const"
    VARYING = "vary"
    CUMULATIVE = "cumul"

    @property
    def tag(self) -> str:
        return self.value


class FrameProperty(Enum):
    SERIAL = "mserial"
    REFLEXIVE = "mreflexive"
    TRANSITIVE = "mtransitive"
    SYMMETRIC = "msymmetric"

    @property
    def symbol(self) -> str:
        return self.value


_FRAME_PROPERTIES: dict[Logic, tuple[FrameProperty, ...]] = {
    Logic.K: (),
    Logic.K4: (FrameProperty.TRANSITIVE,),
    Logic.D: (FrameProperty.SERIAL,),
    Logic.D4: (FrameProperty.SERIAL, FrameProperty.TRANSITIVE),
    Logic.T: (FrameProperty.REFLEXIVE,),
    Logic.S4: (FrameProperty.REFLEXIVE, FrameProperty.TRANSITIVE),
    Logic.S5: (
        FrameProperty.REFLEXIVE,
        FrameProperty.TRANSITIVE,
        FrameProperty.SYMMETRIC,
    ),
}


def frame_properties(logic: Logic) -> tuple[FrameProperty, ...]:
    return _FRAME_PROPERTIES[logic]


def parse_logic(token: str) -> Logic:
    try:
        return Logic(token.lower())
    except ValueError:
        raise ValueError(f"unknown logic: {token}") from None


def parse_domain(token: str) -> DomainCondition:
    try:
        return DomainCondition(token.lower())
    except ValueError:
        raise ValueError(f"unknown domain condition: {token}") from None


@dataclass(frozen=True)
class TranslationConfig:
    logic: Logic
    domain: DomainCondition

    @property
    def name(self) -> str:
        return f"{self.logic.tag}:{self.domain.tag}"

    @property
    def guarded(self) -> bool:
        return self.domain is not DomainCondition.CONSTANT


class EmbeddingError(ValueError):
    """A user name collides with the embedding's reserved vocabulary."""


# fixed types of the infrastructure symbols
REL_TYPE = fn(WORLD, WORLD, TRUTH)
GUARD_TYPE = fn(INDIV, WORLD, TRUTH)
_IND_PRED = fn(INDIV, WORLD, TRUTH)  # argument type of the lifted quantifiers

MVALID = Const("mvalid", fn(PROP, TRUTH))
MNOT = Const("mnot", fn(PROP, PROP))
MOR = Const("mor", fn(PROP, PROP, PROP))
MAND = Const("mand", fn(PROP, PROP, PROP))
MIMPLIES = Const("mimplies", fn(PROP, PROP, PROP))
MFORALL_IND = Const("mforall_ind", fn(_IND_PRED, PROP))
MEXISTS_IND = Const("mexists_ind", fn(_IND_PRED, PROP))
EXISTS_IN_WORLD = Const("exists_in_world", GUARD_TYPE)


def box_const(logic: Logic) -> Const:
    return Const(f"mbox_{logic.tag}", fn(PROP, PROP))


def dia_const(logic: Logic) -> Const:
    return Const(f"mdia_{logic.tag}", fn(PROP, PROP))


def rel_const(logic: Logic) -> Const:
    return Const(f"rel_{logic.tag}", REL_TYPE)


def property_const(prop: FrameProperty) -> Const:
    return Const(prop.symbol, fn(REL_TYPE, TRUTH))


def pred_type(arity: int) -> hol.Type:
    return fn(*([INDIV] * arity), PROP) if arity else PROP


def func_type(arity: int) -> hol.Type:
    return fn(*([INDIV] * arity), INDIV)


def _def(symbol: str, body: hol.Term) -> Unit:
    return Unit.definition(symbol, symbol, body)


# Include-mode groups: the axiom file a generated unit goes to.  DOMAIN
# holds what depends on the domain condition only, LOGIC what is built
# from rel_const, box_const, dia_const or property_const; units in no group
# (None) stay in the problem file.
DOMAIN = "domain"
LOGIC = "logic"


@cache
def _vocabulary(config: TranslationConfig) -> tuple[tuple[str, Unit], ...]:
    """What the configuration alone determines, as (group, unit) pairs in
    emission order: the declarations and definitions of the lifted
    vocabulary, every symbol introduced before its first use, then the
    frame axioms.  The one path to these units: built once per config
    and process, on first use, and shared by every problem embedded under
    it (units are immutable)."""
    return tuple(_grouped_vocabulary(config))


def _grouped_vocabulary(config: TranslationConfig):
    """The pairs _vocabulary keeps, one at a time; called by _vocabulary
    alone, so that each config's units are built once."""
    rel = rel_const(config.logic)
    box = box_const(config.logic)
    phi, psi = Var("Phi", PROP), Var("Psi", PROP)
    phi_ind = Var("Phi", _IND_PRED)
    w, v = Var("W", WORLD), Var("V", WORLD)
    x = Var("X", INDIV)
    r = Var("R", REL_TYPE)
    u = Var("U", WORLD)

    yield LOGIC, Unit.type_decl(f"{rel.name}_type", rel.name, REL_TYPE)
    if config.guarded:
        yield DOMAIN, Unit.type_decl("exists_in_world_type", EXISTS_IN_WORLD.name, GUARD_TYPE)

    yield DOMAIN, _def("mvalid", Lambda("Phi", PROP, Forall("W", WORLD, App(phi, w))))
    yield DOMAIN, _def(
        "mnot",
        Lambda("Phi", PROP, Lambda("W", WORLD, Not(App(phi, w)))),
    )
    yield DOMAIN, _def(
        "mor",
        Lambda(
            "Phi",
            PROP,
            Lambda(
                "Psi",
                PROP,
                Lambda("W", WORLD, Or(App(phi, w), App(psi, w))),
            ),
        ),
    )
    yield DOMAIN, _def(
        "mand",
        Lambda(
            "Phi",
            PROP,
            Lambda(
                "Psi",
                PROP,
                apply(MNOT, apply(MOR, apply(MNOT, phi), apply(MNOT, psi))),
            ),
        ),
    )
    yield DOMAIN, _def(
        "mimplies",
        Lambda(
            "Phi",
            PROP,
            Lambda("Psi", PROP, apply(MOR, apply(MNOT, phi), psi)),
        ),
    )
    yield LOGIC, _def(
        box.name,
        Lambda(
            "Phi",
            PROP,
            Lambda(
                "W",
                WORLD,
                Forall(
                    "V",
                    WORLD,
                    Or(Not(apply(rel, w, v)), App(phi, v)),
                ),
            ),
        ),
    )
    yield LOGIC, _def(
        dia_const(config.logic).name,
        Lambda("Phi", PROP, apply(MNOT, apply(box, apply(MNOT, phi)))),
    )
    if config.guarded:
        forall_body = Forall(
            "X",
            INDIV,
            Implies(apply(EXISTS_IN_WORLD, x, w), apply(phi_ind, x, w)),
        )
    else:
        forall_body = Forall("X", INDIV, apply(phi_ind, x, w))
    yield DOMAIN, _def(
        "mforall_ind",
        Lambda("Phi", _IND_PRED, Lambda("W", WORLD, forall_body)),
    )
    yield DOMAIN, _def(
        "mexists_ind",
        Lambda(
            "Phi",
            _IND_PRED,
            apply(
                MNOT,
                apply(
                    MFORALL_IND,
                    Lambda("X", INDIV, apply(MNOT, App(phi_ind, x))),
                ),
            ),
        ),
    )

    property_bodies = {
        FrameProperty.SERIAL: Lambda(
            "R",
            REL_TYPE,
            Forall("W", WORLD, Exists("V", WORLD, apply(r, w, v))),
        ),
        FrameProperty.REFLEXIVE: Lambda(
            "R", REL_TYPE, Forall("W", WORLD, apply(r, w, w))
        ),
        FrameProperty.TRANSITIVE: Lambda(
            "R",
            REL_TYPE,
            Forall(
                "U",
                WORLD,
                Forall(
                    "V",
                    WORLD,
                    Forall(
                        "W",
                        WORLD,
                        Implies(
                            And(apply(r, u, v), apply(r, v, w)),
                            apply(r, u, w),
                        ),
                    ),
                ),
            ),
        ),
        FrameProperty.SYMMETRIC: Lambda(
            "R",
            REL_TYPE,
            Forall(
                "U",
                WORLD,
                Forall(
                    "V", WORLD, Implies(apply(r, u, v), apply(r, v, u))
                ),
            ),
        ),
    }
    props = frame_properties(config.logic)
    for prop in props:
        yield LOGIC, _def(property_const(prop).name, property_bodies[prop])
    for i, prop in enumerate(props, start=1):
        yield LOGIC, Unit.formula(f"a{i}", "axiom", apply(property_const(prop), rel))


# both build their tuple from a list, not a generator: tuple() sizes a
# generator's result by a guess and resizes it, which at one call per op
# moves a tuple per call onto another size's free list (up to 2,000 of
# them, about 0.3 MB, freed only by a full collection)
def connective_definitions(config: TranslationConfig) -> tuple[Unit, ...]:
    """Declarations and definitions of the lifted vocabulary, in an order
    where every symbol is introduced before its first use."""
    return tuple([unit for _, unit in _vocabulary(config) if unit.kind != "axiom"])


def frame_axioms(config: TranslationConfig) -> tuple[Unit, ...]:
    """The frame axioms: one per frame property, all in the LOGIC group."""
    return tuple([unit for _, unit in _vocabulary(config) if unit.kind == "axiom"])


def _problem_unit_names(signature: fml.Signature) -> tuple[str, dict[str, str]]:
    """Names of the units generated per problem: the conjecture's, and the
    designation or closure axiom's of each constant and function, keyed by
    symbol (a symbol is never both)."""
    return "prove", {
        **{c: f"designation_{c}" for c in signature.constants},
        **{f: f"closure_{f}" for f in signature.functions},
    }


def _grouped_domain_axioms(config: TranslationConfig, signature: fml.Signature):
    """The domain axioms as (group, unit) pairs.  Designation and closure
    axioms mention the problem's own symbols, so they are in no group; the
    cumulative axiom mentions the relation, so it is in LOGIC (the domain
    file is included first and must not look ahead)."""
    if not config.guarded:
        return
    w, v = Var("W", WORLD), Var("V", WORLD)
    x = Var("X", INDIV)
    yield DOMAIN, Unit.formula(
        "nonempty_ax",
        "axiom",
        Forall(
            "V",
            WORLD,
            Exists("X", INDIV, apply(EXISTS_IN_WORLD, x, v)),
        ),
    )
    _, names = _problem_unit_names(signature)
    for c in signature.constants:
        yield None, Unit.formula(
            names[c],
            "axiom",
            Forall(
                "W",
                WORLD,
                apply(EXISTS_IN_WORLD, Const(c, INDIV), w),
            ),
        )
    for f, arity in signature.functions.items():
        args = [Var(f"X{i}", INDIV) for i in range(1, arity + 1)]
        guards = [apply(EXISTS_IN_WORLD, a, w) for a in args]
        image = apply(Const(f, func_type(arity)), *args)
        body = Implies(reduce(And, guards), apply(EXISTS_IN_WORLD, image, w))
        for a in reversed(args):
            body = Forall(a.name, INDIV, body)
        yield None, Unit.formula(names[f], "axiom", Forall("W", WORLD, body))
    if config.domain is DomainCondition.CUMULATIVE:
        rel = rel_const(config.logic)
        yield LOGIC, Unit.formula(
            "cumulative_ax",
            "axiom",
            Forall(
                "X",
                INDIV,
                Forall(
                    "V",
                    WORLD,
                    Forall(
                        "W",
                        WORLD,
                        Implies(
                            And(
                                apply(EXISTS_IN_WORLD, x, v),
                                apply(rel, v, w),
                            ),
                            apply(EXISTS_IN_WORLD, x, w),
                        ),
                    ),
                ),
            ),
        )


def domain_axioms(
    config: TranslationConfig, signature: fml.Signature
) -> tuple[Unit, ...]:
    """Axioms tying exists_in_world to the signature and, for cumulative
    domains, to the accessibility relation.  Empty for constant domains."""
    return tuple(unit for _, unit in _grouped_domain_axioms(config, signature))


def embed_term(t: fml.Term) -> hol.Term:
    if isinstance(t, fml.Variable):
        return Var(t.name, INDIV)
    if isinstance(t, fml.Constant):
        return Const(t.name, INDIV)
    if isinstance(t, fml.FunctionApp):
        head = Const(t.name, func_type(len(t.args)))
        return apply(head, *(embed_term(a) for a in t.args))
    raise TypeError(f"not a term: {t!r}")


# the lifted constant of each binary connective and individual quantifier
_LIFTED = {
    fml.And: MAND,
    fml.Or: MOR,
    fml.Implies: MIMPLIES,
    fml.Forall: MFORALL_IND,
    fml.Exists: MEXISTS_IND,
}


def embed_formula(formula: fml.Formula, config: TranslationConfig) -> hol.Term:
    """Map a closed modal formula to a term of type $i > $o."""
    if isinstance(formula, fml.Atom):
        if not formula.args:
            return Const(formula.pred, PROP)
        head = Const(formula.pred, pred_type(len(formula.args)))
        return apply(head, *[embed_term(a) for a in formula.args])
    if isinstance(formula, (fml.And, fml.Or, fml.Implies)):
        left = App(_LIFTED[type(formula)], embed_formula(formula.left, config))
        return App(left, embed_formula(formula.right, config))
    if isinstance(formula, fml.Not):
        return App(MNOT, embed_formula(formula.body, config))
    if isinstance(formula, fml.Box):
        return apply(box_const(config.logic), embed_formula(formula.body, config))
    if isinstance(formula, fml.Dia):
        return apply(dia_const(config.logic), embed_formula(formula.body, config))
    if isinstance(formula, (fml.Forall, fml.Exists)):
        body = Lambda(formula.var, INDIV, embed_formula(formula.body, config))
        return apply(_LIFTED[type(formula)], body)
    raise TypeError(f"not a formula: {formula!r}")


@dataclass(frozen=True)
class EmbeddedProblem(hol.Problem):
    """A problem as embed_problem builds it: its units, the configuration
    they were built for, and per unit the include-mode group it was built
    in (DOMAIN, LOGIC, or None for what stays in the problem file)."""

    config: TranslationConfig
    groups: tuple[str | None, ...]


@cache
def _reserved_names() -> tuple[frozenset[str], frozenset[str]]:
    """The symbols and the unit names the embedding generates for every
    problem under some configuration.  They do not depend on the
    configuration, so a problem is accepted or rejected alike under all
    of them; built on first use, not at import."""
    units: list[Unit] = []
    for logic in Logic:
        for domain in DomainCondition:
            config = TranslationConfig(logic, domain)
            units += (unit for _, unit in _vocabulary(config))
            units += domain_axioms(config, fml.Signature())
    return (
        frozenset(u.symbol for u in units if u.symbol is not None),
        frozenset(u.name for u in units),
    )


def check_names(problem: fml.Problem) -> None:
    """Raise EmbeddingError if a user symbol, or a non-conjecture unit
    name, is one the embedding generates under some configuration: the
    HOL side would read such a symbol as the embedding's own."""
    signature = problem.signature
    reserved_symbols, reserved_units = _reserved_names()
    conjecture_name, axiom_names = _problem_unit_names(signature)
    reserved_units = reserved_units | {conjecture_name, *axiom_names.values()}
    for sym in (*signature.predicates, *signature.functions, *signature.constants):
        if sym in reserved_symbols:
            raise EmbeddingError(f"user symbol '{sym}' collides with a reserved name")
    for unit in problem.units:
        if unit.role != "conjecture" and unit.name in reserved_units:
            raise EmbeddingError(f"unit name '{unit.name}' collides with a reserved name")


def embed_problem(problem: fml.Problem, config: TranslationConfig) -> EmbeddedProblem:
    """Translate a problem into an ordered HOL unit list.

    Order: lifted vocabulary, frame axioms, user signature declarations,
    domain axioms, user units.  Signature declarations come before the
    domain axioms because designation and closure axioms mention user
    constants and functions, and every unit list we build keeps symbols
    declared before use.  The conjecture is emitted under the fixed name
    'prove'; other units keep their names and roles (the 'definition'
    role becomes an axiom, since its payload is an assertion, not an
    equation).  A problem that check_names rejects is rejected.
    """
    check_names(problem)
    signature = problem.signature
    conjecture_name, _ = _problem_unit_names(signature)
    grouped = list(_vocabulary(config))
    for p, arity in signature.predicates.items():
        grouped.append((None, Unit.type_decl(f"{p}_type", p, pred_type(arity))))
    for f, arity in signature.functions.items():
        grouped.append((None, Unit.type_decl(f"{f}_type", f, func_type(arity))))
    for c in signature.constants:
        grouped.append((None, Unit.type_decl(f"{c}_type", c, INDIV)))
    grouped.extend(_grouped_domain_axioms(config, signature))
    for unit in problem.units:
        name = conjecture_name if unit.role == "conjecture" else unit.name
        kind = "axiom" if unit.role == "definition" else unit.role
        payload = apply(MVALID, embed_formula(unit.formula, config))
        grouped.append((None, Unit.formula(name, kind, payload)))
    groups, units = zip(*grouped)

    duplicates = [n for n, count in Counter(u.name for u in units).items() if count > 1]
    if duplicates:
        raise EmbeddingError(
            "duplicate unit names after embedding: " + ", ".join(sorted(duplicates))
        )
    return EmbeddedProblem(units, config, groups)
