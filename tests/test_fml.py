"""Signature collection, closure checks, and constructor guards."""

import pytest

from fml2hol import fml
from fml2hol.fml import (
    AnnotatedFormula,
    ArityClashError,
    Atom,
    Box,
    Constant,
    Dia,
    Exists,
    Forall,
    FreeVariableError,
    FunctionApp,
    Implies,
    MultipleConjecturesError,
    Not,
    Problem,
    SortClashError,
    Variable,
    collect_signature,
    validate_problem,
)

E1_BODY = Implies(
    Forall("X", Box(Atom("f", (Variable("X"),)))),
    Box(Forall("X", Atom("f", (Variable("X"),)))),
)


def unit_problem(formula, role="axiom"):
    return Problem((AnnotatedFormula("u1", role, formula),))


def test_signature_of_e1():
    sig = collect_signature(unit_problem(E1_BODY, "conjecture"))
    assert sig.predicates == {"f": 1}
    assert sig.functions == {}
    assert sig.constants == ()


def test_signature_nullary_atom():
    sig = collect_signature(unit_problem(Atom("p")))
    assert sig.predicates == {"p": 0}


def test_signature_nested_terms():
    f = Atom("q", (Constant("c"), FunctionApp("g", (Constant("c"),))))
    sig = collect_signature(unit_problem(f))
    assert sig.predicates == {"q": 2}
    assert sig.functions == {"g": 1}
    assert sig.constants == ("c",)


def test_signature_records_first_occurrence_order():
    f = And_chain = fml.And(
        Atom("p", (Constant("b"),)),
        Atom("q", (Constant("a"), Constant("b"))),
    )
    sig = collect_signature(unit_problem(And_chain))
    assert list(sig.predicates) == ["p", "q"]
    assert sig.constants == ("b", "a")


def test_signature_insensitive_to_unit_order():
    u1 = AnnotatedFormula("u1", "axiom", Atom("p", (Constant("a"),)))
    u2 = AnnotatedFormula("u2", "axiom", Atom("q", (Constant("b"),)))
    a = collect_signature(Problem((u1, u2)))
    b = collect_signature(Problem((u2, u1)))
    assert a.predicates == b.predicates
    assert set(a.constants) == set(b.constants)


def test_predicate_arity_clash():
    f = fml.And(Atom("p", (Constant("a"),)), Atom("p"))
    with pytest.raises(ArityClashError) as exc:
        collect_signature(unit_problem(f))
    assert exc.value.symbol == "p"
    assert set(exc.value.arities) == {0, 1}


def test_function_arity_clash():
    f = fml.And(
        Atom("p", (FunctionApp("g", (Constant("a"),)),)),
        Atom("p", (FunctionApp("g", (Constant("a"), Constant("a"))),)),
    )
    with pytest.raises(ArityClashError):
        collect_signature(unit_problem(f))


def test_constant_vs_function_clash():
    f = fml.And(
        Atom("p", (Constant("g"),)),
        Atom("p", (FunctionApp("g", (Constant("a"),)),)),
    )
    with pytest.raises(ArityClashError):
        collect_signature(unit_problem(f))


def test_predicate_vs_term_sort_clash():
    f = fml.And(Atom("p"), Atom("q", (Constant("p"),)))
    with pytest.raises(SortClashError) as exc:
        collect_signature(unit_problem(f))
    assert exc.value.symbol == "p"


@pytest.mark.parametrize(
    "formula, variable",
    [
        (Forall("X", Box(Atom("f", (Variable("X"),)))), None),
        (Atom("f", (Variable("X"),)), "X"),
        (Forall("X", Atom("q", (Variable("X"), Variable("Y")))), "Y"),
        (Exists("X", Atom("p", (FunctionApp("g", (Variable("Z"),)),))), "Z"),
    ],
    ids=["closed", "open-atom", "partial-binding", "under-function"],
)
def test_free_variable_error(formula, variable):
    if variable is None:
        unit_problem(formula)
        return
    with pytest.raises(FreeVariableError) as exc:
        unit_problem(formula)
    assert exc.value.variable == variable


def test_validate_accepts_e1():
    sig = validate_problem(unit_problem(E1_BODY, "conjecture"))
    assert sig.predicates == {"f": 1}


def test_validate_rejects_free_variable():
    with pytest.raises(FreeVariableError) as exc:
        validate_problem(unit_problem(Atom("f", (Variable("X"),))))
    assert exc.value.unit == "u1"
    assert exc.value.variable == "X"


def test_validate_rejects_two_conjectures():
    units = (
        AnnotatedFormula("c1", "conjecture", Atom("p")),
        AnnotatedFormula("c2", "conjecture", Atom("p")),
    )
    with pytest.raises(MultipleConjecturesError) as exc:
        validate_problem(Problem(units))
    assert exc.value.names == ("c1", "c2")


def test_first_defective_unit_is_reported():
    # a clash in the second unit comes before a free variable in the third
    units = (
        AnnotatedFormula("u1", "axiom", Atom("p", (Constant("a"),))),
        AnnotatedFormula("u2", "axiom", Atom("p")),
        AnnotatedFormula("u3", "axiom", Atom("q", (Variable("X"),))),
    )
    with pytest.raises(ArityClashError):
        Problem(units)
    with pytest.raises(FreeVariableError) as exc:
        Problem(units[2:] + units[:2])
    assert exc.value.unit == "u3"


def test_problem_carries_its_signature():
    problem = unit_problem(E1_BODY, "conjecture")
    assert problem.signature == validate_problem(problem)
    assert problem.signature.predicates == {"f": 1}
    assert problem == unit_problem(E1_BODY, "conjecture")
    assert hash(problem) == hash(unit_problem(E1_BODY, "conjecture"))
    assert "signature" not in repr(problem)


def test_conjecture_accessor():
    units = (
        AnnotatedFormula("ax", "axiom", Atom("p")),
        AnnotatedFormula("con", "conjecture", Atom("p")),
    )
    assert Problem(units).conjecture().name == "con"
    assert Problem(units[:1]).conjecture() is None


def test_variable_names_must_start_uppercase():
    with pytest.raises(ValueError):
        Variable("x")
    with pytest.raises(ValueError):
        Forall("x", Atom("p"))


def test_symbol_names_must_start_lowercase():
    with pytest.raises(ValueError):
        Constant("C")
    with pytest.raises(ValueError):
        Atom("P")
    with pytest.raises(ValueError):
        FunctionApp("G", (Constant("a"),))


def test_function_app_needs_arguments():
    with pytest.raises(ValueError):
        FunctionApp("g", ())


def test_unknown_role_rejected():
    with pytest.raises(ValueError):
        AnnotatedFormula("u1", "lemma", Atom("p"))


def test_all_roles_accepted():
    for role in fml.ROLES:
        AnnotatedFormula("u1", role, Atom("p"))


def test_dia_and_not_scan():
    f = Dia(Not(Atom("p", (Constant("a"),))))
    sig = collect_signature(unit_problem(f))
    assert sig.predicates == {"p": 1}
    assert sig.constants == ("a",)
