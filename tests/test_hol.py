"""Typing, normalization, and problem checking for HOL terms; substitution
and the substitution normaliser are the reference in helpers."""

import itertools

import pytest

import helpers
from fml2hol import embedding, fml, hol
from fml2hol.embedding import DomainCondition, Logic, TranslationConfig
from fml2hol.hol import (
    INDIV,
    PROP,
    TRUTH,
    WORLD,
    And,
    App,
    ArrowType,
    Const,
    CyclicDefinitionError,
    DuplicateSymbolError,
    Exists,
    Forall,
    Implies,
    Lambda,
    Not,
    Or,
    Problem,
    TypeMismatchError,
    UnboundSymbolError,
    Unit,
    Var,
    alpha_equal,
    apply,
    beta_normalize,
    check_problem,
    expand_definitions,
    fn,
    print_type,
    type_of,
)
from helpers import substitute


def test_fn_right_associates():
    assert fn(INDIV, WORLD, TRUTH) == ArrowType(INDIV, ArrowType(WORLD, TRUTH))
    assert fn(TRUTH) == TRUTH
    with pytest.raises(ValueError):
        fn()


def test_print_type():
    assert print_type(fn(INDIV, WORLD, TRUTH)) == "mu > $i > $o"
    assert print_type(fn(PROP, TRUTH)) == "( $i > $o ) > $o"
    assert print_type(TRUTH) == "$o"


def test_type_of_validity_shape():
    # \F. ! [W] : F W has the type of a validity predicate
    term = Lambda("F", PROP, Forall("W", WORLD, App(Var("F", PROP), Var("W", WORLD))))
    assert type_of(term) == fn(PROP, TRUTH)


def test_type_of_variable():
    assert type_of(Var("W", WORLD)) == WORLD


def test_type_of_application_mismatch():
    bad = App(Const("f", fn(INDIV, PROP)), Var("W", WORLD))
    with pytest.raises(TypeMismatchError):
        type_of(bad)


def test_type_of_non_function_application():
    with pytest.raises(TypeMismatchError):
        type_of(App(Var("W", WORLD), Var("V", WORLD)))


def test_type_of_quantifier_body_must_be_o():
    with pytest.raises(TypeMismatchError):
        type_of(Forall("X", INDIV, Var("X", INDIV)))


def test_type_of_connective_operands_must_be_o():
    with pytest.raises(TypeMismatchError):
        type_of(Not(Var("X", INDIV)))
    with pytest.raises(TypeMismatchError):
        type_of(Or(Const("p", TRUTH), Var("X", INDIV)))


def test_type_of_with_context_checks_declarations():
    ctx = {"f": fn(INDIV, PROP)}
    term = App(Const("f", fn(INDIV, PROP)), Const("c", INDIV))
    with pytest.raises(UnboundSymbolError):
        type_of(term, ctx)
    ctx["c"] = INDIV
    assert type_of(term, ctx) == PROP


def test_type_of_with_context_rejects_wrong_annotation():
    ctx = {"c": INDIV}
    with pytest.raises(TypeMismatchError):
        type_of(Const("c", WORLD), ctx)


def test_bound_variable_annotation_checked_against_binder():
    term = Lambda("X", INDIV, Var("X", WORLD))
    with pytest.raises(TypeMismatchError):
        type_of(term)


def test_substitute_simple():
    body = App(Var("F", PROP), Var("W", WORLD))
    got = substitute(body, {"W": Const("w1", WORLD)})
    assert got == App(Var("F", PROP), Const("w1", WORLD))


def test_substitute_shadowed_variable_untouched():
    term = Lambda("X", INDIV, Var("X", INDIV))
    assert substitute(term, {"X": Const("c", INDIV)}) == term


def test_substitute_avoids_capture():
    # (\X. ! [Y] : p X Y)[X := Y] must rename the binder, not capture
    p = Const("p", fn(INDIV, INDIV, TRUTH))
    term = Forall("Y", INDIV, apply(p, Var("X", INDIV), Var("Y", INDIV)))
    got = substitute(term, {"X": Var("Y", INDIV)})
    assert isinstance(got, Forall)
    assert got.var != "Y"
    assert got.body == apply(p, Var("Y", INDIV), Var(got.var, INDIV))
    assert type_of(got) == TRUTH


def test_beta_single_step():
    got = beta_normalize(App(Lambda("X", INDIV, Var("X", INDIV)), Const("c", INDIV)))
    assert got == Const("c", INDIV)


def test_beta_under_binders_and_connectives():
    inner = App(Lambda("X", INDIV, Var("X", INDIV)), Var("Y", INDIV))
    term = Forall("Y", INDIV, Not(App(Const("p", fn(INDIV, TRUTH)), inner)))
    got = beta_normalize(term)
    assert got == Forall(
        "Y", INDIV, Not(App(Const("p", fn(INDIV, TRUTH)), Var("Y", INDIV)))
    )


def test_beta_capture_forces_rename():
    p = Const("p", fn(INDIV, INDIV, TRUTH))
    redex = App(
        Lambda("X", INDIV, Forall("Y", INDIV, apply(p, Var("X", INDIV), Var("Y", INDIV)))),
        Var("Y", INDIV),
    )
    got = beta_normalize(redex)
    assert isinstance(got, Forall)
    assert got.var != "Y"
    assert alpha_equal(
        got, Forall("Z", INDIV, apply(p, Var("Y", INDIV), Var("Z", INDIV)))
    )


def test_beta_normalizes_nested_redexes():
    k = Lambda("X", INDIV, Lambda("Y", INDIV, Var("X", INDIV)))
    got = beta_normalize(apply(k, Const("a", INDIV), Const("b", INDIV)))
    assert got == Const("a", INDIV)


def test_beta_binder_named_like_a_free_variable_is_renamed():
    # (\Y. \X. Y) X: the inner binder must not capture the free X
    x, y = Var("X", INDIV), Var("Y", INDIV)
    got = beta_normalize(App(Lambda("Y", INDIV, Lambda("X", INDIV, y)), x))
    assert isinstance(got, Lambda)
    assert got.var != "X"
    assert got.body == x


def test_beta_shadowing_binder_is_renamed_under_its_namesake():
    # \X. (\Y. \X. Y) X: the inner X would capture the outer one
    x, y = Var("X", INDIV), Var("Y", INDIV)
    got = beta_normalize(Lambda("X", INDIV, App(Lambda("Y", INDIV, Lambda("X", INDIV, y)), x)))
    assert alpha_equal(got, Lambda("A", INDIV, Lambda("B", INDIV, Var("A", INDIV))))


def test_beta_keeps_binder_names_where_nothing_is_captured():
    pred = fn(INDIV, TRUTH)
    p, x = Const("p", pred), Var("X", INDIV)
    redex = App(Lambda("P", pred, Forall("X", INDIV, App(Var("P", pred), x))), p)
    assert beta_normalize(redex) == Forall("X", INDIV, App(p, x))


@pytest.mark.parametrize("seed", range(4))
def test_beta_normalize_matches_substitution_on_random_terms(seed):
    r = helpers.make_rng(seed)
    types = (TRUTH, INDIV, fn(INDIV, TRUTH))
    for _ in range(500):
        ty = r.choice(types)
        term = helpers.random_hol_term(r, ty, depth=r.randint(1, 5))
        got = beta_normalize(term)
        assert alpha_equal(got, helpers.reference_beta_normalize(term)), term
        assert type_of(got) == ty


def _criteria_formulas():
    """The formulas of acceptance criteria 3, 4 and 5, drawn as they draw them."""
    r = helpers.make_rng(97001)
    for domain in DomainCondition:
        for _ in range(200):
            sig = helpers.random_signature(r)
            helpers.random_model(r, sig, domain)
            yield helpers.random_formula(r, sig, depth=r.randint(0, 5))
    r = helpers.make_rng(97002)
    for _ in range(500):
        yield from (unit.formula for unit in helpers.random_problem(r).units)
    r = helpers.make_rng(97003)
    for _ in range(500):
        sig = helpers.random_signature(r)
        yield helpers.random_formula(r, sig, depth=r.randint(0, 5))


def test_expand_definitions_matches_substitution_on_criteria_formulas():
    # every formula under one config, in turn, so each config sees about 100
    configs = [TranslationConfig(l, d) for l, d in itertools.product(Logic, DomainCondition)]
    for i, formula in enumerate(_criteria_formulas()):
        config = configs[i % len(configs)]
        problem = embedding.embed_problem(
            fml.Problem((fml.AnnotatedFormula("con", "conjecture", formula),)), config
        )
        for unit in problem.units:
            if unit.kind in ("axiom", "conjecture"):
                got = expand_definitions(problem, unit.term)
                want = helpers.reference_expand_definitions(problem, unit.term)
                assert alpha_equal(got, want), (config.name, formula, unit.name)


def test_alpha_equal_renaming():
    a = Lambda("X", INDIV, Var("X", INDIV))
    b = Lambda("Y", INDIV, Var("Y", INDIV))
    assert alpha_equal(a, b)


def test_alpha_equal_distinguishes_structure():
    a = Lambda("X", INDIV, Var("X", INDIV))
    assert not alpha_equal(a, Lambda("X", WORLD, Var("X", WORLD)))
    assert not alpha_equal(Var("X", INDIV), Const("X", INDIV))
    assert not alpha_equal(
        Forall("X", INDIV, Const("p", TRUTH)), Exists("X", INDIV, Const("p", TRUTH))
    )


def test_alpha_equal_free_variables_by_name():
    assert alpha_equal(Var("X", INDIV), Var("X", INDIV))
    assert not alpha_equal(Var("X", INDIV), Var("Y", INDIV))


def test_alpha_equal_crossed_binders():
    p = Const("p", fn(INDIV, INDIV, TRUTH))
    a = Forall("X", INDIV, Forall("Y", INDIV, apply(p, Var("X", INDIV), Var("Y", INDIV))))
    b = Forall("Y", INDIV, Forall("X", INDIV, apply(p, Var("Y", INDIV), Var("X", INDIV))))
    c = Forall("Y", INDIV, Forall("X", INDIV, apply(p, Var("X", INDIV), Var("Y", INDIV))))
    assert alpha_equal(a, b)
    assert not alpha_equal(a, c)


def test_unit_payload_shapes_enforced():
    with pytest.raises(ValueError):
        hol.Unit("u", "type_decl", term=Const("p", TRUTH))
    with pytest.raises(ValueError):
        hol.Unit("u", "definition", symbol="d")
    with pytest.raises(ValueError):
        hol.Unit("u", "axiom", symbol="p", term=Const("p", TRUTH))
    with pytest.raises(ValueError):
        hol.Unit("u", "lemma", term=Const("p", TRUTH))


def test_check_problem_requires_declaration_before_use():
    use_then_declare = Problem(
        (
            Unit.formula("ax", "axiom", Const("p", TRUTH)),
            Unit.type_decl("p_type", "p", TRUTH),
        )
    )
    with pytest.raises(UnboundSymbolError):
        check_problem(use_then_declare)
    declare_then_use = Problem(tuple(reversed(use_then_declare.units)))
    assert check_problem(declare_then_use) == {"p": TRUTH}


def test_check_problem_rejects_duplicate_symbols():
    units = (
        Unit.type_decl("p_type", "p", TRUTH),
        Unit.type_decl("p_again", "p", TRUTH),
    )
    with pytest.raises(DuplicateSymbolError):
        check_problem(Problem(units))


def test_check_problem_rejects_non_boolean_payload():
    units = (
        Unit.type_decl("c_type", "c", INDIV),
        Unit.formula("ax", "axiom", Const("c", INDIV)),
    )
    with pytest.raises(TypeMismatchError):
        check_problem(Problem(units))


def test_check_problem_rejects_two_conjectures():
    units = (
        Unit.type_decl("p_type", "p", TRUTH),
        Unit.formula("c1", "conjecture", Const("p", TRUTH)),
        Unit.formula("c2", "conjecture", Const("p", TRUTH)),
    )
    with pytest.raises(hol.HolError):
        check_problem(Problem(units))


def test_check_problem_definitions_extend_context():
    ident = Lambda("X", INDIV, Var("X", INDIV))
    units = (
        Unit.definition("id", "id", ident),
        Unit.type_decl("c_type", "c", INDIV),
        Unit.formula(
            "ax",
            "axiom",
            App(Const("p", fn(INDIV, TRUTH)), App(Const("id", fn(INDIV, INDIV)), Const("c", INDIV))),
        ),
    )
    with pytest.raises(UnboundSymbolError):  # p never declared
        check_problem(Problem(units))
    fixed = Problem((Unit.type_decl("p_type", "p", fn(INDIV, TRUTH)),) + units)
    ctx = check_problem(fixed)
    assert ctx["id"] == fn(INDIV, INDIV)


def test_expand_definitions_unfolds_validity():
    vld = Lambda("F", PROP, Forall("W", WORLD, App(Var("F", PROP), Var("W", WORLD))))
    problem = Problem(
        (
            Unit.type_decl("p_type", "p", PROP),
            Unit.definition("vld", "vld", vld),
        )
    )
    got = expand_definitions(problem, App(Const("vld", fn(PROP, TRUTH)), Const("p", PROP)))
    assert got == Forall("W", WORLD, App(Const("p", PROP), Var("W", WORLD)))


def test_expand_definitions_chains():
    neg = Lambda("P", TRUTH, Not(Var("P", TRUTH)))
    dbl = Lambda(
        "P",
        TRUTH,
        App(Const("neg", fn(TRUTH, TRUTH)), App(Const("neg", fn(TRUTH, TRUTH)), Var("P", TRUTH))),
    )
    problem = Problem(
        (
            Unit.definition("neg", "neg", neg),
            Unit.definition("dbl", "dbl", dbl),
        )
    )
    got = expand_definitions(
        problem, App(Const("dbl", fn(TRUTH, TRUTH)), Const("q", TRUTH))
    )
    assert got == Not(Not(Const("q", TRUTH)))


def test_expand_definitions_detects_cycles():
    units = (
        Unit.definition("a", "a", App(Const("b", fn(TRUTH, TRUTH)), Const("t", TRUTH))),
        Unit.definition("b", "b", Lambda("P", TRUTH, Const("a", TRUTH))),
    )
    with pytest.raises(CyclicDefinitionError):
        expand_definitions(Problem(units), Const("a", TRUTH))


def test_expand_definitions_detects_cycles_reached_through_another_body():
    # the term reads only c, whose body reaches the a-b cycle under a lambda
    units = (
        Unit.definition("a", "a", App(Const("b", fn(TRUTH, TRUTH)), Const("t", TRUTH))),
        Unit.definition("b", "b", Lambda("P", TRUTH, Const("a", TRUTH))),
        Unit.definition("c", "c", Lambda("Q", TRUTH, Const("a", TRUTH))),
    )
    with pytest.raises(CyclicDefinitionError):
        expand_definitions(Problem(units), Const("c", fn(TRUTH, TRUTH)))


def test_expand_definitions_detects_self_reference_under_unapplied_lambda():
    a = Const("a", fn(TRUTH, TRUTH))
    units = (Unit.definition("a", "a", Lambda("P", TRUTH, a)),)
    with pytest.raises(CyclicDefinitionError):
        expand_definitions(Problem(units), a)


def test_expand_definitions_matches_substitution_on_definition_used_twice():
    # the same definition unfolded at the top and under a binder of the
    # name its own body binds
    p = Const("p", fn(INDIV, INDIV, TRUTH))
    every = Const("every", fn(fn(INDIV, TRUTH), TRUTH))
    x = Var("X", INDIV)
    body = Lambda("F", fn(INDIV, TRUTH), Forall("X", INDIV, App(Var("F", fn(INDIV, TRUTH)), x)))
    problem = Problem((Unit.definition("every", "every", body),))
    term = And(
        App(every, Lambda("Y", INDIV, apply(p, Var("Y", INDIV), Var("Y", INDIV)))),
        Forall("X", INDIV, App(every, Lambda("Y", INDIV, apply(p, x, Var("Y", INDIV))))),
    )
    got = expand_definitions(problem, term)
    assert alpha_equal(got, helpers.reference_expand_definitions(problem, term))


def test_expand_definitions_result_is_beta_normal():
    const_fn = Lambda("X", INDIV, Lambda("Y", INDIV, Var("X", INDIV)))
    problem = Problem((Unit.definition("k", "k", const_fn),))
    got = expand_definitions(
        problem,
        apply(Const("k", fn(INDIV, INDIV, INDIV)), Const("a", INDIV), Const("b", INDIV)),
    )
    assert got == Const("a", INDIV)


def test_problem_conjecture_accessor():
    units = (
        Unit.type_decl("p_type", "p", TRUTH),
        Unit.formula("prove", "conjecture", Const("p", TRUTH)),
    )
    assert Problem(units).conjecture().name == "prove"
    assert Problem(units[:1]).conjecture() is None


def test_implies_typing():
    term = Implies(Const("p", TRUTH), Const("q", TRUTH))
    assert type_of(term) == TRUTH
