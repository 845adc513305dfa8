"""Frame tables, lifted vocabulary, and problem embedding."""

import functools
import hashlib
import itertools

import pytest

import helpers
from fml2hol import embedding, fml, hol, qmf
from fml2hol.embedding import (
    INDIV,
    PROP,
    DomainCondition,
    EmbeddingError,
    FrameProperty,
    Logic,
    TranslationConfig,
    connective_definitions,
    domain_axioms,
    embed_formula,
    embed_problem,
    frame_axioms,
    frame_properties,
    parse_domain,
    parse_logic,
)

ALL_CONFIGS = [
    TranslationConfig(logic, domain)
    for logic in Logic
    for domain in DomainCondition
]

E1 = qmf.parse_problem(
    "qmf(con,conjecture,("
    " ( ! [X] : ( #box : ( f(X) ) ) ) => ( #box : ( ! [X] : ( f(X) ) ) ) ))."
)


def config(logic: str, domain: str) -> TranslationConfig:
    return TranslationConfig(parse_logic(logic), parse_domain(domain))


def unit_names(units) -> list:
    return [u.name for u in units]


def test_frame_property_table():
    assert frame_properties(Logic.K) == ()
    assert frame_properties(Logic.K4) == (FrameProperty.TRANSITIVE,)
    assert frame_properties(Logic.D) == (FrameProperty.SERIAL,)
    assert frame_properties(Logic.D4) == (FrameProperty.SERIAL, FrameProperty.TRANSITIVE)
    assert frame_properties(Logic.T) == (FrameProperty.REFLEXIVE,)
    assert frame_properties(Logic.S4) == (FrameProperty.REFLEXIVE, FrameProperty.TRANSITIVE)
    assert frame_properties(Logic.S5) == (
        FrameProperty.REFLEXIVE,
        FrameProperty.TRANSITIVE,
        FrameProperty.SYMMETRIC,
    )


def test_parse_logic_and_domain():
    assert parse_logic("S5") is Logic.S5
    assert parse_domain("Const") is DomainCondition.CONSTANT
    with pytest.raises(ValueError, match="unknown logic: x7"):
        parse_logic("x7")
    with pytest.raises(ValueError, match="unknown domain"):
        parse_domain("growing")


def test_config_naming():
    cfg = config("d4", "cumul")
    assert embedding.rel_const(cfg.logic).name == "rel_d4"
    assert embedding.box_const(cfg.logic).name == "mbox_d4"
    assert embedding.dia_const(cfg.logic).name == "mdia_d4"
    assert cfg.guarded
    assert not config("d4", "const").guarded


def test_connective_definitions_constant_unguarded():
    units = {u.name: u for u in connective_definitions(config("d", "const"))}
    assert "exists_in_world_type" not in units
    body = units["mforall_ind"].term
    # \Phi. \W. ! [X: mu] : Phi @ X @ W
    quantifier = body.body.body
    assert isinstance(quantifier, hol.Forall)
    assert quantifier.body == hol.apply(
        hol.Var("Phi", embedding._IND_PRED), hol.Var("X", INDIV), hol.Var("W", hol.WORLD)
    )


def test_connective_definitions_varying_guarded():
    units = {u.name: u for u in connective_definitions(config("s5", "vary"))}
    assert units["exists_in_world_type"].symbol == "exists_in_world"
    quantifier = units["mforall_ind"].term.body.body
    assert isinstance(quantifier.body, hol.Implies)
    guard = quantifier.body.left
    assert guard == hol.apply(
        embedding.EXISTS_IN_WORLD, hol.Var("X", INDIV), hol.Var("W", hol.WORLD)
    )


def test_connective_definitions_k_constant_minimal():
    units = connective_definitions(config("k", "const"))
    names = unit_names(units)
    assert "exists_in_world_type" not in names
    assert not any(n.startswith("mserial") for n in names)
    assert frame_axioms(config("k", "const")) == ()


def test_connective_definitions_order_declares_before_use():
    for cfg in ALL_CONFIGS:
        hol.check_problem(hol.Problem(connective_definitions(cfg)))


# sha1 of the repr of every config's connective definitions and frame
# axioms, in ALL_CONFIGS order, as built before each config's vocabulary
# was kept: keeping it changes no unit
VOCABULARY_DIGEST = "7edf335c65607adb44b131e4b649afde25f53388"


def test_vocabulary_units_are_unchanged():
    got = repr([(connective_definitions(cfg), frame_axioms(cfg)) for cfg in ALL_CONFIGS])
    assert hashlib.sha1(got.encode()).hexdigest() == VOCABULARY_DIGEST


def test_problems_under_one_config_share_its_vocabulary():
    cfg = config("s5", "cumul")
    other = qmf.parse_problem("qmf(a,axiom,( p(c) )). qmf(con,conjecture,( #box : ( p(c) ) )).")
    vocabulary = connective_definitions(cfg) + frame_axioms(cfg)
    for problem in (E1, other, E1):
        units = embed_problem(problem, cfg).units
        assert len(units) > len(vocabulary)
        assert all(a is b for a, b in zip(units, vocabulary))


def test_each_config_vocabulary_is_built_once(monkeypatch):
    # every config is built by check_names already, and never again
    build, built = embedding._vocabulary.__wrapped__, []

    def counted(cfg):
        built.append(cfg)
        return build(cfg)

    monkeypatch.setattr(embedding, "_vocabulary", functools.cache(counted))
    monkeypatch.setattr(
        embedding, "_reserved_names", functools.cache(embedding._reserved_names.__wrapped__)
    )
    embedding.check_names(E1)
    assert sorted(built, key=ALL_CONFIGS.index) == ALL_CONFIGS
    for cfg in ALL_CONFIGS:
        embed_problem(E1, cfg)
        connective_definitions(cfg)
        frame_axioms(cfg)
    embedding.check_names(E1)
    assert len(built) == len(ALL_CONFIGS) == 21


def test_box_definition_shape():
    units = {u.name: u for u in connective_definitions(config("d", "const"))}
    body = units["mbox_d"].term.body.body
    # ! [V] : ~ (rel_d @ W @ V) | Phi @ V
    assert isinstance(body, hol.Forall)
    assert isinstance(body.body, hol.Or)
    assert isinstance(body.body.left, hol.Not)


def test_dia_defined_through_box():
    units = {u.name: u for u in connective_definitions(config("t", "const"))}
    dia = units["mdia_t"].term
    spine_head = dia.body
    assert isinstance(spine_head, hol.App)
    assert spine_head.fun.name == "mnot"


def test_frame_axioms_d():
    axioms = frame_axioms(config("d", "const"))
    assert unit_names(axioms) == ["a1"]
    term = axioms[0].term
    assert term == hol.App(
        embedding.property_const(FrameProperty.SERIAL), embedding.rel_const(Logic.D)
    )


def test_frame_axioms_s5():
    axioms = frame_axioms(config("s5", "vary"))
    assert unit_names(axioms) == ["a1", "a2", "a3"]
    symbols = [a.term.fun.name for a in axioms]
    assert symbols == ["mreflexive", "mtransitive", "msymmetric"]


def test_domain_axioms_constant_empty():
    sig = fml.Signature({"f": 1}, {}, ())
    assert domain_axioms(config("d", "const"), sig) == ()


def test_domain_axioms_varying_empty_signature():
    sig = fml.Signature({"f": 1}, {}, ())
    assert unit_names(domain_axioms(config("d", "vary"), sig)) == ["nonempty_ax"]


def test_domain_axioms_cumulative_with_constant():
    sig = fml.Signature({"p": 1}, {}, ("c",))
    names = unit_names(domain_axioms(config("t", "cumul"), sig))
    assert names == ["nonempty_ax", "designation_c", "cumulative_ax"]


def test_domain_axioms_closure_unit():
    sig = fml.Signature({"p": 1}, {"g": 2}, ())
    axioms = {u.name: u for u in domain_axioms(config("k", "vary"), sig)}
    closure = axioms["closure_g"].term
    # ! [W] : ! [X1] : ! [X2] : (guards) => exists_in_world (g X1 X2) W
    inner = closure.body.body.body
    assert isinstance(inner, hol.Implies)
    assert isinstance(inner.left, hol.And)


def test_domain_axioms_typecheck_after_signature_declarations():
    sig = fml.Signature({"p": 1}, {"g": 1}, ("c",))
    for cfg in ALL_CONFIGS:
        units = list(connective_definitions(cfg))
        units.append(hol.Unit.type_decl("g_type", "g", embedding.func_type(1)))
        units.append(hol.Unit.type_decl("c_type", "c", INDIV))
        units.extend(domain_axioms(cfg, sig))
        hol.check_problem(hol.Problem(tuple(units)))


def test_embed_formula_nullary_atom():
    got = embed_formula(fml.Atom("p"), config("k", "const"))
    assert got == hol.Const("p", PROP)


def test_embed_formula_homomorphism():
    cfg = config("s4", "vary")
    p, q = fml.Atom("p"), fml.Atom("q")
    cases = [
        (fml.Not(p), embedding.MNOT, 1),
        (fml.And(p, q), embedding.MAND, 2),
        (fml.Or(p, q), embedding.MOR, 2),
        (fml.Implies(p, q), embedding.MIMPLIES, 2),
        (fml.Box(p), embedding.box_const(Logic.S4), 1),
        (fml.Dia(p), embedding.dia_const(Logic.S4), 1),
    ]
    for formula, head, arity in cases:
        got = embed_formula(formula, cfg)
        spine = got
        args = []
        while isinstance(spine, hol.App):
            args.append(spine.arg)
            spine = spine.fun
        assert spine == head
        assert len(args) == arity
        assert args[-1] == embed_formula(p, cfg)


def test_embed_formula_quantifiers():
    cfg = config("d", "const")
    got = embed_formula(fml.Exists("X", fml.Atom("p", (fml.Variable("X"),))), cfg)
    assert got == hol.App(
        embedding.MEXISTS_IND,
        hol.Lambda("X", INDIV, hol.App(hol.Const("p", embedding.pred_type(1)), hol.Var("X", INDIV))),
    )


def test_embed_formula_terms_translate_homomorphically():
    cfg = config("k", "const")
    formula = fml.Atom(
        "q",
        (fml.Constant("c"), fml.FunctionApp("g", (fml.Variable("X"),))),
    )
    got = embed_formula(fml.Forall("X", formula), cfg)
    lam = got.arg
    atom = lam.body
    assert atom == hol.apply(
        hol.Const("q", embedding.pred_type(2)),
        hol.Const("c", INDIV),
        hol.App(hol.Const("g", embedding.func_type(1)), hol.Var("X", INDIV)),
    )


def test_embed_formula_e1_body_types_as_proposition():
    cfg = config("d", "const")
    term = embed_formula(E1.units[0].formula, cfg)
    ctx = dict(check_context(cfg))
    ctx["f"] = embedding.pred_type(1)
    assert hol.type_of(term, ctx) == PROP


def check_context(cfg):
    return hol.check_problem(hol.Problem(connective_definitions(cfg)))


def test_embed_problem_unit_order():
    names = unit_names(embed_problem(E1, config("s5", "cumul")).units)
    assert names.index("rel_s5_type") < names.index("mvalid")
    assert names.index("mvalid") < names.index("a1")
    assert names.index("a3") < names.index("f_type")
    assert names.index("f_type") < names.index("nonempty_ax")
    assert names.index("nonempty_ax") < names.index("cumulative_ax")
    assert names[-1] == "prove"


def test_embed_problem_declarations_precede_domain_axioms():
    problem = qmf.parse_problem(
        "qmf(con,conjecture,( ! [X] : ( p(g(X)) | p(c) ) ))."
    )
    names = unit_names(embed_problem(problem, config("k", "cumul")).units)
    assert names.index("c_type") < names.index("designation_c")
    assert names.index("g_type") < names.index("closure_g")


def test_embed_problem_renames_conjecture_to_prove():
    embedded = embed_problem(E1, config("d", "const"))
    assert embedded.conjecture().name == "prove"


def test_embed_problem_preserves_names_and_roles():
    problem = qmf.parse_problem(
        "qmf(base,axiom,( p )). qmf(extra,hypothesis,( q )). qmf(defn,definition,( p => q ))."
    )
    embedded = embed_problem(problem, config("k", "const"))
    kinds = {u.name: u.kind for u in embedded.units}
    assert kinds["base"] == "axiom"
    assert kinds["extra"] == "hypothesis"
    assert kinds["defn"] == "axiom"  # assertion, not an equation


def test_embed_problem_wraps_payloads_in_mvalid():
    embedded = embed_problem(E1, config("d", "const"))
    payload = embedded.conjecture().term
    assert isinstance(payload, hol.App)
    assert payload.fun == embedding.MVALID


def test_embed_problem_empty_problem_is_infrastructure_only():
    embedded = embed_problem(fml.Problem(()), config("t", "vary"))
    assert embedded.conjecture() is None
    assert unit_names(embedded.units) == unit_names(
        connective_definitions(config("t", "vary"))
    ) + ["a1", "nonempty_ax"]


def test_embed_problem_rejects_reserved_symbols():
    problem = qmf.parse_problem("qmf(u1,conjecture,( mvalid )).")
    with pytest.raises(EmbeddingError, match="reserved"):
        embed_problem(problem, config("k", "const"))
    problem = qmf.parse_problem("qmf(u1,conjecture,( p(rel_k) )).")
    with pytest.raises(EmbeddingError, match="rel_k"):
        embed_problem(problem, config("k", "const"))


def test_embed_problem_rejects_reserved_unit_names():
    problem = qmf.parse_problem("qmf(a1,axiom,( p )). qmf(u2,conjecture,( p )).")
    with pytest.raises(EmbeddingError, match="a1"):
        embed_problem(problem, config("k", "const"))


def test_embed_problem_rejects_type_suffix_collisions():
    # a user predicate f alongside a unit named f_type would duplicate names
    problem = qmf.parse_problem("qmf(f_type,axiom,( f(c) )). qmf(u2,conjecture,( f(c) )).")
    with pytest.raises(EmbeddingError, match="duplicate"):
        embed_problem(problem, config("k", "const"))


def test_embed_problem_names_each_duplicate_once_in_order():
    # zz three times, mm twice, p_type against the declaration of p; the
    # conjecture is renamed prove, so its name clashes with nothing
    problem = qmf.parse_problem(
        "qmf(zz,axiom,( p )). qmf(mm,axiom,( p )). qmf(zz,hypothesis,( p )). "
        "qmf(p_type,axiom,( p )). qmf(zz,definition,( p )). qmf(mm,axiom,( p )). "
        "qmf(zz,conjecture,( p ))."
    )
    with pytest.raises(EmbeddingError) as exc:
        embed_problem(problem, config("k", "const"))
    assert str(exc.value) == "duplicate unit names after embedding: mm, p_type, zz"


def test_guarding_discipline():
    for logic in Logic:
        units = embed_problem(E1, TranslationConfig(logic, DomainCondition.CONSTANT)).units
        for unit in units:
            for term in (unit.term,):
                if term is not None:
                    assert "exists_in_world" not in _constants_of(term)
    units = embed_problem(E1, config("k", "vary")).units
    mentions = {
        u.name for u in units if u.term is not None and "exists_in_world" in _constants_of(u.term)
    }
    assert {"mforall_ind", "nonempty_ax"} <= mentions


def _constants_of(term) -> set:
    if isinstance(term, hol.Const):
        return {term.name}
    if isinstance(term, hol.Var):
        return set()
    if isinstance(term, hol.App):
        return _constants_of(term.fun) | _constants_of(term.arg)
    if isinstance(term, (hol.Lambda, hol.Forall, hol.Exists)):
        return _constants_of(term.body)
    if isinstance(term, hol.Not):
        return _constants_of(term.body)
    return _constants_of(term.left) | _constants_of(term.right)


def test_infrastructure_only_grows_with_config():
    base = set(unit_names(embed_problem(E1, config("k", "const")).units))
    richer = set(unit_names(embed_problem(E1, config("d4", "cumul")).units))
    renamed = {"mbox_k": "mbox_d4", "mdia_k": "mdia_d4", "rel_k_type": "rel_d4_type"}
    assert {renamed.get(n, n) for n in base} <= richer


# uses every symbol kind, so designation and closure axioms are generated
SIGNATURE_PROBLEM = (
    "qmf(u1,axiom,( p(g(c)) )). {extra}qmf(con,conjecture,( ! [X] : ( p(X) ) ))."
)


def _generated_names(cfg):
    """The symbols and unit names the embedding adds to SIGNATURE_PROBLEM."""
    units = embed_problem(qmf.parse_problem(SIGNATURE_PROBLEM.format(extra="")), cfg).units
    symbols = {u.symbol for u in units if u.symbol is not None} - {"p", "g", "c"}
    names = {u.name for u in units} - {"p_type", "g_type", "c_type", "u1"}
    return symbols, names


def test_reserved_names_are_config_independent():
    symbols, names = set(), set()
    for cfg in ALL_CONFIGS:
        cfg_symbols, cfg_names = _generated_names(cfg)
        symbols |= cfg_symbols
        names |= cfg_names
    assert {"rel_s5", "mbox_k", "exists_in_world", "msymmetric"} <= symbols
    assert {"a3", "cumulative_ax", "designation_c", "closure_g", "prove"} <= names
    for cfg in ALL_CONFIGS:
        for symbol in symbols:
            problem = SIGNATURE_PROBLEM.format(extra=f"qmf(u2,axiom,( {symbol} )). ")
            with pytest.raises(EmbeddingError, match=symbol):
                embed_problem(qmf.parse_problem(problem), cfg)
        for name in names:
            problem = SIGNATURE_PROBLEM.format(extra=f"qmf({name},axiom,( p(c) )). ")
            with pytest.raises(EmbeddingError, match=name):
                embed_problem(qmf.parse_problem(problem), cfg)


def test_names_no_config_generates_are_accepted():
    problem = qmf.parse_problem(
        "qmf(a4,axiom,( mbox_foo | rel_foo(c) )). qmf(designation_zz,axiom,( p(c) ))."
        " qmf(con,conjecture,( p(c) ))."
    )
    for cfg in ALL_CONFIGS:
        hol.check_problem(embed_problem(problem, cfg))


def test_every_config_typechecks_on_random_problems():
    r = helpers.make_rng(1105)
    for _ in range(15):
        problem = helpers.random_problem(r)
        for cfg in ALL_CONFIGS:
            hol.check_problem(embed_problem(problem, cfg))


def test_embedding_is_deterministic():
    for cfg in (config("d", "const"), config("s5", "cumul")):
        assert embed_problem(E1, cfg) == embed_problem(E1, cfg)
