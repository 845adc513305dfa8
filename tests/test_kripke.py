"""Model invariants, both evaluators, structure checks, and bounded search."""

import dataclasses
import functools
import gc
import hashlib
import itertools
import time
import traceback
import tracemalloc
import weakref

import pytest

import helpers
from fml2hol import cli, embedding, fml, frames, hol, kripke, qmf
from fml2hol.embedding import DomainCondition, Logic, TranslationConfig
from fml2hol.kripke import (
    Countermodel,
    KripkeModel,
    ModelError,
    NoConjectureError,
    NoCountermodelWithinBounds,
    NonFiniteTypeError,
    SearchBounds,
    Timeout,
    UnboundVariableError,
    UnknownSymbolError,
    check_domains,
    check_frame,
    correspondence_check,
    countermodel_violations,
    domain_violations,
    eval_fml,
    eval_hol,
    find_countermodel,
    frame_violations,
    label_fml,
    parse_model,
    print_model,
)

E1_BODY = qmf.parse_formula(
    "( ! [X] : ( #box : ( f(X) ) ) ) => ( #box : ( ! [X] : ( f(X) ) ) )"
)
E1 = fml.Problem((fml.AnnotatedFormula("con", "conjecture", E1_BODY),))

# the varying-domain refutation shape: domains grow along the only edge
E1_FIXTURE = KripkeModel(
    worlds=("w", "v"),
    rel=frozenset({("w", "v")}),
    universe=("a", "b"),
    dom={"w": frozenset({"a"}), "v": frozenset({"a", "b"})},
    preds={("f", "w"): frozenset({("a",)}), ("f", "v"): frozenset({("a",)})},
)


def single_world(p_true: bool, reflexive: bool) -> KripkeModel:
    return KripkeModel(
        worlds=("w",),
        rel=frozenset({("w", "w")}) if reflexive else frozenset(),
        universe=("a",),
        dom={"w": frozenset({"a"})},
        preds={("p", "w"): frozenset({()})} if p_true else {},
    )


def config(logic: str, domain: str) -> TranslationConfig:
    return TranslationConfig(embedding.parse_logic(logic), embedding.parse_domain(domain))


def test_model_normalization_drops_empty_extensions():
    a = KripkeModel(("w",), frozenset(), ("a",), {"w": frozenset({"a"})}, preds={})
    b = KripkeModel(
        ("w",), frozenset(), ("a",), {"w": frozenset({"a"})}, preds={("p", "w"): frozenset()}
    )
    assert a == b


def test_model_validation_errors():
    dom = {"w": frozenset({"a"})}
    with pytest.raises(ModelError, match="at least one world"):
        KripkeModel((), frozenset(), ("a",), {})
    with pytest.raises(ModelError, match="at least one individual"):
        KripkeModel(("w",), frozenset(), (), {"w": frozenset()})
    with pytest.raises(ModelError, match="duplicate world"):
        KripkeModel(("w", "w"), frozenset(), ("a",), dom)
    with pytest.raises(ModelError, match="unknown world"):
        KripkeModel(("w",), frozenset({("w", "v")}), ("a",), dom)
    with pytest.raises(ModelError, match="missing domain"):
        KripkeModel(("w", "v"), frozenset(), ("a",), dom)
    with pytest.raises(ModelError, match="outside the universe"):
        KripkeModel(("w",), frozenset(), ("a",), {"w": frozenset({"b"})})
    with pytest.raises(ModelError, match="unknown individual"):
        KripkeModel(("w",), frozenset(), ("a",), dom, consts={"c": "z"})
    with pytest.raises(ModelError, match="not total"):
        KripkeModel(
            ("w",), frozenset(), ("a", "b"), {"w": frozenset({"a"})},
            funcs={("g", ("a",)): "a"},
        )
    with pytest.raises(ModelError, match="different arities"):
        KripkeModel(
            ("w",), frozenset(), ("a",), dom,
            funcs={("g", ("a",)): "a", ("g", ("a", "a")): "a"},
        )
    with pytest.raises(ModelError, match="unknown world"):
        KripkeModel(("w",), frozenset(), ("a",), dom, preds={("p", "v"): frozenset({()})})
    with pytest.raises(ModelError, match="different arities"):
        KripkeModel(
            ("w",), frozenset(), ("a",), dom,
            preds={("p", "w"): frozenset({(), ("a",)})},
        )
    with pytest.raises(ModelError, match="unknown individuals"):
        KripkeModel(("w",), frozenset(), ("a",), dom, preds={("p", "w"): frozenset({("z",)})})
    exact = {
        "bad identifier 'w-1'": lambda: KripkeModel(("w-1",), (), ("a",), {"w-1": ()}),
        "duplicate individual": lambda: KripkeModel(("w",), (), ("a", "a"), dom),
        "domain for unknown world v": lambda: KripkeModel(
            ("w",), (), ("a",), {**dom, "v": frozenset()}
        ),
        "bad constant name 'c-1'": lambda: KripkeModel(("w",), (), ("a",), dom, {"c-1": "a"}),
        "bad function name 'g-1'": lambda: KripkeModel(
            ("w",), (), ("a",), dom, funcs={("g-1", ("a",)): "a"}
        ),
        "bad predicate name 'p-1'": lambda: KripkeModel(
            ("w",), (), ("a",), dom, preds={("p-1", "w"): frozenset({()})}
        ),
        "function entry g('z',) leaves the universe": lambda: KripkeModel(
            ("w",), (), ("a",), dom, funcs={("g", ("z",)): "a"}
        ),
    }
    for message, build in exact.items():
        with pytest.raises(ModelError) as caught:
            build()
        assert str(caught.value) == message


def test_eval_box_on_reflexive_world():
    model = single_world(p_true=True, reflexive=True)
    assert eval_fml(model, "w", fml.Box(fml.Atom("p")))


def test_eval_box_vacuous_dia_false_without_successors():
    model = single_world(p_true=True, reflexive=False)
    assert eval_fml(model, "w", fml.Box(fml.Atom("p")))
    assert not eval_fml(model, "w", fml.Dia(fml.Atom("p")))


def test_eval_e1_body_false_on_fixture():
    assert not eval_fml(E1_FIXTURE, "w", E1_BODY)
    # antecedent holds at w (only a exists there), consequent fails via b at v
    antecedent, consequent = E1_BODY.left, E1_BODY.right
    assert eval_fml(E1_FIXTURE, "w", antecedent)
    assert not eval_fml(E1_FIXTURE, "w", consequent)


def test_eval_quantifiers_range_over_world_domain():
    model = E1_FIXTURE
    everyone_f = fml.Forall("X", fml.Atom("f", (fml.Variable("X"),)))
    assert eval_fml(model, "w", everyone_f)  # dom(w) = {a}, f(a) holds
    assert not eval_fml(model, "v", everyone_f)  # b exists at v, f(b) fails


def test_eval_atoms_use_full_universe():
    # the constant denotes b, which is outside dom(w); the atom still evaluates
    model = KripkeModel(
        worlds=("w",),
        rel=frozenset(),
        universe=("a", "b"),
        dom={"w": frozenset({"a"})},
        consts={"c": "b"},
        preds={("f", "w"): frozenset({("b",)})},
    )
    assert eval_fml(model, "w", fml.Atom("f", (fml.Constant("c"),)))


def test_eval_function_terms():
    model = KripkeModel(
        worlds=("w",),
        rel=frozenset(),
        universe=("a", "b"),
        dom={"w": frozenset({"a", "b"})},
        funcs={("g", ("a",)): "b", ("g", ("b",)): "b"},
        preds={("f", "w"): frozenset({("b",)})},
    )
    got = eval_fml(
        model, "w", fml.Atom("f", (fml.FunctionApp("g", (fml.Variable("X"),)),)), {"X": "a"}
    )
    assert got


def test_eval_error_cases():
    model = single_world(p_true=True, reflexive=True)
    with pytest.raises(UnboundVariableError):
        eval_fml(model, "w", fml.Atom("p", ()) if False else fml.Atom("q", (fml.Variable("X"),)))
    with pytest.raises(UnknownSymbolError):
        eval_fml(model, "w", fml.Atom("p", (fml.Constant("c"),)))


def test_eval_duality_properties():
    r = helpers.make_rng(2207)
    for _ in range(60):
        sig = helpers.random_signature(r)
        domain = r.choice(tuple(DomainCondition))
        model = helpers.random_model(r, sig, domain)
        formula = helpers.random_formula(r, sig, depth=r.randint(0, 4))
        box_dual = fml.Not(fml.Box(fml.Not(formula)))
        forall_dual = fml.Not(fml.Forall("X", fml.Not(formula)))
        for w in model.worlds:
            assert eval_fml(model, w, fml.Dia(formula)) == eval_fml(model, w, box_dual)
            assert eval_fml(model, w, fml.Exists("X", formula)) == eval_fml(
                model, w, forall_dual
            )


def _unit(formula):
    return fml.Problem((fml.AnnotatedFormula("u", "axiom", formula),))


def _closed_over(formula, names):
    for name in names:
        formula = fml.Forall(name, formula)
    return formula


def _has_free_variable(formula, bound) -> bool:
    try:
        _unit(_closed_over(formula, bound))
    except fml.FreeVariableError:
        return True
    return False


def _raises_where_reference_does(error, expected, model, formula, assignment) -> bool:
    """The labeller raises exactly when expected, and whenever the
    reference raises at some world; returns whether it raised."""
    if expected:
        with pytest.raises(error):
            label_fml(model, formula, assignment)
    else:
        label_fml(model, formula, assignment)
    for w in model.worlds:
        try:
            helpers.reference_eval_fml(model, w, formula, assignment)
        except error:
            assert expected, (formula, w)
    return expected


def test_labelling_agrees_with_reference_evaluator():
    r = helpers.make_rng(2215)
    domains = tuple(DomainCondition)
    raised = {UnboundVariableError: 0, UnknownSymbolError: 0}
    for i in range(300):
        sig = helpers.random_signature(r)
        model = helpers.random_model(r, sig, domains[i % len(domains)])
        scope = ("X", "Y")[: r.randint(0, 2)]
        formula = helpers.random_formula(r, sig, r.randint(0, 4), scope)
        assignment = {name: r.choice(model.universe) for name in scope}
        truth = label_fml(model, formula, assignment)
        for j, w in enumerate(model.worlds):
            expected = helpers.reference_eval_fml(model, w, formula, assignment)
            assert bool(truth >> j & 1) == expected, (formula, model, w)
            assert eval_fml(model, w, formula, assignment) == expected
        # every atom is labelled, so a missing value raises wherever the
        # formula mentions it, also where the reference short-circuits
        if scope:
            kept = scope[1:]
            partial = {name: assignment[name] for name in kept}
            raised[UnboundVariableError] += _raises_where_reference_does(
                UnboundVariableError, _has_free_variable(formula, kept), model, formula, partial
            )
        used = _unit(_closed_over(formula, scope)).signature
        if sig.constants:
            raised[UnknownSymbolError] += _raises_where_reference_does(
                UnknownSymbolError, bool(used.constants),
                dataclasses.replace(model, consts={}), formula, assignment,
            )
        if sig.functions:
            raised[UnknownSymbolError] += _raises_where_reference_does(
                UnknownSymbolError, bool(used.functions),
                dataclasses.replace(model, funcs={}), formula, assignment,
            )
    assert all(count > 20 for count in raised.values()), raised


def test_constant_domain_reduction():
    # with dom = universe everywhere the guard is vacuous: both embeddings agree
    r = helpers.make_rng(2208)
    for _ in range(30):
        sig = helpers.random_signature(r)
        model = helpers.random_model(r, sig, DomainCondition.CONSTANT)
        formula = helpers.random_formula(r, sig, depth=3)
        for logic in (Logic.K, Logic.S5):
            assert correspondence_check(model, formula, TranslationConfig(logic, DomainCondition.CONSTANT))
            assert correspondence_check(model, formula, TranslationConfig(logic, DomainCondition.VARYING))


def embed_applied(formula, cfg):
    infrastructure = hol.Problem(embedding.connective_definitions(cfg))
    return hol.expand_definitions(infrastructure, embedding.embed_formula(formula, cfg))


def test_eval_hol_box_mirrors_eval_fml():
    model = single_world(p_true=True, reflexive=True)
    cfg = config("k", "const")
    lifted = eval_hol(model, embed_applied(fml.Box(fml.Atom("p")), cfg))
    assert lifted("w") is True


def test_eval_hol_mvalid_is_conjunction_over_worlds():
    model = KripkeModel(
        worlds=("w1", "w2"),
        rel=frozenset(),
        universe=("a",),
        dom={"w1": frozenset({"a"}), "w2": frozenset({"a"})},
        preds={("p", "w1"): frozenset({()})},
    )
    cfg = config("k", "const")
    problem = hol.Problem(embedding.connective_definitions(cfg))
    term = hol.App(embedding.MVALID, embedding.embed_formula(fml.Atom("p"), cfg))
    value = eval_hol(model, hol.expand_definitions(problem, term))
    assert value == all(eval_fml(model, w, fml.Atom("p")) for w in model.worlds)
    assert value is False


def test_eval_hol_rejects_non_finite_quantification():
    model = single_world(p_true=True, reflexive=True)
    bad = hol.Forall("F", hol.PROP, hol.App(hol.Var("F", hol.PROP), hol.Const("w", hol.WORLD)))
    with pytest.raises(NonFiniteTypeError):
        eval_hol(model, bad)


def test_eval_hol_unknown_symbol():
    model = single_world(p_true=True, reflexive=True)
    with pytest.raises(UnknownSymbolError):
        eval_hol(model, hol.Const("mystery", hol.INDIV))


def test_eval_hol_reads_rel_and_dom():
    rel_term = hol.apply(
        embedding.rel_const(Logic.T), hol.Var("W", hol.WORLD), hol.Var("V", hol.WORLD)
    )
    guard_term = hol.apply(
        embedding.EXISTS_IN_WORLD, hol.Var("X", hol.INDIV), hol.Var("W", hol.WORLD)
    )
    model = KripkeModel(
        worlds=("w", "v"),
        rel=frozenset({("w", "w"), ("v", "v"), ("w", "v")}),
        universe=("a", "b"),
        dom={"w": frozenset({"a"}), "v": frozenset({"a", "b"})},
    )
    assert eval_hol(model, rel_term, {"W": "w", "V": "v"}) is True
    assert eval_hol(model, rel_term, {"W": "v", "V": "w"}) is False
    assert eval_hol(model, guard_term, {"X": "b", "W": "w"}) is False
    assert eval_hol(model, guard_term, {"X": "b", "W": "v"}) is True


def test_correspondence_on_e1_over_random_models():
    sig = fml.Signature({"f": 1}, {}, ())
    r = helpers.make_rng(2209)
    for _ in range(50):
        domain = r.choice(tuple(DomainCondition))
        model = helpers.random_model(r, sig, domain)
        logic = r.choice(tuple(Logic))
        assert correspondence_check(model, E1_BODY, TranslationConfig(logic, domain))


def test_correspondence_tautology():
    taut = fml.Or(fml.Atom("p"), fml.Not(fml.Atom("p")))
    r = helpers.make_rng(2210)
    sig = fml.Signature({"p": 0}, {}, ())
    for domain in DomainCondition:
        model = helpers.random_model(r, sig, domain)
        assert correspondence_check(model, taut, config("d", domain.tag))


def test_correspondence_on_fixture():
    cfg = config("d", "vary")
    assert correspondence_check(E1_FIXTURE, E1_BODY, cfg)
    lifted = eval_hol(E1_FIXTURE, embed_applied(E1_BODY, cfg))
    assert lifted("w") is False


@pytest.mark.parametrize("domain", tuple(DomainCondition), ids=lambda d: d.tag)
def test_model_is_freed_without_the_cycle_collector(domain):
    # labelling and HOL evaluation leave no reference cycle that holds the
    # model, so its memory returns when the last reference goes, not when
    # the cycle collector happens to run; the domains are constant, so
    # the two readings agree under every domain condition
    text = "worlds: w v\nrel: w>v\nuniverse: a b\npred f @ w: a\npred f @ v: a b\n"
    gc.disable()
    try:
        model = parse_model(text)
        label_fml(model, E1_BODY)
        assert correspondence_check(model, E1_BODY, TranslationConfig(Logic.K, domain))
        ref = weakref.ref(model)
        del model
        assert ref() is None
    finally:
        gc.enable()


def test_frame_check_examples():
    identity = KripkeModel(("w",), frozenset({("w", "w")}), ("a",), {"w": frozenset({"a"})})
    assert check_frame(identity, Logic.S5)
    empty = KripkeModel(("w",), frozenset(), ("a",), {"w": frozenset({"a"})})
    assert not check_frame(empty, Logic.D)
    assert frame_violations(empty, Logic.D) == ("not serial: w has no successor",)
    edge = KripkeModel(
        ("w", "v"), frozenset({("w", "v")}), ("a",), {"w": frozenset({"a"}), "v": frozenset({"a"})}
    )
    assert check_frame(edge, Logic.K4)  # vacuously transitive


def test_frame_violation_messages():
    model = KripkeModel(
        ("w", "v"),
        frozenset({("w", "v"), ("v", "w"), ("w", "w")}),
        ("a",),
        {"w": frozenset({"a"}), "v": frozenset({"a"})},
    )
    assert "not reflexive: missing v>v" in frame_violations(model, Logic.T)
    chain = KripkeModel(
        ("u", "v", "w"),
        frozenset({("u", "v"), ("v", "w")}),
        ("a",),
        {"u": frozenset({"a"}), "v": frozenset({"a"}), "w": frozenset({"a"})},
    )
    assert "not transitive: u>v and v>w but not u>w" in frame_violations(chain, Logic.K4)
    assert "not symmetric: u>v but not v>u" in frame_violations(chain, Logic.S5)


@functools.cache
def plain_frames(n: int, logic: Logic) -> tuple[tuple[int, ...], ...]:
    """All relations over w1..wn rooted at w1 that meet the definitions,
    renamings included, in mask order, as successor masks (bit j of entry
    i: worlds[i] sees worlds[j])."""
    worlds = tuple(f"w{i}" for i in range(1, n + 1))
    kept = []
    for rel in helpers.all_relations(worlds):
        reached, frontier = {"w1"}, ["w1"]
        while frontier:
            u = frontier.pop()
            for v in worlds:
                if (u, v) in rel and v not in reached:
                    reached.add(v)
                    frontier.append(v)
        if len(reached) == n and helpers.frame_oracle(worlds, rel)[logic]:
            kept.append(
                tuple(sum(1 << j for j, v in enumerate(worlds) if (u, v) in rel) for u in worlds)
            )
    return tuple(kept)


def frame_mask(frame) -> int:
    """The frame's mask over all pairs: bits n*i .. n*i+n-1 are frame[i]."""
    return sum(succ << len(frame) * i for i, succ in enumerate(frame))


def renamings(frame) -> set:
    """The frame under every renaming of w2..wn, w1 fixed, itself included."""
    n = len(frame)
    out = set()
    for rest in itertools.permutations(range(1, n)):
        to = (0, *rest)
        renamed = [0] * n
        for i, succ in enumerate(frame):
            renamed[to[i]] = sum(1 << to[j] for j in range(n) if succ >> j & 1)
        out.add(tuple(renamed))
    return out


# rooted frames at 4 worlds up to renaming of w2..w4, counted by a plain
# filter over all 2^16 relations
FRAME_CLASSES_AT_4 = {
    Logic.K: 6752,
    Logic.D: 5856,
    Logic.T: 440,
    Logic.K4: 89,
    Logic.D4: 40,
    Logic.S4: 14,
    Logic.S5: 1,
}


def test_frame_enumerator_matches_plain_filter():
    # the search's frames, in its order (which decides the countermodel
    # printed): of the plain filter's frames exactly those least of their
    # class under renamings of w2..wn, and every plain frame is a renaming
    # of exactly one of them
    for n in (1, 2, 3):
        for logic in Logic:
            plain = plain_frames(n, logic)
            least = tuple(f for f in plain if frame_mask(f) == min(map(frame_mask, renamings(f))))
            got = frames._rooted(n, logic, lambda: None)
            assert got == least, (n, logic)
            classes = [renamings(f) for f in got]
            for f in plain:
                assert sum(f in copies for copies in classes) == 1, (n, logic, f)
    for logic, count in FRAME_CLASSES_AT_4.items():
        assert len(frames._rooted(4, logic, lambda: None)) == count, logic


def test_frames_cached_only_once_their_walk_completes(monkeypatch):
    # a search whose deadline fires while the 4-world frames are built
    # leaves no cache entry, and the next search builds the full list
    monkeypatch.setattr(frames, "_CACHE", {})
    rooted, ticks = kripke._rooted, itertools.count()

    def interrupted(n, logic, tick):
        def late():
            tick()
            if n == 4 and next(ticks) == 1000:
                raise kripke._Deadline

        return rooted(n, logic, late)

    problem = qmf.parse_problem("qmf(con,conjecture,( p | ~ ( p ) )).")
    with monkeypatch.context() as patch:
        patch.setattr(kripke, "_rooted", interrupted)
        result = find_countermodel(problem, config("k", "const"), SearchBounds(4, 1))
    assert isinstance(result, Timeout)
    assert set(frames._CACHE) == {(n, Logic.K) for n in (1, 2, 3)}
    result = find_countermodel(problem, config("k", "const"), SearchBounds(4, 1))
    assert isinstance(result, NoCountermodelWithinBounds)
    assert len(frames._CACHE[4, Logic.K]) == FRAME_CLASSES_AT_4[Logic.K]


def test_frame_monotonicity_chain():
    for n in (1, 2, 3):
        worlds = tuple(f"w{i}" for i in range(1, n + 1))
        dom = {w: frozenset({"a"}) for w in worlds}
        for rel in helpers.all_relations(worlds):
            model = KripkeModel(worlds, rel, ("a",), dom)
            if check_frame(model, Logic.S5):
                assert check_frame(model, Logic.S4)
            if check_frame(model, Logic.S4):
                assert check_frame(model, Logic.T)
                assert check_frame(model, Logic.K4)
            if check_frame(model, Logic.D4):
                assert check_frame(model, Logic.D)
            assert check_frame(model, Logic.K)


def test_domain_check_examples():
    constant = KripkeModel(
        ("w",), frozenset(), ("a", "b"), {"w": frozenset({"a", "b"})}
    )
    assert check_domains(constant, DomainCondition.CONSTANT)
    shrunk = KripkeModel(("w",), frozenset(), ("a", "b"), {"w": frozenset({"a"})})
    assert not check_domains(shrunk, DomainCondition.CONSTANT)
    assert domain_violations(shrunk, DomainCondition.CONSTANT) == (
        "not constant: dom(w) differs from the universe",
    )
    shrinking = KripkeModel(
        ("w", "v"),
        frozenset({("w", "v")}),
        ("a", "b"),
        {"w": frozenset({"a", "b"}), "v": frozenset({"a"})},
    )
    assert not check_domains(shrinking, DomainCondition.CUMULATIVE)
    assert "not cumulative: b exists at w but not at v despite w>v" in domain_violations(
        shrinking, DomainCondition.CUMULATIVE
    )
    assert check_domains(shrinking, DomainCondition.VARYING)


def test_domain_check_empty_domain():
    # constructed without the validator since dom() = {} is representable
    model = KripkeModel(("w",), frozenset(), ("a",), {"w": frozenset()})
    violations = domain_violations(model, DomainCondition.VARYING)
    assert violations == ("non-emptiness violated: dom(w) is empty",)


def test_domain_check_designation_and_closure():
    model = KripkeModel(
        ("w", "v"),
        frozenset(),
        ("a", "b"),
        {"w": frozenset({"a"}), "v": frozenset({"a", "b"})},
        consts={"c": "b"},
        funcs={("g", ("a",)): "b", ("g", ("b",)): "a"},
    )
    violations = domain_violations(model, DomainCondition.VARYING)
    assert "undesignated constant: c = b is not in dom(w)" in violations
    assert "unclosed function: g(a) = b leaves dom(w)" in violations
    # at v both a and b exist, so no violation is reported there
    assert not any("dom(v)" in v for v in violations)


def test_violation_message_order():
    # clause by clause in docstring order; worlds in model order, pairs in
    # world-name order (the cases with unsorted names below tell them apart)
    chain = KripkeModel(
        ("u", "v", "w"),
        frozenset({("u", "v"), ("v", "w")}),
        ("a",),
        {"u": frozenset({"a"}), "v": frozenset({"a"}), "w": frozenset({"a"})},
    )
    assert frame_violations(chain, Logic.D4) == (
        "not serial: w has no successor",
        "not transitive: u>v and v>w but not u>w",
    )
    assert frame_violations(chain, Logic.S5) == (
        "not reflexive: missing u>u",
        "not reflexive: missing v>v",
        "not reflexive: missing w>w",
        "not transitive: u>v and v>w but not u>w",
        "not symmetric: u>v but not v>u",
        "not symmetric: v>w but not w>v",
    )
    model = KripkeModel(
        ("w", "v"),
        frozenset({("w", "v")}),
        ("a", "b"),
        {"w": frozenset({"b"}), "v": frozenset()},
        consts={"c": "b"},
        funcs={("g", ("a",)): "a", ("g", ("b",)): "a"},
    )
    assert domain_violations(model, DomainCondition.CUMULATIVE) == (
        "non-emptiness violated: dom(v) is empty",
        "undesignated constant: c = b is not in dom(v)",
        "unclosed function: g(b) = a leaves dom(w)",
        "not cumulative: b exists at w but not at v despite w>v",
    )
    assert domain_violations(model, DomainCondition.CONSTANT) == (
        "not constant: dom(w) differs from the universe",
        "not constant: dom(v) differs from the universe",
    )

    # names out of model order: serial, reflexive and constant messages go
    # by world in model order, transitive, symmetric and cumulative ones by
    # pair in world-name order, and a cumulative message names the
    # alphabetically first individual missing
    worlds, universe = ("v", "u", "w"), ("b", "a")
    full = {w: frozenset(universe) for w in worlds}
    dead_ends = KripkeModel(worlds, frozenset({("w", "v")}), universe, full)
    assert frame_violations(dead_ends, Logic.D) == (
        "not serial: v has no successor",
        "not serial: u has no successor",
    )
    cycle = KripkeModel(
        worlds, frozenset({("v", "u"), ("u", "w"), ("w", "v"), ("u", "v")}), universe, full
    )
    assert frame_violations(cycle, Logic.S5) == (
        "not reflexive: missing v>v",
        "not reflexive: missing u>u",
        "not reflexive: missing w>w",
        "not transitive: u>v and v>u but not u>u",
        "not transitive: v>u and u>v but not v>v",
        "not transitive: v>u and u>w but not v>w",
        "not transitive: w>v and v>u but not w>u",
        "not symmetric: u>w but not w>u",
        "not symmetric: w>v but not v>w",
    )
    shrinking = KripkeModel(
        worlds,
        frozenset({("v", "u"), ("u", "w"), ("v", "w"), ("w", "v")}),
        universe,
        {"v": frozenset({"a", "b"}), "u": frozenset({"b"}), "w": frozenset()},
    )
    assert domain_violations(shrinking, DomainCondition.CUMULATIVE) == (
        "non-emptiness violated: dom(w) is empty",
        "not cumulative: b exists at u but not at w despite u>w",
        "not cumulative: a exists at v but not at u despite v>u",
        "not cumulative: a exists at v but not at w despite v>w",
    )
    partial = KripkeModel(
        worlds,
        frozenset(),
        universe,
        {"v": frozenset({"b"}), "u": frozenset({"a"}), "w": frozenset(universe)},
    )
    assert domain_violations(partial, DomainCondition.CONSTANT) == (
        "not constant: dom(v) differs from the universe",
        "not constant: dom(u) differs from the universe",
    )


def structure_models():
    """Models with a constant c and a unary function g over two
    individuals: every one over 1 and 2 worlds, then a seeded sample at 3."""
    universe = ("d1", "d2")
    subsets = helpers._subsets(universe)

    def model(worlds, rel, doms, c, g1, g2):
        funcs = {("g", ("d1",)): g1, ("g", ("d2",)): g2}
        return KripkeModel(worlds, rel, universe, dict(zip(worlds, doms)), {"c": c}, funcs)

    for n in (1, 2):
        worlds = tuple(f"w{i}" for i in range(1, n + 1))
        for rel in helpers.all_relations(worlds):
            for doms in itertools.product(subsets, repeat=n):
                for c, g1, g2 in itertools.product(universe, repeat=3):
                    yield model(worlds, rel, doms, c, g1, g2)
    r = helpers.make_rng(2219)
    worlds = ("w1", "w2", "w3")
    relations = list(helpers.all_relations(worlds))
    for _ in range(200):
        doms = [r.choice(subsets) for _ in worlds]
        yield model(worlds, r.choice(relations), doms, *[r.choice(universe) for _ in range(3)])


def test_emitted_structure_axioms_agree_with_checkers():
    # each config's frame and domain axioms, expanded and evaluated, hold of
    # a model exactly when check_frame and check_domains accept it; configs
    # whose expanded axioms coincide are evaluated once
    sig = fml.Signature({}, {"g": 1}, ("c",))
    checks = {}
    for logic, domain in itertools.product(Logic, DomainCondition):
        cfg = TranslationConfig(logic, domain)
        definitions = hol.Problem(embedding.connective_definitions(cfg))
        frame, domains = embedding.frame_axioms(cfg), embedding.domain_axioms(cfg, sig)
        checks[tuple(hol.expand_definitions(definitions, u.term) for u in frame)] = (
            check_frame, logic
        )
        if domain is DomainCondition.CONSTANT:
            assert not domains
        else:
            checks[tuple(hol.expand_definitions(definitions, u.term) for u in domains)] = (
                check_domains, domain
            )
    assert len(checks) == 7 + 1 + 7  # vary's domain axioms name no relation
    count = 0
    for model in structure_models():
        count += 1
        for terms, (check, condition) in checks.items():
            assert all(eval_hol(model, t) for t in terms) == check(model, condition)
    assert count == 2 * 4 * 8 + 16 * 16 * 8 + 200


def test_search_bounds_validation():
    with pytest.raises(ValueError):
        SearchBounds(0, 1)
    with pytest.raises(ValueError):
        SearchBounds(1, 0)
    with pytest.raises(ValueError):
        SearchBounds(1, 1, time_budget=0)
    with pytest.raises(ValueError):
        SearchBounds(1, 1, time_budget=float("nan"))
    # infinity asks for no limit, and is accepted as such
    assert SearchBounds(1, 1, time_budget=float("inf")).time_budget == float("inf")


def test_find_countermodel_e1_varying():
    result = find_countermodel(E1, config("d", "vary"), SearchBounds(2, 2))
    assert isinstance(result, Countermodel)
    assert countermodel_violations(E1, config("d", "vary"), result) == ()


def test_find_countermodel_e1_bounded_absences():
    assert isinstance(
        find_countermodel(E1, config("s5", "cumul"), SearchBounds(3, 3)),
        NoCountermodelWithinBounds,
    )
    assert isinstance(
        find_countermodel(E1, config("k", "const"), SearchBounds(3, 3)),
        NoCountermodelWithinBounds,
    )


# textbook schemas with the configs that validate them.  T, 4, D, B and 5
# correspond to reflexive, transitive, serial, symmetric and euclidean
# frames (Hughes & Cresswell 1996); CBF to domains that grow along the
# relation (Fitting & Mendelsohn 1998).  BF is E1, checked at 3x3 by
# criterion 2 of the acceptance gate.
TEXTBOOK_VERDICTS = {
    "T": ("( #box : ( p ) ) => p", "t s4 s5", "const vary cumul"),
    "4": ("( #box : ( p ) ) => ( #box : ( #box : ( p ) ) )", "k4 d4 s4 s5", "const vary cumul"),
    "D": ("( #box : ( p ) ) => ( #dia : ( p ) )", "d d4 t s4 s5", "const vary cumul"),
    "B": ("p => ( #box : ( #dia : ( p ) ) )", "s5", "const vary cumul"),
    "5": ("( #dia : ( p ) ) => ( #box : ( #dia : ( p ) ) )", "s5", "const vary cumul"),
    "CBF": (
        "( #box : ( ! [X] : ( f(X) ) ) ) => ( ! [X] : ( #box : ( f(X) ) ) )",
        "k k4 d d4 t s4 s5",
        "const cumul",
    ),
}


def test_textbook_verdict_matrix():
    for name, (text, logics, domains) in TEXTBOOK_VERDICTS.items():
        problem = qmf.parse_problem(f"qmf(con,conjecture,( {text} )).")
        for logic, domain in itertools.product(Logic, DomainCondition):
            cfg = TranslationConfig(logic, domain)
            result = find_countermodel(problem, cfg, SearchBounds(3, 2))
            if logic.value in logics.split() and domain.value in domains.split():
                assert result == NoCountermodelWithinBounds(), (name, cfg.name)
            else:
                assert isinstance(result, Countermodel), (name, cfg.name)
                faults = helpers.reference_countermodel_faults(problem, cfg, result)
                assert faults == [], (name, cfg.name)


def test_find_countermodel_requires_conjecture():
    problem = fml.Problem((fml.AnnotatedFormula("ax", "axiom", fml.Atom("p")),))
    with pytest.raises(NoConjectureError, match="no conjecture"):
        find_countermodel(problem, config("k", "const"), SearchBounds(1, 1))


def test_find_countermodel_respects_axioms():
    # p axiom forces p true everywhere, so the conjecture #dia: p needs an edge;
    # under D seriality guarantees one, so no countermodel exists
    problem = qmf.parse_problem(
        "qmf(fact,axiom,( p )). qmf(con,conjecture,( #dia : ( p ) ))."
    )
    assert isinstance(
        find_countermodel(problem, config("d", "const"), SearchBounds(2, 2)),
        NoCountermodelWithinBounds,
    )
    # under K the empty relation refutes it
    result = find_countermodel(problem, config("k", "const"), SearchBounds(2, 2))
    assert isinstance(result, Countermodel)
    assert result.model.rel == frozenset()


def test_find_countermodel_minimal_first():
    # a nullary contingency is refuted by the smallest possible model
    problem = qmf.parse_problem("qmf(con,conjecture,( p )).")
    result = find_countermodel(problem, config("t", "const"), SearchBounds(3, 3))
    assert isinstance(result, Countermodel)
    assert len(result.model.worlds) == 1
    assert len(result.model.universe) == 1


def test_find_countermodel_with_constants_and_functions():
    problem = qmf.parse_problem("qmf(con,conjecture,( p(g(c)) )).")
    result = find_countermodel(problem, config("t", "vary"), SearchBounds(2, 2))
    assert isinstance(result, Countermodel)
    model = result.model
    assert set(model.consts) == {"c"}
    assert all(name == "g" for name, _ in model.funcs)
    assert check_domains(model, DomainCondition.VARYING)


def test_find_countermodel_timeout():
    problem = qmf.parse_problem(
        "qmf(con,conjecture,( ! [X] : ? [Y] : ( q(X,Y) => q(Y,X) ) ))."
    )
    result = find_countermodel(
        problem, config("k", "const"), SearchBounds(3, 3, time_budget=1e-9)
    )
    assert isinstance(result, Timeout)


def test_find_countermodel_timeout_while_filtering_frames():
    # at five worlds, S5 keeps one of 2^25 relation masks, the last one
    problem = qmf.parse_problem("qmf(con,conjecture,( p | ~ ( p ) )).")
    start = time.monotonic()
    result = find_countermodel(
        problem, config("s5", "const"), SearchBounds(5, 1, time_budget=0.5)
    )
    assert isinstance(result, Timeout)
    assert time.monotonic() - start < 5


def test_find_countermodel_timeout_with_two_binary_functions():
    # at three individuals each binary function has 3^9 interpretations,
    # so their joint choices must be walked lazily, not listed up front
    problem = qmf.parse_problem(
        "qmf(con,conjecture,( ! [X] : ( p(f(X,X),g(X,X)) | ~ ( p(f(X,X),g(X,X)) ) ) ))."
    )
    start = time.monotonic()
    result = find_countermodel(
        problem, config("k", "const"), SearchBounds(1, 3, time_budget=0.5)
    )
    assert isinstance(result, Timeout)
    assert time.monotonic() - start < 5


def test_find_countermodel_timeout_while_listing_behaviors(monkeypatch):
    # six unary predicates at three worlds: 2^3 x 2^18 behaviours per frame;
    # S5 has one frame per size, so the search reaches them early.  From an
    # empty store, the 3-world listing meets its deadline after a fixed
    # number of checks, and the deadline leaves through the walk that lists;
    # the time budget only ends a search whose listing never checks
    monkeypatch.setattr(frames, "_LANES", {})
    lanes, ticks, left = kripke._lanes, itertools.count(), []

    def interrupted(worlds, universe, unary, dead, tick):
        def late():
            if len(worlds) == 3 and next(ticks) == 1000:
                raise kripke._Deadline

        try:
            return lanes(worlds, universe, unary, dead, late)
        except kripke._Deadline as deadline:
            left.append(traceback.extract_tb(deadline.__traceback__)[-2].name)
            raise

    monkeypatch.setattr(kripke, "_lanes", interrupted)
    body = " & ".join(f"( p{i}(X) | ~ ( p{i}(X) ) )" for i in range(6))
    problem = qmf.parse_problem(f"qmf(con,conjecture,( ! [X] : ( {body} ) )).")
    result = find_countermodel(problem, config("s5", "vary"), SearchBounds(3, 1, time_budget=5))
    assert isinstance(result, Timeout)
    assert left == ["_walk"]
    assert all(len(key[0]) < 3 for key in frames._LANES)  # nothing kept of it


@pytest.mark.parametrize(
    "conjecture",
    [
        # 2^27 extensions of a ternary predicate at three individuals, all
        # of whose tuples are read
        "! [X,Y,Z] : ( t(X,Y,Z) | ~ ( t(X,Y,Z) ) )",
        # 3^27 tables of a ternary function at three individuals
        "! [X] : ( p(h(X,X,X)) | ~ ( p(h(X,X,X)) ) )",
    ],
    ids=["ternary-predicate", "ternary-function"],
)
def test_find_countermodel_timeout_while_listing_options(conjecture):
    problem = qmf.parse_problem(f"qmf(con,conjecture,( {conjecture} )).")
    start = time.monotonic()
    result = find_countermodel(
        problem, config("k", "const"), SearchBounds(1, 3, time_budget=0.5)
    )
    assert isinstance(result, Timeout)
    assert time.monotonic() - start < 5


def ternary_function_search_peak(budget):
    """The tracemalloc peak of a search over the 3^27 tables of a ternary
    function at three individuals, run until the budget times it out."""
    problem = qmf.parse_problem(
        "qmf(con,conjecture,( ! [X,Y,Z] : ( p(h(X,Y,Z)) | ~ ( p(h(X,Y,Z)) ) ) ))."
    )
    tracemalloc.start()
    try:
        result = find_countermodel(
            problem, config("k", "const"), SearchBounds(1, 3, time_budget=budget)
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(result, Timeout)
    return peak


def test_find_countermodel_walks_function_tables_without_listing_them():
    # listing the tables grows by megabytes within the budget, walking
    # them lazily does not
    assert ternary_function_search_peak(1) < 1 << 20


def test_search_memory_does_not_grow_with_its_budget():
    # nothing the search keeps may grow with the choices it has visited;
    # a first short run takes the process's one-off allocations
    ternary_function_search_peak(0.1)
    short, long = ternary_function_search_peak(0.5), ternary_function_search_peak(2)
    assert long <= short + (64 << 10)


def test_find_countermodel_fills_only_read_slots():
    # the diagonal reads 3 of the 27 tuples, so 2^3 fills settle 1x3
    problem = qmf.parse_problem("qmf(con,conjecture,( ! [X] : ( t(X,X,X) | ~ ( t(X,X,X) ) ) )).")
    result = find_countermodel(
        problem, config("k", "const"), SearchBounds(1, 3, time_budget=0.5)
    )
    assert isinstance(result, NoCountermodelWithinBounds)


@pytest.mark.parametrize("max_worlds, max_individuals", [(2, 3), (3, 2)])
def test_find_countermodel_exhausts_barcan_on_binary_atom(max_worlds, max_individuals):
    # r(X,c) reads n of the n^2 tuples of r; filling every tuple, the
    # search settled neither size within the benchmark probes' 2 s budget
    problem = qmf.parse_problem(
        "qmf(con,conjecture,( ( ! [X] : ( #box : ( r(X,c) ) ) )"
        " => ( #box : ( ! [X] : ( r(X,c) ) ) ) ))."
    )
    result = find_countermodel(
        problem, config("k", "const"), SearchBounds(max_worlds, max_individuals, time_budget=20)
    )
    assert isinstance(result, NoCountermodelWithinBounds)


# signatures small enough for brute force at 2x2 and 3x1, covering each
# symbol kind and both sides of the individual-renaming symmetry
DIFFERENTIAL_SIGNATURES = (
    fml.Signature({"p": 0, "q": 1}, {}, ()),
    fml.Signature({"p": 1, "q": 1}, {}, ()),
    fml.Signature({"r": 2}, {}, ()),
    fml.Signature({"p": 1}, {}, ("c",)),
    fml.Signature({"p": 1}, {"g": 1}, ()),
    fml.Signature({"p": 0, "r": 2}, {}, ("c",)),
    fml.Signature({"q": 1}, {"g": 1}, ("c",)),
    fml.Signature({"p": 0, "q": 1}, {"g": 1}, ()),
)


# need two worlds and two individuals (E1) or a chain of three worlds
DIFFERENTIAL_FIXED = (
    E1,
    qmf.parse_problem("qmf(con,conjecture,( ( #dia : ( #dia : ( p ) ) ) => ( #dia : ( p ) ) ))."),
)


def differential_corpus(seed: int, count: int):
    """Each fixed problem under all 21 configs, then seeded draws of at
    most one axiom and an implication as conjecture."""
    r = helpers.make_rng(seed)
    configs = [TranslationConfig(l, d) for l, d in itertools.product(Logic, DomainCondition)]
    for problem in DIFFERENTIAL_FIXED:
        for cfg in configs:
            yield problem, cfg
    for i in range(count):
        sig = DIFFERENTIAL_SIGNATURES[i % len(DIFFERENTIAL_SIGNATURES)]
        yield differential_draw(r, sig), configs[i % len(configs)]


def differential_draw(r, sig):
    units = [
        fml.AnnotatedFormula("ax", "axiom", helpers.random_formula(r, sig, r.randint(1, 2)))
        for _ in range(r.randint(0, 1))
    ]
    goal = fml.Implies(
        helpers.random_formula(r, sig, r.randint(1, 2)),
        helpers.random_formula(r, sig, r.randint(1, 3)),
    )
    units.append(fml.AnnotatedFormula("con", "conjecture", goal))
    return fml.Problem(tuple(units))


def reachable_from(model, root):
    seen, frontier = {root}, [root]
    while frontier:
        u = frontier.pop()
        for a, v in model.rel:
            if a == u and v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen


def test_search_agrees_with_brute_force():
    for max_worlds, max_individuals in ((2, 2), (3, 1)):
        bounds = SearchBounds(max_worlds, max_individuals)
        sizes = set()
        for problem, cfg in differential_corpus(2211, 84):
            result = find_countermodel(problem, cfg, bounds)
            expected = helpers.brute_force_countermodel_size(
                problem, cfg, max_worlds, max_individuals
            )
            if expected is None:
                assert isinstance(result, NoCountermodelWithinBounds), (problem, cfg)
                continue
            assert isinstance(result, Countermodel), (problem, cfg)
            model = result.model
            assert (len(model.worlds), len(model.universe)) == expected, (problem, cfg)
            assert result.world == model.worlds[0]
            assert reachable_from(model, result.world) == set(model.worlds)
            sizes.add(expected)
        # the corpus reaches the bounds in both directions
        assert (max_worlds, max_individuals) in sizes and (1, 1) in sizes


def test_search_agrees_with_brute_force_on_two_functions():
    # the interpretations of g and h are chosen jointly and merged
    sig = fml.Signature({"q": 1}, {"g": 1, "h": 1}, ())
    r = helpers.make_rng(2214)
    configs = [TranslationConfig(l, d) for l, d in itertools.product(Logic, DomainCondition)]
    # refuted only at two individuals, where g and h can differ
    fixed = qmf.parse_problem(
        "qmf(con,conjecture,( ( ! [X] : ( q(g(X)) ) ) => ( ? [X] : ( q(h(X)) ) ) ))."
    )
    cases = [(fixed, cfg) for cfg in configs]
    cases += [(differential_draw(r, sig), configs[i * 5 % len(configs)]) for i in range(12)]
    for problem, cfg in cases:
        result = find_countermodel(problem, cfg, SearchBounds(2, 2))
        expected = helpers.brute_force_countermodel_size(problem, cfg, 2, 2)
        if expected is None:
            assert isinstance(result, NoCountermodelWithinBounds), (problem, cfg)
        else:
            assert isinstance(result, Countermodel), (problem, cfg)
            assert (len(result.model.worlds), len(result.model.universe)) == expected


class RecordingAtoms(dict):
    """Atom values that record each key read."""

    def __init__(self, atoms):
        super().__init__(atoms)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def random_fill(r, worlds, sig, universe, consts, funcs):
    """A labeller view with random successors, existence masks and atom
    values over every key of the signature, keeping consts and funcs."""
    n = len(worlds)
    atoms = {
        (p, *args): r.getrandbits(n)
        for p, k in sig.predicates.items()
        for args in itertools.product(universe, repeat=k)
    }
    exists = {x: r.getrandbits(n) for x in universe}
    return kripke._View(
        [r.getrandbits(n) for _ in worlds], exists, RecordingAtoms(atoms), consts, funcs
    )


def test_read_atoms_depend_only_on_constants_and_functions():
    # the search fills only the slots that one labelling pass reads, which
    # is sound only if no frame, existence mask or atom value changes them
    r = helpers.make_rng(2216)
    signatures = (
        fml.Signature({"p": 0, "q": 1, "r": 2}, {"g": 1}, ("c",)),
        fml.Signature({"q": 1, "r": 2}, {"f": 2}, ("c", "e")),
    )
    domains = tuple(DomainCondition)
    differed = 0
    for i in range(200):
        sig = signatures[i % len(signatures)]
        model = helpers.random_model(r, sig, domains[i % len(domains)])
        formula = helpers.random_formula(r, sig, r.randint(1, 4))
        label = kripke._labeller(formula)
        views = [
            random_fill(r, model.worlds, sig, model.universe, model.consts, model.funcs)
            for _ in range(2)
        ]
        labels = [label(view) for view in views]
        first, second = (view.atoms.read for view in views)
        assert first == second, formula
        every = sorted(
            (p, *args)
            for p, k in sig.predicates.items()
            for args in itertools.product(model.universe, repeat=k)
        )
        recorded = kripke._read_slots(
            model.worlds, model.universe, model.consts, model.funcs, [label], every
        )
        assert set(recorded) == first, formula
        differed += labels[0] != labels[1]
    # the fills do differ where it shows
    assert differed > 50


def lane_variants(r, base, sig, count):
    """Models on base's frame, universe, constants and functions, each with
    random domains and random extensions of every predicate."""
    variants = []
    for _ in range(count):
        dom = {w: frozenset(x for x in base.universe if r.random() < 0.5) for w in base.worlds}
        preds = {
            (name, w): frozenset(
                t for t in itertools.product(base.universe, repeat=arity) if r.random() < 0.5
            )
            for name, arity in sig.predicates.items()
            for w in base.worlds
        }
        variants.append(dataclasses.replace(base, dom=dom, preds=preds))
    return variants


def packed_view(models):
    """One view holding models[c] in lane c: bit c*n + i is world i of model c."""
    n = len(models[0].worlds)
    views = [model.view for model in models]

    def pack(field):
        keys = dict.fromkeys(key for view in views for key in getattr(view, field))
        return {
            key: sum(getattr(view, field).get(key, 0) << n * c for c, view in enumerate(views))
            for key in keys
        }

    ones = sum(1 << n * c for c in range(len(models)))
    first = views[0]
    return kripke._View(
        first.successors, pack("exists"), pack("atoms"), first.consts, first.funcs, ones
    )


@pytest.mark.parametrize("lanes", [1, kripke._WIDTH + 3], ids=["one-lane", "past-a-chunk"])
def test_packed_labelling_agrees_lane_by_lane(lanes):
    # every lane of a packed view labels as its model does alone, through
    # boxes, diamonds, quantifiers, constants and functions, and fails the
    # clauses of every domain condition as its model does, message by
    # message; the wide case holds more lanes than one search chunk
    r = helpers.make_rng(2218)
    sig = fml.Signature({"p": 0, "q": 1, "r": 2}, {"g": 1}, ("c",))
    rounds, formulas = (40, 6) if lanes == 1 else (3, 4)
    for _ in range(rounds):
        base = helpers.random_model(r, sig, DomainCondition.VARYING)
        models = [base, *lane_variants(r, base, sig, lanes - 1)]
        view = packed_view(models)
        n, full = len(base.worlds), (1 << len(base.worlds)) - 1
        for domain in DomainCondition:
            faults = list(
                kripke._domain_faults(
                    base.worlds,
                    view.successors,
                    view.exists,
                    view.consts,
                    view.funcs,
                    domain,
                    view.ones,
                )
            )
            for c, model in enumerate(models):
                messages = [message for failing, message in faults if failing >> n * c & 1]
                assert messages == list(domain_violations(model, domain)), (domain, c)
        for _ in range(formulas):
            formula = helpers.random_formula(r, sig, r.randint(1, 4))
            packed = kripke._labeller(formula)(view)
            for c, model in enumerate(models):
                assert packed >> n * c & full == label_fml(model, formula), (formula, c)


def test_lanes_walk_the_combinations_in_order_across_chunks():
    # at one individual the lanes are the behaviours in order; at two they
    # are the behaviours' combinations with replacement, in order, over
    # several chunks, and a second walk reads the chunks the first packed
    worlds, successors, unary = ("w1", "w2"), [0b11, 0b10], ["p", "q"]

    def walk(universe):
        chunks = kripke._lanes(worlds, universe, unary, 0, lambda: None)
        lanes = []
        for ones, exists, atoms in chunks():
            view = kripke._View(successors, exists, atoms, {}, {}, ones)
            for c in range(ones.bit_count()):
                lane = view.lane(1 << len(worlds) * c)
                lanes.append(
                    tuple((lane.exists[x], *(lane.atoms[p, x] for p in unary)) for x in universe)
                )
        return lanes, chunks

    behaviours = [b for (b,) in walk(("d1",))[0]]
    assert len(behaviours) == 4 * 16
    combinations, chunks = walk(("d1", "d2"))
    assert len(combinations) > 4 * kripke._WIDTH
    assert combinations == list(itertools.combinations_with_replacement(behaviours, 2))
    assert all(a is b for a, b in zip(chunks(), chunks()))


def test_search_packs_again_only_when_the_admitted_vectors_change(monkeypatch):
    # under cumulative domains the existence vectors an individual may take
    # depend on the frame, and the behaviours are packed once per run of
    # frames that admit the same vectors: a vector (a world mask) is
    # admitted when every world in it sees only worlds in it
    calls = []
    lanes = kripke._lanes
    monkeypatch.setattr(kripke, "_lanes", lambda *args: calls.append(args) or lanes(*args))
    result = find_countermodel(E1, config("k", "cumul"), SearchBounds(3, 1))
    assert isinstance(result, NoCountermodelWithinBounds)
    changes = 0
    for n in (1, 2, 3):
        last = None
        for successors in frames._rooted(n, Logic.K, lambda: None):
            admitted = {
                v
                for v in range(1 << n)
                if all(successors[u] & ~v == 0 for u in range(n) if v >> u & 1)
            }
            changes += admitted != last
            last = admitted
    assert len(calls) == changes


def tautology(predicates):
    """( p0(X) | ~ ( p0(X) ) ) & ... under one universal quantifier: as many
    unary predicates as asked for, and no countermodel."""
    body = " & ".join(f"( p{i}(X) | ~ ( p{i}(X) ) )" for i in range(predicates))
    return qmf.parse_problem(f"qmf(con,conjecture,( ! [X] : ( {body} ) )).")


def calls_of(monkeypatch, name):
    """The argument tuples of every later call of frames.<name>."""
    calls, original = [], getattr(frames, name)
    monkeypatch.setattr(frames, name, lambda *args: calls.append(args) or original(*args))
    return calls


def test_a_second_search_replays_the_stored_chunks(monkeypatch):
    # the behaviours of a key are listed and packed once per process: a
    # second search of E1 at 3x3 lists and packs nothing, and it ends the
    # same way, with the same countermodel where there is one
    monkeypatch.setattr(frames, "_LANES", {})
    walks, packs = calls_of(monkeypatch, "_walk"), calls_of(monkeypatch, "_pack")
    for cfg in (config("k", "const"), config("k", "vary")):
        listed, packed = len(walks), len(packs)
        first = find_countermodel(E1, cfg, SearchBounds(3, 3))
        assert len(walks) > listed and len(packs) > packed
        listed, packed = len(walks), len(packs)
        second = find_countermodel(E1, cfg, SearchBounds(3, 3))
        assert (len(walks), len(packs)) == (listed, packed)
        assert type(first) is type(second)
        if isinstance(first, Countermodel):
            assert print_model(first.model) == print_model(second.model)


def test_a_deadline_while_listing_leaves_no_entry(monkeypatch):
    # with the bound lifted, only the deadline keeps the six-predicate
    # behaviours at 3 worlds (2^3 x 2^18) out of the store: it fires while
    # they are listed, and the sizes listed before stay stored
    monkeypatch.setattr(frames, "_LANES", {})
    monkeypatch.setattr(frames, "_BOUND", 1 << 30)
    walks = calls_of(monkeypatch, "_walk")
    bounds = SearchBounds(3, 1, time_budget=0.15)
    result = find_countermodel(tautology(6), config("s5", "vary"), bounds)
    assert isinstance(result, Timeout)
    assert [len(worlds) for worlds, *_ in walks] == [1, 2, 3]
    assert [len(worlds) for worlds, *_ in frames._LANES] == [1, 2]


def test_a_search_heavier_than_the_bound_keeps_nothing(monkeypatch):
    # five predicates at 3 worlds under varying domains, one individual:
    # 2^3 x 2^15 behaviours, charged 2^19 units, past the bound, so they are
    # walked and dropped with the search; kept, their lanes would hold 1.2 MB
    monkeypatch.setattr(frames, "_LANES", {})
    problem, cfg = tautology(5), config("s5", "vary")
    find_countermodel(problem, cfg, SearchBounds(2, 1))  # the smaller sizes' entries
    gc.collect()
    tracemalloc.start()
    try:
        result = find_countermodel(problem, cfg, SearchBounds(3, 1))
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(result, NoCountermodelWithinBounds)
    assert [len(worlds) for worlds, *_ in frames._LANES] == [1, 2]
    assert retained < 1 << 20


def test_the_store_evicts_whole_entries_oldest_first(monkeypatch):
    # one individual at 2 worlds: a key with a admitted vectors and u unary
    # predicates lists a x 4^u behaviours and walks as many lanes, and is
    # charged both; a hit moves nothing, and a key heavier than the bound
    # is walked but neither stored nor the cause of an eviction
    monkeypatch.setattr(frames, "_LANES", {})
    monkeypatch.setattr(frames, "_BOUND", 100)
    worlds, universe = ("w1", "w2"), ("d1",)

    def dead(*vectors):
        return sum(1 << len(worlds) * v for v in vectors)

    keys = {
        "A": (["p"], dead()),
        "B": (["q"], dead()),
        "C": (["p"], dead(0)),
        "D": (["p"], dead(0, 1, 2)),
        "E": (["r"], dead()),
        "F": (["s"], dead()),
        "G": (["p", "q"], dead()),
    }
    names = {(worlds, universe, tuple(u), mask): name for name, (u, mask) in keys.items()}
    walks = {}
    steps = ["A", "B", "C", "D", "E", "B", "F", "G"]
    stores = ["A", "AB", "ABC", "ABCD", "BCDE", "BCDE", "CDEF", "CDEF"]
    for name, expected in zip(steps, stores):
        unary, mask = keys[name]
        chunks = frames._lanes(worlds, universe, unary, mask, lambda: None)
        assert walks.setdefault(name, chunks) is chunks
        assert "".join(names[key] for key in frames._LANES) == expected
        lanes = sum(ones.bit_count() for ones, _, _ in chunks())
        assert lanes == (4 - mask.bit_count()) * 4 ** len(unary)
        charges = {names[key]: charge for key, (charge, _) in frames._LANES.items()}
        assert charges.get(name, 2 * lanes) == 2 * lanes
        assert sum(charges.values()) <= frames._BOUND


def test_check_prints_the_same_from_a_cold_and_a_warm_store(monkeypatch, tmp_path, capsys):
    # what check prints for E1 under all 21 configs at 4x1 and 3x2 is the
    # same with the store emptied before each run as after two passes that
    # keep it: a stored chunk replays what a fresh one holds
    path = tmp_path / "e1.qmf"
    path.write_text(
        "qmf(con,conjecture,( ( ! [X] : ( #box : ( f(X) ) ) )"
        " => ( #box : ( ! [X] : ( f(X) ) ) ) )).\n",
        encoding="utf-8",
    )
    monkeypatch.setattr(frames, "_LANES", {})
    runs = [
        ["check", str(path), "-f", f"thf:{logic.tag}:{domain.tag}",
         "--max-worlds", worlds, "--max-individuals", individuals]
        for logic in Logic
        for domain in DomainCondition
        for worlds, individuals in (("4", "1"), ("3", "2"))
    ]

    def printed(argv):
        code = cli.main(argv)
        return code, capsys.readouterr()

    cold = []
    for argv in runs:
        frames._LANES.clear()
        cold.append(printed(argv))
    assert any("% SZS status CounterSatisfiable" in out for _, (out, _) in cold)
    for _ in range(2):
        assert [printed(argv) for argv in runs] == cold


def test_search_takes_the_least_lane_before_the_earliest_fill():
    # at 1x1, lane 0 (f nowhere) is refuted only with q true, the second
    # fill of q, while lane 1 (f at w1) is refuted with q false, the first
    # fill; plain brute force in candidate order (behaviours, then fills)
    # meets lane 0 first, and so must the packed search
    problem = qmf.parse_problem(
        "qmf(con,conjecture,( ~ ( ( q & ( ! [X] : ( ~ ( f(X) ) ) ) )"
        " | ( ~ ( q ) & ( ? [X] : ( f(X) ) ) ) ) ))."
    )
    cfg = config("k", "const")
    result = find_countermodel(problem, cfg, SearchBounds(1, 1))
    assert isinstance(result, Countermodel)
    assert print_model(result.model) == "worlds: w1\nuniverse: d1\ndom w1: d1\npred q @ w1: ()\n"
    later = parse_model("worlds: w1\nuniverse: d1\npred f @ w1: d1\n")
    assert countermodel_violations(problem, cfg, Countermodel(later, "w1")) == ()


def sparse_atoms(r, f: fml.Formula, pred: str, arity: int) -> fml.Formula:
    """f with each atom s(t) replaced by pred(t,...,t,t) or pred(t,...,t,c):
    the predicate is read only at diagonal tuples and at tuples ending in c."""
    if isinstance(f, fml.Atom):
        (t,) = f.args
        last = t if r.random() < 0.5 else fml.Constant("c")
        return fml.Atom(pred, (t,) * (arity - 1) + (last,))
    if isinstance(f, (fml.Not, fml.Box, fml.Dia)):
        return type(f)(sparse_atoms(r, f.body, pred, arity))
    if isinstance(f, (fml.And, fml.Or, fml.Implies)):
        return type(f)(sparse_atoms(r, f.left, pred, arity), sparse_atoms(r, f.right, pred, arity))
    return type(f)(f.var, sparse_atoms(r, f.body, pred, arity))


# the Barcan formula over r(X,c), refuted only at 2x2 (varying)
SPARSE_FIXED = qmf.parse_problem(
    "qmf(con,conjecture,( ( ! [X] : ( #box : ( r(X,c) ) ) ) => ( #box : ( ! [X] : ( r(X,c) ) ) ) ))."
)


def sparse_draws() -> list[fml.Problem]:
    """Seeded differential draws over s(t), rewritten by sparse_atoms: 21
    with the binary predicate r, then 21 with the ternary predicate t."""
    r = helpers.make_rng(2217)
    sig = fml.Signature({"s": 1}, {}, ("c",))
    draws = []
    for pred, arity in (("r", 2), ("t", 3)):
        for _ in range(21):
            units = tuple(
                dataclasses.replace(u, formula=sparse_atoms(r, u.formula, pred, arity))
                for u in differential_draw(r, sig).units
            )
            draws.append(fml.Problem(units))
    return draws


def sparse_corpus():
    """The fixed problem under all 21 configs, then each draw under one."""
    configs = [TranslationConfig(l, d) for l, d in itertools.product(Logic, DomainCondition)]
    cases = [(SPARSE_FIXED, cfg) for cfg in configs]
    cases += [(problem, configs[i % len(configs)]) for i, problem in enumerate(sparse_draws())]
    return cases


def test_search_agrees_with_brute_force_on_unread_slots():
    # binary predicates at 2x2, ternary ones at 2x1 and 1x2
    sizes = set()
    for problem, cfg in sparse_corpus():
        ternary = problem.signature.predicates.get("t") == 3
        for bounds in ((2, 1), (1, 2)) if ternary else ((2, 2),):
            result = find_countermodel(problem, cfg, SearchBounds(*bounds))
            expected = helpers.brute_force_countermodel_size(problem, cfg, *bounds)
            if expected is None:
                assert isinstance(result, NoCountermodelWithinBounds), (problem, cfg, bounds)
                continue
            assert isinstance(result, Countermodel), (problem, cfg, bounds)
            model = result.model
            assert (len(model.worlds), len(model.universe)) == expected, (problem, cfg, bounds)
            sizes.add((ternary, expected))
    assert {(False, (1, 1)), (False, (2, 2)), (True, (1, 2))} <= sizes, sizes


# SHA-1 over each problem's printed countermodel, or its verdict when
# none is found, per config: recorded by a search that filled every slot
COUNTERMODEL_DIGESTS = {
    "k:const": "8abf64d4ffa5e235a82fd08c16f9ed08c4127a24",
    "k:vary": "35323c0e2725d13527f55faa6b93de28ebed72c3",
    "k:cumul": "35323c0e2725d13527f55faa6b93de28ebed72c3",
    "k4:const": "40e7a40c613bd68ec1f0bd1efcd66f4eaf811687",
    "k4:vary": "da7c362d102e57a6051fea8cc2a3662ef75d490a",
    "k4:cumul": "da7c362d102e57a6051fea8cc2a3662ef75d490a",
    "d:const": "bb82f775e63a1a792d2496faed662c061e8f724c",
    "d:vary": "ce82fcf349224ecb7355010fc5f76d6f9ca91a5c",
    "d:cumul": "eb8fb0f8fcd047a0fa4ac7b11aa3d116a7be9ad8",
    "d4:const": "84d46fbcfe8bcc7287e04eb2b3ee06c15f90ea59",
    "d4:vary": "7b79a3e80c64fba1a6926f14834e9e0157ef2f01",
    "d4:cumul": "7b79a3e80c64fba1a6926f14834e9e0157ef2f01",
    "t:const": "774324147cc8137bbebb50cfa0d90df04719d9d5",
    "t:vary": "100d4c95c77c141b463e020d70abb547187d3665",
    "t:cumul": "100d4c95c77c141b463e020d70abb547187d3665",
    "s4:const": "774324147cc8137bbebb50cfa0d90df04719d9d5",
    "s4:vary": "100d4c95c77c141b463e020d70abb547187d3665",
    "s4:cumul": "100d4c95c77c141b463e020d70abb547187d3665",
    "s5:const": "26d291d5f82dfe5680c594aaa11008e1c172aa6c",
    "s5:vary": "c4bce90a8b2143953ebe1622126c8155a75a12fc",
    "s5:cumul": "26d291d5f82dfe5680c594aaa11008e1c172aa6c",
}


def test_countermodel_digests():
    # every printed countermodel of the unread-slot corpus at 2x2, pinned
    # from before the search filled only read slots
    problems = [SPARSE_FIXED, *sparse_draws()]
    got = {}
    for logic, domain in itertools.product(Logic, DomainCondition):
        cfg = TranslationConfig(logic, domain)
        digest = hashlib.sha1()
        for problem in problems:
            result = find_countermodel(problem, cfg, SearchBounds(2, 2))
            if isinstance(result, Countermodel):
                digest.update(print_model(result.model).encode())
            else:
                digest.update(type(result).__name__.encode())
        got[cfg.name] = digest.hexdigest()
    assert got == COUNTERMODEL_DIGESTS


# refuted at 2 worlds under K and D and at 3 under T; valid on transitive frames
DIAMOND_CHAIN = qmf.parse_problem(
    "qmf(con,conjecture,( ( #dia : ( #dia : ( #dia : ( p ) ) ) ) => ( #dia : ( p ) ) ))."
)


def test_search_prints_the_same_countermodels_on_all_frames(monkeypatch):
    # the search on every rooted frame, renamings included, against the
    # search on the least frame of each class: at sizes where w2..wn can be
    # renamed, the same printed countermodel or the same result type
    configs = [TranslationConfig(l, d) for l, d in itertools.product(Logic, DomainCondition)]
    cases = [*differential_corpus(2211, 84), *((DIAMOND_CHAIN, cfg) for cfg in configs)]

    def outcomes():
        for bounds in ((3, 1), (3, 2), (4, 1)):
            for problem, cfg in cases:
                result = find_countermodel(problem, cfg, SearchBounds(*bounds))
                if isinstance(result, Countermodel):
                    yield print_model(result.model)
                else:
                    yield type(result).__name__

    least = list(outcomes())
    monkeypatch.setattr(kripke, "_rooted", lambda n, logic, tick: plain_frames(n, logic))
    assert list(outcomes()) == least
    # renamings exist from 3 worlds on, so the comparison must reach them
    assert sum(text.startswith("worlds: w1 w2 w3") for text in least) >= 10


def test_countermodels_reverify_over_fuzz():
    r = helpers.make_rng(2212)
    bounds = SearchBounds(2, 2)
    found = 0
    for _ in range(40):
        problem = helpers.random_problem(r, max_units=2, depth=2)
        if problem.conjecture() is None:
            continue
        cfg = TranslationConfig(r.choice(tuple(Logic)), r.choice(tuple(DomainCondition)))
        result = find_countermodel(problem, cfg, bounds)
        if isinstance(result, Countermodel):
            found += 1
            assert countermodel_violations(problem, cfg, result) == ()
            assert helpers.reference_countermodel_faults(problem, cfg, result) == []
    assert found > 5


# E1 with an axiom, and its first countermodel under t:vary at 2x2
E1_WITH_AXIOM = qmf.parse_problem(
    f"qmf(ax,axiom,( ? [X] : ( g(X) ) )). qmf(con,conjecture,( {qmf.print_formula(E1_BODY)} ))."
)
E1_COUNTERMODEL = parse_model("""\
worlds: w1 w2
rel: w1>w1 w1>w2 w2>w2
universe: d1 d2
dom w1: d2
pred f @ w1: d2
pred f @ w2: d2
pred g @ w1: d2
pred g @ w2: d2
""")


def test_countermodel_violations_name_each_fault():
    cfg = config("t", "vary")
    found = find_countermodel(E1_WITH_AXIOM, cfg, SearchBounds(2, 2))
    assert found == Countermodel(E1_COUNTERMODEL, "w1")
    assert countermodel_violations(E1_WITH_AXIOM, cfg, found) == ()
    model = E1_COUNTERMODEL
    tampered = {
        "not reflexive: missing w2>w2": dataclasses.replace(model, rel=model.rel - {("w2", "w2")}),
        "axiom ax is false at w2": dataclasses.replace(
            model, preds={**model.preds, ("g", "w2"): ()}
        ),
        # f(d1) at w2 makes the consequent, so the conjecture, true at w1
        "conjecture con holds at the witness w1": dataclasses.replace(
            model, preds={**model.preds, ("f", "w2"): {("d1",), ("d2",)}}
        ),
    }
    for message, changed in tampered.items():
        got = countermodel_violations(E1_WITH_AXIOM, cfg, Countermodel(changed, "w1"))
        assert got == (message,)
    got = countermodel_violations(E1_WITH_AXIOM, cfg, Countermodel(model, "w9"))
    assert got == ("witness w9 is not a world of the model",)


def test_find_countermodel_rejects_a_model_that_fails_the_check(monkeypatch):
    # the search's winner goes through countermodel_violations before it is returned
    broken = dataclasses.replace(E1_COUNTERMODEL, rel=E1_COUNTERMODEL.rel - {("w2", "w2")})
    monkeypatch.setattr(kripke, "_search", lambda *args: broken)
    with pytest.raises(AssertionError, match="internal error: not reflexive: missing w2>w2"):
        find_countermodel(E1_WITH_AXIOM, config("t", "vary"), SearchBounds(2, 2))


def test_parse_model_round_trip():
    text = """\
# two worlds, growing domains
worlds: w v
rel: w>v
universe: a b
dom w: a
dom v: a b
const c = a
fun g(a) = a
fun g(b) = a
pred f @ w: a
pred r @ v: a,b
pred z @ w: ()
"""
    model = parse_model(text)
    assert model.worlds == ("w", "v")
    assert model.rel == frozenset({("w", "v")})
    assert model.dom["w"] == frozenset({"a"})
    assert model.consts == {"c": "a"}
    assert model.funcs[("g", ("b",))] == "a"
    assert model.preds[("r", "v")] == frozenset({("a", "b")})
    assert model.preds[("z", "w")] == frozenset({()})
    assert parse_model(print_model(model)) == model


def test_parse_model_defaults_domain_to_universe():
    model = parse_model("worlds: w\nuniverse: a b\n")
    assert model.dom["w"] == frozenset({"a", "b"})


def test_parse_model_errors_carry_line_numbers():
    with pytest.raises(ModelError, match="line 2: bad relation entry"):
        parse_model("worlds: w\nrel: wv\nuniverse: a\n")
    with pytest.raises(ModelError, match="line 3: worlds line given twice"):
        parse_model("worlds: w\nuniverse: a\nworlds: v\n")
    with pytest.raises(ModelError, match="line 4: dom w given twice"):
        parse_model("worlds: w\nuniverse: a\ndom w: a\ndom w: a\n")
    with pytest.raises(ModelError, match="unrecognized line"):
        parse_model("worlds: w\nuniverse: a\nhello\n")
    with pytest.raises(ModelError, match="bad const line"):
        parse_model("worlds: w\nuniverse: a\nconst c a\n")
    with pytest.raises(ModelError, match="bad fun line"):
        parse_model("worlds: w\nuniverse: a\nfun g = a\n")
    with pytest.raises(ModelError, match="bad pred line"):
        parse_model("worlds: w\nuniverse: a\npred f w: a\n")
    with pytest.raises(ModelError, match="missing worlds"):
        parse_model("universe: a\n")
    with pytest.raises(ModelError, match="missing universe"):
        parse_model("worlds: w\n")
    head = "worlds: w\nuniverse: a\n"
    exact = {
        "worlds: w\nuniverse: a\nuniverse: b\n": "line 3: universe line given twice",
        head + "dom w a\n": "line 3: bad dom line (expected 'dom <world>: members')",
        head + "dom : a\n": "line 3: bad dom line (expected 'dom <world>: members')",
        head + "const c = a\nconst c = a\n": "line 4: const c given twice",
        head + "fun g(a,) = a\n": "line 3: bad argument list 'a,'",
        head + "fun g(a) = a\nfun g(a) = a\n": "line 4: fun g(a) given twice",
        head + "pred f @ w: a,,a\n": "line 3: bad predicate entry 'a,,a'",
    }
    for text, message in exact.items():
        with pytest.raises(ModelError) as caught:
            parse_model(text)
        assert str(caught.value) == message


def test_print_model_round_trip_fuzz():
    r = helpers.make_rng(2213)
    for _ in range(60):
        sig = helpers.random_signature(r)
        domain = r.choice(tuple(DomainCondition))
        model = helpers.random_model(r, sig, domain)
        assert parse_model(print_model(model)) == model


def test_print_model_is_deterministic_and_ordered():
    model = KripkeModel(
        ("w2", "w1"),
        frozenset({("w1", "w1"), ("w2", "w1")}),
        ("b", "a"),
        {"w1": frozenset({"a", "b"}), "w2": frozenset({"b"})},
        preds={("p", "w1"): frozenset({("a",), ("b",)})},
    )
    text = print_model(model)
    assert text.splitlines()[0] == "worlds: w2 w1"
    assert "rel: w2>w1 w1>w1" in text  # declaration order of worlds
    assert "pred p @ w1: b a" in text  # universe order of individuals
