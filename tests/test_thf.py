"""Concrete-syntax emission: parenthesization, wrapping, and file layouts."""

import dataclasses
import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

import helpers
import thf_reader
from fml2hol import embedding, hol, qmf, thf
from fml2hol.embedding import TranslationConfig, parse_domain, parse_logic
from fml2hol.hol import (
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

E1 = qmf.parse_problem(
    "qmf(con,conjecture,("
    " ( ! [X] : ( #box : ( f(X) ) ) ) => ( #box : ( ! [X] : ( f(X) ) ) ) ))."
)


def config(logic: str, domain: str) -> TranslationConfig:
    return TranslationConfig(parse_logic(logic), parse_domain(domain))


def embed(problem, logic, domain) -> hol.Problem:
    return embedding.embed_problem(problem, config(logic, domain))


def test_emit_atomic_terms():
    assert thf.emit_term(Const("p", PROP)) == "p"
    assert thf.emit_term(Var("W", WORLD)) == "W"


def test_emit_application_spine():
    rel = Const("rel_d", fn(WORLD, WORLD, TRUTH))
    term = apply(rel, Var("W", WORLD), Var("V", WORLD))
    assert thf.emit_term(term) == "rel_d @ W @ V"


def test_emit_non_atomic_argument_parenthesized():
    f = Const("f", fn(INDIV, PROP))
    g = Const("g", fn(INDIV, INDIV))
    term = apply(f, App(g, Const("c", INDIV)), Var("W", WORLD))
    assert thf.emit_term(term) == "f @ ( g @ c ) @ W"


def test_emit_trailing_binder_argument_bare():
    head = Const("mforall_ind", fn(fn(INDIV, PROP), PROP))
    lam = Lambda("X", INDIV, App(Const("f", fn(INDIV, PROP)), Var("X", INDIV)))
    term = App(head, lam)
    assert thf.emit_term(term) == "mforall_ind @ ^ [X: mu] : ( f @ X )"


def test_emit_non_trailing_binder_argument_parenthesized():
    head = Const("h", fn(fn(INDIV, TRUTH), INDIV, TRUTH))
    lam = Lambda("X", INDIV, Const("t", TRUTH))
    term = apply(head, lam, Const("c", INDIV))
    assert thf.emit_term(term) == "h @ ( ^ [X: mu] : ( t ) ) @ c"


def test_emit_non_atomic_head_parenthesized():
    lam = Lambda("X", INDIV, Var("X", INDIV))
    term = App(lam, Const("c", INDIV))
    assert thf.emit_term(term) == "( ^ [X: mu] : ( X ) ) @ c"


def test_emit_mforall_body_matches_published_form():
    got = thf.emit_term(
        Lambda(
            "Phi",
            fn(INDIV, WORLD, TRUTH),
            Lambda(
                "W",
                WORLD,
                Forall(
                    "X",
                    INDIV,
                    apply(Var("Phi", fn(INDIV, WORLD, TRUTH)), Var("X", INDIV), Var("W", WORLD)),
                ),
            ),
        )
    )
    assert got == "^ [Phi: mu > $i > $o,W: $i] : ! [X: mu] : ( Phi @ X @ W )"


def test_same_class_binders_merge_only():
    term = Forall("U", WORLD, Exists("V", WORLD, Forall("W", WORLD, Const("t", TRUTH))))
    assert thf.emit_term(term) == "! [U: $i] : ? [V: $i] : ! [W: $i] : ( t )"
    merged = Forall("U", WORLD, Forall("V", WORLD, Const("t", TRUTH)))
    assert thf.emit_term(merged) == "! [U: $i,V: $i] : ( t )"


def test_emit_not_forms():
    assert thf.emit_term(Not(Const("p", TRUTH))) == "~ p"
    inner = App(Const("f", fn(INDIV, TRUTH)), Const("c", INDIV))
    assert thf.emit_term(Not(inner)) == "~ ( f @ c )"
    assert thf.emit_term(Not(Not(Const("p", TRUTH)))) == "~ ( ~ p )"


def test_emit_binary_operand_parenthesization():
    p, q, r = Const("p", TRUTH), Const("q", TRUTH), Const("r", TRUTH)
    assert thf.emit_term(Or(Not(p), q)) == "~ p | q"
    assert thf.emit_term(Implies(And(p, q), r)) == "( p & q ) => r"
    assert thf.emit_term(And(p, Or(q, r))) == "p & ( q | r )"


def test_emit_unit_kinds():
    decl = Unit.type_decl("f_type", "f", fn(INDIV, WORLD, TRUTH))
    assert thf.emit_unit(decl) == "thf(f_type,type,( f: mu > $i > $o ))."
    defn = Unit.definition("idd", "idd", Lambda("X", INDIV, Var("X", INDIV)))
    assert thf.emit_unit(defn) == "thf(idd,definition,( idd = ( ^ [X: mu] : ( X ) ) ))."
    ax = Unit.formula("ax", "axiom", Const("p", TRUTH))
    assert thf.emit_unit(ax) == "thf(ax,axiom,( p ))."
    hyp = Unit.formula("h", "hypothesis", Const("p", TRUTH))
    assert thf.emit_unit(hyp) == "thf(h,hypothesis,( p ))."


def test_type_printing_higher_order_argument():
    decl = Unit.type_decl("v_type", "v", fn(PROP, TRUTH))
    assert thf.emit_unit(decl) == "thf(v_type,type,( v: ( $i > $o ) > $o ))."


def test_golden_conjecture_d_const():
    text = thf.emit_problem(embed(E1, "d", "const")).problem_text
    assert (
        "thf(prove,conjecture,( mvalid @ ( mimplies @ ( mforall_ind @ ^ [X: mu] :"
        " ( mbox_d @ ( f @ X ) ) ) @ ( mbox_d @ ( mforall_ind @ ^ [X: mu] :"
        " ( f @ X ) ) ) ) ))." in text.replace("\n    ", " ")
    )
    assert "thf(f_type,type,( f: mu > $i > $o ))." in text


def test_golden_box_definition():
    text = thf.emit_problem(embed(E1, "d", "const")).problem_text
    assert (
        "thf(mbox_d,definition,( mbox_d = ( ^ [Phi: $i > $o,W: $i] : ! [V: $i] :"
        " ( ~ ( rel_d @ W @ V ) | ( Phi @ V ) ) ) ))."
        in text.replace("\n    ", " ")
    )


def test_wrapping_keeps_token_stream():
    problem = embed(E1, "s5", "cumul")
    wide = thf.emit_problem(problem, width=10_000).problem_text
    narrow = thf.emit_problem(problem, width=60).problem_text
    assert any(len(line) > 60 for line in wide.splitlines())
    assert all(len(line) <= 60 for line in narrow.splitlines())
    assert thf_reader.lex(wide) == thf_reader.lex(narrow)
    for line in narrow.splitlines():
        if not line.startswith(("thf(", "include(")):
            assert line.startswith("    ")


def test_emission_is_deterministic():
    problem = embed(E1, "t", "vary")
    assert thf.emit_problem(problem) == thf.emit_problem(problem)


def test_empty_problem_inline():
    assert thf.emit_problem(hol.Problem(())).problem_text == ""


def test_include_mode_layout():
    out = thf.emit_problem(embed(E1, "d", "const"), mode=thf.Include("Axioms", "E1"))
    lines = out.problem_text.splitlines()
    assert lines[0] == "include('Axioms/E1_const.ax')."
    assert lines[1] == "include('Axioms/E1_d.ax')."
    assert lines[2] == ""
    assert lines[3].startswith("thf(f_type,")
    (domain_path, domain_text), (logic_path, logic_text) = out.axiom_files
    assert domain_path == "Axioms/E1_const.ax"
    assert logic_path == "Axioms/E1_d.ax"
    assert "thf(mvalid," in domain_text
    assert "thf(mbox_d," in logic_text
    assert "thf(a1," in logic_text


def test_include_mode_empty_axiom_dir():
    out = thf.emit_problem(embed(E1, "k", "vary"), mode=thf.Include("", "probe"))
    assert out.problem_text.splitlines()[0] == "include('probe_vary.ax')."
    assert out.axiom_files[0][0] == "probe_vary.ax"


def test_include_mode_groups_by_reusability():
    problem = qmf.parse_problem(
        "qmf(con,conjecture,( ! [X] : ( p(g(X)) | p(c) ) ))."
    )
    out = thf.emit_problem(embed(problem, "s4", "cumul"), mode=thf.Include("ax", "m"))
    (_, domain_text), (_, logic_text) = out.axiom_files
    assert "nonempty_ax" in domain_text
    assert "cumulative_ax" in logic_text
    # designation and closure mention user symbols: problem file only
    assert "designation_c" not in domain_text + logic_text
    assert "designation_c" in out.problem_text
    assert "closure_g" in out.problem_text
    names = [
        line.split(",")[0][len("thf(") :]
        for line in out.problem_text.splitlines()
        if line.startswith("thf(")
    ]
    assert names.index("c_type") < names.index("designation_c")


def test_include_concatenation_is_well_formed():
    for logic, domain in (("d", "const"), ("s5", "vary"), ("k4", "cumul")):
        out = thf.emit_problem(embed(E1, logic, domain), mode=thf.Include("ax", "e"))
        body = "\n".join(
            line for line in out.problem_text.splitlines() if not line.startswith("include(")
        )
        concat = "\n".join(text for _, text in out.axiom_files) + "\n" + body
        hol.check_problem(thf_reader.read_problem(concat))


def test_include_axiom_file_names_follow_config():
    out = thf.emit_problem(embed(E1, "k4", "cumul"), mode=thf.Include("lib", "e1"))
    assert [path for path, _ in out.axiom_files] == [
        "lib/e1_cumul.ax",
        "lib/e1_k4.ax",
    ]


def test_include_mode_requires_embedded_problem():
    bare = hol.Problem((Unit.type_decl("p_type", "p", TRUTH),))
    with pytest.raises(ValueError, match="embedded problem"):
        thf.emit_problem(bare, mode=thf.Include("ax", "x"))


def test_include_mode_requires_basename():
    with pytest.raises(ValueError, match="basename"):
        thf.Include("ax", "")


def test_include_lines_escape_quote_and_backslash():
    # TPTP single-quoted atoms escape ' and \ with a backslash; the
    # files themselves keep their plain names
    out = thf.emit_problem(embed(E1, "k", "vary"), mode=thf.Include("x\\y", "it's"))
    assert out.problem_text.splitlines()[:2] == [
        "include('x\\\\y/it\\'s_vary.ax').",
        "include('x\\\\y/it\\'s_k.ax').",
    ]
    assert [path for path, _ in out.axiom_files] == ["x\\y/it's_vary.ax", "x\\y/it's_k.ax"]


@pytest.mark.parametrize(
    "axiom_dir, basename",
    [("ax", "café"), ("tab\there", "e1"), ("ax", "nl\n")],
    ids=["non-ascii", "tab", "newline"],
)
def test_include_mode_rejects_non_printable_ascii(axiom_dir, basename):
    with pytest.raises(ValueError, match="include path .* is not printable ASCII"):
        thf.Include(axiom_dir, basename)


def test_reread_roundtrip_all_configs():
    for logic in embedding.Logic:
        for domain in embedding.DomainCondition:
            problem = embedding.embed_problem(
                E1, TranslationConfig(logic, domain)
            )
            text = thf.emit_problem(problem).problem_text
            back = thf_reader.read_problem(text)
            assert thf_reader.problems_alpha_equal(problem, back)
            hol.check_problem(back)


# SHA-1 of the inline and include output of E1, a 300-way conjunction and
# ten seeded random problems, per configuration and layout: a refactoring
# of the embedding or the emitter must leave every byte as it is
TRANSLATION_DIGESTS = {
    "k:const:inline": "53b41b39002d3f8df40eb633ad8050875e8d7487",
    "k:const:include": "93e7405548c6468d767fe288a5e6036e56ac3f4c",
    "k:vary:inline": "0f749ced33c7bf68f03bc47c582a9e53a71f4718",
    "k:vary:include": "36d96d45c112f6e4ce81a6477fd345719be3353d",
    "k:cumul:inline": "3a0289a4577e6eb9e2c5b6a050e83aba3a20cfef",
    "k:cumul:include": "bfbd0fc6738f9e59ba128017fa6eee54b18b7d33",
    "k4:const:inline": "63752f07aee45589a211f10a94b2636c0b07afd8",
    "k4:const:include": "7f046b2f7290d9ac0b3fc84dff227da9643df04d",
    "k4:vary:inline": "b62b23a330f0db8a981fa4b56a68c4ca16a237af",
    "k4:vary:include": "179651046fc1e2de4966cc150de7675ee3554e40",
    "k4:cumul:inline": "7582d141ba9acf813dbcd8254f65807a32badb72",
    "k4:cumul:include": "140b915055cfb63138c92726e2a64e3a15a85c3a",
    "d:const:inline": "34c852683a06d558f10372e330ba1d840258e34a",
    "d:const:include": "24a9489f874b8775eb33e5ff6f03c3e0472abdc4",
    "d:vary:inline": "79df2d445a2039656199780b6022fe6165ca5cf6",
    "d:vary:include": "6ba7f227635d05eee43cf811703fad97ffc3b715",
    "d:cumul:inline": "9f9e9633fd91cfad215c6cc005dfb5670b15aa97",
    "d:cumul:include": "0cb50489056baa0689f3758529840744930c695b",
    "d4:const:inline": "10f82853cb3c80fdb373d626213f7ac246e751be",
    "d4:const:include": "d304fc464c29628d78f502d0d47bd62246727fd5",
    "d4:vary:inline": "4c53ddb04aebaca153fb8f4a9cfeeccb8ea31034",
    "d4:vary:include": "2886ffbd696cc50cccf98c2516517410570a04b5",
    "d4:cumul:inline": "ae2efb4f634e09c3fc369f0685ccb9690361a7cf",
    "d4:cumul:include": "34a61f3c48657934bd40e69714c8c62b661ae9e6",
    "t:const:inline": "b0521e05fdfda0e4029b8239afab4b3f32b14d1f",
    "t:const:include": "b8290ef70e5d09b5afe3b8b645cc5cf7eb465b20",
    "t:vary:inline": "eb9f9676be4bc4fb16776abf9e64bdd76965448d",
    "t:vary:include": "32dfb6c7882e6eb19903a5a15f2f8a319f9ff181",
    "t:cumul:inline": "8f5d9b032de864823da6b9891b2c9a00699ee90c",
    "t:cumul:include": "7c82e40d06acfc22d5a3c0817c0435f89dc16eaa",
    "s4:const:inline": "87e3a0c37a71b8681499c3063c30e0b50cbc5bb4",
    "s4:const:include": "a6d37fb64324a1064fcb27fb2573340400be8040",
    "s4:vary:inline": "41cf2ff93f67d456eea4d59cd8935ab68c05d003",
    "s4:vary:include": "879b25ae2c6d76c617a9df7c87225d652c8d9158",
    "s4:cumul:inline": "6f7f190e90dbf14610e261ef3d468e6a5687f030",
    "s4:cumul:include": "69ddd75fc49a1bc7c8e4c7f41c54049c25ce1f9f",
    "s5:const:inline": "94e802779dffb23bb165bbf9d7be4ecef77a411f",
    "s5:const:include": "2e7c124124641987560bd4d8a43e0bbf761b871c",
    "s5:vary:inline": "6fd0db7821aebbb13d6ebbeca9c232b731861a66",
    "s5:vary:include": "cb8169e3606e4eade12fd45a0b00447d745fe11e",
    "s5:cumul:inline": "a1bcb283c2050cf31804931674b44f28c26df65e",
    "s5:cumul:include": "eb8e154d2a9a0534d19420dfca076305f8ddd8cb",
}


def test_translation_digests_all_configs():
    r = helpers.make_rng(7)
    problems = [
        E1,
        qmf.parse_problem("qmf(con,conjecture,( " + " & ".join(["p"] * 300) + " )).")
    ] + [helpers.random_problem(r) for _ in range(10)]
    got = {}
    for logic in embedding.Logic:
        for domain in embedding.DomainCondition:
            cfg = TranslationConfig(logic, domain)
            for layout, mode in (("inline", thf.Inline()), ("include", thf.Include("ax", "p"))):
                digest = hashlib.sha1()
                for problem in problems:
                    out = thf.emit_problem(embedding.embed_problem(problem, cfg), mode)
                    digest.update(repr((out.problem_text, out.axiom_files)).encode())
                got[f"{cfg.name}:{layout}"] = digest.hexdigest()
    assert got == TRANSLATION_DIGESTS


# E1 with a constant and a function besides, so that under varying and
# cumulative domains every group of the include layout has units of its own
E1_FC = qmf.parse_problem(
    "qmf(ax,axiom,( p(g(c)) )). qmf(con,conjecture,("
    " ( ! [X] : ( #box : ( f(X) ) ) ) => ( #box : ( ! [X] : ( f(X) ) ) ) ))."
)
LAYOUTS = (thf.Inline(), thf.Include("ax", "p"))


def copied(problem: embedding.EmbeddedProblem) -> embedding.EmbeddedProblem:
    """problem with every unit replaced by an equal copy: the same text,
    but none of the vocabulary's own unit objects"""
    return dataclasses.replace(problem, units=tuple(dataclasses.replace(u) for u in problem.units))


def test_wrap_matches_the_word_by_word_reference():
    r = helpers.make_rng(2901)
    for _ in range(3000):
        # empty words (two spaces in a row) and widths under the indent too
        words = ["x" * r.randint(0, 12) for _ in range(r.randint(1, 30))]
        line, width = " ".join(words), r.randint(-3, 60)
        assert thf._wrap(line, width) == helpers.reference_wrap(line, width)
    for problem in (E1_FC, qmf.parse_problem(
        "qmf(con,conjecture,( " + " & ".join(["p"] * 300) + " ))."
    )):
        for unit in embed(problem, "s5", "cumul").units:
            line = thf.emit_unit(unit)
            for width in (1, 60, 100):
                assert thf._wrap(line, width) == helpers.reference_wrap(line, width)


def test_only_the_vocabulary_itself_is_served_from_the_cache(monkeypatch):
    problem = embed(E1_FC, "s4", "vary")
    n = len(embedding._vocabulary(problem.config))
    expected = [thf.emit_problem(problem, mode) for mode in LAYOUTS]
    other_config = dataclasses.replace(problem, config=config("s4", "cumul"))
    thf.emit_problem(other_config)  # fills the cache of s4:cumul before counting
    rendered = []
    emit_unit = thf.emit_unit
    monkeypatch.setattr(thf, "emit_unit", lambda unit: rendered.append(unit) or emit_unit(unit))

    def emitted(p, mode):
        """p's output in mode, and the ids of the units rendered for it"""
        rendered.clear()
        return thf.emit_problem(p, mode), sorted(map(id, rendered))

    def ids(units):
        return sorted(map(id, units))

    index = [u.name for u in problem.units].index("mnot")
    swapped_unit = hol.Unit.definition("mnot", "mnot", Lambda("Phi", PROP, Var("Phi", PROP)))
    swapped = dataclasses.replace(
        problem, units=problem.units[:index] + (swapped_unit,) + problem.units[index + 1 :]
    )
    hand_built = copied(problem)
    for mode, want in zip(LAYOUTS, expected):
        # embed_problem's own vocabulary: only the units after it are rendered
        assert emitted(problem, mode) == (want, ids(problem.units[n:]))
        # equal copies: every unit rendered, to the same text
        assert emitted(hand_built, mode) == (want, ids(hand_built.units))
        # the vocabulary of s4:vary under the name of s4:cumul: every unit
        # rendered, and only the include file names change
        out, got = emitted(other_config, mode)
        assert got == ids(problem.units)
        assert [t for _, t in out.axiom_files] == [t for _, t in want.axiom_files]
        # one definition swapped: every unit rendered, the swap shows
        out, got = emitted(swapped, mode)
        assert got == ids(swapped.units)
        text = out.problem_text + "".join(t for _, t in out.axiom_files)
        assert "thf(mnot,definition,( mnot = ( ^ [Phi: $i > $o] : ( Phi ) ) ))." in text
        assert "mnot = ( ^ [Phi: $i > $o,W: $i] :" not in text
    # the vocabulary's own units in other groups: the include layout follows them
    regrouped = dataclasses.replace(problem, groups=(embedding.LOGIC,) * len(problem.units))
    out, got = emitted(regrouped, LAYOUTS[1])
    assert got == ids(regrouped.units)
    assert out.axiom_files[0][1] == ""
    # a plain hol.Problem of the same units: every unit rendered, inline
    plain = hol.Problem(problem.units)
    assert emitted(plain, LAYOUTS[0]) == (expected[0], ids(plain.units))


def test_cached_vocabulary_text_equals_rendering_unit_by_unit():
    thf._rendered_vocabulary.cache_clear()
    for logic in embedding.Logic:
        for domain in embedding.DomainCondition:
            problem = embedding.embed_problem(E1_FC, TranslationConfig(logic, domain))
            for width in (60, 100, 10_000):
                for mode in LAYOUTS:
                    first = thf.emit_problem(problem, mode, width)
                    second = thf.emit_problem(problem, mode, width)
                    assert first == second == thf.emit_problem(copied(problem), mode, width)
    assert thf._rendered_vocabulary.cache_info().currsize == 21 * 3


def test_importing_thf_fills_no_cache():
    src = str(pathlib.Path(embedding.__file__).parent.parent)
    code = (
        "from fml2hol import embedding, thf\n"
        "print(thf._rendered_vocabulary.cache_info().currsize,"
        " embedding._vocabulary.cache_info().currsize)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "0 0\n", "")
