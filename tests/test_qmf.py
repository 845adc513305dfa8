"""Parser and printer for the qmf concrete syntax."""

import pytest

import helpers
from fml2hol import fml, qmf
from fml2hol.fml import (
    And,
    Atom,
    Box,
    Constant,
    Dia,
    Exists,
    Forall,
    FunctionApp,
    Implies,
    Not,
    Or,
    Variable,
)

E1_TEXT = """
% first-order modal Barcan-style problem
qmf(con,conjecture,(
    ( ! [X] : ( #box : ( f(X) ) ) ) => ( #box : ( ! [X] : ( f(X) ) ) ) )).
"""


def parse(text: str) -> fml.Formula:
    return qmf.parse_formula(text)


def test_parse_e1():
    problem = qmf.parse_problem(E1_TEXT)
    assert len(problem.units) == 1
    unit = problem.units[0]
    assert (unit.name, unit.role) == ("con", "conjecture")
    expected = Implies(
        Forall("X", Box(Atom("f", (Variable("X"),)))),
        Box(Forall("X", Atom("f", (Variable("X"),)))),
    )
    assert unit.formula == expected


def test_parse_single_axiom():
    problem = qmf.parse_problem("qmf(a, axiom, ( p )).")
    assert problem.units[0].formula == Atom("p")
    assert problem.units[0].role == "axiom"


def test_parse_dia():
    problem = qmf.parse_problem("qmf(a, axiom, ( #dia : ( p ) )).")
    assert problem.units[0].formula == Dia(Atom("p"))


def test_modalities_without_parens():
    assert parse("#box : p") == Box(Atom("p"))
    assert parse("#dia : ~ p") == Dia(Not(Atom("p")))


def test_negation_binds_tighter_than_and():
    assert parse("~ p & q") == And(Not(Atom("p")), Atom("q"))
    assert parse("~ ( p & q )") == Not(And(Atom("p"), Atom("q")))


def test_box_binds_tighter_than_and():
    assert parse("#box : p & q") == And(Box(Atom("p")), Atom("q"))


def test_and_binds_tighter_than_or():
    assert parse("p & q | r") == Or(And(Atom("p"), Atom("q")), Atom("r"))
    assert parse("p | q & r") == Or(Atom("p"), And(Atom("q"), Atom("r")))


def test_or_binds_tighter_than_implies():
    assert parse("p | q => r") == Implies(Or(Atom("p"), Atom("q")), Atom("r"))


def test_implies_right_associative():
    assert parse("p => q => r") == Implies(Atom("p"), Implies(Atom("q"), Atom("r")))


def test_and_or_left_associative():
    assert parse("p & q & r") == And(And(Atom("p"), Atom("q")), Atom("r"))
    assert parse("p | q | r") == Or(Or(Atom("p"), Atom("q")), Atom("r"))


def test_quantifier_extends_right():
    got = parse("! [X] : p(X) & q")
    assert got == Forall("X", And(Atom("p", (Variable("X"),)), Atom("q")))


def test_quantifier_list_desugars_left_to_right():
    got = parse("? [X,Y] : q(X,Y)")
    assert got == Exists("X", Exists("Y", Atom("q", (Variable("X"), Variable("Y")))))


def test_biconditional_desugars():
    got = parse("p <=> q")
    assert got == And(Implies(Atom("p"), Atom("q")), Implies(Atom("q"), Atom("p")))


def test_reverse_implication_desugars():
    assert parse("p <= q") == Implies(Atom("q"), Atom("p"))


def test_terms_parse():
    got = parse("q(c, g(X))")
    assert got == Atom("q", (Constant("c"), FunctionApp("g", (Variable("X"),))))


def test_comments_and_whitespace_ignored():
    text = "qmf(a,axiom,( p )). % trailing comment\n% full-line comment\nqmf(b,axiom,( q ))."
    problem = qmf.parse_problem(text)
    assert [u.name for u in problem.units] == ["a", "b"]


def test_include_rejected():
    with pytest.raises(qmf.ParseError) as exc:
        qmf.parse_problem("include('Axioms/base.ax').")
    assert "include" in str(exc.value)


def test_indexed_modality_rejected():
    with pytest.raises(qmf.ParseError) as exc:
        parse("#box(i) : p")
    assert "indexed" in str(exc.value)


def test_unknown_hash_operator_rejected():
    with pytest.raises(qmf.ParseError):
        parse("#square : p")


def test_unknown_role_rejected():
    with pytest.raises(qmf.ParseError) as exc:
        qmf.parse_problem("qmf(a, lemma, ( p )).")
    assert "axiom" in str(exc.value)


def test_validation_applied_by_parse_problem():
    with pytest.raises(fml.FreeVariableError):
        qmf.parse_problem("qmf(a, axiom, ( p(X) )).")
    with pytest.raises(fml.MultipleConjecturesError):
        qmf.parse_problem("qmf(a,conjecture,(p)). qmf(b,conjecture,(p)).")


def test_error_position_points_at_defect():
    with pytest.raises(qmf.ParseError) as exc:
        qmf.parse_problem("qmf(a, axiom, ( p $ q )).")
    assert (exc.value.span.line, exc.value.span.col) == (1, 19)


def test_error_position_second_line():
    with pytest.raises(qmf.ParseError) as exc:
        qmf.parse_problem("qmf(a, axiom, ( p )).\nqmf(b axiom, ( q )).")
    assert exc.value.span.line == 2
    assert exc.value.expected == "','"


P, Q = Atom("p"), Atom("q")


@pytest.mark.parametrize(
    "text, expected",
    [
        # (line, col, length), expected, found for a ParseError; else the tree
        ("#", ((1, 1, 1), "'#box' or '#dia'", "'#'")),
        ("#1x", ((1, 1, 1), "'#box' or '#dia'", "'#'")),
        ("#sq : p", ((1, 1, 1), "'#box' or '#dia'", "'#sq'")),
        ("#boxy : p", ((1, 1, 1), "'#box' or '#dia'", "'#boxy'")),
        ("#box : #dia : p", Box(Dia(P))),
        ("#box(1) : p", ((1, 6, 1), "a token", "'1'")),
        ("include('axioms.ax", ((1, 9, 1), "a closing quote", "end of input")),
        ("qmf(a,axiom,'p').", ((1, 13, 3), "a formula", "''p''")),
        ("p<=>q", And(Implies(P, Q), Implies(Q, P))),
        ("p<=q", Implies(Q, P)),
        ("p=>q", Implies(P, Q)),
        ("p<==>q", ((1, 4, 2), "a formula", "'=>'")),
        ("p=><=q", ((1, 4, 2), "a formula", "'<='")),
        ("p<=>=>q", ((1, 5, 2), "a formula", "'=>'")),
        ("p = q", ((1, 3, 1), "a token", "'='")),
        ("p\t&\tq", And(P, Q)),
        ("p\t&\t$", ((1, 5, 1), "a token", "'$'")),
        ("qmf(a,axiom,p).\r\nqmf(b,axiom,$).", ((2, 13, 1), "a token", "'$'")),
        ("qmf(a,axiom,p).\r\nqmf(b,axiom,q)", ((2, 15, 1), "'.'", "end of input")),
        # end of input after a trailing comment is the end of its line
        ("qmf(a,axiom,p) % no dot", ((1, 24, 1), "'.'", "end of input")),
        ("qmf(a,axiom,p) % no dot\n", ((2, 1, 1), "'.'", "end of input")),
        ("qmf(a,axiom,p). %c\nqmf(b,axiom,1).", ((2, 13, 1), "a token", "'1'")),
        ("p(a,X_1) | q", Or(Atom("p", (Constant("a"), Variable("X_1"))), Q)),
    ],
)
def test_tokenizer_edge_cases(text, expected):
    read = qmf.parse_problem if text.startswith(("qmf", "include")) else parse
    if isinstance(expected, fml.Formula):
        assert read(text) == expected
        return
    with pytest.raises(qmf.ParseError) as exc:
        read(text)
    span = exc.value.span
    assert ((span.line, span.col, span.length), exc.value.expected, exc.value.found) == expected


def test_parse_formula_rejects_trailing_input():
    with pytest.raises(qmf.ParseError):
        parse("p q")


def test_print_examples():
    assert qmf.print_problem(
        fml.Problem((fml.AnnotatedFormula("a", "axiom", Atom("p")),))
    ) == "qmf(a,axiom,( p )).\n"
    assert "#box : ( #dia : ( p ) )" in qmf.print_formula(Box(Dia(Atom("p"))))


def test_print_terms():
    f = Atom("q", (Constant("c"), FunctionApp("g", (Variable("X"), Constant("c")))))
    assert qmf.print_formula(f) == "q(c,g(X,c))"


def test_print_parse_identity_on_e1():
    problem = qmf.parse_problem(E1_TEXT)
    assert qmf.parse_problem(qmf.print_problem(problem)) == problem


def test_print_parse_identity_fuzz():
    # depth up to 8 over all nine constructors, per the round-trip contract
    r = helpers.make_rng(4021)
    for _ in range(300):
        sig = helpers.random_signature(r)
        formula = helpers.random_formula(r, sig, depth=r.randint(0, 8))
        assert qmf.parse_formula(qmf.print_formula(formula)) == formula


def test_print_parse_identity_problems():
    r = helpers.make_rng(4022)
    for _ in range(100):
        problem = helpers.random_problem(r)
        assert qmf.parse_problem(qmf.print_problem(problem)) == problem


def assert_positions_match_reference(text):
    """Every token of text is placed where reference_tokenize placed it,
    and a ParseError names the reference's position of the token it
    stopped at (a lexical error: the reference's whole error)."""
    try:
        reference = helpers.reference_tokenize(text)
    except qmf.ParseError as lexical:
        with pytest.raises(qmf.ParseError) as exc:
            qmf.parse_problem(text)
        assert (str(exc.value), exc.value.span) == (str(lexical), lexical.span)
        return
    tokens = qmf._tokenize(text)
    tokens = tokens[: [kind for kind, _, _ in tokens].index("eof") + 1]
    assert [(word if kind == "op" else kind, word) for kind, word, _ in tokens] == [
        (kind, word) for kind, word, _, _ in reference
    ]
    for (_, word, start), (_, _, line, col) in zip(tokens, reference):
        assert qmf._span(text, start, max(len(word), 1)) == qmf.Span(line, col, max(len(word), 1))
    try:
        qmf.parse_problem(text)
    except qmf.ParseError as exc:
        span = exc.span
        (kind, word, line, col), = [t for t in reference if t[2:] == (span.line, span.col)]
        found = "end of input" if kind == "eof" else f"'{word}'"
        assert str(exc) == f"{line}:{col}: expected {exc.expected}, found {found}"
        assert span.length == max(len(word), 1)
    except fml.ProblemError:
        pass


@pytest.mark.parametrize(
    "text",
    [
        "",
        " \t\r\n",
        "% a comment and nothing else",
        "% a comment\n%% and another\n",
        "qmf(a,axiom,p). % c\r\n\tqmf(b,axiom,( q & )).",
        "\tqmf(a,\taxiom,\t$).",
        "qmf(a,axiom,p).\r\n% c\r\nqmf(b,axiom,#sq : p).",
        "qmf(a,axiom,p).\r\n\r\nqmf(b,axiom,q)",
        "qmf(a,axiom,p)",
        "qmf(a,axiom,p).\nqmf(b,axiom,( q",
        "qmf(a,axiom,p) % no newline",
        "qmf(a,axiom,p).\n\n\n",
        "qmf(a,axiom,'p').",
        "qmf(a,axiom,'two\nlines').",
        # a newline inside a quoted atom does not count as a line break
        "include('x\ny')\n $",
        "include('x\ny') %\n #q",
        "qmf(a,axiom,p).\n'unterminated",
        "qmf(a,\n  lemma, p).",
        "qmf(a,axiom,#box(1) : p).",
    ],
)
def test_token_positions_hand_cases(text):
    assert_positions_match_reference(text)


def test_token_positions_of_mutated_problems():
    r = helpers.make_rng(2902)
    alphabet = " \t\r\n%$'#()[],.:~&|!?=<>XYacpq_1"
    for _ in range(30):
        problems = [helpers.random_problem(r) for _ in range(r.randint(1, 3))]
        text = "% seeded\n" + "".join(qmf.print_problem(p) for p in problems)
        if r.random() < 0.5:
            text = text.replace("\n", "\r\n")
        for _ in range(12):
            i = r.randrange(len(text) + 1)
            edit = r.choice(("insert", "replace", "delete"))
            if edit == "insert":
                mutated = text[:i] + r.choice(alphabet) + text[i:]
            elif edit == "replace":
                mutated = text[:i] + r.choice(alphabet) + text[i + 1 :]
            else:
                mutated = text[:i] + text[i + 1 :]
            assert_positions_match_reference(mutated)
