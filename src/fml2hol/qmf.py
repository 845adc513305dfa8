"""Reader and printer for modal problems in qmf syntax.

The concrete syntax is the TPTP first-order form extended with two prefix
operators, ``#box :`` and ``#dia :``.  A problem is a sequence of units

    qmf(name, role, formula).

with roles axiom, hypothesis, definition, or conjecture.  ``%`` starts a
comment that runs to the end of the line.

Binding strength, tightest first: ``~``/``#box``/``#dia``, then ``&``,
then ``|``, then ``=>`` (right associative).  Quantifier bodies extend as
far right as possible.  ``F <=> G`` is read as ``(F => G) & (G => F)``
and ``F <= G`` as ``G => F``; neither survives into the tree, so the
printer never emits them.  ``include`` directives and indexed modalities
are rejected: problems are self-contained and have a single accessibility
relation.

The tokenizer is one regular expression matched along the text; a
``ParseError`` carries the line and column of the offending token (end of
input is placed after the last character).  ``parse_problem`` returns an
``fml.Problem``, which validates itself when it is built, so a problem
this module returns is closed, has at most one conjecture and carries its
signature; ``parse_formula`` reads a bare formula without those checks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .fml import (
    ROLES,
    AnnotatedFormula,
    And,
    Atom,
    Box,
    Constant,
    Dia,
    Exists,
    Forall,
    Formula,
    FunctionApp,
    Implies,
    Not,
    Or,
    Problem,
    Term,
    Variable,
)


@dataclass(frozen=True)
class Span:
    line: int
    col: int
    length: int = 1


class ParseError(Exception):
    def __init__(self, span: Span, expected: str, found: str):
        super().__init__(
            f"{span.line}:{span.col}: expected {expected}, found {found}"
        )
        self.span = span
        self.expected = expected
        self.found = found


@dataclass(frozen=True)
class _Token:
    kind: str  # 'lower', 'upper', or the operator text itself
    text: str
    line: int
    col: int

    def span(self) -> Span:
        return Span(self.line, self.col, max(len(self.text), 1))


# One alternative per token class, tried in order at each position; the
# last one takes any other character, so the matches tile the text.
# Quoted atoms appear only in include directives, which the parser
# rejects with a pointed message; they are lexed so that it can.
_TOKEN = re.compile(
    r"(?P<skip>(?:[ \t\r\n]|%[^\n]*)+)"
    r"|(?P<upper>[A-Z][a-zA-Z0-9_]*)"
    r"|(?P<lower>[a-z][a-zA-Z0-9_]*)"
    r"|(?P<op><=>|<=|=>|#(?:box|dia)(?![a-zA-Z0-9_])|[()\[\],.:~&|!?])"
    r"|(?P<hash>#(?:[a-zA-Z][a-zA-Z0-9_]*)?)"
    r"|(?P<quoted>'[^']*')"
    r"|(?P<bad>.)",
    re.DOTALL,
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, word, start = m.lastgroup, m.group(), m.start()
        if kind == "skip":
            if "\n" in word:
                line += word.count("\n")
                line_start = text.rfind("\n", start, m.end()) + 1
            continue
        col = start - line_start + 1
        if kind == "op":
            kind = word
        elif kind == "hash":
            raise ParseError(Span(line, col), "'#box' or '#dia'", f"'{word}'")
        elif kind == "bad":
            if word == "'":
                raise ParseError(Span(line, col), "a closing quote", "end of input")
            raise ParseError(Span(line, col), "a token", repr(word))
        tokens.append(_Token(kind, word, line, col))
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, expected: str):
        tok = self.peek()
        found = "end of input" if tok.kind == "eof" else f"'{tok.text}'"
        raise ParseError(tok.span(), expected, found)

    def expect(self, kind: str, expected: str | None = None) -> _Token:
        if self.peek().kind != kind:
            self.fail(expected or f"'{kind}'")
        return self.advance()

    def problem(self) -> Problem:
        units = []
        while self.peek().kind != "eof":
            units.append(self.unit())
        return Problem(tuple(units))

    def unit(self) -> AnnotatedFormula:
        tok = self.peek()
        if tok.kind == "lower" and tok.text == "include":
            raise ParseError(
                tok.span(),
                "'qmf' (include directives are not supported; "
                "problems must be self-contained)",
                "'include'",
            )
        if tok.kind != "lower" or tok.text != "qmf":
            self.fail("'qmf'")
        self.advance()
        self.expect("(")
        name = self.expect("lower", "a unit name").text
        self.expect(",")
        role_tok = self.expect("lower", "a role")
        if role_tok.text not in ROLES:
            raise ParseError(
                role_tok.span(),
                "one of " + ", ".join(ROLES),
                f"'{role_tok.text}'",
            )
        self.expect(",")
        body = self.formula()
        self.expect(")")
        self.expect(".")
        return AnnotatedFormula(name, role_tok.text, body)

    def formula(self) -> Formula:
        left = self.disjunction()
        kind = self.peek().kind
        if kind == "=>":
            self.advance()
            return Implies(left, self.formula())
        if kind == "<=":
            self.advance()
            return Implies(self.formula(), left)
        if kind == "<=>":
            self.advance()
            right = self.formula()
            return And(Implies(left, right), Implies(right, left))
        return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while self.peek().kind == "|":
            self.advance()
            left = Or(left, self.conjunction())
        return left

    def conjunction(self) -> Formula:
        left = self.unary()
        while self.peek().kind == "&":
            self.advance()
            left = And(left, self.unary())
        return left

    def unary(self) -> Formula:
        kind = self.peek().kind
        if kind == "~":
            self.advance()
            return Not(self.unary())
        if kind in ("#box", "#dia"):
            op = self.advance()
            if self.peek().kind == "(":
                raise ParseError(
                    self.peek().span(),
                    f"':' after '{op.text}' (indexed modalities are not supported)",
                    "'('",
                )
            self.expect(":", f"':' after '{op.text}'")
            body = self.unary()
            return Box(body) if op.kind == "#box" else Dia(body)
        if kind in ("!", "?"):
            op = self.advance()
            self.expect("[")
            names = [self.expect("upper", "a variable").text]
            while self.peek().kind == ",":
                self.advance()
                names.append(self.expect("upper", "a variable").text)
            self.expect("]")
            self.expect(":")
            body = self.formula()  # extends as far right as possible
            cls = Forall if op.kind == "!" else Exists
            for name in reversed(names):
                body = cls(name, body)
            return body
        if kind == "(":
            self.advance()
            body = self.formula()
            self.expect(")")
            return body
        if kind == "lower":
            return self.atom()
        self.fail("a formula")

    def atom(self) -> Atom:
        name = self.expect("lower", "a predicate").text
        return Atom(name, self.arguments())

    def arguments(self) -> tuple[Term, ...]:
        if self.peek().kind != "(":
            return ()
        self.advance()
        args = [self.term()]
        while self.peek().kind == ",":
            self.advance()
            args.append(self.term())
        self.expect(")")
        return tuple(args)

    def term(self) -> Term:
        tok = self.peek()
        if tok.kind == "upper":
            self.advance()
            return Variable(tok.text)
        if tok.kind == "lower":
            self.advance()
            if self.peek().kind == "(":
                return FunctionApp(tok.text, self.arguments())
            return Constant(tok.text)
        self.fail("a term")


def parse_formula(text: str) -> Formula:
    """Parse a single bare formula (no qmf wrapper, no validation)."""
    parser = _Parser(_tokenize(text))
    body = parser.formula()
    if parser.peek().kind != "eof":
        parser.fail("end of input")
    return body


def parse_problem(text: str) -> Problem:
    """Parse a full problem; building the ``Problem`` validates it
    (closure, conjecture count, arities) and records its signature."""
    return _Parser(_tokenize(text)).problem()


def print_term(t: Term) -> str:
    if isinstance(t, Variable):
        return t.name
    if isinstance(t, Constant):
        return t.name
    if isinstance(t, FunctionApp):
        return t.name + "(" + ",".join(print_term(a) for a in t.args) + ")"
    raise TypeError(f"not a term: {t!r}")


def _wrap(f: Formula) -> str:
    # operands are parenthesized unless atomic, so reparsing is insensitive
    # to the surrounding binding strength
    text = print_formula(f)
    return text if isinstance(f, Atom) else f"( {text} )"


def print_formula(f: Formula) -> str:
    if isinstance(f, Atom):
        if not f.args:
            return f.pred
        return f.pred + "(" + ",".join(print_term(a) for a in f.args) + ")"
    if isinstance(f, Not):
        return f"~ {_wrap(f.body)}"
    if isinstance(f, And):
        return f"{_wrap(f.left)} & {_wrap(f.right)}"
    if isinstance(f, Or):
        return f"{_wrap(f.left)} | {_wrap(f.right)}"
    if isinstance(f, Implies):
        return f"{_wrap(f.left)} => {_wrap(f.right)}"
    if isinstance(f, Box):
        return f"#box : ( {print_formula(f.body)} )"
    if isinstance(f, Dia):
        return f"#dia : ( {print_formula(f.body)} )"
    if isinstance(f, Forall):
        return f"! [{f.var}] : ( {print_formula(f.body)} )"
    if isinstance(f, Exists):
        return f"? [{f.var}] : ( {print_formula(f.body)} )"
    raise TypeError(f"not a formula: {f!r}")


def print_problem(problem: Problem) -> str:
    lines = [
        f"qmf({u.name},{u.role},( {print_formula(u.formula)} ))."
        for u in problem.units
    ]
    return "\n".join(lines) + ("\n" if lines else "")
