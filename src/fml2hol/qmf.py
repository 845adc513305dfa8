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

The tokenizer is one regular expression matched along the text, and a
token is a ``(kind, text, start)`` tuple.  A ``ParseError`` carries the
line and column of the offending token (end of input is placed after the
last character); they are computed from ``start`` only when the error is
raised.  A lexical error is reported before any syntax error, wherever
it is in the text.  ``parse_problem`` returns an ``fml.Problem``, which
validates itself when it is built, so a problem this module returns is
closed, has at most one conjecture and carries its signature;
``parse_formula`` reads a bare formula without those checks.
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


# One alternative per token class, tried in order after a run of
# whitespace and comments; the last but one takes any other character and
# the last matches at the end, so the matches tile the text.  Quoted atoms
# appear only in include directives, which the parser rejects with a
# pointed message; they are lexed so that it can.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]|%[^\n]*)*"
    r"(?:(?P<upper>[A-Z][a-zA-Z0-9_]*)"
    r"|(?P<lower>[a-z][a-zA-Z0-9_]*)"
    r"|(?P<op><=>|<=|=>|#(?:box|dia)(?![a-zA-Z0-9_])|[()\[\],.:~&|!?])"
    r"|(?P<hash>#(?:[a-zA-Z][a-zA-Z0-9_]*)?)"
    r"|(?P<quoted>'[^']*')"
    r"|(?P<bad>.)"
    r"|(?P<eof>\Z))",
    re.DOTALL,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The tokens of text as (kind, text, start) tuples, kind being the
    name of the group that matched; the list ends in an 'eof' token (two,
    after trailing whitespace).  'hash' and 'bad' tokens are lexical
    errors, which the parser reports when it fails."""
    return [
        (kind, m.group(kind), m.start(kind))
        for m in _TOKEN.finditer(text)
        for kind in (m.lastgroup,)
    ]


def _span(text: str, start: int, length: int = 1) -> Span:
    """The line and column of the token at start.  Lines are counted in
    the whitespace between tokens only, so a quoted atom that spans lines
    leaves the line count as it was; only an error pays for this walk."""
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text, 0, start):
        gap, token = m.start(), m.start(m.lastgroup)
        breaks = text.count("\n", gap, token)
        if breaks:
            line += breaks
            line_start = text.rfind("\n", gap, token) + 1
    return Span(line, start - line_start + 1, length)


class _Parser:
    """Recursive descent over the token tuples: words are matched by kind
    (tok[0]) and operators by their text (tok[1]), which no word, quoted
    atom or lexical error can equal."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def error(self, tok: tuple[str, str, int], expected: str) -> ParseError:
        """The error at tok; but if the text has a lexical error, the first
        one is reported instead, wherever the parse stopped."""
        for kind, word, start in self.tokens:
            if kind == "hash":
                return ParseError(_span(self.text, start), "'#box' or '#dia'", f"'{word}'")
            if kind == "bad":
                if word == "'":
                    return ParseError(_span(self.text, start), "a closing quote", "end of input")
                return ParseError(_span(self.text, start), "a token", repr(word))
        found = "end of input" if tok[0] == "eof" else f"'{tok[1]}'"
        return ParseError(_span(self.text, tok[2], max(len(tok[1]), 1)), expected, found)

    def fail(self, expected: str):
        raise self.error(self.tokens[self.pos], expected)

    def expect(self, op: str, expected: str | None = None) -> None:
        if self.tokens[self.pos][1] != op:
            self.fail(expected or f"'{op}'")
        self.pos += 1

    def word(self, kind: str, expected: str) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            self.fail(expected)
        self.pos += 1
        return tok

    def problem(self) -> Problem:
        units = []
        while self.tokens[self.pos][0] != "eof":
            units.append(self.unit())
        return Problem(tuple(units))

    def unit(self) -> AnnotatedFormula:
        tok = self.tokens[self.pos]
        if tok[1] == "include":
            raise self.error(
                tok,
                "'qmf' (include directives are not supported; "
                "problems must be self-contained)",
            )
        if tok[1] != "qmf":
            self.fail("'qmf'")
        self.pos += 1
        self.expect("(")
        name = self.word("lower", "a unit name")[1]
        self.expect(",")
        role = self.word("lower", "a role")
        if role[1] not in ROLES:
            raise self.error(role, "one of " + ", ".join(ROLES))
        self.expect(",")
        body = self.formula()
        self.expect(")")
        self.expect(".")
        return AnnotatedFormula(name, role[1], body)

    def formula(self) -> Formula:
        left = self.disjunction()
        op = self.tokens[self.pos][1]
        if op == "=>":
            self.pos += 1
            return Implies(left, self.formula())
        if op == "<=":
            self.pos += 1
            return Implies(self.formula(), left)
        if op == "<=>":
            self.pos += 1
            right = self.formula()
            return And(Implies(left, right), Implies(right, left))
        return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while self.tokens[self.pos][1] == "|":
            self.pos += 1
            left = Or(left, self.conjunction())
        return left

    def conjunction(self) -> Formula:
        left = self.unary()
        while self.tokens[self.pos][1] == "&":
            self.pos += 1
            left = And(left, self.unary())
        return left

    def unary(self) -> Formula:
        kind, text, _ = self.tokens[self.pos]
        if kind == "lower":
            self.pos += 1
            return Atom(text, self.arguments())
        if text == "~":
            self.pos += 1
            return Not(self.unary())
        if text in ("#box", "#dia"):
            self.pos += 1
            if self.tokens[self.pos][1] == "(":
                raise self.error(
                    self.tokens[self.pos],
                    f"':' after '{text}' (indexed modalities are not supported)",
                )
            self.expect(":", f"':' after '{text}'")
            body = self.unary()
            return Box(body) if text == "#box" else Dia(body)
        if text in ("!", "?"):
            self.pos += 1
            self.expect("[")
            names = [self.word("upper", "a variable")[1]]
            while self.tokens[self.pos][1] == ",":
                self.pos += 1
                names.append(self.word("upper", "a variable")[1])
            self.expect("]")
            self.expect(":")
            body = self.formula()  # extends as far right as possible
            cls = Forall if text == "!" else Exists
            for name in reversed(names):
                body = cls(name, body)
            return body
        if text == "(":
            self.pos += 1
            body = self.formula()
            self.expect(")")
            return body
        self.fail("a formula")

    def arguments(self) -> tuple[Term, ...]:
        if self.tokens[self.pos][1] != "(":
            return ()
        self.pos += 1
        args = [self.term()]
        while self.tokens[self.pos][1] == ",":
            self.pos += 1
            args.append(self.term())
        self.expect(")")
        return tuple(args)

    def term(self) -> Term:
        kind, name, _ = self.tokens[self.pos]
        if kind == "upper":
            self.pos += 1
            return Variable(name)
        if kind == "lower":
            self.pos += 1
            if self.tokens[self.pos][1] == "(":
                return FunctionApp(name, self.arguments())
            return Constant(name)
        self.fail("a term")


def parse_formula(text: str) -> Formula:
    """Parse a single bare formula (no qmf wrapper, no validation)."""
    parser = _Parser(text)
    body = parser.formula()
    if parser.tokens[parser.pos][0] != "eof":
        parser.fail("end of input")
    return body


def parse_problem(text: str) -> Problem:
    """Parse a full problem; building the ``Problem`` validates it
    (closure, conjecture count, arities) and records its signature."""
    return _Parser(text).problem()


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
