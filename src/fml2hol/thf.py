"""Serialization of HOL problems to thf0 concrete syntax.

One unit per logical line: ``thf(name,kind,( payload )).`` with kind one of
type, definition, axiom, hypothesis, conjecture.  Lambda is ``^ [X: ty] :``,
application is ``@`` (left associative), quantifiers are ``!``/``?``, and
arrow types associate to the right.  Parentheses are placed so that the
text re-reads unambiguously: application arguments and connective operands
are wrapped unless atomic, binder bodies are wrapped unless they are
binders themselves, and a trailing lambda argument stays bare.  Output is
ASCII and deterministic; long lines wrap between tokens at a configurable
column.

Two layouts are supported.  Inline emits a single self-contained file.
Include splits an embedded problem's infrastructure, by the groups the
embedding set, into a domain-condition axiom file and a logic axiom file
(named ``<basename>_<domain>.ax`` and ``<basename>_<logic>.ax``),
referenced from the problem file by two ``include`` lines, with the
user's declarations and formulas following.

Every problem embedded under one configuration starts with the same
vocabulary units (``embedding._vocabulary``).  Their text is rendered
once per configuration, width and process, on first use, and kept whole
and split by group; a problem is served from it only if its leading
units are those very objects, in their groups.  Any other problem is
rendered unit by unit, to the same text.
"""

from __future__ import annotations

import posixpath
from dataclasses import dataclass
from functools import cache
from operator import is_

from . import hol
from .embedding import DOMAIN, LOGIC, EmbeddedProblem, TranslationConfig, _vocabulary
from .hol import App, Const, Exists, Forall, Lambda, Not, Var, print_type

_BINDER_TOKEN = {Lambda: "^", Forall: "!", Exists: "?"}
_BINDERS = (Lambda, Forall, Exists)
_ATOMIC = (Const, Var)
_CONNECTIVE = {hol.And: " & ", hol.Or: " | ", hol.Implies: " => "}

# The emitters append the text of a term to out, and a unit's text is
# joined once.  A subterm is reached through _term and one helper, two
# frames per level of nesting: that sets how deep a term may nest before
# the recursion limit stops its emission.


def _binder(t: hol.Term, out: list[str]) -> None:
    cls = type(t)
    binders = []
    while isinstance(t, cls):
        binders.append(f"{t.var}: {print_type(t.var_type)}")
        t = t.body
    out.append(_BINDER_TOKEN[cls] + " [" + ",".join(binders) + "] : ")
    if isinstance(t, _BINDERS):
        _binder(t, out)
    else:
        out.append("( ")
        _term(t, out)
        out.append(" )")


def _app(t: App, out: list[str]) -> None:
    args: list[hol.Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fun
    if isinstance(t, _ATOMIC):
        out.append(t.name)
    else:
        out.append("( ")
        _term(t, out)
        out.append(" )")
    last = len(args) - 1
    for i, a in enumerate(reversed(args)):
        if isinstance(a, _ATOMIC):
            out.append(" @ " + a.name)
        elif i == last and isinstance(a, _BINDERS):
            # a trailing binder extends to the enclosing delimiter
            out.append(" @ ")
            _binder(a, out)
        else:
            out.append(" @ ( ")
            _term(a, out)
            out.append(" )")


def _not(t: Not, out: list[str]) -> None:
    if isinstance(t.body, _ATOMIC):
        out.append("~ " + t.body.name)
    else:
        out.append("~ ( ")
        _term(t.body, out)
        out.append(" )")


def _operand(t: hol.Term, out: list[str]) -> None:
    if isinstance(t, _ATOMIC):
        out.append(t.name)
    elif isinstance(t, Not):
        _not(t, out)
    else:
        out.append("( ")
        _term(t, out)
        out.append(" )")


def _term(term: hol.Term, out: list[str]) -> None:
    if isinstance(term, _ATOMIC):
        out.append(term.name)
    elif isinstance(term, App):
        _app(term, out)
    elif isinstance(term, _BINDERS):
        _binder(term, out)
    elif isinstance(term, Not):
        _not(term, out)
    elif type(term) in _CONNECTIVE:
        _operand(term.left, out)
        out.append(_CONNECTIVE[type(term)])
        _operand(term.right, out)
    else:
        raise TypeError(f"not a term: {term!r}")


def emit_term(term: hol.Term) -> str:
    out: list[str] = []
    _term(term, out)
    return "".join(out)


def emit_unit(unit: hol.Unit) -> str:
    if unit.kind == "type_decl":
        return f"thf({unit.name},type,( {unit.symbol}: {print_type(unit.type)} ))."
    if unit.kind == "definition":
        out = [f"thf({unit.name},definition,( {unit.symbol} = ( "]
        _term(unit.term, out)
        out.append(" ) )).")
    else:
        out = [f"thf({unit.name},{unit.kind},( "]
        _term(unit.term, out)
        out.append(" )).")
    return "".join(out)


def _wrap(line: str, width: int) -> str:
    """line broken at spaces into lines of at most width characters, the
    continuation lines indented by four spaces: each line takes as many
    words as fit, and at least one."""
    if len(line) <= width:
        return line
    lines = []
    start, room = 0, max(width, 0)
    while len(line) - start > room:
        cut = line.rfind(" ", start, start + room + 1)
        if cut < 0:  # the first word alone is longer than the room
            cut = line.find(" ", start + room)
            if cut < 0:
                break
        lines.append(line[start:cut])
        start, room = cut + 1, max(width - 4, 0)
    lines.append(line[start:])
    return "\n    ".join(lines)


@dataclass(frozen=True)
class Inline:
    pass


@dataclass(frozen=True)
class Include:
    axiom_dir: str
    basename: str

    def __post_init__(self):
        if not self.basename:
            raise ValueError("include mode needs a nonempty basename")
        path = posixpath.join(self.axiom_dir, self.basename)
        if not all(" " <= ch <= "~" for ch in path):
            raise ValueError(f"include path {path!r} is not printable ASCII")


EmissionMode = Inline | Include


@dataclass(frozen=True)
class EmittedOutput:
    problem_text: str
    axiom_files: tuple[tuple[str, str], ...] = ()


def _quoted(path: str) -> str:
    """A TPTP single-quoted atom: ' and \\ take a backslash."""
    return "'" + path.replace("\\", "\\\\").replace("'", "\\'") + "'"


def _render(units, width: int) -> str:
    if not units:
        return ""
    return "\n".join([_wrap(emit_unit(u), width) for u in units]) + "\n"


@cache
def _rendered_vocabulary(config: TranslationConfig, width: int):
    """The vocabulary of config (embedding._vocabulary): its units, their
    groups, and its text rendered whole, of the DOMAIN group and of the
    LOGIC group.  Kept per configuration, width and process, filled on
    first use."""
    groups, units = zip(*_vocabulary(config))
    return (
        units,
        groups,
        _render(units, width),
        _render([u for u, g in zip(units, groups) if g == DOMAIN], width),
        _render([u for u, g in zip(units, groups) if g == LOGIC], width),
    )


def _rendered_prefix(problem: hol.Problem, width: int) -> tuple[int, str, str, str]:
    """The number of leading units of problem that its configuration's
    rendered vocabulary covers, with that text whole, of the DOMAIN group
    and of the LOGIC group.  It covers none unless those units are the
    vocabulary's own unit objects, in its groups, as embed_problem builds
    them."""
    if isinstance(problem, EmbeddedProblem):
        units, groups, *texts = _rendered_vocabulary(problem.config, width)
        n = len(units)
        if (
            len(problem.units) >= n
            and problem.groups[:n] == groups
            and all(map(is_, problem.units, units))
        ):
            return (n, *texts)
    return 0, "", "", ""


def emit_problem(
    problem: hol.Problem, mode: EmissionMode = Inline(), width: int = 100
) -> EmittedOutput:
    skip, text, domain_text, logic_text = _rendered_prefix(problem, width)
    if isinstance(mode, Inline):
        return EmittedOutput(text + _render(problem.units[skip:], width))

    if not isinstance(problem, EmbeddedProblem):
        raise ValueError(
            "include mode needs an embedded problem (from embed_problem), "
            "which carries its configuration and unit groups"
        )
    split = {DOMAIN: [], LOGIC: [], None: []}
    for unit, group in zip(problem.units[skip:], problem.groups[skip:]):
        split[group].append(unit)

    config = problem.config
    domain_path = posixpath.join(mode.axiom_dir, f"{mode.basename}_{config.domain.tag}.ax")
    logic_path = posixpath.join(mode.axiom_dir, f"{mode.basename}_{config.logic.tag}.ax")
    header = f"include({_quoted(domain_path)}).\ninclude({_quoted(logic_path)}).\n"
    body = _render(split[None], width)
    problem_text = header + ("\n" + body if body else "")
    return EmittedOutput(
        problem_text,
        (
            (domain_path, domain_text + _render(split[DOMAIN], width)),
            (logic_path, logic_text + _render(split[LOGIC], width)),
        ),
    )
