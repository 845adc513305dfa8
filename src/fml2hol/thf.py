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
"""

from __future__ import annotations

import posixpath
from dataclasses import dataclass

from . import hol
from .embedding import DOMAIN, LOGIC, EmbeddedProblem
from .hol import App, Const, Exists, Forall, Lambda, Not, Var, print_type

_BINDER_TOKEN = {Lambda: "^", Forall: "!", Exists: "?"}
_ATOMIC = (Const, Var)


def _emit_binder(t: hol.Term) -> str:
    cls = type(t)
    binders = []
    while isinstance(t, cls):
        binders.append(f"{t.var}: {print_type(t.var_type)}")
        t = t.body
    head = _BINDER_TOKEN[cls] + " [" + ",".join(binders) + "] : "
    if isinstance(t, (Lambda, Forall, Exists)):
        return head + _emit_binder(t)
    return head + "( " + emit_term(t) + " )"


def _spine(t: hol.Term) -> tuple[hol.Term, list[hol.Term]]:
    args: list[hol.Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fun
    args.reverse()
    return t, args


def _emit_app(t: hol.Term) -> str:
    head, args = _spine(t)
    if isinstance(head, _ATOMIC):
        parts = [head.name]
    else:
        parts = ["( " + emit_term(head) + " )"]
    for i, a in enumerate(args):
        if isinstance(a, _ATOMIC):
            parts.append(a.name)
        elif isinstance(a, (Lambda, Forall, Exists)) and i == len(args) - 1:
            # a trailing binder extends to the enclosing delimiter
            parts.append(_emit_binder(a))
        else:
            parts.append("( " + emit_term(a) + " )")
    return " @ ".join(parts)


def _emit_not(t: Not) -> str:
    if isinstance(t.body, _ATOMIC):
        return "~ " + t.body.name
    return "~ ( " + emit_term(t.body) + " )"


def _emit_operand(t: hol.Term) -> str:
    if isinstance(t, _ATOMIC):
        return t.name
    if isinstance(t, Not):
        return _emit_not(t)
    return "( " + emit_term(t) + " )"


def emit_term(term: hol.Term) -> str:
    if isinstance(term, _ATOMIC):
        return term.name
    if isinstance(term, App):
        return _emit_app(term)
    if isinstance(term, (Lambda, Forall, Exists)):
        return _emit_binder(term)
    if isinstance(term, Not):
        return _emit_not(term)
    if isinstance(term, hol.And):
        return f"{_emit_operand(term.left)} & {_emit_operand(term.right)}"
    if isinstance(term, hol.Or):
        return f"{_emit_operand(term.left)} | {_emit_operand(term.right)}"
    if isinstance(term, hol.Implies):
        return f"{_emit_operand(term.left)} => {_emit_operand(term.right)}"
    raise TypeError(f"not a term: {term!r}")


def emit_unit(unit: hol.Unit) -> str:
    if unit.kind == "type_decl":
        payload = f"{unit.symbol}: {print_type(unit.type)}"
        kind = "type"
    elif unit.kind == "definition":
        payload = f"{unit.symbol} = ( {emit_term(unit.term)} )"
        kind = "definition"
    else:
        payload = emit_term(unit.term)
        kind = unit.kind
    return f"thf({unit.name},{kind},( {payload} ))."


def _wrap(line: str, width: int) -> str:
    if len(line) <= width:
        return line
    words = line.split(" ")
    lines = [words[0]]
    for word in words[1:]:
        if len(lines[-1]) + 1 + len(word) <= width:
            lines[-1] += " " + word
        else:
            lines.append("    " + word)
    return "\n".join(lines)


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
    return "\n".join(_wrap(emit_unit(u), width) for u in units) + "\n"


def emit_problem(
    problem: hol.Problem, mode: EmissionMode = Inline(), width: int = 100
) -> EmittedOutput:
    if isinstance(mode, Inline):
        return EmittedOutput(_render(problem.units, width))

    if not isinstance(problem, EmbeddedProblem):
        raise ValueError(
            "include mode needs an embedded problem (from embed_problem), "
            "which carries its configuration and unit groups"
        )
    split = {DOMAIN: [], LOGIC: [], None: []}
    for unit, group in zip(problem.units, problem.groups):
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
            (domain_path, _render(split[DOMAIN], width)),
            (logic_path, _render(split[LOGIC], width)),
        ),
    )
