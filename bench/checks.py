"""Known answers and output checks, run after the timed region.

Every check reads the CLI's text output and returns None when it is right
or a one-line reason when it is not.  Countermodels are re-verified twice:
through the modal evaluator, and through ``eval_hol`` on the expanded
embedded image, which does not go through ``eval_fml``.
"""

from __future__ import annotations

import re

from corpus import CONFIGS

E1_REFUTABLE = {
    config: config.endswith(":vary") or (config.endswith(":cumul") and not config.startswith("s5:"))
    for config in CONFIGS
}

# The published thf listings for E1 (golden translation criterion).
E1_CONJECTURE = """\
thf(prove,conjecture,( mvalid @
    ( mimplies @ ( mforall_ind @ ^ [X: mu] : ( mbox_d @ ( f @ X ) ) )
               @ ( mbox_d @ ( mforall_ind @ ^ [X: mu] : ( f @ X ) ) ) ) )).
"""
E1_LISTINGS = {
    ("d:const", "inline"): {
        "prove": E1_CONJECTURE,
        "f_type": "thf(f_type,type,( f: mu > $i > $o )).",
    },
    ("s5:vary", "inline"): {
        "prove": E1_CONJECTURE.replace("mbox_d", "mbox_s5"),
        "mforall_ind": """\
thf(mforall_ind,definition,( mforall_ind =
    ( ^ [Phi: mu > $i > $o,W: $i] :
      ! [X: mu] : ( ( exists_in_world @ X @ W ) => ( Phi @ X @ W ) ) ) )).
""",
        "nonempty_ax": """\
thf(nonempty_ax,axiom,(
    ! [V : $i] : ? [X : mu] : (exists_in_world @ X @ V))).
""",
        "a1": "thf(a1,axiom,( mreflexive @ rel_s5 )).",
        "a2": "thf(a2,axiom,( mtransitive @ rel_s5 )).",
        "a3": "thf(a3,axiom,( msymmetric @ rel_s5 )).",
    },
    ("d:const", "include"): {
        "Axioms/e1_const.ax": "include('Axioms/e1_const.ax').",
        "Axioms/e1_d.ax": "include('Axioms/e1_d.ax').",
    },
}

_TOKEN = re.compile(r"%[^\n]*|'[^']*'|\$?\w+|=>|[()\[\],.:=^!?@~&|>]")


def lex(text: str) -> list[str]:
    """thf tokens without comments, so layout and line breaks do not matter."""
    return [t for t in _TOKEN.findall(text) if not t.startswith("%")]


def thf_units(text: str) -> dict[str, str]:
    """Unit name (or include path) -> its full text, continuation lines joined."""
    groups: list[list[str]] = []
    for line in text.splitlines():
        if line.strip():
            if line.startswith(" ") and groups:
                groups[-1].append(line)
            else:
                groups.append([line])
    return {g[0].split("(", 1)[1].split(",")[0].strip("').\""): "\n".join(g) for g in groups}


def check_e1_listing(config: str, layout: str, stdout: str) -> str | None:
    units = thf_units(stdout)
    for name, golden in E1_LISTINGS.get((config, layout), {}).items():
        if name not in units:
            return f"missing unit {name}"
        if lex(units[name]) != lex(golden):
            return f"unit {name} deviates from the published listing"
    return None


def search_verdict(stdout: str) -> str | None:
    if "% SZS status CounterSatisfiable" in stdout:
        return "found"
    if "no countermodel within bounds" in stdout:
        return "exhausted"
    if "search timed out" in stdout:
        return "timeout"
    return None


def countermodel(stdout: str) -> tuple[str, str] | None:
    """(witness world, fixture text) of a printed countermodel."""
    lines = stdout.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("# conjecture false at "):
            body = []
            for rest in lines[i + 1:]:
                if rest.startswith("%"):
                    break
                body.append(rest)
            return line[len("# conjecture false at "):].strip(), "\n".join(body) + "\n"
    return None


def reverify(problem_text: str, config: str, stdout: str):
    """Re-read a printed countermodel and check it both ways.

    Returns (reason or None, (worlds, individuals) or None)."""
    # imported here: run.load_program puts the checkout's src/ on the path
    from fml2hol import embedding, hol, kripke, qmf

    found = countermodel(stdout)
    if found is None:
        return "no countermodel in the output", None
    witness, text = found
    try:
        model = kripke.parse_model(text)
    except kripke.ModelError as exc:
        return f"printed countermodel does not parse: {exc}", None
    size = (len(model.worlds), len(model.universe))
    logic, domain = config.split(":")
    cfg = embedding.TranslationConfig(embedding.parse_logic(logic), embedding.parse_domain(domain))
    if witness not in model.worlds:
        return f"witness {witness} is not a world of the model", size
    if not kripke.check_frame(model, cfg.logic):
        return "countermodel violates the frame condition", size
    if not kripke.check_domains(model, cfg.domain):
        return "countermodel violates the domain condition", size
    problem = qmf.parse_problem(problem_text)
    assumptions = [u.formula for u in problem.units if u.role != "conjecture"]
    goal = problem.conjecture().formula
    if not all(kripke.eval_fml(model, w, a) for a in assumptions for w in model.worlds):
        return "an assumption is not globally true (modal evaluation)", size
    if kripke.eval_fml(model, witness, goal):
        return "conjecture true at the witness (modal evaluation)", size
    definitions = hol.Problem(embedding.connective_definitions(cfg))

    def image(formula):
        term = hol.expand_definitions(definitions, embedding.embed_formula(formula, cfg))
        return kripke.eval_hol(model, term)

    if not all(image(a)(w) for a in assumptions for w in model.worlds):
        return "an assumption is not globally true (embedded evaluation)", size
    if image(goal)(witness):
        return "conjecture true at the witness (embedded evaluation)", size
    return None, size


def check_eval(stdout: str, stderr: str, worlds: int, violated: bool) -> str | None:
    if violated:
        # the exit code (4) is checked by the caller; the message must name something
        return None if stderr.strip() else "no violation named on stderr"
    lines = stdout.splitlines()
    if len(lines) != worlds + 1 or any(
        line not in (f"true at w{i}", f"false at w{i}") for i, line in enumerate(lines[:-1], 1)
    ):
        return f"expected one truth line for each of {worlds} worlds, got {stdout[:120]!r}"
    if lines[-1] != "correspondence OK":
        return f"expected 'correspondence OK', got {lines[-1]!r}"
    return None
