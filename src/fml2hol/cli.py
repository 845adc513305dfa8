"""Command-line front end.

Subcommands: ``translate`` (qmf to thf0), ``check`` (bounded countermodel
search), ``eval`` (evaluate a problem over a model fixture), and
``run-prover`` (dispatch a thf file to an external prover and parse its
SZS status line).  The translation target is selected either with
``-f thf:<logic>:<domain>`` or with ``--logic``/``--domain``; tokens are
case-insensitive with canonical lowercase spelling k, k4, d, d4, t, s4,
s5 and const, vary, cumul.

Exit codes: 0 success (including "no countermodel", which is a result,
not a failure); 1 parse or validation error, or input nested too deeply
to process; 2 I/O error; 3 search timeout (after --time-budget, 60 s by
default) under --strict-timeout; 4 model fixture violates the frame or
domain condition; 64 usage error.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import re
import sys
from dataclasses import dataclass
from functools import cache
from pathlib import Path

from . import embedding, fml, kripke, qmf, thf
from .embedding import TranslationConfig, parse_domain, parse_logic

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_IO = 2
EXIT_TIMEOUT = 3
EXIT_FIXTURE = 4
EXIT_USAGE = 64

SZS_KINDS = (
    "Theorem",
    "CounterSatisfiable",
    "Satisfiable",
    "Unsatisfiable",
    "Unknown",
    "Timeout",
    "Error",
)

_SZS_LINE = re.compile(r"SZS\s+status\s+(\S+)")
_POSIX = os.name == "posix"


@dataclass(frozen=True)
class SzsStatus:
    kind: str
    detail: str | None = None

    def __post_init__(self):
        if self.kind not in SZS_KINDS:
            raise ValueError(f"unknown SZS status kind {self.kind!r}")


def parse_szs(output: str) -> SzsStatus:
    """First SZS status line of prover output; Error if none or unknown."""
    for line in output.splitlines():
        m = _SZS_LINE.search(line)
        if m:
            word = m.group(1)
            if word in SZS_KINDS and word != "Error":
                return SzsStatus(word)
            return SzsStatus("Error", line.strip())
    return SzsStatus("Error", "no SZS status line in prover output")


def run_prover(path: str, command: str, timeout: float | None = None) -> SzsStatus:
    """Run a prover command template on a thf file and parse the verdict.

    The template is split shell-style and every occurrence of ``{file}``
    is replaced by the path.  Spawn failures and missing status lines both
    come back as Error; exceeding the timeout comes back as Timeout.  A
    timeout of None or infinity sets no limit; a NaN or non-positive one
    raises ValueError before anything is spawned.  On POSIX the prover
    runs in a session of its own and a timeout kills its process group,
    so a prover started through a wrapper script leaves nothing running;
    elsewhere the prover process alone is killed.
    """
    if timeout is not None and not timeout > 0:
        raise ValueError("timeout must be positive")
    # imported here, not at the top: no other command spawns a process,
    # and every process of the others would pay for these imports
    import shlex
    import signal
    import subprocess

    cmd = [part.replace("{file}", str(path)) for part in shlex.split(command)]
    try:
        proc = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            # a stray byte that is not UTF-8 must not cost the status line
            encoding="utf-8",
            errors="replace",
            start_new_session=_POSIX,
        )
    except OSError as exc:
        return SzsStatus("Error", str(exc))
    with proc:
        try:
            out, err = proc.communicate(timeout=None if timeout == math.inf else timeout)
        except subprocess.TimeoutExpired:
            if _POSIX:
                os.killpg(proc.pid, signal.SIGKILL)
            else:
                proc.kill()
            proc.wait()
            return SzsStatus("Timeout")
    return parse_szs(out + "\n" + err)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_config_flags(parser: argparse.ArgumentParser):
    parser.add_argument(
        "-f",
        "--format",
        metavar="thf:<logic>:<domain>",
        help="combined target selector, e.g. thf:d:const",
    )
    parser.add_argument("--logic", help="one of k, k4, d, d4, t, s4, s5")
    parser.add_argument("--domain", help="one of const, vary, cumul")


def _config_from_args(args, parser: argparse.ArgumentParser) -> TranslationConfig:
    if args.format is not None:
        if args.logic is not None or args.domain is not None:
            raise ValueError("give either -f or --logic/--domain, not both")
        parts = args.format.split(":")
        if len(parts) != 3 or parts[0].lower() != "thf":
            raise ValueError(
                f"unrecognized format {args.format!r} (expected thf:<logic>:<domain>)"
            )
        return TranslationConfig(parse_logic(parts[1]), parse_domain(parts[2]))
    if args.logic is None or args.domain is None:
        parser.error("a target is required: -f thf:<logic>:<domain> or --logic and --domain")
    return TranslationConfig(parse_logic(args.logic), parse_domain(args.domain))


def _load(path: str, parse, *errors):
    """parse applied to the text of the file at path.  A read error
    propagates as its OSError; text that is not UTF-8, or one of errors,
    as a ValueError that leads with the path."""
    try:
        with open(path, encoding="utf-8") as handle:
            return parse(handle.read())
    except (UnicodeDecodeError, *errors) as exc:
        raise ValueError(f"{path}:{exc}") from None


def _parse_input(path: str) -> fml.Problem:
    return _load(path, qmf.parse_problem, qmf.ParseError, fml.ProblemError)


def _run_translate(args, parser) -> int:
    config = _config_from_args(args, parser)
    problem = _parse_input(args.input)
    if args.output is not None:
        output = args.output
    else:
        output = Path(args.input).with_suffix(".thf").name
    if args.include_axioms:
        axiom_dir = os.environ.get("FML2HOL_AXIOM_DIR", "")
        basename = Path(args.input).stem
        mode = thf.Include(axiom_dir, basename)
    else:
        mode = thf.Inline()
    emitted = thf.emit_problem(embedding.embed_problem(problem, config), mode)
    out_dir = Path(".") if output == "-" else Path(output).parent
    try:
        for rel_path, text in emitted.axiom_files:
            target = out_dir / rel_path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text, encoding="utf-8")
        if output == "-":
            sys.stdout.write(emitted.problem_text)
        else:
            Path(output).write_text(emitted.problem_text, encoding="utf-8")
    except OSError as exc:
        print(f"cannot write output: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _run_check(args, parser) -> int:
    config = _config_from_args(args, parser)
    problem = _parse_input(args.input)
    bounds = kripke.SearchBounds(args.max_worlds, args.max_individuals, args.time_budget)
    result = kripke.find_countermodel(problem, config, bounds)
    if isinstance(result, kripke.Countermodel):
        print(f"# conjecture false at {result.world}")
        sys.stdout.write(kripke.print_model(result.model))
        print("% SZS status CounterSatisfiable")
        return EXIT_OK
    if isinstance(result, kripke.Timeout):
        print("search timed out")
        print("% SZS status Unknown")
        return EXIT_TIMEOUT if args.strict_timeout else EXIT_OK
    print(
        f"no countermodel within bounds (worlds ≤ {bounds.max_worlds}, "
        f"individuals ≤ {bounds.max_individuals})"
    )
    print("% SZS status Unknown")
    return EXIT_OK


def _signature_mismatches(given: fml.Signature, used: fml.Signature) -> list[str]:
    """The fixture's signature against the problem's: symbols it interprets
    with another arity than the problem uses, predicates of the problem it
    interprets as a function or a constant, then constants and functions
    of the problem it leaves out (the labelling evaluator reaches every
    term, so each would raise).  A predicate it leaves out is false."""
    arities = [
        f"{kind} {name} has arity {arity} in the problem but {theirs[name]} in the fixture"
        for kind, ours, theirs in (
            ("predicate", used.predicates, given.predicates),
            ("function", used.functions, given.functions),
        )
        for name, arity in ours.items()
        if theirs.get(name, arity) != arity
    ]
    sorts = [
        f"predicate '{name}' of the problem is a {kind} in the fixture"
        for name in used.predicates
        for kind, theirs in (("function", given.functions), ("constant", given.constants))
        if name in theirs
    ]
    return arities + sorts + [
        f"{kind} '{name}' of the problem has no interpretation in the fixture"
        for kind, names, theirs in (
            ("constant", used.constants, given.constants),
            ("function", used.functions, given.functions),
        )
        for name in names
        if name not in theirs
    ]


def _run_eval(args, parser) -> int:
    config = _config_from_args(args, parser)
    problem = _parse_input(args.input)
    # the embedded reading would take a reserved name for its own
    embedding.check_names(problem)
    model = _load(args.model, kripke.parse_model, kripke.ModelError)
    violations = kripke.frame_violations(model, config.logic) + kripke.domain_violations(
        model, config.domain
    )
    if violations:
        for message in violations:
            print(message, file=sys.stderr)
        return EXIT_FIXTURE
    conjecture = problem.conjecture()
    if conjecture is None:
        raise ValueError("the problem has no conjecture to evaluate")
    mismatches = _signature_mismatches(model.signature, problem.signature)
    if mismatches:
        raise ValueError("\n".join(mismatches))
    truth = kripke.label_fml(model, conjecture.formula)
    agrees = kripke.correspondence_check(model, conjecture.formula, config, truth=truth)
    for i, w in enumerate(model.worlds):
        print(f"{'true' if truth >> i & 1 else 'false'} at {w}")
    print(f"correspondence {'OK' if agrees else 'FAILED'}")
    return EXIT_OK


def _run_prover_cmd(args, parser) -> int:
    if "{file}" not in args.command:
        parser.error("the command template must contain a {file} placeholder")
    if not os.path.exists(args.input):
        raise FileNotFoundError(errno.ENOENT, "no such file", args.input)
    status = run_prover(args.input, args.command, args.timeout)
    if status.kind == "Error" and status.detail:
        print(status.detail, file=sys.stderr)
    print(f"% SZS status {status.kind}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fml2hol", description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p_translate = subparsers.add_parser(
        "translate", help="translate a qmf problem to a thf0 problem"
    )
    p_translate.add_argument("input", help="qmf problem file")
    _add_config_flags(p_translate)
    p_translate.add_argument(
        "-o",
        "--output",
        help="output path, - for stdout (default: input basename with .thf)",
    )
    p_translate.add_argument(
        "--include-axioms",
        action="store_true",
        help="split the semantics into two axiom files referenced by include "
        "lines instead of inlining them (FML2HOL_AXIOM_DIR sets the directory)",
    )
    p_translate.set_defaults(run=_run_translate)

    p_check = subparsers.add_parser("check", help="bounded countermodel search")
    p_check.add_argument("input", help="qmf problem file")
    _add_config_flags(p_check)
    p_check.add_argument("--max-worlds", type=int, default=3, help="world bound (default 3)")
    p_check.add_argument(
        "--max-individuals", type=int, default=3, help="individual bound (default 3)"
    )
    p_check.add_argument(
        "--time-budget",
        type=float,
        default=60.0,
        help="seconds before giving up with SZS status Unknown (default 60)",
    )
    p_check.add_argument(
        "--strict-timeout",
        action="store_true",
        help="exit with code 3 when the time budget is exhausted",
    )
    p_check.set_defaults(run=_run_check)

    p_eval = subparsers.add_parser("eval", help="evaluate a problem over a model fixture")
    p_eval.add_argument("input", help="qmf problem file")
    p_eval.add_argument("--model", required=True, help="model fixture file")
    _add_config_flags(p_eval)
    p_eval.set_defaults(run=_run_eval)

    p_prover = subparsers.add_parser(
        "run-prover", help="run an external prover and parse its SZS status"
    )
    p_prover.add_argument("input", help="thf problem file")
    p_prover.add_argument(
        "--command", required=True, help="command template with a {file} placeholder"
    )
    p_prover.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="seconds before killing the prover and its process group (default 60)",
    )
    p_prover.set_defaults(run=_run_prover_cmd)

    return parser


# argparse keeps no state between parse_args calls, so one parser serves
# every call in a process
_parser = cache(build_parser)


def main(argv=None) -> int:
    """Run the command line on argv (default sys.argv[1:]) and return its
    exit code.  An unreadable, unparsable or invalid input ends here, as
    its message on stderr and exit 2 or 1; only argparse raises
    SystemExit, with 64 on a usage error."""
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args, parser)
    except OSError as exc:
        if exc.filename is None:  # not a read: a closed stdout, say
            raise
        print(f"cannot read {exc.filename}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    except RecursionError:
        # the parser, the embedding, the emitter and both evaluators
        # recurse on formula depth; a chain too deep for them is rejected
        print(f"{args.input}: input nested too deeply", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
