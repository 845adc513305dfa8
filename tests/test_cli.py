"""End-to-end command-line behavior, exit codes, and SZS plumbing."""

import gc
import itertools
import os
import pathlib
import re
import shlex
import stat
import subprocess
import sys
import threading
import time

import pytest

import fml2hol
from fml2hol import cli, fml, kripke, qmf
from fml2hol.cli import SzsStatus, main, parse_szs, run_prover
from fml2hol.embedding import DomainCondition, Logic, TranslationConfig

E1_TEXT = (
    "qmf(con,conjecture,( ( ! [X] : ( #box : ( f(X) ) ) )"
    " => ( #box : ( ! [X] : ( f(X) ) ) ) )).\n"
)

FIXTURE_TEXT = """\
worlds: w1 w2
rel: w1>w2
universe: a b
dom w1: a
dom w2: a b
pred f @ w1: a
pred f @ w2: a
"""


@pytest.fixture
def e1_path(tmp_path):
    path = tmp_path / "e1.qmf"
    path.write_text(E1_TEXT, encoding="utf-8")
    return str(path)


def write_script(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(f"#!/bin/sh\n{body}\n", encoding="utf-8")
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


def test_usage_errors_exit_64(capsys, e1_path):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["translate", e1_path])
    assert exc.value.code == 64
    assert "a target is required" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["run-prover", e1_path, "--command", "prover -t 10"])
    assert exc.value.code == 64
    assert "{file}" in capsys.readouterr().err


def test_conflicting_target_flags(capsys, e1_path):
    code = main(["translate", e1_path, "-f", "thf:d:const", "--logic", "d", "-o", "-"])
    assert code == 1
    assert "not both" in capsys.readouterr().err


def test_malformed_format(capsys, e1_path):
    code = main(["translate", e1_path, "-f", "tptp:d:const", "-o", "-"])
    assert code == 1
    assert "unrecognized format 'tptp:d:const'" in capsys.readouterr().err
    code = main(["translate", e1_path, "-f", "thf:d", "-o", "-"])
    assert code == 1
    assert "expected thf:<logic>:<domain>" in capsys.readouterr().err


def test_unknown_logic_and_domain(capsys, e1_path):
    assert main(["translate", e1_path, "-f", "thf:x7:const", "-o", "-"]) == 1
    assert "unknown logic: x7" in capsys.readouterr().err
    assert main(["translate", e1_path, "-f", "thf:d:everywhere", "-o", "-"]) == 1
    assert "unknown domain condition: everywhere" in capsys.readouterr().err


def test_format_flag_matches_split_flags(capsys, e1_path):
    for logic, domain in itertools.product(Logic, DomainCondition):
        assert main(["translate", e1_path, "-f", f"thf:{logic.tag}:{domain.tag}", "-o", "-"]) == 0
        combined = capsys.readouterr().out
        code = main(
            ["translate", e1_path, "--logic", logic.tag, "--domain", domain.tag, "-o", "-"]
        )
        assert code == 0
        assert capsys.readouterr().out == combined


def test_target_tokens_case_insensitive(capsys, e1_path):
    assert main(["translate", e1_path, "-f", "THF:S5:Vary", "-o", "-"]) == 0
    upper = capsys.readouterr().out
    assert main(["translate", e1_path, "-f", "thf:s5:vary", "-o", "-"]) == 0
    assert capsys.readouterr().out == upper


def test_translate_default_output_name(tmp_path, monkeypatch, e1_path):
    monkeypatch.chdir(tmp_path)
    assert main(["translate", e1_path, "-f", "thf:d:const"]) == 0
    produced = tmp_path / "e1.thf"
    assert produced.exists()
    assert "thf(prove,conjecture," in produced.read_text(encoding="utf-8")


def test_translate_explicit_output(tmp_path, e1_path):
    target = tmp_path / "out" / "translated.thf"
    target.parent.mkdir()
    assert main(["translate", e1_path, "-f", "thf:d:const", "-o", str(target)]) == 0
    text = target.read_text(encoding="utf-8")
    assert text.endswith(")).\n")
    assert "mbox_d" in text


def test_translate_stdout_contains_golden_lines(capsys, e1_path):
    assert main(["translate", e1_path, "-f", "thf:d:const", "-o", "-"]) == 0
    out = capsys.readouterr().out
    assert "thf(f_type,type,( f: mu > $i > $o ))." in out
    assert "thf(mbox_d,definition," in out


def test_translate_is_deterministic(capsys, e1_path):
    runs = []
    for _ in range(2):
        assert main(["translate", e1_path, "-f", "thf:s4:cumul", "-o", "-"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


def test_translate_include_mode(tmp_path, monkeypatch, e1_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("FML2HOL_AXIOM_DIR", "lib")
    assert main(["translate", e1_path, "-f", "thf:t:cumul", "--include-axioms"]) == 0
    problem = (tmp_path / "e1.thf").read_text(encoding="utf-8")
    assert problem.startswith(
        "include('lib/e1_cumul.ax').\ninclude('lib/e1_t.ax').\n"
    )
    domain_part = (tmp_path / "lib" / "e1_cumul.ax").read_text(encoding="utf-8")
    logic_part = (tmp_path / "lib" / "e1_t.ax").read_text(encoding="utf-8")
    assert "nonempty_ax" in domain_part
    assert "cumulative_ax" in logic_part
    assert "rel_t" in logic_part


@pytest.mark.xfail(
    strict=True,
    reason="the cumulative axiom sits in the logic file, which every domain "
    "condition of one basename shares (ROADMAP 5(a))",
)
def test_translate_include_mode_keeps_each_domain_in_one_directory(
    tmp_path, monkeypatch, e1_path
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("FML2HOL_AXIOM_DIR", "lib")
    for domain in ("vary", "cumul"):
        argv = ["translate", e1_path, "-f", f"thf:k:{domain}", "--include-axioms"]
        assert main([*argv, "-o", f"{domain}.thf"]) == 0
    problem = (tmp_path / "vary.thf").read_text(encoding="utf-8")
    included = re.findall(r"^include\('([^']*)'\)\.$", problem, re.MULTILINE)
    assert included == ["lib/e1_vary.ax", "lib/e1_k.ax"]
    for path in included:
        assert "cumulative_ax" not in (tmp_path / path).read_text(encoding="utf-8")


def test_translate_include_mode_without_dir_env(tmp_path, monkeypatch, e1_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FML2HOL_AXIOM_DIR", raising=False)
    out = tmp_path / "sub" / "e1.thf"
    out.parent.mkdir()
    assert main(["translate", e1_path, "-f", "thf:k:const", "--include-axioms", "-o", str(out)]) == 0
    # axiom files land next to the output when no directory is configured
    assert (tmp_path / "sub" / "e1_const.ax").exists()
    assert (tmp_path / "sub" / "e1_k.ax").exists()


def test_translate_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.qmf"
    bad.write_text("qmf(a,axiom,( p $ q )).\n", encoding="utf-8")
    assert main(["translate", str(bad), "-f", "thf:d:const", "-o", "-"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(str(bad) + ":1:")


def test_translate_missing_input(tmp_path, capsys):
    missing = str(tmp_path / "absent.qmf")
    assert main(["translate", missing, "-f", "thf:d:const", "-o", "-"]) == 2
    assert f"cannot read {missing}" in capsys.readouterr().err


def test_check_finds_varying_countermodel(capsys, e1_path):
    code = main(
        ["check", e1_path, "--logic", "d", "--domain", "vary",
         "--max-worlds", "2", "--max-individuals", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("# conjecture false at ")
    assert lines[-1] == "% SZS status CounterSatisfiable"
    witness = lines[0].split()[-1]
    found = kripke.Countermodel(kripke.parse_model("\n".join(lines[1:-1]) + "\n"), witness)
    config = TranslationConfig(Logic.D, DomainCondition.VARYING)
    assert kripke.countermodel_violations(qmf.parse_problem(E1_TEXT), config, found) == ()


def test_check_reports_exhausted_bounds(capsys, e1_path):
    code = main(["check", e1_path, "--logic", "s5", "--domain", "cumul"])
    assert code == 0
    out = capsys.readouterr().out
    assert "no countermodel within bounds (worlds ≤ 3, individuals ≤ 3)" in out
    assert "% SZS status Unknown" in out


def test_check_bound_flags_echoed(capsys, e1_path):
    code = main(
        ["check", e1_path, "-f", "thf:k:const", "--max-worlds", "2", "--max-individuals", "1"]
    )
    assert code == 0
    assert "(worlds ≤ 2, individuals ≤ 1)" in capsys.readouterr().out


def test_check_requires_conjecture(tmp_path, capsys):
    path = tmp_path / "ax.qmf"
    path.write_text("qmf(a,axiom,( p )).\n", encoding="utf-8")
    assert main(["check", str(path), "-f", "thf:k:const"]) == 1
    assert "no conjecture to refute" in capsys.readouterr().err


def test_check_timeout_exit_codes(tmp_path, capsys):
    path = tmp_path / "slow.qmf"
    path.write_text(
        "qmf(con,conjecture,( ! [X] : ? [Y] : ( q(X,Y) => q(Y,X) ) )).\n",
        encoding="utf-8",
    )
    base = ["check", str(path), "-f", "thf:k:const", "--time-budget", "1e-9"]
    assert main(base) == 0
    out = capsys.readouterr().out
    assert "search timed out" in out
    assert "% SZS status Unknown" in out
    assert main(base + ["--strict-timeout"]) == 3


def test_check_rejects_nan_time_budget(capsys, e1_path):
    # NaN would never compare past the deadline; infinity is no limit
    assert main(["check", e1_path, "-f", "thf:k:const", "--time-budget", "nan"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "time budget must be positive\n"
    assert captured.out == ""


def test_check_default_time_budget(monkeypatch, capsys, e1_path):
    seen = []

    def give_up(problem, config, bounds):
        seen.append(bounds)
        return kripke.Timeout()

    monkeypatch.setattr(kripke, "find_countermodel", give_up)
    assert main(["check", e1_path, "-f", "thf:k:const"]) == 0
    assert seen == [kripke.SearchBounds(3, 3, 60.0)]
    assert "% SZS status Unknown" in capsys.readouterr().out
    assert main(["check", e1_path, "-f", "thf:k:const", "--strict-timeout"]) == 3
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["check", "--help"])
    assert "(default 60)" in capsys.readouterr().out


def _fresh_parser_stderr(capsys, argv):
    """(exit code, stderr) of a newly built parser rejecting argv."""
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    return exc.value.code, capsys.readouterr().err


def test_parser_reuse_usage_error_then_valid_call(capsys, e1_path):
    bad = ["translate", e1_path, "--max-worlds", "2"]
    expected = _fresh_parser_stderr(capsys, bad)
    assert expected[0] == 64
    assert main(["translate", e1_path, "-f", "thf:k:const", "-o", "-"]) == 0
    first = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(bad)
    assert (exc.value.code, capsys.readouterr().err) == expected
    assert main(["translate", e1_path, "-f", "thf:k:const", "-o", "-"]) == 0
    again = capsys.readouterr()
    assert (again.out, again.err) == (first.out, first.err) == (again.out, "")
    with pytest.raises(SystemExit) as exc:
        main([])
    assert (exc.value.code, capsys.readouterr().err) == _fresh_parser_stderr(capsys, [])


def test_parser_reuse_time_budget_does_not_stick(monkeypatch, capsys, e1_path):
    seen = []

    def give_up(problem, config, bounds):
        seen.append(bounds)
        return kripke.Timeout()

    monkeypatch.setattr(kripke, "find_countermodel", give_up)
    assert main(["check", e1_path, "-f", "thf:k:const", "--time-budget", "1"]) == 0
    assert main(["check", e1_path, "-f", "thf:k:const"]) == 0
    assert seen == [kripke.SearchBounds(3, 3, 1.0), kripke.SearchBounds(3, 3, 60.0)]
    captured = capsys.readouterr()
    assert captured.out == "search timed out\n% SZS status Unknown\n" * 2
    assert captured.err == ""


def test_parser_reuse_target_flags_do_not_stick(capsys, e1_path):
    outputs = []
    for target in (
        ["-f", "thf:d:vary"],
        ["--logic", "d", "--domain", "vary"],
        ["-f", "thf:d:vary"],
    ):
        assert main(["check", e1_path, *target, "--max-worlds", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert "% SZS status CounterSatisfiable" in outputs[0]


def _conjunction(n):
    return "qmf(con,conjecture,( " + " & ".join(["p"] * n) + " )).\n"


@pytest.mark.parametrize(
    "text, subcommand",
    [
        (_conjunction(600), "translate"),
        ("qmf(con,conjecture,( " + "~ " * 3000 + "p )).\n", "translate"),
        (_conjunction(150), "eval"),
        ("qmf(con,conjecture,( " + "#box : " * 350 + "p )).\n", "check"),
    ],
    ids=["conj600-translate", "neg3000-translate", "conj150-eval", "box350-check"],
)
def test_deep_nesting_exits_cleanly(tmp_path, capsys, text, subcommand):
    problem = tmp_path / "deep.qmf"
    problem.write_text(text, encoding="utf-8")
    fixture = tmp_path / "one.model"
    fixture.write_text("worlds: w1\nrel: w1>w1\nuniverse: a\n", encoding="utf-8")
    extra = {
        "translate": ["-o", "-"],
        "eval": ["--model", str(fixture)],
        "check": ["--max-worlds", "1", "--max-individuals", "1"],
    }[subcommand]
    code = main([subcommand, str(problem), "-f", "thf:k:const", *extra])
    assert code in (0, 1)
    if code == 1:
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{problem}: input nested too deeply\n"


# The largest chains that eval accepted before beta normalisation by
# evaluation, measured under Python 3.10 and 3.11 (the same on both) with
# main running in a new thread; one more level exited 1 as too deep.
@pytest.mark.parametrize(
    "text",
    [
        _conjunction(123),
        "qmf(con,conjecture,( " + "~ " * 247 + "p )).\n",
        "qmf(con,conjecture,( " + "#box : " * 197 + "p )).\n",
    ],
    ids=["conj123", "neg247", "box197"],
)
def test_eval_depth_limits_do_not_regress(tmp_path, capsys, text):
    problem = tmp_path / "deep.qmf"
    problem.write_text(text, encoding="utf-8")
    fixture = tmp_path / "one.model"
    fixture.write_text("worlds: w1\nrel: w1>w1\nuniverse: a\n", encoding="utf-8")
    codes = []
    # a new thread starts at a fixed stack depth, whatever runs the tests
    thread = threading.Thread(
        target=lambda: codes.append(
            main(["eval", str(problem), "-f", "thf:k:const", "--model", str(fixture)])
        )
    )
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert codes == [0], capsys.readouterr().err
    assert capsys.readouterr().out.endswith(" at w1\ncorrespondence OK\n")


@pytest.mark.parametrize("subcommand", ["translate", "check", "eval"])
def test_each_problem_is_validated_once(monkeypatch, tmp_path, capsys, e1_path, subcommand):
    calls = []
    validate = fml.validate_problem

    def counted(problem):
        calls.append(problem)
        return validate(problem)

    # every module that binds the function, so an import by name is counted too
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("fml2hol"):
            for name, value in list(vars(module).items()):
                if value is validate:
                    monkeypatch.setattr(module, name, counted)
    fixture = tmp_path / "growing.model"
    fixture.write_text(FIXTURE_TEXT, encoding="utf-8")
    extra = {
        "translate": ["-o", "-"],
        "check": ["--max-worlds", "2", "--max-individuals", "2"],
        "eval": ["--model", str(fixture)],
    }[subcommand]
    assert main([subcommand, e1_path, "-f", "thf:k:vary", *extra]) == 0
    assert len(calls) == 1


def test_eval_labels_the_conjecture_once(monkeypatch, tmp_path, capsys, e1_path):
    calls = []
    label = kripke.label_fml

    def counted(model, formula, assignment=None):
        calls.append(formula)
        return label(model, formula, assignment)

    monkeypatch.setattr(kripke, "label_fml", counted)
    fixture = tmp_path / "growing.model"
    fixture.write_text(FIXTURE_TEXT, encoding="utf-8")
    assert main(["eval", e1_path, "--model", str(fixture), "-f", "thf:k:vary"]) == 0
    assert capsys.readouterr().out == "false at w1\ntrue at w2\ncorrespondence OK\n"
    assert len(calls) == 1


def test_eval_op_leaves_no_cyclic_garbage(tmp_path, capsys):
    # the walkers an eval op runs (signature scan, labeller compiler,
    # normaliser) form no reference cycle, so the op leaves nothing that
    # waits for the cycle collector; the first op fills the caches
    problem = tmp_path / "p.qmf"
    problem.write_text("qmf(ax,axiom,( r(c,g(c)) )).\n" + E1_TEXT, encoding="utf-8")
    fixture = tmp_path / "p.model"
    fixture.write_text(
        FIXTURE_TEXT.replace("dom w1: a\n", "")
        + "const c = a\nfun g(a) = b\nfun g(b) = a\npred r @ w1: a,b\npred r @ w2: a,b\n",
        encoding="utf-8",
    )
    argv = ["eval", str(problem), "--model", str(fixture), "-f", "thf:k:vary"]
    assert main(argv) == 0
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert capsys.readouterr().out.endswith("correspondence OK\n")


def test_eval_reports_per_world_values(tmp_path, capsys, e1_path):
    fixture = tmp_path / "growing.model"
    fixture.write_text(FIXTURE_TEXT, encoding="utf-8")
    code = main(["eval", e1_path, "--model", str(fixture), "--logic", "k", "--domain", "vary"])
    assert code == 0
    out = capsys.readouterr().out
    assert out == "false at w1\ntrue at w2\ncorrespondence OK\n"


def test_eval_tautology_true_everywhere(tmp_path, capsys):
    problem = tmp_path / "taut.qmf"
    problem.write_text("qmf(con,conjecture,( p | ~ ( p ) )).\n", encoding="utf-8")
    fixture = tmp_path / "two.model"
    fixture.write_text("worlds: w1 w2\nrel: w1>w1 w2>w2 w1>w2\nuniverse: a\n", encoding="utf-8")
    code = main(["eval", str(problem), "--model", str(fixture), "-f", "thf:k4:const"])
    assert code == 0
    out = capsys.readouterr().out
    assert out == "true at w1\ntrue at w2\ncorrespondence OK\n"


def test_eval_rejects_fixture_violations(tmp_path, capsys, e1_path):
    fixture = tmp_path / "empty.model"
    fixture.write_text("worlds: w1\nuniverse: a\ndom w1:\n", encoding="utf-8")
    code = main(["eval", e1_path, "--model", str(fixture), "-f", "thf:t:vary"])
    assert code == 4
    err = capsys.readouterr().err
    assert "non-emptiness violated: dom(w1) is empty" in err
    assert "not reflexive: missing w1>w1" in err


def test_eval_frame_mismatch(tmp_path, capsys, e1_path):
    fixture = tmp_path / "bare.model"
    fixture.write_text("worlds: w1\nuniverse: a\n", encoding="utf-8")
    code = main(["eval", e1_path, "--model", str(fixture), "-f", "thf:d:const"])
    assert code == 4
    assert "not serial: w1 has no successor" in capsys.readouterr().err


def test_eval_rejects_arity_mismatch(tmp_path, capsys, e1_path):
    # E1's f is unary; this fixture gives it a binary extension
    fixture = tmp_path / "binary_f.model"
    fixture.write_text(
        "worlds: w1 w2\nrel: w1>w2\nuniverse: a b\npred f @ w1: a,b\npred f @ w2: b,a\n",
        encoding="utf-8",
    )
    code = main(["eval", e1_path, "--model", str(fixture), "-f", "thf:k:vary"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "predicate f has arity 1 in the problem but 2 in the fixture" in captured.err
    problem = tmp_path / "g.qmf"
    problem.write_text("qmf(con,conjecture,( p(g(c)) )).\n", encoding="utf-8")
    fixture.write_text("worlds: w1\nuniverse: a\nconst c = a\nfun g(a,a) = a\n", encoding="utf-8")
    assert main(["eval", str(problem), "--model", str(fixture), "-f", "thf:k:const"]) == 1
    assert "function g has arity 1 in the problem but 2 in the fixture" in capsys.readouterr().err


def test_eval_rejects_uninterpreted_symbols(tmp_path, capsys):
    # p holds, so an evaluator that short-circuits never reaches q(c)
    problem = tmp_path / "pc.qmf"
    problem.write_text("qmf(con,conjecture,( p | q(c) )).\n", encoding="utf-8")
    fixture = tmp_path / "p.model"
    fixture.write_text("worlds: w1\nrel: w1>w1\nuniverse: a\npred p @ w1: ()\n", encoding="utf-8")
    assert main(["eval", str(problem), "--model", str(fixture), "-f", "thf:k:const"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "constant 'c' of the problem has no interpretation in the fixture" in captured.err
    problem.write_text("qmf(con,conjecture,( p | q(g(c)) )).\n", encoding="utf-8")
    fixture.write_text(
        "worlds: w1\nrel: w1>w1\nuniverse: a\nconst c = a\npred p @ w1: ()\n", encoding="utf-8"
    )
    assert main(["eval", str(problem), "--model", str(fixture), "-f", "thf:k:const"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "function 'g' of the problem has no interpretation in the fixture" in captured.err


@pytest.mark.parametrize(
    "entry, kind", [("fun p(a) = a", "function"), ("const p = a", "constant")]
)
def test_eval_rejects_a_predicate_the_fixture_reads_as_a_term(tmp_path, capsys, entry, kind):
    problem = tmp_path / "pa.qmf"
    problem.write_text("qmf(c,conjecture,( p(a) )).\n", encoding="utf-8")
    fixture = tmp_path / "p.model"
    fixture.write_text(
        f"worlds: w1\nrel: w1>w1\nuniverse: a\nconst a = a\n{entry}\n", encoding="utf-8"
    )
    assert main(["eval", str(problem), "--model", str(fixture), "-f", "thf:k:const"]) == 1
    assert capsys.readouterr() == (
        "",
        f"predicate 'p' of the problem is a {kind} in the fixture\n",
    )


@pytest.mark.parametrize(
    "conjecture, fixture, fmt",
    [
        # the user's nullary mnot was unfolded into the definition of mnot
        ("mnot", "pred mnot @ w1: ()\n", "thf:k:const"),
        # the user's predicate was applied as the lifted quantifier
        ("mforall_ind(a)", "const a = a\npred mforall_ind @ w1: a\n", "thf:k:const"),
        # the user's predicate was read as the existence guard
        ("exists_in_world(a)", "const a = a\n", "thf:k:vary"),
    ],
    ids=["mnot", "mforall_ind", "exists_in_world"],
)
def test_eval_rejects_reserved_names_as_translate_does(tmp_path, capsys, conjecture, fixture, fmt):
    problem = tmp_path / "reserved.qmf"
    problem.write_text(f"qmf(c,conjecture,( {conjecture} )).\n", encoding="utf-8")
    model = tmp_path / "one.model"
    model.write_text("worlds: w1\nrel: w1>w1\nuniverse: a\n" + fixture, encoding="utf-8")
    assert main(["translate", str(problem), "-f", fmt, "-o", "-"]) == 1
    expected = capsys.readouterr()
    assert "collides with a reserved name" in expected.err
    assert main(["eval", str(problem), "--model", str(model), "-f", fmt]) == 1
    assert capsys.readouterr() == expected


def test_eval_requires_conjecture(tmp_path, capsys):
    problem = tmp_path / "ax.qmf"
    problem.write_text("qmf(a,axiom,( p )).\n", encoding="utf-8")
    fixture = tmp_path / "one.model"
    fixture.write_text("worlds: w1\nrel: w1>w1\nuniverse: a\n", encoding="utf-8")
    code = main(["eval", str(problem), "--model", str(fixture), "-f", "thf:t:const"])
    assert code == 1
    assert "no conjecture to evaluate" in capsys.readouterr().err


def test_eval_bad_fixture_reports_line(tmp_path, capsys, e1_path):
    fixture = tmp_path / "bad.model"
    fixture.write_text("worlds: w1\nuniverse: a\nwat\n", encoding="utf-8")
    code = main(["eval", e1_path, "--model", str(fixture), "-f", "thf:k:const"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(str(fixture) + ":")
    assert "line 3" in err


def test_eval_missing_fixture(tmp_path, capsys, e1_path):
    missing = str(tmp_path / "absent.model")
    code = main(["eval", e1_path, "--model", missing, "-f", "thf:k:const"])
    assert code == 2
    assert f"cannot read {missing}" in capsys.readouterr().err


def test_eval_unknown_symbol_in_fixture(tmp_path, capsys, e1_path):
    # E1 mentions f; a fixture with no f extension evaluates atoms as false,
    # so the predicate map simply lacks entries, not symbols: force a real
    # unknown by evaluating a problem with a constant the model never binds
    problem = tmp_path / "c.qmf"
    problem.write_text("qmf(con,conjecture,( f(c) )).\n", encoding="utf-8")
    fixture = tmp_path / "plain.model"
    fixture.write_text("worlds: w1\nrel: w1>w1\nuniverse: a\n", encoding="utf-8")
    code = main(["eval", str(problem), "--model", str(fixture), "-f", "thf:t:const"])
    assert code == 1
    assert "'c'" in capsys.readouterr().err


def test_run_prover_theorem(tmp_path, capsys, e1_path):
    script = write_script(tmp_path, "prover.sh", "echo '% SZS status Theorem for E1'")
    assert main(["run-prover", e1_path, "--command", f"{script} {{file}}"]) == 0
    assert capsys.readouterr().out == "% SZS status Theorem\n"


def test_run_prover_countersatisfiable(tmp_path, capsys, e1_path):
    script = write_script(
        tmp_path, "prover.sh", "echo 'thinking...'; echo '% SZS status CounterSatisfiable'"
    )
    assert main(["run-prover", e1_path, "--command", f"{script} {{file}}"]) == 0
    assert capsys.readouterr().out == "% SZS status CounterSatisfiable\n"


def test_run_prover_keeps_the_verdict_after_bytes_that_are_not_utf8(tmp_path, capsys, e1_path):
    script = write_script(tmp_path, "bytes.sh", r"printf '\377\376 %% SZS status Theorem\n'")
    assert main(["run-prover", e1_path, "--command", f"{script} {{file}}"]) == 0
    assert capsys.readouterr() == ("% SZS status Theorem\n", "")


def test_run_prover_receives_the_file(tmp_path, capsys, e1_path):
    script = write_script(
        tmp_path, "echoer.sh", 'cat "$1" >/dev/null && echo "% SZS status Satisfiable"'
    )
    assert main(["run-prover", e1_path, "--command", f"{script} {{file}}"]) == 0
    assert capsys.readouterr().out == "% SZS status Satisfiable\n"


def test_run_prover_garbage_output(tmp_path, capsys, e1_path):
    script = write_script(tmp_path, "noise.sh", "echo 'segmentation fault'")
    assert main(["run-prover", e1_path, "--command", f"{script} {{file}}"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "% SZS status Error\n"
    assert "no SZS status line" in captured.err


def test_run_prover_empty_output(tmp_path, capsys, e1_path):
    script = write_script(tmp_path, "mute.sh", "true")
    assert main(["run-prover", e1_path, "--command", f"{script} {{file}}"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "% SZS status Error\n"
    assert "no SZS status line" in captured.err


def test_run_prover_unknown_status_word(tmp_path, capsys, e1_path):
    script = write_script(tmp_path, "odd.sh", "echo '% SZS status Gibberish'")
    assert main(["run-prover", e1_path, "--command", f"{script} {{file}}"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "% SZS status Error\n"
    assert "Gibberish" in captured.err


def test_run_prover_timeout(tmp_path, capsys, e1_path):
    script = write_script(tmp_path, "sleepy.sh", "sleep 5")
    code = main(
        ["run-prover", e1_path, "--command", f"{script} {{file}}", "--timeout", "0.1"]
    )
    assert code == 0
    assert capsys.readouterr().out == "% SZS status Timeout\n"


def test_run_prover_timeout_kills_the_process_group(tmp_path, capsys, e1_path):
    # a wrapper script's background child would write the marker after 1 s
    marker = tmp_path / "marker"
    script = write_script(tmp_path, "wrapper.sh", f"(sleep 1; echo late > '{marker}') &\nsleep 5")
    code = main(
        ["run-prover", e1_path, "--command", f"{script} {{file}}", "--timeout", "0.3"]
    )
    assert code == 0
    assert capsys.readouterr().out == "% SZS status Timeout\n"
    time.sleep(1.5)
    assert not marker.exists()


def test_run_prover_default_timeout(monkeypatch, capsys, e1_path):
    seen = []

    def prover(path, command, timeout):
        seen.append(timeout)
        return SzsStatus("Theorem")

    monkeypatch.setattr(cli, "run_prover", prover)
    assert main(["run-prover", e1_path, "--command", "prover {file}"]) == 0
    assert seen == [60.0]
    with pytest.raises(SystemExit):
        main(["run-prover", "--help"])
    assert "(default 60)" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["nan", "0", "-1"])
def test_run_prover_rejects_bad_timeouts(tmp_path, capsys, e1_path, value):
    marker = tmp_path / "marker"
    script = write_script(tmp_path, "prover.sh", f"touch '{marker}'")
    code = main(["run-prover", e1_path, "--command", f"{script} {{file}}", "--timeout", value])
    assert code == 1
    assert capsys.readouterr() == ("", "timeout must be positive\n")
    assert not marker.exists()


def test_run_prover_infinite_timeout_is_no_limit(tmp_path, capsys, e1_path):
    script = write_script(tmp_path, "prover.sh", "echo '% SZS status Theorem'")
    code = main(["run-prover", e1_path, "--command", f"{script} {{file}}", "--timeout", "inf"])
    assert code == 0
    assert capsys.readouterr().out == "% SZS status Theorem\n"
    assert run_prover(e1_path, f"{script} {{file}}", float("inf")) == SzsStatus("Theorem")


def test_run_prover_spawn_failure(tmp_path, capsys, e1_path):
    code = main(["run-prover", e1_path, "--command", "/nowhere/prover {file}"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == "% SZS status Error\n"
    assert captured.err.strip() != ""


def test_run_prover_missing_input(tmp_path, capsys):
    missing = str(tmp_path / "absent.thf")
    code = main(["run-prover", missing, "--command", "prover {file}"])
    assert code == 2
    assert f"cannot read {missing}" in capsys.readouterr().err


def test_parse_szs_unit():
    assert parse_szs("% SZS status Theorem for E1\n") == SzsStatus("Theorem")
    assert parse_szs("noise\n% SZS status Unsatisfiable\n") == SzsStatus("Unsatisfiable")
    got = parse_szs("% SZS status Wat\n")
    assert got.kind == "Error" and "Wat" in got.detail
    got = parse_szs("nothing here\n")
    assert got.kind == "Error" and "no SZS status line" in got.detail
    # the first status line wins
    assert parse_szs("% SZS status Timeout\n% SZS status Theorem\n").kind == "Timeout"


def test_szs_status_validates_kind():
    with pytest.raises(ValueError, match="unknown SZS status kind"):
        SzsStatus("Maybe")


def test_run_prover_function_splits_shell_style(tmp_path):
    target = tmp_path / "problem.thf"
    target.write_text("thf(a,axiom,( $true )).\n", encoding="utf-8")
    script = write_script(
        tmp_path, "argcheck.sh",
        'test "$1" = "two words" && test "$2" = "$3" || exit 1\n'
        "echo '% SZS status Theorem'",
    )
    status = run_prover(str(target), f"{script} 'two words' {{file}} {{file}}")
    assert status == SzsStatus("Theorem")


def test_python_m_fml2hol_runs_the_command_line_without_warnings():
    # python -m fml2hol.cli makes runpy warn on every run: the package has
    # imported cli before runpy executes it
    src = str(pathlib.Path(fml2hol.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "fml2hol", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("usage: fml2hol ")


def test_exit_code_constants():
    assert (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_IO) == (0, 1, 2)
    assert (cli.EXIT_TIMEOUT, cli.EXIT_FIXTURE, cli.EXIT_USAGE) == (3, 4, 64)


def _exit_code_and_output(capsys, argv):
    """(exit code, stdout, stderr) of main, an exit through SystemExit
    counted by its code, as a caller running the process would see it."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_CONTRACT_FILES = {
    "e1.qmf": E1_TEXT,
    "bad.qmf": "qmf(a,axiom,( p $ q )).\n",
    "ax.qmf": "qmf(a,axiom,( p )).\n",
    "mnot.qmf": "qmf(c,conjecture,( mnot )).\n",
    "sig.qmf": "qmf(con,conjecture,( f(c) & q(g(d)) & q(h(d)) )).\n",
    "deep.qmf": "qmf(con,conjecture,( " + "~ " * 3000 + "p )).\n",
    "one.model": "worlds: w1\nrel: w1>w1\nuniverse: a\n",
    "bad.model": "worlds: w1\nuniverse: a\nwat\n",
    "latin.qmf": b"\xffqmf(con,conjecture,( p )).\n",
    "latin.model": b"worlds: w1\nuniverse: \xff\n",
    "empty.model": "worlds: w1\nuniverse: a\ndom w1:\n",
    "sig.model": "worlds: w1\nrel: w1>w1\nuniverse: a\nconst d = a\n"
    "pred f @ w1: a,a\nfun g(a,a) = a\n",
}

# Every input-error path of the command line, with its exit code and its
# exact stderr; stdout stays empty.  {d} is the directory of the files above.
@pytest.mark.parametrize(
    "argv, code, err",
    [
        (
            "translate {d}/absent.qmf -f thf:k:const -o -",
            2,
            "cannot read {d}/absent.qmf: No such file or directory\n",
        ),
        (
            "eval {d}/e1.qmf --model {d}/absent.model -f thf:k:const",
            2,
            "cannot read {d}/absent.model: No such file or directory\n",
        ),
        (
            "eval {d}/absent.qmf --model {d}/absent.model -f thf:k:const",
            2,
            "cannot read {d}/absent.qmf: No such file or directory\n",
        ),
        (
            "run-prover {d}/absent.thf --command 'prover {file}'",
            2,
            "cannot read {d}/absent.thf: no such file\n",
        ),
        (
            "check {d}/bad.qmf -f thf:k:const",
            1,
            "{d}/bad.qmf:1:17: expected a token, found '$'\n",
        ),
        (
            "eval {d}/e1.qmf --model {d}/bad.model -f thf:k:const",
            1,
            "{d}/bad.model:line 3: unrecognized line 'wat'\n",
        ),
        (
            "translate {d}/latin.qmf -f thf:k:const -o -",
            1,
            "{d}/latin.qmf:'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte\n",
        ),
        (
            "eval {d}/e1.qmf --model {d}/latin.model -f thf:k:const",
            1,
            "{d}/latin.model:'utf-8' codec can't decode byte 0xff in position 21: "
            "invalid start byte\n",
        ),
        (
            "translate {d}/e1.qmf -o -",
            64,
            "usage: fml2hol [-h] {translate,check,eval,run-prover} ...\n"
            "fml2hol: error: a target is required: "
            "-f thf:<logic>:<domain> or --logic and --domain\n",
        ),
        ("eval {d}/e1.qmf --model {d}/one.model -f thf:x7:const", 1, "unknown logic: x7\n"),
        (
            "translate {d}/mnot.qmf -f thf:k:const -o -",
            1,
            "user symbol 'mnot' collides with a reserved name\n",
        ),
        (
            "eval {d}/mnot.qmf --model {d}/absent.model -f thf:k:const",
            1,
            "user symbol 'mnot' collides with a reserved name\n",
        ),
        ("check {d}/ax.qmf -f thf:k:const", 1, "the problem has no conjecture to refute\n"),
        (
            "eval {d}/ax.qmf --model {d}/one.model -f thf:k:const",
            1,
            "the problem has no conjecture to evaluate\n",
        ),
        (
            "eval {d}/sig.qmf --model {d}/sig.model -f thf:k:const",
            1,
            "predicate f has arity 1 in the problem but 2 in the fixture\n"
            "function g has arity 1 in the problem but 2 in the fixture\n"
            "constant 'c' of the problem has no interpretation in the fixture\n"
            "function 'h' of the problem has no interpretation in the fixture\n",
        ),
        (
            "eval {d}/ax.qmf --model {d}/empty.model -f thf:t:vary",
            4,
            "not reflexive: missing w1>w1\nnon-emptiness violated: dom(w1) is empty\n",
        ),
        (
            "translate {d}/deep.qmf -f thf:k:const -o -",
            1,
            "{d}/deep.qmf: input nested too deeply\n",
        ),
    ],
    ids=[
        "missing-problem",
        "missing-fixture",
        "missing-problem-before-fixture",
        "missing-prover-input",
        "problem-parse-error",
        "fixture-parse-error",
        "problem-not-utf8",
        "fixture-not-utf8",
        "absent-target",
        "unknown-target",
        "reserved-name-translate",
        "reserved-name-eval-before-fixture",
        "no-conjecture-check",
        "no-conjecture-eval",
        "signature-mismatches",
        "frame-violation-before-conjecture",
        "deep-nesting",
    ],
)
def test_input_error_contract(tmp_path, monkeypatch, capsys, argv, code, err):
    # argparse wraps its usage line to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    for name, text in _CONTRACT_FILES.items():
        (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    argv = [part.replace("{d}", str(tmp_path)) for part in shlex.split(argv)]
    assert _exit_code_and_output(capsys, argv) == (code, "", err.replace("{d}", str(tmp_path)))
