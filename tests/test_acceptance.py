"""Acceptance gate: eight executable criteria with pinned tolerances.

Each test prints one verdict line (run pytest with -s to see them all):

    criterion N (<what it pins>): pass

The criteria cover golden translations, the 21-configuration E1 search
matrix, desk-scale correspondence, type soundness and round trips over
fuzz corpora, checker agreement with independent oracles, countermodel
re-verification, and SZS dispatch.
"""

import itertools
import stat
import time

import helpers
import thf_reader
from helpers import all_relations as _relations
from fml2hol import embedding, fml, hol, kripke, qmf, thf
from fml2hol.cli import SzsStatus, main, run_prover
from fml2hol.embedding import DomainCondition, Logic, TranslationConfig

E1_TEXT = (
    "qmf(con,conjecture,( ( ! [X] : ( #box : ( f(X) ) ) )"
    " => ( #box : ( ! [X] : ( f(X) ) ) ) )).\n"
)

GOLDEN_CONJECTURE = """\
thf(prove,conjecture,( mvalid @
    ( mimplies @ ( mforall_ind @ ^ [X: mu] : ( mbox_d @ ( f @ X ) ) )
               @ ( mbox_d @ ( mforall_ind @ ^ [X: mu] : ( f @ X ) ) ) ) )).
"""

GOLDEN_F_TYPE = "thf(f_type,type,( f: mu > $i > $o ))."

GOLDEN_GUARDED_FORALL = """\
thf(mforall_ind,definition,( mforall_ind =
    ( ^ [Phi: mu > $i > $o,W: $i] :
      ! [X: mu] : ( ( exists_in_world @ X @ W ) => ( Phi @ X @ W ) ) ) )).
"""

GOLDEN_NONEMPTY = """\
thf(nonempty_ax,axiom,(
    ! [V : $i] : ? [X : mu] : (exists_in_world @ X @ V))).
"""

GOLDEN_MBOX_S5 = """\
thf(mbox_s5,definition,( mbox_s5 =
    ( ^ [Phi: $i > $o,W: $i] :
      ! [V: $i] : ( ~ ( rel_s5 @ W @ V ) | ( Phi @ V ) ) ) )).
"""

GOLDEN_S5_FRAME = (
    "thf(a1,axiom,( mreflexive @ rel_s5 )).",
    "thf(a2,axiom,( mtransitive @ rel_s5 )).",
    "thf(a3,axiom,( msymmetric @ rel_s5 )).",
)

# every countermodel produced while this module runs, re-verified by criterion 7
_FOUND: list[tuple[fml.Problem, TranslationConfig, kripke.Countermodel]] = []


def _verdict(num, description, failures, elapsed=None, budget=None):
    problems = [str(f) for f in failures]
    if elapsed is not None and budget is not None and elapsed >= budget:
        problems.append(f"runtime {elapsed:.2f}s exceeded the {budget:.0f}s budget")
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    verdict = "pass" if not problems else "FAIL"
    print(f"criterion {num} ({description}): {verdict}{timing}", flush=True)
    assert not problems, "; ".join(problems[:10])


def _unit_texts(problem_text: str) -> dict[str, str]:
    """Map unit name (or include path) to its full, possibly wrapped text."""
    groups: list[list[str]] = []
    for line in problem_text.splitlines():
        if not line.strip():
            continue
        if line.startswith(" "):
            groups[-1].append(line)
        else:
            groups.append([line])
    units = {}
    for group in groups:
        head = group[0]
        name = head.split("(", 1)[1].split(",")[0].rstrip("').")
        units[name] = "\n".join(group)
    return units


def _search(problem, config, bounds):
    result = kripke.find_countermodel(problem, config, bounds)
    if isinstance(result, kripke.Countermodel):
        _FOUND.append((problem, config, result))
    return result


def _translate(tmp_path, capsys, argv_tail):
    path = tmp_path / "e1.qmf"
    path.write_text(E1_TEXT, encoding="utf-8")
    assert main(["translate", str(path), "-o", "-", *argv_tail]) == 0
    return capsys.readouterr().out


def test_criterion_1_golden_translation(tmp_path, capsys, monkeypatch):
    start = time.monotonic()
    failures = []

    def expect(units, name, golden):
        if name not in units:
            failures.append(f"missing unit {name}")
        elif thf_reader.lex(units[name]) != thf_reader.lex(golden):
            failures.append(f"unit {name} deviates from the published listing")

    d_const = _unit_texts(_translate(tmp_path, capsys, ["-f", "thf:d:const"]))
    expect(d_const, "prove", GOLDEN_CONJECTURE)
    expect(d_const, "f_type", GOLDEN_F_TYPE)

    s5_vary = _unit_texts(_translate(tmp_path, capsys, ["-f", "thf:s5:vary"]))
    expect(s5_vary, "prove", GOLDEN_CONJECTURE.replace("mbox_d", "mbox_s5"))
    expect(s5_vary, "mforall_ind", GOLDEN_GUARDED_FORALL)
    expect(s5_vary, "nonempty_ax", GOLDEN_NONEMPTY)
    for i, golden in enumerate(GOLDEN_S5_FRAME, start=1):
        expect(s5_vary, f"a{i}", golden)

    monkeypatch.setenv("FML2HOL_AXIOM_DIR", "Axioms")
    monkeypatch.chdir(tmp_path)
    included = _translate(tmp_path, capsys, ["-f", "thf:d:const", "--include-axioms"])
    want = "include('Axioms/e1_const.ax').\ninclude('Axioms/e1_d.ax').\n"
    if thf_reader.lex("\n".join(included.splitlines()[:2])) != thf_reader.lex(want):
        failures.append("include header deviates from the two-line layout")

    _verdict(1, "golden d:const and s5:vary translations", failures,
             time.monotonic() - start, budget=1.0)


def test_criterion_2_e1_matrix():
    start = time.monotonic()
    problem = qmf.parse_problem(E1_TEXT)
    bounds = kripke.SearchBounds(3, 3)
    failures = []
    for logic, domain in itertools.product(Logic, DomainCondition):
        config = TranslationConfig(logic, domain)
        refutable = domain is DomainCondition.VARYING or (
            domain is DomainCondition.CUMULATIVE and logic is not Logic.S5
        )
        result = _search(problem, config, bounds)
        if refutable and not isinstance(result, kripke.Countermodel):
            failures.append(f"{config.name}: expected a countermodel, got {type(result).__name__}")
        if not refutable and not isinstance(result, kripke.NoCountermodelWithinBounds):
            failures.append(f"{config.name}: expected exhausted bounds, got {type(result).__name__}")
    _verdict(2, "E1 verdicts across all 21 configurations", failures,
             time.monotonic() - start, budget=60.0)


def test_criterion_3_correspondence():
    start = time.monotonic()
    r = helpers.make_rng(97001)
    logics = tuple(Logic)
    failures = []
    for domain in DomainCondition:
        for i in range(200):
            sig = helpers.random_signature(r)
            model = helpers.random_model(r, sig, domain)
            formula = helpers.random_formula(r, sig, depth=r.randint(0, 5))
            config = TranslationConfig(logics[i % len(logics)], domain)
            if not kripke.correspondence_check(model, formula, config):
                failures.append(f"{config.name}: disagreement on {qmf.print_formula(formula)}")
    _verdict(3, "correspondence on 200 model/formula pairs per domain", failures,
             time.monotonic() - start, budget=30.0)


def _fuzz_problems(seed, count):
    r = helpers.make_rng(seed)
    return [helpers.random_problem(r) for _ in range(count)]


def test_criterion_4_type_soundness():
    failures = []
    configs = [TranslationConfig(l, d) for l, d in itertools.product(Logic, DomainCondition)]
    for index, problem in enumerate(_fuzz_problems(97002, 500)):
        for config in configs:
            try:
                hol.check_problem(embedding.embed_problem(problem, config))
            except hol.HolError as exc:
                failures.append(f"problem {index} under {config.name}: {exc}")
    _verdict(4, "embedding output type-checks on 500 problems x 21 configs", failures)


def test_criterion_5_round_trips():
    r = helpers.make_rng(97003)
    configs = [TranslationConfig(l, d) for l, d in itertools.product(Logic, DomainCondition)]
    failures = []
    for i in range(500):
        sig = helpers.random_signature(r)
        formula = helpers.random_formula(r, sig, depth=r.randint(0, 5))
        if qmf.parse_formula(qmf.print_formula(formula)) != formula:
            failures.append(f"formula {i}: print/parse changed the tree")
            continue
        problem = fml.Problem((fml.AnnotatedFormula("con", "conjecture", formula),))
        embedded = embedding.embed_problem(problem, configs[i % len(configs)])
        reread = thf_reader.read_problem(thf.emit_problem(embedded).problem_text)
        if not thf_reader.problems_alpha_equal(embedded, reread):
            failures.append(f"formula {i}: thf re-read is not alpha-equivalent")
    _verdict(5, "qmf print/parse identity and thf re-read on 500 formulas", failures)


def test_criterion_6_checker_agreement():
    failures = []
    for n in (1, 2, 3):
        worlds = tuple(f"w{i}" for i in range(1, n + 1))
        dom = {w: frozenset({"a"}) for w in worlds}
        for rel in _relations(worlds):
            model = kripke.KripkeModel(worlds, rel, ("a",), dom)
            for logic, want in helpers.frame_oracle(worlds, rel).items():
                if kripke.check_frame(model, logic) != want:
                    failures.append(f"frame {logic.tag} on {sorted(rel)} over {n} worlds")

    universe = ("a", "b")
    subsets = [frozenset(c) for k in range(3) for c in itertools.combinations(universe, k)]
    for n in (1, 2):
        worlds = tuple(f"w{i}" for i in range(1, n + 1))
        for rel in _relations(worlds):
            for doms in itertools.product(subsets, repeat=n):
                dom = dict(zip(worlds, doms))
                model = kripke.KripkeModel(worlds, rel, universe, dom)
                full = frozenset(universe)
                want = {
                    DomainCondition.CONSTANT: all(d == full for d in doms),
                    DomainCondition.VARYING: all(doms),
                    DomainCondition.CUMULATIVE: all(doms)
                    and all(dom[u] <= dom[v] for u, v in rel),
                }
                for condition, expected_value in want.items():
                    if kripke.check_domains(model, condition) != expected_value:
                        failures.append(f"domain {condition.tag} on {dom} with {sorted(rel)}")
    _verdict(6, "frame and domain checkers agree with definitional oracles", failures)


def test_criterion_7_countermodel_soundness():
    r = helpers.make_rng(97004)
    bounds = kripke.SearchBounds(2, 2)
    for _ in range(120):
        problem = helpers.random_problem(r, max_units=2, depth=2)
        if problem.conjecture() is None:
            continue
        config = TranslationConfig(r.choice(tuple(Logic)), r.choice(tuple(DomainCondition)))
        _search(problem, config, bounds)

    # the search's own check, then readings that do not share its labeller
    failures = [
        f"{config.name}: {fault}"
        for problem, config, found in _FOUND
        for fault in (
            *kripke.countermodel_violations(problem, config, found),
            *helpers.reference_countermodel_faults(problem, config, found),
        )
    ]
    if not _FOUND:
        failures.append("no countermodels were produced to re-verify")
    _verdict(7, f"all {len(_FOUND)} returned countermodels re-verify", failures)


def test_criterion_8_szs_dispatch(tmp_path):
    target = tmp_path / "problem.thf"
    target.write_text("thf(a,axiom,( $true )).\n", encoding="utf-8")

    def stub(name, body):
        script = tmp_path / name
        script.write_text(f"#!/bin/sh\n{body}\n", encoding="utf-8")
        script.chmod(script.stat().st_mode | stat.S_IXUSR)
        return f"{script} {{file}}"

    failures = []
    cases = (
        ("theorem.sh", "echo '% SZS status Theorem for problem'", SzsStatus("Theorem")),
        ("counter.sh", "echo '% SZS status CounterSatisfiable'", SzsStatus("CounterSatisfiable")),
    )
    for name, body, want in cases:
        got = run_prover(str(target), stub(name, body))
        if got != want:
            failures.append(f"{name}: got {got}")
    garbage = run_prover(str(target), stub("garbage.sh", "echo 'lp0 on fire'"))
    if garbage.kind != "Error":
        failures.append(f"garbage output mapped to {garbage.kind}")
    _verdict(8, "stub prover SZS statuses dispatch correctly", failures)
