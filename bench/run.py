"""Benchmark for fml2hol: four CLI workloads, end to end and per layer.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  The program is imported from
``src/`` of that checkout (the run fails if it is missing) and driven
through its real entry point, ``fml2hol.cli.main``, in this process with
stdout and stderr captured: one client in a closed loop, no threads.

Workloads (BENCHMARK.json records why each was chosen):

  check-e1    E1, the converse Barcan formula, under all 21 configurations
              at 3x3.  The seed only orders the ops.
  check-fuzz  2x2 searches over a fixed pool of criterion-7-style
              problems (every draw that took at most a third of the time
              budget at the seed commit): the costliest tenth, a seeded
              stratified three in four of the rest, and the generic
              binary-predicate-and-constant case.
  translate   a seeded sample of a fixed pool of problems, stratified by
              size, plus E1 and a 300-way conjunction, each under 21
              configs x {inline, include}.
  eval        fixtures (up to 5 worlds) and formulas (depth 3-6) from a
              fixed pool: the largest tenth and a seeded stratified three
              in four of the rest; every tenth fixture violates its frame
              or domain condition and must exit 4.

The pools are fixed (corpus.py seeds them) so that golden.json can hold
their known answers; the seed picks each run's sample and order.

A run makes an untimed warm-up, then measures whole passes over its ops
until --seconds have elapsed.  Outputs are checked after the timed region
against known answers (golden.json holds the verdicts and byte digests
recorded at the seed commit; record_golden.py rebuilds it).  Known defects
run every time as untimed probes and are reported, never dropped.

--trace 0 prints the end-to-end metrics.  --trace 1 times the same passes
again with each layer's public functions wrapped (tracing.py) and prints
the per-layer metrics.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import checks
import corpus
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
CHECKOUT = BENCH.parent
SRC = CHECKOUT / "src"
WORK_ROOT = CHECKOUT / ".bench_work"
GOLDEN = BENCH / "golden.json"

# Every check op either finishes within a third of its budget or certainly
# times out, so outcomes cannot flip with machine noise: the slowest E1 op
# takes about 1.2 s, the fuzz pool holds only draws recorded at no more
# than FUZZ_MAX_S, and the probes at 2x3 and 3x2 need more than 30 s.
E1_BUDGET_S = 10.0
FUZZ_BUDGET_S = 2.0
FUZZ_MAX_S = FUZZ_BUDGET_S / 3
# op_tail_ms counts each op's median latency this many times, so its
# sample set is the same however many passes fit in the run
TAIL_PASSES = 3
# every op enters the program through the traced cli.main, so its spans
# must cover the op time but for the harness's own few microseconds
MAX_UNTRACED_PER_OP_S = 50e-6
TRANSLATE_PROBLEMS = 100
WARMUP_S = 1.0
SETUP_SAMPLES = 11
AXIOM_DIR = "Axioms"
LAYOUTS = ("inline", "include")


@dataclass
class Outcome:
    code: int | None
    stdout: str
    stderr: str
    error: str | None
    elapsed: float
    digest: str


@dataclass
class Op:
    case: str
    argv: list[str]
    expect_exit: int = 0
    check: Callable[[Outcome], str | None] | None = None
    group: str | None = None  # ops whose digests golden.json records together
    golden_digest: str | None = None  # recorded, compared, but not required


@dataclass
class Probe:
    case: str
    argv: list[str]
    defect: str
    fixed: Callable[[Outcome], bool]


@dataclass
class Workload:
    ops: list[Op]
    probes: list[Probe] = field(default_factory=list)
    golden_groups: dict[str, str] = field(default_factory=dict)
    shape: list[str] = field(default_factory=list)


def digest(*parts: str) -> str:
    return hashlib.sha1("\0".join(parts).encode()).hexdigest()[:16]


def group_digest(cases_and_digests) -> str:
    return digest(*(f"{case} {d}" for case, d in sorted(cases_and_digests)))


class Runner:
    """Executes ops through ``cli.main`` with cwd at the work directory."""

    def __init__(self, cli, workdir: Path):
        self.cli = cli
        self.axioms = workdir / AXIOM_DIR

    def execute(self, argv: list[str]) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception as exc:  # the op failed: count it, never abort the run
            code, error = None, f"{type(exc).__name__}: {str(exc)[:200]}"
        elapsed = time.perf_counter() - start
        parts = [out.getvalue(), err.getvalue()]
        if "--include-axioms" in argv and self.axioms.is_dir():
            for path in sorted(self.axioms.iterdir()):
                parts += [path.name, path.read_text(encoding="utf-8")]
                path.unlink()
        return Outcome(code, parts[0], parts[1], error, elapsed, digest(*parts))


def write_input(inputs: Path, name: str, text: str) -> str:
    (inputs / name).write_text(text, encoding="utf-8")
    return f"{inputs.name}/{name}"


def check_argv(path: str, config: str, worlds: int, individuals: int, budget: float) -> list[str]:
    return ["check", path, "-f", f"thf:{config}", "--max-worlds", str(worlds),
            "--max-individuals", str(individuals), "--time-budget", str(budget)]


def check_search(problem_text, config, verdict, size, outcome: Outcome) -> str | None:
    got = checks.search_verdict(outcome.stdout)
    if got != verdict:
        return f"verdict {got}, expected {verdict}"
    if got == "found":
        reason, found_size = checks.reverify(problem_text, config, outcome.stdout)
        if reason:
            return reason
        if size is not None and found_size != tuple(size):
            return f"countermodel of size {found_size}, expected {tuple(size)}"
    return None


def completes(outcome: Outcome) -> bool:
    """A probe that must end without a traceback (0 or a clean exit 1)."""
    return outcome.error is None and outcome.code in (0, 1)


def histogram(values) -> str:
    return " ".join(f"{k}:{v}" for k, v in sorted(Counter(values).items()))


# ---------------------------------------------------------------- workloads


def build_check_e1(rng: random.Random, inputs: Path, golden: dict) -> Workload:
    path = write_input(inputs, "e1.qmf", corpus.E1_TEXT)
    ops = []
    for config in corpus.CONFIGS:
        verdict = "found" if checks.E1_REFUTABLE[config] else "exhausted"
        ops.append(Op(config, check_argv(path, config, 3, 3, E1_BUDGET_S),
                      check=partial(check_search, corpus.E1_TEXT, config, verdict, None)))
    rng.shuffle(ops)
    refutable = sum(checks.E1_REFUTABLE.values())
    return Workload(ops, shape=[
        f"21 ops per pass (E1 under every config at 3x3): {refutable} refutable, "
        f"{21 - refutable} valid; profile-eligible 100%, formula depth 3",
    ])


def fuzz_op(index: int, units, config: str, inputs: Path, known) -> Op:
    text = corpus.problem_text(units)
    path = write_input(inputs, f"f{index}.qmf", text)
    verdict, worlds, individuals, recorded, _ = known
    size = (worlds, individuals) if verdict == "found" else None
    return Op(f"pool{index}:{config}", check_argv(path, config, 2, 2, FUZZ_BUDGET_S),
              check=partial(check_search, text, config, verdict, size), golden_digest=recorded)


def fuzz_pool(golden: dict) -> list[int]:
    """The check-fuzz draws whose op took at most FUZZ_MAX_S when
    golden.json was recorded, so no search in the pool can time out."""
    return [i for i, entry in enumerate(golden["check-fuzz"]) if entry[4] <= FUZZ_MAX_S]


def build_check_fuzz(rng: random.Random, inputs: Path, golden: dict) -> Workload:
    draws = corpus.fuzz_draws()
    known = golden["check-fuzz"]
    pool = fuzz_pool(golden)
    # A few searches carry most of the cost and its tail, so the costliest
    # tenth of the pool runs in every seed; the seed keeps three in four of
    # the rest, stratified by the op time recorded in golden.json.
    by_cost = sorted(pool, key=lambda i: (known[i][4], i))
    cut = len(pool) - len(pool) // 10
    chosen = sorted(by_cost[cut:] + corpus.stratified_sample(
        rng, by_cost[:cut], lambda i: (known[i][4], i), 3, 4))
    ops = [fuzz_op(i, *draws[i], inputs, known[i]) for i in chosen]
    hard = write_input(inputs, "hard.qmf", corpus.HARD_GENERIC_TEXT)
    ops.append(Op("hard-generic:k:const:2x2", check_argv(hard, "k:const", 2, 2, FUZZ_BUDGET_S),
                  check=partial(check_search, corpus.HARD_GENERIC_TEXT, "k:const", "exhausted", None)))
    rng.shuffle(ops)
    probes = [
        Probe(f"hard-generic:k:const:{w}x{i}", check_argv(hard, "k:const", w, i, FUZZ_BUDGET_S),
              f"generic search does not finish {w}x{i} within {FUZZ_BUDGET_S:g} s",
              lambda o: o.error is None and checks.search_verdict(o.stdout) == "exhausted")
        for w, i in ((2, 3), (3, 2))
    ]
    units = [draws[i][0] for i in chosen]
    verdicts = [known[i][0] for i in chosen]
    eligible = sum(map(corpus.profile_eligible, units))
    left_out = len(draws) - len(pool)
    return Workload(ops, probes, shape=[
        f"{len(ops)} ops per pass ({len(chosen)} of a {len(pool)}-problem pool + 1 hard generic case)",
        f"pool: {left_out} of {len(draws)} draws ({left_out / len(draws):.1%}) left out, "
        f"recorded slower than {FUZZ_MAX_S:.3f} s",
        f"profile-eligible {eligible / len(units):.1%} (all draws "
        f"{sum(corpus.profile_eligible(u) for u, _ in draws) / len(draws):.1%}); "
        f"recorded verdicts {histogram(verdicts)}",
        "signatures " + histogram(map(corpus.signature_kind, units))
        + " (all draws " + histogram(corpus.signature_kind(u) for u, _ in draws) + ")",
        "configs " + histogram(draws[i][1] for i in chosen)
        + " (all draws " + histogram(c for _, c in draws) + ")",
        "conjecture depth histogram "
        + histogram(corpus.formula_depth(u[-1][2]) for u in units),
        "recorded countermodel sizes (worlds x individuals) "
        + histogram(f"{known[i][1]}x{known[i][2]}" for i in chosen if known[i][0] == "found"),
    ])


def translate_problems(picks, pool) -> list[tuple[str, str]]:
    return ([(f"pool{i}", corpus.problem_text(pool[i])) for i in picks]
            + [("e1", corpus.E1_TEXT), ("conj300", corpus.conjunction_text(300))])


def check_listing(config: str, layout: str, outcome: Outcome) -> str | None:
    return checks.check_e1_listing(config, layout, outcome.stdout)


def translate_ops(key: str, path: str) -> list[Op]:
    ops = []
    for config in corpus.CONFIGS:
        for layout in LAYOUTS:
            argv = ["translate", path, "-f", f"thf:{config}", "-o", "-"]
            if layout == "include":
                argv.append("--include-axioms")
            check = None
            if key == "e1" and (config, layout) in checks.E1_LISTINGS:
                check = partial(check_listing, config, layout)
            ops.append(Op(f"{key}:{config}:{layout}", argv, check=check, group=key))
    return ops


def build_translate(rng: random.Random, inputs: Path, golden: dict) -> Workload:
    pool = corpus.translate_pool()
    # one problem from every four neighbours in size, so every seed gets
    # the pool's mix of small and large problems
    picks = sorted(corpus.stratified_sample(
        rng, range(len(pool)), lambda i: (len(corpus.problem_text(pool[i])), i),
        1, len(pool) // TRANSLATE_PROBLEMS))
    problems = translate_problems(picks, pool)
    ops = []
    for key, text in problems:
        ops += translate_ops(key, write_input(inputs, f"{key}.qmf", text))
    rng.shuffle(ops)
    probes = [
        Probe(key, ["translate", write_input(inputs, f"{key}.qmf", text), "-f", "thf:k:const", "-o", "-"],
              defect, completes)
        for key, text, defect in (
            ("conj600", corpus.conjunction_text(600), "RecursionError in the thf emitter"),
            ("neg3000", corpus.negation_text(3000), "RecursionError in the qmf parser"),
        )
    ]
    units = [pool[i] for i in picks]
    eligible = sum(map(corpus.profile_eligible, units))
    return Workload(ops, probes, {key: golden["translate"][key] for key, _ in problems}, shape=[
        f"{len(ops)} ops per pass: {len(problems)} problems ({len(picks)} of a {len(pool)}-problem"
        f" pool + E1 + 300-way conjunction) x 21 configs x {len(LAYOUTS)} layouts",
        f"profile-eligible {eligible / len(units):.1%}; units per problem "
        + histogram(len(u) for u in units),
        "max unit depth " + histogram(max(corpus.formula_depth(f) for _, _, f in u) for u in units),
    ])


def check_eval_op(worlds: int, violated: bool, outcome: Outcome) -> str | None:
    return checks.check_eval(outcome.stdout, outcome.stderr, worlds, violated)


def build_eval(rng: random.Random, inputs: Path, golden: dict) -> Workload:
    pool = corpus.eval_pool()
    # Cost follows formula size, so the largest tenth runs in every seed
    # (it holds the latency tail); the seed keeps three in four of the rest.
    by_size = sorted(range(len(pool)), key=lambda i: (len(pool[i][0]), i))
    large = by_size[len(pool) - len(pool) // 10:]
    picks = sorted(large + corpus.stratified_sample(
        rng, by_size[:len(pool) - len(pool) // 10], lambda i: (pool[i][2], len(pool[i][0]), i), 3, 4))
    cases = [pool[i] for i in picks]
    ops = []
    for i, (problem, fixture, config, violated, worlds, _) in zip(picks, cases):
        argv = ["eval", write_input(inputs, f"case{i}.qmf", problem),
                "--model", write_input(inputs, f"case{i}.model", fixture), "-f", f"thf:{config}"]
        ops.append(Op(f"case{i}:{config}", argv, 4 if violated else 0,
                      check=partial(check_eval_op, worlds, violated)))
    rng.shuffle(ops)
    e1 = write_input(inputs, "e1.qmf", corpus.E1_TEXT)
    mismatched = write_input(inputs, "mismatched.model", corpus.MISMATCHED_F_FIXTURE)
    probes = [Probe("mismatched-f", ["eval", e1, "--model", mismatched, "-f", "thf:k:vary"],
                    "a fixture giving unary f a binary extension is evaluated, exit 0",
                    lambda o: o.error is None and o.code not in (0, None))]
    return Workload(ops, probes, shape=[
        f"{len(ops)} ops per pass ({len(large)} largest + a sample of the rest of a "
        f"{len(pool)}-case pool); {sum(c[3] for c in cases)} fixtures violate their condition",
        "fixture worlds " + histogram(c[4] for c in cases),
        "formula depth " + histogram(c[5] for c in cases),
    ])


BUILDERS = {
    "check-e1": build_check_e1,
    "check-fuzz": build_check_fuzz,
    "translate": build_translate,
    "eval": build_eval,
}


# ---------------------------------------------------------------- measuring


@dataclass
class Passes:
    latencies: list[list[float]]  # one list per pass, in op order
    walls: list[float]
    timed_out_s: float

    @property
    def count(self) -> int:
        return len(self.walls)

    @property
    def wall(self) -> float:
        return sum(self.walls)

    @property
    def executions(self) -> int:
        return sum(map(len, self.latencies))


def run_passes(runner: Runner, ops: list[Op], first: list, changed: list[int],
               seconds: float | None = None, passes: int | None = None) -> Passes:
    """Whole passes until ``seconds`` have elapsed, or exactly ``passes``.

    The first outcome of each op is kept for the checks (its stdout only if
    the op has a check); any later execution whose exit, error or output
    digest differs from it is counted in ``changed``."""
    latencies: list[list[float]] = []
    walls: list[float] = []
    timed_out = 0.0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        latencies.append([])
        for i, op in enumerate(ops):
            outcome = runner.execute(op.argv)
            latencies[-1].append(outcome.elapsed)
            if op.argv[0] == "check" and checks.search_verdict(outcome.stdout) == "timeout":
                timed_out += outcome.elapsed
            if first[i] is None:
                first[i] = outcome if op.check else dataclasses.replace(outcome, stdout="")
            elif (outcome.code, outcome.error, outcome.digest) != (
                first[i].code, first[i].error, first[i].digest
            ):
                changed[i] += 1
        walls.append(time.perf_counter() - pass_start)
        done = len(walls) >= passes if passes is not None else time.perf_counter() - start >= seconds
        if done:
            return Passes(latencies, walls, timed_out)


def warm_up(runner: Runner, ops: list[Op]):
    start = time.perf_counter()
    for op in ops:
        runner.execute(op.argv)
        if time.perf_counter() - start >= WARMUP_S:
            return


def evaluate(workload: Workload, first: list, changed: list[int], executions: int):
    """Failed executions and the first few reasons."""
    bad_groups = set()
    for key, want in workload.golden_groups.items():
        got = group_digest((op.case, first[i].digest)
                           for i, op in enumerate(workload.ops) if op.group == key)
        if got != want:
            bad_groups.add(key)
    failed, reasons, drift = 0, [], 0
    for i, op in enumerate(workload.ops):
        outcome = first[i]
        if outcome.error:
            reason = f"raised {outcome.error}"
        elif outcome.code != op.expect_exit:
            reason = f"exit {outcome.code}, expected {op.expect_exit}: {outcome.stderr.strip()[:120]}"
        else:
            reason = op.check(outcome) if op.check else None
        if reason is None and op.group in bad_groups:
            reason = f"outputs of {op.group} differ from the digests recorded in golden.json"
        if op.golden_digest is not None and outcome.digest != op.golden_digest:
            drift += 1
        if reason:
            failed += executions
            reasons.append(f"{op.case}: {reason}")
        else:
            failed += changed[i]
            if changed[i]:
                reasons.append(f"{op.case}: output changed between passes")
    return failed, reasons, drift


def measure_setup() -> float:
    """Median seconds to import fml2hol.cli and build its parser in a fresh
    interpreter, after one unmeasured start that writes bytecode caches."""
    code = ("import sys, time\nstart = time.perf_counter()\nsys.path.insert(0, sys.argv[1])\n"
            "from fml2hol import cli\ncli.build_parser()\nprint(time.perf_counter() - start)\n")
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", code, str(SRC)],
                              capture_output=True, text=True, timeout=60, check=True)
        if i:
            samples.append(float(proc.stdout))
    return statistics.median(samples)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, beyond)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def search_outcomes(workload: Workload, first: list) -> list[str]:
    verdicts = Counter()
    sizes = Counter()
    for op, outcome in zip(workload.ops, first):
        if op.argv[0] == "check" and op.check:
            verdicts[checks.search_verdict(outcome.stdout)] += 1
            found = checks.countermodel(outcome.stdout)
            if found:
                lines = dict(line.split(":", 1) for line in found[1].splitlines()
                             if line.startswith(("worlds:", "universe:")))
                sizes[f"{len(lines['worlds'].split())}x{len(lines['universe'].split())}"] += 1
    if not verdicts:
        return []
    return [f"search outcomes {histogram(verdicts.elements())}",
            f"countermodel sizes (worlds x individuals) {histogram(sizes.elements())}"]


def measure(runner: Runner, workload: Workload, seconds: float, trace: bool,
            spans_path: Path | None = None) -> dict:
    """Run, check and report one workload; returns the JSON result."""
    ops = workload.ops
    for line in workload.shape:
        print(f"corpus: {line}")
    setup_s = None if trace else measure_setup()
    warm_up(runner, ops)
    # the corpus and the harness's own objects need no collecting: keep
    # them out of the collector's way so its pauses come from the program
    gc.collect()
    gc.freeze()
    first = [None] * len(ops)
    changed = [0] * len(ops)
    untraced = run_passes(runner, ops, first, changed, seconds=seconds)
    # read before the checks and probes, which are not the workload
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    executions = untraced.count
    attempted = untraced.executions
    tracer = traced = None
    if trace:
        tracer = Tracer()
        with tracer:
            traced = run_passes(runner, ops, first, changed, passes=untraced.count)
        executions += traced.count
        attempted += traced.executions
    gc.unfreeze()

    failed, reasons, drift = evaluate(workload, first, changed, executions)
    probe_failing = 0
    for probe in workload.probes:
        outcome = runner.execute(probe.argv)
        ok = probe.fixed(outcome)
        probe_failing += not ok
        what = outcome.error or f"exit {outcome.code}"
        print(f"known defect {probe.case}: {'fixed' if ok else 'still failing'} "
              f"({probe.defect}; got {what} in {outcome.elapsed:.3f} s)")
    for line in search_outcomes(workload, first):
        print(f"corpus: {line}")
    for reason in reasons[:10]:
        print(f"FAILED {reason}")
    if drift:
        print(f"note: {drift} check outputs differ from the bytes recorded in golden.json "
              "(verdicts and sizes still checked)")
    share = (failed + probe_failing) / (attempted + len(workload.probes))
    print(f"fail_share {share:.6f} share ({failed} of {attempted} ops failed; "
          f"{probe_failing} of {len(workload.probes)} known-defect probes failing)")
    print(f"timed-out ops took {untraced.timed_out_s / untraced.wall:.1%} of timed wall time")
    correct = failed == 0

    if not trace:
        # Every pass runs the same ops, so a pass is the unit of repetition:
        # throughput is the median over passes, and latencies are each op's
        # median over the passes.  Both keep a burst of machine noise in one
        # pass from moving the result.
        per_op = [statistics.median(times) for times in zip(*untraced.latencies)]
        samples = per_op * TAIL_PASSES
        value, percentile, beyond = tail(samples)
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (statistics.median(len(ops) / wall for wall in untraced.walls), "1/s"),
            "op_p50_ms": (statistics.median(per_op) * 1000, "ms"),
            "op_tail_ms": (value * 1000, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        slowest = sorted(range(len(ops)), key=per_op.__getitem__)[-3:]
        print(f"passes {untraced.count}, {untraced.executions} ops in {untraced.wall:.3f} s; "
              f"op_tail_ms is p{percentile:.2f} of {len(samples)} samples (each op's median "
              f"{TAIL_PASSES} times), {beyond} beyond it; "
              f"slowest ops " + ", ".join(f"{ops[i].case} {per_op[i] * 1000:.2f} ms" for i in reversed(slowest)))
    else:
        metrics = tracer.metrics()
        overhead = traced.wall - untraced.wall
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["known_defects.failing"] = (probe_failing, "count")
        op_time = sum(map(sum, traced.latencies))
        untraced_per_op = (op_time - tracer.root_s) / traced.executions
        accounted = (tracer.calls["cli.main"] == traced.executions
                     and untraced_per_op <= MAX_UNTRACED_PER_OP_S)
        correct = correct and accounted
        print(f"trace accounting: {tracer.calls['cli.main']} traced cli.main calls for "
              f"{traced.executions} ops; traced spans cover {tracer.root_s / op_time:.2%} of op time "
              f"{op_time:.4f} s, {untraced_per_op * 1e6:.2f} us per op outside them "
              f"({'ok' if accounted else 'MISMATCH'}); "
              f"{tracer.self_s['cli.main'] / op_time:.1%} of op time is cli.main's own "
              f"(program code in no other traced function); "
              f"tracing overhead {overhead:.3f} s ({overhead / untraced.wall:.1%})")
        for name in sorted(tracer.self_s, key=tracer.self_s.get, reverse=True):
            if tracer.calls[name]:
                print(f"layer {name}: {tracer.calls[name]} calls, self {tracer.self_s[name]:.4f} s "
                      f"({tracer.self_s[name] / op_time:.1%} of op time)")
        if spans_path is not None:
            with spans_path.open("w", encoding="utf-8") as handle:
                for span in tracer.spans:
                    handle.write(json.dumps(span) + "\n")
            print(f"spans: {len(tracer.spans)} written to {spans_path}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value} {unit}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def load_program():
    """Import fml2hol.cli from this checkout's src/, and nowhere else."""
    package = SRC / "fml2hol"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: fml2hol sources not found at {package}")
    sys.path.insert(0, str(SRC))
    from fml2hol import cli

    if Path(cli.__file__).resolve().parent != package:
        sys.exit(f"bench: imported fml2hol from {cli.__file__}, not from {package}")
    return cli


def run(workload: str, seed: int, seconds: float, trace: bool, adjust=None) -> dict:
    """Build, measure and check one workload; ``adjust`` lets the smoke
    test shrink or alter the built workload before it runs."""
    cli = load_program()
    if not GOLDEN.is_file():
        sys.exit(f"bench: missing {GOLDEN}")
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    os.environ["FML2HOL_AXIOM_DIR"] = AXIOM_DIR
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    previous = os.getcwd()
    try:
        inputs = workdir / "inputs"
        inputs.mkdir()
        built = BUILDERS[workload](random.Random(seed), inputs, golden)
        if adjust is not None:
            built = adjust(built)
        os.chdir(workdir)
        spans = WORK_ROOT / f"spans-{workload}-seed{seed}.jsonl" if trace else None
        return measure(Runner(cli, workdir), built, seconds, trace, spans)
    finally:
        os.chdir(previous)
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
