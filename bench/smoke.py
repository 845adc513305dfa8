"""Smoke test for the benchmark at tiny sizes (a few seconds).

    python3 bench/smoke.py

Shows that every workload runs in both modes and reports exactly the
metrics BENCHMARK.json names, that a failing op is counted rather than
raised, and that a deliberately wrong verdict is caught.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
from functools import partial

import corpus
import run

EXPECTED_KEYS = {"correct", "attempted", "failed", "metrics"}


def expect(condition: bool, message: str):
    if not condition:
        raise AssertionError(message)


def tiny(workload: run.Workload) -> run.Workload:
    """A few cheap ops: refutable E1 configs, 30 fuzz searches, 20 eval
    cases, and at most one probe."""
    ops = workload.ops
    if ops[0].argv[0] == "check":
        ops = [op for op in ops if op.case.endswith(":vary") or op.case.startswith("pool")][:30]
    elif ops[0].argv[0] == "eval":
        ops = ops[:20]
    return dataclasses.replace(workload, ops=ops, probes=workload.probes[:1])


def quiet(workload: str, trace: bool = False, adjust=tiny) -> dict:
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        result = run.run(workload, seed=7, seconds=0, trace=trace, adjust=adjust)
    result["printed"] = printed.getvalue()
    return result


def main() -> int:
    spec = json.loads((run.CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run.TRANSLATE_PROBLEMS = 1
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, names in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result = quiet(workload, trace)
            expect(set(result) - {"printed"} == EXPECTED_KEYS, f"{workload}: result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{workload}: tiny run not clean:\n{result['printed']}")
            expect(set(result["metrics"]) == {m["name"] for m in names},
                   f"{workload} trace={trace}: metrics differ from BENCHMARK.json")
        print(f"ok {workload}")

    # a failing op is counted, not raised
    from fml2hol import kripke

    def broken_parse_model(text):
        raise RuntimeError("injected fault")

    original = kripke.parse_model
    kripke.parse_model = broken_parse_model
    try:
        result = quiet("eval")
    finally:
        kripke.parse_model = original
    expect(not result["correct"] and result["failed"] == result["attempted"] > 0,
           "eval with a raising parse_model: failures not counted")
    print("ok failures are counted")

    # a deliberately wrong verdict is caught
    def wrong_verdict(workload):
        workload = tiny(workload)
        op = workload.ops[0]
        op.check = partial(run.check_search, corpus.E1_TEXT, op.case, "exhausted", None)
        return workload

    result = quiet("check-e1", adjust=wrong_verdict)
    expect(not result["correct"] and result["failed"] == 1, "wrong E1 verdict not caught")
    expect("verdict found, expected exhausted" in result["printed"], "wrong verdict not reported")
    print("ok wrong verdict caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
