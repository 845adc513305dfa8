"""Rebuild golden.json from the program in this checkout.

    python3 bench/record_golden.py

golden.json holds the known answers that are not derivable from the
paper: for every check-fuzz draw, the verdict, the size of the
countermodel, the digest of the output and the seconds the op took; for
every problem of the translate pool, one digest over its 42 translations.
The recorded seconds fix the check-fuzz pool: draws slower than a third
of the time budget are left out of it (run.fuzz_pool).  Record it only at
a commit whose outputs are the reference; the benchmark compares later
commits against it.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import corpus
import run


def main() -> int:
    cli = run.load_program()
    os.environ["FML2HOL_AXIOM_DIR"] = run.AXIOM_DIR
    run.WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="golden-", dir=run.WORK_ROOT))
    previous = os.getcwd()
    try:
        inputs = workdir / "inputs"
        inputs.mkdir()
        os.chdir(workdir)
        runner = run.Runner(cli, workdir)
        fuzz = []
        for i, (units, config) in enumerate(corpus.fuzz_draws()):
            op = run.fuzz_op(i, units, config, inputs, (None, 0, 0, None, 0.0))
            outcome = runner.execute(op.argv)
            verdict = checks.search_verdict(outcome.stdout)
            # a draw left out of the pool may time out; one in it may not
            allowed = ("found", "exhausted") + (() if outcome.elapsed <= run.FUZZ_MAX_S else ("timeout",))
            if outcome.code != 0 or verdict not in allowed:
                sys.exit(f"{op.case}: exit {outcome.code}, verdict {verdict}: {outcome.error}")
            size = (0, 0)
            if verdict == "found":
                reason, size = checks.reverify(corpus.problem_text(units), config, outcome.stdout)
                if reason:
                    sys.exit(f"{op.case}: {reason}")
            fuzz.append([verdict, *size, outcome.digest, round(outcome.elapsed, 6)])
        translate = {}
        pool = corpus.translate_pool()
        for key, text in run.translate_problems(range(len(pool)), pool):
            digests = []
            for op in run.translate_ops(key, run.write_input(inputs, f"{key}.qmf", text)):
                outcome = runner.execute(op.argv)
                if outcome.code != 0 or outcome.error:
                    sys.exit(f"{op.case}: exit {outcome.code}: {outcome.error}")
                digests.append((op.case, outcome.digest))
            translate[key] = run.group_digest(digests)
    finally:
        os.chdir(previous)
        shutil.rmtree(workdir, ignore_errors=True)
    with run.GOLDEN.open("w", encoding="utf-8") as handle:
        json.dump({"check-fuzz": fuzz, "translate": translate}, handle, separators=(",", ":"))
        handle.write("\n")
    slow = sum(entry[4] > run.FUZZ_MAX_S for entry in fuzz)
    print(f"wrote {run.GOLDEN}: {len(fuzz)} check-fuzz draws ({slow} slower than "
          f"{run.FUZZ_MAX_S:.3f} s, left out of the pool), {len(translate)} translate groups")
    return 0


if __name__ == "__main__":
    sys.exit(main())
