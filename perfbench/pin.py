"""Write perfbench/pinned.json: the reference outputs the benchmark checks
against, taken from the current commit.

    python3 perfbench/pin.py

Pins the corpus report digest, summary and per-entry record digests, the
solve-op solution lists, and for the default seed the input-file digests and
the report/output digests of six_check and grid_search.  Re-pin only when a
change to the program's reports is intended and stated.
"""

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from workloads import WORKLOADS

    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="pin-", dir=ROOT / ".bench_tmp"))
    cwd = os.getcwd()
    os.chdir(workdir)
    here = Path(".")
    pinned = {}
    try:
        corpus = WORKLOADS["corpus"]
        inputs = corpus.generate(DEFAULT_SEED, here)
        result = corpus.run_pass(inputs)
        corpus.collect(inputs, result, here)
        pinned["corpus"] = {
            "exit_code": result.exit_code,
            "summary": result.stdout.splitlines()[0],
            "report_sha256": result.artifacts["report"],
            "entries": {o.op: o.digest for o in result.outcomes},
        }

        six = WORKLOADS["six_check"]
        inputs = six.generate(DEFAULT_SEED, here)
        result = six.run_pass(inputs)
        six.collect(inputs, result, here)
        pinned["six_check"] = {
            "seed": DEFAULT_SEED,
            "inputs": inputs.digests,
            "reports": {o.op: o.digest for o in result.outcomes},
        }

        grid = WORKLOADS["grid_search"]
        inputs = grid.generate(DEFAULT_SEED, here)
        result = grid.run_pass(inputs)
        grid.collect(inputs, result, here)
        solutions = {}
        for op, outcome in zip(inputs.ops, result.outcomes):
            if op.info["class"] == "solve":
                payload = json.loads(outcome.stdout.split("\n", 1)[1])
                solutions[op.info["algebra"]] = payload["solutions"]
        pinned["grid_search"] = {
            "seed": DEFAULT_SEED,
            "solutions": solutions,
            "inputs": inputs.digests,
            "outputs": {o.op: o.digest for o in result.outcomes},
        }
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".bench_tmp").rmdir()
        except OSError:
            pass
    text = json.dumps(pinned, indent=2, sort_keys=True) + "\n"
    (HERE / "pinned.json").write_text(text, encoding="utf-8")
    print(f"wrote {HERE / 'pinned.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
