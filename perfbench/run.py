"""homsplit benchmark: corpus, six_check and grid_search, end to end and per layer.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  Every operation goes through the public CLI
entry ``homsplit.cli.main(argv)`` in this process, one after another.

--trace 0 times the untraced passes and reports the end-to-end metrics;
--trace 1 makes one untraced and one traced pass and reports the per-layer
metrics plus trace.overhead_s.  Either way every output is checked against a
reference computed outside the timed region; the last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"} and the exit code is
nonzero when any operation failed.
"""

import sys

sys.dont_write_bytecode = True

import time  # noqa: E402

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
MIN_PASSES = 2
UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "verdict_p50_ms": "ms",
    "verdict_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def tail_percentile(samples: list) -> tuple:
    """(percentile, value): the highest whole percentile that leaves at
    least ten samples above its nearest-rank value."""
    n = len(samples)
    if n <= 10:
        raise ValueError(f"{n} samples leave no percentile with ten samples beyond it")
    q = (100 * (n - 10)) // n
    rank = max(1, math.ceil(q * n / 100))
    return q, sorted(samples)[rank - 1]


def pass_count(seconds: int, nominal_pass_s: float) -> int:
    """Passes per run: enough to fill `seconds` on the reference machine, at
    least two.  The count depends only on the arguments, so two commits run
    the same work."""
    return max(MIN_PASSES, math.ceil(seconds / nominal_pass_s))


def layer_units(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes") or name.endswith("bytes_read"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["corpus", "six_check", "grid_search"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [
        p for p in ("src/homsplit/__init__.py", "tests/oracle.py", "DISCREPANCIES.md")
        if not (ROOT / p).is_file()
    ]
    if missing:
        print(f"error: not a homsplit checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    import homsplit.cli  # noqa: F401  (import time is part of set-up)

    import_done = time.perf_counter()
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    pinned = json.loads((HERE / "pinned.json").read_text(encoding="utf-8"))
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    cwd = os.getcwd()
    os.chdir(workdir)
    here = Path(".")
    try:
        # set-up: seeded inputs, file writing and warm-up, several times
        setups, digests = [], []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            inputs = workload.generate(args.seed, here)
            workload.warm_up(inputs)
            setups.append(time.perf_counter() - start)
            digests.append(inputs.digests)
        setup_s = (import_done - PROCESS_START) + statistics.median(setups)

        passes = []
        tracer = None
        if args.trace:
            plan = [False, True]
        else:
            plan = [False] * pass_count(args.seconds, workload.nominal_pass_s)
        for traced in plan:
            if traced:
                tracer = tracing.Tracer()
                tracing.install(tracer)
            try:
                result = workload.run_pass(inputs)
            finally:
                if traced:
                    tracer.uninstall()
            workload.collect(inputs, result, here)
            passes.append(result)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        # reference answers and checks, outside the timed region
        failures = workload.verify(inputs, passes, args.seed, pinned, ROOT)
        if any(d != digests[0] for d in digests):
            failures[(0, "set-up")] = "set-up repetitions generated different inputs"
        traffic = workload.traffic(inputs)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass

    attempted = sum(len(p.outcomes) for p in passes)
    failed = len(failures)
    samples = [o.seconds * 1000 for p in passes for o in p.outcomes]
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"operations per pass {len(passes[0].outcomes)}  trace {args.trace}")
    print("traffic " + json.dumps(traffic, sort_keys=True))
    print("input digests " + json.dumps(inputs.digests, sort_keys=True))
    per_op = {}
    for p in passes:
        for o in p.outcomes:
            per_op.setdefault(o.op, []).append(o.seconds * 1000)
    print("operation median ms " + json.dumps(
        {op: round(statistics.median(v), 3) for op, v in per_op.items()}))
    for (index, op), reason in sorted(failures.items())[:20]:
        print(f"FAILED pass {index} {op}: {reason}")
    print(f"failed_ops {failed / max(attempted, 1):.6f} ratio ({failed} of {attempted})")

    if args.trace:
        metrics = tracing.layer_metrics(tracer)
        metrics["trace.overhead_s"] = passes[1].wall - passes[0].wall
        tracer.write_spans(str(ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"))
        print(f"spans {len(tracer.spans)} written to .bench_out/")
        units = {name: layer_units(name) for name in metrics}
    else:
        q, tail = tail_percentile(samples)
        metrics = {
            "setup_s": setup_s,
            "run_s": statistics.median(p.wall for p in passes),
            "verdict_p50_ms": statistics.median(samples),
            "verdict_tail_ms": tail,
            "peak_rss_mb": peak_rss_mb,
        }
        units = UNITS
        print(f"verdict_tail_ms is p{q} of {len(samples)} per-operation samples "
              f"({len(passes)} passes x {len(passes[0].outcomes)} operations)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
