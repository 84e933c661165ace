"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

    python3 -m pytest perfbench/tests -q

They take about a minute: the oracle cross-check runs a full six_check pass.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PINNED = json.loads((HERE / "pinned.json").read_text(encoding="utf-8"))


def _generate(name, seed, directory):
    return WORKLOADS[name].generate(seed, Path(directory))


@pytest.mark.parametrize("name", ["six_check", "grid_search"])
def test_generation_is_deterministic_per_seed(name, tmp_path):
    first = _generate(name, 3, tmp_path / "a")
    second = _generate(name, 3, tmp_path / "b")
    other = _generate(name, 4, tmp_path / "c")
    assert first.digests == second.digests
    assert first.digests != other.digests
    for rel in first.digests:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


@pytest.mark.parametrize("name", ["six_check", "grid_search"])
def test_default_seed_inputs_match_the_pinned_digests(name, tmp_path):
    assert _generate(name, 0, tmp_path).digests == PINNED[name]["inputs"]


def test_six_check_default_seed_agrees_with_the_oracle(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = WORKLOADS["six_check"]
    inputs = workload.generate(0, Path("."))
    result = workload.run_pass(inputs)
    workload.collect(inputs, result, Path("."))
    assert workload.verify(inputs, [result], 0, PINNED, ROOT) == {}
    statuses = {name: status for name, (status, _) in inputs.parts.items()}
    assert all(statuses[op.name] == "pass" for op in inputs.ops if op.info["class"] == "valid")
    assert all(statuses[op.name] == "fail" for op in inputs.ops if op.info["class"] == "dense")


def _outputs(workload, inputs, traced):
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    try:
        result = workload.run_pass(inputs)
    finally:
        if tracer is not None:
            tracer.uninstall()
    workload.collect(inputs, result, Path("."))
    return result, tracer


def test_traced_and_untraced_runs_write_identical_reports(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    six = WORKLOADS["six_check"]
    inputs = six.generate(0, Path("."))
    inputs.ops = [op for op in inputs.ops if op.name in ("v4F", "n4F", "d4S")]
    plain, _ = _outputs(six, inputs, traced=False)
    traced, tracer = _outputs(six, inputs, traced=True)
    assert [(o.exit_code, o.digest) for o in plain.outcomes] == [
        (o.exit_code, o.digest) for o in traced.outcomes
    ]
    metrics = tracing.layer_metrics(tracer)
    # one evaluation for the kind check and one for --multiplicative per operation
    assert metrics["axioms.evaluate.calls"] == 2 * len(inputs.ops)
    assert metrics["poly.arith.calls"] > 0 and metrics["report.bytes"] > 0
    assert {span[3] for span in tracer.spans} >= {"cli.op", "axioms.evaluate", "corpus.load"}

    corpus = WORKLOADS["corpus"]
    inputs = corpus.generate(0, Path("."))
    plain, _ = _outputs(corpus, inputs, traced=False)
    traced, tracer = _outputs(corpus, inputs, traced=True)
    assert plain.artifacts == traced.artifacts
    assert [o.digest for o in plain.outcomes] == [o.digest for o in traced.outcomes]
    # verify_operator is looked up in homsplit.corpus, where the tracer must patch it
    assert tracing.layer_metrics(tracer)["operators.verify.calls"] == 43


def test_tracer_restores_every_patched_name():
    import homsplit.axioms
    import homsplit.corpus
    import homsplit.operators
    from homsplit.poly import Polynomial

    before = (
        homsplit.corpus.verify_operator,
        homsplit.operators.check_homomorphism,
        homsplit.axioms.evaluate_templates,
        Polynomial.__dict__["__add__"],
        Polynomial.__dict__["parse"],
    )
    tracer = tracing.Tracer()
    tracing.install(tracer)
    assert homsplit.corpus.verify_operator is not before[0]
    tracer.uninstall()
    after = (
        homsplit.corpus.verify_operator,
        homsplit.operators.check_homomorphism,
        homsplit.axioms.evaluate_templates,
        Polynomial.__dict__["__add__"],
        Polynomial.__dict__["parse"],
    )
    assert after == before


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    names = list(tracing.layer_metrics(tracing.Tracer())) + ["trace.overhead_s"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.layer_units(name) for name in names
    }
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_tail_percentile_leaves_ten_samples_beyond():
    samples = list(range(1, 23))
    q, value = run.tail_percentile(samples)
    assert q == 54 and value == 12
    assert sum(1 for s in samples if s > value) >= 10
    with pytest.raises(ValueError):
        run.tail_percentile(list(range(10)))


def _git_status():
    return subprocess.run(
        ["git", "status", "--porcelain", "--ignored=no"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout


def test_a_run_leaves_the_checkout_clean():
    if not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    before = _git_status()
    committed = (ROOT / "DISCREPANCIES.md").read_bytes()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 132
    assert set(result["metrics"]) == set(run.UNITS)
    assert _git_status() == before
    assert (ROOT / "DISCREPANCIES.md").read_bytes() == committed
    assert not (ROOT / ".bench_tmp").exists()


def test_benchmark_alone_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
