"""Smoke test of the benchmark on the acceptance world, the smallest one.

Each mode runs with ``--seconds 1``, so only the workload's fixed or traced
blocks (about 15 s each on two cores): every metric BENCHMARK.json names
must be printed with its unit, the output checks must pass, every wrapped
layer must be reached, and the per-layer metrics must be recomputable from
the spans file.  A directory holding only the benchmark must fail without a result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from tracing import layer_metrics, read_spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_and_checks_pass(tmp_path, trace, group):
    proc = _run(["--workload", "accept-1shot", "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--out-dir", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    printed = {tuple(line.split()[::2]) for line in lines[:-1]
               if len(line.split()) == 3}
    for name, unit in expected.items():
        assert (name, unit) in printed, f"{name} not printed with {unit}"
    assert any(line.startswith("report_sha256 ") for line in lines)
    assert "warning" not in proc.stderr

    stem = tmp_path / f"accept-1shot-seed3-trace{trace}"
    record = json.loads(stem.with_suffix(".json").read_text())
    assert record["machine"]["nproc"] >= 1
    assert record["machine"]["blas_threads"]
    if trace:
        spans = read_spans(str(stem) + ".spans.jsonl")
        for name, value in layer_metrics(spans).items():
            assert result["metrics"][name]["value"] == pytest.approx(value)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "accept-1shot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
