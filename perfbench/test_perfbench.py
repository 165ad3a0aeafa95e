"""Tests of the benchmark itself.

    python3 -m pytest perfbench

They run short benchmark processes, so they take about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import inputs  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def manifest():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke_runs():
    """One short untraced and one short traced run of the same seed."""
    return {trace: bench("--workload", "compare", "--seed", "5", "--seconds", "1", "--trace", str(trace))
            for trace in (0, 1)}


def test_manifest_matches_the_code(manifest):
    assert [(m["name"], m["unit"]) for m in manifest["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == [
        row[:3] for row in layers.PER_LAYER]
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(smoke_runs, manifest, trace):
    proc = smoke_runs[trace]
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = manifest["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    report = "\n".join(lines[:-1])
    for m in expected:
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in report.splitlines()), m["name"]
    assert "fail_frac: 0/" in report


def test_same_seed_gives_the_same_digest(smoke_runs):
    digests = {trace: next(line for line in proc.stdout.splitlines() if line.startswith("digest:"))
               for trace, proc in smoke_runs.items()}
    assert digests[0] == digests[1]


def test_without_the_package_source_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "study", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_wrong_study_reference_fails_the_block(monkeypatch):
    monkeypatch.setattr(inputs, "STUDY_BLOCK_REPS", 2 * inputs.STUDY_REPS)
    means, sds = reference.STUDY_TABLE[8][300]
    monkeypatch.setitem(reference.STUDY_TABLE[8], 300, ((means[0] + 1.0,) + means[1:], sds))
    study = workloads.Study(3)
    for _ in range(3):  # warm-up and one two-round block
        study.cycle()
    assert study.at_boundary()
    assert study.attempted == 3 * 4 + 4
    assert any("block" in line and "set 8, n=300" in line and "alpha mean" in line
               for line in study.failures)


def test_wrong_comparison_reference_fails_the_op(monkeypatch):
    compare = workloads.Compare(3)
    row = reference.COMPARISON_TABLES["appliances"]["ged"]
    monkeypatch.setitem(reference.COMPARISON_TABLES["appliances"], "ged", row[:1] + (row[1] + 0.01,) + row[2:])
    compare.cycle()
    assert compare.attempted == 3 and compare.failed == 1
    assert "ged ks_stat" in compare.failures[0]


def test_wrong_table_value_fails_the_surface_op(monkeypatch):
    surface = workloads.Surface(3)
    surface.triples = surface.triples[:2]
    triple = tuple(surface.triples[0][0].to_vector())
    monkeypatch.setitem(reference.MRL_TABLE, triple, reference.MRL_TABLE[triple] + 2e-4)
    surface.cycle()
    assert surface.attempted == 2 and surface.failed == 1
    assert "mrl" in surface.failures[0]


def test_changed_output_for_the_same_input_fails():
    compare = workloads.Compare(3)
    compare.cycle()
    dataset = inputs.DATASETS[0]
    compare.digests[dataset] = "0" * 64
    compare.cycle()
    assert compare.failed == 1
    assert "differs from the first run" in compare.failures[0]


def test_parse_importtime_reads_cumulative_times():
    stderr = ("import time: self [us] | cumulative | imported package\n"
              "import time:       120 |     690000 |   scipy.stats\n"
              "import time:        80 |    1430000 | clfrd\n")
    assert run.parse_importtime(stderr) == {
        "import.total_ms": 1430.0, "import.scipy_stats_ms": 690.0, "import.scipy_optimize_ms": 0.0}


class _Owner:
    @staticmethod
    def outer(inner):
        return inner() + inner()

    @staticmethod
    def inner():
        return 1


def test_tracer_counts_calls_and_self_time_and_restores_originals():
    original = _Owner.__dict__["inner"]
    tracer = tracing.Tracer()
    tracer.wrap(_Owner, "inner", "inner")
    assert tracer.call("outer", _Owner.outer, _Owner.inner) == 2
    tracer.uninstall()
    assert _Owner.__dict__["inner"] is original
    summary = tracer.summary()
    assert summary["inner"]["calls"] == 2 and summary["outer"]["calls"] == 1
    outer = summary["outer"]
    assert outer["self_ms"] == pytest.approx(outer["busy_ms"] - summary["inner"]["busy_ms"])
