"""The benchmark's own tests: ``python3 -m pytest bench -q`` from the repo root.

Each workload runs at the tiny size through ``run.py`` itself; the corrupted
result comes from a test double patched over a library function in this
process, never from an edit under ``src/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from invar import monomials, solver  # noqa: E402

MAIN_SPAN = {
    "kernel": "bergman.extract",
    "decompose": "solver.decompose",
    "oracle": "fourier.eval_integral",
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def _tiny(workload, trace):
    return _bench("--workload", workload, "--seed", "0", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported_with_its_unit(workload):
    context, result = _result(_tiny(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for key in ("nproc", "python", "seed", "ops_per_pass", "src_lines", "digest"):
        assert key in context
    assert context["digest_recorded"] is True


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reports_every_layer_metric_and_matching_digests(workload):
    context, result = _result(_tiny(workload, 1))
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert len(set(context["pass_digests"])) == 1
    assert "trace_overhead_s" in context
    spans = [json.loads(line) for line in (ROOT / context["spans"]).read_text().splitlines()]
    assert any(s.get("name") == MAIN_SPAN[workload] for s in spans)


def _fresh_caches():
    monomials._CANONICAL_CACHE.clear()
    solver._SYSTEM_CACHE.clear()


def test_corrupted_result_counts_as_failed(monkeypatch):
    ops = workloads.load(workloads.generate("decompose", 0, "tiny"))
    recorded = run.recorded_digests("decompose", "tiny", 0)
    _fresh_caches()
    good = worker.run_pass(ops)
    assert all(good["ok"]) and run.failures([good], recorded) == 0

    real = solver.decompose

    def off_by_one_chern(inv, restriction=None):
        dec = real(inv, restriction)
        dec.chern[(1,)] = dec.chern.get((1,), Fraction(0)) + 1
        return dec

    monkeypatch.setattr(solver, "decompose", off_by_one_chern)
    _fresh_caches()
    bad = worker.run_pass(ops)
    assert not any(bad["ok"])
    assert run.failures([bad], recorded) == len(ops)


def test_changed_output_fails_the_recorded_digest(monkeypatch):
    ops = workloads.load(workloads.generate("decompose", 0, "tiny"))
    recorded = run.recorded_digests("decompose", "tiny", 0)
    real = solver.Decomposition.to_json_dict
    monkeypatch.setattr(solver.Decomposition, "to_json_dict",
                        lambda self: {**real(self), "extra": 1})
    _fresh_caches()
    changed = worker.run_pass(ops)
    assert all(changed["ok"])
    assert run.failures([changed], recorded) == len(ops)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "kernel", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
