"""Tests of the benchmark itself; the library's suite does not collect them.

Run from the root of a checkout::

    python3 -m pytest -q bench/test_bench.py

The smoke tests run every workload at level 1 and take about half a
minute.  ``test_full_counts_repeat`` runs each workload at its full
levels twice with tracing (about three minutes on two cores).
"""

import json
import math
import shutil
import subprocess
import sys
import time

import pytest

import run
import tracer
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600,
    )


def traced(name, levels):
    w = workloads.WORKLOADS[name]
    out = run.run_child(w.example, levels, True, f"test-{name}",
                        time.monotonic() + 600.0)
    assert workloads.check(w, levels, out["rows"], out["h"],
                           workloads.load_reference()) == []
    return out


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_emits_every_metric_with_unit(name, trace, kind):
    proc = bench("--workload", name, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    for value in result["metrics"].values():
        assert math.isfinite(value["value"])
    if kind == "end_to_end":
        assert all(result["metrics"][k]["value"] > 0 for k in want)


def test_workloads_match_benchmark_json():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]


def test_span_self_times_add_up_to_traced_wall_time():
    out = traced("tep-secant", workloads.SMOKE_LEVELS)
    spans = out["spans"]
    assert spans[0][0] == tracer.ROOT
    assert all(parent < i for i, (*_, parent) in enumerate(spans))
    own = tracer.self_times(spans)
    assert min(own) >= -1e-9
    root_s = spans[0][2] - spans[0][1]
    assert math.isclose(sum(own), root_s, rel_tol=1e-9)
    assert math.isclose(root_s, out["study_s"], rel_tol=1e-3)


def test_check_accepts_reference_and_rejects_a_perturbed_value():
    w = workloads.WORKLOADS["tep-companion"]
    reference = workloads.load_reference()
    rows = [
        {"level": level, "value_re": re, "value_im": im}
        for level in w.levels
        for re, im in reference["9"][str(level)]
    ]
    assert workloads.check(w, w.levels, rows, None, reference) == []
    rows[0]["value_re"] *= 1 + 1e-7
    assert workloads.check(w, w.levels, rows, None, reference) != []


def test_fails_without_library_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "tep-secant", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


FULL_COUNTS = {
    "source-fine": {"eigen.kkt_factors": 4, "solvers.lambda_evals": 0},
    "tep-secant": {"solvers.lambda_evals": 327},
    "tep-companion": {"eigen.kkt_factors": 0, "solvers.lambda_evals": 0},
}
EXACT = ("eigen.kkt_factors", "eigen.kkt_solves", "eigen.kkt_fill",
         "eigen.projector_factors", "solvers.lambda_evals",
         "solvers.secant_iters", "solvers.roots", "assembly.forms_calls",
         "spaces.psi_rows", "spaces.explicit_basis_nnz",
         "eigen.companion_dim")


@pytest.mark.parametrize("name", sorted(FULL_COUNTS))
def test_full_counts_repeat(name):
    w = workloads.WORKLOADS[name]
    runs = []
    for _ in range(2):
        out = traced(name, w.levels)
        metrics = tracer.layer_metrics(out["spans"], out["stats"])
        runs.append({k: metrics[k][0] for k in EXACT})
    assert runs[0] == runs[1]
    for key, value in FULL_COUNTS[name].items():
        assert runs[0][key] == value
