"""Tests of the benchmark itself: its checks catch wrong answers, timeouts
count as failures, its output matches BENCHMARK.json, and it refuses to run
without the library sources.

Run from the root of the repository:  python3 -m pytest coalgbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import harness  # noqa: E402
from tracer import metric_units  # noqa: E402
from workloads import WORKLOADS, Task, Workload  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "coalgbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _one_pass(wl):
    return harness.run_pass(wl, time.perf_counter() + 120)


# -- the spec and the reported metrics agree ---------------------------------------


def test_spec_lists_the_workloads_and_per_layer_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["per_layer"]]
    assert set(metric_units()) <= set(names)
    assert len(names) == len(set(names)) <= 128
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("seed", [3, 4])
def test_cli_batch_runs_clean_on_two_seeds(seed):
    proc = _run_cli("--workload", "cli-batch", "--seed", str(seed), "--seconds", "0.5")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_traced_run_reports_every_per_layer_metric():
    proc = _run_cli("--workload", "cli-batch", "--seed", "5", "--seconds", "0.5", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["cli.main.calls"] > 0
    assert metrics["serialize.load_json.bytes"] > 0
    assert metrics["serialize.self_s"] > 0


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "coalgbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run_cli("--workload", "decide", "--seed", "1", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- failures are counted ------------------------------------------------------------


def test_injected_wrong_answers_are_failures(tmp_path):
    wl, _ = harness.set_up("cli-batch", 7, str(tmp_path))
    clean = _one_pass(wl)
    assert clean.failures == []

    def corrupt(run):
        def wrong():
            code, text = run()
            report = json.loads(text)
            report.setdefault("witnesses", {})["dimension"] = -1
            return code, json.dumps(report)

        return wrong

    for task in wl.tasks:
        if task.name.startswith(("coradical", "cotensor")):
            task.run = corrupt(task.run)
    broken = _one_pass(wl)
    assert len(broken.failures) == sum(
        t.name.startswith(("coradical", "cotensor")) for t in wl.tasks
    ) > 0


def test_library_returning_a_wrong_answer_is_a_failure(tmp_path, monkeypatch):
    wl, _ = harness.set_up("decide", 1, str(tmp_path))
    tasks = [t for t in wl.tasks if t.name.startswith("coseparable")]
    small = Workload("decide", tasks, wl.warm_up)
    assert _one_pass(small).failures == []
    co = sys.modules["coalgkit.cohomology"]
    monkeypatch.setattr(co, "is_coseparable", lambda c: None)
    failures = _one_pass(small).failures
    assert [name for name, _ in failures] == [
        t.name for t in tasks if t.name != "coseparable divided_power(4)"
    ]


def test_wrong_cohomology_dimension_is_a_failure(tmp_path, monkeypatch):
    wl, _ = harness.set_up("rebased-cohomology", 2, str(tmp_path))
    tasks = [t for t in wl.tasks if "Coker" in t.name]
    small = Workload("rebased-cohomology", tasks, wl.warm_up)
    assert _one_pass(small).failures == []
    co = sys.modules["coalgkit.cohomology"]
    real = co.cohomology

    def off_by_one(c, l, degree):
        res = real(c, l, degree)
        return type(res)(res.degree, res.dim + 1, res.representatives)

    monkeypatch.setattr(co, "cohomology", off_by_one)
    assert len(_one_pass(small).failures) == len(tasks)


def test_timeout_and_exception_count_as_failures():
    def spin():
        while True:
            pass

    def boom():
        raise ValueError("no")

    wl = Workload(
        "synthetic",
        [Task("spin", spin, lambda a: None, 0.2), Task("boom", boom, lambda a: None, 5.0)],
        lambda: None,
    )
    p = harness.run_pass(wl, time.perf_counter() + 60)
    assert [name for name, _ in p.failures] == ["spin", "boom"]
    assert "timed out" in p.failures[0][1]


# -- the second routes ---------------------------------------------------------------


def test_path_counts_and_basis_match_the_library():
    from coalgkit.quiver import cycle_quiver, enumerate_paths, kronecker_quiver

    for q in (cycle_quiver(3), kronecker_quiver()):
        basis = enumerate_paths(q, 4)
        ours = checks.path_basis(q.n_vertices, q.arrows, 4)
        assert [(p.arrows, p.source, p.target) for p in basis.paths] == ours
        assert sum(checks.path_counts(q.n_vertices, q.arrows, 4)) == len(ours)


def test_iso_check_rejects_a_perturbed_isomorphism():
    from coalgkit.exactlin import Matrix
    from coalgkit.quiver import oracle_compare, parse_quiver, vertex_coalgebra, arrow_bicomodule
    from coalgkit.cotensor import build_truncated

    q = parse_quiver("vertex a\nvertex b\narrow x: a -> a\narrow y: a -> b\n")
    t = build_truncated(vertex_coalgebra(q), arrow_bicomodule(q), 3)
    iso = oracle_compare(q, 3)
    paths = checks.path_basis(q.n_vertices, q.arrows, 3)
    assert checks.path_coalgebra_iso_ok(t.total.delta, t.total.epsilon, iso, q.arrows, paths)
    assert checks.rank_mod_p(iso) == iso.rows
    bent = iso + Matrix(iso.rows, iso.cols, {(iso.rows - 1, 0): 1})
    assert not checks.path_coalgebra_iso_ok(t.total.delta, t.total.epsilon, bent, q.arrows, paths)


def test_identity_holds_with_tensor_factors():
    from coalgkit.coalgebra import divided_power
    from coalgkit.exactlin import Matrix

    c = divided_power(2)
    eye = Matrix.identity(c.dim)
    assert checks.identity_holds([(c.delta, eye), c.delta], [(eye, c.delta), c.delta])
    assert checks.identity_holds([(c.epsilon, eye), c.delta], "id")
    assert not checks.identity_holds([(eye, eye), c.delta], [c.delta.scale(2)])
