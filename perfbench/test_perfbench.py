"""Tests of the benchmark itself:  python3 -m pytest -q perfbench

They run every workload at a tiny size, so they take seconds, not minutes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys

import harness
import pytest
from tracing import LAYERS, TARGETS, Tracer
from workloads import CATALOG, ZETA3, Workload

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
NO_REFERENCE = {"seed": -1, "sha256": {}}

TINY = {
    w.name: w
    for w in (
        Workload("tree-value", "tiny", (
            ("value", dict(family="trees", kind="value", n_grid=(10, 20, 30),
                           trials=2)),), chunk_seconds=0.05),
        Workload("tree-repair", "tiny", (
            ("patch", dict(family="trees", kind="patch", n=30, r=5, trials=2)),
            ("dual", dict(family="trees", kind="dual", n=30, budget=ZETA3, r=2,
                          trials=2)),
            ("split", dict(family="trees", kind="split", n=30, r=5, s=0.1,
                           trials=2)),
        ), chunk_seconds=0.05),
        Workload("matching-dual", "tiny", (
            ("dual", dict(family="matchings", kind="dual", n=12, budget=1.0, r=3,
                          trials=2)),), chunk_seconds=0.05),
    )
}


@pytest.fixture(scope="module")
def mods():
    return harness.load_program()


def run_main(workload, seed=3, trace=0, reference=NO_REFERENCE):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.2",
            "--trace", str(trace)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert harness.main(argv, catalog=TINY, reference=reference,
                            setup_reps=1) == 0
    lines = buf.getvalue().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_benchmark_json_lists_the_catalog():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in CATALOG.values()]
    assert list(TINY) == list(CATALOG)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_timed_run_prints_every_end_to_end_metric(workload):
    report, result = run_main(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    text = "\n".join(report)
    for name, unit in [*wanted.items(), ("failed_frac", "1")]:
        assert any(line.split()[:1] == [name] and line.split()[2] == unit
                   and "(" in line for line in report), name
    assert "manifest " in text and "invariants only" in text


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_run_prints_every_layer_metric(workload):
    report, result = run_main(workload, trace=1)
    assert result["correct"], report
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert any("traced records equal untraced records" in line for line in report)


def test_layer_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        _, result = run_main("tree-repair", trace=1)
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if k.endswith(".calls")})
    assert counts[0] == counts[1]
    assert counts[0]["families.WeightAssignment.total.calls"] > 0


def test_reference_fingerprint_matches_and_perturbed_one_fails(mods):
    outcomes = harness.run_chunk(mods, TINY["tree-repair"], 5, 0)
    digests = {o.label: o.digest for o in outcomes}
    reference = {"seed": 5, "sha256": {"tree-repair": digests}}
    report, result = run_main("tree-repair", seed=5, reference=reference)
    assert result["correct"]
    assert any("matches the reference" in line for line in report)
    digests["dual"] = digests["dual"][::-1]
    report, result = run_main("tree-repair", seed=5, reference=reference)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert any("MISMATCH" in line for line in report)


def wrapped_callables(mods) -> list:
    found = []
    for _, module, path in TARGETS:
        obj = mods[module]
        for part in path.split("."):
            obj = getattr(obj, part)
        found.append(obj)
    return found


def test_tracer_changes_no_records_and_restores_originals(mods):
    workload = TINY["tree-repair"]
    restore = harness.use_families(mods, harness.build_families(mods, workload))
    before = wrapped_callables(mods)
    tracer = Tracer(mods)
    try:
        plain = harness.run_chunk(mods, workload, 11, 0)
        tracer.install()
        try:
            assert wrapped_callables(mods) != before
            traced = harness.run_chunk(mods, workload, 11, 0)
        finally:
            tracer.uninstall()
    finally:
        restore()
    assert [o.digest for o in plain] == [o.digest for o in traced]
    assert wrapped_callables(mods) == before
    layers = tracer.layer_metrics()
    assert {k.rsplit(".", 1)[0] for k in layers} == set(LAYERS)
    assert layers["rngs.stream.calls"]["value"] == sum(o.trials for o in traced)


def test_committed_reference_matches_this_checkout(mods):
    reference = json.loads(harness.REFERENCE.read_text())
    for name, workload in CATALOG.items():
        families = harness.build_families(mods, workload)
        restore = harness.use_families(mods, families)
        try:
            outcomes = harness.run_chunk(mods, workload, reference["seed"], 0)
        finally:
            restore()
        assert {o.label: o.digest for o in outcomes} == reference["sha256"][name]
        assert sum(harness.violations(o) for o in outcomes) == 0


def test_violated_invariant_counts_as_failed(mods):
    outcome = harness.run_chunk(mods, TINY["matching-dual"], 3, 0)[0]
    assert harness.violations(outcome) == 0
    rec = outcome.records[0]
    flipped = rec.defect + 100 if rec.near_value <= 1.0 else 0
    outcome.records[0] = dataclasses.replace(rec, defect=flipped)
    assert harness.violations(outcome) == 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(harness.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "tree-value",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
