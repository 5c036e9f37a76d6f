"""Self-test of the benchmark on tiny shapes (a few seconds on two cores).

    python3 -m pytest -q perfbench/selftest.py

Runs each workload's op path once, untraced and traced, and checks the
result's names, units and schema against BENCHMARK.json; checks the exact
per-cell call counts the traced run reports; and shows that a failing op,
a quality deviation or a faulty saved latent or render is counted as failed
cells without aborting the run.
"""
from __future__ import annotations

import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

import run

run._import_program()

from latent_elevator import harness  # noqa: E402
from workloads import VARIANTS, WORKLOADS, output_digests, run_op  # noqa: E402

STEPS = 6
TINY = {"shape": [4, 4, 8, 8],
        "plan": {"num_steps": STEPS, "num_refine_steps": 2, "n_sdedit": 2}}
SPEC = run.load_spec()


def _check_result(result: dict, spec_metrics: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] == (result["failed"] == 0)
    expected = {m["name"]: m["unit"] for m in spec_metrics}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"} and math.isfinite(m["value"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_end_to_end_schema(name):
    record = run.measure(name, seed=0, seconds=0, trace=0, overrides=TINY, reference=None,
                         setup_repeats=2)
    assert len(record["details"]["setup_s_probes"]) == 2
    _check_result(run.result_line(record, trace=0), SPEC["end_to_end"])
    w = WORKLOADS[name]
    # one single-seed warm-up op, then one timed op
    assert record["details"]["attempted"] == len(VARIANTS[w.mode]) + w.cells_per_op()
    if w.check:
        assert set(record["details"]["check_margins"]) == {
            "same_noise_minus_ddim", "ddim_minus_random_noise", "separation_minus_0.02"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_per_layer_schema_and_counts(name):
    record = run.measure(name, seed=0, seconds=0, trace=1, overrides=TINY, reference=None)
    _check_result(run.result_line(record, trace=1), SPEC["per_layer"])
    m = record["metrics"]
    if name == "baseline_t2v":
        assert m["attention.first_only_cross_frame.calls"] == 0
        assert m["denoiser.predict_eps.calls"] == STEPS
    else:
        assert m["attention.first_only_cross_frame.calls"] == STEPS
        assert m["attention.first_only_cross_frame.logits_bytes"] == 4 * 64 * 64 * 8
        assert m["elevate.elevate_spatial.nfe"] == STEPS
    if WORKLOADS[name].jobs > 1:
        assert m["harness.run.pool_wait_s"] > 0 and m["harness.run.scaling_efficiency"] > 0


def test_failing_op_is_counted_and_run_continues():
    w = WORKLOADS["elevate"]
    bad = w.config([0], dict(TINY, plan=dict(TINY["plan"], inversion="bogus")))
    ops = run.run_ops([bad, w.config([1], TINY)], run.OUT, None)
    summary = run.summarize(ops)
    assert summary["ops"] == 2
    assert (summary["attempted"], summary["failed"], summary["failed_frac"]) == (2, 1, 0.5)
    assert "inversion" in summary["errors"][0]


def _reference_for(config: dict) -> dict:
    """A reference recorded from the unchanged program for one-cell ``config``."""
    run.OUT.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(dir=run.OUT))
    try:
        row = harness.run(config, out)["runs"][0]
        cell = dict(metrics=row["metrics"], **output_digests(row, out))
    finally:
        shutil.rmtree(out)
    return {"cells": {config["mode"]: {row["variant"]: {str(row["seed"]): cell}}}}


def test_quality_deviation_fails_the_cell():
    config = WORKLOADS["baseline_t2v"].config([0], TINY)
    reference = _reference_for(config)
    assert run_op(config, run.OUT, reference).failed == 0
    reference["cells"]["baseline_t2v"]["baseline_t2v"]["0"]["metrics"]["spatial_detail"] *= 1 + 1e-6
    deviating = run_op(config, run.OUT, reference)
    assert deviating.failed == 1 and "metrics deviate" in deviating.errors[0]
    missing = run_op(config, run.OUT, {"cells": {}})
    assert missing.failed == 1 and "no reference" in missing.errors[0]


def _reverse_frames(save):
    return lambda v, path, *a, **k: save(np.ascontiguousarray(v[::-1]), path, *a, **k)


@pytest.mark.parametrize("target", ["save_latent", "render_frames"])
def test_faulty_output_fails_the_cell(target, monkeypatch):
    """Saved data that no MetricReport sees: frames written in reverse order."""
    config = WORKLOADS["elevate"].config([0], TINY)
    reference = _reference_for(config)
    assert run_op(config, run.OUT, reference).failed == 0
    monkeypatch.setattr(harness, target, _reverse_frames(getattr(harness, target)))
    faulty = run_op(config, run.OUT, reference)
    kind = "latent" if target == "save_latent" else "renders"
    assert faulty.failed == 1 and f"{kind} digest deviates" in faulty.errors[0]
