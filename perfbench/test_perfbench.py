"""Tests of the benchmark itself, at a tiny configuration.

Run with ``PYTHONPATH=src python3 -m pytest perfbench -q`` from the
repository root.
"""

from __future__ import annotations

import copy
import os

import pytest

import run

run.pin_environment(run.WORK_DIR / "pytest")

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.config import ExperimentConfig  # noqa: E402
from repro.experiments.fig9_local_search import fig9_spec  # noqa: E402

TINY = fig9_spec(
    ExperimentConfig(
        margins=(1.0, 2.0), solver=workloads.BENCH_SOLVER, demand_model="bimodal", seed=0
    ),
    demand_model="bimodal",
)
LOCAL_SEARCH = workloads.WORKLOADS["local-search"]


@pytest.fixture(scope="module")
def traced_passes(tmp_path_factory):
    """Two traced passes of a two-cell, two-worker local-search sweep."""
    root = tmp_path_factory.mktemp("perfbench")
    try:
        return [
            workloads.sweep_pass(TINY, root / f"pass-{index}", spans.TRACE, jobs=2)
            for index in range(2)
        ]
    finally:
        spans.uninstall()


def test_counters_repeat_exactly_across_traced_runs(traced_passes):
    first, second = (run.layer_metrics(LOCAL_SEARCH, outcome) for outcome in traced_passes)
    counters = {name: value for name, (value, unit) in first.items() if unit == "count"}
    assert counters == {
        name: value for name, (value, unit) in second.items() if unit == "count"
    }
    # Algorithm 1 only runs inside the pool workers, so these calls
    # prove that worker spans are shipped back.
    assert counters["kernel.delta.moves"] > 0
    assert counters["core.local_search.rounds"] > 0
    assert any(trace["pid"] != os.getpid() for trace in traced_passes[0].traces)
    assert first["trace.attributed_frac"][0] >= 0.9


def test_worker_cpu_is_counted(traced_passes):
    for outcome in traced_passes:
        assert outcome.cpu_s >= run.CPU_FLOOR * outcome.solve_s
        assert outcome.resume_solved == 0


def test_perturbed_reference_makes_failures(traced_passes):
    outcome = traced_passes[0]
    reference = copy.deepcopy(outcome.rows)
    assert run.failed_operations(LOCAL_SEARCH, outcome, reference) == {}

    better = copy.deepcopy(reference)
    better["abilene/m=2"]["COYOTE"] *= 0.99  # the reference now beats the program
    failures = run.failed_operations(LOCAL_SEARCH, outcome, better)
    assert list(failures) == ["abilene/m=2"]

    worse = copy.deepcopy(reference)
    worse["abilene/m=2"]["COYOTE"] *= 1.01  # a better optimum than the reference passes
    assert run.failed_operations(LOCAL_SEARCH, outcome, worse) == {}


def test_whatif_checks_are_two_sided_and_pin_base_at_margin_one():
    rows = {"geant/m=1": {"ECMP": 1.2, "Base": 1.0, "robust": []}}
    assert checks.check_rows("whatif", rows, copy.deepcopy(rows)) == []
    for factor in (0.99, 1.01):
        shifted = copy.deepcopy(rows)
        shifted["geant/m=1"]["ECMP"] *= factor
        problems = checks.check_rows("whatif", rows, shifted)
        assert [problem[:2] for problem in problems] == [("geant/m=1", "ECMP")]
    off = {"geant/m=1": {"ECMP": 1.2, "Base": 1.1, "robust": []}}
    assert ("geant/m=1", "Base") in [p[:2] for p in checks.check_rows("whatif", off, off)]


def test_trace_rebinds_name_imports_and_uninstalls():
    import repro.core.robust as robust
    import repro.core.softmax_opt as softmax_opt
    import repro.experiments.fig9_local_search as fig9

    original = softmax_opt.optimize_splitting_softmax
    spans.install(spans.TRACE)
    try:
        assert robust.optimize_splitting_softmax is softmax_opt.optimize_splitting_softmax
        assert robust.optimize_splitting_softmax.__perfbench_original__ is original
        assert fig9.optimize_robust_splitting.__perfbench_original__ is not None
    finally:
        spans.uninstall()
    assert robust.optimize_splitting_softmax is original
    assert not hasattr(fig9.optimize_robust_splitting, "__perfbench_original__")
