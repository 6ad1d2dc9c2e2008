"""Tests of the benchmark itself: span arithmetic, tracer lifetime, failure accounting.

    python3 -m pytest -q bench
"""

import inspect
import sys
from argparse import Namespace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import gpdbench  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Ledger  # noqa: E402


class TinyLoop(workloads.OptimizerLoop):
    specs_text = (workloads.M3_DECEPTIVE, workloads.M5_ROBUST_BAND)
    front_resolutions = (6, 3)
    population = 12
    generations = 4
    igd_every = 2
    min_generations = 1
    trace_passes = 2


class TinyBulk(workloads.BulkScoring):
    batch_rows = 40
    perturb_samples = 200
    csv_rows = 30
    search_budget = 300
    min_passes = 1


class TinyReference(workloads.ReferenceSuite):
    instances = ((workloads.M2_DECEPTIVE, 50, 50, 1e-9),
                 (workloads.M3_DECEPTIVE, 6, 36, 1e-9),
                 (workloads.M5_ROBUST_BAND, 3, 20, None))


def library_bindings():
    return {(name, attr): value
            for name, module in sys.modules.items()
            if module is not None and name.split(".")[0] == "gpdbench"
            for attr, value in vars(module).items() if inspect.isfunction(value)}


def run_once(cls, tmp_path, passes=1):
    ledger = Ledger()
    workload = cls(7, tmp_path / cls.name)
    workload.setup()
    workload.run(ledger, passes=passes)
    workload.verify(ledger)
    return ledger


def test_self_time_subtracts_direct_children():
    spans = [
        ["a", 0.0, 10.0, -1, 1, None],
        ["b", 1.0, 4.0, 0, 1, None],
        ["c", 2.0, 3.0, 1, 1, None],
        ["b", 5.0, 6.0, 0, 1, None],
        ["a", 7.0, 8.0, 0, 1, None],  # recursion: a call, but not extra busy time
    ]
    table = tracing.layer_table(spans)
    assert table["a"] == {"calls": 2, "busy_s": 10.0, "self_s": (10.0 - 3.0 - 1.0 - 1.0) + 1.0}
    assert table["b"] == {"calls": 2, "busy_s": 4.0, "self_s": 2.0 + 1.0}
    assert table["c"] == {"calls": 1, "busy_s": 1.0, "self_s": 1.0}


def test_layer_metrics_ratios_counts_and_unreached_layers():
    spans = [
        ["evaluator.evaluate_batch", 0.0, 4.0, -1, 1, {"rows": 10, "rows_rejected": 1}],
        ["position.meta_variables", 1.0, 2.0, 0, 1, None],
        ["reference.dominance_mask", 5.0, 6.0, -1, 2, {"points_in": 8, "points_kept": 2}],
        ["reference.dominance_mask", 6.0, 7.0, -1, 3, {"points_in": 2, "points_kept": 2}],
    ]
    m = tracing.layer_metrics(spans)
    assert m["evaluator.kernel_share"] == 0.25
    assert m["evaluator.evaluate_batch.rows"] == 10
    assert m["evaluator.evaluate_batch.rows_rejected"] == 1
    assert m["reference.dominance_mask.calls"] == 2
    assert m["reference.dominance_mask.kept_frac"] == 0.4
    assert m["reference.perturb_experiment.busy_s"] == 0.0
    assert set(run.PER_LAYER) - {"package.import_s", "trace.overhead_frac"} <= set(m)


def test_traced_run_restores_functions_and_keeps_digest(tmp_path, monkeypatch):
    before = library_bindings()
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", TinyLoop)
    args = Namespace(workload="tiny", seed=3)
    ledger, metrics, _, report, spans = run.run_traced(args, workloads, Ledger, 0.5)
    assert library_bindings() == before
    assert ledger.failed == {}
    assert report["untraced_digest"] == ledger.digest
    names = [span[0] for span in spans]
    assert "spec.parse_spec" in names
    assert "gpdbench.evaluate_batch" not in names
    # cross-module nesting: the filter is a child of the front sampler in set-up
    front = names.index("reference.front_sample")
    assert any(s[0] == "reference.dominance_mask" and s[3] == front for s in spans)
    assert metrics["evaluator.evaluate_batch.calls"][0] == 2 * 4 * 2
    assert metrics["package.import_s"] == (0.5, "s")


def test_untraced_run_installs_nothing(tmp_path):
    before = library_bindings()
    assert run_once(TinyLoop, tmp_path).failed == {}
    assert library_bindings() == before


@pytest.mark.parametrize("cls", [TinyBulk, TinyReference])
def test_small_workloads_pass_their_checks(cls, tmp_path):
    ledger = run_once(cls, tmp_path)
    assert ledger.ops > 0 and ledger.failed == {}


def test_forced_oracle_failure_counts_as_failed_operation(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "oracle_mask", lambda pts: pts[:, 0] >= 0.0)
    ledger = run_once(TinyLoop, tmp_path)
    assert len(ledger.failed) == len(TinyLoop.specs_text)
    assert all("oracle" in msg for msg in ledger.failed.values())


def test_forced_cli_output_defect_counts_as_failed_operation(tmp_path, monkeypatch):
    # Six digits no longer round-trip, so cli eval stops matching the library.
    monkeypatch.setattr(gpdbench.cli, "_fmt", lambda v: format(float(v), ".6g"))
    ledger = run_once(TinyBulk, tmp_path)
    assert any("cli eval CSV" in msg for msg in ledger.failed.values())
    assert 0 < len(ledger.failed) < ledger.ops
