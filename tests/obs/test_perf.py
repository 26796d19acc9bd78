"""Performance-regression harness: bench records and their comparison."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import perf
from repro.obs.perf import (
    BENCH_SCHEMA,
    CompareThresholds,
    bench_table_rows,
    compare_records,
)


def _entry(
    wall_s=1.0, mem_mb=10.0, nodes=100, mttf=2.0, cpd=True, level="none"
):
    return {
        "benchmark": "B1",
        "fabric": "4x4",
        "wall_s": wall_s,
        "peak_mem_mb": mem_mb,
        "mttf_increase": mttf,
        "cpd_preserved": cpd,
        "degradation": level,
        "stages": {},
        "solver": {"solves": 3, "nodes": nodes, "max_mip_gap": 0.0},
    }


def _record(**entries):
    return {
        "schema": 1,
        "kind": "bench_record",
        "bench_schema": BENCH_SCHEMA,
        "timestamp": "20260101T000000",
        "entries": entries,
    }


class TestCompare:
    def test_identical_records_pass(self):
        base = _record(B1=_entry())
        assert compare_records(base, base).ok

    def test_noise_below_thresholds_passes(self):
        base = _record(B1=_entry(wall_s=10.0))
        cand = _record(B1=_entry(wall_s=11.0))  # +10% < 25% allowance
        assert compare_records(base, cand).ok

    def test_wall_time_regression_detected(self):
        base = _record(B1=_entry(wall_s=10.0))
        cand = _record(B1=_entry(wall_s=20.0))
        result = compare_records(base, cand)
        assert not result.ok
        (regression,) = result.regressions
        assert regression.metric == "wall_s"
        assert regression.ratio == pytest.approx(2.0)
        assert "B1" in regression.describe()

    def test_absolute_noise_floor_suppresses_tiny_regressions(self):
        # 3x relative but only +0.2s absolute: below the 0.5s floor.
        base = _record(B1=_entry(wall_s=0.1))
        cand = _record(B1=_entry(wall_s=0.3))
        assert compare_records(base, cand).ok

    def test_memory_and_nodes_regressions(self):
        base = _record(B1=_entry(mem_mb=20.0, nodes=200))
        cand = _record(B1=_entry(mem_mb=60.0, nodes=600))
        metrics = {r.metric for r in compare_records(base, cand).regressions}
        assert metrics == {"peak_mem_mb", "solver.nodes"}

    def test_custom_thresholds(self):
        base = _record(B1=_entry(wall_s=10.0))
        cand = _record(B1=_entry(wall_s=11.5))
        tight = CompareThresholds(wall_rel=0.10, wall_abs_s=0.5)
        assert not compare_records(base, cand, tight).ok

    def test_missing_and_new_entries_warn(self):
        base = _record(B1=_entry(), B4=_entry())
        cand = _record(B1=_entry(), B9=_entry())
        result = compare_records(base, cand)
        assert result.ok  # entry drift warns, it does not fail the gate
        assert any("B4" in w and "missing" in w for w in result.warnings)
        assert any("B9" in w and "new" in w for w in result.warnings)

    def test_quality_drop_is_a_regression(self):
        base = _record(B1=_entry(mttf=2.0, cpd=True))
        cand = _record(B1=_entry(mttf=1.5, cpd=False))
        result = compare_records(base, cand)
        assert not result.ok
        by_metric = {r.metric: r for r in result.regressions}
        assert set(by_metric) == {"mttf_increase", "cpd_preserved"}
        assert by_metric["mttf_increase"].ratio == pytest.approx(0.75)
        assert "true -> false" in by_metric["cpd_preserved"].describe()

    def test_mttf_drop_within_five_percent_passes(self):
        base = _record(B1=_entry(mttf=2.0))
        assert compare_records(base, _record(B1=_entry(mttf=1.91))).ok
        assert not compare_records(base, _record(B1=_entry(mttf=1.89))).ok

    def test_mttf_rise_and_kept_cpd_pass(self):
        base = _record(B1=_entry(mttf=2.0, cpd=False))
        cand = _record(B1=_entry(mttf=3.0, cpd=True))
        assert compare_records(base, cand).ok

    def test_worse_degradation_level_is_a_regression(self):
        base = _record(B1=_entry(level="incumbent"))
        cand = _record(B1=_entry(level="greedy"))
        (regression,) = compare_records(base, cand).regressions
        assert regression.metric == "degradation"
        assert regression.describe() == "B1: degradation incumbent -> greedy"

    def test_better_degradation_level_passes(self):
        base = _record(B1=_entry(level="incumbent"))
        cand = _record(B1=_entry(level="none"))
        assert compare_records(base, cand).ok

    def test_schema_mismatch_warns(self):
        base = _record(B1=_entry())
        cand = dict(_record(B1=_entry()), bench_schema="repro.bench/999")
        assert any(
            "schema" in w for w in compare_records(base, cand).warnings
        )


class TestQualityGateCli:
    """Quality regressions follow the same ``--warn-only`` rule as time."""

    @pytest.fixture
    def degraded_pair(self, tmp_path):
        paths = []
        for name, entry in (
            ("base.json", _entry()),
            ("cand.json", _entry(mttf=1.0, level="original")),
        ):
            path = tmp_path / name
            path.write_text(json.dumps(_record(B1=entry)))
            paths.append(str(path))
        return paths

    def test_quality_regression_fails(self, degraded_pair, capsys):
        assert main(["bench", "compare", *degraded_pair]) == 3
        out = capsys.readouterr().out
        assert "REGRESSIONS" in out
        assert "B1: degradation none -> original" in out
        assert "mttf_increase" in out

    def test_warn_only_downgrades_quality_regression(self, degraded_pair):
        code = main(["bench", "compare", *degraded_pair, "--warn-only"])
        assert code == 0


class TestAggregatesAndTables:
    def test_solver_aggregates_roll_up_span_records(self):
        solves = [
            {"duration_s": 0.5, "attrs": {"kind": "milp", "nodes": 10,
                                          "gap": 0.05, "limit_reason": "time_limit"}},
            {"duration_s": 0.1, "attrs": {"kind": "lp", "nodes": 0}},
            {"duration_s": 0.4, "attrs": {"kind": "milp", "nodes": 7, "gap": 0.2}},
        ]
        agg = perf._solver_aggregates(solves)
        assert agg["solves"] == 3
        assert agg["milp_solves"] == 2
        assert agg["nodes"] == 17
        assert agg["max_mip_gap"] == pytest.approx(0.2)
        assert agg["solve_s"] == pytest.approx(1.0)
        assert agg["limit_hits"] == 1
        assert agg["limit_reasons"] == {"time_limit": 1}

    def test_limit_reasons_break_out_per_cause(self):
        solves = [
            {"duration_s": 0.1, "attrs": {"limit_reason": "time_limit"}},
            {"duration_s": 0.1, "attrs": {"limit_reason": "deadline"}},
            {"duration_s": 0.1, "attrs": {"limit_reason": "time_limit"}},
            {"duration_s": 0.1, "attrs": {}},
        ]
        agg = perf._solver_aggregates(solves)
        assert agg["limit_hits"] == 3
        assert agg["limit_reasons"] == {"time_limit": 2, "deadline": 1}

    def test_limit_hit_rise_warns_with_reason_breakdown(self):
        base = _entry()
        cand = _entry()
        cand["solver"] = dict(
            cand["solver"], limit_hits=2,
            limit_reasons={"deadline": 1, "time_limit": 1},
        )
        result = compare_records(_record(B1=base), _record(B1=cand))
        assert result.ok  # a warning, not a failing regression
        (warning,) = [w for w in result.warnings if "limit hits" in w]
        assert "0 -> 2" in warning
        assert "deadline=1, time_limit=1" in warning
        assert "no reason breakdown" in warning  # the baseline side

    def test_bench_table_rows(self):
        record = _record(B1=_entry(wall_s=1.234, mem_mb=5.6))
        (row,) = bench_table_rows(record)
        assert row[0] == "B1"
        assert row[2] == pytest.approx(1.234)
        assert row[4] == 3  # solves


class TestRunEntry:
    """One real flow measurement (smoke scale, seconds)."""

    @pytest.fixture(scope="class")
    def entry(self):
        return perf.run_entry("B1", time_limit_s=10.0, max_iterations=6)

    def test_entry_shape(self, entry):
        assert entry["benchmark"] == "B1"
        assert entry["wall_s"] > 0.0
        assert entry["peak_mem_mb"] > 0.0
        assert entry["solver"]["solves"] > 0
        assert entry["mttf_increase"] >= 1.0

    def test_stage_walltimes_present(self, entry):
        assert any(path.endswith("algorithm1") for path in entry["stages"])
        flow_total = entry["stages"]["flow"]["total_s"]
        assert 0.0 < flow_total <= entry["wall_s"]

    def test_alg1_record_attached(self, entry):
        assert entry["alg1"] is not None
        assert entry["alg1"]["iterations"] >= 1
        assert len(entry["alg1"]["verdicts"]) == entry["alg1"]["iterations"]


class TestDeterminism:
    def test_back_to_back_runs_agree_within_noise(self):
        first = perf.run_entry("B1", time_limit_s=10.0, max_iterations=6)
        second = perf.run_entry("B1", time_limit_s=10.0, max_iterations=6)
        # Scientific outputs are exactly reproducible with fixed seeds...
        assert first["mttf_increase"] == pytest.approx(second["mttf_increase"])
        assert first["solver"]["nodes"] == second["solver"]["nodes"]
        assert first["alg1"]["st_trajectory"] == second["alg1"]["st_trajectory"]
        # ...so a self-comparison never trips the regression gate.
        base = _record(B1=first)
        cand = _record(B1=second)
        assert compare_records(base, cand).ok
