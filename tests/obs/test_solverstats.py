"""Solver convergence telemetry: SolveStats, Algorithm1Stats, progress."""

from __future__ import annotations

import io

import pytest

from repro.obs.solverstats import (
    MAX_TRAJECTORY_SAMPLES,
    Algorithm1Stats,
    SolveProgress,
    SolveStats,
    convergence_rows,
    progress_enabled,
    relative_gap,
    set_progress,
)


class TestRelativeGap:
    def test_closed_gap_is_zero(self):
        assert relative_gap(10.0, 10.0) == 0.0

    def test_open_gap(self):
        assert relative_gap(10.0, 9.0) == pytest.approx(0.1)

    def test_missing_sides_are_none(self):
        assert relative_gap(None, 1.0) is None
        assert relative_gap(1.0, None) is None
        assert relative_gap(1.0, float("inf")) is None

    def test_zero_incumbent_does_not_divide_by_zero(self):
        assert relative_gap(0.0, 1.0) == pytest.approx(1e9)


class TestSolveStats:
    def test_trajectory_stays_bounded(self):
        stats = SolveStats(backend="branch_bound")
        for i in range(4 * MAX_TRAJECTORY_SAMPLES):
            stats.sample(float(i), i, None, None)
        assert len(stats.trajectory) <= MAX_TRAJECTORY_SAMPLES
        # Thinning keeps the first sample and a sparse uniform history.
        assert stats.trajectory[0].nodes == 0
        assert stats.trajectory[-1].nodes == 4 * MAX_TRAJECTORY_SAMPLES - 1

    def test_span_attrs_contract_keys(self):
        stats = SolveStats(
            backend="highs", kind="milp", nodes=7, incumbent=3.0,
            best_bound=2.5, mip_gap=1 / 6, limit_reason="time_limit",
        )
        stats.record_fixing(
            groups_total=10, groups_fixed=8, vars_fixed=30, vars_free=6,
            threshold=0.95,
        )
        attrs = stats.span_attrs()
        assert attrs["nodes"] == 7
        assert attrs["kind"] == "milp"
        assert attrs["incumbent"] == 3.0
        assert attrs["bound"] == 2.5
        assert attrs["gap"] == pytest.approx(1 / 6)
        assert attrs["limit_reason"] == "time_limit"
        assert attrs["groups_fixed"] == 8
        assert attrs["groups_total"] == 10
        assert attrs["vars_free"] == 6

    def test_span_attrs_omits_unknowns(self):
        attrs = SolveStats(backend="highs").span_attrs()
        assert "incumbent" not in attrs
        assert "limit_reason" not in attrs
        assert "groups_total" not in attrs

    def test_to_dict_fixing_block(self):
        stats = SolveStats(backend="highs")
        assert "fixing" not in stats.to_dict()
        stats.record_fixing(4, 3, 9, 3, threshold=0.95)
        fixing = stats.to_dict()["fixing"]
        assert fixing == {
            "threshold": 0.95, "groups_total": 4, "groups_fixed": 3,
            "vars_fixed": 9, "vars_free": 3,
        }

    def test_gap_percent(self):
        assert SolveStats(mip_gap=0.25).gap_percent == 25.0
        assert SolveStats().gap_percent is None


class TestAlgorithm1Stats:
    def test_iteration_recording(self):
        alg1 = Algorithm1Stats()
        alg1.record_iteration(5.0, "infeasible")
        alg1.record_iteration(5.5, "cpd_violation")
        alg1.record_iteration(6.0, "accepted")
        assert alg1.iterations == 3
        assert alg1.relaxations == 2
        assert alg1.st_trajectory == [5.0, 5.5, 6.0]

    def test_cut_rounds_are_not_relaxations(self):
        alg1 = Algorithm1Stats()
        alg1.record_iteration(5.0, "cpd_violation", rows_added=3)
        alg1.record_iteration(5.0, "cpd_violation", rows_added=0)
        alg1.record_iteration(5.5, "cpd_violation", rows_added=2)
        alg1.record_iteration(5.5, "accepted")
        assert alg1.rows_added == [3, 0, 2, 0]
        assert alg1.cut_rounds == 2
        assert alg1.cut_rows == 5
        assert alg1.relaxations == 1  # only the round with nothing to cut
        data = alg1.to_dict()
        assert data["rows_added"] == [3, 0, 2, 0]
        assert (data["cut_rounds"], data["cut_rows"]) == (2, 5)

    def test_absorb_solve_aggregates(self):
        alg1 = Algorithm1Stats()
        alg1.absorb_solve({"nodes": 5, "mip_gap": 0.1})
        alg1.absorb_solve({"nodes": 3, "mip_gap": None})
        alg1.absorb_solve(None)  # missing stats are ignored
        assert alg1.solves == 2
        assert alg1.total_nodes == 8
        assert alg1.max_mip_gap == pytest.approx(0.1)

    def test_to_dict_round_trip_fields(self):
        alg1 = Algorithm1Stats(st_low_ns=1.0, st_up_ns=9.0, delta_ns=0.5)
        alg1.record_iteration(2.0, "accepted")
        data = alg1.to_dict()
        assert data["st_trajectory"] == [2.0]
        assert data["verdicts"] == ["accepted"]
        assert data["iterations"] == 1
        assert data["relaxations"] == 0


class TestProgress:
    def test_override_beats_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_SOLVER_PROGRESS", raising=False)
        assert not progress_enabled()
        set_progress(True)
        try:
            assert progress_enabled()
        finally:
            set_progress(None)
        monkeypatch.setenv("REPRO_SOLVER_PROGRESS", "1")
        assert progress_enabled()
        monkeypatch.setenv("REPRO_SOLVER_PROGRESS", "0")
        assert not progress_enabled()

    def test_pipe_rendering_and_throttle(self):
        buf = io.StringIO()
        progress = SolveProgress("bb m", stream=buf, interval_s=1.0)
        progress.update(0.0, 1, None, 4.0)
        progress.update(0.5, 2, 5.0, 4.0)  # throttled away
        progress.update(1.5, 3, 5.0, 4.5)
        progress.close()
        lines = buf.getvalue().splitlines()
        assert len(lines) == 2
        assert "nodes=1" in lines[0] and "inc=-" in lines[0]
        assert "nodes=3" in lines[1] and "gap=10.0%" in lines[1]


class TestConvergenceRows:
    def test_rows_from_span_records(self):
        records = [
            {
                "duration_s": 0.25,
                "attrs": {
                    "model": "eq3", "backend": "highs", "kind": "milp",
                    "status": "optimal", "nodes": 12, "incumbent": 3.0,
                    "bound": 3.0, "gap": 0.0,
                },
            },
            {"duration_s": 0.01, "attrs": {"model": "lp", "kind": "lp"}},
        ]
        rows = convergence_rows(records)
        assert rows[0] == [
            "eq3", "highs", "milp", "optimal", 12, "3", "3", "0.00", 0.25,
        ]
        assert rows[1][0] == "lp"
        assert rows[1][5] == "-"  # no incumbent
