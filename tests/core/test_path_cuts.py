"""Lazy violated-path rows: Algorithm 1 cuts CPD violations into the model.

B10 (4x4, spec seed 0) is the reference case: its first feasible-only
candidate violates the CPD through two unmonitored paths, which become
Eq. (5) rows of the live model, and the re-solve at the same ST_target is
accepted and certified.
"""

from __future__ import annotations

import random

import pytest

import repro.core.algorithm1 as algorithm1
from repro.benchgen.suite import entry
from repro.benchgen.synth import build_benchmark
from repro.core import Algorithm1Config, run_algorithm1
from repro.core.algorithm1 import CPD_EPS, _cut_violated_paths
from repro.core.remap import build_remap_model, default_candidates
from repro.core.rotation import FrozenPlan
from repro.milp.scipy_backend import ScipyBackend
from repro.place import place_baseline
from repro.timing import analyze, build_timing_graphs
from repro.timing.kpaths import enumerate_context_paths


class RecordingBackend(ScipyBackend):
    """HiGHS backend that remembers every integer model it solved."""

    def __init__(self):
        super().__init__(time_limit=60.0)
        self.solved = []  # (model name, lazy path rows' op chains)

    def solve(self, model, **options):
        lazy = [
            tuple(meta.tags["ops"]) for meta in model.row_metadata()
            if meta.tags.get("lazy")
        ]
        self.solved.append((model.name, options, lazy))
        return super().solve(model, **options)


@pytest.fixture(scope="module")
def b10():
    design, fabric = build_benchmark(entry("B10").scaled(8).spec(0))
    return design, fabric, place_baseline(design, fabric)


def _path_rows(model):
    return [
        meta for meta in model.row_metadata()
        if meta.tags.get("family") == "path"
    ]


class TestCutRound:
    @pytest.fixture(scope="class")
    def run(self, b10):
        design, fabric, original = b10
        backend = RecordingBackend()
        result = run_algorithm1(
            design, fabric, original, Algorithm1Config(), backend=backend
        )
        return result, backend

    def test_violation_is_cut_and_resolved_at_same_target(self, run):
        result, _backend = run
        first, second = result.stats["iterations"]
        assert first["result"] == "cpd_violation"
        assert first["rows_added"] > 0
        assert second["st_target_ns"] == first["st_target_ns"]
        assert second["result"] == "accepted"
        assert second["rows_added"] == 0

    def test_resolve_sees_lazy_rows(self, run):
        result, backend = run
        rows = result.stats["iterations"][0]["rows_added"]
        lazy_counts = [
            len(lazy) for name, options, lazy in backend.solved
            if name == "remap"
        ]
        assert lazy_counts[0] == 0
        assert lazy_counts[-1] == rows

    def test_integer_solves_are_feasibility_only(self, run):
        result, backend = run
        remap_ilps = [
            options for name, options, _lazy in backend.solved
            if name == "remap"
        ]
        assert remap_ilps
        assert all(options.get("feasibility_only") for options in remap_ilps)
        accepted = result.stats["iterations"][-1]
        assert accepted["ilp_stats"]["feasibility_only"] is True
        assert "feasibility_only" not in accepted["lp_stats"]
        assert accepted["ilp_stats"]["limit_reason"] == ""

    def test_accepted_certified_and_cpd_preserved(self, run, b10):
        result, _backend = run
        design, _fabric, _original = b10
        assert result.certified is True
        assert result.degradation == "none"
        assert not result.fell_back
        report = analyze(design, result.floorplan)
        assert report.cpd_ns <= result.original_cpd_ns + CPD_EPS

    def test_stats_count_the_cut_round(self, run):
        result, _backend = run
        alg1 = result.alg1
        rows = result.stats["iterations"][0]["rows_added"]
        assert alg1.cut_rounds == 1
        assert alg1.cut_rows == rows
        assert alg1.rows_added == [rows, 0]
        assert alg1.relaxations == 0
        data = result.stats["algorithm1"]
        assert data["cut_rounds"] == 1
        assert data["cut_rows"] == rows

    def test_explain_records_rows_added(self, run):
        result, _backend = run
        (explained,) = result.stats["explanations"]
        assert explained["cause"] == "cpd_violation"
        assert explained["rows_added"] == result.alg1.cut_rows


class TestNoNewRowRelaxes:
    def test_relaxes_when_no_row_can_be_added(self, b10, monkeypatch):
        design, fabric, original = b10
        monkeypatch.setattr(
            algorithm1, "_cut_violated_paths", lambda *args, **kwargs: 0
        )
        result = run_algorithm1(design, fabric, original, Algorithm1Config())
        first, second = result.stats["iterations"][:2]
        assert first["result"] == "cpd_violation"
        assert first["rows_added"] == 0
        assert second["st_target_ns"] == pytest.approx(
            first["st_target_ns"] + result.alg1.delta_ns
        )
        assert result.alg1.cut_rounds == 0
        assert result.alg1.relaxations >= 1


@pytest.fixture
def violating_candidate(b10):
    """A scrambled B10 floorplan whose CPD exceeds the original's."""
    design, fabric, original = b10
    graphs = build_timing_graphs(design)
    cpd_orig = analyze(design, original, graphs).cpd_ns
    # Scatter each context's ops over random free PEs (slots stay
    # exclusive); the first seed that stretches a path past the CPD wins.
    for seed in range(20):
        rng = random.Random(seed)
        bindings = {}
        for context in range(design.num_contexts):
            ops = sorted(
                op for op in original.pe_of
                if design.ops[op].context == context
            )
            pes = rng.sample(range(fabric.num_pes), len(ops))
            bindings.update(zip(ops, pes))
        candidate = original.with_bindings(bindings)
        report = analyze(design, candidate, graphs)
        if report.cpd_ns > cpd_orig + CPD_EPS:
            break
    assert report.cpd_ns > cpd_orig + CPD_EPS
    return design, fabric, original, candidate, graphs, report, cpd_orig


def _fresh_model(design, fabric, original, frozen, cpd_orig):
    candidates = default_candidates(design, original, frozen, fabric, None)
    model, variables, _stats = build_remap_model(
        design, fabric, frozen, candidates, [], cpd_orig, 1e9,
        objective="null",
    )
    return model, variables


class TestCutHelper:
    def test_duplicates_add_no_rows(self, violating_candidate):
        design, fabric, original, candidate, graphs, report, cpd_orig = (
            violating_candidate
        )
        frozen = FrozenPlan(positions={}, orientation_of_context={})
        model, variables = _fresh_model(
            design, fabric, original, frozen, cpd_orig
        )
        monitored = []
        args = (
            design, fabric, frozen, candidate, report, graphs, variables,
            monitored,
        )
        added = _cut_violated_paths(*args, cpd_orig, 2000)
        assert added > 0
        assert len(monitored) == added
        lazy = [meta for meta in _path_rows(model) if meta.tags.get("lazy")]
        assert len(lazy) == added
        assert len({meta.name for meta in lazy}) == added
        for mp in monitored:
            assert mp.delay_ns > cpd_orig + CPD_EPS
        # The same candidate again: every violating path is in the model.
        rows_before = model.num_constraints
        assert _cut_violated_paths(*args, cpd_orig, 2000) == 0
        assert model.num_constraints == rows_before

    def test_cap_keeps_longest_paths(self, violating_candidate):
        design, fabric, original, candidate, graphs, report, cpd_orig = (
            violating_candidate
        )
        frozen = FrozenPlan(positions={}, orientation_of_context={})
        _model, variables = _fresh_model(
            design, fabric, original, frozen, cpd_orig
        )
        monitored = []
        added = _cut_violated_paths(
            design, fabric, frozen, candidate, report, graphs, variables,
            monitored, cpd_orig, 1,
        )
        assert added == 1
        (cut,) = monitored
        context_paths, _ = enumerate_context_paths(
            graphs[cut.path.context], candidate,
            threshold_ns=cpd_orig + CPD_EPS,
            context_cpd_ns=report.per_context[cut.path.context].cpd_ns,
            max_paths=2000,
        )
        assert cut.delay_ns == max(mp.delay_ns for mp in context_paths)

    def test_all_frozen_paths_add_no_rows(self, violating_candidate):
        design, fabric, original, candidate, graphs, report, cpd_orig = (
            violating_candidate
        )
        # Every op pinned where the candidate put it: the violating paths
        # run between fixed endpoints and no ST_target can repair them.
        frozen = FrozenPlan(
            positions=dict(candidate.pe_of), orientation_of_context={}
        )
        model, variables = _fresh_model(
            design, fabric, original, frozen, cpd_orig
        )
        monitored = []
        added = _cut_violated_paths(
            design, fabric, frozen, candidate, report, graphs, variables,
            monitored, cpd_orig, 2000,
        )
        assert added == 0
        assert not _path_rows(model)


class TestColdRebuildCarriesCuts:
    def test_cold_rebuild_contains_cut_rows(self, b10, monkeypatch):
        import repro.verify.certifier as certifier
        from repro.verify.certifier import Certificate, Violation

        design, fabric, original = b10
        real = certifier.certify_remap
        models = []

        def failing_once(*args, **kwargs):
            models.append(kwargs.get("model"))
            if len(models) == 1:
                cert = Certificate()
                cert.violations.append(Violation(
                    kind="row_infeasible", subject="row[0]",
                    detail="injected certification failure",
                ))
                return cert
            return real(*args, **kwargs)

        monkeypatch.setattr(certifier, "certify_remap", failing_once)
        result = run_algorithm1(design, fabric, original, Algorithm1Config())
        assert result.alg1.cert_cold_rebuilds == 1
        assert result.alg1.cut_rows > 0
        live, cold = models[0], models[1]
        assert cold.name == "remap_cold"
        cut_chains = {
            tuple(meta.tags["ops"]) for meta in _path_rows(live)
            if meta.tags.get("lazy")
        }
        cold_chains = {tuple(meta.tags["ops"]) for meta in _path_rows(cold)}
        assert len(cut_chains) == result.alg1.cut_rows
        assert cut_chains <= cold_chains
        assert result.certified is True


class TestCutRoundsVisible:
    """``trace summarize`` and ``repro explain`` show the cut round."""

    @pytest.fixture(scope="class")
    def trace(self, tmp_path_factory):
        from repro.cli import main

        path = tmp_path_factory.mktemp("cuts") / "b10.jsonl"
        assert main([
            "bench", "one", "B10", "--scaled", "8", "--trace", str(path),
        ]) == 0
        return path

    def test_trace_summarize_shows_cut_round(self, trace, capsys):
        from repro.cli import main

        capsys.readouterr()
        assert main(["trace", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "cut rounds" in out
        assert "cut rows" in out
        assert "[cpd_violation +" in out
        assert "rows_added=" in out  # the cpd_violation explanation

    def test_explain_report_shows_cut_round(self, trace, capsys):
        from repro.cli import main

        capsys.readouterr()
        assert main(["explain", str(trace), "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        assert "cut rounds" in out
        assert "rows added" in out
        assert "rows_added" in out
