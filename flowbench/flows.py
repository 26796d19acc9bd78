"""The two flow workloads: closed loop, one design at a time.

``table1-default`` runs Table I designs through ``AgingAwareFlow.run`` with
the default (wirelength) objective; ``eq3-feasibility`` runs the same flow
with the paper's feasibility-only Eq. 3 objective (``objective="null"``).

Untraced, a run floorplans every design once per pass, in seeded order,
for as many whole passes as come nearest to ``--seconds`` (at least one),
and after each solve serves repeat requests for the produced artifacts
through the public ``ArtifactCache``.  Traced, a run makes one untraced
pass and one traced pass in which ``AgingAwareFlow.run`` is broken into
the public calls it makes, and checks that both passes agree on MTTF, CPD
and floorplans.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, replace

from repro.aging.mttf import compute_mttf, mttf_increase
from repro.aging.stress import compute_stress_map
from repro.arch.checks import check_design_fits
from repro.benchgen.suite import entry
from repro.benchgen.synth import build_benchmark
from repro.core.algorithm1 import Algorithm1Config, run_algorithm1
from repro.core.flow import (
    AgingAwareFlow, FloorplanEvaluation, FlowConfig, FlowResult,
)
from repro.core.remap import RemapConfig
from repro.io.serialize import flow_summary_to_dict
from repro.place.baseline import place_baseline
from repro.service.cache import ArtifactCache
from repro.service.request import content_hash
from repro.service.worker import comparable_view
from repro.thermal.hotspot import ThermalSimulator
from repro.timing.graph import build_timing_graphs
from repro.timing.sta import analyze

from common import (
    MAX_FABRIC, MAX_ITERATIONS, SETUP_REPEATS, SPEC_SEED, TIME_LIMIT_S,
    Recorder, TimedBackend, check_artifact, format_reasons, fresh_import,
    geomean, median, milp_metrics, p90, stop_reasons, timed,
)

#: workload -> (objective, Table I rows).  B19 (about 18 s, gap-limit stop)
#: is left out of table1-default to keep one pass inside a run.
WORKLOADS = {
    "table1-default": ("wirelength", ("B1", "B4", "B10", "B5")),
    "eq3-feasibility": ("null", ("B10", "B19", "B2", "B5", "B14")),
}

#: Time spent serving repeat requests after each solve, as a share of the
#: solve's wall time.  Samples then fall across the whole run in proportion
#: to time, so a run's hit latency reflects the same stretch of host load
#: as its solve times rather than a few short bursts.
REPEAT_SHARE = 0.25
#: Fewest repeat requests an artifact gets right after its solve, so one
#: solved late in a run still has a median of its own.
MIN_REPEATS = 20


@dataclass
class Design:
    """One generated input: a Table I row's design and fabric."""

    name: str
    design: object
    fabric: object
    build_s: float


def make_inputs(workload: str, seed: int) -> list[Design]:
    """The workload's designs, in an order drawn from ``seed``."""
    names = list(WORKLOADS[workload][1])
    random.Random(seed).shuffle(names)
    inputs = []
    for name in names:
        spec = entry(name).scaled(MAX_FABRIC).spec(SPEC_SEED)
        (design, fabric), seconds = timed(build_benchmark, spec)
        inputs.append(Design(name, design, fabric, seconds))
    return inputs


def make_flow(workload: str):
    objective = WORKLOADS[workload][0]
    return AgingAwareFlow(FlowConfig(algorithm1=Algorithm1Config(
        mode="rotate",
        max_iterations=MAX_ITERATIONS,
        remap=RemapConfig(time_limit_s=TIME_LIMIT_S, objective=objective),
    )))


# -- one design -----------------------------------------------------------------


def _evaluate(flow, item: Design, floorplan, rec: Recorder):
    """``AgingAwareFlow.evaluate`` as separately timed public calls."""
    config = flow.config
    with rec.span("aging.stress", item.name):
        stress = compute_stress_map(item.design, floorplan)
    with rec.span("thermal.simulate", item.name):
        simulator = ThermalSimulator(
            item.fabric, grid_config=config.thermal_grid,
            power_model=config.power,
        )
        thermal = simulator.simulate(stress.duty_per_context())
    with rec.span("aging.mttf", item.name):
        mttf = compute_mttf(stress, thermal.accumulated_k, config.nbti)
    return FloorplanEvaluation(floorplan, stress, thermal, mttf)


def traced_flow(flow, item: Design, rec: Recorder):
    """``AgingAwareFlow.run`` broken into the public calls it makes.

    Same calls, same order, same fallback rule: place_baseline, evaluate,
    run_algorithm1 (solves wrapped by :class:`TimedBackend`), evaluate the
    re-mapped floorplan, keep the original when MTTF would drop.
    """
    config = flow.config
    check_design_fits(item.design, item.fabric)
    with rec.span("flow", item.name) as flow_span:
        with rec.span("place.baseline", item.name):
            floorplan = place_baseline(item.design, item.fabric, config.placer)
        original = _evaluate(flow, item, floorplan, rec)
        backend = TimedBackend(
            config.algorithm1.remap.make_backend(), rec, item.name
        )
        with rec.span("core.algorithm1", item.name):
            remap = run_algorithm1(
                item.design, item.fabric, original.floorplan,
                config=config.algorithm1, original_stress=original.stress,
                backend=backend,
            )
        if remap.fell_back and remap.floorplan is original.floorplan:
            remapped = original
        else:
            remapped = _evaluate(flow, item, remap.floorplan, rec)
        increase = mttf_increase(original.mttf, remapped.mttf)
        if increase < 1.0:
            remap = replace(
                remap, floorplan=original.floorplan, fell_back=True,
                final_cpd_ns=remap.original_cpd_ns, degradation="original",
            )
            remapped, increase = original, 1.0
    return FlowResult(
        design=item.design, fabric=item.fabric, original=original,
        remapped=remapped, remap=remap, mttf_increase=increase,
        elapsed_s=flow_span["end"] - flow_span["start"],
    )


# -- passes -----------------------------------------------------------------------


@dataclass
class Outcome:
    """One design's result in one pass."""

    name: str
    wall_s: float
    result: object = None
    document: dict | None = None
    problems: tuple = ()
    certify_s: float = 0.0


def run_pass(flow, inputs, repeats, rec: Recorder | None = None):
    """Floorplan every design once; ``(outcomes, pass wall seconds)``.

    The wall time sums the flow runs only, not the checks and repeats.
    """
    outcomes = []
    for item in inputs:
        began = time.perf_counter()
        try:
            if rec is None:
                result = flow.run(item.design, item.fabric)
            else:
                result = traced_flow(flow, item, rec)
        except Exception as exc:  # a failed operation, counted below
            outcomes.append(Outcome(
                item.name, time.perf_counter() - began,
                problems=(f"raised {type(exc).__name__}: {exc}",),
            ))
            continue
        wall = time.perf_counter() - began
        document = flow_summary_to_dict(result)
        problems, certify_s = check_artifact(document)
        # Untraced passes keep only the document, so memory stays flat
        # however many passes fit in a run.
        outcome = Outcome(
            item.name, wall, result if rec is not None else None, document,
            tuple(problems), certify_s,
        )
        outcomes.append(outcome)
        repeats.serve(outcome)
    return outcomes, sum(outcome.wall_s for outcome in outcomes)


def same_outcome(first: Outcome, second: Outcome) -> list[str]:
    """MTTF, CPDs and both floorplans must match exactly."""
    fields = ("mttf_increase", "original_cpd_ns", "final_cpd_ns")
    a, b = first.document, second.document
    problems = [
        f"{field} differs: {a['summary'][field]!r} vs {b['summary'][field]!r}"
        for field in fields if a["summary"][field] != b["summary"][field]
    ]
    for key in ("original_floorplan", "remapped_floorplan"):
        if a[key] != b[key]:
            problems.append(f"{key} differs")
    return problems


class Repeats:
    """Repeat requests for produced artifacts, through ArtifactCache.

    After each solve the design's artifact is stored (first time only).
    Then every artifact stored so far is fetched, round robin, for
    :data:`REPEAT_SHARE` of the solve's wall time, and the new one is
    fetched again until it has :data:`MIN_REPEATS` samples.  Round robin
    spreads each artifact's samples over every later window of the run.
    Latencies are kept per artifact: the designs differ several-fold in
    fetch cost, so a median over the pooled samples would fall on the
    boundary between two designs and jump with the mix.
    """

    def __init__(self, cache_dir) -> None:
        self.cache = ArtifactCache(cache_dir)
        self.expected: dict = {}
        self.latencies: dict[str, list[float]] = {}
        self.put_s: list[float] = []
        self.failures: list[str] = []
        self.hits = 0

    def serve(self, outcome: Outcome) -> None:
        if outcome.document is None:
            return
        key = content_hash(outcome.document["design"])
        if key not in self.expected:
            self.expected[key] = (outcome.name, outcome.document)
            self.latencies[key] = []
            self.put_s.append(timed(self.cache.put, key, outcome.document)[1])
        until = time.perf_counter() + REPEAT_SHARE * outcome.wall_s
        while True:
            for stored, (name, expected) in self.expected.items():
                self._fetch(stored, name, expected)
            if time.perf_counter() >= until:
                break
        while len(self.latencies[key]) < MIN_REPEATS:
            self._fetch(key, *self.expected[key])

    def _fetch(self, key: str, name: str, expected: dict) -> None:
        payload, seconds = timed(self.cache.fetch, key)
        self.latencies[key].append(seconds)
        if payload is None:
            self.failures.append(f"{name}: cache miss on a stored artifact")
        elif payload != expected and (
            comparable_view(payload) != comparable_view(expected)
        ):
            self.failures.append(f"{name}: served artifact differs")
        else:
            self.hits += 1

    @property
    def count(self) -> int:
        return sum(len(samples) for samples in self.latencies.values())

    def p50_ms(self) -> float:
        """Geometric mean over artifacts of each one's median latency."""
        return 1e3 * geomean(median(s) for s in self.latencies.values())

    def p90_ms(self) -> float:
        """:meth:`p50_ms` times the tail ratio of the pooled samples.

        The tail ratio is the 90th percentile of every sample divided by
        its own artifact's median.  An artifact solved late in a run has
        too few samples for a p90 of its own; pooled ratios have ten or
        more beyond their p90 and do not mix designs of different cost.
        """
        medians = {key: median(s) for key, s in self.latencies.items()}
        ratios = [x / medians[key]
                  for key, s in self.latencies.items() for x in s]
        return self.p50_ms() * p90(ratios)


# -- reports ----------------------------------------------------------------------


def print_rows(outcomes, label: str) -> None:
    print(f"{'design':8} {'pass':8} {'wall_s':>8} {'mttf_x':>7} "
          f"{'cpd_orig':>9} {'cpd_final':>9} {'degradation':11} "
          f"{'iters':>5}  stops")
    for outcome in outcomes:
        if outcome.document is None:
            print(f"{outcome.name:8} {label:8} {outcome.wall_s:8.3f} FAILED "
                  f"{'; '.join(outcome.problems)}")
            continue
        s = outcome.document["summary"]
        print(f"{outcome.name:8} {label:8} {outcome.wall_s:8.3f} "
              f"{s['mttf_increase']:7.3f} {s['original_cpd_ns']:9.4f} "
              f"{s['final_cpd_ns']:9.4f} {s['degradation']:11} "
              f"{s['iterations']:5d}  "
              f"{format_reasons(stop_reasons(outcome.document))}")


def run(workload: str, seed: int, seconds: float, trace: bool, work):
    """Run one flow workload; returns ``(attempted, failures, metrics)``."""
    setup_s = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        fresh_import()
        inputs = make_inputs(workload, seed)
        flow = make_flow(workload)
        setup_s.append(time.perf_counter() - began)

    if trace:
        return _run_traced(workload, seed, inputs, flow, work)

    repeats = Repeats(work / "cache")
    passes = []
    started = time.perf_counter()
    while True:
        outcomes, wall = run_pass(flow, inputs, repeats)
        passes.append((outcomes, wall))
        print_rows(outcomes, f"pass{len(passes)}")
        # End as near --seconds as whole passes allow: stop once another
        # pass, repeats and checks included, would overshoot by more than
        # stopping now falls short.
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(passes) / 2 > seconds:
            break
    first = passes[0][0]
    all_outcomes = [o for outcomes, _ in passes for o in outcomes]
    failures = [_failure(o) for o in all_outcomes if o.problems]
    failures += repeats.failures
    per_design = {}
    for outcome in all_outcomes:
        per_design.setdefault(outcome.name, []).append(outcome.wall_s)
    done = [o for o in first if o.document is not None]
    suite = median(w for _, w in passes)
    metrics = {
        "suite_s": suite,
        "flow_s_geomean": geomean(median(ws) for ws in per_design.values()),
        "mttf_gain_geomean": geomean(
            o.document["summary"]["mttf_increase"] for o in done),
        "clean_share": _clean_share(all_outcomes),
        "setup_s": median(setup_s),
        "cold_jobs_per_s": len(inputs) / suite,
        "miss_p50_s": median(o.wall_s for o in all_outcomes),
        "warm_jobs_per_s": repeats.count / sum(
            sum(s) for s in repeats.latencies.values()),
        "hit_p50_ms": repeats.p50_ms(),
        "hit_p90_ms": repeats.p90_ms(),
    }
    attempted = len(all_outcomes) + repeats.count
    print(f"passes {len(passes)}: " + " ".join(f"{w:.3f}" for _, w in passes)
          + f" s; repeat requests {repeats.count}")
    return attempted, failures, metrics


def _failure(outcome: Outcome) -> str:
    return f"{outcome.name}: {'; '.join(outcome.problems)}"


def _clean_share(outcomes) -> float:
    done = [o for o in outcomes if o.document is not None]
    clean = sum(1 for o in done if o.document["summary"]["degradation"] == "none")
    return clean / len(outcomes) if outcomes else 0.0


def _run_traced(workload, seed, inputs, flow, work):
    repeats = Repeats(work / "cache")
    untraced, untraced_wall = run_pass(flow, inputs, repeats)
    print_rows(untraced, "untraced")
    rec = Recorder()
    traced, traced_wall = run_pass(flow, inputs, repeats, rec)
    print_rows(traced, "traced")
    failures = [_failure(o) for o in untraced + traced if o.problems]
    for first, second in zip(untraced, traced):
        if first.document is not None and second.document is not None:
            differences = same_outcome(first, second)
            if differences:
                failures.append(
                    f"{first.name}: traced run: {'; '.join(differences)}")

    graphs_s, analyze_s = [], []
    for item, outcome in zip(inputs, traced):
        if outcome.result is None:
            continue
        graphs, seconds = timed(build_timing_graphs, item.design)
        graphs_s.append(seconds)
        floorplan = outcome.result.remapped.floorplan
        analyze_s.append(timed(analyze, item.design, floorplan, graphs)[1])
    failures += repeats.failures

    alg_spans = rec.named("core.algorithm1")
    done = [o.result for o in traced if o.result is not None]
    verdicts = Counter(v for r in done for v in r.remap.alg1.verdicts)
    metrics = {
        **milp_metrics(rec),
        "core.algorithm1_s": rec.total("core.algorithm1"),
        "core.algorithm1_self_s": sum(rec.self_time(s) for s in alg_spans),
        "core.iterations": sum(r.remap.iterations for r in done),
        "core.accept_ratio": (verdicts["accepted"] / sum(verdicts.values())
                              if verdicts else 0.0),
        "core.bisection_steps": sum(r.remap.alg1.bisection_steps for r in done),
        "place.baseline_s": rec.total("place.baseline"),
        "timing.analyze_ms": 1e3 * median(analyze_s),
        "timing.graphs_ms": 1e3 * median(graphs_s),
        "aging.stress_ms": 1e3 * median(rec.durations("aging.stress")),
        "aging.mttf_ms": 1e3 * median(rec.durations("aging.mttf")),
        "thermal.simulate_ms": 1e3 * median(rec.durations("thermal.simulate")),
        "verify.certify_artifact_ms": 1e3 * median(
            o.certify_s for o in traced if o.document is not None),
        "service.hits": repeats.hits,
        "service.hit_ratio": repeats.hits / max(1, repeats.count),
        "service.cache_fetch_ms": repeats.p50_ms(),
        "service.cache_put_ms": 1e3 * median(repeats.put_s),
        "benchgen.build_s": sum(item.build_s for item in inputs),
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.untraced_s": untraced_wall,
        "trace.traced_s": traced_wall,
    }
    _print_self_times(rec)
    rec.write(work.parent / f"trace-{workload}-seed{seed}.jsonl")
    attempted = len(untraced) + len(traced) + repeats.count
    return attempted, failures, metrics


def _print_self_times(rec: Recorder) -> None:
    """Per-design breakdown of the traced pass: total and self seconds."""
    rows: dict = {}
    for span in rec.spans:
        key = (span["subject"], span["name"])
        total, own, count = rows.get(key, (0.0, 0.0, 0))
        rows[key] = (total + span["end"] - span["start"],
                     own + rec.self_time(span), count + 1)
    print(f"{'design':8} {'span':18} {'count':>5} {'total_s':>9} {'self_s':>9}")
    for (subject, name), (total, own, count) in rows.items():
        print(f"{subject:8} {name:18} {count:5d} {total:9.4f} {own:9.4f}")
