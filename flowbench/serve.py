"""The ``service-replay`` workload: an in-process FloorplanService.

Two closed-loop clients (each sends its next request when the previous
one is done) drive a service with two job slots.

* Cold phase: every request of the pool once, in pool order.  Each one
  misses the cache, so it forks a worker, runs the flow, writes the cache
  and appends to the journal.
* Warm phase: the same requests replayed in an order drawn from the seed,
  35 requests per second of ``--seconds``.  Every one hits the cache, is
  re-certified, and the solver does no work.

The pool: the four library mini-C kernels x {rotate, freeze} (compiled by
``hls`` on the worker) and pre-mapped synthetic designs of the B1 and B4
rows at benchgen spec seeds 0-7 and 0-1.
"""

from __future__ import annotations

import asyncio
import random
import resource
import shutil
import time
from dataclasses import replace

from repro.aging.mttf import compute_mttf
from repro.aging.stress import compute_stress_map
from repro.arch.fabric import Fabric
from repro.benchgen.suite import entry
from repro.benchgen.synth import build_benchmark
from repro.core.flow import FlowConfig
from repro.errors import AdmissionError
from repro.io.serialize import (
    design_from_dict, design_to_dict, floorplan_from_dict,
)
from repro.service.cache import ArtifactCache
from repro.service.jobs import DONE, Job, JobStore
from repro.service.request import FloorplanRequest
from repro.service.service import FloorplanService, ServiceConfig
from repro.service.worker import comparable_view, materialize
from repro.thermal.hotspot import ThermalSimulator
from repro.timing.graph import build_timing_graphs
from repro.timing.sta import analyze

from common import (
    SETUP_REPEATS, SPEC_SEED, TIME_LIMIT_S, Recorder, check_artifact,
    format_reasons, fresh_import, geomean, median, p90, peak_rss_mb,
    stop_reasons, timed,
)

KERNELS = ("fir8", "matvec4", "checksum", "sobel3")
MODES = ("rotate", "freeze")
#: (Table I row, benchgen spec seeds) of the pre-mapped requests.
SYNTHETIC = (("B1", range(SPEC_SEED, SPEC_SEED + 8)),
             ("B4", range(SPEC_SEED, SPEC_SEED + 2)))
CLIENTS = 2
CONCURRENCY = 2
#: Warm requests per second of --seconds.  A fixed count keeps the job
#: table, and so peak RSS, the same size whatever the host's speed.  On two
#: shared cores the warm phase takes about 0.8 x --seconds when the host is
#: slow and 0.4 x when it is not.
WARM_PER_SECOND = 35
#: Fewest warm requests a run makes, so hit_p90_ms has ten samples above it.
MIN_WARM = 120


def make_pool(seed: int):
    """``(requests, benchgen seconds)``; tenants are drawn from ``seed``."""
    rng = random.Random(seed)
    tenants = [f"tenant-{rng.randrange(1000)}" for _ in range(CLIENTS)]
    pool, build_s = [], 0.0
    for kernel in KERNELS:
        for mode in MODES:
            pool.append(FloorplanRequest(
                kernel=kernel, fabric="4x4", mode=mode,
                time_limit_s=TIME_LIMIT_S, labels={"name": f"{kernel}-{mode}"},
            ))
    for row, spec_seeds in SYNTHETIC:
        for spec_seed in spec_seeds:
            (design, fabric), seconds = timed(
                build_benchmark, entry(row).spec(spec_seed))
            build_s += seconds
            pool.append(FloorplanRequest(
                design=design_to_dict(design),
                fabric=f"{fabric.rows}x{fabric.cols}", mode="rotate",
                time_limit_s=TIME_LIMIT_S,
                labels={"name": f"{row}s{spec_seed}"},
            ))
    pool = [
        replace(request, tenant=tenants[i % CLIENTS])
        for i, request in enumerate(pool)
    ]
    return pool, build_s


def _service(state_dir):
    return FloorplanService(ServiceConfig(
        state_dir=state_dir, concurrency=CONCURRENCY,
    ))


async def _drive(service, requests):
    """Closed-loop clients sharing ``requests``; per-request records."""
    queue = iter(requests)
    records = []
    began = time.perf_counter()

    async def client(index: int):
        for request in queue:
            record = {"request": request, "client": index, "job": None,
                      "shed": False, "start": time.perf_counter()}
            records.append(record)
            try:
                record["job"] = await service.run(request, timeout=300.0)
            except AdmissionError:
                record["shed"] = True
            record["end"] = time.perf_counter()

    await asyncio.gather(*(client(i) for i in range(CLIENTS)))
    return records, time.perf_counter() - began


def _replay_order(pool, seed: int, count: int):
    """``count`` requests: seeded permutations of the pool, back to back."""
    rng = random.Random(seed)
    order = []
    while len(order) < count:
        order.extend(rng.sample(pool, len(pool)))
    return order[:count]


def _check(records, first_served: dict, failures: list) -> None:
    """Jobs must finish; a served artifact must equal the first one served
    for its key; a first-served artifact must pass check_artifact."""
    for record in records:
        request, job = record["request"], record["job"]
        name = request.labels["name"]
        if record["shed"]:
            failures.append(f"{name}: shed at admission")
            continue
        if job is None or job.status != DONE:
            error = job.error if job is not None else "no job"
            failures.append(f"{name}: job {getattr(job, 'status', '?')}: {error}")
            continue
        key = request.cache_key()
        if key not in first_served:
            first_served[key] = job.document
            problems, record["certify_s"] = check_artifact(job.document)
            failures.extend(f"{name}: {p}" for p in problems)
        # Equal documents have equal comparable views; only a document
        # that differs needs the (slower) comparison without wall times.
        elif job.document != first_served[key] and (
            comparable_view(job.document)
            != comparable_view(first_served[key])
        ):
            failures.append(f"{name}: served artifact differs from the first")


def _print_jobs(records, phase: str) -> None:
    print(f"{'request':16} {'phase':5} {'latency_s':>9} {'worker_s':>8} "
          f"{'hit':3} {'mttf_x':>7} {'degradation':11} stops")
    for record in records:
        job = record["job"]
        name = record["request"].labels["name"]
        latency = record["end"] - record["start"]
        if job is None or job.document is None:
            print(f"{name:16} {phase:5} {latency:9.4f} FAILED")
            continue
        s = job.document["summary"]
        print(f"{name:16} {phase:5} {latency:9.4f} {job.wall_s:8.3f} "
              f"{'y' if job.cache_hit else 'n':3} {s['mttf_increase']:7.3f} "
              f"{s['degradation']:11} "
              f"{format_reasons(stop_reasons(job.document))}")


def _print_warm(records) -> None:
    """One row per request name: count, cache hits and latency p50."""
    by_name: dict = {}
    for record in records:
        by_name.setdefault(record["request"].labels["name"], []).append(record)
    print(f"{'request':16} {'phase':5} {'count':>5} {'hits':>5} {'p50_ms':>8}")
    for name, group in by_name.items():
        hits = sum(1 for r in group if r["job"] and r["job"].cache_hit)
        p50 = 1e3 * median(r["end"] - r["start"] for r in group)
        print(f"{name:16} {'warm':5} {len(group):5d} {hits:5d} {p50:8.3f}")


async def _setup(seed: int, work):
    """One timed set-up: imports, request pool, service start and close."""
    began = time.perf_counter()
    fresh_import()
    pool, build_s = make_pool(seed)
    state = work / "setup-state"
    service = _service(state)
    await service.start()
    await service.close()
    elapsed = time.perf_counter() - began
    shutil.rmtree(state, ignore_errors=True)
    return elapsed, pool, build_s


async def _cold(pool, state):
    service = _service(state)
    await service.start()
    records, wall = await _drive(service, pool)
    return service, records, wall


async def _run(seed, seconds, trace, work):
    setup_s = []
    for _ in range(SETUP_REPEATS):
        elapsed, pool, build_s = await _setup(seed, work)
        setup_s.append(elapsed)

    untraced_cold = None
    if trace:
        # Same cold phase without recording, for the tracing overhead.
        service, _, untraced_cold = await _cold(pool, work / "untraced-state")
        await service.close()

    service, cold, cold_wall = await _cold(pool, work / "state")
    _print_jobs(cold, "cold")
    warm_count = max(MIN_WARM, round(seconds * WARM_PER_SECOND))
    warm, warm_wall = await _drive(
        service, _replay_order(pool, seed, warm_count))
    await service.close()
    _print_warm(warm)

    failures: list[str] = []
    first_served: dict = {}
    _check(cold, first_served, failures)
    _check(warm, first_served, failures)
    attempted = len(cold) + len(warm)
    cold_done = [r for r in cold if r["job"] is not None and r["job"].document]
    hits = [r for r in warm if r["job"] is not None and r["job"].cache_hit]
    print(f"cold {len(cold)} jobs in {cold_wall:.3f} s; "
          f"warm {len(warm)} jobs in {warm_wall:.3f} s")

    if trace:
        metrics = _layer_metrics(service, cold, warm, cold_wall,
                                 untraced_cold, build_s, work, seed)
        return attempted, failures, metrics

    all_done = [r for r in cold + warm if r["job"] is not None]
    degradations = [r["job"].summary["degradation"]
                    for r in all_done if r["job"].summary]
    metrics = {
        "suite_s": cold_wall,
        "flow_s_geomean": geomean(r["job"].wall_s for r in cold_done),
        "mttf_gain_geomean": geomean(
            r["job"].summary["mttf_increase"] for r in cold_done),
        "clean_share": (sum(1 for d in degradations if d == "none")
                        / attempted),
        "setup_s": median(setup_s),
        "cold_jobs_per_s": len(cold) / cold_wall,
        "miss_p50_s": median(r["end"] - r["start"] for r in cold),
        "warm_jobs_per_s": len(warm) / warm_wall,
        "hit_p50_ms": 1e3 * median(r["end"] - r["start"] for r in hits),
        "hit_p90_ms": 1e3 * p90(r["end"] - r["start"] for r in hits),
    }
    return attempted, failures, metrics


def _layer_metrics(service, cold, warm, cold_wall, untraced_cold, build_s,
                   work, seed):
    """Per-job spans plus direct timed calls into each layer."""
    rec = Recorder()
    for phase, records in (("cold", cold), ("warm", warm)):
        for record in records:
            job = record["job"]
            rec.add(
                f"service.job.{phase}", record["start"], record["end"],
                subject=job.job_id if job else None,
                request=record["request"].labels["name"],
                client=record["client"], shed=record["shed"],
                status=job.status if job else None,
                cache_hit=job.cache_hit if job else None,
                coalesced=job.coalesced if job else None,
                attempts=job.attempts if job else None,
                worker_s=job.wall_s if job else None,
            )
    jobs = [r["job"] for r in cold + warm if r["job"] is not None]
    cold_jobs = [r for r in cold if r["job"] is not None]

    config = FlowConfig()
    calls: dict[str, list[float]] = {}

    def call(name, fn, *args):
        result, seconds = timed(fn, *args)
        calls.setdefault(name, []).append(seconds)
        return result

    scratch_cache = ArtifactCache(work / "direct-cache")
    scratch_store = JobStore(work / "direct-jobs.jsonl")
    for record in cold_jobs:
        request, job = record["request"], record["job"]
        key = request.cache_key()
        call("cache_fetch", service.cache.fetch, key)
        call("cache_put", scratch_cache.put, key, job.document)
        call("journal", scratch_store.record_accepted, Job("direct", request))
        if "certify_s" in record:
            calls.setdefault("certify", []).append(record["certify_s"])
        if request.kernel is not None:
            call("hls", materialize, request)
        document = job.document
        design = design_from_dict(document["design"])
        floorplan = floorplan_from_dict(document["remapped_floorplan"])
        rows, cols = (int(x) for x in document["summary"]["fabric"].split("x"))
        graphs = call("graphs", build_timing_graphs, design)
        call("analyze", analyze, design, floorplan, graphs)
        stress = call("stress", compute_stress_map, design, floorplan)
        thermal = call(
            "thermal", lambda: ThermalSimulator(
                Fabric(rows, cols), grid_config=config.thermal_grid,
                power_model=config.power,
            ).simulate(stress.duty_per_context()))
        call("mttf", compute_mttf, stress, thermal.accumulated_k, config.nbti)

    hits = sum(1 for job in jobs if job.cache_hit)
    latencies = [r["end"] - r["start"] - r["job"].wall_s for r in cold_jobs]
    metrics = {
        "timing.analyze_ms": 1e3 * median(calls.get("analyze", [])),
        "timing.graphs_ms": 1e3 * median(calls.get("graphs", [])),
        "aging.stress_ms": 1e3 * median(calls.get("stress", [])),
        "aging.mttf_ms": 1e3 * median(calls.get("mttf", [])),
        "thermal.simulate_ms": 1e3 * median(calls.get("thermal", [])),
        "verify.certify_artifact_ms": 1e3 * median(calls.get("certify", [])),
        "service.hits": hits,
        "service.misses": len(jobs) - hits,
        "service.coalesced": sum(1 for job in jobs if job.coalesced),
        "service.retries": sum(max(0, job.attempts - 1) for job in jobs),
        "service.shed": sum(1 for r in cold + warm if r["shed"]),
        "service.hit_ratio": hits / max(1, len(jobs)),
        "service.worker_s": sum(r["job"].wall_s for r in cold_jobs),
        "service.miss_overhead_s": median(latencies),
        "service.cache_fetch_ms": 1e3 * median(calls.get("cache_fetch", [])),
        "service.cache_put_ms": 1e3 * median(calls.get("cache_put", [])),
        "service.journal_append_ms": 1e3 * median(calls.get("journal", [])),
        "service.worker_peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
        "hls.compile_s": sum(calls.get("hls", [])),
        "benchgen.build_s": build_s,
        "trace.overhead_s": cold_wall - untraced_cold,
        "trace.untraced_s": untraced_cold,
        "trace.traced_s": cold_wall,
    }
    rec.write(work.parent / f"trace-service-replay-seed{seed}.jsonl")
    return metrics


def run(workload, seed, seconds, trace, work):
    return asyncio.run(_run(seed, seconds, trace, work))
