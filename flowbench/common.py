"""Shared pieces of the floorplanner benchmark.

* :class:`Recorder` — the benchmark's own in-memory span recorder (name,
  start, end, parent, subject), written out as JSON lines when a traced
  run ends.  Self time is a span's duration minus the part of it that its
  children cover.
* :class:`TimedBackend` — a thin wrapper around a solver backend that puts
  one span around every ``solve`` call, annotated from the returned
  ``SolveStats``.  It is handed to ``run_algorithm1`` through its public
  ``backend=`` argument, so the program itself is not touched.
* statistics helpers, output checks, set-up timing and environment facts.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

#: Root of the checkout the benchmark runs in (the program lives in src/).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Where runs keep their scratch state and traces; removed or kept per run.
OUT_DIR = ROOT / ".flowbench"

#: Settings of `repro bench run`'s smoke profile, shared by the flow
#: workloads and the service requests.
TIME_LIMIT_S = 15.0
MAX_ITERATIONS = 10
MAX_FABRIC = 8
#: Benchgen spec seed of every synthetic design (the canonical Table I
#: instances that `repro bench run` also uses).  The workload seed orders
#: the work instead; see README.md for why it does not re-seed designs.
SPEC_SEED = 0

#: Times each set-up is repeated; setup_s is their median.
SETUP_REPEATS = 3

#: Modules a fresh interpreter imports to time start-up cost.
IMPORTS = (
    "repro.core.flow", "repro.service.service", "repro.verify.artifact",
    "repro.io.serialize", "repro.benchgen.suite",
)

#: CPD slack below which a re-mapped CPD still counts as preserved.
CPD_TOL_NS = 1e-6


# -- tracing ------------------------------------------------------------------


class Recorder:
    """In-memory span recorder owned by the benchmark."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, subject: str | None = None, **attrs):
        """Time the body as a child of the innermost open span."""
        record = self.add(
            name, time.perf_counter(), None, subject,
            parent=self._stack[-1] if self._stack else None, **attrs,
        )
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def add(self, name, start, end, subject=None, parent=None, **attrs) -> dict:
        """Record a span whose interval is already known."""
        record = {
            "id": len(self.spans), "name": name, "start": start, "end": end,
            "parent": parent, "subject": subject, "attrs": attrs,
        }
        self.spans.append(record)
        return record

    def named(self, name: str) -> list[dict]:
        return [span for span in self.spans if span["name"] == name]

    def durations(self, name: str) -> list[float]:
        return [_duration(span) for span in self.named(name)]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_time(self, span: dict) -> float:
        """Duration minus the union of the children's intervals."""
        children = sorted(
            (child["start"], child["end"]) for child in self.spans
            if child["parent"] == span["id"]
        )
        covered, reach = 0.0, span["start"]
        for start, end in children:
            start, end = max(start, reach), min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        return _duration(span) - covered

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(
                    dict(span, duration_s=_duration(span)), default=str
                ) + "\n")


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


class TimedBackend:
    """Solver backend that records one ``milp.solve`` span per solve."""

    def __init__(self, inner, recorder: Recorder, subject: str) -> None:
        self.inner = inner
        self.recorder = recorder
        self.subject = subject

    def solve(self, model, **options):
        with self.recorder.span("milp.solve", self.subject) as record:
            solution = self.inner.solve(model, **options)
        stats = solution.stats
        if stats is not None:
            record["attrs"].update(
                kind=stats.kind, nodes=stats.nodes, gap=stats.mip_gap,
                stop=stats.limit_reason,
            )
        return solution


def milp_metrics(recorder: Recorder) -> dict[str, float]:
    """The ``milp.*`` per-layer metrics from TimedBackend spans."""
    solves = recorder.named("milp.solve")
    kinds = [span["attrs"].get("kind", "milp") for span in solves]
    stops = Counter(span["attrs"].get("stop", "") for span in solves)
    gaps = [span["attrs"]["gap"] for span in solves
            if span["attrs"].get("gap") is not None]
    return {
        "milp.solve_s": sum(_duration(span) for span in solves),
        "milp.lp_s": sum(_duration(span) for span, kind in zip(solves, kinds)
                         if kind == "lp"),
        "milp.mip_s": sum(_duration(span) for span, kind in zip(solves, kinds)
                          if kind != "lp"),
        "milp.solves": len(solves),
        "milp.mip_solves": sum(1 for kind in kinds if kind != "lp"),
        "milp.nodes": sum(span["attrs"].get("nodes") or 0 for span in solves),
        "milp.gap_limit_stops": stops["gap_limit"],
        "milp.time_limit_stops": stops["time_limit"],
        "milp.max_gap": max(gaps, default=0.0),
    }


# -- statistics ---------------------------------------------------------------


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def p90(values) -> float:
    values = list(values)
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=10)[-1]


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB (Linux reports KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- output checks ------------------------------------------------------------


def check_artifact(document: dict) -> tuple[list[str], float]:
    """Problems with a ``flow_result`` document, and certification seconds.

    A result fails when its CPD rose above the original or when
    ``repro.verify.certify_artifact`` rejects it.
    """
    from repro.verify.artifact import certify_artifact

    problems = []
    summary = document["summary"]
    if summary["final_cpd_ns"] > summary["original_cpd_ns"] + CPD_TOL_NS:
        problems.append(
            f"CPD rose from {summary['original_cpd_ns']:.6f} to "
            f"{summary['final_cpd_ns']:.6f} ns"
        )
    report, seconds = timed(certify_artifact, document)
    if not report["ok"]:
        kinds = sorted({v["kind"] for v in report["certificate"]["violations"]})
        problems.append(f"certify_artifact rejected it ({', '.join(kinds)})")
    return problems, seconds


def stop_reasons(document) -> Counter:
    """Every solver ``limit_reason`` named in a flow_result record."""
    found: Counter = Counter()
    stack = [document.get("algorithm1", {})]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            reason = node.get("limit_reason")
            if isinstance(reason, str) and reason:
                found[reason] += 1
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    return found


def format_reasons(reasons: Counter) -> str:
    return ",".join(f"{k}x{n}" for k, n in sorted(reasons.items())) or "-"


# -- set-up and environment ---------------------------------------------------


def fresh_import() -> None:
    """Start a fresh interpreter that imports the flow and the service."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import " + ", ".join(IMPORTS)
    subprocess.run([sys.executable, "-c", code], check=True, env=env, cwd=ROOT)


def filesystem_of(path: Path) -> str:
    """File-system type of the mount holding ``path``."""
    path = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def environment(state_dir: Path) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "state_fs": filesystem_of(state_dir),
        "REPRO_KERNELS": os.environ.get("REPRO_KERNELS", "(unset)"),
        **{k: v for k, v in sorted(os.environ.items())
           if k.startswith("REPRO_") and k != "REPRO_KERNELS"},
    }
