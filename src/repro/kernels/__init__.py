"""Vectorized evaluation kernels (structure-of-arrays hot paths).

PR 4 made the MILP side cheap; the remaining per-iteration cost of
Algorithm 1 is pure-Python *evaluation*: STA arrival propagation, stress
map assembly, thermal grid solves, and the row-by-row certification
audit.  This package holds numpy structure-of-arrays kernels for those
four stages, each paired with a cached *lowering* (CSR-style index
arrays derived once per structure, the same pattern as
:class:`repro.milp.model.CompiledModel`).

Bit-identity contract
---------------------
Every kernel must produce outputs **bit-identical** to the scalar code
path it replaces.  The kernels therefore restrict themselves to
reductions whose float semantics do not depend on evaluation order
(``max`` is exact) or whose order provably matches the scalar loop
(``np.add.at`` applies updates sequentially in index order; scipy's CSR
mat-vec accumulates each row sequentially in storage order).  The
equivalence suite in ``tests/kernels`` fuzzes both modes against each
other on random :mod:`repro.benchgen` designs.

Mode knob
---------
``REPRO_KERNELS=vector`` (default) enables the kernels;
``REPRO_KERNELS=scalar`` falls back to the original per-element Python
loops, which stay in place as the executable specification.  Tests can
override the mode for a scope with :func:`kernels_scope` (contextvar
based, so code running in another context is unaffected).

Observability
-------------
Every kernel call observes its wall time on a
``kernels.<name>.seconds`` histogram, and each lowering cache counts
``kernels.<name>.lowerings`` / ``kernels.<name>.cache_hits`` — the raw
material for the evaluation-stage breakdown in ``repro trace
summarize`` and ``repro explain``.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

from repro.errors import KernelConfigError
from repro.obs import counter, current_span, histogram

#: Environment variable selecting the kernel mode.
KERNELS_ENV = "REPRO_KERNELS"

#: Recognised kernel modes.
KERNEL_MODES = ("vector", "scalar")

_override: ContextVar[str | None] = ContextVar("repro_kernels_mode", default=None)


def kernels_mode() -> str:
    """The active kernel mode: a scope override, else ``$REPRO_KERNELS``."""
    mode = _override.get()
    if mode is None:
        mode = os.environ.get(KERNELS_ENV, "vector").strip().lower() or "vector"
    if mode not in KERNEL_MODES:
        raise KernelConfigError(
            f"unknown kernel mode {mode!r} (expected one of {KERNEL_MODES}; "
            f"set via {KERNELS_ENV} or kernels_scope)"
        )
    return mode


def vectorized() -> bool:
    """True when the vectorized kernels are active."""
    return kernels_mode() == "vector"


@contextmanager
def kernels_scope(mode: str) -> Iterator[None]:
    """Force a kernel mode within a scope (tests, equivalence sweeps)."""
    if mode not in KERNEL_MODES:
        raise KernelConfigError(
            f"unknown kernel mode {mode!r} (expected one of {KERNEL_MODES})"
        )
    token = _override.set(mode)
    try:
        yield
    finally:
        _override.reset(token)


class kernel_timer:
    """Observe one kernel invocation on ``kernels.<name>.seconds``.

    Also stamps the enclosing span (``sta``, ``stress``, ``thermal``,
    ``certify``, ...) with ``kernels="vector"`` so traces show which
    evaluation stages ran vectorized.  A hand-rolled context manager
    (not ``@contextmanager``) because it sits on paths hot enough for
    generator frame overhead to register in the stage timings it exists
    to measure.
    """

    __slots__ = ("_metric", "_start")

    def __init__(self, name: str) -> None:
        self._metric = f"kernels.{name}.seconds"

    def __enter__(self) -> None:
        sp = current_span()
        if sp is not None:
            sp.set(kernels="vector")
        self._start = time.perf_counter()

    def __exit__(self, *exc_info) -> None:
        histogram(self._metric).observe(time.perf_counter() - self._start)


def note_lowering(name: str, hit: bool) -> None:
    """Count one lowering-cache lookup for kernel ``name``."""
    if hit:
        counter(f"kernels.{name}.cache_hits").inc()
    else:
        counter(f"kernels.{name}.lowerings").inc()


__all__ = [
    "KERNELS_ENV",
    "KERNEL_MODES",
    "kernel_timer",
    "kernels_mode",
    "kernels_scope",
    "note_lowering",
    "vectorized",
]
