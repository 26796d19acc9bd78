"""The service's request model and content-addressed work keys.

A :class:`FloorplanRequest` names one unit of floorplanning work exactly
the way the one-shot CLI does (``repro flow <kernel> --fabric RxC --mode
... --time-limit ...``), so a request executed by the service is
*bit-identical* to the same request run through ``repro flow`` — the
property the artifact cache and the soak tests lean on.

The **cache key** is a SHA-256 over the canonical JSON of every field
that determines the result: the design content (a mapped-design document,
or the kernel name + source that compiles into one), the fabric, the
re-mapping mode and the solver's ST/time parameters.  Tenant identity and
the per-request deadline are deliberately excluded — they shape *when*
and *whether* work runs, not what the answer is — except that a request
carrying its own deadline budget is keyed separately (a deadline can
degrade the result, and a degraded artifact must never be served to an
unbounded request).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Any

from repro.errors import ServiceError

#: Modes Algorithm 1 accepts; anything else is rejected at validation.
VALID_MODES = ("freeze", "rotate")

#: Hard ceiling on serialized request size (bytes of canonical JSON);
#: protects the HTTP intake from absurd payloads before any work starts.
MAX_REQUEST_BYTES = 4 * 1024 * 1024


def canonical_json(document: Any) -> str:
    """The one canonical JSON rendering used for hashing and checksums.

    Compact separators + sorted keys: two semantically equal documents
    always hash identically, regardless of who serialized them.
    """
    return json.dumps(
        document, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def content_hash(document: Any) -> str:
    """SHA-256 hex digest of a document's canonical JSON."""
    return hashlib.sha256(canonical_json(document).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class FloorplanRequest:
    """One floorplanning job, as submitted by a client.

    Exactly one of ``kernel``/``source`` (mini-C compiled on the worker,
    like ``repro flow``) or ``design`` (a pre-mapped ``mapped_design``
    document, like ``repro remap``) describes the work.  ``kernel`` also
    names the artifact when ``source`` is given.
    """

    kernel: str | None = None
    source: str | None = None
    design: dict | None = None
    fabric: str = "4x4"
    mode: str = "rotate"
    time_limit_s: float = 30.0
    #: Per-request wall-clock budget (None = the service default applies).
    deadline_s: float | None = None
    tenant: str = "default"
    #: Free-form client annotations; never part of the cache key.
    labels: dict = field(default_factory=dict)

    # -- validation -----------------------------------------------------------
    def validate(self) -> None:
        """Reject malformed requests with a typed :class:`ServiceError`."""
        if self.design is None and self.kernel is None and self.source is None:
            raise ServiceError(
                "request needs a design document, a kernel name, or source"
            )
        if self.design is not None and (self.source is not None):
            raise ServiceError("request cannot carry both a design and source")
        if self.design is not None and not isinstance(self.design, dict):
            raise ServiceError(
                "request 'design' must be a JSON object, got "
                f"{type(self.design).__name__}"
            )
        if self.design is not None and self.design.get("kind") != "mapped_design":
            raise ServiceError(
                "request 'design' must be a mapped_design document, got "
                f"kind={self.design.get('kind')!r}"
            )
        if self.source is not None and self.kernel is None:
            raise ServiceError("a source request needs 'kernel' as its name")
        if self.mode not in VALID_MODES:
            raise ServiceError(
                f"unknown mode {self.mode!r}; expected one of {VALID_MODES}"
            )
        rows_cols = self.fabric.lower().split("x")
        if len(rows_cols) != 2 or not all(p.isdigit() for p in rows_cols):
            raise ServiceError(
                f"invalid fabric {self.fabric!r}; expected e.g. 4x4"
            )
        if int(rows_cols[0]) < 1 or int(rows_cols[1]) < 1:
            raise ServiceError(f"fabric {self.fabric!r} has no PEs")
        if not (math.isfinite(self.time_limit_s) and self.time_limit_s > 0):
            raise ServiceError(
                f"time_limit_s must be finite and > 0, got {self.time_limit_s}"
            )
        if self.deadline_s is not None and not (
            math.isfinite(self.deadline_s) and self.deadline_s > 0
        ):
            raise ServiceError(
                "deadline_s must be finite and > 0 when given, got "
                f"{self.deadline_s}"
            )
        if not self.tenant or not isinstance(self.tenant, str):
            raise ServiceError(f"invalid tenant {self.tenant!r}")
        size = len(canonical_json(self.to_dict()))
        if size > MAX_REQUEST_BYTES:
            raise ServiceError(
                f"request is {size} bytes; limit is {MAX_REQUEST_BYTES}"
            )

    # -- identity -------------------------------------------------------------
    def design_hash(self) -> str:
        """Content hash of the work's *input design* (document or source)."""
        if self.design is not None:
            return content_hash(self.design)
        return content_hash({"kernel": self.kernel, "source": self.source})

    def cache_key(self) -> str:
        """Content-addressed key of the result this request computes.

        Keyed on (design hash, fabric, mode, ST/solver parameters) per
        the service contract; a bounded request keys separately so a
        deadline-degraded artifact can never satisfy an unbounded one.
        """
        return content_hash({
            "design": self.design_hash(),
            "fabric": self.fabric.lower(),
            "mode": self.mode,
            "time_limit_s": self.time_limit_s,
            "deadline_s": self.deadline_s,
        })

    # -- wire format ----------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready encoding (journal records, HTTP bodies)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FloorplanRequest":
        """Decode and validate a request document."""
        if not isinstance(data, dict):
            raise ServiceError(f"request must be a JSON object, got {data!r}")
        unknown = set(data) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ServiceError(
                f"unknown request field(s): {', '.join(sorted(unknown))}"
            )
        try:
            request = cls(
                kernel=data.get("kernel"),
                source=data.get("source"),
                design=data.get("design"),
                fabric=str(data.get("fabric", "4x4")),
                mode=str(data.get("mode", "rotate")),
                time_limit_s=float(data.get("time_limit_s", 30.0)),
                deadline_s=(
                    float(data["deadline_s"])
                    if data.get("deadline_s") is not None
                    else None
                ),
                tenant=str(data.get("tenant", "default")),
                labels=dict(data.get("labels") or {}),
            )
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"malformed request: {exc}") from exc
        request.validate()
        return request
