"""Request model: validation, wire format, content-addressed keys."""

from __future__ import annotations

import pytest

from repro.errors import ServiceError
from repro.service import FloorplanRequest, canonical_json, content_hash


def make(**overrides):
    base = {"kernel": "fir8", "fabric": "4x4", "time_limit_s": 5.0}
    base.update(overrides)
    return FloorplanRequest.from_dict(base)


class TestValidation:
    def test_kernel_request_valid(self):
        request = make()
        assert request.kernel == "fir8"
        assert request.tenant == "default"

    def test_needs_some_work_description(self):
        with pytest.raises(ServiceError, match="design document"):
            FloorplanRequest.from_dict({})

    def test_design_and_source_conflict(self):
        with pytest.raises(ServiceError, match="both"):
            FloorplanRequest.from_dict({
                "design": {"kind": "mapped_design"},
                "kernel": "k", "source": "in int a; out int y; y = a;",
            })

    def test_design_must_be_mapped_design(self):
        with pytest.raises(ServiceError, match="mapped_design"):
            FloorplanRequest.from_dict({"design": {"kind": "floorplan"}})

    def test_source_needs_kernel_name(self):
        with pytest.raises(ServiceError, match="needs 'kernel'"):
            FloorplanRequest.from_dict({"source": "out int y; y = 1;"})

    @pytest.mark.parametrize("field,value,match", [
        ("mode", "shuffle", "unknown mode"),
        ("fabric", "4by4", "invalid fabric"),
        ("fabric", "0x4", "no PEs"),
        ("time_limit_s", 0, "time_limit_s"),
        ("time_limit_s", "nan", "time_limit_s"),
        ("time_limit_s", float("inf"), "time_limit_s"),
        ("deadline_s", -1.0, "deadline_s"),
        ("deadline_s", "nan", "deadline_s"),
        ("deadline_s", "inf", "deadline_s"),
        ("tenant", "", "tenant"),
        ("design", [1, 2], "JSON object"),
    ])
    def test_bad_fields_rejected(self, field, value, match):
        with pytest.raises(ServiceError, match=match):
            make(**{field: value})

    def test_unknown_fields_rejected(self):
        with pytest.raises(ServiceError, match="unknown request field"):
            FloorplanRequest.from_dict({"kernel": "fir8", "prio": 9})

    def test_non_object_rejected(self):
        with pytest.raises(ServiceError, match="JSON object"):
            FloorplanRequest.from_dict(["fir8"])

    def test_oversized_request_rejected(self):
        with pytest.raises(ServiceError, match="limit is"):
            make(source="x" * (4 * 1024 * 1024), kernel="big")


class TestWireFormat:
    def test_round_trip(self):
        request = make(tenant="team-a", labels={"run": "nightly"})
        again = FloorplanRequest.from_dict(request.to_dict())
        assert again == request

    def test_defaults_fill_in(self):
        request = FloorplanRequest.from_dict({"kernel": "fir8"})
        assert request.mode == "rotate"
        assert request.fabric == "4x4"
        assert request.time_limit_s == 30.0


class TestCacheKey:
    def test_stable_across_equal_requests(self):
        assert make().cache_key() == make().cache_key()

    def test_tenant_and_labels_do_not_key(self):
        a = make(tenant="a", labels={"x": 1})
        b = make(tenant="b", labels={"y": 2})
        assert a.cache_key() == b.cache_key()

    @pytest.mark.parametrize("overrides", [
        {"kernel": "checksum"},
        {"fabric": "8x8"},
        {"mode": "freeze"},
        {"time_limit_s": 10.0},
        {"deadline_s": 2.0},
    ])
    def test_result_shaping_fields_key(self, overrides):
        assert make().cache_key() != make(**overrides).cache_key()

    def test_deadline_keys_separately_from_unbounded(self):
        # A deadline can degrade the artifact; a degraded artifact must
        # never be served to an unbounded request.
        assert make().cache_key() != make(deadline_s=60.0).cache_key()

    def test_fabric_case_normalised(self):
        assert make(fabric="4X4").cache_key() == make(fabric="4x4").cache_key()


class TestCanonicalJson:
    def test_key_order_irrelevant(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})
        assert content_hash({"b": 1, "a": 2}) == content_hash({"a": 2, "b": 1})

    def test_compact(self):
        assert canonical_json({"a": [1, 2]}) == '{"a":[1,2]}'
