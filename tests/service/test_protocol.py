"""The wire contract: strict parsing, fingerprints, response shaping."""

from __future__ import annotations

import pytest

from repro.core.objective import Objective
from repro.service import (
    PROTOCOL_VERSION,
    CanonicalRequest,
    RequestRejected,
    WorkPayload,
    error_response,
    execute_request,
    parse_request,
)
from repro.service.protocol import (
    ERROR_CODES,
    client_id,
    rejection_response,
    request_from_json,
    wants_wait,
)

from .conftest import tiny_payload


class TestParseRequest:
    def test_minimal_payload_gets_the_documented_defaults(self):
        request = parse_request(tiny_payload("n", sink_count=4, seed=9))
        assert request.net_name == "n"
        assert request.sink_count == 4
        assert request.seed == 9
        assert request.objective == Objective.legacy("buffopt")
        assert request.engine == "reference"
        assert request.prune == "timing"
        assert request.max_buffers is None
        assert request.certify is False

    def test_every_field_round_trips_through_canonical_json(self):
        request = parse_request(tiny_payload(
            "rt", mode="delay", engine="fast", max_buffers=3,
            prune="pareto", min_slack=1e-12, deadline_seconds=5.0,
            max_candidates=1000, certify=True,
        ))
        assert request_from_json(request.to_json()) == request

    @pytest.mark.parametrize("mutate", [
        lambda p: [p],                                    # not an object
        lambda p: dict(p, max_bufers=4),                  # unknown top key
        lambda p: dict(p, net=dict(p["net"], extra=1)),   # unknown net key
        lambda p: {"net": {"name": "x", "sink_count": 3}},  # missing fields
        lambda p: dict(p, net=dict(p["net"], sink_count=0)),
        lambda p: dict(p, net=dict(p["net"], sink_count=True)),
        lambda p: dict(p, net=dict(p["net"], span=-1.0)),
        lambda p: dict(p, net=dict(p["net"], span="wide")),
        lambda p: dict(p, net=dict(p["net"], name="")),
        lambda p: dict(p, mode="warp"),
        lambda p: dict(p, engine="warp"),
        lambda p: dict(p, prune="vibes"),
        lambda p: dict(p, max_buffers=0),
        lambda p: dict(p, min_slack=float("nan")),
        lambda p: dict(p, deadline_seconds=0),
        lambda p: dict(p, max_candidates=0),
        lambda p: dict(p, certify="yes"),
        lambda p: dict(p, wait="true"),
        lambda p: dict(p, id=7),
    ])
    def test_invalid_payloads_reject_as_malformed_400(self, mutate):
        with pytest.raises(RequestRejected) as caught:
            parse_request(mutate(tiny_payload("bad")))
        assert caught.value.code == "malformed"
        assert caught.value.http_status == 400

    def test_envelope_fields_are_accepted_but_not_canonical(self):
        bare = parse_request(tiny_payload("env"))
        tagged = parse_request(tiny_payload("env", id="client-1", wait=True))
        assert tagged == bare
        assert tagged.fingerprint() == bare.fingerprint()

    def test_envelope_helpers(self):
        payload = tiny_payload("env", id="client-1", wait=True)
        assert client_id(payload) == "client-1"
        assert wants_wait(payload) is True
        assert client_id(tiny_payload("env")) is None
        assert wants_wait(tiny_payload("env")) is False
        assert wants_wait("garbage") is False


class TestFingerprint:
    def test_stable_across_equal_requests(self):
        one = parse_request(tiny_payload("f", seed=3))
        two = parse_request(tiny_payload("f", seed=3))
        assert one.fingerprint() == two.fingerprint()

    @pytest.mark.parametrize("extra", [
        {"engine": "fast"},
        {"mode": "delay"},
        {"max_buffers": 2},
        {"prune": "pareto"},
        {"deadline_seconds": 1.0},
        {"max_candidates": 10},
        {"certify": True},
        {"min_slack": 1e-12},
        {"max_segment_length": None},
    ])
    def test_every_solution_affecting_field_perturbs_it(self, extra):
        base = parse_request(tiny_payload("f"))
        other = parse_request(tiny_payload("f", **extra))
        assert base.fingerprint() != other.fingerprint()

    def test_net_identity_perturbs_it(self):
        base = parse_request(tiny_payload("f", sink_count=3, seed=1))
        assert base.fingerprint() != parse_request(
            tiny_payload("g", sink_count=3, seed=1)
        ).fingerprint()
        assert base.fingerprint() != parse_request(
            tiny_payload("f", sink_count=4, seed=1)
        ).fingerprint()
        assert base.fingerprint() != parse_request(
            tiny_payload("f", sink_count=3, seed=2)
        ).fingerprint()


class TestResultPayload:
    def test_executed_request_splits_result_from_meta(self):
        request = parse_request(tiny_payload("exec", sink_count=3, seed=5))
        response = execute_request(WorkPayload(request=request))
        result, meta = response["result"], response["meta"]
        assert set(result) == {
            "name", "ok", "sink_count", "node_count", "buffer_count",
            "slack", "noise_feasible", "assignment",
            "candidates_generated", "candidates_kept_peak", "certified",
            "failure",
        }
        assert result["name"] == "exec"
        assert result["ok"] is True
        assert result["failure"] is None
        assert isinstance(result["assignment"], dict)
        assert all(
            isinstance(k, str) and isinstance(v, str)
            for k, v in result["assignment"].items()
        )
        assert set(meta) == {"seconds", "attempts", "error_message"}
        assert meta["attempts"] == 1

    def test_result_is_deterministic_but_meta_is_not_compared(self):
        request = parse_request(tiny_payload("det", sink_count=4, seed=7))
        first = execute_request(WorkPayload(request=request))
        second = execute_request(WorkPayload(request=request), attempt=2)
        assert first["result"] == second["result"]
        assert second["meta"]["attempts"] == 2


class TestRejectionShapes:
    def test_every_error_code_maps_to_its_http_status(self):
        expected = {
            "malformed": 400, "not_found": 404, "method_not_allowed": 405,
            "pending": 409, "too_large": 413, "shed": 429,
            "draining": 503, "deadline": 504,
        }
        assert set(expected) == set(ERROR_CODES)
        for code, status in expected.items():
            assert RequestRejected(code, "x").http_status == status

    def test_unknown_code_is_a_programming_error(self):
        with pytest.raises(ValueError):
            RequestRejected("tuesday", "x")

    def test_rejection_response_carries_retry_after_only_when_set(self):
        shed = RequestRejected.shed("full", retry_after=2.5)
        body = rejection_response(shed)
        assert body == {
            "kind": "buffopt-service-error",
            "protocol": PROTOCOL_VERSION,
            "error": "shed",
            "message": "full",
            "retry_after": 2.5,
        }
        assert "retry_after" not in error_response("malformed", "nope")

    def test_canonical_request_is_frozen(self):
        request = CanonicalRequest(
            net_name="x", sink_count=2, span=0.001, seed=0
        )
        with pytest.raises(AttributeError):
            request.seed = 1
