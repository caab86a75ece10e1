"""Retired engine spellings on the service wire: old journals still replay.

``data/legacy_engines_journal.jsonl`` was written by a build that still
had the ``"fast"`` and ``"auto"`` engines.  It holds one finished
``"fast"`` request (accepted + result), one ``"fast"`` request still
pending, and one ``"auto"`` request still pending.  The service keeps
both spellings in the canonical form — so the journal's fingerprints
still match — and runs them on their successors: ``"fast"`` on the
reference engine (it was bit-identical to it) and ``"auto"`` on lishi.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.batch.resilience import RetryPolicy
from repro.service import (
    OptimizationService,
    ServiceConfig,
    parse_request,
    recover_journal,
)
from repro.service.protocol import execution_engine
from repro.service.worker import WorkPayload, execute_request

FIXTURE = Path(__file__).resolve().parent / "data" / "legacy_engines_journal.jsonl"


def _records():
    return [json.loads(line) for line in FIXTURE.read_text().splitlines()]


def _accepted(name):
    for record in _records():
        if (
            record["kind"] == "accepted"
            and record["request"]["net"]["name"] == name
        ):
            return record
    raise AssertionError(f"no accepted record for {name!r}")


def _payload(record, **overrides):
    """The submit payload that canonicalizes to a journaled request."""
    body = dict(record["request"])
    body.update(overrides)
    return body


def _result_under(record, engine):
    request = parse_request(_payload(record, engine=engine))
    return execute_request(WorkPayload(request))["result"]


@pytest.fixture
def journal(tmp_path):
    path = tmp_path / "service.jsonl"
    shutil.copyfile(FIXTURE, path)
    return path


def test_execution_mapping():
    assert execution_engine("fast") == "reference"
    assert execution_engine("auto") == "lishi"
    assert execution_engine("reference") == "reference"
    assert execution_engine("lishi") == "lishi"


def test_legacy_fingerprints_are_unchanged():
    for record in _records():
        if record["kind"] != "accepted":
            continue
        request = parse_request(_payload(record))
        assert request.engine == record["request"]["engine"]
        assert request.to_json() == record["request"]
        assert request.fingerprint() == record["fingerprint"]


def test_journal_replays_without_fingerprint_mismatch(journal):
    state = recover_journal(journal)
    assert list(state.cache) == [_accepted("legacy-fast-done")["fingerprint"]]
    assert [request.engine for _, request in state.pending] == [
        "fast", "auto",
    ]
    assert not state.torn_tail


def test_restarted_service_serves_and_reruns_legacy_requests(journal):
    service = OptimizationService(ServiceConfig(
        workers=1,
        queue_limit=8,
        supervision="inline",
        retry=RetryPolicy(max_attempts=1),
        wait_timeout=60.0,
        drain_timeout=15.0,
        journal_path=journal,
        journal_fsync=False,
    )).start()
    try:
        assert service.recovered_results == 1
        assert service.recovered_jobs == 2

        # The finished "fast" answer is served verbatim from the journal.
        done = _accepted("legacy-fast-done")
        cached = next(
            record["response"]["result"]
            for record in _records()
            if record["kind"] == "result"
        )
        status, body = service.submit(_payload(done, wait=True))
        assert status == 200
        assert body["cached"] is True
        assert body["result"] == cached

        # The pending "fast" request runs on the reference engine: its
        # payload is the reference payload bit for bit.
        pending_fast = _accepted("legacy-fast-pending")
        status, body = service.submit(_payload(pending_fast, wait=True))
        assert status == 200
        assert body["result"] == _result_under(pending_fast, "reference")
        assert body["result"] != _result_under(pending_fast, "lishi")

        # The pending "auto" request runs on lishi.
        pending_auto = _accepted("legacy-auto-pending")
        status, body = service.submit(_payload(pending_auto, wait=True))
        assert status == 200
        assert body["result"] == _result_under(pending_auto, "lishi")
        assert body["result"] != _result_under(pending_auto, "reference")
    finally:
        service.drain(timeout=15.0)
