"""``scripts/verify_service.py`` against a live ``buffopt serve``.

The script is the black-box battery the CI service smoke runs; this
test boots a real server on a free port with a throwaway journal, runs
the script exactly as CI does, and requires a clean PASS — then checks
that SIGTERM drains the server to exit 0.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SCRIPT = ROOT / "scripts" / "verify_service.py"

#: every check the battery runs, by name.
CHECKS = {
    "healthz-200", "readyz-200", "metrics-prometheus-text",
    "sync-submit-200-shape", "sync-submit-result-fields",
    "resubmit-deterministic", "resubmit-cache-hit",
    "async-submit-202-job", "async-job-finishes", "async-result-200",
    "unknown-key-400", "bad-shape-400", "missing-net-400", "bad-mode-400",
    "empty-body-400", "unknown-job-404", "unknown-route-404",
    "submit-get-405", "healthz-post-405", "pending-409-or-200",
}


@pytest.fixture
def server(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--journal", str(tmp_path / "service.jsonl")],
        cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        deadline = time.monotonic() + 60.0
        line = process.stderr.readline()
        while "listening on " not in line:
            if not line or time.monotonic() > deadline:
                pytest.fail(f"server did not start: {line!r}")
            line = process.stderr.readline()
        yield process, line.split("listening on ", 1)[1].strip()
    finally:
        if process.poll() is None:
            process.kill()
        process.communicate()


def test_battery_passes_and_sigterm_drains(server):
    process, url = server
    verify = subprocess.run(
        [sys.executable, str(SCRIPT), "--url", url, "--wait-ready", "30"],
        capture_output=True, text=True, timeout=300,
    )
    report = json.loads(verify.stdout)
    assert verify.returncode == 0, verify.stderr
    assert report["verdict"] == "PASS"
    assert report["failed"] == 0
    assert {check["name"] for check in report["checks"]} == CHECKS

    process.send_signal(signal.SIGTERM)
    assert process.wait(timeout=60) == 0
