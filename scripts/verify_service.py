#!/usr/bin/env python3
"""Black-box verifier for a running buffopt optimization service.

Speaks only the public HTTP contract — no imports from ``repro`` — so
it verifies what a real client would see, not what the implementation
believes about itself.  Point it at a live server:

    python scripts/verify_service.py --url http://127.0.0.1:8723

It runs a fixed battery of checks (probes, submit lifecycle, strict
validation, determinism-via-resubmit, metrics exposure, 404/405/409
semantics) and prints ONE line of strict JSON on stdout:

    {"kind": "buffopt-service-verify", "url": ..., "protocol": 2,
     "checks": [{"name": ..., "ok": true, "detail": ...}, ...],
     "passed": N, "failed": M, "verdict": "PASS" | "FAIL"}

``"protocol"`` is the wire version this battery speaks; every submit
response must echo exactly that version.  Exit code 0 iff every check
passed.  Diagnostics go to stderr.  The CI
service smoke job runs this against a freshly started server and
archives the JSON next to the journal and metrics artifacts.
"""

import argparse
import json
import sys
import time
import urllib.error
import urllib.request

#: the protocol the server answers with (the v2 objective block).
PROTOCOL = 2

#: the battery's one well-formed work unit (tiny: the verifier checks
#: the lifecycle, not the DP).
GOOD_NET = {
    "name": "verify-net-1",
    "sink_count": 4,
    "span": 0.002,
    "seed": 20260808,
}


def http(method, url, payload=None, timeout=60.0):
    """One round trip -> (status, headers, parsed-or-raw body)."""
    data = None
    headers = {}
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(
        url, data=data, headers=headers, method=method
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            raw = reply.read().decode("utf-8")
            status, hdrs = reply.status, dict(reply.headers)
    except urllib.error.HTTPError as exc:
        raw = exc.read().decode("utf-8", errors="replace")
        status, hdrs = exc.code, dict(exc.headers)
    try:
        body = json.loads(raw)
    except json.JSONDecodeError:
        body = raw
    return status, hdrs, body


class Battery:
    def __init__(self, base_url):
        self.base = base_url.rstrip("/")
        self.checks = []

    def check(self, name, ok, detail=""):
        self.checks.append(
            {"name": name, "ok": bool(ok), "detail": str(detail)}
        )
        print(
            f"{'PASS' if ok else 'FAIL'}  {name}"
            + (f"  ({detail})" if detail and not ok else ""),
            file=sys.stderr,
        )
        return bool(ok)

    # -- individual checks -------------------------------------------------

    def probes(self):
        status, _, body = http("GET", f"{self.base}/healthz")
        self.check(
            "healthz-200",
            status == 200 and isinstance(body, dict)
            and body.get("status") == "ok",
            f"status={status} body={body}",
        )
        status, _, body = http("GET", f"{self.base}/readyz")
        self.check(
            "readyz-200",
            status == 200 and isinstance(body, dict) and body.get("ready"),
            f"status={status} body={body}",
        )

    def metrics(self):
        status, headers, body = http("GET", f"{self.base}/metrics")
        ok = (
            status == 200
            and isinstance(body, str)
            and "buffopt_service_requests_total" in body
            and headers.get("Content-Type", "").startswith("text/plain")
        )
        self.check("metrics-prometheus-text", ok, f"status={status}")

    def sync_submit(self):
        payload = {"net": GOOD_NET, "wait": True}
        status, _, body = http("POST", f"{self.base}/v1/optimize", payload)
        shape_ok = (
            status == 200
            and isinstance(body, dict)
            and body.get("kind") == "buffopt-service-result"
            and body.get("protocol") == PROTOCOL
            and isinstance(body.get("fingerprint"), str)
            and isinstance(body.get("result"), dict)
            and isinstance(body.get("meta"), dict)
        )
        self.check("sync-submit-200-shape", shape_ok, f"status={status}")
        result = body.get("result", {}) if isinstance(body, dict) else {}
        self.check(
            "sync-submit-result-fields",
            all(
                key in result
                for key in (
                    "name", "ok", "sink_count", "slack", "assignment",
                    "candidates_generated", "failure",
                )
            ),
            f"keys={sorted(result)}",
        )
        return body if shape_ok else None

    def determinism(self, first):
        if first is None:
            self.check("resubmit-deterministic", False, "no first response")
            return
        status, _, second = http(
            "POST", f"{self.base}/v1/optimize",
            {"net": GOOD_NET, "wait": True},
        )
        ok = (
            status == 200
            and isinstance(second, dict)
            and second.get("result") == first.get("result")
            and second.get("fingerprint") == first.get("fingerprint")
        )
        self.check(
            "resubmit-deterministic", ok,
            "second submit must return the identical result payload",
        )
        self.check(
            "resubmit-cache-hit",
            isinstance(second, dict) and second.get("cached") is True,
            f"cached={second.get('cached') if isinstance(second, dict) else None}",
        )

    def async_lifecycle(self):
        net = dict(GOOD_NET, name="verify-net-async", seed=7)
        status, _, body = http(
            "POST", f"{self.base}/v1/optimize", {"net": net}
        )
        job_ok = (
            status == 202
            and isinstance(body, dict)
            and body.get("kind") == "buffopt-service-job"
            and isinstance(body.get("id"), str)
            and body.get("status") in ("queued", "running", "done")
        )
        self.check("async-submit-202-job", job_ok, f"status={status}")
        if not job_ok:
            return
        job_id = body["id"]
        deadline = time.time() + 60.0
        final = None
        while time.time() < deadline:
            status, _, poll = http("GET", f"{self.base}/v1/jobs/{job_id}")
            if status == 200 and poll.get("status") == "done":
                final = poll
                break
            time.sleep(0.05)
        self.check("async-job-finishes", final is not None)
        status, _, result = http(
            "GET", f"{self.base}/v1/jobs/{job_id}/result"
        )
        self.check(
            "async-result-200",
            status == 200 and isinstance(result, dict)
            and isinstance(result.get("result"), dict),
            f"status={status}",
        )

    def validation(self):
        cases = [
            ("unknown-key-400", {"net": GOOD_NET, "max_bufers": 4}),
            ("bad-shape-400", [1, 2, 3]),
            ("missing-net-400", {"mode": "buffopt"}),
            ("bad-mode-400", {"net": GOOD_NET, "mode": "warp"}),
        ]
        for name, payload in cases:
            status, _, body = http(
                "POST", f"{self.base}/v1/optimize", payload
            )
            self.check(
                name,
                status == 400 and isinstance(body, dict)
                and body.get("error") == "malformed",
                f"status={status} body={body}",
            )
        status, _, body = http("POST", f"{self.base}/v1/optimize", None)
        self.check(
            "empty-body-400",
            status == 400 and isinstance(body, dict),
            f"status={status}",
        )

    def routing(self):
        status, _, body = http("GET", f"{self.base}/v1/jobs/job-does-not-exist")
        self.check(
            "unknown-job-404",
            status == 404 and isinstance(body, dict)
            and body.get("error") == "not_found",
            f"status={status}",
        )
        status, _, _ = http("GET", f"{self.base}/no/such/route")
        self.check("unknown-route-404", status == 404, f"status={status}")
        status, _, body = http("GET", f"{self.base}/v1/optimize")
        self.check(
            "submit-get-405",
            status == 405 and isinstance(body, dict)
            and body.get("error") == "method_not_allowed",
            f"status={status}",
        )
        status, _, _ = http("POST", f"{self.base}/healthz", {})
        self.check("healthz-post-405", status == 405, f"status={status}")

    def pending_409(self):
        # A slow-ish net polled immediately is usually still pending; if
        # the server is too fast we only require that the *done* answer
        # is a 200 — the 409 contract is checked when observable.
        net = dict(GOOD_NET, name="verify-net-pending", sink_count=6,
                   seed=11)
        status, _, body = http(
            "POST", f"{self.base}/v1/optimize", {"net": net}
        )
        if status != 202:
            self.check("pending-409-or-200", False, f"submit={status}")
            return
        job_id = body["id"]
        status, _, result = http(
            "GET", f"{self.base}/v1/jobs/{job_id}/result"
        )
        ok = (status == 409 and result.get("error") == "pending") or (
            status == 200 and isinstance(result.get("result"), dict)
        )
        self.check("pending-409-or-200", ok, f"status={status}")

    # -- driver ------------------------------------------------------------

    def run(self):
        self.probes()
        self.metrics()
        first = self.sync_submit()
        self.determinism(first)
        self.async_lifecycle()
        self.validation()
        self.routing()
        self.pending_409()
        return self.checks


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--url", required=True,
        help="base URL of the server, e.g. http://127.0.0.1:8723",
    )
    parser.add_argument(
        "--wait-ready", type=float, default=0.0, metavar="SECONDS",
        help="poll /readyz for up to this long before starting",
    )
    args = parser.parse_args(argv)

    if args.wait_ready > 0:
        deadline = time.time() + args.wait_ready
        while time.time() < deadline:
            try:
                status, _, _ = http(
                    "GET", f"{args.url.rstrip('/')}/readyz", timeout=2.0
                )
                if status == 200:
                    break
            except OSError:
                pass
            time.sleep(0.2)

    battery = Battery(args.url)
    try:
        checks = battery.run()
    except OSError as exc:
        checks = battery.checks + [{
            "name": "server-reachable", "ok": False, "detail": str(exc),
        }]
    failed = sum(1 for check in checks if not check["ok"])
    report = {
        "kind": "buffopt-service-verify",
        "url": args.url,
        "protocol": PROTOCOL,
        "checks": checks,
        "passed": len(checks) - failed,
        "failed": failed,
        "verdict": "PASS" if failed == 0 else "FAIL",
    }
    print(json.dumps(report, sort_keys=True))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
