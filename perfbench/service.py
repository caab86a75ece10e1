"""``service``: an open loop at a fixed rate against ``buffopt serve``.

The server runs in its own process with the library's defaults (process
per request supervision, two workers) plus a journal (fsync on).  At
most :data:`SENDERS` threads send the requests; request ``i`` is due at
``start + i / RATE`` and its latency runs from that due time, so a stall
also charges the requests queued behind it.  Nets have 2 to 6 sinks;
every :data:`REPEAT_EVERY`-th request repeats an earlier net, so cache
hits sit beside computed requests.  Per-request overhead dominates here,
not the DP.

Latencies and worker times are host-normalised
(:class:`common.HostClock`): a sender-side thread times the reference
routine every :data:`SAMPLE_EVERY` seconds, and each request is scaled
by the samples around its midpoint.

:data:`RATE` stays below where two senders saturate the server on a
2-core host (20 to 40 requests/s); there is no highest-rate search,
because with two senders on two cores it would find the generator's
limit, not the server's.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

from common import OUT, ROOT, HostClock, median_ms, peak_rss_mb

RATE = 12.0
SENDERS = 2
#: seconds between reference-routine samples of the host's speed.
SAMPLE_EVERY = 0.1
#: every REPEAT_EVERY-th request repeats an earlier net (a cache hit).
REPEAT_EVERY = 4
#: a repeat picks a net at least this many distinct nets back, so it is
#: answered from the cache rather than coalesced onto a running job.
REPEAT_DISTANCE = 8
#: distinct nets cycle through these sink counts ...
SINKS = (2, 3, 4, 5, 6)
#: ... and draw spans from this many equal strata of log span in
#: [1 mm, 2 mm], so every seed offers the same mix of net sizes.  A
#: prime, so each sink count meets every stratum; with 8 strata the
#: seed's place inside a stratum moved ``buffers_total`` by 0.12
#: (IQR over median, five seeds).
SPAN_STRATA = 47
#: draws each distinct net's generator seed (its geometry), the same for
#: every run seed.
DESIGN_SEED = 1998
START_TIMEOUT = 60.0


def request_stream(seed: int, count: int) -> List[Dict[str, Any]]:
    """``count`` submit payloads.  Sizes and geometries follow a fixed
    design; the seed draws where each span falls inside its stratum and
    which earlier net each repeat asks for again."""
    from repro.api import Objective

    rng = random.Random(seed)
    design = random.Random(DESIGN_SEED)
    objective = Objective.parse("buffopt").to_json()
    low, high = math.log(1e-3), math.log(2e-3)
    distinct: List[Dict[str, Any]] = []
    payloads = []
    for index in range(count):
        if index % REPEAT_EVERY == REPEAT_EVERY - 1 and len(distinct) > REPEAT_DISTANCE:
            net = rng.choice(distinct[:-REPEAT_DISTANCE])
        else:
            k = len(distinct)
            stratum = (k // len(SINKS) + k) % SPAN_STRATA
            net = {
                "name": f"sv{seed}-{k:04d}",
                "sink_count": SINKS[k % len(SINKS)],
                "span": math.exp(
                    low + (stratum + rng.random()) * (high - low) / SPAN_STRATA
                ),
                "seed": design.randrange(2**63),
            }
            distinct.append(net)
        payloads.append({
            "id": f"r{index:05d}", "net": net, "objective": objective,
            "wait": True,
        })
    return payloads


class Server:
    """One ``buffopt serve`` process on a free port with a fresh journal."""

    def __init__(self, work: Path, spans: Optional[Path] = None):
        self.journal = work / "journal.jsonl"
        self.spans = spans
        self.proc: Optional[subprocess.Popen] = None
        self.url = ""

    def start(self) -> None:
        self.journal.unlink(missing_ok=True)
        flags = ["--port", "0", "--journal", str(self.journal)]
        if self.spans is None:
            cmd = [sys.executable, "-m", "repro.cli", "serve", *flags]
        else:
            launcher = Path(__file__).resolve().parent / "traced_serve.py"
            cmd = [sys.executable, str(launcher), str(self.spans), *flags]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        deadline = time.monotonic() + START_TIMEOUT
        line = self.proc.stderr.readline()
        while "listening on " not in line:
            if not line or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"server did not start: {line!r}")
            line = self.proc.stderr.readline()
        self.url = line.split("listening on ", 1)[1].strip()
        while _get(self.url + "/readyz")[0] != 200:
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("server never became ready")
            time.sleep(0.01)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self.proc = None


def _get(url: str):
    try:
        with urllib.request.urlopen(url, timeout=10) as reply:
            return reply.status, reply.read().decode("utf-8")
    except OSError as exc:
        return getattr(exc, "code", None), ""


class Service:
    starts_process = True
    passes = False

    def __init__(self, seed: int):
        self.seed = seed
        self.work = OUT / f"work-service-{seed}"
        self.server: Optional[Server] = None
        self.payloads: List[Dict[str, Any]] = []
        self.spans_path: Optional[Path] = None

    def setup(self, traced: bool = False) -> None:
        """Generate the request stream and start a ready server."""
        self.work.mkdir(parents=True, exist_ok=True)
        self.spans_path = self.work / "server-spans.jsonl" if traced else None
        self.payloads = request_stream(self.seed, 4096)
        self.server = Server(self.work, self.spans_path)
        self.server.start()

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        shutil.rmtree(self.work, ignore_errors=True)

    def wrap_sites(self) -> List[tuple]:
        from repro.batch import optimizer

        return [
            (optimizer, "generate_net_from_spec", "workloads", "generate"),
            (optimizer, "segment_tree", "tree", "segment_tree"),
            (optimizer, "dp_result", "core", "dp_result"),
        ]

    def engine(self) -> str:
        from repro.service.protocol import parse_request

        return parse_request(self.payloads[0]).engine

    def measure(self, seconds: float, recorder=None) -> Dict[str, Any]:
        from repro.service.loadtest import HttpServiceClient
        from repro.obs.metrics import parse_prometheus

        payloads = self.payloads[: max(1, int(RATE * seconds))]
        client = HttpServiceClient(self.server.url)
        rows: List[Optional[tuple]] = [None] * len(payloads)
        lock = threading.Lock()
        cursor = [0]
        start = perf_counter() + 0.05

        def sender() -> None:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(payloads):
                    return
                due = start + index / RATE
                pause = due - perf_counter()
                if pause > 0:
                    time.sleep(pause)
                sent = perf_counter()
                status, body = client.submit(payloads[index])
                retries = 0
                while status in (429, 503) and retries < 100:
                    retries += 1
                    time.sleep(float(body.get("retry_after", 0.05)))
                    status, body = client.submit(payloads[index])
                rows[index] = (due, sent, perf_counter(), status, body, retries)

        clock = HostClock()
        clock.sample()
        sending = threading.Event()

        def sampler() -> None:
            while not sending.wait(SAMPLE_EVERY):
                clock.sample()

        threads = [threading.Thread(target=sender) for _ in range(SENDERS)]
        threads.append(threading.Thread(target=sampler))
        for thread in threads:
            thread.start()
        for thread in threads[:SENDERS]:
            thread.join()
        sending.set()
        threads[-1].join()
        wall = max(row[2] for row in rows) - start
        prom = parse_prometheus(_get(self.server.url + "/metrics")[1])
        rss = peak_rss_mb(self.server.proc.pid)
        self.server.stop()
        self.server = None

        ok = [row[3] == 200 and row[4]["result"]["ok"] for row in rows]
        # Each request is scaled by the host's speed around its midpoint.
        scales = [clock.scale_at((row[0] + row[2]) / 2) for row in rows]
        first: Dict[str, Dict[str, Any]] = {}  # fingerprint -> first body
        first_scale: Dict[str, float] = {}
        for row, scale in zip(rows, scales):
            if row[3] == 200 and row[4]["fingerprint"] not in first:
                first[row[4]["fingerprint"]] = row[4]
                first_scale[row[4]["fingerprint"]] = scale
        raw_latencies = [row[2] - row[0] for row in rows]
        result: Dict[str, Any] = {
            "nets": len(rows),
            "wall": wall,
            # The send rate is fixed: throughput is answers over the
            # run's wall time, not normalised.
            "work_s": wall,
            "net_seconds": [
                body["meta"]["seconds"] * first_scale[fingerprint]
                for fingerprint, body in first.items() if not body["cached"]
            ],
            "latencies": [t * k for t, k in zip(raw_latencies, scales)],
            "raw_latencies": raw_latencies,
            "host": clock.summary(),
            "attempted": len(rows),
            "failed": ok.count(False),
            "peak_rss_mb": rss,
            "quality": _quality(payloads, first),
            "checks": {"all_200_ok": all(ok)},
            "service": {
                "gen_lag_ms": max(row[1] - row[0] for row in rows) * 1e3,
                "shed_retries": sum(row[5] for row in rows),
                "cache_hit_frac": sum(
                    1 for row in rows if row[3] == 200 and row[4]["cached"]
                ) / len(rows),
                "exec_ms_mean": 1e3 * _prom(prom, "buffopt_service_request_seconds_sum")
                / max(1.0, _prom(prom, "buffopt_service_request_seconds_count")),
            },
        }
        if recorder is not None:
            split = self._traced_split(payloads, rows, first, recorder)
            result["service"].update(split.pop("service"))
            result.update(split)
        return result

    def _traced_split(self, payloads, rows, first, recorder) -> Dict[str, Any]:
        """Inline worker bodies plus the server's spans, per request."""
        from repro.service.protocol import parse_request
        from repro.service.worker import WorkPayload, execute_request

        body_seconds: Dict[str, float] = {}
        equal = True
        seen = set()
        for payload in payloads:
            name = payload["net"]["name"]
            if name in seen:
                continue
            seen.add(name)
            request = parse_request(payload)
            with recorder.span("service", "worker_body", name):
                t0 = perf_counter()
                inline = execute_request(WorkPayload(request=request))
                body_seconds[name] = perf_counter() - t0
            served = first[request.fingerprint()]["result"]
            equal &= json.loads(json.dumps(inline["result"])) == served

        spans = [json.loads(line) for line in self.spans_path.read_text().splitlines()]
        submits = {s["req"]: s for s in spans if s["name"] == "submit"}
        execs = {s["req"]: s for s in spans if s["name"] == "exec"}
        journal = sum(s["end"] - s["start"] for s in spans if s["name"] == "journal")
        admitted: Dict[str, Dict[str, Any]] = {}
        for payload in payloads:
            span = submits[payload["id"]]
            name = payload["net"]["name"]
            if name not in admitted or span["start"] < admitted[name]["start"]:
                admitted[name] = span
        queue_wait = [
            execs[name]["start"] - admitted[name]["start"] for name in execs
        ]
        overhead = [
            (execs[name]["end"] - execs[name]["start"]) - body_seconds[name]
            for name in execs
        ]
        submit_total = sum(s["end"] - s["start"] for s in submits.values())
        exec_total = sum(s["end"] - s["start"] for s in execs.values())
        lag = sum(row[1] - row[0] for row in rows)
        transport = sum(row[2] - row[1] for row in rows) - submit_total
        return {
            "checks_traced": {"inline_payloads_equal": equal},
            "service": {
                "worker_body_ms_p50": median_ms(list(body_seconds.values())),
                "overhead_ms_p50": median_ms(overhead),
                "queue_wait_ms_p50": median_ms(queue_wait),
            },
            # Per-request accounting of the summed latencies: generator
            # lag, server admission/queue/glue, supervised execution and
            # journal writes; HTTP transport is what no span covers.
            "request_split_s": {
                "generator": lag,
                "service": submit_total - exec_total - journal,
                "batch.exec": exec_total,
                "service.journal": journal,
            },
            "request_wall_s": sum(row[2] - row[0] for row in rows),
            "request_residual_s": transport,
        }


def _prom(parsed: Dict[str, Dict[Any, float]], name: str) -> float:
    return sum(parsed.get(name, {}).values())


def _quality(payloads, first) -> Dict[str, float]:
    """Buffers, delay ratio and power of every distinct served answer."""
    from repro.library.buffers import default_buffer_library
    from repro.library.power import default_power_model
    from repro.service.protocol import DEFAULT_SEGMENT_LENGTH, parse_request
    from repro.timing.elmore import max_sink_delay
    from repro.tree.segmenting import segment_tree
    from repro.verify.certificate import recompute_power
    from repro.workloads import NetSpec, generate_net_from_spec

    library = default_buffer_library()
    model = default_power_model()
    buffers = 0
    delay = unbuffered = power = 0.0
    done = set()
    for payload in payloads:
        request = parse_request(payload)
        fingerprint = request.fingerprint()
        if fingerprint in done or fingerprint not in first:
            continue
        done.add(fingerprint)
        answer = first[fingerprint]["result"]
        tree = segment_tree(
            generate_net_from_spec(NetSpec(
                name=request.net_name, sink_count=request.sink_count,
                span=request.span, seed=request.seed,
            )).tree,
            DEFAULT_SEGMENT_LENGTH,
        )
        assignment = {n: library[b] for n, b in (answer["assignment"] or {}).items()}
        buffers += answer["buffer_count"]
        delay += max_sink_delay(tree, assignment)
        unbuffered += max_sink_delay(tree)
        power += recompute_power(tree, assignment, model)
    return {
        "buffers_total": buffers,
        "delay_ratio_pct": 100.0 * delay / unbuffered,
        "power_total_mw": 1e3 * power,
    }
