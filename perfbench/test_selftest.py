"""Self-test of the benchmark's per-layer split.

Run from the repository root::

    python3 -m pytest perfbench -q

Uses the ``power`` workload cut to a few nets.  A delay planted in one
layer's public function (``segment_tree`` as the batch layer looks it
up) must appear as that layer's self time, not in its neighbours', and
must lower the untraced ``nets_per_s``.  Two runs on one seed must give
identical counts.
"""

from __future__ import annotations

import sys
import time
from contextlib import nullcontext
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import LayerWraps, add_src_path  # noqa: E402
from spans import SpanRecorder  # noqa: E402

if not add_src_path():
    pytest.skip("no src/repro in this checkout", allow_module_level=True)

import power  # noqa: E402
import run as bench_run  # noqa: E402

DELAY = 0.2
NETS = 3
SEED = 5


@pytest.fixture(autouse=True)
def few_nets(monkeypatch):
    monkeypatch.setattr(power, "NETS", NETS)


def measure(traced: bool):
    bench = power.Power(SEED)
    bench.setup(traced)
    recorder = SpanRecorder() if traced else None
    wraps = LayerWraps(recorder, bench.wrap_sites()) if traced else None
    try:
        with recorder.span("bench", "measure") if traced else nullcontext():
            result = bench.measure(0.0, recorder)
    finally:
        if wraps is not None:
            wraps.remove()
        bench.close()
    return result, recorder, wraps


def plant_delay(monkeypatch):
    from repro.batch import optimizer

    original = optimizer.segment_tree

    def slow_segment_tree(*args, **kwargs):
        time.sleep(DELAY)
        return original(*args, **kwargs)

    monkeypatch.setattr(optimizer, "segment_tree", slow_segment_tree)


def test_planted_delay_lands_in_its_layer(monkeypatch):
    base, base_spans, _ = measure(traced=True)
    plant_delay(monkeypatch)
    slow, slow_spans, _ = measure(traced=True)

    planted = DELAY * slow_spans.totals("tree")[1]
    before, after = base_spans.self_times(), slow_spans.self_times()
    assert after["tree"] - before["tree"] >= 0.95 * planted
    for layer in ("core", "verify", "workloads", "batch"):
        assert abs(after[layer] - before[layer]) < 0.5 * planted, layer
    assert after["bench"] < 0.5 * planted  # not left as residual


def test_planted_delay_lowers_throughput(monkeypatch):
    base, _, _ = measure(traced=False)
    plant_delay(monkeypatch)
    slow, _, _ = measure(traced=False)
    assert slow["nets"] / slow["work_s"] < base["nets"] / base["work_s"]
    assert sorted(slow["raw_latencies"])[0] >= DELAY


def test_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        result, recorder, wraps = measure(traced=True)
        layer = bench_run.per_layer(recorder, wraps, result)
        counts.append((
            {k: v for k, v in layer.items()
             if bench_run.PER_LAYER_UNITS[k] in ("count", "frac")},
            result["quality"],
        ))
    assert counts[0] == counts[1]
    assert counts[0][0]["core.candidates_generated"] > 0
