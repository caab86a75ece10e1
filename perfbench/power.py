"""``power``: a certified, checkpointed min-power batch.

``BatchOptimizer.optimize_specs`` under ``Objective.parse(
"buffopt/min-power")`` with the ``buffopt batch`` CLI defaults (count
cap 4, 500 um segments), ``certify=True`` and a checkpoint journal.  The
power frontier makes DP merge and prune dominate here.  Each net is its
own ``optimize_specs`` call with its own journal, so the caller-side
time of every net is seen without tracing.

Inputs: :data:`NETS` net specs.  Sink counts follow the library's
Table-I distribution scaled to :data:`NETS`; each net's span is drawn
from its own equal-width stratum of the library's log-uniform span
range, cut at :data:`SPAN_MAX_MM`.  Which stratum goes with which sink
count, and each net's generator seed (its geometry), are a fixed
design; the seed draws where each span falls inside its stratum.  With
the power axis on, per-net cost grows steeply with span and swings with
geometry.  Measured on the full 1.4-14 mm range: with the geometry drawn
from the seed as well, one pass over 32 nets took 16.7 s on one seed and
19.0 s on the next and the per-net median moved by a quarter; with a
fixed design of 32 nets, neighbouring nets around the median still
differed by 18 % in cost, so the median jumped whenever two of them
swapped places.  64 nets up to 5.6 mm kept that step near 6 %; 128
nets halve it.  The run measures whole passes until its time is up: a
partial last pass would weigh the per-net figures towards the nets that
come first.

Uncapped power runs take over a minute on single nets; they are a
known gap and stay out of this workload.

Times are host-normalised (:class:`common.HostClock`): the reference
routine runs before each net, outside the net's timing.
"""

from __future__ import annotations

import shutil
from time import perf_counter
from typing import Any, Dict, List

from common import OUT, HostClock, peak_rss_mb, stratified_specs
from spans import maybe_span

#: nets per pass; about 20 to 28 s per pass with the reference engine
#: on a 2-core Xeon, so a 20 s run is mostly one whole pass.
NETS = 128
#: upper end of the span range (the library's default is 14 mm).
SPAN_MAX_MM = 5.6
OBJECTIVE = "buffopt/min-power"


class Power:
    starts_process = False
    passes = True

    def __init__(self, seed: int):
        self.seed = seed
        self.specs: List[Any] = []
        self.optimizer = None
        self.metrics = None
        self.work = OUT / f"work-power-{seed}"

    def setup(self, traced: bool = False) -> None:
        """Specs and optimizer; a traced run also meters the batch phases."""
        from repro.api import Objective
        from repro.batch import BatchConfig, BatchOptimizer
        from repro.obs import MetricsRegistry
        from repro.units import MM, UM
        from repro.workloads import WorkloadConfig

        self.specs = stratified_specs(
            self.seed, NETS, f"pw{self.seed}-", SPAN_MAX_MM * MM
        )
        self.metrics = MetricsRegistry() if traced else None
        self.optimizer = BatchOptimizer(
            config=BatchConfig(
                objective=Objective.parse(OBJECTIVE),
                max_buffers=4,
                max_segment_length=500 * UM,
                certify=True,
            ),
            workload=WorkloadConfig(nets=NETS, seed=self.seed),
            metrics=self.metrics,
        )

    def wrap_sites(self) -> List[tuple]:
        from repro.batch import optimizer
        from repro.batch.checkpoint import CheckpointJournal
        from repro.verify import certificate

        return [
            (optimizer, "generate_net_from_spec", "workloads", "generate"),
            (optimizer, "segment_tree", "tree", "segment_tree"),
            (optimizer, "dp_result", "core", "dp_result"),
            (certificate, "certify_or_raise", "verify", "certify"),
            (CheckpointJournal, "create", "batch", "checkpoint"),
            (CheckpointJournal, "append", "batch", "checkpoint"),
            (CheckpointJournal, "close", "batch", "checkpoint"),
        ]

    def engine(self) -> str:
        return self.optimizer.config.engine

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def measure(self, seconds: float, recorder=None) -> Dict[str, Any]:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        first: List[Any] = []
        raw_net_seconds: List[float] = []
        raw_latencies: List[float] = []
        clock = HostClock()
        phases = {"map": 0.0, "fallback": 0.0, "overhead": 0.0}
        failed = 0
        done = 0
        start = perf_counter()
        try:
            while not done or done % NETS or perf_counter() - start < seconds:
                spec = self.specs[done % NETS]
                journal = self.work / f"{done:05d}.jsonl"
                with maybe_span(recorder, "host", "reference"):
                    clock.sample()
                t0 = perf_counter()
                with maybe_span(recorder, "batch", "optimize_specs", spec.name):
                    report = self.optimizer.optimize_specs(
                        [spec], checkpoint=journal
                    )
                raw_latencies.append(perf_counter() - t0)
                journal.unlink()
                result = report.results[0]
                raw_net_seconds.append(result.seconds)
                if self.metrics is not None:
                    gauge = self.metrics.get("buffopt_batch_phase_seconds")
                    for phase in phases:
                        phases[phase] += gauge.value(phase=phase)
                if done < NETS:
                    first.append(result)
                    failed += not (result.ok and result.certified)
                elif result.signature() != first[done % NETS].signature():
                    failed += 1
                done += 1
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        wall = perf_counter() - start
        scales = clock.scales()
        latencies = [t * k for t, k in zip(raw_latencies, scales)]
        return {
            "nets": done,
            "wall": wall,
            "work_s": sum(latencies),
            "net_seconds": [t * k for t, k in zip(raw_net_seconds, scales)],
            "latencies": latencies,
            "raw_latencies": raw_latencies,
            "host": clock.summary(),
            "attempted": done,
            "failed": failed,
            "peak_rss_mb": peak_rss_mb(),
            "quality": _quality(first),
            "checks": {
                "all_certified": all(r.ok and r.certified for r in first),
                "repeat_passes_identical": failed == sum(
                    not (r.ok and r.certified) for r in first
                ),
            },
            "batch_phases": phases,
        }


def _quality(results) -> Dict[str, float]:
    from repro.timing.elmore import max_sink_delay

    ok = [r for r in results if r.ok]
    return {
        "buffers_total": sum(r.buffer_count for r in ok),
        "delay_ratio_pct": 100.0 * sum(
            max_sink_delay(r.tree, r.assignment) for r in ok
        ) / sum(max_sink_delay(r.tree) for r in ok),
        "power_total_mw": 1e3 * sum(r.power for r in ok),
    }
