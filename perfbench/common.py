"""Shared helpers: percentiles, memory, run metadata, host speed,
per-layer wrapping."""

from __future__ import annotations

import bisect
import gc
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

#: a tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def median_ms(seconds: Sequence[float]) -> float:
    return statistics.median(seconds) * 1e3


def tail(seconds: Sequence[float]) -> Dict[str, float]:
    """The highest whole percentile with ``TAIL_BEYOND`` samples beyond it.

    Nearest rank.  With fewer than ``TAIL_BEYOND + 1`` samples there is
    no such percentile and the median stands in (``percentile`` 50).
    """
    ordered = sorted(seconds)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        pct = 50
    else:
        pct = max(50, math.floor(100 * (count - TAIL_BEYOND) / count))
    rank = max(1, math.ceil(count * pct / 100))
    return {"value_ms": ordered[rank - 1] * 1e3, "percentile": pct,
            "samples": count}


#: the reference routine's typical time on the host the bounds were set
#: on (2-core Xeon, shared); host-normalised times are stated at it.
REFERENCE_S = 0.002


class _Candidate:
    __slots__ = ("cap", "slack", "count", "parent")

    def __init__(self, cap: float, slack: float, count: int, parent: Any):
        self.cap = cap
        self.slack = slack
        self.count = count
        self.parent = parent


def reference_routine() -> int:
    """A fixed pure-Python job shaped like the library's DP.

    A float recurrence, then a small candidate DP: slotted objects
    extended by a wire and a buffer option per step, sorted by key and
    pruned.  About 1.5 to 2.5 ms.  It calls nothing of the library, and
    it runs with the cyclic garbage collector off, so neither a change
    to the program nor the size of its heap makes it faster or slower:
    with the collector on, a collection of the program's heap could land
    inside the routine.  Everything it allocates is freed by reference
    counting.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        x = 0.0
        for i in range(9000):
            x = x * 0.999 + (i % 7) * 1.5e-3
        rng = random.Random(3)
        cands = [_Candidate(rng.random(), rng.random(), 0, None) for _ in range(60)]
        for step in range(12):
            r = 0.01 * (step + 1)
            grown = []
            for c in cands:
                grown.append(_Candidate(c.cap + r, c.slack - r * (c.cap + 0.5 * r), c.count, c))
                grown.append(_Candidate(0.2, c.slack - 0.3 - 0.1 * c.cap, c.count + 1, c))
            grown.sort(key=lambda c: (c.cap, -c.slack))
            kept, best = [], -1e9
            for c in grown:
                if c.slack > best:
                    kept.append(c)
                    best = c.slack
            cands = kept[:60] if len(kept) > 60 else kept + grown[:60 - len(kept)]
        return len(cands) + int(x)
    finally:
        if collecting:
            gc.enable()


class HostClock:
    """The host's speed, sampled next to the timed work.

    The shared host's speed moves by up to 2x within seconds (process
    CPU time moves with wall time, so it is the cores, not scheduling).
    The reference routine slows with it.  One sample is noisy, so the
    scale of a piece of work comes from the median routine time over
    the :data:`WINDOW` samples centred on it: the work's time multiplied
    by that scale is the time it would have taken on a host where the
    routine takes :data:`REFERENCE_S`.
    """

    #: samples per median: about 0.3 s of ``paper``, 0.7 s of ``power``
    #: and 0.5 s of ``service``, as the host switches speed every few
    #: hundred ms.
    WINDOW = 5

    def __init__(self) -> None:
        self.stamps: List[float] = []
        self.samples: List[float] = []

    def sample(self) -> None:
        """Time the routine once, after an untimed warm-up run.

        Timed cold, straight after a net, the routine also measured how
        much of the CPU caches the net had left it: the per-net median
        and tail spread about twice as much over ten seeds.
        """
        reference_routine()
        t0 = perf_counter()
        reference_routine()
        self.stamps.append(t0)
        self.samples.append(perf_counter() - t0)

    def _scale(self, index: int) -> float:
        half = self.WINDOW // 2
        low = min(max(0, index - half), max(0, len(self.samples) - self.WINDOW))
        return REFERENCE_S / statistics.median(self.samples[low:low + self.WINDOW])

    def scales(self) -> List[float]:
        """One scale per sample, in order (one sample before each net)."""
        return [self._scale(i) for i in range(len(self.samples))]

    def scale_at(self, when: float) -> float:
        """The scale of samples centred on ``when`` (``perf_counter``)."""
        return self._scale(bisect.bisect(self.stamps, when))

    def summary(self) -> Dict[str, float]:
        if not self.samples:
            return {"samples": 0}
        return {
            "samples": len(self.samples),
            "routine_ms_p50": median_ms(self.samples),
            "routine_ms_min": min(self.samples) * 1e3,
        }


#: fixes which span stratum each sink count gets and each net's
#: generator seed (its sink positions, driver and sink cells).
DESIGN_SEED = 1998


def stratified_specs(seed: int, count: int, prefix: str,
                     span_max: Optional[float] = None) -> List[Any]:
    """``count`` net specs over the library's workload distributions.

    Sink counts follow the library's Table-I distribution scaled to
    ``count``; each net's span comes from its own equal-width stratum of
    the library's log-uniform span range (cut at ``span_max`` if given).
    Which stratum goes with which sink count, and each net's generator
    seed (its geometry), are a fixed design; ``seed`` places each span
    inside its stratum.  So every seed offers the same mix of net sizes.
    """
    from repro.workloads import NetSpec
    from repro.workloads.distributions import (
        SpanDistribution,
        default_sink_distribution,
    )

    spans = SpanDistribution() if span_max is None else SpanDistribution(span_max=span_max)
    low, high = math.log(spans.span_min), math.log(spans.span_max)
    sinks = default_sink_distribution().scaled(count).expand()
    design = random.Random(DESIGN_SEED)
    strata = design.sample(range(count), count)
    geometry = [design.randrange(2**63) for _ in range(count)]
    rng = random.Random(seed)
    return [
        NetSpec(
            name=f"{prefix}{k:03d}",
            sink_count=int(sink_count),
            span=math.exp(low + (stratum + rng.random()) * (high - low) / count),
            seed=geometry[k],
        )
        for k, (sink_count, stratum) in enumerate(zip(sinks, strata))
    ]


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size of this process, or of ``pid`` if given."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _git(*args: str) -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_metadata(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "cpu_model": _cpu_model(),
        "cores": os.cpu_count(),
        "python": sys.version.split()[0],
    }


def add_src_path() -> bool:
    """Make ``repro`` importable from the checkout; False when absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").exists():
        return False
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return True


class LayerWraps:
    """Installs span wrappers at the lookup sites one workload uses.

    ``sites`` are ``(owner, attribute, layer, name)`` tuples.  Calls to a
    site named ``dp_result`` additionally get the shared public
    :class:`repro.obs.PhaseProfiler` (``profile=``) and
    ``collect_stats=True``, so the DP phase times and candidate counts of
    the traced run add up here.  :meth:`remove` restores every original.
    """

    def __init__(self, recorder, sites: List[tuple]):
        from repro.obs import PhaseProfiler

        self.profiler = PhaseProfiler()
        self.generated = 0
        self.pruned = 0
        self._undo: List[Callable[[], None]] = []
        for owner, attr, layer, name in sites:
            hooks = (
                (self._before_dp, self._after_dp)
                if name == "dp_result" else (None, None)
            )
            self._undo.append(recorder.wrap(owner, attr, layer, name, *hooks))

    def _before_dp(self, args: tuple, kwargs: dict) -> None:
        kwargs["profile"] = self.profiler
        kwargs["collect_stats"] = True

    def _after_dp(self, result: Any) -> None:
        self.generated += result.stats.candidates_generated
        self.pruned += result.stats.candidates_pruned

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()
