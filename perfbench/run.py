#!/usr/bin/env python3
"""buffopt benchmark: ``paper``, ``power`` and ``service`` workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

``--workload all`` runs ``paper``, ``power`` and ``service`` one after
another, each in its own process.

Prints one JSON line of run metadata, then, as the last line, the
result: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced.
With ``--trace 1`` the run measures untraced first (for the tracing
overhead), then again with span wrappers installed (one pass for
``paper`` and ``power``), and prints the per-layer metrics.  Times
are host-normalised (``common.HostClock``); the metadata keeps them
raw too.  Exits 1 when
a correctness check fails and 2 when the checkout has no ``src/repro``
to run.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    OUT,
    ROOT,
    LayerWraps,
    add_src_path,
    median_ms,
    run_metadata,
    tail,
)
from spans import SpanRecorder  # noqa: E402

#: set-ups per run; the reported ``setup_s`` is their median.
SETUP_REPEATS = 5
SETUP_TIMEOUT = 120

#: metric name -> unit, as declared in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def workloads() -> Dict[str, Any]:
    from paper import Paper
    from power import Power
    from service import Service

    return {"paper": Paper, "power": Power, "service": Service}


def timed_setups(bench, args) -> list:
    """Cold start to ready, :data:`SETUP_REPEATS` times.

    A workload whose set-up starts its own process (the server) is timed
    in place.  Otherwise each set-up is a fresh interpreter that imports
    the library and builds the workload's inputs (``--setup-only``);
    the inputs are then built once more in this process for the run.
    The times returned are raw; see :func:`end_to_end`.
    """
    command = [
        sys.executable, __file__, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--setup-only",
    ]
    times = []
    for repeat in range(SETUP_REPEATS):
        t0 = perf_counter()
        if bench.starts_process:
            bench.setup(False)
        else:
            subprocess.run(command, check=True, timeout=SETUP_TIMEOUT)
        times.append(perf_counter() - t0)
        if bench.starts_process and repeat < SETUP_REPEATS - 1:
            bench.close()
    if not bench.starts_process:
        bench.setup(False)
    return times


def host_factor(run: Dict[str, Any]) -> float:
    """The run's normalised over raw latency: the host's mean speed."""
    return sum(run["latencies"]) / sum(run["raw_latencies"])


def end_to_end(run: Dict[str, Any], setups: list) -> tuple:
    net_tail = tail(run["net_seconds"])
    latency_tail = tail(run["latencies"])
    values = {
        # Set-up runs seconds before the measured run; it is scaled by
        # the host's speed over that run.
        "setup_s": statistics.median(setups) * host_factor(run),
        "nets_per_s": run["nets"] / run["work_s"],
        "net_p50_ms": median_ms(run["net_seconds"]),
        "net_tail_ms": net_tail["value_ms"],
        "latency_p50_ms": median_ms(run["latencies"]),
        "latency_tail_ms": latency_tail["value_ms"],
        "peak_rss_mb": run["peak_rss_mb"],
        **run["quality"],
    }
    sampling = {
        "setup_runs": len(setups),
        "net_samples": net_tail["samples"],
        "net_tail_percentile": net_tail["percentile"],
        "latency_samples": latency_tail["samples"],
        "latency_tail_percentile": latency_tail["percentile"],
    }
    return values, sampling


def per_layer(recorder: SpanRecorder, wraps: LayerWraps, run: Dict[str, Any]) -> Dict[str, float]:
    values = {name: 0.0 for name in PER_LAYER_UNITS}
    dp_s, dp_calls = recorder.totals("core", "dp_result")
    phases = wraps.profiler.phase_seconds
    values.update({
        "core.dp_s": dp_s,
        "core.dp_calls": dp_calls,
        "core.merge_s": phases["merge"],
        "core.buffering_s": phases["buffering"],
        "core.wire_s": phases["wire"],
        "core.prune_s": phases["prune"],
        "core.finalize_s": dp_s - sum(phases.values()),
        "core.candidates_generated": wraps.generated,
        "core.kept_frac": (
            1.0 - wraps.pruned / wraps.generated if wraps.generated else 0.0
        ),
        "noise.devgan_s": recorder.totals("noise")[0],
        "timing.elmore_s": recorder.totals("timing")[0],
        "tree.segment_s": recorder.totals("tree")[0],
        "workloads.generate_s": recorder.totals("workloads")[0],
        "batch.checkpoint_s": recorder.totals("batch", "checkpoint")[0],
    })
    values["analysis.detailed_s"], values["analysis.detailed_calls"] = (
        recorder.totals("analysis")
    )
    values["verify.certify_s"], values["verify.certify_calls"] = (
        recorder.totals("verify")
    )
    for phase, seconds in run.get("batch_phases", {}).items():
        values[f"batch.{phase}_s"] = seconds
    for name, value in run.get("service", {}).items():
        values[f"service.{name}"] = value
    return values


def as_metrics(values: Dict[str, float], units: Dict[str, str]) -> Dict[str, Any]:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper", "power", "service", "all"),
                        help="one workload, or all three one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not add_src_path():
        print("perfbench: no src/repro in this checkout; nothing to run",
              file=sys.stderr)
        return 2

    if args.workload == "all":
        return run_all(args)
    bench = workloads()[args.workload](args.seed)
    if args.setup_only:
        bench.setup(False)
        return 0
    meta = run_metadata(args.workload, args.seed, args.seconds, bool(args.trace))
    meta["python_hash_seed"] = os.environ.get("PYTHONHASHSEED")
    try:
        setups = timed_setups(bench, args)
        meta["engine"] = bench.engine()
        run = bench.measure(args.seconds)
        values, meta["sampling"] = end_to_end(run, setups)
        meta["raw"] = _raw_timings(run, setups)
        checks = dict(run["checks"])
        failed, attempted = run["failed"], run["attempted"]
        meta["fail_frac"] = failed / attempted
        meta["details"] = run.get("tables", {})
        metrics = as_metrics(values, END_TO_END_UNITS)
        if args.trace:
            recorder = SpanRecorder()
            wraps = LayerWraps(recorder, bench.wrap_sites())
            try:
                bench.setup(True)
                # A pass-based workload traces exactly one pass, so its
                # traced counts repeat exactly; the service's request
                # count is already fixed by its rate and run time.
                with recorder.span("bench", "measure"):
                    traced = bench.measure(
                        0.0 if bench.passes else args.seconds, recorder
                    )
            finally:
                wraps.remove()
            checks.update(traced.get("checks_traced", {}))
            checks.update({f"traced_{k}": v for k, v in traced["checks"].items()})
            failed += traced["failed"]
            attempted += traced["attempted"]
            meta["trace_overhead"] = statistics.median(
                traced["latencies"]
            ) / statistics.median(run["latencies"])
            meta["layers"] = _layer_accounting(recorder, traced)
            recorder.dump(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
            metrics = as_metrics(per_layer(recorder, wraps, traced), PER_LAYER_UNITS)
        meta["checks"] = checks
    finally:
        bench.close()

    correct = all(checks.values()) and failed == 0
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _raw_timings(run: Dict[str, Any], setups: list) -> Dict[str, Any]:
    """The untraced run's timings as measured, before host-normalising."""
    latencies = run["raw_latencies"]
    return {
        "setup_s": statistics.median(setups),
        "host_factor": host_factor(run),
        "wall_s": run["wall"],
        "nets_per_s": run["nets"] / run["wall"],
        "latency_p50_ms": median_ms(latencies),
        "latency_tail_ms": tail(latencies)["value_ms"],
        "host": run.get("host", {}),
    }


def run_all(args) -> int:
    """Each workload in its own process, serially; exit 1 if any fails."""
    failed = False
    for name in ("paper", "power", "service"):
        done = subprocess.run([
            sys.executable, __file__, "--workload", name, "--seed",
            str(args.seed), "--seconds", str(args.seconds), "--trace",
            str(args.trace),
        ])
        failed |= done.returncode != 0
    return 1 if failed else 0


def _layer_accounting(recorder: SpanRecorder, traced: Dict[str, Any]) -> Dict[str, Any]:
    """Self time per layer; the residual is time no layer span covers."""
    if "request_split_s" in traced:
        wall = traced["request_wall_s"]
        self_s = traced["request_split_s"]
        residual = traced["request_residual_s"]
    else:
        self_s = recorder.self_times()
        residual = self_s.pop("bench", 0.0)
        wall = recorder.totals("bench")[0]
    return {
        "wall_s": wall,
        "self_s": self_s,
        "residual_s": residual,
        "residual_frac": residual / wall,
    }


if __name__ == "__main__":
    # One hash seed for every process of a run (this one, its set-up
    # interpreters and the server): the Steiner builder names corner
    # nodes in an order that follows PYTHONHASHSEED, so answers are only
    # comparable node for node within one seed.  Each run still draws a
    # fresh seed unless the caller fixed one; the metadata records it.
    if "PYTHONHASHSEED" not in os.environ:
        os.environ["PYTHONHASHSEED"] = str(int.from_bytes(os.urandom(4), "little"))
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
