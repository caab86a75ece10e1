"""Pin the reference engine's power-off output to committed digests.

The reference engine is the only bit-exact implementation of the DP, so
its answers are pinned directly rather than against a second engine.
Each digest hashes every field of ``DPResult.outcomes`` (floats by their
exact hex spelling) plus the candidate counters that expose the kept
sets, over ``seeded_tree(seed, with_rats=True)`` for 30 seeds, in one
option set per mode: plain delay, noise-aware, pareto prune, polarity
free, capped count tracking and wire sizing.  A second digest pins the
per-node telemetry (generated, pruned, dead, frontier, merge forks) so a
change in the prune discipline shows even when the final frontier does
not move.

A changed digest means a changed answer: find the first differing net
with :func:`mode_records` or :func:`telemetry_records` before touching a
constant.
"""

import hashlib

import pytest

from repro import (
    CouplingModel,
    DPOptions,
    default_buffer_library,
    default_technology,
    run_dp,
)
from repro.core import WireSizingSpec
from repro.verify.treegen import seeded_tree

LIBRARY = default_buffer_library()
COUPLING = CouplingModel.estimation_mode(default_technology())

MODES = {
    "delay": {},
    "noise": {"noise_aware": True},
    "pareto": {"noise_aware": True, "prune": "pareto"},
    "polarity_free": {"noise_aware": True, "enforce_polarity": False},
    "count_tracking": {
        "noise_aware": True, "track_counts": True, "max_buffers": 3,
    },
    "wire_sizing": {"sizing": WireSizingSpec(widths=(1.0, 1.6))},
}

#: SHA-256 of :func:`mode_records` per mode, computed with the reference
#: engine before the prune kernels moved into ``repro.core.frontier``.
REFERENCE_DIGESTS = {
    "delay": (
        "b86d5961107d680fc2c0d921cc28396dc2da38797bb6ae648612cef55ca524c9"
    ),
    "noise": (
        "7088cf0966f314ce035473efdbd7b8d50a724ec73ae7a31976c5452aca3f139c"
    ),
    "pareto": (
        "9a245dc1b740dd8b2e1da9bc057dc39b9cfe7c1eb1c031127976b9f380a53124"
    ),
    "polarity_free": (
        "64531e66c2ec7a9afcaeb65f901c66d1351308c50ca90c3e1cb77337459d5fa1"
    ),
    "count_tracking": (
        "e36d01ece4ef18ce5136fcea932979a37d1f025806b36ace25cdf9cd1b830996"
    ),
    "wire_sizing": (
        "b8868d332bbe36b3fb390ce3b7585e43f4581fa31c42622fa10b056af28bb276"
    ),
}

#: SHA-256 of :func:`telemetry_records`, computed alongside the above.
REFERENCE_TELEMETRY_DIGEST = (
    "0257b4c347ba79eaf2d0e40b10b44493e7febffcdbb67b089584682575b2cf48"
)

SEEDS = range(30)


def _outcomes(result):
    return tuple(
        (
            o.buffer_count,
            o.slack.hex(),
            o.noise_feasible,
            tuple((i.node, i.buffer.name) for i in o.insertions),
            tuple((w.parent, w.child, w.width.hex()) for w in o.wire_choices),
        )
        for o in result.outcomes
    )


def mode_records(mode):
    """One canonical record per seeded net under ``MODES[mode]``."""
    for seed in SEEDS:
        result = run_dp(
            seeded_tree(seed, with_rats=True), LIBRARY, COUPLING,
            DPOptions(engine="reference", **MODES[mode]),
        )
        yield repr((
            seed,
            result.candidates_generated,
            result.candidates_kept_peak,
            _outcomes(result),
        ))


def telemetry_records():
    """Per-node telemetry of count-tracking runs, noise-aware and not."""
    for seed in range(20):
        tree = seeded_tree(seed, with_rats=True)
        for noise_aware in (False, True):
            result = run_dp(
                tree, LIBRARY, COUPLING,
                DPOptions(
                    engine="reference",
                    noise_aware=noise_aware,
                    track_counts=True,
                    collect_stats=True,
                ),
            )
            nodes = tuple(
                (n.name, n.generated, n.pruned, n.dead, n.frontier,
                 n.merge_forks)
                for n in sorted(result.stats.nodes, key=lambda n: n.name)
            )
            yield repr((seed, noise_aware, _outcomes(result), nodes))


def _digest(records):
    digest = hashlib.sha256()
    for record in records:
        digest.update(record.encode())
        digest.update(b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("mode", sorted(MODES))
def test_reference_outcomes_match_pinned_digest(mode):
    assert _digest(mode_records(mode)) == REFERENCE_DIGESTS[mode]


def test_reference_telemetry_matches_pinned_digest():
    result = run_dp(
        seeded_tree(0, with_rats=True), LIBRARY, COUPLING,
        DPOptions(track_counts=True, collect_stats=True),
    )
    assert result.stats.engine == "reference"
    assert _digest(telemetry_records()) == REFERENCE_TELEMETRY_DIGEST
