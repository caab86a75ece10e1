"""Pin the reference engine's power-on output to a committed digest.

The reference engine is the bit-identity anchor: with a power model live
its per-count (slack, power) frontiers must not move when the prune
kernels or the root selection are refactored.  This test hashes every
field of ``DPResult.outcomes`` (floats by their exact hex spelling),
plus the candidate counters that expose the kept sets, over a seeded
family of nets:

* ``seeded_tree(seed, max_internal=4)`` for 40 seeds, unsegmented,
  with and without count tracking;
* ``seeded_tree(seed, max_internal=2)`` for 12 seeds, cut into 2 mm
  segments so the power frontiers grow past a handful of candidates.

Each net runs under both prune rules (``"timing"`` and ``"pareto"``);
noise-aware and plain runs have a digest each.  A changed digest means a
changed answer: find the first differing net with :func:`family_records`
before touching a constant.
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
from repro.library.power import default_power_model
from repro.tree.segmenting import segment_tree
from repro.units import MM
from repro.verify.treegen import seeded_tree

LIBRARY = default_buffer_library()
SILENT = CouplingModel.silent()
COUPLING = CouplingModel.estimation_mode(default_technology())
POWER = default_power_model()

#: SHA-256 of :func:`family_records`, keyed by ``noise_aware``, computed
#: with the reference engine before the prune kernels moved into
#: ``repro.core.frontier``.
REFERENCE_POWER_DIGESTS = {
    False: (
        "bbcc4090aa536353f8638c3b9eb162b4e6bc6701adbf06e3a963e47b9dfdf784"
    ),
    True: (
        "b8651670554dd10bbcc9f982e498711f49aaa643e6de625764e7b5358099a3e8"
    ),
}


def _nets():
    for seed in range(40):
        tree = seeded_tree(seed, max_internal=4, with_rats=True)
        yield f"plain{seed}", tree, (False, True)
    for seed in range(12):
        tree = segment_tree(
            seeded_tree(seed, max_internal=2, with_rats=True), 2 * MM
        )
        yield f"seg{seed}", tree, (True,)


def _record(label, prune, noise_aware, track, result):
    return repr((
        label,
        prune,
        noise_aware,
        track,
        result.candidates_generated,
        result.candidates_kept_peak,
        tuple(
            (
                o.buffer_count,
                o.slack.hex(),
                o.noise_feasible,
                o.power.hex(),
                tuple((i.node, i.buffer.name) for i in o.insertions),
            )
            for o in result.outcomes
        ),
    ))


def family_records(noise_aware):
    """One canonical record per (net, prune, tracking) run."""
    for label, tree, tracks in _nets():
        for prune in ("timing", "pareto"):
            for track in tracks:
                result = run_dp(
                    tree, LIBRARY, COUPLING if noise_aware else SILENT,
                    DPOptions(
                        engine="reference",
                        prune=prune,
                        noise_aware=noise_aware,
                        track_counts=track,
                        power=POWER,
                    ),
                )
                yield _record(label, prune, noise_aware, track, result)


def family_digest(noise_aware):
    digest = hashlib.sha256()
    for record in family_records(noise_aware):
        digest.update(record.encode())
        digest.update(b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("noise_aware", [False, True])
def test_reference_power_outcomes_match_pinned_digest(noise_aware):
    assert family_digest(noise_aware) == REFERENCE_POWER_DIGESTS[noise_aware]
