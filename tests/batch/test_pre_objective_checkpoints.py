"""Checkpoints written before the Objective API still resume.

The journals under ``data/`` were written by a build whose batch and
fleet configs still took a ``mode`` string and a ``min_slack`` float,
then cut short so they look interrupted:

* ``batch_delay.jsonl`` — ``BatchConfig(mode="delay")``, 3 of 6 nets;
* ``batch_buffopt_min_slack.jsonl`` — ``BatchConfig(mode="buffopt",
  min_slack=2e-10)``, 3 of 6 nets (the slack floor changes the answer
  on three of the six nets, two journaled and one still to compute);
* ``fleet_delay.jsonl`` — a delay-mode ``FleetCoordinator`` run over 8
  nets, two closed price rounds plus half of the third round's nets.

Each header carries the literal fingerprint dict pinned below.  Resumed
with the ``Objective`` spelling, every journal must pass the fingerprint
check and finish bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.api import Objective
from repro.batch import BatchConfig, BatchOptimizer, read_checkpoint_header
from repro.fleet import FleetConfig, FleetCoordinator, PriceSchedule
from repro.units import PS
from repro.workloads import WorkloadConfig, population_specs

DATA = Path(__file__).resolve().parent / "data"

#: (journal, objective, workload, literal pre-objective fingerprint)
BATCH_CASES = [
    (
        "batch_delay.jsonl",
        Objective.legacy("delay"),
        WorkloadConfig(nets=6, seed=31),
        {
            "mode": "delay", "max_segment_length": 0.0005,
            "max_buffers": None, "prune": "timing", "min_slack": 0.0,
            "certify": False, "workload_seed": 31, "workload_nets": 6,
        },
    ),
    (
        "batch_buffopt_min_slack.jsonl",
        Objective.legacy("buffopt", min_slack=2e-10),
        WorkloadConfig(nets=6, seed=32),
        {
            "mode": "buffopt", "max_segment_length": 0.0005,
            "max_buffers": None, "prune": "timing", "min_slack": 2e-10,
            "certify": False, "workload_seed": 32, "workload_nets": 6,
        },
    ),
]

FLEET_WORKLOAD = WorkloadConfig(nets=8, seed=23)
FLEET_FINGERPRINT = {
    "mode": "delay", "max_segment_length": 0.0005, "max_buffers": None,
    "prune": "timing", "min_slack": 0.0, "certify": False,
    "workload_seed": 23, "sites_per_family": 4, "families": 1,
    "capacities": [1, 1, 1, 1], "salt": "dc18bc15a5100db1",
    "max_rounds": 20, "step": 2e-12, "growth": 1.0, "patience": 2,
}


def _journal_copy(tmp_path, name):
    path = tmp_path / name
    shutil.copyfile(DATA / name, path)
    return path


def _records(path, kind):
    lines = path.read_text().splitlines()[1:]
    return [r for r in map(json.loads, lines) if r["kind"] == kind]


@pytest.mark.parametrize(
    "name, objective, workload, fingerprint", BATCH_CASES,
    ids=[case[0] for case in BATCH_CASES],
)
def test_batch_journal_resumes_bit_identically(
    tmp_path, name, objective, workload, fingerprint
):
    path = _journal_copy(tmp_path, name)
    assert read_checkpoint_header(path)["fingerprint"] == fingerprint
    journaled = {r["name"] for r in _records(path, "result")}
    assert 0 < len(journaled) < workload.nets

    def optimizer():
        return BatchOptimizer(
            config=BatchConfig(objective=objective, keep_trees=False),
            workload=workload,
        )

    assert optimizer()._fingerprint() == fingerprint
    specs = population_specs(workload)
    resumed = optimizer().optimize(specs, checkpoint=path, resume=True)
    baseline = optimizer().optimize(specs)
    assert resumed.signatures() == baseline.signatures()
    assert {r["name"] for r in _records(path, "result")} == {
        spec.name for spec in specs
    }


def _coordinator():
    return FleetCoordinator(
        config=FleetConfig(
            batch=BatchConfig(
                objective=Objective.legacy("delay"), keep_trees=False
            ),
            sites_per_family=4,
            base_capacity=1,
            max_rounds=20,
            schedule=PriceSchedule(step=2 * PS, growth=1.0),
        ),
        workload=FLEET_WORKLOAD,
    )


def test_fleet_journal_resumes_bit_identically(tmp_path):
    path = _journal_copy(tmp_path, "fleet_delay.jsonl")
    assert read_checkpoint_header(path)["fingerprint"] == FLEET_FINGERPRINT
    interrupted = len(_records(path, "round"))
    assert interrupted == 2

    specs = population_specs(FLEET_WORKLOAD)
    coordinator = _coordinator()
    assert coordinator._fingerprint(
        coordinator.site_map_for(specs)
    ) == FLEET_FINGERPRINT
    resumed = _coordinator().coordinate(specs, checkpoint=path, resume=True)
    baseline = _coordinator().coordinate(specs)

    assert len(baseline.rounds) > interrupted
    assert resumed.signatures() == baseline.signatures()
    assert resumed.rounds == baseline.rounds
    assert resumed.prices == baseline.prices
    assert resumed.primal_total == baseline.primal_total
    assert len(_records(path, "round")) == len(baseline.rounds)


def test_non_legacy_objectives_fingerprint_their_block():
    """Only objectives the old schema could not express add a key."""
    workload = WorkloadConfig(nets=4, seed=11)
    legacy = BatchOptimizer(
        config=BatchConfig(objective=Objective.legacy("delay")),
        workload=workload,
    )._fingerprint()
    assert "objective" not in legacy
    modern = BatchOptimizer(
        config=BatchConfig(objective=Objective(
            mode="delay", selection="min-power"
        )),
        workload=workload,
    )._fingerprint()
    assert modern["objective"] == {"mode": "delay", "selection": "min-power"}
