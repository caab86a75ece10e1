"""The Objective API: the one way to state what to optimize.

* the :class:`~repro.core.objective.Objective` grammar —
  ``parse``/``describe`` round-trips, ``to_json``/``from_json`` with
  unknown-key rejection, the exact legacy mapping;
* ``BatchConfig`` carries exactly one objective: no ``mode`` /
  ``min_slack`` twins to disagree with it, and no pareto selection.

Pre-objective checkpoints resuming under the objective spelling are
pinned by ``tests/batch/test_pre_objective_checkpoints.py``.
"""

import pytest

from repro.batch.optimizer import BatchConfig
from repro.core.objective import (
    OBJECTIVE_MODES,
    POWER_SELECTIONS,
    SELECTION_RULES,
    Objective,
)
from repro.errors import WorkloadError


class TestGrammar:
    def test_bare_mode_is_the_legacy_objective(self):
        for mode in OBJECTIVE_MODES:
            assert Objective.parse(mode) == Objective.legacy(mode)
            assert Objective.parse(mode).is_legacy()

    @pytest.mark.parametrize("spec", [
        "buffopt/min-power",
        "delay/power-capped/power_cap=0.0002",
        "delay/max-slack/min_slack=0.1/require_noise=false",
        "buffopt/pareto",
        "buffopt/fewest-buffers/min_slack=1e-11",
    ])
    def test_describe_parse_round_trip(self, spec):
        objective = Objective.parse(spec)
        assert Objective.parse(objective.describe()) == objective

    @pytest.mark.parametrize("bad", [
        "",
        "noise",
        "buffopt/min-power/max-slack",
        "buffopt/unknown-rule",
        "buffopt/min_slack=abc",
        "buffopt/require_noise=maybe",
        "buffopt/frobnicate=1",
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            Objective.parse(bad)

    def test_json_round_trip_and_unknown_key_rejection(self):
        objective = Objective(
            mode="buffopt", selection="power-capped", power_cap=2e-4
        )
        payload = objective.to_json()
        assert Objective.from_json(payload) == objective
        payload["surprise"] = 1
        with pytest.raises(ValueError, match="surprise"):
            Objective.from_json(payload)

    @pytest.mark.parametrize("kwargs, match", [
        (dict(mode="warp"), "mode"),
        (dict(mode="delay", selection="sparkle"), "selection"),
        (dict(mode="delay", min_slack="soon"), "min_slack"),
        (dict(mode="delay", selection="power-capped",
              power_cap="lots"), "power_cap"),
        (dict(mode="delay", selection="power-capped",
              power_cap=-1.0), "power_cap"),
        (dict(mode="delay", selection="min-power",
              power_cap=1.0), "power_cap"),
        (dict(mode="delay", selection="power-capped"), "power_cap"),
        (dict(mode="delay", require_noise="yes"), "require_noise"),
    ])
    def test_constructor_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            Objective(**kwargs)

    def test_legacy_rejects_unknown_modes(self):
        with pytest.raises(ValueError, match="legacy"):
            Objective.legacy("noise")

    def test_from_json_validates_field_types(self):
        with pytest.raises(ValueError, match="min_slack"):
            Objective.from_json(
                {"mode": "delay", "selection": "max-slack",
                 "min_slack": "abc"}
            )
        with pytest.raises(ValueError, match="require_noise"):
            Objective.from_json(
                {"mode": "delay", "selection": "max-slack",
                 "require_noise": "sometimes"}
            )
        with pytest.raises(ValueError):
            Objective.from_json("delay/max-slack")

    def test_power_selections_are_flagged_power_aware(self):
        for selection in SELECTION_RULES:
            objective = Objective(
                mode="delay",
                selection=selection,
                power_cap=1.0 if selection == "power-capped" else None,
            )
            assert objective.power_aware == (selection in POWER_SELECTIONS)


class TestBatchConfigObjective:
    def test_conflicting_mode_and_objective_rejected(self):
        # One objective, no twins: a config cannot carry a mode or slack
        # floor that disagrees with (or silently loses to) its objective.
        with pytest.raises(TypeError, match="mode"):
            BatchConfig(mode="delay", objective=Objective.legacy("buffopt"))
        with pytest.raises(TypeError, match="min_slack"):
            BatchConfig(objective=Objective.parse("buffopt"), min_slack=0.2)

    def test_pareto_objective_rejected(self):
        with pytest.raises(WorkloadError, match="pareto"):
            BatchConfig(
                objective=Objective(mode="buffopt", selection="pareto")
            )
