"""DPResult selection semantics: require_noise edges and tie-breaks.

These tests pin the max-slack tie-break and the ``require_noise=True``
paths on nets where no noise-feasible outcome exists at all.
"""

import pytest

from repro.api import Objective, dp_result
from repro.errors import InfeasibleError
from repro.tree import two_pin_net
from repro.units import FF, PS, UM


DELAY = Objective.legacy("delay")
#: max slack over noise-feasible outcomes only.
NOISE_BEST = Objective(mode="buffopt", selection="max-slack",
                       require_noise=True)
NOISE_FEWEST = Objective(mode="buffopt", selection="fewest-buffers",
                         require_noise=True)


@pytest.fixture
def frontier(tech, driver, library):
    """A delay-mode frontier with several buffer counts represented."""
    net = two_pin_net(
        tech, 7000 * UM, driver, sink_capacitance=25 * FF,
        noise_margin=0.8, required_arrival=1500 * PS, segments=5,
        name="frontier_host",
    )
    result = dp_result(net, library, objective=DELAY)
    assert len({o.buffer_count for o in result.outcomes}) >= 3
    return result


class TestRequireNoise:
    @pytest.fixture
    def hopeless(self, tech, driver, library, coupling):
        """A coupled net whose sink margin no insertion can satisfy."""
        net = two_pin_net(
            tech, 8000 * UM, driver, sink_capacitance=20 * FF,
            noise_margin=1e-9, required_arrival=2000 * PS, segments=4,
            name="hopeless_noise",
        )
        return dp_result(
            net, library, coupling, objective=Objective.legacy("buffopt")
        )

    def test_best_raises_without_noise_feasible_outcome(self, hopeless):
        with pytest.raises(InfeasibleError, match="no noise-feasible"):
            hopeless.select(NOISE_BEST)

    def test_fewest_and_cost_raise_too(self, hopeless):
        with pytest.raises(InfeasibleError):
            hopeless.select(NOISE_FEWEST)

    def test_noise_aware_run_has_empty_frontier(
        self, hopeless, tech, driver, library
    ):
        # the noise-aware engine prunes infeasible candidates outright,
        # so even require_noise=False cannot recover an outcome — the
        # remediation path is a delay-mode rerun
        assert hopeless.outcomes == ()
        with pytest.raises(InfeasibleError):
            hopeless.select(DELAY)
        net = two_pin_net(
            tech, 8000 * UM, driver, sink_capacitance=20 * FF,
            noise_margin=1e-9, required_arrival=2000 * PS, segments=4,
        )
        assert dp_result(net, library, objective=DELAY).select(
            DELAY
        ) is not None

    def test_best_tie_breaks_on_fewer_buffers(self, frontier):
        best = frontier.select(DELAY)
        for outcome in frontier.outcomes:
            assert outcome.slack <= best.slack
            if outcome.slack == best.slack:
                assert best.buffer_count <= outcome.buffer_count
