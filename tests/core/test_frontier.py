"""The shared frontier kernels: dominance rules and the first-seen tie rule.

Both engines feed these kernels key rows whose last slot is the
candidate; exact key ties must keep the first-seen candidate, which is
what keeps the reference engine bit-identical across refactors.
"""

from repro.core.frontier import (
    pareto_frontier,
    pareto_power_frontier,
    power_timing_frontier,
    select_root,
)


class TestPowerTimingFrontier:
    def test_drops_rows_with_no_better_slack_or_power(self):
        rows = [
            (2.0, 5.0, 1.0, "heavy-dominated"),
            (1.0, 5.0, 1.0, "light"),
            (2.0, 6.0, 2.0, "more-slack-more-power"),
            (3.0, 4.0, 0.5, "less-power"),
        ]
        assert power_timing_frontier(rows) == [
            "light", "more-slack-more-power", "less-power",
        ]

    def test_exact_tie_keeps_first_seen(self):
        rows = [(1.0, 2.0, 3.0, "first"), (1.0, 2.0, 3.0, "second")]
        assert power_timing_frontier(rows) == ["first"]


class TestParetoFrontiers:
    def test_four_field_keeps_noise_tradeoffs(self):
        # (load, -slack, current, -noise_slack, payload)
        rows = [
            (1.0, -5.0, 2.0, -1.0, "a"),
            (1.0, -5.0, 1.0, -1.0, "b"),   # dominates a on current
            (1.0, -6.0, 3.0, -2.0, "c"),   # more slack, worse current
        ]
        assert pareto_frontier(rows) == ["c", "b"]

    def test_five_field_keeps_power_tradeoffs(self):
        rows = [
            (1.0, -5.0, 1.0, -1.0, 2.0, "costly"),
            (1.0, -5.0, 1.0, -1.0, 1.0, "cheap"),
            (1.0, -6.0, 1.0, -1.0, 3.0, "fast-but-hungry"),
        ]
        assert pareto_power_frontier(rows) == ["fast-but-hungry", "cheap"]

    def test_exact_ties_keep_first_seen(self):
        assert pareto_frontier([
            (1.0, -2.0, 3.0, -4.0, "first"), (1.0, -2.0, 3.0, -4.0, "second"),
        ]) == ["first"]
        assert pareto_power_frontier([
            (1.0, -2.0, 3.0, -4.0, 5.0, "first"),
            (1.0, -2.0, 3.0, -4.0, 5.0, "second"),
        ]) == ["first"]


class TestSelectRoot:
    # (buffer_count, slack, power, payload)
    ENTRIES = [
        (1, 4.0, 2.0, "one-a"),
        (0, 1.0, 0.5, "zero"),
        (1, 4.0, 2.0, "one-tie"),
        (1, 5.0, 3.0, "one-b"),
        (1, 4.5, 3.5, "one-dominated"),
    ]

    def test_power_off_keeps_best_slack_per_count_first_seen(self):
        winners = select_root(self.ENTRIES, power_active=False)
        assert [w[3] for w in winners] == ["zero", "one-b"]
        tie = select_root(self.ENTRIES[:3], power_active=False)
        assert [w[3] for w in tie] == ["zero", "one-a"]

    def test_power_on_keeps_the_per_count_frontier_by_rising_power(self):
        winners = select_root(self.ENTRIES, power_active=True)
        assert [w[3] for w in winners] == ["zero", "one-a", "one-b"]
