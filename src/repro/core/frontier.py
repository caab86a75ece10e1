"""Frontier kernels shared by the reference and lishi DP engines.

Both engines keep candidates in their own shape — frozen
:class:`~repro.core.dp.DPCandidate` records in the reference engine,
flat tuples under lazy wire offsets in the lishi engine — but they apply
the same dominance rules and the same root selection.  Those rules live
here, once, over *key rows*: each engine extracts the comparison fields
of a candidate into a tuple whose last slot is the candidate itself (the
payload), and the kernel returns the payloads it keeps.

The prune kernels sort on the key fields only, with Python's stable
sort, so candidates whose keys tie exactly keep their input order and
the first-seen one wins.  That tie rule is what keeps the reference
engine's output bit-identical across refactors (pinned by the digests
in ``tests/core/test_reference_digest.py`` and
``tests/core/test_power_digest.py``).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Sequence, Tuple

#: ``(load, slack, power, payload)``
PowerTimingRow = Tuple[float, float, float, Any]
#: ``(load, -slack, current, -noise_slack, payload)``
ParetoRow = Tuple[float, float, float, float, Any]
#: ``(load, -slack, current, -noise_slack, power, payload)``
ParetoPowerRow = Tuple[float, float, float, float, float, Any]
#: ``(buffer_count, slack, power, payload)``
RootEntry = Tuple[int, float, float, Any]


def _power_timing_key(row: PowerTimingRow) -> Tuple[float, float, float]:
    return (row[0], -row[1], row[2])


def _pareto_key(row: ParetoRow) -> Tuple[float, float, float, float]:
    return row[:4]


def _pareto_power_key(row: ParetoPowerRow) -> Tuple[float, ...]:
    return row[:5]


def power_timing_frontier(rows: List[PowerTimingRow]) -> List[Any]:
    """(load, slack, power) dominance — the timing rule's power axis.

    Sorted by load ascending (then falling slack, rising power), every
    kept row already has load <= the scanned one, so dominance reduces
    to finding a kept row with slack >= and power <= — a staircase in
    the (slack, power) plane.  The kept list is scanned linearly: power
    frontiers stay small enough that this beats fancier structures.
    Sorts ``rows`` in place.
    """
    rows.sort(key=_power_timing_key)
    kept: List[PowerTimingRow] = []
    for row in rows:
        slack = row[1]
        power = row[2]
        for other in kept:
            if other[1] >= slack and other[2] <= power:
                break
        else:
            kept.append(row)
    return [row[3] for row in kept]


def pareto_frontier(rows: List[ParetoRow]) -> List[Any]:
    """4-field dominance over (load, slack, current, noise slack).

    Slack and noise slack arrive negated, so one ``<=`` per field tests
    dominance; negation is exact in IEEE arithmetic.  Sorts ``rows`` in
    place.
    """
    rows.sort(key=_pareto_key)
    kept: List[ParetoRow] = []
    for row in rows:
        load, neg_slack, current, neg_ns = row[0], row[1], row[2], row[3]
        for other in kept:
            if (
                other[0] <= load
                and other[1] <= neg_slack
                and other[2] <= current
                and other[3] <= neg_ns
            ):
                break
        else:
            kept.append(row)
    return [row[4] for row in kept]


def pareto_power_frontier(rows: List[ParetoPowerRow]) -> List[Any]:
    """5-field dominance: :func:`pareto_frontier` plus the power axis."""
    rows.sort(key=_pareto_power_key)
    kept: List[ParetoPowerRow] = []
    for row in rows:
        for other in kept:
            if (
                other[0] <= row[0]
                and other[1] <= row[1]
                and other[2] <= row[2]
                and other[3] <= row[3]
                and other[4] <= row[4]
            ):
                break
        else:
            kept.append(row)
    return [row[5] for row in kept]


def select_root(
    entries: Iterable[RootEntry], power_active: bool
) -> Sequence[RootEntry]:
    """The finalized root candidates a :class:`~repro.core.dp.DPResult` keeps.

    ``entries`` are the noise- and polarity-legal source candidates in
    engine order, already charged the driver delay.  Without power the
    winner per buffer count is the best slack (first seen wins ties);
    with power it is the per-count (slack, power) frontier, ordered by
    rising power (and hence rising slack) within each count.  Winners
    come back ordered by count, so the engine materializes only them.
    """
    if power_active:
        per_count: Dict[int, List[RootEntry]] = {}
        for entry in entries:
            per_count.setdefault(entry[0], []).append(entry)
        frontier: List[RootEntry] = []
        for count in sorted(per_count):
            best_seen = -math.inf
            for entry in sorted(
                per_count[count], key=lambda e: (e[2], -e[1])
            ):
                if entry[1] > best_seen:
                    frontier.append(entry)
                    best_seen = entry[1]
        return frontier
    best: Dict[int, RootEntry] = {}
    for entry in entries:
        kept = best.get(entry[0])
        if kept is None or entry[1] > kept[1]:
            best[entry[0]] = entry
    return [best[count] for count in sorted(best)]
