"""Configuration selection over a measurement table: filter, then rank.

The selection procedure is filter-then-lexicographic-rank: drop cells that
violate the hard constraints (loss ceiling, minimum bandwidth), then order
the survivors by the configured metric list. Metric directions are fixed:
snr high-to-low, excess_loss low-to-high, rssi high-to-low. Exact metric
ties fall back to lower SF, then lower bandwidth, so results are fully
deterministic. The ranked cells are `dataset.evaluate_grid`'s own
(record, budget chain) pairs; `select_cr` pairs the winner with the best
coding rate of the table's CR sweep.
"""

from __future__ import annotations

import math

from .core_types import CodingRate, LinkParams, Value
from .dataset import MeasurementRecord, MeasurementTable, evaluate_grid, lookup
from .link_budget import LossBreakdown

RANK_METRICS = ("snr", "excess_loss", "rssi")


class NoFeasibleConfigError(ValueError):
    """Every grid cell was excluded by the hard constraints."""


class SelectionConstraints(Value):
    """Hard filters plus the metric ordering used to rank survivors.

    The default minimum bandwidth of 62.5 kHz excludes the two narrowest
    channels, which trade too much data rate for their sensitivity gain on
    links like the reference campaign; widen the search by lowering it.
    """

    __slots__ = ("max_loss_pct", "min_bw_hz", "tie_break_order")

    def __init__(self, max_loss_pct: float = 0.0, min_bw_hz: float = 62500.0,
                 tie_break_order: tuple[str, ...] = RANK_METRICS) -> None:
        if not 0 <= max_loss_pct <= 100:
            raise ValueError(f"max_loss_pct={max_loss_pct!r} outside [0, 100]")
        if not 0 < min_bw_hz < math.inf:
            raise ValueError(f"min_bw_hz must be positive and finite, got {min_bw_hz!r}")
        if not tie_break_order:
            raise ValueError("tie_break_order must not be empty")
        unknown = [m for m in tie_break_order if m not in RANK_METRICS]
        if unknown:
            raise ValueError(
                f"unknown tie-break metric(s) {unknown}; valid: {', '.join(RANK_METRICS)}"
            )
        if len(set(tie_break_order)) != len(tie_break_order):
            raise ValueError("tie_break_order must not repeat metrics")
        self._store(max_loss_pct, min_bw_hz, tie_break_order)


def _rank_key(cell: tuple[MeasurementRecord, LossBreakdown], order: tuple[str, ...]):
    record, budget = cell
    metrics = {"snr": -record.snr_db, "excess_loss": budget.excess_db, "rssi": -record.rssi_dbm}
    return (*(metrics[metric] for metric in order), record.sf, record.bw_hz)


def recommend_sf_bw(
    table: MeasurementTable, link: LinkParams, constraints: SelectionConstraints | None = None
) -> list[tuple[MeasurementRecord, LossBreakdown]]:
    """The feasible cells of a complete measurement grid, best first.

    Each cell is the (record, budget chain) pair of `evaluate_grid`; the
    recommended (SF, BW) is the record of element [0]. Use `select_cr` for
    the coding rate to pair with it.
    """
    constraints = constraints if constraints is not None else SelectionConstraints()
    cells = evaluate_grid(table, link, require=("loss_pct",))
    feasible = [
        (record, budget)
        for record, budget in cells
        if record.loss_pct <= constraints.max_loss_pct and record.bw_hz >= constraints.min_bw_hz
    ]
    if not feasible:
        loss_ok = sum(1 for record, _ in cells if record.loss_pct <= constraints.max_loss_pct)
        bw_ok = sum(1 for record, _ in cells if record.bw_hz >= constraints.min_bw_hz)
        if loss_ok == 0:
            binding = f"max_loss_pct={constraints.max_loss_pct}"
        elif bw_ok == 0:
            binding = f"min_bw_hz={constraints.min_bw_hz}"
        else:
            binding = (
                f"combination (max_loss_pct={constraints.max_loss_pct} leaves {loss_ok}, "
                f"min_bw_hz={constraints.min_bw_hz} leaves {bw_ok}, intersection empty)"
            )
        raise NoFeasibleConfigError(f"no feasible configuration; binding constraint: {binding}")
    return sorted(feasible, key=lambda cell: _rank_key(cell, constraints.tie_break_order))


def select_cr(
    table: MeasurementTable, winner_sf: int, winner_bw_hz: float
) -> tuple[CodingRate, tuple[int, float] | None]:
    """Coding rate to pair with a chosen (SF, BW), plus where it came from.

    The basis is a CR sweep at the winning cell if there is one; otherwise
    the table's sole swept cell (campaigns typically sweep CR at one
    configuration only), or the lowest (sf, bw) one if several cells were
    swept. Within the basis cell the best SNR wins; exact ties go to the
    lower rate, then the smaller numerator. With no sweep at all, the
    winner row's effective CR is used. The second element is the
    (sf, bw_hz) basis cell, or None for the fallback.
    """
    sweeps: dict[tuple[int, float], list[MeasurementRecord]] = {}
    for record in table:
        if record.cr is not None:
            sweeps.setdefault((record.sf, record.bw_hz), []).append(record)
    if not sweeps:
        return lookup(table, winner_sf, winner_bw_hz).effective_cr, None
    basis = (winner_sf, winner_bw_hz) if (winner_sf, winner_bw_hz) in sweeps else min(sweeps)
    best = min(sweeps[basis], key=lambda r: (-r.snr_db, r.cr.ratio, r.cr.num))
    return best.cr, basis
