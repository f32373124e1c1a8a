"""Configuration selection over a measurement table: filter, then rank.

The selection procedure is filter-then-lexicographic-rank: drop cells that
violate the hard constraints (loss ceiling, minimum bandwidth), then order
the survivors by the configured metric list. Metric directions are fixed:
snr high-to-low, excess_loss low-to-high, rssi high-to-low. Exact metric
ties fall back to lower SF, then lower bandwidth, so results are fully
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core_types import CodingRate, LinkParams, hz_to_khz_str
from .dataset import MeasurementTable, MissingCellError, evaluate_grid, lookup

RANK_METRICS = ("snr", "excess_loss", "rssi")


class NoFeasibleConfigError(ValueError):
    """Every grid cell was excluded by the hard constraints."""


@dataclass(frozen=True)
class SelectionConstraints:
    """Hard filters plus the metric ordering used to rank survivors.

    The default minimum bandwidth of 62.5 kHz excludes the two narrowest
    channels, which trade too much data rate for their sensitivity gain on
    links like the reference campaign; widen the search by lowering it.
    """

    max_loss_pct: float = 0.0
    min_bw_hz: float = 62500.0
    tie_break_order: tuple[str, ...] = RANK_METRICS

    def __post_init__(self) -> None:
        if not 0 <= self.max_loss_pct <= 100:
            raise ValueError(f"max_loss_pct={self.max_loss_pct!r} outside [0, 100]")
        if self.min_bw_hz <= 0:
            raise ValueError(f"min_bw_hz must be positive, got {self.min_bw_hz!r}")
        if not self.tie_break_order:
            raise ValueError("tie_break_order must not be empty")
        unknown = [m for m in self.tie_break_order if m not in RANK_METRICS]
        if unknown:
            raise ValueError(
                f"unknown tie-break metric(s) {unknown}; valid: {', '.join(RANK_METRICS)}"
            )
        if len(set(self.tie_break_order)) != len(self.tie_break_order):
            raise ValueError("tie_break_order must not repeat metrics")


@dataclass(frozen=True)
class CellScore:
    """One feasible grid cell with every ranking metric attached."""

    sf: int
    bw_hz: float
    cr: CodingRate
    rssi_dbm: float
    snr_db: float
    loss_pct: float
    excess_db: float


@dataclass(frozen=True)
class Recommendation:
    """The winning cell plus the remaining feasible cells in rank order."""

    sf: int
    bw_hz: float
    cr: CodingRate
    rssi_dbm: float
    snr_db: float
    loss_pct: float
    excess_db: float
    runners_up: tuple[CellScore, ...] = field(default_factory=tuple)


def _rank_key(cell: CellScore, order: tuple[str, ...]):
    parts: list[float] = []
    for metric in order:
        if metric == "snr":
            parts.append(-cell.snr_db)
        elif metric == "excess_loss":
            parts.append(cell.excess_db)
        elif metric == "rssi":
            parts.append(-cell.rssi_dbm)
    parts.append(cell.sf)
    parts.append(cell.bw_hz)
    return tuple(parts)


def recommend_sf_bw(
    table: MeasurementTable, link: LinkParams, constraints: SelectionConstraints | None = None
) -> Recommendation:
    """Pick the best (SF, BW) cell of a complete measurement grid."""
    constraints = constraints if constraints is not None else SelectionConstraints()
    cells = [
        CellScore(record.sf, record.bw_hz, record.effective_cr, record.rssi_dbm,
                  record.snr_db, record.loss_pct, breakdown.excess_db)
        for record, breakdown in evaluate_grid(table, link, require=("loss_pct",))
    ]
    feasible = [
        c
        for c in cells
        if c.loss_pct <= constraints.max_loss_pct and c.bw_hz >= constraints.min_bw_hz
    ]
    if not feasible:
        loss_ok = sum(1 for c in cells if c.loss_pct <= constraints.max_loss_pct)
        bw_ok = sum(1 for c in cells if c.bw_hz >= constraints.min_bw_hz)
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
    ranked = sorted(feasible, key=lambda c: _rank_key(c, constraints.tie_break_order))
    winner = ranked[0]
    return Recommendation(
        sf=winner.sf,
        bw_hz=winner.bw_hz,
        cr=winner.cr,
        rssi_dbm=winner.rssi_dbm,
        snr_db=winner.snr_db,
        loss_pct=winner.loss_pct,
        excess_db=winner.excess_db,
        runners_up=tuple(ranked[1:]),
    )


def recommend_cr(table: MeasurementTable, at_sf: int, at_bw_hz: float) -> CodingRate:
    """Best coding rate among the explicit CR-sweep records at one cell.

    Maximum SNR wins; exact ties break toward the smaller numerator.
    """
    sweep = [
        record
        for record in table
        if record.sf == at_sf and record.bw_hz == at_bw_hz and record.cr is not None
    ]
    if not sweep:
        raise MissingCellError(
            f"no coding-rate sweep records at sf={at_sf}, bw_khz={hz_to_khz_str(at_bw_hz)}"
        )
    best = min(sweep, key=lambda r: (-r.snr_db, r.cr.ratio, r.cr.num))
    return best.cr


def select_cr(
    table: MeasurementTable, winner_sf: int, winner_bw_hz: float
) -> tuple[CodingRate, tuple[int, float] | None]:
    """Coding rate to pair with a chosen (SF, BW), plus where it came from.

    Prefers a CR sweep at the winning cell; otherwise uses the table's sole
    swept cell (campaigns typically sweep CR at one configuration only); if
    several cells were swept, the lowest (sf, bw) one wins; with no sweep at
    all, falls back to the winner row's effective CR. The second element is
    the (sf, bw_hz) cell the sweep came from, or None for the fallback.
    """
    swept_cells = sorted({(r.sf, r.bw_hz) for r in table if r.cr is not None})
    if (winner_sf, winner_bw_hz) in swept_cells:
        basis = (winner_sf, winner_bw_hz)
    elif swept_cells:
        basis = swept_cells[0]
    else:
        return lookup(table, winner_sf, winner_bw_hz).effective_cr, None
    return recommend_cr(table, basis[0], basis[1]), basis
