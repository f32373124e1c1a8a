"""Checks of the program's outputs against the references in `reference`.

Each check raises CheckFailed naming the first line that disagrees.
Numbers the program prints rounded must lie within half a unit of the
last printed digit of the reference value; numbers it echoes from the
fixture must equal the fixture value.
"""

from __future__ import annotations

import re
from itertools import zip_longest
from pathlib import Path
from typing import Iterable, Iterator

import reference as ref


_VERDICT = re.compile(
    r"# max_deviation_db=(\S+) cell=sf=(\d+),bw_khz=(\S+) tolerance_db=(\S+) verdict=(PASS|FAIL)"
)


class CheckFailed(Exception):
    """A program output disagrees with its reference or breaks a property."""


def body_lines(path: Path) -> Iterator[str]:
    """Lines of a file without '#' comment lines (the echoed manifest)."""
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.startswith("#"):
                yield line.rstrip("\n")


def _same_lines(what: str, got: Iterable[str], want: Iterable[str]) -> None:
    for number, (line, expected) in enumerate(zip_longest(got, want), start=1):
        if line != expected:
            raise CheckFailed(f"{what} line {number}: program {line!r}, reference {expected!r}")


def _near(printed: str, value: float, decimals: int, what: str) -> None:
    if not abs(float(printed) - value) <= 0.5 * 10.0**-decimals + 1e-9:
        raise CheckFailed(f"{what}: printed {printed}, reference {value!r}")


def _equal(printed: str, value: float, what: str) -> None:
    if float(printed) != value:
        raise CheckFailed(f"{what}: printed {printed}, fixture {value!r}")


def _fields(line: str) -> dict[str, str]:
    return dict(item.split("=", 1) for item in line.split())


def _body(text: str, kind: str) -> list[str]:
    lines = text.splitlines()
    if not lines or not lines[0].startswith(f"# manifest {kind} "):
        raise CheckFailed(f"{kind}: output does not start with its manifest")
    return [line for line in lines if not line.startswith("#")]


def check_report(path: Path, timeline: ref.Timeline, drops: list[str], seed: int) -> None:
    """The report body equals the reference writer's, byte for byte, and
    has the properties of `check_report_properties`."""
    _same_lines("report", body_lines(path), ref.report_lines(timeline, drops, seed))
    check_report_properties(path, timeline)


def check_report_properties(path: Path, timeline: ref.Timeline) -> None:
    """Timestamps never decrease, each node is sent exactly the slots the
    schedule gives it, received + lost = sent, and the summary counts
    match the rx_ok/rx_drop events."""
    last_t = -1
    outcomes: dict[tuple[str, str], int] = {}
    position = 0
    for line in body_lines(path):
        parts = line.split()
        if parts[0] != "node":
            t_ns = int(parts[0])
            if t_ns < last_t:
                raise CheckFailed(f"report: timestamp {t_ns} after {last_t}")
            last_t = t_ns
            outcomes[parts[2], parts[1]] = outcomes.get((parts[2], parts[1]), 0) + 1
            continue
        tag = parts[1]
        if tag != ref.sync_tag(position):
            raise CheckFailed(f"report: summary line {position + 1} is for {tag}, "
                              f"the schedule's node is {ref.sync_tag(position)}")
        summary = _fields(" ".join(parts[2:]))
        sent, received, lost = (int(summary[k]) for k in ("sent", "received", "lost"))
        if sent != timeline.slots_of(position):
            raise CheckFailed(f"node {tag}: sent={sent}, the schedule gives it "
                              f"{timeline.slots_of(position)} slots")
        if received + lost != sent:
            raise CheckFailed(f"node {tag}: received + lost != sent")
        if (received, lost) != (outcomes.get((tag, "rx_ok"), 0), outcomes.get((tag, "rx_drop"), 0)):
            raise CheckFailed(f"node {tag}: summary disagrees with its rx_ok/rx_drop events")
        position += 1
    if position != timeline.nodes:
        raise CheckFailed(f"report: {position} summary lines for {timeline.nodes} nodes")


def check_uplink(path: Path, report: Path, key_map: dict[str, tuple[str, int]],
                 epoch_s: int) -> None:
    """The dry-run log equals the reference request lines, and its
    created_at stamps never decrease."""
    _same_lines("uplink log", body_lines(path),
                ref.request_lines(body_lines(report), key_map, epoch_s))
    check_uplink_properties(path)


def check_uplink_properties(path: Path) -> None:
    last = ""
    for line in body_lines(path):
        stamp = line.rpartition("created_at=")[2]
        if stamp < last:
            raise CheckFailed(f"uplink log: created_at {stamp} after {last}")
        last = stamp


def check_budget(text: str, values: dict[str, float]) -> None:
    body = _body(text, "budget")
    names = [("esp_dbm", "esp"), ("path_loss_db", "path_loss"), ("fsl_db", "fsl"),
             ("excess_db", "excess")]
    if len(body) != len(names):
        raise CheckFailed(f"budget: {len(body)} result lines, expected {len(names)}")
    for line, (printed_name, name) in zip(body, names):
        key, _, value = line.partition("=")
        if key != printed_name:
            raise CheckFailed(f"budget: line {line!r}, expected {printed_name}=")
        _near(value, values[name], 3, f"budget {printed_name}")


def check_sweep(text: str, metric: str, grid: dict, link: ref.Link) -> None:
    body = _body(text, "sweep")
    if body[:1] != [f"sf,bw_khz,{metric}"] or len(body) != 37:
        raise CheckFailed(f"sweep {metric}: bad header or {len(body) - 1} rows")
    cells = [grid[(sf, bw)] for bw in ref.BW_ORDER for sf in ref.SF_ORDER]
    for line, cell in zip(body[1:], cells):
        sf, bw, value = line.split(",")
        what = f"sweep {metric} sf={cell.sf} bw_khz={cell.bw}"
        if (int(sf), bw) != (cell.sf, cell.bw):
            raise CheckFailed(f"{what}: row {line!r} out of order")
        if metric in ("rssi", "snr", "loss"):
            _equal(value, getattr(cell, metric), what)
        else:
            _near(value, ref.budget(link, cell.rssi, cell.snr)[metric], 3, what)


def check_recommend(text: str, ranked: list, cr: str, basis: str | None, top: int) -> None:
    """The winner is the first feasible cell of the reference ranking, and
    the runner-up rows follow that ranking."""
    body = _body(text, "recommend")
    winner, excess = ranked[0]
    if body[0] != f"sf={winner.sf} bw_khz={winner.bw} cr={cr}":
        raise CheckFailed(f"recommend: winner {body[0]!r}, reference sf={winner.sf} "
                          f"bw_khz={winner.bw} cr={cr}")
    values = _fields(body[1])
    for name, attr in (("rssi_dbm", "rssi"), ("snr_db", "snr"), ("loss_pct", "loss")):
        _equal(values[name], getattr(winner, attr), f"recommend winner {name}")
    _near(values["excess_db"], excess, 3, "recommend winner excess_db")
    want_basis = f"cr_basis=sweep@{basis}" if basis else "cr_basis=winner-row"
    if body[2] != want_basis:
        raise CheckFailed(f"recommend: {body[2]!r}, reference {want_basis!r}")
    runners = ranked[1 : top + 1]
    if len(body) - 3 != len(runners):
        raise CheckFailed(f"recommend: {len(body) - 3} runner-up rows, reference {len(runners)}")
    for rank, (line, (cell, cell_excess)) in enumerate(zip(body[3:], runners), start=2):
        row = _fields(line)
        what = f"recommend rank {rank}"
        if (row["rank"], row["sf"], row["bw_khz"]) != (str(rank), str(cell.sf), cell.bw):
            raise CheckFailed(f"{what}: {line!r}, reference sf={cell.sf} bw_khz={cell.bw}")
        for name, attr in (("rssi_dbm", "rssi"), ("snr_db", "snr"), ("loss_pct", "loss")):
            _equal(row[name], getattr(cell, attr), f"{what} {name}")
        _near(row["excess_db"], cell_excess, 3, f"{what} excess_db")


def reconstruct_verdict(grid: dict, expected: dict, link: ref.Link,
                        tolerance: float) -> tuple[dict, float, bool]:
    """Reference excess grid, its largest deviation from `expected`, and PASS."""
    excess = {key: ref.budget(link, cell.rssi, cell.snr)["excess"] for key, cell in grid.items()}
    worst = max(abs(excess[key] - expected[key]) for key in excess)
    return excess, worst, worst <= tolerance


def check_reconstruct(text: str, grid: dict, expected: dict, link: ref.Link,
                      tolerance: str) -> None:
    body = _body(text, "reconstruct")
    excess, worst, passed = reconstruct_verdict(grid, expected, link, float(tolerance))
    if body[0] != "bw_khz," + ",".join(f"sf{sf}" for sf in ref.SF_ORDER) or len(body) != 7:
        raise CheckFailed("reconstruct: bad grid header or row count")
    for line, bw in zip(body[1:], ref.BW_ORDER):
        cells = line.split(",")
        if cells[0] != bw:
            raise CheckFailed(f"reconstruct: row {line!r}, expected bw_khz {bw}")
        for sf, value in zip(ref.SF_ORDER, cells[1:]):
            _near(value, excess[(sf, bw)], 3, f"reconstruct sf={sf} bw_khz={bw}")
    summary = _VERDICT.fullmatch(text.splitlines()[-1])
    if summary is None:
        raise CheckFailed("reconstruct: last line is not the max_deviation verdict")
    printed, sf, bw, printed_tolerance, verdict = summary.groups()
    _near(printed, worst, 6, "reconstruct max_deviation_db")
    cell = (int(sf), bw)
    if cell not in excess or abs(abs(excess[cell] - expected[cell]) - worst) > 1e-9:
        raise CheckFailed(f"reconstruct: worst cell {cell} is not the reference's worst")
    _equal(printed_tolerance, float(tolerance), "reconstruct tolerance_db")
    if verdict != ("PASS" if passed else "FAIL"):
        raise CheckFailed(f"reconstruct: verdict {verdict} at max deviation {worst!r}")
