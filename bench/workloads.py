"""Workload inputs, made from the seed, and the check for each program call.

A workload is a fixed round of CLI calls that the benchmark repeats. Every
input comes from `random.Random(seed)`, so one seed gives one round; the
program only ever sees the generated argv and files.
"""

from __future__ import annotations

import calendar
import random
from dataclasses import dataclass, field
from decimal import Decimal
from functools import partial
from pathlib import Path
from typing import Callable

import checks
import reference as ref

NODES = 24
SF = 8
BW_KHZ = "62.5"
SIM_HOURS = 3  # 223,145 events, ~1 s a call and ~90 MB peak RSS today
REPLAY_HOURS = 1.5  # 111,575 events, ~17k updates: ~1 s a call, so a run has ~30 rounds
PLANNING_MIX = {"budget": 5, "recommend": 6, "reconstruct": 6, "sweep": len(ref.SWEEP_METRICS)}


@dataclass
class Call:
    """One invocation of `loralink.cli.main`.

    `ops` is the work it stands for (events written, request lines written,
    or one query); `check` receives the captured stdout and raises
    CheckFailed if the output (stdout plus `output`, if set) is wrong.
    """

    kind: str
    argv: list[str]
    ops: int
    expect_rc: int
    check: Callable[[str], None]
    output: Path | None = None


@dataclass
class Workload:
    calls: list[Call]
    counts: dict[str, int] = field(default_factory=dict)  # work per round


def _data(src: Path, name: str) -> Path:
    return src / "loralink" / "data" / name


def _drop_list(rng: random.Random, src: Path) -> list[str]:
    """24 drop probabilities from the fixture's loss column, in seeded order.

    The multiset is the same for every seed (each non-zero loss value four
    times, 0 for the rest), so the expected share of received packets, and
    with it the work per call, does not depend on the seed.
    """
    grid, _ = ref.read_fixture(_data(src, "field_measurements.csv"))
    lossy = sorted({format((Decimal(repr(c.loss)) / 100).normalize(), "f")
                    for c in grid.values() if c.loss})
    drops = [value for value in lossy for _ in range(4)]
    drops += ["0"] * (NODES - len(drops))
    rng.shuffle(drops)
    return drops


def timeline(hours: float) -> ref.Timeline:
    return ref.Timeline(NODES, SF, ref.khz_to_hz(BW_KHZ), round(hours * 3600))


def sim_report(seed: int, workdir: Path, src: Path, hours: float = SIM_HOURS) -> Workload:
    rng = random.Random(seed)
    drops = _drop_list(rng, src)
    sim_seed = rng.randrange(2**31)
    plan = timeline(hours)
    out = workdir / "report.txt"
    argv = ["simulate", "--nodes", str(NODES), "--sf", str(SF), "--bw-khz", BW_KHZ,
            "--duration-s", str(plan.duration_s), "--drop", ",".join(drops),
            "--seed", str(sim_seed), "--output", str(out)]
    size = sum(len(line) + 1 for line in ref.report_lines(plan, drops, sim_seed))
    call = Call("simulate", argv, plan.events, 0,
                lambda stdout: checks.check_report(out, plan, drops, sim_seed), out)
    return Workload([call], {"events": plan.events, "report_bytes": size})


def uplink_replay(seed: int, workdir: Path, src: Path, hours: float = REPLAY_HOURS) -> Workload:
    """Bridge a saved report of 24 nodes onto three API keys x fields 1-8.

    The report is written by the benchmark's own reference writer, so set-up
    never runs the program's simulator.
    """
    rng = random.Random(seed)
    drops = _drop_list(rng, src)
    sim_seed = rng.randrange(2**31)
    plan = timeline(hours)
    report = workdir / "input_report.txt"
    lines = size = 0
    with open(report, "w", encoding="utf-8") as handle:
        handle.write(f"# reference report nodes={NODES} sf={SF} bw_khz={BW_KHZ} "
                     f"duration_s={plan.duration_s} drop={','.join(drops)} seed={sim_seed}\n")
        for line in ref.report_lines(plan, drops, sim_seed):
            handle.write(line + "\n")
            lines += 1
            size += len(line) + 1
    keys = [f"TS{rng.randrange(16**6):06X}+{k}" for k in range(3)]  # '+' needs encoding
    key_map = {ref.sync_tag(p): (keys[p // 8], p % 8 + 1) for p in range(NODES)}
    maps = [f"{tag}={key}:{index}" for tag, (key, index) in key_map.items()]
    rng.shuffle(maps)
    epoch_s = calendar.timegm((2023, 1, 1, 0, 0, 0)) + rng.randrange(366 * 86400)
    updates = sum(1 for _ in ref.request_lines(checks.body_lines(report), key_map, epoch_s))
    out = workdir / "uplink.log"
    argv = ["uplink", "--report", str(report), *(a for m in maps for a in ("--map", m)),
            "--epoch", ref.utc_stamp(epoch_s), "--output", str(out)]
    call = Call("uplink", argv, updates, 0,
                lambda stdout: checks.check_uplink(out, report, key_map, epoch_s), out)
    return Workload([call], {"updates": updates, "report_bytes": size, "report_lines": lines})


def _link_flags(rng: random.Random) -> tuple[ref.Link, list[str]]:
    pt = str(rng.randrange(140, 221) / 10)
    d = str(rng.randrange(500, 15001, 50))
    gt, gr = rng.choice(["0", "2.15", "5.15", "8.15"]), rng.choice(["0", "2.15", "5.15", "8.15"])
    link = ref.Link(pt=float(pt), gt=float(gt), gr=float(gr), d=float(d))
    return link, ["--pt", pt, "--gt", gt, "--gr", gr, "--d", d]


def link_planning(seed: int, workdir: Path, src: Path) -> Workload:
    """A shuffled round of budget, recommend, reconstruct and sweep queries.

    Link constants and constraints vary; every recommend keeps a feasible
    cell (each bandwidth has loss-free cells), and reconstruct's expected
    exit code (0 PASS, 4 FAIL) comes from the reference verdict.
    """
    rng = random.Random(seed)
    grid, sweep = ref.read_fixture(_data(src, "field_measurements.csv"))
    expected = ref.read_expected_grid(_data(src, "excess_loss_expected.csv"))
    kinds = [kind for kind, count in PLANNING_MIX.items() for _ in range(count)]
    rng.shuffle(kinds)
    metrics = list(ref.SWEEP_METRICS)
    rng.shuffle(metrics)
    calls = []
    for kind in kinds:
        link, flags = _link_flags(rng)
        if kind == "budget":
            cell = rng.choice(list(grid.values()))
            if rng.random() < 0.5:
                source = ["--cell", f"sf={cell.sf},bw_khz={cell.bw}"]
                rssi, snr = cell.rssi, cell.snr
            else:
                rssi, snr = rng.randrange(-1300, -600) / 10, rng.randrange(-80, 60) / 4
                source = ["--rssi", str(rssi), "--snr", str(snr)]
            argv = ["budget", *source, *flags, "--f", "433000000"]
            check = partial(checks.check_budget, values=ref.budget(link, rssi, snr))
            rc = 0
        elif kind == "recommend":
            max_loss = rng.choice(["0", "16.6", "28.5", "37.5", "54", "100"])
            min_bw = rng.choice(ref.BW_ORDER)
            order = rng.sample(["snr", "excess_loss", "rssi"], rng.randint(1, 3))
            ranked = ref.ranked_cells(grid, link, float(max_loss), ref.khz_to_hz(min_bw), order)
            cr, basis = ref.coding_rate(sweep, ranked[0][0])
            argv = ["recommend", "--max-loss", max_loss, "--min-bw-khz", min_bw,
                    "--order", ",".join(order), *flags]
            check = partial(checks.check_recommend, ranked=ranked, cr=cr, basis=basis, top=5)
            rc = 0
        elif kind == "reconstruct":
            if rng.random() < 0.5:  # campaign constants: passes at a loose tolerance
                link, flags = ref.Link(), []
            tolerance = rng.choice(["0.05", "0.1", "0.5", "5"])
            passed = checks.reconstruct_verdict(grid, expected, link, float(tolerance))[2]
            argv = ["reconstruct", *flags, "--tolerance", tolerance]
            check = partial(checks.check_reconstruct, grid=grid, expected=expected,
                            link=link, tolerance=tolerance)
            rc = 0 if passed else 4
        else:
            metric = metrics.pop()
            argv = ["sweep", "--metric", metric, *flags]
            check = partial(checks.check_sweep, metric=metric, grid=grid, link=link)
            rc = 0
        calls.append(Call(kind, argv, 1, rc, check))
    return Workload(calls, {"queries": len(calls)})


WORKLOADS = {
    "sim_report": sim_report,
    "uplink_replay": uplink_replay,
    "link_planning": link_planning,
}
