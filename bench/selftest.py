"""Shows that the benchmark's checks can fail.

    python3 bench/selftest.py

Runs each workload's calls once on small inputs, requires the program's
real outputs to pass their checks, then hands each check one deliberately
wrong copy of an output and requires it to be refused: a flipped drop in
a simulation report, a wrong created_at in an uplink log, transposed cells
in a reconstruct grid and a sweep, swapped recommend runners-up and a budget
value off by 0.002 dB. The property checks are fed their own wrong reports
(a timestamp going back, received + lost != sent, a scheduled slot missing)
and an uplink log whose created_at goes back. Exits 1 if any check accepts
a wrong output or refuses a right one.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

import checks
import workloads
from run import OUT, SRC, run_call

SMALL_HOURS = 0.05


def _rewrite(path: Path, original: str, change) -> None:
    path.write_text("\n".join(change(original.splitlines())) + "\n", encoding="utf-8")


def _first(lines: list[str], predicate) -> int:
    return next(i for i, line in enumerate(lines) if predicate(line))


def flip_drop(lines: list[str]) -> list[str]:
    i = _first(lines, lambda line: " rx_ok " in line)
    lines[i] = lines[i].replace(" rx_ok ", " rx_drop ")
    return lines


def swap_slot_close(lines: list[str]) -> list[str]:
    i = _first(lines, lambda line: " slot_close " in line)
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    return lines


def add_lost(lines: list[str]) -> list[str]:
    i = _first(lines, lambda line: line.startswith("node "))
    head, _, lost = lines[i].partition(" lost=")
    count, _, rest = lost.partition(" ")
    lines[i] = f"{head} lost={int(count) + 1} {rest}"
    return lines


def drop_last_slot(lines: list[str]) -> list[str]:
    """Remove the final slot's five events and lower its node's summary to
    match, so only the schedule's slot count can tell."""
    i = _first(lines, lambda line: line.startswith("node "))
    _, outcome, tag, *_ = lines[i - 2].split()
    del lines[i - 5 : i]
    j = _first(lines, lambda line: line.startswith(f"node {tag} "))
    fields = dict(item.split("=") for item in lines[j].split()[2:])
    fields["sent"] = str(int(fields["sent"]) - 1)
    counted = "received" if outcome == "rx_ok" else "lost"
    fields[counted] = str(int(fields[counted]) - 1)
    lines[j] = f"node {tag} " + " ".join(f"{k}={v}" for k, v in fields.items())
    return lines


def swap_created_at_order(lines: list[str]) -> list[str]:
    i = _first(lines, lambda line: not line.startswith("#"))
    stamp = lines[i].rpartition("created_at=")[2]
    j = _first(lines, lambda line: line.rpartition("created_at=")[2] > stamp)
    lines[i], lines[j] = lines[j], lines[i]
    return lines


def shift_created_at(lines: list[str]) -> list[str]:
    i = _first(lines, lambda line: "created_at=" in line)
    seconds = int(lines[i][-3:-1])
    lines[i] = f"{lines[i][:-3]}{(seconds + 1) % 60:02d}Z"
    return lines


def transpose_first_cells(text: str, row_start: str) -> str:
    lines = text.splitlines()
    i = _first(lines, lambda line: line.startswith(row_start))
    cells = lines[i].split(",")
    cells[1], cells[2] = cells[2], cells[1]
    lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


def transpose_sweep_rows(text: str) -> str:
    lines = text.splitlines()
    i = _first(lines, lambda line: line.startswith("7,10.4,"))
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    return "\n".join(lines) + "\n"


def swap_runners_up(text: str) -> str:
    lines = text.splitlines()
    i = _first(lines, lambda line: line.startswith("rank=2 "))
    first, second = lines[i].partition(" ")[2], lines[i + 1].partition(" ")[2]
    lines[i], lines[i + 1] = f"rank=2 {second}", f"rank=3 {first}"
    return "\n".join(lines) + "\n"


def nudge_excess(text: str) -> str:
    lines = text.splitlines()
    i = _first(lines, lambda line: line.startswith("excess_db="))
    lines[i] = f"excess_db={float(lines[i].partition('=')[2]) + 0.002:.3f}"
    return "\n".join(lines) + "\n"


def main() -> int:
    sys.path.insert(0, str(SRC))
    from loralink import cli

    workdir = OUT / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    bad = 0

    def expect(accepted: bool, case: str, check, stdout: str) -> None:
        nonlocal bad
        try:
            check(stdout)
            outcome = "accepted"
        except checks.CheckFailed as exc:
            outcome = f"refused ({exc})"
        ok = outcome == "accepted" if accepted else outcome != "accepted"
        bad += not ok
        print(f"{'ok' if ok else 'WRONG'}: {case}: {outcome}")

    try:
        loads = {name: build(11, workdir, SRC, **({} if name == "link_planning" else {"hours": SMALL_HOURS}))
                 for name, build in workloads.WORKLOADS.items()}
        outputs = {}
        for name, load in loads.items():
            for call in load.calls:
                _, rc, stdout, stderr = run_call(cli.main, call)
                if rc != call.expect_rc:
                    print(f"WRONG: {call.kind} exited {rc}, expected {call.expect_rc}: {stderr}")
                    bad += 1
                expect(True, f"real {call.kind} output", call.check, stdout)
                outputs.setdefault(call.kind, (call, stdout))

        call, stdout = outputs["simulate"]
        report, timeline = call.output.read_text(encoding="utf-8"), workloads.timeline(SMALL_HOURS)
        for change, case, check in (
            (flip_drop, "report with one flipped drop", call.check),
            (swap_slot_close, "report with a timestamp going back",
             lambda _: checks.check_report_properties(call.output, timeline)),
            (add_lost, "report with received + lost != sent",
             lambda _: checks.check_report_properties(call.output, timeline)),
            (drop_last_slot, "report missing one scheduled slot",
             lambda _: checks.check_report_properties(call.output, timeline)),
        ):
            _rewrite(call.output, report, change)
            expect(False, case, check, stdout)

        call, stdout = outputs["uplink"]
        log = call.output.read_text(encoding="utf-8")
        _rewrite(call.output, log, shift_created_at)
        expect(False, "uplink log with one wrong created_at", call.check, stdout)
        _rewrite(call.output, log, swap_created_at_order)
        expect(False, "uplink log with created_at going back",
               lambda _: checks.check_uplink_properties(call.output), stdout)

        for kind, mutate, case in (
            ("reconstruct", lambda t: transpose_first_cells(t, "10.4,"),
             "reconstruct grid with two cells transposed"),
            ("sweep", transpose_sweep_rows, "sweep with two rows transposed"),
            ("recommend", swap_runners_up, "recommend with runners-up swapped"),
            ("budget", nudge_excess, "budget with excess off by 0.002 dB"),
        ):
            call, stdout = outputs[kind]
            expect(False, case, call.check, mutate(stdout))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest:", "FAILED" if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
