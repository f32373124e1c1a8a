"""Argv fuzz of the planning subcommands and `simulate`: every argv keeps
the exit-code contract.

`budget`, `reconstruct`, `recommend` and `sweep` are driven with argvs
built from each subcommand's own flags, given plausible or hostile values
(NaN, infinities, negatives, '_' separators, a leading '+', empty text,
non-ASCII digits, overflowing exponents) and mixed with stray tokens.
Most argvs start from the required flags; `budget`'s read a fixture cell
or a direct `--rssi`/`--snr` sample. Every run must end in exit 0, 2, 3
or 4 without a traceback. Path flags name only entries of a fresh
temporary directory: a copy of the bundled fixture, a missing file, or the
directory itself.

`simulate` is driven the same way over its own flags, with huge integers
besides; its `--output` and `--uplink-log` may also be '-' (stdout). It
has no cap yet on the number of events a run may produce, so the
plausible values keep every accepted run to a few thousand events:
`--duration-s` at most 2, `--frames-per-slot` at most 4 and `--slot-s` at
most 5.

`uplink` reads one small fixed `simulate` report (3 nodes, 2 s), so it
needs no such cap. Each run gets that report with 0-3 lines tampered with
(two lines swapped, a '_', '+' or non-ASCII digit put in, a kind renamed,
or a summary line dropped) and hostile `--map`, `--epoch` and
`--min-spacing-s` values, and must end in exit 0, 2 or 3 without a
traceback. `--real` runs with UPLINK_API_KEY removed from the environment,
so it is refused before anything is sent.
"""

import argparse
import contextlib
import functools
import io
import os
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from loralink.cli import EXIT_DATA, EXIT_OK, EXIT_TOLERANCE, EXIT_USAGE, build_parser, main
from loralink.dataset import bundled_measurements_text
from loralink.uplink_bridge import API_KEY_ENV_VAR

PLANNING = ("budget", "reconstruct", "recommend", "sweep")
PATH_FLAGS = ("--fixture", "--expected", "--output")
# temporary-directory entries a path flag may name
PATH_NAMES = ("fixture.csv", "missing.csv", ".")

HOSTILE = ("nan", "NaN", "inf", "-inf", "-1", "1_0", "+5", "", " ", "\u0665", "\u0661\u0662",
           "1e999", "-1e999", "1e-999", "1e308", "-1e308", "0", "-0", "x", "--", "-")
# values a flag is meant to take, and a few just outside its range
PLAUSIBLE = {
    "--pt": ("20", "14", "-3"), "--gt": ("5.15", "0"), "--gr": ("5.15", "-2.5"),
    "--d": ("5000", "1", "1e5"), "--f": ("433e6", "868000000"), "--c": ("3e8", "2.99e8"),
    "--rssi": ("-92.8", "-130"), "--snr": ("8.4", "-20", "60"),
    "--cell": ("sf=7,bw_khz=10.4", "sf=12,bw_khz=500", "sf=13,bw_khz=10.4", "sf=7",
               "bw_khz=1,sf=8", "sf=7,bw_khz=7", "sf=7,bw_khz=10.4,cr=4"),
    "--seed": ("0", "42"), "--tolerance": ("0.05", "0.1", "5"),
    "--max-loss": ("0", "16.6", "100", "101"), "--min-bw-khz": ("62.5", "10.4", "500", "600"),
    "--order": ("snr", "rssi,snr", "excess_loss, rssi ,snr", "snr,snr", ",", "airtime"),
    "--top": ("0", "3", "40"),
    "--metric": ("rssi", "snr", "loss", "esp", "path_loss", "fsl", "excess", "bogus"),
}
# required flags, so that most drawn runs get past the parser: one of each
# subcommand's alternatives (budget reads a fixture cell or a direct sample)
LINK = ["--pt", "20", "--gt", "5.15", "--gr", "5.15", "--d", "5000", "--f", "433e6"]
BASE = {
    "budget": ([*LINK, "--cell", "sf=8,bw_khz=62.5"], [*LINK, "--rssi", "-92.8", "--snr", "8.4"]),
    "reconstruct": ([],),
    "recommend": ([],),
    "sweep": (["--metric", "excess"],),
}
STRAY = ("extra", "--bogus", "-x", "--", "recommend", "--help", "--pt=5", "--order=", "-h")


def flags_of(name: str) -> list[str]:
    """The long options of one subcommand's own parser."""
    parser = build_parser([name])
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [option for action in sub.choices[name]._actions
            for option in action.option_strings if option.startswith("--")]


FLAGS = {name: flags_of(name) for name in PLANNING}


@st.composite
def argvs(draw):
    """An argv of one planning subcommand, with path values as entry names.

    Later flags override the base ones, so a drawn value replaces a valid one.
    """
    name = draw(st.sampled_from(PLANNING))
    argv = [name, *(draw(st.sampled_from(BASE[name])) if draw(st.integers(0, 3)) else [])]
    for _ in range(draw(st.integers(0, 5))):
        flag = draw(st.sampled_from(FLAGS[name]))
        if flag in PATH_FLAGS:
            values = st.sampled_from(PATH_NAMES)
        elif draw(st.integers(0, 2)):
            values = st.sampled_from(PLAUSIBLE.get(flag, ("1",)))
        else:
            values = st.sampled_from(HOSTILE)
        argv.append(flag)
        # a flag may come last without its value
        if draw(st.integers(0, 9)):
            argv.append(draw(values))
        if not draw(st.integers(0, 7)):
            argv.append(draw(st.sampled_from(STRAY)))
    return argv


def run_in_tmp(argv, path_flags, report=None):
    """(exit code, stderr) of main(argv), path values naming entries of a
    fresh temporary directory that holds a copy of the bundled fixture
    and, if given, the report text as report.txt."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "fixture.csv").write_text(bundled_measurements_text(), encoding="utf-8")
        if report is not None:
            (Path(tmp) / "report.txt").write_text(report, encoding="utf-8")
        names = (*PATH_NAMES, "report.txt")
        argv = [str(Path(tmp) / value) if value in names and argv[i - 1] in path_flags
                else value for i, value in enumerate(argv)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, err.getvalue()


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(argvs())
def test_planning_argv_keeps_the_exit_code_contract(argv):
    code, err = run_in_tmp(argv, PATH_FLAGS)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_TOLERANCE), (code, err)
    assert "Traceback" not in err


SIMULATE_FLAGS = flags_of("simulate")
SIMULATE_PATH_FLAGS = ("--drop-from-fixture", "--output", "--uplink-log")
# past an index-sized integer, past 64 bits, one node past sync word FFFF
HUGE = ("99999999999999999999", "18446744073709551616", "24576", "65536")
# a huge value of these would be accepted and make a run of unbounded length
RUN_LENGTH_FLAGS = ("--duration-s", "--frames-per-slot")
SIMULATE_PLAUSIBLE = {
    "--nodes": ("1", "2", "8", "9", "24"), "--sf": ("6", "7", "12", "13"),
    "--bw-khz": ("62.5", "500", "10.4", "7"), "--cr": ("4/8", "4/5", "5/8", "4/0", "x"),
    "--payload-bytes": ("0", "2", "255", "256"), "--preamble": ("0", "8", "65535", "65536"),
    "--slot-s": ("0.5", "1.2", "5", "0.001"), "--guard-s": ("0", "0.01", "1"),
    "--duration-s": ("0.5", "1", "2", "1e-9"), "--frames-per-slot": ("1", "2", "4", "0"),
    "--handshake-s": ("0", "0.05", "5"),
    "--drop": ("0", "0.5", "1", "5e-324", "0,1", "0.1,0.2,0.3", "1.5", "0.1,", ",", "nan"),
    "--drop-from-fixture": ("bundled", *PATH_NAMES), "--seed": ("0", "18446744073709551615"),
}


@st.composite
def simulate_argvs(draw):
    """A simulate argv from its required --duration-s (mostly), then drawn flags."""
    argv = ["simulate", *(["--duration-s", "1"] if draw(st.integers(0, 5)) else [])]
    for _ in range(draw(st.integers(0, 5))):
        flag = draw(st.sampled_from(SIMULATE_FLAGS))
        source = draw(st.integers(0, 4))
        if flag in ("--output", "--uplink-log"):
            values = st.sampled_from((*PATH_NAMES, "-"))
        elif source >= 2:
            values = st.sampled_from(SIMULATE_PLAUSIBLE.get(flag, ("1",)))
        elif source and flag not in RUN_LENGTH_FLAGS:
            values = st.sampled_from(HUGE)
        else:
            values = st.sampled_from(HOSTILE)
        argv.append(flag)
        if draw(st.integers(0, 9)):
            argv.append(draw(values))
        if not draw(st.integers(0, 9)):
            argv.append(draw(st.sampled_from(STRAY)))
    return argv


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(simulate_argvs())
def test_simulate_argv_keeps_the_exit_code_contract(argv):
    code, err = run_in_tmp(argv, SIMULATE_PATH_FLAGS)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA), (code, err)
    assert "Traceback" not in err


UPLINK_FLAGS = flags_of("uplink")
UPLINK_PATH_FLAGS = ("--report", "--output")
UPLINK_PLAUSIBLE = {
    "--map": ("A001=K:1", "A002=K+2/x:8", "a003=k:3", "A001=K:9", "A001=K:0", "A001=:1",
              "A001=K", "A001=K:1_0", "A001=K:+1", "A001=K:\u0663", "A0_1=K:1", "ZZZZ=K:1",
              "A001=K:99999999999999999999", "B00F=K:1", "A001=a:b:1", "="),
    "--epoch": ("2024-03-01T10:00:00Z", "2024-03-01T10:00:00+05:30", "2024-03-01",
                "9999-12-31T23:59:59Z", "0001-01-01T00:00:00Z", "0001-01-01T00:00:00+01:00",
                "9999-12-31T23:59:59-01:00", "2024-02-30T00:00:00Z", "24:00"),
    "--min-spacing-s": ("0", "0.5", "15"),
    "--seed": ("0", "42"),
}


@functools.cache
def small_report() -> tuple[str, ...]:
    """The lines of a 3-node, 2 s `simulate` report with 20% drops."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        path = Path(tmp) / "report.txt"
        assert main(["simulate", "--nodes", "3", "--duration-s", "2", "--drop", "0.2",
                     "--seed", "5", "--output", str(path)]) == EXIT_OK
        return tuple(path.read_text(encoding="utf-8").splitlines())


def tamper(lines, edit, at, offset):
    """lines with one edit made at line index `at`, character `offset` of it."""
    lines = list(lines)
    line = lines[at]
    offset %= len(line) + 1
    if edit == "swap":
        lines[at], lines[at - 1] = lines[at - 1], line
    elif edit in ("_", "+", "\u0665"):
        lines[at] = line[:offset] + edit + line[offset:]
    elif edit == "kind":
        parts = line.split(" ")
        lines[at] = " ".join([parts[0], "warp", *parts[2:]])
    else:  # drop the first summary line
        del lines[next(i for i, l in enumerate(lines) if l.startswith("node "))]
    return lines


@st.composite
def tampered_reports(draw):
    lines = small_report()
    for _ in range(draw(st.integers(0, 3))):
        lines = tamper(lines, draw(st.sampled_from(("swap", "_", "+", "\u0665", "kind", "drop"))),
                       draw(st.integers(1, len(lines) - 1)), draw(st.integers(0, 40)))
    return "".join(line + "\n" for line in lines)


@st.composite
def uplink_argvs(draw):
    """An uplink argv from its required --report (mostly), then drawn flags.

    Hypothesis draws small integers most, so 0 picks the common case.
    """
    argv = ["uplink", *([] if draw(st.integers(0, 9)) == 9 else ["--report", "report.txt"])]
    for _ in range(draw(st.integers(0, 4))):
        flag = draw(st.sampled_from(UPLINK_FLAGS))
        if flag in UPLINK_PATH_FLAGS:
            values = st.sampled_from(("report.txt", *PATH_NAMES))
        elif draw(st.integers(0, 3)) < 3:
            values = st.sampled_from(UPLINK_PLAUSIBLE.get(flag, ("1",)))
        else:
            values = st.sampled_from(HOSTILE)
        argv.append(flag)
        if flag != "--real" and draw(st.integers(0, 9)) < 9:
            argv.append(draw(values))
        if draw(st.integers(0, 9)) == 9:
            argv.append(draw(st.sampled_from(STRAY)))
    return argv


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(uplink_argvs(), tampered_reports())
def test_uplink_argv_keeps_the_exit_code_contract(argv, report):
    with mock.patch.dict(os.environ):
        os.environ.pop(API_KEY_ENV_VAR, None)  # --real is refused, never sent
        code, err = run_in_tmp(argv, UPLINK_PATH_FLAGS, report)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA), (code, err)
    assert "Traceback" not in err
