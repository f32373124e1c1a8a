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
besides. It has no cap yet on the number of events a run may produce, so
the plausible values keep every accepted run to a few thousand events:
`--duration-s` at most 2, `--frames-per-slot` at most 4 and `--slot-s` at
most 5. `uplink` is left out until that cap exists (ROADMAP item 4): it
would read the reports such runs write.
"""

import argparse
import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from loralink.cli import EXIT_DATA, EXIT_OK, EXIT_TOLERANCE, EXIT_USAGE, build_parser, main
from loralink.dataset import bundled_measurements_text

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


def run_in_tmp(argv, path_flags):
    """(exit code, stderr) of main(argv), path values naming entries of a
    fresh temporary directory that holds a copy of the bundled fixture."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "fixture.csv").write_text(bundled_measurements_text(), encoding="utf-8")
        argv = [str(Path(tmp) / value) if value in PATH_NAMES and argv[i - 1] in path_flags
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
            values = st.sampled_from(PATH_NAMES)
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
