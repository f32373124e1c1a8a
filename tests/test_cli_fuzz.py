"""Argv fuzz of the planning subcommands: every argv keeps the exit-code
contract.

`budget`, `reconstruct`, `recommend` and `sweep` are driven with argvs
built from each subcommand's own flags, given plausible or hostile values
(NaN, infinities, negatives, '_' separators, a leading '+', empty text,
non-ASCII digits, overflowing exponents) and mixed with stray tokens.
Most argvs start from the required flags; `budget`'s read a fixture cell
or a direct `--rssi`/`--snr` sample. Every run must end in exit 0, 2, 3
or 4 without a traceback. Path flags name only entries of a fresh
temporary directory: a copy of the bundled fixture, a missing file, or the
directory itself.

`simulate` and `uplink` are left out: with no cap yet on the number of
events a run may produce, a drawn `--duration-s` could stall the test.
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


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(argvs())
def test_planning_argv_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "fixture.csv").write_text(bundled_measurements_text(), encoding="utf-8")
        # path values name entries of the temporary directory
        argv = [str(Path(tmp) / value) if value in PATH_NAMES and argv[i - 1] in PATH_FLAGS
                else value for i, value in enumerate(argv)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_TOLERANCE), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
