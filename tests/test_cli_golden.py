"""Golden CLI corpus: exit code, stdout and stderr pinned byte for byte.

Help and usage text come from argparse and depend on the terminal width, so
every case runs with COLUMNS=80. The expected text lives in
cli_golden.json next to this file; regenerate it (only when a change of the
output is intended) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from loralink.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

BUDGET_FLAGS = ["--pt", "20", "--gt", "5.15", "--gr", "5.15", "--d", "5000", "--f", "433e6"]
SUBCOMMANDS = ("budget", "reconstruct", "recommend", "simulate", "sweep", "uplink")

# name -> argv; cases run in this order in one working directory, so the
# uplink cases read the report that simulate_to_file writes
CASES = {
    "help": ["--help"],
    "help_short": ["-h"],
    **{f"help_{name}": [name, "--help"] for name in SUBCOMMANDS},
    "no_arguments": [],
    "bogus": ["bogus"],
    "dash_x": ["-x"],
    "budget_no_flags": ["budget"],
    "budget_bogus_flag": ["budget", "--bogus"],
    "budget_extra_positional": ["budget", "--rssi", "-92.8", "--snr", "8.4", *BUDGET_FLAGS,
                                "extra"],
    "recommend_extra_positional": ["recommend", "extra"],
    "sweep_bad_metric": ["sweep", "--metric", "nope"],
    "recommend_bad_top": ["recommend", "--top", "x"],
    "uplink_no_report": ["uplink"],
    "budget_sample": ["budget", "--rssi", "-92.8", "--snr", "8.4", *BUDGET_FLAGS],
    "budget_cell": ["budget", "--cell", "sf=7,bw_khz=10.4", *BUDGET_FLAGS, "--seed", "3"],
    "reconstruct": ["reconstruct"],
    "recommend": ["recommend", "--top", "3", "--min-bw-khz", "20.8"],
    "sweep_excess": ["sweep", "--metric", "excess", "--d", "4000"],
    "simulate": ["simulate", "--nodes", "2", "--duration-s", "3", "--seed", "4",
                 "--drop", "0.25"],
    "simulate_to_file": ["simulate", "--nodes", "3", "--duration-s", "4", "--seed", "9",
                         "--drop", "0.1,0.2,0.3", "--output", "report.txt"],
    "uplink": ["uplink", "--report", "report.txt", "--epoch", "2024-05-01T12:00:00Z"],
    "uplink_map": ["uplink", "--report", "report.txt", "--map", "A001=K1:2",
                   "--map", "A002=K2:5", "--map", "A003=K1:8", "--min-spacing-s", "1.5"],
    "uplink_encoded": ["uplink", "--report", "report.txt", "--map", "A001=K+1/x:1",
                       "--map", "A002=K+1/x:2", "--map", "A003=K+1/x:3",
                       "--epoch", "2024-03-01T10:00:00+05:30"],
    "budget_distance_not_a_number": ["budget", "--rssi", "-92.8", "--snr", "8.4",
                                     "--pt", "20", "--gt", "5.15", "--gr", "5.15", "--d", "abc",
                                     "--f", "433e6"],
    "simulate_preamble_too_long": ["simulate", "--duration-s", "1", "--preamble", "100000000"],
}


def run_corpus(workdir):
    """Every case's result, run in order in workdir with COLUMNS=80."""
    results = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("COLUMNS", "80")
        patch.chdir(workdir)
        for name, argv in CASES.items():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
            results[name] = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
            if name == "simulate_to_file":
                results[name]["file"] = Path("report.txt").read_text(encoding="utf-8")
    return results


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return run_corpus(tmp_path_factory.mktemp("golden"))


def test_corpus_covers_every_case():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert list(golden) == list(CASES)
    assert all(golden[name]["argv"] == argv for name, argv in CASES.items())


@pytest.mark.parametrize("name", list(CASES))
def test_case_is_byte_identical(corpus, name):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    got = corpus[name]
    assert got["code"] == expected["code"]
    assert got["stdout"] == expected["stdout"]
    assert got["stderr"] == expected["stderr"]
    assert got.get("file") == expected.get("file")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        golden = {name: {"argv": CASES[name], **result}
                  for name, result in run_corpus(work).items()}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} cases to {GOLDEN}", file=sys.stderr)
