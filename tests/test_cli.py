import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import pytest

import loralink
from loralink import cli, tdma_sim
from loralink.cli import EXIT_DATA, EXIT_OK, EXIT_TOLERANCE, EXIT_USAGE, main
from loralink.core_types import BW_HZ_VALUES, CodingRate, LinkParams, RadioConfig, hz_to_khz_str
from loralink.dataset import (
    bundled_expected_grid_text,
    bundled_measurements_text,
    load_bundled_measurements,
    reconstruct_excess_loss,
)
from loralink.phy_model import FrameParams
from loralink.tdma_sim import (
    NodeSpec,
    SlotSchedule,
    default_slot_duration,
    run_simulation,
    serialize_report,
)

BUDGET_FLAGS = ["--pt", "20", "--gt", "5.15", "--gr", "5.15", "--d", "5000", "--f", "433e6"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def result_lines(out: str) -> list[str]:
    return [line for line in out.splitlines() if not line.startswith("#")]


def replacing(old, new):
    """A write_fixture mutation that replaces one row."""
    def mutate(text):
        assert text.count(old) == 1
        return text.replace(old, new)
    return mutate


def write_fixture(path, mutate=None):
    """The bundled measurements without their '#' comment block, mutated."""
    text = "".join(line for line in bundled_measurements_text().splitlines(keepends=True)
                   if not line.startswith("#"))
    if mutate:
        text = mutate(text)
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestBudget:
    def test_direct_sample(self, capsys):
        code, out, _ = run(capsys, ["budget", "--rssi", "-92.8", "--snr", "8.4", *BUDGET_FLAGS])
        assert code == EXIT_OK
        lines = result_lines(out)
        assert lines[0] == "esp_dbm=-93.386"
        assert lines[1] == "path_loss_db=123.686"
        assert lines[2] == "fsl_db=99.151"
        assert lines[3] == "excess_db=24.535"
        excess = float(lines[3].split("=")[1])
        assert excess == pytest.approx(24.532, abs=0.05)

    def test_cell_reference_is_equivalent(self, capsys):
        _, direct, _ = run(capsys, ["budget", "--rssi", "-92.8", "--snr", "8.4", *BUDGET_FLAGS])
        _, via_cell, _ = run(capsys, ["budget", "--cell", "sf=7,bw_khz=10.4", *BUDGET_FLAGS])
        assert result_lines(direct) == result_lines(via_cell)

    def test_missing_distance_is_usage_error(self, capsys):
        code, _, err = run(
            capsys,
            ["budget", "--rssi", "-92.8", "--snr", "8.4",
             "--pt", "20", "--gt", "5.15", "--gr", "5.15", "--f", "433e6"],
        )
        assert code == EXIT_USAGE
        assert "--d" in err

    def test_sample_and_cell_together_rejected(self, capsys):
        code, _, err = run(
            capsys,
            ["budget", "--rssi", "-92.8", "--snr", "8.4",
             "--cell", "sf=7,bw_khz=10.4", *BUDGET_FLAGS],
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("cell", ["sf=7,bw_khz=abc", "sf=x,bw_khz=10.4", "sf=7,bw_khz=nan"])
    def test_malformed_cell_value_is_usage_error(self, capsys, cell):
        code, out, err = run(capsys, ["budget", "--cell", cell, *BUDGET_FLAGS])
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (f"usage error: malformed --cell {cell!r}; "
                       "expected sf=<int>,bw_khz=<decimal>\n")

    def test_rssi_without_snr_names_missing_flag(self, capsys):
        code, _, err = run(capsys, ["budget", "--rssi", "-92.8", *BUDGET_FLAGS])
        assert code == EXIT_USAGE
        assert "--snr" in err

    def test_manifest_echoed(self, capsys):
        _, out, _ = run(capsys, ["budget", "--rssi", "-92.8", "--snr", "8.4", *BUDGET_FLAGS])
        assert out.startswith("# manifest budget ")
        assert "rssi_dbm=-92.8" in out.splitlines()[0]


class TestReconstruct:
    def test_bundled_fixture_exceeds_default_tolerance(self, capsys):
        # seven bundled cells disagree with the published grid by 0.050-0.081
        # dB, which the 0.05 dB default flags; see README
        code, out, _ = run(capsys, ["reconstruct"])
        assert code == EXIT_TOLERANCE
        summary = [line for line in out.splitlines() if "max_deviation_db" in line][0]
        assert "verdict=FAIL" in summary
        assert "cell=sf=7,bw_khz=62.5" in summary

    def test_wider_tolerance_passes(self, capsys):
        code, out, _ = run(capsys, ["reconstruct", "--tolerance", "0.09"])
        assert code == EXIT_OK
        assert "verdict=PASS" in out

    def test_grid_shape(self, capsys):
        _, out, _ = run(capsys, ["reconstruct", "--tolerance", "0.09"])
        lines = result_lines(out)
        assert lines[0] == "bw_khz,sf7,sf8,sf9,sf10,sf11,sf12"
        assert len(lines) == 7
        assert lines[1].startswith("10.4,24.535,")

    def test_perturbed_fixture_fails_naming_the_cell(self, capsys, tmp_path):
        def corrupt(text: str) -> str:
            return text.replace("9,125,,,-108,8.5,0", "9,125,,,-109,8.5,0")

        fixture = write_fixture(tmp_path / "perturbed.csv", corrupt)
        code, out, _ = run(capsys, ["reconstruct", "--fixture", fixture, "--tolerance", "0.09"])
        assert code == EXIT_TOLERANCE
        summary = [line for line in out.splitlines() if "max_deviation_db" in line][0]
        assert "cell=sf=9,bw_khz=125" in summary

    def test_exactly_equal_expected_grid_passes(self, capsys, tmp_path):
        grid = reconstruct_excess_loss(load_bundled_measurements(), LinkParams())
        rows = [",".join([hz_to_khz_str(bw), *map(repr, row)])
                for bw, row in zip(BW_HZ_VALUES, grid)]
        expected = tmp_path / "expected.csv"
        expected.write_text("bw_khz,sf7,sf8,sf9,sf10,sf11,sf12\n" + "\n".join(rows) + "\n")
        code, out, err = run(capsys, ["reconstruct", "--expected", str(expected)])
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines()[-1] == ("# max_deviation_db=0.000000 cell=sf=7,bw_khz=10.4 "
                                        "tolerance_db=0.05 verdict=PASS")

    def test_non_finite_expected_cell_is_data_error(self, capsys, tmp_path):
        # a nan deviation compares false against any tolerance
        text = bundled_expected_grid_text()
        row = next(line for line in text.splitlines() if line.startswith("62.5,"))
        expected = tmp_path / "expected.csv"
        expected.write_text(text.replace(row, "62.5,nan" + row[row.index(",", 5):]))
        code, out, err = run(capsys, ["reconstruct", "--expected", str(expected),
                                      "--tolerance", "0.09"])
        assert (code, out) == (EXIT_DATA, "")
        assert "malformed sf7: 'nan'" in err

    def test_repeated_expected_row_is_data_error(self, capsys, tmp_path):
        expected = tmp_path / "expected.csv"
        expected.write_text(bundled_expected_grid_text() + "62.5,1,2,3,4,5,6\n")
        code, out, err = run(capsys, ["reconstruct", "--expected", str(expected),
                                      "--tolerance", "0.09"])
        assert (code, out) == (EXIT_DATA, "")
        assert "duplicate of line" in err and "bw_khz=62.5" in err

    def test_tiny_tolerance_fails_on_rounding_residue(self, capsys):
        code, _, _ = run(capsys, ["reconstruct", "--tolerance", "0.0001"])
        assert code == EXIT_TOLERANCE

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "grid.csv"
        code, _, _ = run(capsys, ["reconstruct", "--tolerance", "0.09", "--output", str(target)])
        assert code == EXIT_OK
        content = target.read_text()
        assert content.startswith("# manifest reconstruct ")
        assert "verdict=PASS" in content


class TestRecommend:
    def test_defaults_reproduce_campaign_choice(self, capsys):
        code, out, _ = run(capsys, ["recommend"])
        assert code == EXIT_OK
        lines = result_lines(out)
        assert lines[0] == "sf=8 bw_khz=62.5 cr=4/8"
        assert "cr_basis=sweep@sf=8,bw_khz=250" in lines

    def test_min_bw_widens_search(self, capsys):
        code, out, _ = run(capsys, ["recommend", "--min-bw-khz", "10.4"])
        assert code == EXIT_OK
        assert result_lines(out)[0] == "sf=8 bw_khz=10.4 cr=4/8"

    def test_loss_ceiling_out_of_range_is_usage_error(self, capsys):
        code, _, _ = run(capsys, ["recommend", "--max-loss", "101"])
        assert code == EXIT_USAGE

    def test_infeasible_constraints_are_data_errors(self, capsys, tmp_path):
        def all_lossy(text: str) -> str:
            lines = [text.splitlines()[0]]
            for line in text.splitlines()[1:]:
                cells = line.split(",")
                if cells[6] != "":
                    cells[6] = "50"
                lines.append(",".join(cells))
            return "\n".join(lines) + "\n"

        fixture = write_fixture(tmp_path / "lossy.csv", all_lossy)
        code, _, err = run(capsys, ["recommend", "--fixture", fixture])
        assert code == EXIT_DATA
        assert "max_loss_pct" in err

    def test_runner_up_listing(self, capsys):
        _, out, _ = run(capsys, ["recommend", "--top", "2"])
        ranks = [line for line in result_lines(out) if line.startswith("rank=")]
        assert len(ranks) == 2
        assert ranks[0].startswith("rank=2 sf=8 bw_khz=125")

    def test_frequency_reaches_the_excess_loss(self, capsys):
        _, base, _ = run(capsys, ["recommend"])
        code, moved, _ = run(capsys, ["recommend", "--f", "868000000"])
        assert code == EXIT_OK
        base, moved = result_lines(base), result_lines(moved)
        strip = partial(re.sub, r"excess_db=\S+", "excess_db=")
        assert list(map(strip, moved)) == list(map(strip, base))
        # free-space loss grows with frequency, the measured path loss does not
        shift = 20 * math.log10(868 / 433)
        for old, new in zip(base, moved):
            if "excess_db=" in old:
                old_db, new_db = (float(line.split("excess_db=")[1].split()[0])
                                  for line in (old, new))
                assert old_db - new_db == pytest.approx(shift, abs=1e-3)


class TestGridCellWithoutValue:
    """Every grid reader names the first cell that lacks the value it needs."""

    @pytest.mark.parametrize("argv, code", [
        (["sweep", "--metric", "rssi"], EXIT_DATA),
        (["sweep", "--metric", "excess"], EXIT_DATA),
        (["recommend"], EXIT_DATA),
        (["reconstruct"], EXIT_DATA),
        (["sweep", "--metric", "snr"], EXIT_OK),
        (["budget", "--cell", "sf=9,bw_khz=125", *BUDGET_FLAGS], EXIT_DATA),
    ])
    def test_missing_rssi(self, capsys, tmp_path, argv, code):
        fixture = write_fixture(tmp_path / "no_rssi.csv",
                                replacing("9,125,,,-108,8.5,0", "9,125,,,,8.5,0"))
        got, out, err = run(capsys, [*argv, "--fixture", fixture])
        assert got == code
        if code == EXIT_DATA:
            assert (out, err) == ("", "error: cell sf=9, bw_khz=125 has no rssi_dbm\n")

    @pytest.mark.parametrize("argv", [
        ["sweep", "--metric", "rssi", "--fixture"],
        ["sweep", "--metric", "snr", "--fixture"],
        ["sweep", "--metric", "excess", "--fixture"],
        ["recommend", "--fixture"],
        ["reconstruct", "--fixture"],
        ["budget", "--cell", "sf=9,bw_khz=125", *BUDGET_FLAGS, "--fixture"],
        ["simulate", "--duration-s", "1", "--sf", "9", "--bw-khz", "125", "--drop-from-fixture"],
    ], ids=["sweep-rssi", "sweep-snr", "sweep-excess", "recommend", "reconstruct", "budget-cell",
            "simulate-drop-from-fixture"])
    def test_missing_cell(self, capsys, tmp_path, argv):
        fixture = write_fixture(tmp_path / "no_cell.csv", replacing("9,125,,,-108,8.5,0\n", ""))
        code, out, err = run(capsys, [*argv, fixture])
        assert (code, out, err) == (EXIT_DATA, "", "error: table lacks cell sf=9, bw_khz=125\n")

    def test_missing_loss(self, capsys, tmp_path):
        fixture = write_fixture(tmp_path / "no_loss.csv",
                                replacing("9,125,,,-108,8.5,0", "9,125,,,-108,8.5,"))
        code, out, err = run(capsys, ["sweep", "--metric", "loss", "--fixture", fixture])
        assert (code, out, err) == (EXIT_DATA, "", "error: cell sf=9, bw_khz=125 has no loss_pct\n")

    def test_non_finite_fixture_value_is_data_error(self, capsys, tmp_path):
        fixture = write_fixture(tmp_path / "nan.csv",
                                replacing("9,125,,,-108,8.5,0", "9,125,,,nan,8.5,0"))
        code, out, err = run(capsys, ["sweep", "--metric", "rssi", "--fixture", fixture])
        assert (code, out) == (EXIT_DATA, "")
        assert "malformed rssi_dbm: 'nan'" in err


def numbers(lines):
    """Every token of the lines that reads as a float, inf and nan included."""
    for line in lines:
        for token in re.split(r"[ ,=]", line):
            try:
                yield float(token)
            except ValueError:
                pass


class TestFloatRange:
    """A large but finite input gives finite output or one data error, never a traceback."""

    @pytest.mark.parametrize("argv, code", [
        (["sweep", "--metric", "esp", "--fixture"], EXIT_OK),
        (["sweep", "--metric", "excess", "--fixture"], EXIT_OK),
        (["recommend", "--fixture"], EXIT_OK),
        (["reconstruct", "--fixture"], EXIT_TOLERANCE),
        (["budget", "--cell", "sf=8,bw_khz=62.5", *BUDGET_FLAGS, "--fixture"], EXIT_OK),
    ], ids=["sweep-esp", "sweep-excess", "recommend", "reconstruct", "budget-cell"])
    def test_huge_fixture_snr(self, capsys, tmp_path, argv, code):
        fixture = write_fixture(tmp_path / "snr.csv",
                                replacing("8,62.5,,,-91.8,10.2,0", "8,62.5,,,-91.8,4000,0"))
        got, out, err = run(capsys, [*argv, fixture])
        assert (got, err) == (code, "")
        assert all(map(math.isfinite, numbers(result_lines(out))))

    def test_huge_direct_snr(self, capsys):
        code, out, err = run(capsys, ["budget", "--rssi", "-50", "--snr", "4000", "--pt", "20",
                                      "--gt", "5", "--gr", "5", "--d", "5000", "--f", "433e6"])
        assert (code, err) == (EXIT_OK, "")
        assert result_lines(out)[0] == "esp_dbm=-50.000"
        assert all(map(math.isfinite, numbers(result_lines(out))))

    @pytest.mark.parametrize("argv", [
        ["--rssi", "-50", "--snr", "4", *BUDGET_FLAGS, "--pt", "1e308", "--gt", "1e308",
         "--gr", "1e308"],
        ["--rssi=-1e308", "--snr=-1e308", *BUDGET_FLAGS],
    ], ids=["gains", "sample"])
    def test_budget_beyond_the_float_range_is_a_data_error(self, capsys, argv):
        code, out, err = run(capsys, ["budget", *argv])
        assert (code, out) == (EXIT_DATA, "")
        assert err.startswith("error: link budget leaves the float range")
        assert err.count("\n") == 1


class TestSimulate:
    def test_hand_enumerated_schedule(self, capsys):
        code, out, _ = run(
            capsys,
            ["simulate", "--nodes", "2", "--slot-s", "1", "--duration-s", "10",
             "--seed", "7", "--drop", "0,0", "--guard-s", "0"],
        )
        assert code == EXIT_OK
        assert "node A001 sent=5 received=5 lost=0 loss_pct=0" in out
        assert "node A002 sent=5 received=5 lost=0 loss_pct=0" in out

    def test_byte_identical_reruns(self, capsys):
        argv = ["simulate", "--nodes", "3", "--duration-s", "5", "--seed", "11",
                "--drop", "0.3"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_drop_from_fixture_converges_to_measured_loss(self, capsys):
        code, out, _ = run(
            capsys,
            ["simulate", "--nodes", "1", "--sf", "7", "--bw-khz", "10.4",
             "--drop-from-fixture", "bundled", "--slot-s", "0.8", "--guard-s", "0",
             "--duration-s", "1600", "--seed", "3"],
        )
        assert code == EXIT_OK
        summary = [line for line in out.splitlines() if line.startswith("node ")][0]
        loss = float(summary.split("loss_pct=")[1])
        # 2000 opportunities at p=0.54: 3-sigma band is +/- 3.3 points
        assert loss == pytest.approx(54.0, abs=3.4)

    def test_drop_list_must_match_nodes(self, capsys):
        code, _, err = run(
            capsys, ["simulate", "--nodes", "3", "--duration-s", "5", "--drop", "0,0"]
        )
        assert code == EXIT_USAGE

    def test_largest_node_count_takes_every_sync_word_to_ffff(self, capsys):
        code, out, _ = run(capsys, ["simulate", "--nodes", "24575", "--duration-s", "1"])
        assert code == EXIT_OK
        manifest = out.splitlines()[0]
        assert " nodes=24575 sync_words=A001,A002," in manifest
        assert ",FFFE,FFFF sf=8 " in manifest
        assert out.endswith("node FFFF sent=0 received=0 lost=0 loss_pct=0\n")

    def test_report_and_uplink_log_files(self, capsys, tmp_path):
        report = tmp_path / "report.txt"
        log = tmp_path / "uplink.txt"
        code, out, _ = run(
            capsys,
            ["simulate", "--nodes", "2", "--duration-s", "2", "--seed", "5",
             "--output", str(report), "--uplink-log", str(log)],
        )
        assert code == EXIT_OK
        report_text = report.read_text()
        assert report_text.startswith("# manifest simulate ")
        assert "node A001" in report_text
        log_lines = [l for l in log.read_text().splitlines() if not l.startswith("#")]
        rx_count = sum(1 for l in report_text.splitlines() if " rx_ok " in l)
        assert len(log_lines) == rx_count
        assert all("UPLINK GET /update?api_key=DRYRUN" in l for l in log_lines)

    def test_streamed_report_equals_materialised_report(self, capsys, tmp_path):
        report = tmp_path / "report.txt"
        code, _, _ = run(capsys, ["simulate", "--nodes", "3", "--duration-s", "20", "--seed", "8",
                                  "--drop", "0.1,0.5,0.9", "--output", str(report)])
        assert code == EXIT_OK
        config = RadioConfig(sf=8, bw_hz=62500, cr=CodingRate(4, 8))
        nodes = tuple(NodeSpec(0xA001 + i, config, FrameParams(payload_bytes=2), p)
                      for i, p in enumerate((0.1, 0.5, 0.9)))
        schedule = SlotSchedule(nodes, default_slot_duration(nodes), 0.01)
        text = serialize_report(run_simulation(schedule, 20.0, seed=8))
        manifest, body = report.read_bytes().split(b"\n", 1)
        assert manifest.startswith(b"# manifest simulate ")
        assert body == text.encode()

    def test_peak_memory_does_not_grow_with_the_horizon(self, capsys, tmp_path):
        def peak_bytes(duration_s):
            argv = ["simulate", "--nodes", "24", "--duration-s", str(duration_s),
                    "--drop", "0.2", "--output", str(tmp_path / f"r{duration_s}.txt")]
            tracemalloc.start()
            try:
                assert main(argv) == EXIT_OK
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                capsys.readouterr()

        short, long = peak_bytes(150), peak_bytes(600)  # ~3k and ~12k events
        # holding the events would add ~6 kB per simulated second (~2.6 MB here)
        assert long - short < 256 * 1024, (short, long)

    def test_uplink_log_runs_one_simulation(self, capsys, tmp_path, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return slots(*args)

        slots = tdma_sim._slots
        monkeypatch.setattr(tdma_sim, "_slots", counting)
        log = tmp_path / "u.log"
        code, _, _ = run(capsys, ["simulate", "--nodes", "3", "--duration-s", "5", "--drop", "0.3",
                                  "--output", str(tmp_path / "r.txt"), "--uplink-log", str(log)])
        assert code == EXIT_OK and "UPLINK GET" in log.read_text()
        assert len(calls) == 1

    def test_peak_memory_with_an_uplink_log_does_not_grow_with_the_horizon(self, capsys,
                                                                          tmp_path):
        def growth_bytes(duration_s):
            argv = ["simulate", "--nodes", "8", "--duration-s", str(duration_s), "--drop", "0.3",
                    "--output", str(tmp_path / "r.txt"), "--uplink-log", str(tmp_path / "u.log")]
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert main(argv) == EXIT_OK
            return tracemalloc.get_traced_memory()[1] - before

        tracemalloc.start()
        try:
            growth_bytes(600)  # fills the bridge's memos of created_at stamps
            once, four_times = growth_bytes(100), growth_bytes(400)
        finally:
            tracemalloc.stop()
            capsys.readouterr()
        # a tee that held the records between the two sinks would grow with the horizon
        assert four_times - once < 64 * 1024, (once, four_times)

    def test_one_device_may_take_both_report_and_uplink_log(self, capsys):
        code, out, err = run(capsys, ["simulate", "--duration-s", "1", "--output", os.devnull,
                                      "--uplink-log", os.devnull])
        assert (code, err) == (EXIT_OK, "")
        assert out.startswith("# manifest simulate ")


class TestFailBeforeOutput:
    """Invalid runs keep their exit code, create no output file and print nothing."""

    @pytest.mark.parametrize("argv, code", [
        (["--nodes", "2", "--duration-s", "5", "--frames-per-slot", "100"], EXIT_DATA),
        (["--nodes", "2", "--duration-s", "5", "--handshake-s", "5"], EXIT_DATA),
        (["--nodes", "9", "--duration-s", "60", "--uplink-log", "{tmp}/u.log"], EXIT_USAGE),
        (["--nodes", "2", "--duration-s", "5", "--slot-s", "0.05"], EXIT_DATA),  # airtime 0.1157 s
        (["--nodes", "2", "--duration-s", "5", "--drop", "0.1_5"], EXIT_USAGE),
        (["--nodes", "2", "--duration-s", "5", "--drop", "0.\u0665"], EXIT_USAGE),
    ])
    def test_simulate(self, capsys, tmp_path, argv, code):
        out = tmp_path / "r.txt"
        argv = [a.format(tmp=tmp_path) for a in argv]
        got, stdout, _ = run(capsys, ["simulate", *argv, "--output", str(out)])
        assert got == code
        assert stdout == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["--duration-s", "1", "--slot-s", "1e300"],
        ["--duration-s", "1", "--guard-s", "1e300"],
        ["--duration-s", "1", "--handshake-s", "1e300"],
        ["--duration-s", "1e300"],
        ["--duration-s", "1", "--bw-khz", "1e-300"],  # the airtime overflows in nanoseconds
        # twice the airtime overflows in milliseconds, in the default slot duration
        ["--duration-s", "1", "--sf", "12", "--preamble", "65535", "--bw-khz", "1e-300"],
    ], ids=" ".join)
    def test_simulate_times_too_long_to_count_are_data_errors(self, capsys, tmp_path, argv):
        out = tmp_path / "r.txt"
        code, stdout, err = run(capsys, ["simulate", *argv, "--output", str(out)])
        assert (code, stdout) == (EXIT_DATA, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    # a log on stdout gets the manifest of a run without a log (uplink_log=-);
    # a log over the report file would replace it
    @pytest.mark.parametrize("log, output", [
        ("-", None), ("-", "r.txt"), ("r.txt", "r.txt"), ("./r.txt", "r.txt"),
        ("symlink", "r.txt"), ("hardlink", "r.txt"),
    ])
    def test_simulate_uplink_log_needs_a_file_of_its_own(self, capsys, tmp_path, log, output):
        if log == "symlink":
            (tmp_path / log).symlink_to(tmp_path / output)
        elif log == "hardlink":
            (tmp_path / output).write_text("kept\n")
            (tmp_path / log).hardlink_to(tmp_path / output)
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.exists()}
        code, stdout, err = run(capsys, [
            "simulate", "--duration-s", "1",
            "--uplink-log", log if log == "-" else str(tmp_path / log),
            *(["--output", str(tmp_path / output)] if output else [])])
        assert (code, stdout) == (EXIT_USAGE, "")
        assert err.startswith("usage error: --uplink-log ") and err.count("\n") == 1
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()
                if path.exists()} == before

    @pytest.mark.parametrize("output", [False, True], ids=["stdout", "output-file"])
    def test_simulate_unwritable_uplink_log(self, capsys, tmp_path, output):
        report = tmp_path / "r.txt"
        code, stdout, err = run(capsys, [
            "simulate", "--duration-s", "1", "--uplink-log", str(tmp_path / "missing" / "u.log"),
            *(["--output", str(report)] if output else [])])
        assert (code, stdout) == (EXIT_DATA, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not report.exists()

    def test_simulate_unwritable_uplink_log_keeps_an_existing_report(self, capsys, tmp_path):
        report = tmp_path / "r.txt"
        report.write_bytes(b"an earlier report\n")
        code, stdout, err = run(capsys, [
            "simulate", "--duration-s", "1", "--output", str(report),
            "--uplink-log", str(tmp_path / "missing" / "u.log")])
        assert (code, stdout) == (EXIT_DATA, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert report.read_bytes() == b"an earlier report\n"

    def test_reconstruct_off_grid_expected_row(self, capsys, tmp_path):
        expected = tmp_path / "expected.csv"
        expected.write_text(bundled_expected_grid_text() + "41.7,1,2,3,4,5,6\n")
        out = tmp_path / "grid.csv"
        code, stdout, err = run(capsys, ["reconstruct", "--expected", str(expected),
                                         "--output", str(out)])
        assert (code, stdout) == (EXIT_DATA, "")
        assert err.startswith("error: ") and "bw_hz=41700 not in allowed set" in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("nodes, argv, code", [
        ("2", ["--map", "A001=KEY:1"], EXIT_DATA),
        ("2", ["--map", "A001=KEY:1", "--map", "A002=KEY:9"], EXIT_DATA),
        ("9", [], EXIT_USAGE),
        ("2", ["--real"], EXIT_DATA),
        ("2", ["--map", "A001=K:1", "--map", "A001=J:2"], EXIT_USAGE),
        ("2", ["--map", "A001=K:1_0", "--map", "A002=K:2"], EXIT_USAGE),
    ])
    def test_uplink(self, capsys, tmp_path, monkeypatch, nodes, argv, code):
        monkeypatch.delenv("UPLINK_API_KEY", raising=False)
        report = tmp_path / "report.txt"
        run(capsys, ["simulate", "--nodes", nodes, "--duration-s", "5", "--seed", "5",
                     "--output", str(report)])
        out = tmp_path / "u.log"
        got, stdout, _ = run(capsys, ["uplink", "--report", str(report), *argv,
                                      "--output", str(out)])
        assert got == code
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("output", [False, True], ids=["stdout", "output-file"])
    @pytest.mark.parametrize("argv", [[], ["--map", "A001=K:1", "--map", "A002=K:2"]],
                             ids=["default-map", "map"])
    def test_uplink_report_without_summary(self, capsys, tmp_path, argv, output):
        report = tmp_path / "report.txt"
        run(capsys, ["simulate", "--nodes", "3", "--duration-s", "5", "--output", str(report)])
        lines = report.read_text().splitlines(keepends=True)
        report.write_text("".join(line for line in lines if not line.startswith("node ")))
        out = tmp_path / "u.log"
        code, stdout, err = run(capsys, ["uplink", "--report", str(report), *argv,
                                         *(["--output", str(out)] if output else [])])
        assert (code, stdout) == (EXIT_DATA, "")
        assert err.startswith("error: ") and "no summary lines" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("summary, code", [
        ("node A001 sent=1 received=1 lost=0 loss_pct=0", EXIT_OK),
        ("node A001 sent=1 received=1 lost=0 loss_pct=99", EXIT_DATA),
        ("node A001 sent=7 sent=1 received=1 lost=0", EXIT_DATA),
        ("node A001 sent=1 received=1 lost=0 bogus", EXIT_DATA),
        ("node a001 sent=1 received=1 lost=0 loss_pct=0", EXIT_DATA),
        ("node A001 sent=1 received=01 lost=0 loss_pct=0", EXIT_DATA),
        ("node A001 sent=1 received=1 lost=1 loss_pct=100", EXIT_DATA),
        ("node A001 sent=0 received=1 lost=-1 loss_pct=0", EXIT_DATA),
    ], ids=["as-written", "loss-pct", "repeated-sent", "bogus", "lowercase-sync-word",
            "zero-padded-count", "lost-not-sent-minus-received", "received-over-sent"])
    def test_uplink_checks_each_summary_token(self, capsys, tmp_path, summary, code):
        report = tmp_path / "report.txt"
        report.write_text("0 slot_open A001\n0 tx_start A001 84\n115 tx_end A001\n"
                          f"115 rx_ok A001 84\n{summary}\n")
        got, stdout, err = run(capsys, ["uplink", "--report", str(report)])
        assert got == code
        if code == EXIT_DATA:
            assert stdout == ""
            assert err == f"error: line 5: malformed summary line {summary!r}\n"
        else:
            assert stdout.startswith("# manifest uplink") and stdout.count("\n") == 2

    def test_repeated_map_names_both_items(self, capsys, tmp_path):
        report = tmp_path / "report.txt"
        run(capsys, ["simulate", "--nodes", "2", "--duration-s", "5", "--output", str(report)])
        code, _, err = run(capsys, ["uplink", "--report", str(report), "--map", "A002=K:2",
                                    "--map", "A001=K:1", "--map", "a001=J:2"])
        assert code == EXIT_USAGE
        assert "A001" in err and "'A001=K:1'" in err and "'a001=J:2'" in err

    def test_nine_nodes_one_default_key_map_message(self, capsys, tmp_path):
        report = tmp_path / "report.txt"
        run(capsys, ["simulate", "--nodes", "9", "--duration-s", "5", "--output", str(report)])
        simulated = run(capsys, ["simulate", "--nodes", "9", "--duration-s", "5",
                                 "--uplink-log", str(tmp_path / "u.log")])
        bridged = run(capsys, ["uplink", "--report", str(report)])
        assert simulated == bridged
        assert bridged[0] == EXIT_USAGE and "at most 8 nodes" in bridged[2]


class TestSweep:
    def test_rssi_sweep_matches_measured_table(self, capsys):
        code, out, _ = run(capsys, ["sweep", "--metric", "rssi"])
        assert code == EXIT_OK
        lines = result_lines(out)
        assert lines[0] == "sf,bw_khz,rssi"
        rows = lines[1:]
        assert len(rows) == 36
        assert rows[0] == "7,10.4,-92.8"
        assert "7,250,-80.5" in rows

    def test_excess_sweep_matches_reconstruction(self, capsys):
        code, out, _ = run(capsys, ["sweep", "--metric", "excess"])
        assert code == EXIT_OK
        rows = result_lines(out)[1:]
        first = rows[0].split(",")
        assert first[:2] == ["7", "10.4"]
        assert float(first[2]) == pytest.approx(24.532, abs=0.05)

    def test_unknown_metric_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["sweep", "--metric", "airspeed"])
        assert code == EXIT_USAGE
        assert "rssi" in err  # argparse lists the valid choices


class TestUplink:
    def test_bridges_report_file(self, capsys, tmp_path):
        report = tmp_path / "report.txt"
        run(capsys, ["simulate", "--nodes", "2", "--duration-s", "2", "--seed", "5",
                     "--output", str(report)])
        code, out, _ = run(capsys, ["uplink", "--report", str(report)])
        assert code == EXIT_OK
        lines = [l for l in out.splitlines() if "UPLINK" in l]
        assert lines
        assert all("api_key=DRYRUN" in l for l in lines)

    def test_explicit_map(self, capsys, tmp_path):
        report = tmp_path / "report.txt"
        run(capsys, ["simulate", "--nodes", "1", "--duration-s", "1", "--seed", "5",
                     "--output", str(report)])
        code, out, _ = run(
            capsys,
            ["uplink", "--report", str(report), "--map", "A001=MYKEY:3",
             "--epoch", "2024-05-01T00:00:00Z"],
        )
        assert code == EXIT_OK
        lines = [l for l in out.splitlines() if "UPLINK" in l]
        assert all("api_key=MYKEY&field3=" in l for l in lines)
        assert all("created_at=2024-05-01" in l for l in lines)

    def test_epoch_is_echoed_in_utc(self, capsys, tmp_path):
        report = tmp_path / "report.txt"
        run(capsys, ["simulate", "--nodes", "1", "--duration-s", "1", "--output", str(report)])
        code, out, _ = run(capsys, ["uplink", "--report", str(report),
                                    "--epoch", "0001-01-01T00:00:00-01:00"])
        assert code == EXIT_OK
        assert " epoch=0001-01-01T01:00:00Z " in out.splitlines()[0]

    def test_created_at_past_year_9999_is_a_data_error(self, capsys, tmp_path):
        report = tmp_path / "report.txt"
        run(capsys, ["simulate", "--nodes", "1", "--duration-s", "3", "--output", str(report)])
        code, out, err = run(capsys, ["uplink", "--report", str(report),
                                      "--epoch", "9999-12-31T23:59:59Z"])
        assert code == EXIT_DATA
        lines = result_lines(out)
        # the updates of the last second of 9999 are written before the fault
        assert lines and all(line.startswith("9999-12-31T23:59:59Z UPLINK GET ") for line in lines)
        assert re.fullmatch(r"error: rx_ok event at \d+ ns falls after the year 9999 from "
                            r"epoch 9999-12-31T23:59:59Z\n", err)

    def test_unmapped_node_is_data_error(self, capsys, tmp_path):
        report = tmp_path / "report.txt"
        run(capsys, ["simulate", "--nodes", "2", "--duration-s", "2", "--seed", "5",
                     "--output", str(report)])
        code, _, err = run(capsys, ["uplink", "--report", str(report),
                                    "--map", "A001=KEY:1"])
        assert code == EXIT_DATA
        assert "A002" in err

    def test_edited_number_is_a_data_error_naming_its_line(self, capsys, tmp_path):
        report = tmp_path / "report.txt"
        run(capsys, ["simulate", "--nodes", "1", "--duration-s", "1", "--seed", "5",
                     "--output", str(report)])
        lines = report.read_text().splitlines(keepends=True)
        line_no = next(i for i, line in enumerate(lines, start=1) if " tx_start " in line)
        lines[line_no - 1] = lines[line_no - 1].replace(" tx_start A001 ", " tx_start A001 0_")
        report.write_text("".join(lines))
        code, _, err = run(capsys, ["uplink", "--report", str(report)])
        assert code == EXIT_DATA
        assert err.startswith(f"error: line {line_no}: malformed number in ")

    def test_real_mode_without_key_is_an_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("UPLINK_API_KEY", raising=False)
        report = tmp_path / "report.txt"
        run(capsys, ["simulate", "--nodes", "1", "--duration-s", "1", "--seed", "5",
                     "--output", str(report)])
        code, _, err = run(capsys, ["uplink", "--report", str(report), "--real"])
        assert code == EXIT_DATA
        assert "UPLINK_API_KEY" in err


class TestReusedParser:
    """build_parser hands every call in a process the same parser per subcommand."""

    GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text(encoding="utf-8"))
    PLANNING = ("budget", "recommend", "reconstruct", "sweep")

    def test_repeated_planning_queries_give_the_same_bytes(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        golden = {tuple(case["argv"]): case for case in self.GOLDEN.values()
                  if case["argv"] and case["argv"][0] in self.PLANNING}
        assert {argv[0] for argv in golden} == set(self.PLANNING)
        usage_errors = [
            ["budget", "--rssi", "-92.8", *BUDGET_FLAGS],
            ["recommend", "--max-loss", "101"],
            ["reconstruct", "--tolerance", "0"],
            ["sweep"],
        ]
        argvs = [list(argv) for argv in golden] + usage_errors
        random.Random(0).shuffle(argvs)
        cli._parser.cache_clear()
        first = [run(capsys, argv) for argv in argvs]
        second = [run(capsys, argv) for argv in argvs]
        assert first == second
        for argv, (code, out, err) in zip(argvs, first):
            if tuple(argv) in golden:
                case = golden[tuple(argv)]
                assert (code, out, err) == (case["code"], case["stdout"], case["stderr"]), argv
            else:
                assert code == EXIT_USAGE and out == "", argv
        assert cli._parser.cache_info().currsize == len(self.PLANNING)

    def test_help_width_is_read_per_call(self, capsys, monkeypatch):
        results = []
        for columns in ("80", "120", "80"):
            monkeypatch.setenv("COLUMNS", columns)
            results.append(run(capsys, ["recommend", "--help"]))
        narrow, wide, narrow_again = results
        assert narrow == narrow_again == (EXIT_OK, self.GOLDEN["help_recommend"]["stdout"], "")
        assert wide[0] == EXIT_OK and wide[1] != narrow[1]
        assert max(map(len, wide[1].splitlines())) > 80

    def test_repeated_map_flags_do_not_leak_between_calls(self, capsys, tmp_path):
        report = tmp_path / "report.txt"
        run(capsys, ["simulate", "--nodes", "2", "--duration-s", "2", "--seed", "5",
                     "--output", str(report)])
        for maps in (["A001=K1:2", "A002=K2:5"], ["A002=K3:1", "A001=K4:7"]):
            argv = ["uplink", "--report", str(report)]
            for item in maps:
                argv += ["--map", item]
            code, out, _ = run(capsys, argv)
            assert code == EXIT_OK
            assert f" map={';'.join(maps)} " in out.splitlines()[0]
            keys = {re.search(r"api_key=(\w+)", line)[1] for line in out.splitlines()
                    if "UPLINK" in line}
            assert keys == {item.split("=")[1].split(":")[0] for item in maps}


class TestParserBasics:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["budget", "--rssi", "-92.8", "--snr", "8.4", *BUDGET_FLAGS, "--tolerance", "0.1"],
        ["recommend", "--tolerance", "0.1"],
        ["simulate", "--duration-s", "1", "--tolerance", "0.1"],
        ["sweep", "--metric", "snr", "--tolerance", "0.1"],
        ["uplink", "--report", "r.txt", "--tolerance", "0.1"],
        ["simulate", "--duration-s", "1", "--fixture", "f.csv"],
        ["uplink", "--report", "r.txt", "--fixture", "f.csv"],
        ["simulate", "--duration-s", "1", "--pt", "14"],
        ["simulate", "--duration-s", "1", "--f", "868e6"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_flags_without_effect_are_gone(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err

    def test_negative_seed_rejected(self, capsys):
        code, _, _ = run(capsys, ["recommend", "--seed", "-1"])
        assert code == EXIT_USAGE

    def test_missing_fixture_file_is_data_error(self, capsys):
        code, _, err = run(capsys, ["recommend", "--fixture", "/nonexistent/f.csv"])
        assert code == EXIT_DATA

    def test_import_leaves_the_http_stack_unloaded(self):
        probe = ("import sys, loralink, loralink.cli; "
                 "print(sorted(m for m in ('http.client', 'ssl', 'email') if m in sys.modules))")
        src = str(Path(loralink.__file__).parents[1])
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              check=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert done.stdout.strip() == "[]"

    def test_import_leaves_dataclasses_and_inspect_unloaded(self):
        # the value types are __slots__ classes; dataclasses would load both
        probe = ("import sys, loralink, loralink.cli; "
                 "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
        src = str(Path(loralink.__file__).parents[1])
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              check=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert done.stdout.strip() == "[]"

    # In a fresh interpreter: `import loralink.cli`, then main(argv) if argv is
    # given; prints the loralink modules whose body has run, then which of csv
    # and datetime are loaded. A module registered but not yet run is still of
    # the lazy subclass; type() tells them apart without triggering the load.
    LOAD_PROBE = (
        "import contextlib, io, sys, types\n"
        "import loralink.cli\n"
        "if sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert loralink.cli.main(sys.argv[1:]) == 0\n"
        "print(*sorted(n for n, m in sys.modules.items()\n"
        "              if n.split('.')[0] == 'loralink' and type(m) is types.ModuleType))\n"
        "print(*[m for m in ('csv', 'datetime') if m in sys.modules])\n"
    )

    def loaded_after(self, argv):
        src = str(Path(loralink.__file__).parents[1])
        done = subprocess.run([sys.executable, "-c", self.LOAD_PROBE, *argv], capture_output=True,
                              text=True, check=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        ran, stdlib = done.stdout.split("\n")[:2]
        return set(ran.split()), set(stdlib.split())

    def test_import_runs_only_the_cli_and_its_argument_types(self):
        ran, stdlib = self.loaded_after([])
        assert ran == {"loralink", "loralink.cli", "loralink.core_types", "loralink.phy_model"}
        assert stdlib == set()

    @pytest.mark.parametrize("argv, home, not_run, not_loaded", [
        (["recommend"], "recommender", {"tdma_sim", "rng", "uplink_bridge"}, set()),
        (["simulate", "--duration-s", "5"], "tdma_sim",
         {"dataset", "recommender", "uplink_bridge"}, {"csv"}),
        (["uplink", "--report", "REPORT"], "uplink_bridge", {"dataset", "recommender"}, set()),
    ], ids=["recommend", "simulate", "uplink"])
    def test_a_subcommand_runs_only_the_modules_it_calls(self, tmp_path, argv, home, not_run,
                                                          not_loaded):
        report = tmp_path / "report.txt"
        assert main(["simulate", "--duration-s", "5", "--output", str(report)]) == EXIT_OK
        ran, stdlib = self.loaded_after([str(report) if a == "REPORT" else a for a in argv])
        assert f"loralink.{home}" in ran
        assert not ran & {f"loralink.{name}" for name in not_run}
        assert not stdlib & not_loaded

    @pytest.mark.parametrize("argv, read_first_line", [
        # the run itself fails writing its long report after `head -1` leaves
        (["simulate", "--duration-s", "600"], True),
        # the short output sits in the buffer until the flush at exit
        (["sweep", "--metric", "rssi"], False),
    ], ids=["during-the-run", "at-the-final-flush"])
    def test_closed_stdout_exits_3_with_one_error_line(self, argv, read_first_line):
        src = str(Path(loralink.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("PYTHONUNBUFFERED", None)  # the block-buffered stdout of a pipe
        read_end, write_end = os.pipe()
        if not read_first_line:
            os.close(read_end)  # closed before the child writes a byte
        child = subprocess.Popen([sys.executable, "-m", "loralink.cli", *argv], stdout=write_end,
                                 stderr=subprocess.PIPE, env=env, text=True)
        os.close(write_end)
        if read_first_line:
            with open(read_end, encoding="utf-8") as reader:
                assert reader.readline().startswith("# manifest ")
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=60) == EXIT_DATA
        assert err == "error: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("argv", [
        ["budget", "--rssi", "-92.8", "--snr", "8.4", *BUDGET_FLAGS, "--d", "nan"],
        ["budget", "--rssi", "-92.8", "--snr", "8.4", *BUDGET_FLAGS, "--gt", "inf"],
        ["budget", "--rssi", "nan", "--snr", "8.4", *BUDGET_FLAGS],
        ["simulate", "--duration-s", "inf"],
        ["simulate", "--duration-s", "5", "--bw-khz", "NaN"],
        ["simulate", "--duration-s", "5", "--bw-khz", "1e999999"],
        ["simulate", "--duration-s", "5", "--guard-s", "nan"],
        ["simulate", "--duration-s", "5", "--handshake-s", "nan"],
        ["recommend", "--top", "-1"],
        ["reconstruct", "--tolerance", "nan"],
        ["simulate", "--duration-s", "5", "--sf", "40"],
        ["simulate", "--duration-s", "5", "--payload-bytes", "100000000"],
        ["simulate", "--duration-s", "1", "--preamble", "100000000"],
        ["simulate", "--duration-s", "1", "--preamble", "-1"],
        ["simulate", "--duration-s", "1", "--nodes", "0"],
        ["recommend", "--max-loss", "101"],
        ["simulate", "--duration-s", "1", "--seed", "-1"],
        ["simulate", "--duration-s", "5", "--bw-khz", "1e99999"],
        ["simulate", "--duration-s", "5", "--bw-khz", "1_25"],
        ["simulate", "--duration-s", "5", "--frames-per-slot", "0"],
        ["simulate", "--duration-s", "5", "--sf", "1_2"],
        ["simulate", "--duration-s", "1_0"],
        ["simulate", "--duration-s", "5", "--guard-s", "-0.01"],
        ["simulate", "--duration-s", "5", "--handshake-s", "-0.1"],
        ["simulate", "--duration-s", "5", "--bw-khz", "\u0661\u0662\u0665"],
        ["simulate", "--duration-s", "5", "--sf", "\u0668"],
        ["simulate", "--duration-s", "\u0665"],
        ["simulate", "--duration-s", "1", "--seed", "+5"],
        ["budget", "--rssi", "-92.8", "--snr", "8.4", *BUDGET_FLAGS,
         "--d", "\u0665\u0660\u0660\u0660"],
        # refused before the report is opened
        ["uplink", "--report", "/nonexistent/report.txt", "--min-spacing-s", "-1"],
        # outside the years 1..9999 once converted to UTC
        ["uplink", "--report", "/nonexistent/report.txt", "--epoch", "0001-01-01T00:00:00+01:00"],
        ["uplink", "--report", "/nonexistent/report.txt", "--epoch", "9999-12-31T23:00:00-05:00"],
        # more nodes than the sync words A001..FFFF
        ["simulate", "--duration-s", "1", "--nodes", "99999999999999999999"],
        ["simulate", "--duration-s", "1", "--nodes", "10000000000000"],
        ["simulate", "--duration-s", "1", "--nodes", "24576"],
    ])
    def test_non_finite_and_negative_values_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"usage: loralink {argv[0]} ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("order, message", [
        ("snr,airtime", "unknown tie-break metric(s) ['airtime']; valid: snr, excess_loss, rssi"),
        (",", "tie_break_order must not be empty"),
        ("snr,snr", "tie_break_order must not repeat metrics"),
    ])
    def test_bad_order_is_refused_at_the_argument_type(self, capsys, order, message):
        code, out, err = run(capsys, ["recommend", "--order", order])
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("usage: loralink recommend ")
        assert err.endswith(f"error: argument --order: {message}\n")

    @pytest.mark.parametrize("rate", ["5/8", "6/8", "7/8"])
    def test_coding_rate_without_a_transceiver_index_is_a_usage_error(self, capsys, rate):
        code, out, err = run(capsys, ["simulate", "--duration-s", "5", "--cr", rate])
        assert (code, out) == (EXIT_USAGE, "")
        assert f"argument --cr: coding rate {rate} has no exact transceiver coding index; " \
               "only 4/8 has one" in err

    @pytest.mark.parametrize("argv, type_name", [
        (["budget", "--rssi", "-92.8", "--snr", "8.4", *BUDGET_FLAGS, "--d", "abc"], "float"),
        (["recommend", "--max-loss", "abc"], "float"),
        (["simulate", "--duration-s", "1", "--seed", "abc"], "int"),
        (["simulate", "--duration-s", "1", "--slot-s", "abc"], "float"),
    ], ids=lambda value: value[-2] if isinstance(value, list) else value)
    def test_non_numeric_text_names_the_builtin_type(self, capsys, argv, type_name):
        code, out, err = run(capsys, argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert f"argument {argv[-2]}: invalid {type_name} value: 'abc'" in err
        assert not re.search(r"\b_\w", err), err
