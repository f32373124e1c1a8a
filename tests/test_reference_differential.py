"""`simulate` and `uplink` against the benchmark's independent reference,
byte for byte.

bench/reference.py derives the report from the tdma_sim and rng docstrings
and the request lines from the uplink_bridge docstrings, and imports
nothing from loralink. Inside its envelope (the default guard, payload,
preamble and coding rate, one frame per slot, no handshake) every drawn
`simulate` run must print exactly the reference's report body, and every
drawn `uplink` run exactly the reference's request lines.
"""

import contextlib
import io
import itertools
import runpy
import tempfile
from decimal import Decimal
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from loralink.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]
# run_path compiles the source in memory: nothing is written under bench/
REF = runpy.run_path(str(ROOT / "bench" / "reference.py"))

# the drop probabilities the campaign measured, as decimal text ('16.6' -> '0.166')
GRID, _ = REF["read_fixture"](ROOT / "src" / "loralink" / "data" / "field_measurements.csv")
LOSS_TEXTS = sorted({str(Decimal(repr(cell.loss)) / 100) for cell in GRID.values()})


@st.composite
def simulate_runs(draw):
    nodes = draw(st.integers(1, 24))
    per_node = st.lists(st.sampled_from(LOSS_TEXTS), min_size=nodes, max_size=nodes)
    # one value broadcasts to every node
    drops = draw(st.one_of(st.sampled_from(LOSS_TEXTS).map(lambda p: [p]), per_node))
    return (nodes, draw(st.integers(7, 12)), draw(st.sampled_from(REF["BW_ORDER"])),
            draw(st.integers(1, 30)), drops, draw(st.integers(0, 2**64 - 1)))


def first_difference(got, want):
    """(line number, got, wanted) at the first line that differs, else None.

    A mismatch of two long reports stays cheap to explain, where pytest's
    diff of the two strings would take minutes.
    """
    for line_no, (got_line, want_line) in enumerate(itertools.zip_longest(got, want), start=1):
        if got_line != want_line:
            return line_no, got_line, want_line
    return None


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(simulate_runs())
def test_simulate_report_equals_the_reference(run):
    nodes, sf, bw_khz, duration_s, drops, seed = run
    argv = ["simulate", "--nodes", str(nodes), "--sf", str(sf), "--bw-khz", bw_khz,
            "--duration-s", str(duration_s), "--drop", ",".join(drops), "--seed", str(seed)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == EXIT_OK
    manifest, body = out.getvalue().split("\n", 1)
    assert manifest.startswith("# manifest simulate ")
    timeline = REF["Timeline"](nodes, sf, REF["khz_to_hz"](bw_khz), duration_s)
    expected = REF["report_lines"](timeline, drops * nodes if len(drops) == 1 else drops, seed)
    want = [line + "\n" for line in expected]
    assert first_difference(body.splitlines(keepends=True), want) is None


# characters that percent-encoding must rewrite, and some it must keep
KEY_SPECIALS = "+/ %"
KEY_TEXT = st.text(alphabet="aZ09-._~:=&?#\u00e9" + KEY_SPECIALS, max_size=4)


@st.composite
def uplink_runs(draw):
    nodes, sf, bw_khz, duration_s, drops, seed = draw(simulate_runs())
    duration_s = min(duration_s, 10)
    # every key holds at least one character that needs percent-encoding
    keys = st.tuples(KEY_TEXT, st.sampled_from(KEY_SPECIALS), KEY_TEXT).map("".join)
    key_map = {REF["sync_tag"](p): (draw(keys), draw(st.integers(1, 8))) for p in range(nodes)}
    epoch_s = draw(st.integers(0, 4_102_444_799))  # 1970 to the end of 2099
    return nodes, sf, bw_khz, duration_s, drops, seed, key_map, epoch_s


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(uplink_runs())
def test_uplink_log_equals_the_reference(run):
    nodes, sf, bw_khz, duration_s, drops, seed, key_map, epoch_s = run
    timeline = REF["Timeline"](nodes, sf, REF["khz_to_hz"](bw_khz), duration_s)
    report = list(REF["report_lines"](timeline, drops * nodes if len(drops) == 1 else drops, seed))
    maps = [arg for tag, (key, field) in key_map.items()
            for arg in ("--map", f"{tag}={key}:{field}")]
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.txt"
        path.write_text("".join(line + "\n" for line in report), encoding="utf-8")
        argv = ["uplink", "--report", str(path), *maps, "--epoch", REF["utc_stamp"](epoch_s)]
        with contextlib.redirect_stdout(out):
            assert main(argv) == EXIT_OK
    manifest, body = out.getvalue().split("\n", 1)
    assert manifest.startswith("# manifest uplink ")
    want = [line + "\n" for line in REF["request_lines"](report, key_map, epoch_s)]
    assert first_difference(body.splitlines(keepends=True), want) is None
