"""`simulate`, `uplink`, `budget`, `sweep` and `recommend` against the
benchmark's independent reference.

bench/reference.py derives the report from the tdma_sim and rng docstrings,
the request lines from the uplink_bridge docstrings, and the budget chain
and the filter-then-rank recommendation from the link_budget and
recommender docstrings; it imports nothing from loralink. Inside its
envelope (the default guard, payload, preamble and coding rate, one frame
per slot, no handshake) every drawn `simulate` run must print exactly the
reference's report body, and every drawn `uplink` run exactly the
reference's request lines. A drawn `simulate --output R --uplink-log L`
run must write the reference's report body to R and its request lines,
under the default key map and epoch, to L. `budget`, `sweep` and
`recommend` are held to the benchmark's own rule (bench/checks.py):
numbers echoed from the fixture are equal, numbers printed rounded lie
within half a unit of the last printed digit (plus 1e-9), and everything
else is byte-equal.
"""

import contextlib
import io
import itertools
import runpy
import sys
import tempfile
import types
from decimal import Decimal
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from loralink.cli import EXIT_DATA, EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]
# run_path compiles the source in memory: nothing is written under bench/
REF = runpy.run_path(str(ROOT / "bench" / "reference.py"))


def _checks() -> dict:
    """bench/checks.py, whose `import reference` is served the REF above."""
    reference = types.ModuleType("reference")
    reference.__dict__.update(REF)
    saved = sys.modules.get("reference")
    sys.modules["reference"] = reference
    try:
        return runpy.run_path(str(ROOT / "bench" / "checks.py"))
    finally:
        if saved is None:
            del sys.modules["reference"]
        else:
            sys.modules["reference"] = saved


CHECKS = _checks()

# the drop probabilities the campaign measured, as decimal text ('16.6' -> '0.166')
BUNDLED_FIXTURE = ROOT / "src" / "loralink" / "data" / "field_measurements.csv"
BUNDLED = REF["read_fixture"](BUNDLED_FIXTURE)
LOSS_TEXTS = sorted({str(Decimal(repr(cell.loss)) / 100) for cell in BUNDLED[0].values()})


@st.composite
def simulate_runs(draw, max_nodes=24):
    nodes = draw(st.integers(1, max_nodes))
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


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(simulate_runs(max_nodes=8))  # the default key map has one field per node, 8 at most
def test_simulate_report_and_uplink_log_equal_the_reference(run):
    nodes, sf, bw_khz, duration_s, drops, seed = run
    with tempfile.TemporaryDirectory() as tmp:
        report, log = Path(tmp) / "report.txt", Path(tmp) / "uplink.log"
        argv = ["simulate", "--nodes", str(nodes), "--sf", str(sf), "--bw-khz", bw_khz,
                "--duration-s", str(duration_s), "--drop", ",".join(drops), "--seed", str(seed),
                "--output", str(report), "--uplink-log", str(log)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == EXIT_OK
        (report_manifest, report_body), (log_manifest, log_body) = (
            path.read_text(encoding="utf-8").split("\n", 1) for path in (report, log))
    assert report_manifest == log_manifest and report_manifest.startswith("# manifest simulate ")
    timeline = REF["Timeline"](nodes, sf, REF["khz_to_hz"](bw_khz), duration_s)
    expected = list(REF["report_lines"](timeline, drops * nodes if len(drops) == 1 else drops,
                                        seed))
    want = [line + "\n" for line in expected]
    assert first_difference(report_body.splitlines(keepends=True), want) is None
    key_map = {REF["sync_tag"](p): ("DRYRUN", p + 1) for p in range(nodes)}
    want = [line + "\n" for line in REF["request_lines"](expected, key_map, 0)]
    assert first_difference(log_body.splitlines(keepends=True), want) is None


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


# --- budget, sweep and recommend -------------------------------------------

CSV_HEADER = "sf,bw_khz,cr_num,cr_den,rssi_dbm,snr_db,loss_pct"
# few distinct values, so that metric ties and loss ceilings on a cell's
# exact loss are common
RSSI_TEXTS = ("-120", "-110.8", "-101.5", "-92.8", "-91")
SNR_TEXTS = ("-7.5", "0", "5.65", "8.4", "10.2", "11.55")
CELL_LOSS_TEXTS = ("0", "0", "16.6", "54", "100")


def decimal_text(low: int, high: int, scale: int = 10):
    """Decimal text of an integer in [low, high] divided by scale."""
    return st.integers(low, high).map(lambda n: str(Decimal(n) / scale))


@st.composite
def link_flags(draw):
    """(reference Link, CLI flags) for drawn link constants."""
    texts = {
        "pt": draw(decimal_text(-100, 300)),
        "gt": draw(decimal_text(-50, 150)),
        "gr": draw(decimal_text(-50, 150)),
        "d": draw(decimal_text(1, 1_000_000)),
        "f": draw(st.one_of(decimal_text(100, 3000).map(lambda m: f"{m}e6"),
                            st.just("433000000"))),
        "c": draw(st.one_of(st.just("3e8"), decimal_text(2_900, 3_000).map(lambda m: f"{m}e5"))),
    }
    link = REF["Link"](**{name: float(text) for name, text in texts.items()})
    return link, [arg for name, text in texts.items() for arg in (f"--{name}", text)]


@st.composite
def fixture_texts(draw):
    """None (the bundled fixture) or the text of a drawn measurement CSV:
    all 36 grid cells, and coding-rate sweeps at zero to two cells, rows
    in any order."""
    if draw(st.integers(0, 3)) == 0:
        return None
    rows = [f"{sf},{bw},,,{draw(st.sampled_from(RSSI_TEXTS))},"
            f"{draw(st.sampled_from(SNR_TEXTS))},{draw(st.sampled_from(CELL_LOSS_TEXTS))}"
            for bw in REF["BW_ORDER"] for sf in REF["SF_ORDER"]]
    cells = st.tuples(st.sampled_from(REF["SF_ORDER"]), st.sampled_from(REF["BW_ORDER"]))
    for sf, bw in draw(st.lists(cells, max_size=2, unique=True)):
        for num in draw(st.lists(st.integers(4, 7), min_size=1, max_size=4, unique=True)):
            rows.append(f"{sf},{bw},{num},8,,{draw(st.sampled_from(SNR_TEXTS))},")
    return "\n".join([CSV_HEADER, *draw(st.permutations(rows))]) + "\n"


def run_on_fixture(fixture_text, argv):
    """(exit code, stdout, stderr, reference grid, reference sweep) of argv
    on the drawn fixture."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        grid, sweep = BUNDLED
        if fixture_text is not None:
            path = Path(tmp) / "fixture.csv"
            path.write_text(fixture_text, encoding="utf-8")
            argv = [*argv, "--fixture", str(path)]
            grid, sweep = REF["read_fixture"](path)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue(), grid, sweep


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(fixture_texts(), link_flags(), st.data())
def test_recommend_equals_the_reference(fixture_text, link_and_flags, data):
    link, flags = link_and_flags
    # loss ceilings on a cell's exact loss, between them, and the extremes
    max_loss = data.draw(st.one_of(st.sampled_from(("0", "16.6", "54", "100")),
                                   decimal_text(0, 10_000, 100)))
    min_bw = data.draw(st.sampled_from((*REF["BW_ORDER"], "1", "600")))
    order = data.draw(st.permutations(["snr", "excess_loss", "rssi"]))[
        :data.draw(st.integers(1, 3))]
    top = data.draw(st.integers(0, 25))
    argv = ["recommend", "--max-loss", max_loss, "--min-bw-khz", min_bw,
            "--order", ",".join(order), "--top", str(top), *flags]
    code, out, err, grid, sweep = run_on_fixture(fixture_text, argv)
    ranked = REF["ranked_cells"](grid, link, float(max_loss), REF["khz_to_hz"](min_bw), order)
    if not ranked:
        assert (code, out) == (EXIT_DATA, "")
        assert err.startswith("error: no feasible configuration; binding constraint: ")
        return
    assert (code, err) == (EXIT_OK, "")
    cr, basis = REF["coding_rate"](sweep, ranked[0][0])
    CHECKS["check_recommend"](out, ranked=ranked, cr=cr, basis=basis, top=top)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(fixture_texts(), link_flags(), st.sampled_from(REF["SWEEP_METRICS"]))
def test_sweep_equals_the_reference(fixture_text, link_and_flags, metric):
    link, flags = link_and_flags
    code, out, err, grid, _ = run_on_fixture(fixture_text, ["sweep", "--metric", metric, *flags])
    assert (code, err) == (EXIT_OK, "")
    CHECKS["check_sweep"](out, metric=metric, grid=grid, link=link)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(fixture_texts(), link_flags(), st.data())
def test_budget_equals_the_reference(fixture_text, link_and_flags, data):
    link, flags = link_and_flags
    if data.draw(st.booleans()):
        sf, bw = data.draw(st.sampled_from(REF["SF_ORDER"])), data.draw(
            st.sampled_from(REF["BW_ORDER"]))
        source = ["--cell", f"sf={sf},bw_khz={bw}"]
    else:
        sf = bw = None
        rssi, snr = data.draw(decimal_text(-1500, -200)), data.draw(decimal_text(-300, 300))
        source = ["--rssi", rssi, "--snr", snr]
    code, out, err, grid, _ = run_on_fixture(fixture_text, ["budget", *source, *flags])
    if sf is not None:
        rssi, snr = grid[(sf, bw)].rssi, grid[(sf, bw)].snr
    assert (code, err) == (EXIT_OK, "")
    CHECKS["check_budget"](out, values=REF["budget"](link, float(rssi), float(snr)))
