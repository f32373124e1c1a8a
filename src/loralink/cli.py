"""Command-line surface: budget, reconstruct, recommend, simulate, sweep, uplink.

Every run resolves all of its parameters up front into a manifest that is
echoed as '#' comment lines at the top of each output, so results are
reproducible from the output alone.

Exit codes: 0 success; 2 usage error; 3 data/validation error, or a
stdout closed before all output was written; 4 tolerance exceeded.

Importing this module runs only it, `core_types` and `phy_model` (which its
argument types need). The other modules are read as attributes at call
time (`dataset.lookup(...)`), so each runs on a subcommand's first use.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager, nullcontext
from functools import cache
from itertools import tee
from typing import Sequence

from . import dataset, link_budget, recommender, tdma_sim, uplink_bridge
from .core_types import (
    BW_HZ_VALUES,
    SF_VALUES,
    CodingRate,
    LinkParams,
    RadioConfig,
    SignalSample,
    format_decimal,
    hz_to_khz_str,
    khz_str_to_hz,
    parse_float,
    parse_int,
)
from .phy_model import FrameParams, coding_rate_index

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_TOLERANCE = 4

BUNDLED_FIXTURE = "bundled:field_measurements.csv"
BUNDLED_EXPECTED = "bundled:excess_loss_expected.csv"

# sweep metric -> the MeasurementRecord column it prints, or for the metrics
# the budget chain derives, the LossBreakdown field
SWEEP_MEASURED = {"rssi": "rssi_dbm", "snr": "snr_db", "loss": "loss_pct"}
SWEEP_DERIVED = {"esp": "esp_dbm", "path_loss": "path_loss_db", "fsl": "fsl_db",
                 "excess": "excess_db"}
SWEEP_METRICS = (*SWEEP_MEASURED, *SWEEP_DERIVED)


class UsageError(ValueError):
    """Argument combination error detected after argparse."""


def _khz_arg(text: str) -> float:
    try:
        return khz_str_to_hz(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _cr_arg(text: str) -> CodingRate:
    """A coding rate the airtime formula can map onto a transceiver index."""
    try:
        cr = CodingRate.parse(text)
        coding_rate_index(cr)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return cr


def _checked(convert, accept, expected: str):
    """An argparse type: a strict reader (parse_float, parse_int), then accept.

    Named after the builtin type, so text that does not convert ('x', '1_2',
    non-ASCII digits) reads "invalid float value: 'x'" as with the bare type.
    """
    def parse(text: str):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text}")
        return value

    parse.__name__ = convert.__name__.removeprefix("parse_")
    return parse


_finite_float = _checked(parse_float, math.isfinite, "a finite number")
_positive_float = _checked(parse_float, lambda value: 0 < value < math.inf, "a positive value")
_non_negative_float = _checked(parse_float, lambda v: 0 <= v < math.inf, "a finite value >= 0")
_loss_pct_arg = _checked(parse_float, lambda v: 0 <= v <= 100, "a loss percentage in [0, 100]")
_non_negative_int = _checked(parse_int, lambda value: value >= 0, "a non-negative integer")
# one sync word each, from A001 to FFFF
_nodes_arg = _checked(parse_int, lambda value: 1 <= value <= 0xFFFF - 0xA000, "1..24575 nodes")
_frames_arg = _checked(parse_int, lambda value: value >= 1, "at least 1 frame per slot")
_sf_arg = _checked(parse_int, lambda value: 6 <= value <= 12, "a spreading factor in 6..12")
# 255 is the largest length the LoRa PHY header can carry
_payload_arg = _checked(parse_int, lambda value: 0 <= value <= 255, "a payload of 0..255 bytes")
# the SX127x preamble-length register is 16 bits wide
_preamble_arg = _checked(parse_int, lambda v: 0 <= v <= 65535, "a preamble of 0..65535 symbols")


def _order_arg(text: str) -> tuple[str, ...]:
    """Comma-separated ranking metrics, checked by SelectionConstraints."""
    order = tuple(metric.strip() for metric in text.split(",") if metric.strip())
    try:
        return recommender.SelectionConstraints(tie_break_order=order).tie_break_order
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _iso8601_arg(text: str):
    """The instant as an aware datetime in UTC; a naive timestamp is read as UTC."""
    from datetime import datetime, timezone  # only uplink reads a timestamp

    try:
        moment = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed ISO-8601 timestamp {text!r}") from None
    if moment.tzinfo is None:
        return moment.replace(tzinfo=timezone.utc)
    try:
        return moment.astimezone(timezone.utc)
    except OverflowError:
        raise argparse.ArgumentTypeError(
            f"ISO-8601 timestamp {text!r} falls outside the years 1..9999 in UTC") from None


def _manifest_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_decimal(value)
    return str(value)


def _manifest_line(subcommand: str, params: dict) -> str:
    """The fully resolved run parameters, echoed at the top of every output."""
    pairs = " ".join(f"{key}={_manifest_value(value)}" for key, value in params.items())
    return f"# manifest {subcommand} {pairs}"


@contextmanager
def _open_output(path: str | None):
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as handle:
            yield handle


def _load_fixture(path: str | None):
    """Returns (table, display name) for --fixture (None = bundled)."""
    if path is None:
        return dataset.load_bundled_measurements(), BUNDLED_FIXTURE
    return dataset.load_measurements(path), path


def _parse_cell(text: str) -> tuple[int, float]:
    pairs = {}
    for item in text.split(","):
        key, sep, value = item.partition("=")
        if not sep:
            raise UsageError(f"malformed --cell item {item!r}; expected sf=<int>,bw_khz=<decimal>")
        pairs[key.strip()] = value.strip()
    if set(pairs) != {"sf", "bw_khz"}:
        raise UsageError("--cell must supply exactly sf=<int>,bw_khz=<decimal>")
    try:
        return parse_int(pairs["sf"]), khz_str_to_hz(pairs["bw_khz"])
    except ValueError:
        raise UsageError(
            f"malformed --cell {text!r}; expected sf=<int>,bw_khz=<decimal>"
        ) from None


def _link_params(args) -> LinkParams:
    return LinkParams(tx_power_dbm=args.pt, gt_dbi=args.gt, gr_dbi=args.gr,
                      distance_m=args.d, freq_hz=args.f, c_mps=args.c)


def _link_manifest(link: LinkParams) -> dict:
    """The link block of the budget, reconstruct, recommend and sweep manifests."""
    return {"pt_dbm": link.tx_power_dbm, "gt_dbi": link.gt_dbi, "gr_dbi": link.gr_dbi,
            "distance_m": link.distance_m, "freq_hz": link.freq_hz, "c_mps": link.c_mps}


def _add_globals(parser: argparse.ArgumentParser, *, fixture: bool = True) -> None:
    """--seed and --output, after --fixture for the subcommands that read one."""
    if fixture:
        parser.add_argument("--fixture", metavar="PATH", default=None,
                            help="measurement CSV (default: the bundled field measurements)")
    parser.add_argument("--seed", type=_non_negative_int, default=0, help="run seed (default 0)")
    parser.add_argument("--output", metavar="PATH", default=None,
                        help="output file (default: stdout)")


def _add_link_constant_flags(parser: argparse.ArgumentParser, *, required: bool = False) -> None:
    """--pt, --gt, --gr, --d and --f (required, or LinkParams' defaults), and --c."""
    link = LinkParams()
    for flag, kind, default, help_text in (
        ("--pt", _finite_float, link.tx_power_dbm, "transmit power in dBm"),
        ("--gt", _finite_float, link.gt_dbi, "transmitter antenna gain in dBi"),
        ("--gr", _finite_float, link.gr_dbi, "receiver antenna gain in dBi"),
        ("--d", _positive_float, link.distance_m, "link distance in meters"),
        ("--f", _positive_float, link.freq_hz, "carrier frequency in Hz"),
    ):
        parser.add_argument(flag, type=kind, required=required,
                            default=None if required else default, help=help_text)
    parser.add_argument("--c", type=_positive_float, default=link.c_mps,
                        help="propagation speed in m/s (default 3e8)")


def _budget_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rssi", type=_finite_float, default=None, help="measured RSSI in dBm")
    parser.add_argument("--snr", type=_finite_float, default=None, help="measured SNR in dB")
    parser.add_argument("--cell", default=None, metavar="SPEC",
                        help="fixture cell reference, e.g. sf=7,bw_khz=10.4")
    _add_link_constant_flags(parser, required=True)
    _add_globals(parser)
    parser.set_defaults(func=cmd_budget)


def _reconstruct_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--expected", metavar="PATH", default=None,
                        help="expected grid CSV (default: bundled)")
    _add_link_constant_flags(parser)
    _add_globals(parser)
    parser.add_argument("--tolerance", type=_positive_float, default=0.05, metavar="DB",
                        help="comparison tolerance in dB (default 0.05)")
    parser.set_defaults(func=cmd_reconstruct)


def _recommend_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-loss", type=_loss_pct_arg, default=0.0,
                        help="hard packet-loss ceiling in percent (default 0)")
    parser.add_argument("--min-bw-khz", type=_khz_arg, default=62500.0, dest="min_bw_hz",
                        metavar="KHZ", help="minimum admissible bandwidth (default 62.5)")
    parser.add_argument("--order", type=_order_arg,
                        default=recommender.SelectionConstraints().tie_break_order,
                        help="comma-separated ranking metrics (snr, excess_loss, rssi)")
    parser.add_argument("--top", type=_non_negative_int, default=5,
                        help="runner-up rows to print (default 5)")
    _add_link_constant_flags(parser)
    _add_globals(parser)
    parser.set_defaults(func=cmd_recommend)


def _simulate_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", type=_nodes_arg, default=2,
                        help="number of sensor nodes (default 2)")
    parser.add_argument("--sf", type=_sf_arg, default=8,
                        help="spreading factor for all nodes (default 8)")
    parser.add_argument("--bw-khz", type=_khz_arg, default=62500.0, dest="bw_hz",
                        metavar="KHZ", help="bandwidth for all nodes (default 62.5)")
    parser.add_argument("--cr", type=_cr_arg, default=CodingRate(4, 8),
                        help="coding rate for all nodes (default 4/8)")
    parser.add_argument("--payload-bytes", type=_payload_arg, default=2,
                        help="frame payload size (default 2)")
    parser.add_argument("--preamble", type=_preamble_arg, default=8,
                        help="preamble symbols (default 8)")
    parser.add_argument("--slot-s", type=_positive_float, default=None,
                        help="slot duration in seconds (default: 2x airtime, ms-rounded)")
    parser.add_argument("--guard-s", type=_non_negative_float, default=0.01,
                        help="guard time between slots in seconds (default 0.01)")
    parser.add_argument("--duration-s", type=_positive_float, required=True,
                        help="virtual simulation duration in seconds")
    parser.add_argument("--frames-per-slot", type=_frames_arg, default=1,
                        help="frames per transmission opportunity (default 1)")
    parser.add_argument("--handshake-s", type=_non_negative_float, default=0.0,
                        help="fixed connection-establishment latency per slot (default 0)")
    parser.add_argument("--drop", default=None, metavar="P[,P...]",
                        help="per-node drop probabilities (single value broadcasts)")
    parser.add_argument("--drop-from-fixture", default=None, metavar="PATH",
                        help="derive drop probabilities from a measurement CSV "
                             "('bundled' for the packaged fixture)")
    parser.add_argument("--uplink-log", default=None, metavar="PATH",
                        help="also write a dry-run uplink log for received packets")
    _add_globals(parser, fixture=False)
    parser.set_defaults(func=cmd_simulate)


def _sweep_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metric", required=True, choices=SWEEP_METRICS)
    _add_link_constant_flags(parser)
    _add_globals(parser)
    parser.set_defaults(func=cmd_sweep)


def _uplink_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--report", required=True, metavar="PATH",
                        help="serialized simulation report")
    parser.add_argument("--map", action="append", default=None, metavar="SYNC=KEY:FIELD",
                        help="map a sync word to an api key and field index (repeatable)")
    parser.add_argument("--epoch", type=_iso8601_arg,
                        default=_iso8601_arg("1970-01-01T00:00:00Z"),
                        help="wall-clock instant of virtual time zero (default Unix epoch)")
    parser.add_argument("--real", action="store_true",
                        help="actually send over HTTP (requires UPLINK_API_KEY)")
    parser.add_argument("--min-spacing-s", type=_non_negative_float, default=None,
                        help="minimum spacing between sends (default 0 dry-run, 15 real)")
    _add_globals(parser, fixture=False)
    parser.set_defaults(func=cmd_uplink)


# name -> (one-line help, builder that adds the subcommand's flags)
SUBCOMMANDS = {
    "budget": ("link-budget breakdown for one sample", _budget_flags),
    "reconstruct": ("rebuild the excess-loss grid and compare to the expected grid",
                    _reconstruct_flags),
    "recommend": ("select (SF, BW, CR) from a measurement table", _recommend_flags),
    "simulate": ("run the deterministic TDMA uplink simulation", _simulate_flags),
    "sweep": ("emit a metric for every (SF, BW) grid cell as CSV", _sweep_flags),
    "uplink": ("bridge a simulation report to channel updates", _uplink_flags),
}


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The parser for argv, built once per process and shared.

    When argv starts with a subcommand name, only that subcommand's parser
    is built; otherwise (help, no subcommand, an unknown one) all of them
    are. Usage lines and error messages are the same either way.

    Callers must not change the returned parser: the next call gets the same
    object. Reusing it is safe because argparse keeps no state between
    parses, makes its help formatter (and so reads COLUMNS) when it formats,
    and looks up sys.stdout and sys.stderr when it prints.
    """
    return _parser(argv[0] if argv and argv[0] in SUBCOMMANDS else None)


@cache
def _parser(name: str | None) -> argparse.ArgumentParser:
    """The parser of subcommand name alone, or of all of them for None."""
    parser = argparse.ArgumentParser(
        prog="loralink",
        description="LoRa link-quality toolkit",
        epilog="Exit codes: 0 success, 2 usage error, 3 data/validation error, "
               "4 tolerance exceeded.",
    )
    if name is not None:
        names = [name]
        # the parent's usage line (printed for unrecognized arguments) still
        # lists every subcommand
        metavar = "{" + ",".join(SUBCOMMANDS) + "}"
    else:
        names, metavar = list(SUBCOMMANDS), None
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar=metavar)
    for subcommand in names:
        help_text, add_flags = SUBCOMMANDS[subcommand]
        # whole flags only: a prefix of a flag (simulate --f for
        # --frames-per-slot) is an unrecognized argument, not that flag
        add_flags(sub.add_parser(subcommand, help=help_text, allow_abbrev=False))
    return parser


def cmd_budget(args) -> int:
    use_cell = args.cell is not None
    use_sample = args.rssi is not None or args.snr is not None
    if use_cell == use_sample:
        raise UsageError("supply either --rssi and --snr, or --cell (not both)")
    if use_sample and (args.rssi is None or args.snr is None):
        missing = "--snr" if args.snr is None else "--rssi"
        raise UsageError(f"missing {missing} (both --rssi and --snr are required)")

    fixture_name = "-"
    if use_cell:
        table, fixture_name = _load_fixture(args.fixture)
        sf, bw_hz = _parse_cell(args.cell)
        record = dataset.lookup(table, sf, bw_hz, require=("rssi_dbm",))
        rssi, snr = record.rssi_dbm, record.snr_db
    else:
        rssi, snr = args.rssi, args.snr

    link = _link_params(args)
    breakdown = link_budget.loss_breakdown(link, SignalSample(rssi, snr))

    manifest = _manifest_line("budget", {
        "rssi_dbm": rssi, "snr_db": snr, **_link_manifest(link),
        "cell": args.cell or "-", "fixture": fixture_name,
        "seed": args.seed, "output": args.output or "-",
    })
    with _open_output(args.output) as out:
        print(manifest, file=out)
        print(f"esp_dbm={breakdown.esp_dbm:.3f}", file=out)
        print(f"path_loss_db={breakdown.path_loss_db:.3f}", file=out)
        print(f"fsl_db={breakdown.fsl_db:.3f}", file=out)
        print(f"excess_db={breakdown.excess_db:.3f}", file=out)
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    table, fixture_name = _load_fixture(args.fixture)
    expected_name = BUNDLED_EXPECTED if args.expected is None else args.expected
    expected = dataset.load_expected_grid(args.expected)
    link = _link_params(args)
    grid = dataset.reconstruct_excess_loss(table, link)

    deviations = [abs(got - want) for got_row, want_row in zip(grid, expected)
                  for got, want in zip(got_row, want_row)]
    max_dev = max(deviations)
    worst_sf, worst_bw = [(sf, bw) for bw in BW_HZ_VALUES for sf in SF_VALUES][
        deviations.index(max_dev)]
    verdict = "PASS" if max_dev <= args.tolerance else "FAIL"

    manifest = _manifest_line("reconstruct", {
        "fixture": fixture_name, "expected": expected_name, **_link_manifest(link),
        "tolerance_db": args.tolerance, "seed": args.seed,
        "output": args.output or "-",
    })
    with _open_output(args.output) as out:
        print(manifest, file=out)
        print("bw_khz," + ",".join(f"sf{sf}" for sf in SF_VALUES), file=out)
        for i, bw_hz in enumerate(BW_HZ_VALUES):
            cells = ",".join(f"{value:.3f}" for value in grid[i])
            print(f"{hz_to_khz_str(bw_hz)},{cells}", file=out)
        print(f"# max_deviation_db={max_dev:.6f} "
              f"cell=sf={worst_sf},bw_khz={hz_to_khz_str(worst_bw)} "
              f"tolerance_db={format_decimal(args.tolerance)} verdict={verdict}", file=out)
    return EXIT_OK if verdict == "PASS" else EXIT_TOLERANCE


def cmd_recommend(args) -> int:
    table, fixture_name = _load_fixture(args.fixture)
    constraints = recommender.SelectionConstraints(
        max_loss_pct=args.max_loss, min_bw_hz=args.min_bw_hz, tie_break_order=args.order
    )
    link = _link_params(args)
    (winner, budget), *runners_up = recommender.recommend_sf_bw(table, link, constraints)
    cr, cr_basis = recommender.select_cr(table, winner.sf, winner.bw_hz)

    manifest = _manifest_line("recommend", {
        "fixture": fixture_name, "max_loss_pct": args.max_loss,
        "min_bw_khz": hz_to_khz_str(args.min_bw_hz), "order": ",".join(args.order),
        **_link_manifest(link), "seed": args.seed, "output": args.output or "-",
    })
    with _open_output(args.output) as out:
        print(manifest, file=out)
        print(f"sf={winner.sf} bw_khz={hz_to_khz_str(winner.bw_hz)} cr={cr}", file=out)
        print(f"rssi_dbm={format_decimal(winner.rssi_dbm)} "
              f"snr_db={format_decimal(winner.snr_db)} "
              f"loss_pct={format_decimal(winner.loss_pct)} excess_db={budget.excess_db:.3f}",
              file=out)
        if cr_basis is not None:
            print(f"cr_basis=sweep@sf={cr_basis[0]},bw_khz={hz_to_khz_str(cr_basis[1])}", file=out)
        else:
            print("cr_basis=winner-row", file=out)
        for rank, (cell, cell_budget) in enumerate(runners_up[: args.top], start=2):
            print(f"rank={rank} sf={cell.sf} bw_khz={hz_to_khz_str(cell.bw_hz)} "
                  f"snr_db={format_decimal(cell.snr_db)} excess_db={cell_budget.excess_db:.3f} "
                  f"rssi_dbm={format_decimal(cell.rssi_dbm)} "
                  f"loss_pct={format_decimal(cell.loss_pct)}", file=out)
    return EXIT_OK


def _simulate_drops(args, config: RadioConfig) -> tuple[list[float], str]:
    if args.drop is not None and args.drop_from_fixture is not None:
        raise UsageError("--drop and --drop-from-fixture are mutually exclusive")
    if args.drop_from_fixture is not None:
        source = None if args.drop_from_fixture == "bundled" else args.drop_from_fixture
        table, name = _load_fixture(source)
        return [tdma_sim.drop_model_from_table(table, config)] * args.nodes, f"fixture:{name}"
    text = args.drop if args.drop is not None else "0"
    try:
        values = [parse_float(part) for part in text.split(",")]
    except ValueError:
        raise UsageError(f"malformed --drop list {text!r}") from None
    if len(values) == 1:
        values = values * args.nodes
    if len(values) != args.nodes:
        raise UsageError(f"--drop supplies {len(values)} value(s) for {args.nodes} node(s)")
    if any(not 0 <= v <= 1 for v in values):
        raise UsageError("--drop probabilities must lie in [0, 1]")
    return values, text


def cmd_simulate(args) -> int:
    config = RadioConfig(sf=args.sf, bw_hz=args.bw_hz, cr=args.cr)
    frame = FrameParams(payload_bytes=args.payload_bytes, preamble_symbols=args.preamble)
    drops, drop_name = _simulate_drops(args, config)
    nodes = tuple(tdma_sim.NodeSpec(0xA001 + i, config, frame, p) for i, p in enumerate(drops))
    slot_s = args.slot_s if args.slot_s is not None else tdma_sim.default_slot_duration(nodes)
    schedule = tdma_sim.SlotSchedule(nodes, slot_s, args.guard_s)
    run = dict(schedule=schedule, duration_s=args.duration_s, seed=args.seed,
               frames_per_slot=args.frames_per_slot, handshake_s=args.handshake_s)
    stats: list[tuple[int, tdma_sim.NodeStats]] = []
    slots = tdma_sim.iter_slots(**run, stats=stats)  # checks the run before any output exists
    if args.uplink_log is not None:
        if args.uplink_log == "-" or (args.output not in (None, "-")
                                      and _same_file(args.uplink_log, args.output)):
            raise UsageError("--uplink-log needs a file of its own, not '-' or the --output file")
        key_map = _default_key_map([node.sync_word for node in nodes])

    manifest = _manifest_line("simulate", {
        "nodes": args.nodes,
        "sync_words": ",".join(tdma_sim.format_sync_word(n.sync_word) for n in nodes),
        "sf": args.sf, "bw_khz": hz_to_khz_str(args.bw_hz), "cr": args.cr,
        "payload_bytes": args.payload_bytes, "preamble": args.preamble,
        "slot_s": slot_s, "guard_s": args.guard_s, "duration_s": args.duration_s,
        "frames_per_slot": args.frames_per_slot, "handshake_s": args.handshake_s,
        "drop": drop_name, "seed": args.seed, "output": args.output or "-",
        "uplink_log": args.uplink_log or "-",
    })
    log_file = nullcontext() if args.uplink_log is None else _open_output(args.uplink_log)
    # both open before any write; the log first, so one that fails truncates no report
    with log_file as log, _open_output(args.output) as out:
        print(manifest, file=out)
        if log is not None:
            print(manifest, file=log)
            transport = uplink_bridge.DryRunTransport(write=log.write)
            events = tdma_sim.iter_events(_written(slots, out))
            for update in uplink_bridge.iter_bridge(events, key_map):
                transport.send(update)
        # every record, or with a log none (the bridge drained them), then the summary
        out.writelines(tdma_sim.report_lines(slots, stats))
    if args.output not in (None, "-"):
        # keep the summary visible on stdout when the report goes to a file
        print(manifest)
        for sync, totals in stats:
            print(tdma_sim.summary_line(sync, totals))
    return EXIT_OK


def _same_file(path: str, other: str) -> bool:
    """Whether both paths name one regular file, existing or to be made (not /dev/null)."""
    try:
        return os.path.samefile(path, other) and os.path.isfile(path)
    except OSError:  # one of them does not exist yet
        return os.path.realpath(path) == os.path.realpath(other)


def _written(slots, out):
    """Each slot record after writing its report_lines text to out: one pass, two sinks."""
    records, copies = tee(slots)  # holds at most the one record in flight
    for record, text in zip(records, tdma_sim.report_lines(copies, ())):
        out.write(text)
        yield record


def cmd_sweep(args) -> int:
    table, fixture_name = _load_fixture(args.fixture)
    link = _link_params(args)
    if args.metric in SWEEP_MEASURED:
        column = SWEEP_MEASURED[args.metric]
        rows = [(record, format_decimal(getattr(record, column)))
                for record in dataset.grid_records(table, (column,))]
    else:
        field = SWEEP_DERIVED[args.metric]
        rows = [(record, f"{getattr(breakdown, field):.3f}")
                for record, breakdown in dataset.evaluate_grid(table, link)]

    manifest = _manifest_line("sweep", {
        "metric": args.metric, "fixture": fixture_name, **_link_manifest(link),
        "seed": args.seed, "output": args.output or "-",
    })
    with _open_output(args.output) as out:
        print(manifest, file=out)
        print(f"sf,bw_khz,{args.metric}", file=out)
        for record, value in rows:
            print(f"{record.sf},{hz_to_khz_str(record.bw_hz)},{value}", file=out)
    return EXIT_OK


def _default_key_map(sync_words) -> dict[int, tuple[str, int]]:
    """The dry-run key map: channel field i + 1 for the i-th sync word."""
    if len(sync_words) > 8:
        raise UsageError(f"the default key map supports at most 8 nodes (one channel field "
                         f"each), got {len(sync_words)}; uplink --map can map more")
    return {sync: ("DRYRUN", i + 1) for i, sync in enumerate(sync_words)}


def _parse_key_map(items, summary) -> dict[int, tuple[str, int]]:
    """--map items, or the default map over the report's summary nodes;
    every summary node that received a packet must be mapped."""
    if items:
        mapping, item_of = {}, {}
        for item in items:
            try:
                sync_text, _, rest = item.partition("=")
                key, _, field_text = rest.rpartition(":")
                sync = tdma_sim.parse_sync_word(sync_text.strip())
                field_index = parse_int(field_text)
            except ValueError as exc:
                raise UsageError(f"malformed --map item {item!r}: {exc}") from None
            if not key:
                raise UsageError(f"malformed --map item {item!r}; expected SYNC=KEY:FIELD")
            if sync in item_of:
                raise UsageError(f"sync word {tdma_sim.format_sync_word(sync)} is mapped twice: "
                                 f"--map {item_of[sync]!r} and --map {item!r}")
            item_of[sync] = item
            mapping[sync] = (key, field_index)
    else:
        mapping = _default_key_map(summary)
    for sync, stats in summary.items():
        if stats.packets_received and sync not in mapping:
            raise uplink_bridge.UnmappedSyncWordError(
                f"sync word {tdma_sim.format_sync_word(sync)} has no channel mapping")
    return mapping


def cmd_uplink(args) -> int:
    with open(args.report, encoding="utf-8") as report:
        # a cheap first pass over the summary lines lets every check run
        # before output; a report that cannot be rewound (a pipe) fails here
        summary = tdma_sim.read_summary(report)
        if not summary:
            # the default key map and the mapping checks read the summary
            raise ValueError(f"report {args.report} has no summary lines "
                             "(a simulate report ends with one per node)")
        report.seek(0)
        key_map = _parse_key_map(args.map, summary)
        # the bridge reads only rx_ok events; the other lines are checked, not built
        events = tdma_sim.iter_report(report, kinds=("rx_ok",))
        updates = uplink_bridge.iter_bridge(events, key_map, epoch=args.epoch)
        spacing = args.min_spacing_s
        if spacing is None:
            spacing = uplink_bridge.DEFAULT_REAL_SPACING_S if args.real else 0.0
        transport = uplink_bridge.HttpTransport(min_spacing_s=spacing) if args.real else None
        manifest = _manifest_line("uplink", {
            "report": args.report,
            "map": ";".join(f"{tdma_sim.format_sync_word(s)}={k}:{f}"
                            for s, (k, f) in key_map.items()),
            "epoch": uplink_bridge.iso_utc(args.epoch), "real": args.real, "min_spacing_s": spacing,
            "seed": args.seed, "output": args.output or "-",
        })
        with _open_output(args.output) as out:
            print(manifest, file=out)
            if transport is not None:
                for update in updates:
                    body = transport.send(update)
                    print(f"sent field update, response: {body}", file=out)
            else:
                transport = uplink_bridge.DryRunTransport(write=out.write)
                for update in updates:
                    transport.send(update)
    return EXIT_OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, LookupError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        # a reader that closed stdout early (`... | head -1`); point stdout at
        # devnull so the interpreter's own flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if code != EXIT_DATA:  # one error line per run
            print(f"error: {exc}", file=sys.stderr)
            code = EXIT_DATA
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
