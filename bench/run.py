"""loralink benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload {sim_report,uplink_replay,link_planning}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
./src. The inputs are made from --seed, and whole rounds of CLI calls
(`loralink.cli.main`, in-process) are repeated until S seconds of timed
calls have passed. Every call's exit code is compared with the one the
reference predicts and its first output is checked against the
benchmark's own references (see checks.py); repeats of a call must give
the same bytes.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. With --trace 0 the metrics are the end-to-end ones
(setup_s, ops_per_s, peak_rss_mb); the two times are scaled by a machine
pace taken between the rounds (see `pace_seconds`). With --trace 1 the run
spends the first half of S with the layer wrappers of tracing.py installed
and the second half without, and the metrics are the per-layer ones plus
the tracing overhead between the two halves; layers the workload never
calls are measured on a small round of the other workloads. A JSON file with every raw
sample goes to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import workloads
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
IMPORT_PROBES = 9
OTHER_LAYERS_HOURS = 0.05  # simulated hours of the small sim/uplink round of `other_layers`
NOMINAL_PACE_S = 0.010  # a typical pace_seconds() on the 2-vCPU VM of README, CPython 3.11

# Times `import loralink.cli` inside a started interpreter, so interpreter
# start-up (and whatever `site` imports) is not counted.
PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import loralink.cli\n"
    "print(repr(time.perf_counter() - start))\n"
)


def import_seconds() -> float:
    """`import loralink.cli` in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", PROBE, str(SRC)], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout)


def pace_seconds() -> float:
    """Time of a fixed loop of interpreter arithmetic that runs no loralink
    code and creates no container objects, so the garbage collector never
    runs inside it.

    On a shared virtual machine the speed at which Python runs drifts by up
    to 2x within minutes; this pace, taken between the rounds of a run,
    tracks that drift.
    """
    start = perf_counter()
    x = 0
    for i in range(60_000):
        x = (x * 31 + i) & 0xFFFFFFFF
    return perf_counter() - start


def run_call(main, call: workloads.Call) -> tuple[float, int | None, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = perf_counter()
        try:
            rc = main(call.argv)
        except Exception:  # a traceback is a failed operation, not a benchmark crash
            rc = None
            traceback.print_exc(file=stderr)
        seconds = perf_counter() - start
    return seconds, rc, stdout.getvalue(), stderr.getvalue()


class Verifier:
    """Checks each call's first output against its reference; every later
    output of the same call must be byte-identical to that first one."""

    def __init__(self) -> None:
        self.incorrect: list[str] = []
        self._digests: dict[int, str] = {}
        self._failures = 0

    def __call__(self, index: int, call: workloads.Call, rc, stdout: str, stderr: str) -> bool:
        """True when the call completed with the exit code the reference predicts."""
        if rc != call.expect_rc:
            self._failures += 1
            if self._failures <= 5:
                print(f"failed: loralink {' '.join(call.argv)[:200]}: exit {rc}, "
                      f"expected {call.expect_rc}: {stderr.strip()[-500:]}", file=sys.stderr)
            return False
        digest = hashlib.sha256(stdout.encode())
        if call.output is not None:
            with open(call.output, "rb") as handle:
                for chunk in iter(lambda: handle.read(1 << 20), b""):
                    digest.update(chunk)
        first = self._digests.get(index)
        if first is None:
            self._digests[index] = digest.hexdigest()
            try:
                call.check(stdout)
            except Exception as exc:  # a malformed output can break the parsing too
                self._incorrect(f"loralink {' '.join(call.argv)[:200]}: "
                                f"{type(exc).__name__}: {exc}")
        elif first != digest.hexdigest():
            self._incorrect(f"{call.kind} call {index} changed its output on a repeat")
        return True

    def _incorrect(self, message: str) -> None:
        if len(self.incorrect) < 5:
            print(f"incorrect: {message}", file=sys.stderr)
        self.incorrect.append(message)


@dataclass
class Measurement:
    """Raw samples of one measured stretch. Each round is paired with the
    machine pace (see `pace_seconds`) taken before and after it."""

    rates: list[float] = field(default_factory=list)  # ops completed per timed second, per round
    paces: list[float] = field(default_factory=list)  # seconds, mean of the paces around each round
    setup: list[float] = field(default_factory=list)  # seconds of `import loralink.cli`, per probe
    attempted: int = 0
    failed: int = 0

    def ops_per_s(self) -> float:
        """Median round rate, each round scaled to the nominal pace."""
        return statistics.median(r * p / NOMINAL_PACE_S for r, p in zip(self.rates, self.paces))

    def setup_s(self) -> float:
        """Median probe time, scaled by the run's median pace.

        The probes run in child processes; scaling each by the pace taken
        beside it gave a wider run-to-run spread (0.134 against 0.072 over
        ten seeds) than scaling their median by the run's.
        """
        return statistics.median(self.setup) * NOMINAL_PACE_S / statistics.median(self.paces)


def measure(workload: workloads.Workload, main, seconds: float, verify: Verifier,
            per_kind: dict[str, list[float]] | None = None, probe: bool = False) -> Measurement:
    """Whole rounds until `seconds` of timed calls have passed.

    With `probe`, IMPORT_PROBES set-up samples are taken, spread evenly
    between the rounds so that they meet the same machine conditions as
    the calls.
    """
    m = Measurement()
    spent = 0.0
    before = pace_seconds()
    while spent < seconds:
        while probe and len(m.setup) * seconds <= spent * IMPORT_PROBES:
            m.setup.append(import_seconds())
        done, took = 0, 0.0
        for index, call in enumerate(workload.calls):
            elapsed, rc, stdout, stderr = run_call(main, call)
            took += elapsed
            m.attempted += call.ops
            if per_kind is not None:
                per_kind[call.kind].append(elapsed)
            if verify(index, call, rc, stdout, stderr):
                done += call.ops
            else:
                m.failed += call.ops
        spent += took
        after = pace_seconds()
        m.rates.append(done / took)
        m.paces.append((before + after) / 2)
        before = after
    while probe and len(m.setup) < IMPORT_PROBES:
        m.setup.append(import_seconds())
    return m


def layer_figures(tracer: Tracer, counts: dict[str, int], rounds: int,
                  per_kind: dict[str, list[float]]) -> dict[str, tuple[float, str, bool]]:
    """Each per-layer figure of a traced stretch, as (value, unit, whether
    the stretch called that layer at all)."""
    queries = counts.get("queries", 0) * rounds

    def rate(span: str, work: str, scale: float = 1.0) -> tuple[float, bool]:
        return tracer.rate(span, counts.get(work, 0) * rounds * scale), tracer.calls[span] > 0

    def per_call(span: str) -> tuple[float, bool]:
        return tracer.per_call_us(span), tracer.calls[span] > 0

    def growth(span: str) -> tuple[float, bool]:
        return tracer.max_growth_mb(span), tracer.calls[span] > 0

    def main_us(kind: str) -> tuple[float, bool]:
        times = per_kind.get(kind)
        return (1e6 * statistics.fmean(times), True) if times else (0.0, False)

    figures = {
        "tdma_sim.run_simulation.events_per_s": (rate("tdma_sim.run_simulation", "events"), "1/s"),
        "tdma_sim.run_simulation.rss_growth_mb": (growth("tdma_sim.run_simulation"), "MB"),
        "tdma_sim.serialize_report.mb_per_s":
            (rate("tdma_sim.serialize_report", "report_bytes", 1e-6), "MB/s"),
        "tdma_sim.serialize_report.rss_growth_mb": (growth("tdma_sim.serialize_report"), "MB"),
        "tdma_sim.parse_report.lines_per_s": (rate("tdma_sim.parse_report", "report_lines"), "1/s"),
        "tdma_sim.parse_report.rss_growth_mb": (growth("tdma_sim.parse_report"), "MB"),
        "uplink_bridge.bridge_sim_report.updates_per_s":
            (rate("uplink_bridge.bridge_sim_report", "updates"), "1/s"),
        "uplink_bridge.DryRunTransport.send.us":
            (per_call("uplink_bridge.DryRunTransport.send"), "us"),
        "cli.build_parser.us": (per_call("cli.build_parser"), "us"),
        "cli.main.budget.us": (main_us("budget"), "us"),
        "cli.main.reconstruct.us": (main_us("reconstruct"), "us"),
        "cli.main.recommend.us": (main_us("recommend"), "us"),
        "cli.main.sweep.us": (main_us("sweep"), "us"),
        "dataset.load_measurements.us": (per_call("dataset.load_measurements"), "us"),
        "dataset.reconstruct_excess_loss.us": (per_call("dataset.reconstruct_excess_loss"), "us"),
        "recommender.recommend_sf_bw.us": (per_call("recommender.recommend_sf_bw"), "us"),
        "link_budget.loss_breakdown.calls_per_query": (
            (tracer.calls["link_budget.loss_breakdown"] / queries if queries else 0.0, queries > 0),
            "count"),
    }
    return {name: (value, unit, called) for name, ((value, called), unit) in figures.items()}


def other_layers(args, workdir: Path, main, verify: Verifier) -> dict[str, tuple[float, str, bool]]:
    """Per-layer figures from one small round of every other workload,
    traced on its own, for the layers the measured workload never calls."""
    counts: dict[str, int] = defaultdict(int)
    per_kind: dict[str, list[float]] = defaultdict(list)
    workdir.mkdir()
    with Tracer() as tracer:
        for name, build in workloads.WORKLOADS.items():
            if name == args.workload:
                continue
            small = {} if name == "link_planning" else {"hours": OTHER_LAYERS_HOURS}
            load = build(args.seed, workdir, SRC, **small)
            for key, value in load.counts.items():
                counts[key] += value
            for index, call in enumerate(load.calls):
                elapsed, rc, stdout, stderr = run_call(main, call)
                per_kind[call.kind].append(elapsed)
                if not verify((name, index), call, rc, stdout, stderr):
                    verify.incorrect.append(f"{name} call {index} failed in the other-layers round")
    return layer_figures(tracer, counts, 1, per_kind)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "loralink" / "cli.py").is_file():
        print(f"run.py: no loralink sources under {SRC}; run it in a source checkout",
              file=sys.stderr)
        return 2

    import_seconds()  # writes the bytecode cache; not counted
    sys.path.insert(0, str(SRC))
    from loralink import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"run.py: imported loralink from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = OUT / f"tmp-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    verify = Verifier()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, SRC)
        if args.trace:
            # traced half first, so each layer's first call (and its memory
            # growth in a fresh process) is seen
            per_kind: dict[str, list[float]] = defaultdict(list)
            with Tracer() as tracer:
                traced = measure(workload, cli.main, args.seconds / 2, verify, per_kind)
            plain = measure(workload, cli.main, args.seconds / 2, verify, probe=True)
            rounds = len(traced.rates)
            own = layer_figures(tracer, workload.counts, rounds, per_kind)
            other = other_layers(args, workdir / "other", cli.main, verify)
            metrics = {name: (own if own[name][2] else other)[name][:2] for name in own}
            metrics.update({
                "import.loralink_cli_s": (statistics.median(plain.setup), "s"),
                "gc.collections": (tracer.gc_collections / rounds, "count"),
                "gc.pause_s": (tracer.gc_pause_s / rounds, "s"),
                "tdma_sim.events": (workload.counts.get("events", 0), "count"),
                "report.bytes": (workload.counts.get("report_bytes", 0), "B"),
                "uplink_bridge.updates":
                    (tracer.calls["uplink_bridge.DryRunTransport.send"] / rounds, "count"),
                "link_planning.queries": (workload.counts.get("queries", 0), "count"),
                "trace.overhead_pct": (100 * (plain.ops_per_s() / traced.ops_per_s() - 1), "%"),
            })
            runs = [traced, plain]
        else:
            plain = measure(workload, cli.main, args.seconds, verify, probe=True)
            metrics = {
                "setup_s": (plain.setup_s(), "s"),
                "ops_per_s": (plain.ops_per_s(), "1/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            runs = [plain]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not verify.incorrect,
        "attempted": sum(m.attempted for m in runs),
        "failed": sum(m.failed for m in runs),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "cpus": os.cpu_count(),
        "nominal_pace_s": NOMINAL_PACE_S, "work_per_round": workload.counts,
        "samples": [vars(m) for m in runs], "incorrect": verify.incorrect[:20], "result": result,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
