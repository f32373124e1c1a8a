"""Time a one-shot CLI call, import included, on a parent and a change tree.

    python3 scripts/oneshot_pairs.py PARENT CHANGE PAIRS

PARENT and CHANGE are source checkouts. For each of the six subcommands, it
runs PAIRS pairs of fresh interpreters (`python -B`), alternating which tree
goes first. Each one times `import loralink.cli` plus the first
`loralink.cli.main(argv)`, with stdout sent to /dev/null. It prints each
side's median in ms and the pairs in which the change was faster. It stops
before any run while either tree holds a `__pycache__` under `src/`.
"""
import os, platform, statistics, subprocess, sys, tempfile
from pathlib import Path

parent, change, pairs = sys.argv[1], sys.argv[2], int(sys.argv[3])
sides = {"parent": Path(parent).resolve(), "change": Path(change).resolve()}
stale = [str(p) for tree in sides.values() for p in (tree / "src").rglob("__pycache__")]
if stale:  # a cached import makes that side's call read faster than the other's
    sys.exit(f"error: remove the bytecode caches under src/ before measuring: {' '.join(stale)}")

PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import loralink.cli\n"
    "code = loralink.cli.main(sys.argv[2:])\n"
    "print(code, time.perf_counter() - start, file=sys.stderr)\n"
)
LINK = ["--pt", "20", "--gt", "5.15", "--gr", "5.15", "--d", "5000", "--f", "433e6"]


def once(side: str, argv: list[str]) -> float:
    done = subprocess.run([sys.executable, "-B", "-c", PROBE, str(sides[side] / "src"), *argv],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=True)
    code, seconds = done.stderr.split()[-2:]
    if code != "0":
        sys.exit(f"error: {side} exited {code} on {' '.join(argv)}: {done.stderr.strip()}")
    return float(seconds)


with tempfile.TemporaryDirectory() as work:
    report = os.path.join(work, "report.txt")
    calls = {
        "budget": ["budget", "--rssi", "-92.8", "--snr", "8.4", *LINK],
        "reconstruct": ["reconstruct", "--tolerance", "0.09"],
        "recommend": ["recommend"],
        "simulate": ["simulate", "--duration-s", "600"],
        "sweep": ["sweep", "--metric", "excess"],
        "uplink": ["uplink", "--report", report],
    }
    once("parent", ["simulate", "--duration-s", "600", "--output", report])
    print(f"python {platform.python_version()}, {os.cpu_count()} cpus, {pairs} pairs, "
          "import + first main(argv) in ms")
    for name, argv in calls.items():
        times = {side: [] for side in sides}
        for i in range(pairs):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                times[side].append(once(side, argv))
        won = sum(c < p for p, c in zip(times["parent"], times["change"]))
        medians = {side: 1000 * statistics.median(values) for side, values in times.items()}
        print(f"{name:<12} parent {medians['parent']:6.1f}  change {medians['change']:6.1f}  "
              f"ratio {medians['change'] / medians['parent']:.3f}  "
              f"change faster in {won}/{pairs} pairs")
