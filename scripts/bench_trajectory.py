"""Run the unchanged bench/run.py on a parent and a change tree, in
alternating pairs, and add the quartiles of its end-to-end metrics to OUT;
then run it traced once per tree and add the per-layer dict it prints.

    python3 scripts/bench_trajectory.py OUT.json PARENT CHANGE WORKLOAD SECONDS SEED...

PARENT and CHANGE are source checkouts; each run is `python3 bench/run.py
--workload WORKLOAD --seed SEED --seconds SECONDS --trace 0` in one of them,
and the traced run is the same with the first SEED and `--trace 1`. It
stops before any run while either tree holds a `__pycache__` under `src/`,
or when given fewer than two SEEDs (quartiles need two runs per tree).
"""
import hashlib, json, os, platform, statistics, subprocess, sys
from pathlib import Path

out, parent, change, workload, seconds, *seeds = sys.argv[1:]
if len(seeds) < 2:
    sys.exit(f"error: quartiles need at least two seeds, got {len(seeds)}")
sides = {"parent": Path(parent), "change": Path(change)}
stale = [str(p) for tree in sides.values() for p in (tree / "src").rglob("__pycache__")]
if stale:  # a cached import makes that side's setup_s read faster than the other's
    sys.exit(f"error: remove the bytecode caches under src/ before measuring: {' '.join(stale)}")
doc = json.loads(Path(out).read_text()) if Path(out).exists() else {
    "python": platform.python_version(), "cpus": os.cpu_count(),
    "dont_write_bytecode": sys.flags.dont_write_bytecode, "trees": {}, "workloads": {}}
for side, tree in sides.items():
    sha = subprocess.run(["git", "-C", tree, "rev-parse", "HEAD"], capture_output=True, text=True)
    src = hashlib.sha256(b"".join(p.relative_to(tree).as_posix().encode() + p.read_bytes()
                                  for p in sorted((tree / "src").rglob("*.*"))
                                  if p.is_file() and "__pycache__" not in p.parts))
    doc["trees"][side] = {"git_sha": sha.stdout.strip() or None, "src_sha256": src.hexdigest()}


def run(side: str, seed: str, trace: str) -> dict:
    argv = ["python3", "bench/run.py", "--workload", workload, "--seed", seed,
            "--seconds", seconds, "--trace", trace]
    done = subprocess.run(argv, cwd=sides[side], capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    row = {"seed": int(seed), "correct": result["correct"], "failed": result["failed"],
           **{k: v["value"] for k, v in result["metrics"].items()}}
    print(side, row, file=sys.stderr)
    return row


runs = {side: [] for side in sides}
for i, seed in enumerate(seeds):
    for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
        runs[side].append(run(side, seed, "0"))
entry = doc["workloads"][workload] = {
    "invoked_as": " ".join(["python3", "scripts/bench_trajectory.py", *sys.argv[1:]]),
    "command": f"python3 bench/run.py --workload {workload} --seed SEED --seconds {seconds} "
               "--trace 0|1", "seeds": [int(s) for s in seeds]}
for side, rows in runs.items():
    metrics = {k: dict(zip(("q1", "median", "q3"), statistics.quantiles([r[k] for r in rows], n=4)))
               for k in rows[0] if k not in ("seed", "correct", "failed")}
    entry[side] = {"correct": all(r["correct"] for r in rows),
                   "failed": sum(r["failed"] for r in rows), "metrics": metrics, "runs": rows,
                   "traced": run(side, seeds[0], "1")}
better = {m["name"]: m["better"] == "higher" for m in json.loads(
    (sides["change"] / "BENCHMARK.json").read_text())["end_to_end"]}
entry["pairs_change_better"] = {k: sum(c[k] > p[k] if up else c[k] < p[k] for p, c in
                                       zip(runs["parent"], runs["change"])) for k, up in better.items()}
Path(out).write_text(json.dumps(doc, indent=1) + "\n")
