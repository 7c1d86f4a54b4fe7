"""Compare a parent checkout with a change on one workload.

    python3 bench/compare.py --parent DIR --change DIR --workload sweep_large

Runs ten alternating pairs (odd pairs run the parent first, even pairs the
change) of run_seconds each, seed i for pair i, with identical benchmark
files on both sides, and applies the rule of bench/README.md to every end-to-end metric:

- gain: the change wins at least 9/10 of the pairs (ties count for neither)
  and the medians differ by more than the parent's inter-quartile spread;
- regression: the change's median is worse than the parent's by more than
  the metric's bound;
- unresolved: the parent's own spread exceeds the bound and not every
  change run is better than every parent run;
- otherwise no regression.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _bench_digest(root):
    h = hashlib.sha256((root / "BENCHMARK.json").read_bytes())
    for path in sorted((root / "bench").rglob("*")):
        if path.is_file() and not {"results", ".work", "__pycache__"} & set(path.parts):
            h.update(path.relative_to(root).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


PAIRS = 10


def _run(root, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{root} seed {seed}: outputs failed their checks")
    return {k: v["value"] for k, v in result["metrics"].items()}


def verdict(metric, parent, change):
    sign = 1.0 if metric["better"] == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    worse_by = sign * (p_med - c_med) / abs(p_med) if p_med else 0.0
    if wins >= 0.9 * len(parent) and abs(c_med - p_med) > q3 - q1:
        return "gain", wins
    if worse_by > metric["bound"]:
        return "regression", wins
    if p_med and (q3 - q1) / abs(p_med) > metric["bound"] \
            and not all(sign * (c - p) > 0 for c in change for p in parent):
        return "unresolved", wins
    return "no regression", wins


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    args = ap.parse_args()
    if _bench_digest(args.parent) != _bench_digest(args.change):
        raise SystemExit("the two checkouts hold different benchmark files")
    spec = json.loads((args.change / "BENCHMARK.json").read_text("utf-8"))
    seconds = spec["run_seconds"]

    runs = {"parent": [], "change": []}
    for i in range(1, PAIRS + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for side in order:
            root = args.parent if side == "parent" else args.change
            runs[side].append(_run(root, args.workload, i, seconds))
        print(f"pair {i} done", file=sys.stderr, flush=True)

    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        result, wins = verdict(metric, parent, change)
        pq, cq = statistics.quantiles(parent, n=4), statistics.quantiles(change, n=4)
        print(f"{args.workload} {name} [{metric['unit']}]: parent median "
              f"{pq[1]:.6g} (q1 {pq[0]:.6g}, q3 {pq[2]:.6g}), change median "
              f"{cq[1]:.6g} (q1 {cq[0]:.6g}, q3 {cq[2]:.6g}), change wins "
              f"{wins}/{len(parent)}: {result}")


if __name__ == "__main__":
    main()
