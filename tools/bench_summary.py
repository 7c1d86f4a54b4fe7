"""Summarize benchmark runs of one commit into perf/BENCH_<short-sha>.json.

    python3 tools/bench_summary.py --seeds 1-10
    python3 tools/bench_summary.py --results ../parent/bench/results --seeds 1,2,3

Reads the untraced results bench/run.py wrote,
<results>/<workload>-seed<k>-trace0.json, for every workload of
BENCHMARK.json and every given seed.  The summary holds, per workload and
end-to-end metric, the value of each seed and their median and quartiles
(statistics.quantiles, n=4), plus the machine and software metadata of the
runs, and the git tree hash of the commit's src/ (when the results directory
lies in a checkout that has the commit).  The tree hash ties a summary to
the commit that lands with the same src/ when the measured commit was a
build commit that is not kept.  It refuses smoke runs, runs whose checks
failed, and runs of different commits, so that one file describes one
commit.  Standard library only.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MACHINE_KEYS = ("nproc", "cpu_model", "python", "platform")
SOFTWARE_KEYS = ("numpy", "blas", "blas_threads")


class SummaryError(ValueError):
    pass


def parse_seeds(text):
    """'1-10' or '1,2,5' (or a mix) as a sorted list of distinct seeds."""
    seeds = set()
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.update(range(int(lo), int(hi or lo) + 1))
    return sorted(seeds)


def _load(path):
    if not path.is_file():
        raise SummaryError(f"missing results file {path}")
    run = json.loads(path.read_text("utf-8"))
    if run.get("smoke"):
        raise SummaryError(f"{path} is a smoke run")
    if run.get("trace") != 0:
        raise SummaryError(f"{path} is a traced run")
    if run.get("errors"):
        raise SummaryError(f"{path}: {len(run['errors'])} failed checks")
    return run


def src_tree(checkout, commit):
    """Git tree hash of commit:src in checkout, or None."""
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", f"{commit}:src"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def summarize(results, seeds, workloads, end_to_end):
    """The summary of the runs of workloads x seeds under results.

    end_to_end is BENCHMARK.json's list of end-to-end metric specs.
    """
    if len(seeds) < 2:
        raise SummaryError("quartiles need at least two seeds")
    runs = {w: [_load(results / f"{w}-seed{s}-trace0.json") for s in seeds]
            for w in workloads}
    first = runs[workloads[0]][0]
    commit = first["machine"]["git_commit"]
    for w in workloads:
        for seed, run in zip(seeds, runs[w]):
            if run["machine"]["git_commit"] != commit:
                raise SummaryError(
                    f"{w} seed {seed} ran commit {run['machine']['git_commit']}, "
                    f"not {commit}")
    if len(commit) < 7 or not all(ch in "0123456789abcdef" for ch in commit):
        raise SummaryError(f"runs name no git commit: {commit!r}")

    summary = {
        "commit": commit,
        "src_tree": src_tree(results.resolve().parents[1], commit),
        "seeds": seeds,
        "machine": {k: first["machine"].get(k) for k in MACHINE_KEYS},
        "software": {k: first["details"].get(k) for k in SOFTWARE_KEYS},
        "workloads": {},
    }
    for w in workloads:
        metrics = {}
        for spec in end_to_end:
            name = spec["name"]
            values = [run["metrics"][name]["value"] for run in runs[w]]
            q1, median, q3 = statistics.quantiles(values, n=4)
            metrics[name] = {"unit": spec["unit"], "better": spec["better"],
                             "values": values, "q1": q1, "median": median,
                             "q3": q3}
        summary["workloads"][w] = {
            "seconds": runs[w][0]["seconds"],
            "reference_commit": runs[w][0]["reference_commit"],
            "load_1min": [[run["machine"]["load_1min_start"],
                           run["machine"]["load_1min_end"]] for run in runs[w]],
            "metrics": metrics,
        }
    return summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--results", type=Path, default=ROOT / "bench" / "results")
    ap.add_argument("--seeds", type=parse_seeds, required=True,
                    help="e.g. 1-10 or 1,2,3")
    ap.add_argument("--out", type=Path, default=ROOT / "perf")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    try:
        summary = summarize(args.results, args.seeds, workloads,
                            spec["end_to_end"])
    except SummaryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_{summary['commit'][:7]}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n", "utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
