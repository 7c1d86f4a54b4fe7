"""Record the reference output of every bank input into bench/refs/.

Run from the repository root, with BLAS pinned to one thread:

    OPENBLAS_NUM_THREADS=1 python3 bench/record_refs.py [--smoke] [workload ...]

The references describe the program at the commit named in each file; a
change that alters an output on purpose records them again, in a change of
its own.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from checks import refs_path  # noqa: E402
from workloads import WORKLOADS, make_workload  # noqa: E402


def _commit():
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def record(name, smoke):
    workdir = ROOT / "bench" / ".work" / f"record-{name}"
    try:
        wl = make_workload(name, 0, smoke, workdir)
        outputs = {}
        for key in wl.keys():
            res = wl.run(key)
            if res.error is not None:
                raise SystemExit(f"{name} {key}: {res.error}")
            problems = wl.check(key, res)
            if problems:
                raise SystemExit(f"{name} {key}: {problems}")
            outputs[key] = res.data
            print(name, key, "recorded", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # one output per line keeps later diffs of the references readable
    lines = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                       for k, v in outputs.items())
    text = f'{{"commit": "{_commit()}", "outputs": {{\n{lines}\n}}}}\n'
    refs_path(name, smoke).write_text(text, "utf-8")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    for name in args.workloads:
        record(name, args.smoke)


if __name__ == "__main__":
    main()
