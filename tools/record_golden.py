"""Record, or check, the outputs of one fixed set of seel commands.

    python3 tools/record_golden.py           # re-record
    python3 tools/record_golden.py --check   # compare bytes

It imports seel from this checkout's src/.

Each case runs in-process through seel.cli.main in a temporary directory,
and tests/golden/<case>/ holds what it produced: stdout.txt, stderr.txt,
exit_code.txt and every file it wrote to --out.  A dataset that simulate
--dump writes is not stored: its sha256 is, as <name>.sha256, and the fit,
select and sweep cases read the regenerated dump.

The set: simulate on each preset at 4 replications with --dump; fit (a1 and
a2, with --test-beta at the preset's true beta), select (both pilots) and
sweep (an odd --a-values grid and a range) on the table1 dump and on the
fig-coverage dump, which has missing responses; and three input errors
that exit 2.

--check compares every byte and prints a unified diff of each file that
differs; it exits 1 if any file differs, is missing or is new.  A change
that claims byte-identical outputs runs it.  tests/test_golden.py reruns
the set with the float tolerance of bench/checks.py, so that it also holds
on other BLAS builds.  Record with OPENBLAS_NUM_THREADS=1, as CI runs the
tier-1 tests.
"""

import argparse
import contextlib
import difflib
import hashlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
sys.path.insert(0, str(ROOT / "src"))

from seel import cli  # noqa: E402
from seel.simulate import PRESETS, preset_config  # noqa: E402

REPS = "4"
DATA_PRESETS = ("table1", "fig-coverage")
BAD_CSV = "y,delta,x1\n1.0,1,2.0\n1e,1,3.0\n2.0,1,x\n"


def cases(work):
    """(name, argv) of every case in run order; a case whose argv holds
    --out writes into work/<name>."""
    for preset in PRESETS:
        name = f"simulate-{preset}"
        yield name, ["simulate", "--preset", preset, "--reps", REPS, "--dump",
                     "--out", str(work / name)]
    for preset in DATA_PRESETS:
        data = str(work / f"simulate-{preset}" / "sim_dump.csv")
        beta = ",".join(repr(float(b)) for b in preset_config(preset).beta0)
        for name, argv in (
                ("fit-a1", ["fit", "--algorithm", "a1", f"--test-beta={beta}"]),
                ("fit-a2", ["fit", "--algorithm", "a2", f"--test-beta={beta}"]),
                ("select-l2-same", ["select", "--pilot", "same"]),
                ("select-l1-split", ["select", "--algorithm", "l1",
                                     "--pilot", "split"]),
                ("sweep-values", ["sweep", "--a-values", "4,1,2,2,8"]),
                ("sweep-range", ["sweep", "--a-min", "1", "--a-max", "3",
                                 "--a-step", "0.5"])):
            name = f"{name}-{preset}"
            out = ["--out", str(work / name)] if argv[0] == "sweep" else []
            yield name, [argv[0], data, "--tau", "auto", *argv[1:], *out]
    table1 = str(work / "simulate-table1" / "sim_dump.csv")
    yield "error-h-nan", ["fit", table1, "--h", "nan"]
    yield "error-workers-0", ["simulate", "--preset", "table1", "--reps", "2",
                              "--workers", "0"]
    yield "error-bad-line", ["fit", str(work / "bad.csv")]


def run_cases():
    """{case: {file name: text}} of every case, run in a fresh directory."""
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "bad.csv").write_text(BAD_CSV, encoding="utf-8")
        for name, argv in cases(work):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            files = {"stdout.txt": stdout.getvalue(),
                     "stderr.txt": stderr.getvalue(),
                     "exit_code.txt": f"{code}\n"}
            out = work / name
            for path in sorted(out.iterdir()) if out.is_dir() else ():
                data = path.read_bytes()
                if path.name == "sim_dump.csv":
                    files[path.name + ".sha256"] = \
                        hashlib.sha256(data).hexdigest() + "\n"
                else:
                    files[path.name] = data.decode("utf-8")
            outputs[name] = files
    return outputs


def read_golden():
    """{case: {file name: text}} as stored under tests/golden."""
    return {case.name: {f.name: f.read_bytes().decode("utf-8")
                        for f in sorted(case.iterdir())}
            for case in sorted(GOLDEN.iterdir()) if case.is_dir()}


def record(outputs):
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for case, files in outputs.items():
        (GOLDEN / case).mkdir(parents=True)
        for fname, text in files.items():
            (GOLDEN / case / fname).write_bytes(text.encode("utf-8"))


def check(outputs):
    """Print how outputs differ from the stored goldens; True if not at all."""
    golden = read_golden()
    same = True
    for case in sorted(set(golden) | set(outputs)):
        want, got = golden.get(case, {}), outputs.get(case, {})
        for fname in sorted(set(want) | set(got)):
            path = f"{case}/{fname}"
            if fname not in got or fname not in want:
                print(f"{path}: {'missing' if fname in want else 'new'}")
                same = False
            elif want[fname] != got[fname]:
                sys.stdout.writelines(difflib.unified_diff(
                    want[fname].splitlines(True), got[fname].splitlines(True),
                    f"golden/{path}", f"now/{path}"))
                same = False
    return same


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with tests/golden byte for byte")
    args = parser.parse_args(argv)
    outputs = run_cases()
    if not args.check:
        record(outputs)
        print(f"recorded {len(outputs)} cases in {GOLDEN}")
        return 0
    if check(outputs):
        print(f"all {len(outputs)} cases match {GOLDEN}")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
