"""tools/bench_summary.py on fabricated results files."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_summary", ROOT / "tools" / "bench_summary.py")
bench_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_summary)

COMMIT = "0123456789abcdef0123456789abcdef01234567"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
END_TO_END = BENCHMARK["end_to_end"]
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def fabricate(results, workload, seed, commit=COMMIT, smoke=False, errors=()):
    """One untraced results file as bench/run.py writes it, with metric
    values from the seed."""
    results.mkdir(parents=True, exist_ok=True)
    run = {
        "workload": workload, "seed": seed, "seconds": 25, "trace": 0,
        "smoke": smoke, "reference_commit": "feedbee",
        "machine": {"nproc": 2, "cpu_model": "test cpu", "python": "3.11.7",
                    "platform": "test", "git_commit": commit,
                    "load_1min_start": 1.0, "load_1min_end": 1.5},
        "errors": list(errors),
        "metrics": {m["name"]: {"value": seed * (i + 1.0), "unit": m["unit"]}
                    for i, m in enumerate(END_TO_END)},
        "details": {"numpy": "2.4.6", "blas": "openblas", "blas_threads": 1},
    }
    (results / f"{workload}-seed{seed}-trace0.json").write_text(
        json.dumps(run), "utf-8")


def test_summary_file_holds_every_seed_and_the_quartiles(tmp_path):
    results = tmp_path / "bench" / "results"
    for w in WORKLOADS:
        for seed in (1, 2, 3, 5):
            fabricate(results, w, seed)
    out = tmp_path / "perf"
    assert bench_summary.main(["--results", str(results), "--seeds", "1-3,5",
                               "--out", str(out)]) == 0
    summary = json.loads((out / "BENCH_0123456.json").read_text("utf-8"))
    assert summary["commit"] == COMMIT and summary["seeds"] == [1, 2, 3, 5]
    assert summary["src_tree"] is None  # not a git checkout
    assert summary["machine"]["nproc"] == 2
    assert summary["software"] == {"numpy": "2.4.6", "blas": "openblas",
                                   "blas_threads": 1}
    assert list(summary["workloads"]) == WORKLOADS
    for w in summary["workloads"].values():
        assert set(w["metrics"]) == {m["name"] for m in END_TO_END}
        for i, m in enumerate(END_TO_END):
            got = w["metrics"][m["name"]]
            values = [s * (i + 1.0) for s in (1, 2, 3, 5)]
            q1, med, q3 = statistics.quantiles(values, n=4)
            assert got["values"] == values
            assert (got["q1"], got["median"], got["q3"]) == (q1, med, q3)
            assert got["unit"] == m["unit"] and got["better"] == m["better"]


@pytest.mark.parametrize("case", ["smoke", "other commit", "failed checks",
                                  "missing seed", "one seed", "no commit"])
def test_summary_refuses(tmp_path, case, capsys):
    results = tmp_path / "bench" / "results"
    seeds = "1-3"
    for w in WORKLOADS:
        for seed in (1, 2, 3):
            fabricate(results, w, seed,
                      commit="unknown (not a git checkout)" if case == "no commit"
                      else COMMIT)
    w = WORKLOADS[-1]
    if case == "smoke":
        fabricate(results, w, 2, smoke=True)
    elif case == "other commit":
        fabricate(results, w, 3, commit="f" * 40)
    elif case == "failed checks":
        fabricate(results, w, 2, errors=["op 7: cp differs"])
    elif case == "missing seed":
        seeds = "1-4"
    elif case == "one seed":
        seeds = "1"
    out = tmp_path / "perf"
    assert bench_summary.main(["--results", str(results), "--seeds", seeds,
                               "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_seed_lists():
    assert bench_summary.parse_seeds("1-3") == [1, 2, 3]
    assert bench_summary.parse_seeds("4,1-2,2") == [1, 2, 4]
