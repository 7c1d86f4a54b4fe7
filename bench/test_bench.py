"""Tests of the benchmark itself, on its smoke-size inputs.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import compare  # noqa: E402
from hostspeed import KINDS, at_nominal  # noqa: E402
from run import REACHED  # noqa: E402


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in expected}
    for m in expected:
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(m["unit"])
                   for line in lines[:-1]), m["name"]
    if trace:
        # every layer the workload calls is seen by the tracer
        unseen = [name for name in REACHED[workload]
                  if not result["metrics"][name]["value"] > 0]
        assert unseen == []


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = _run(tmp_path, "mc_desk", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_tolerates_reordered_sums_and_new_fields_only():
    ref = {"schema_version": 1, "n": 500, "active_set": [3, 5], "cp": 0.94,
           "beta": [1.0, 0.0], "ok": True}
    same = dict(ref, beta=[1.0 + 1e-12, 1e-14], extra={"iterations": [3]})
    assert compare(ref, same) == []
    assert compare(ref, dict(ref, schema_version=2)) == []
    assert compare(ref, dict(ref, schema_version=0))
    assert compare(ref, dict(ref, active_set=[3]))
    assert compare(ref, dict(ref, n=501))
    assert compare(ref, dict(ref, cp=0.96))
    assert compare(ref, dict(ref, ok=1))
    assert compare(ref, {k: v for k, v in ref.items() if k != "beta"})


def test_each_op_is_rescaled_by_the_probes_around_it():
    # probes before op 0, after op 1 and after op 2
    for kind, (_, _, nominal) in KINDS.items():
        probes = [(0, 2 * nominal), (2, nominal), (3, nominal)]
        assert at_nominal([1.5, 3.0, 2.0], probes, kind) == \
            pytest.approx([1.0, 2.0, 2.0])
