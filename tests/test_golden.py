"""The fixed command set of tools/record_golden.py, rerun in-process through
seel.cli.main, matches what tests/golden holds.

Every stored text is compared with bench/checks.py's compare: integers,
booleans, strings and list lengths exactly, floats within its RTOL and ATOL,
so the test also holds on other BLAS builds; tools/record_golden.py --check
compares the bytes.  A dump's sha256 pins its bytes for --check alone: here
the dump's values reach the comparison through the fit, select and sweep
cases that read it.
"""

import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


record_golden = _load("record_golden", ROOT / "tools" / "record_golden.py")
compare = _load("bench_checks", ROOT / "bench" / "checks.py").compare
GOLDEN = record_golden.read_golden()


def _token(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parsed(text):
    """A JSON text as its value; any other as lines of comma- or
    space-separated tokens, each an int, a float or a string."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return [[_token(t) for t in re.split("[, ]", line)]
                for line in text.splitlines()]


@pytest.fixture(scope="module")
def outputs():
    return record_golden.run_cases()


def test_golden_set_is_complete(outputs):
    assert {case: sorted(files) for case, files in outputs.items()} \
        == {case: sorted(files) for case, files in GOLDEN.items()}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_case_matches(outputs, case):
    for name, want in GOLDEN[case].items():
        if not name.endswith(".sha256"):
            got = outputs[case][name]
            assert compare(parsed(want), parsed(got), f"{case}/{name}") == []


def test_parsed_compares_tokens_by_kind():
    # a float may move within the tolerance, an int or a word may not
    assert parsed("a,1.5 2\n") == [["a", 1.5, 2]]
    assert compare(parsed("x,0.1\n"), parsed("x,0.10000000000000002\n")) == []
    assert compare(parsed("x,2\n"), parsed("x,3\n"))
    assert compare(parsed("error: line 3\n"), parsed("error: line 4\n"))
