import csv
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import first_row_error, read_dataset_rows, write_dataset_rows

from seel import cli, inference, simulate
from seel.cli import main, read_dataset, write_dataset
from seel.errors import (CsvSchemaError, EstimationError, NoConvergenceError,
                         RankDeficientError)
from seel.estimators import fit_a2
from seel.inference import empirical_tau
from seel.model import Dataset, ModelConfig
from seel.numkit import RngStream
from seel.simulate import SCHEMA_VERSION, _generate_dataset, preset_config


@pytest.fixture
def sparse_csv(tmp_path):
    rng = RngStream(101, 0)
    n, p = 300, 3
    X = rng.normals(n * p).reshape(n, p)
    beta0 = np.array([1.5, 0.0, -1.0])
    y = X @ beta0 + rng.normals(n)
    delta = (rng.uniforms(n) > 0.1).astype(np.uint8)
    y = np.where(delta == 1, y, np.nan)
    path = tmp_path / "data.csv"
    write_dataset(path, Dataset(X, y, delta))
    return path, beta0


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


# ---------------------------------------------------------------------------
# CSV schema

def test_roundtrip_preserves_bits(tmp_path):
    ds = _generate_dataset(preset_config("table1", n=80, replications=1,
                                         missing="constant"), 0)
    path = tmp_path / "ds.csv"
    write_dataset(path, ds)
    back = read_dataset(path)
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.delta, ds.delta)
    mask = ds.delta == 1
    assert np.array_equal(back.y[mask], ds.y[mask])
    assert np.all(np.isnan(back.y[~mask]))


def test_schema_errors(tmp_path):
    # (text, the start of the error message)
    cases = {
        "empty_y.csv": ("y,delta,x1\n,1,2.0\n", "line 2:"),
        "bad_header.csv": ("resp,delta,x1\n1.0,1,2.0\n", "header"),
        "bad_delta.csv": ("y,delta,x1\n1.0,2,2.0\n", "line 2:"),
        "y_on_missing.csv": ("y,delta,x1\n1.0,0,2.0\n", "line 2:"),
        "short_row.csv": ("y,delta,x1,x2\n1.0,1,2.0\n", "line 2:"),
        "bad_number.csv": ("y,delta,x1\nfoo,1,2.0\n", "line 2:"),
        "wrong_order.csv": ("y,delta,x2,x1\n1.0,1,2.0,3.0\n", "covariate"),
        "after_blank.csv": ("y,delta,x1\n1.0,1,2.0\n\n1.0,1,x\n", "line 4:"),
        "infinite_x.csv": ("y,delta,x1\n1.0,1,2.0\n,0,-inf\n", "line 3:"),
    }
    for name, (text, start) in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(CsvSchemaError, match=f"^{start}"):
            read_dataset(path)


def test_schema_errors_are_input_errors_not_numerical_failures():
    # no EstimationError handler (the sweep's, a replication's) takes one
    assert issubclass(CsvSchemaError, ValueError)
    assert not issubclass(CsvSchemaError, EstimationError)


@pytest.mark.parametrize("bad, first", [
    ({1: "x"}, 1),
    ({1000: "x"}, 1000),
    ({2000: "x"}, 2000),
    ({1000: "y"}, 1000),
    ({700: "x", 1500: "x"}, 700),
    ({700: "y", 1500: "y"}, 700),
    # the first bad line is named whichever rule each line breaks
    ({700: "y", 1500: "x"}, 700),
    ({700: "x", 1500: "y"}, 700),
])
def test_bad_line_found_in_a_long_file(tmp_path, bad, first):
    # rows 1..2000 sit on lines 2..2001; a malformed covariate ("x") or
    # observed response ("y") is reported at the first bad line
    rows = [f"{k}.5,1,{k},-{k}" for k in range(1, 2001)]
    for k, cell in bad.items():
        rows[k - 1] = f"1e,1,{k},2" if cell == "y" else f"{k},1,{k},2..0"
    path = tmp_path / "long.csv"
    path.write_text("y,delta,x1,x2\n" + "\n".join(rows) + "\n")
    with pytest.raises(CsvSchemaError, match=f"^line {first + 1}: malformed"):
        read_dataset(path)


# file text: the bulk reader and the row-by-row reference must agree on it
# (same arrays, or both raise naming the same line)
READER_CORPUS = {
    "lf": "y,delta,x1,x2\n1.5,1,2.0,3.0\n,0,1.0,-2.0\n",
    "crlf": "y,delta,x1,x2\r\n1.5,1,2.0,3.0\r\n,0,1.0,-2.0\r\n",
    "cr": "y,delta,x1,x2\r1.5,1,2.0,3.0\r,0,1.0,-2.0\r",
    "no_final_newline": "y,delta,x1,x2\n1.5,1,2.0,3.0\n,0,1.0,-2.0",
    "blank_lines": "y,delta,x1,x2\n\n1.5,1,2.0,3.0\n\n\n,0,1.0,-2.0\n\n",
    "whitespace_lines": "y,delta,x1,x2\n   \n1.5,1,2.0,3.0\n\t\r\n,0,1,2\n \n",
    "padded_cells": "y,delta,x1,x2\n 2.5 , 1 , 2.0 ,\t3.0\n  ,0, -1 ,4\n",
    "padded_header": " y , delta , x1 , x2 \n1,1,2,3\n",
    "quoted_cells": 'y,delta,x1,x2\n"1.5","1","2.0","3.0"\n"",0,"1",2\n',
    "quoted_padded": 'y,delta,x1,x2\n"1.5" ,1,"2.0" ,3\n',
    "quote_after_space": 'y,delta,x1,x2\n1.5,1, "2.0",3\n',
    "quoted_comma": 'y,delta,x1,x2\n1.5,1,"2,0",3\n',
    "delta_space": "y,delta,x1,x2\n1.5, 1,2.0,3.0\n",
    "delta_plus": "y,delta,x1,x2\n1.5,+1,2.0,3.0\n,+0,1,1\n",
    "delta_float": "y,delta,x1,x2\n1.5,1.0,2.0,3.0\n",
    "delta_two": "y,delta,x1,x2\n1.5,1,2,3\n1.5,2,2.0,3.0\n",
    "delta_huge": "y,delta,x1,x2\n1.5,1" + "0" * 400 + ",2.0,3.0\n",
    "delta_empty": "y,delta,x1,x2\n1.5,,2.0,3.0\n",
    "number_forms": ("y,delta,x1,x2\n+.5,1,5.,-0.0\n1e308,1,4.9e-324,"
                     "2.2250738585072014e-308\n"
                     "0.1000000000000000055511151231257827021181583404541015625"
                     ",1,1E-5,-123456789012345678901234567890\n"),
    "nan_y": "y,delta,x1,x2\n1,1,2,3\nnan,1,2.0,3.0\n",
    "inf_y": "y,delta,x1,x2\n-inf,1,2.0,3.0\n",
    "nan_y_missing": "y,delta,x1,x2\n1,1,2,3\nnan,0,2.0,3.0\n",
    "y_on_missing": "y,delta,x1,x2\n1,1,2,3\n1.5,0,2.0,3.0\n",
    "no_y_observed": "y,delta,x1,x2\n1,1,2,3\n,1,2.0,3.0\n",
    "nan_x": "y,delta,x1,x2\n1.5,1,nan,3.0\n",
    "inf_x": "y,delta,x1,x2\n1.5,1,2.0,inf\n",
    "malformed_x": "y,delta,x1,x2\n1,1,2,3\n1,1,2,3\n1.5,1,2.0,abc\n",
    "malformed_y": "y,delta,x1,x2\n1,1,2,3\n1.5.1,1,2.0,3\n",
    "empty_x": "y,delta,x1,x2\n1.5,1,,3\n",
    "empty_y_observed": "y,delta,x1,x2\n1,1,2,3\n ,1,2.0,3.0\n",
    "short_row": "y,delta,x1,x2\n1,1,2,3\n1.5,1,2.0\n",
    "long_row": "y,delta,x1,x2\n1.5,1,2.0,3.0,4.0\n",
    "blank_then_bad": "y,delta,x1,x2\n1,1,2,3\n\n  \n1,1,2,oops\n",
    "bad_last_line": "y,delta,x1,x2\n1,1,2,3\n,0,1,2\n1,1,2,3,4",
    "form_feed_line": "y,delta,x1,x2\n1,1,2,3\n\f\n,0,1,2\n",
    "cr_whitespace_line": "y,delta,x1,x2\r1,1,2,3\r \r,0,1,2",
    "writer_edge_values": ("y,delta,x1,x2\r\n5e-324,1,-0.0,1e+308\r\n"
                           ",0,5e-324,-1e+308\r\n-0.0,1,1e+308,-5e-324\r\n"),
    # y goes through Python's float, which takes both
    "y_underscores": "y,delta,x1,x2\n1_0,1,2,3\n",
    "y_non_ascii_digit": "y,delta,x1,x2\n\uff11,1,2,3\n",
    "inf_x_missing_y": "y,delta,x1,x2\n1,1,2,3\n,0,2,-inf\n",
    # a malformed y on line 4 comes before a malformed covariate on line 8,
    # and a bad delta on line 3 before a short row on line 4
    "bad_y_then_bad_x": ("y,delta,x1,x2\n1,1,2,3\n1,1,2,3\n1e,1,2,3\n1,1,2,3\n"
                         "1,1,2,3\n1,1,2,3\n1,1,2,x\n"),
    "bad_delta_then_short_row": "y,delta,x1,x2\n1,1,2,3\n1,2,2,3\n1,1,2\n",
    "header_only": "y,delta,x1,x2\n",
    "header_and_blanks": "y,delta,x1,x2\n\n \n",
    "empty": "",
    "blank_first_line": "\ny,delta,x1,x2\n1,1,2,3\n",
    "bad_header": "y,d,x1\n1,1,2\n",
}


def _outcome(reader, path):
    """reader's Dataset of the file at path, or its error message."""
    try:
        return reader(path)
    except CsvSchemaError as exc:
        return str(exc)


def _read_both(path):
    """Each reader's Dataset, or its error message."""
    return [_outcome(reader, path) for reader in (read_dataset, read_dataset_rows)]


def _assert_same_dataset(new, ref):
    assert new.X.tobytes() == ref.X.tobytes()
    assert new.delta.dtype == ref.delta.dtype
    assert np.array_equal(new.delta, ref.delta)
    seen = ref.delta == 1
    assert new.y[seen].tobytes() == ref.y[seen].tobytes()
    assert np.isnan(new.y[~seen]).all() and np.isnan(ref.y[~seen]).all()


@pytest.mark.parametrize("name", sorted(READER_CORPUS))
def test_bulk_reader_matches_row_reference(tmp_path, name):
    path = tmp_path / "data.csv"
    path.write_bytes(READER_CORPUS[name].encode("utf-8"))
    new, ref = _read_both(path)
    if isinstance(ref, str):
        assert isinstance(new, str), f"reference raised {ref!r}"
        line = re.match(r"line \d+:", ref)
        if line:
            assert new.startswith(line.group())
    else:
        assert not isinstance(new, str), new
        _assert_same_dataset(new, ref)


# inputs the row-by-row reference accepts and the bulk reader rejects at
# line 3: numpy parses covariates without digit underscores or non-ASCII
# digits, and a line holding only a quoted empty cell is not blank text
DECLARED_DIFFERENCES = {
    "digit_underscores": "y,delta,x1\n1.5,1,2.0\n1.5,1,1_0\n",
    "non_ascii_digit": "y,delta,x1\n1.5,1,2.0\n1.5,1,\uff11\n",
    "quoted_blank_line": 'y,delta,x1\n1.5,1,2.0\n""\n',
}


@pytest.mark.parametrize("name", sorted(DECLARED_DIFFERENCES))
def test_bulk_reader_declared_differences(tmp_path, name):
    path = tmp_path / "data.csv"
    path.write_bytes(DECLARED_DIFFERENCES[name].encode("utf-8"))
    read_dataset_rows(path)
    with pytest.raises(CsvSchemaError, match="^line 3: "):
        read_dataset(path)


ALL_TEXTS = {**READER_CORPUS, **DECLARED_DIFFERENCES}


@pytest.mark.parametrize("name", sorted(ALL_TEXTS))
def test_bisection_names_the_line_a_line_by_line_scan_names(tmp_path, name):
    path = tmp_path / "data.csv"
    path.write_bytes(ALL_TEXTS[name].encode("utf-8"))
    try:
        read_dataset(path)
    except CsvSchemaError as exc:
        if str(exc).startswith("line "):
            assert str(exc) == first_row_error(path, cli._parse_rows)
    else:
        assert first_row_error(path, cli._parse_rows) is None


def _assert_bulk_matches_line_path(path):
    # read_dataset, which tries the one-pass read first, against the line
    # path called on its own: the same bits or the same message
    new, ref = _outcome(read_dataset, path), _outcome(cli._read_lines, path)
    if isinstance(ref, str):
        assert new == ref
    else:
        assert not isinstance(new, str), new
        _assert_same_dataset(new, ref)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(ALL_TEXTS))
def test_one_pass_read_matches_the_line_path(tmp_path, name):
    path = tmp_path / "data.csv"
    path.write_bytes(ALL_TEXTS[name].encode("utf-8"))
    _assert_bulk_matches_line_path(path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["y,delta,x1\n", "y,delta,x1",
                                  "y,delta,x1\r\n\r\n\n\r",
                                  "y,delta,x1\n \n\t\n"])
def test_no_data_rows_raises_without_a_warning(tmp_path, text):
    # numpy warns on a body without rows; that warning must not escape
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(CsvSchemaError, match="^no data rows$"):
        read_dataset(path)


def test_written_files_take_the_one_pass_read(tmp_path, monkeypatch):
    # a reader that always fell back to the line path would give the same
    # datasets; here the line path is not there to fall back to
    ds = _generate_dataset(preset_config("fig-coverage", n=200,
                                         replications=1), 0)
    edges = Dataset(np.array([[-0.0, 5e-324], [1e308, -1e308], [0.1, 2.0]]),
                    np.array([5e-324, np.nan, -0.0]), np.array([1, 0, 1]))
    monkeypatch.setattr(cli, "_read_lines", None)
    for k, written in enumerate((ds, edges)):
        path = tmp_path / f"data{k}.csv"
        write_dataset(path, written)
        _assert_same_dataset(read_dataset(path), written)


def test_one_pass_read_peak_memory(tmp_path):
    # a reader that holds the text and a line list peaks at about 7x the
    # dataset's bytes at this size
    rng = RngStream(5, 0)
    n, p = 5000, 20
    X = rng.normals(n * p).reshape(n, p)
    delta = (rng.uniforms(n) > 0.2).astype(np.uint8)
    y = np.where(delta == 1, rng.normals(n), np.nan)
    path = tmp_path / "data.csv"
    write_dataset(path, Dataset(X, y, delta))
    tracemalloc.start()
    try:
        read_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * (X.nbytes + y.nbytes + delta.nbytes)


@pytest.mark.parametrize("bad", [(0,), (2500,), (4999,), (1234, 4000)])
def test_first_bad_line_costs_logarithmic_parses(tmp_path, monkeypatch, bad):
    # the first bad line breaks the y rule, a later one the field count
    body = [f"{k}.5,1,{k},-1" for k in range(5000)]
    body[bad[0]] = "1e,1,2,3"
    if len(bad) > 1:
        body[bad[1]] = "1,1,2"
    path = tmp_path / "data.csv"
    path.write_text("y,delta,x1,x2\n" + "\n".join(body) + "\n")
    rows = []
    parse = cli._parse_rows

    def counted(lines, p):
        rows.append(len(lines))
        return parse(lines, p)

    monkeypatch.setattr(cli, "_parse_rows", counted)
    with pytest.raises(CsvSchemaError,
                       match=f"^line {bad[0] + 2}: malformed y$"):
        read_dataset(path)
    assert len(rows) <= 2 + math.ceil(math.log2(5000))
    assert sum(rows) <= 2 * 5000 + 1  # about two bulk parses


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(deadline=None, max_examples=60)
@given(data=st.data(), n=st.integers(1, 12), p=st.integers(1, 4))
def test_written_datasets_round_trip_through_both_readers(tmp_path_factory,
                                                          data, n, p):
    X = np.array(data.draw(st.lists(_finite, min_size=n * p,
                                    max_size=n * p))).reshape(n, p)
    delta = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n,
                                        max_size=n)))
    y = np.where(delta == 1, data.draw(st.lists(_finite, min_size=n,
                                                max_size=n)), np.nan)
    ds = Dataset(X, y, delta)
    path = tmp_path_factory.mktemp("round_trip") / "data.csv"
    write_dataset(path, ds)
    new, ref = _read_both(path)
    _assert_same_dataset(ref, ds)
    _assert_same_dataset(new, ref)


# values whose repr is easy to get wrong: signed zero, the smallest
# subnormal and numbers near the top of the float range
_edge_floats = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308,
                                1.7976931348623157e308, 1e-300, 0.1])


@settings(deadline=None, max_examples=60)
@given(data=st.data(), n=st.integers(1, 12), p=st.integers(1, 4))
def test_writer_matches_csv_writer_byte_for_byte(tmp_path_factory, data, n, p):
    values = st.one_of(_edge_floats, _finite)
    X = np.array(data.draw(st.lists(values, min_size=n * p,
                                    max_size=n * p))).reshape(n, p)
    delta = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n,
                                        max_size=n)))
    # a missing row's y, NaN or not, is never written
    y = np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
    if data.draw(st.booleans()):
        y = np.where(delta == 1, y, np.nan)
    ds = Dataset(X, y, delta)
    where = tmp_path_factory.mktemp("writers")
    write_dataset(where / "new.csv", ds)
    write_dataset_rows(where / "ref.csv", ds)
    assert (where / "new.csv").read_bytes() == (where / "ref.csv").read_bytes()


@pytest.mark.parametrize("n, p", [(1, 1), (1, 5), (5, 1)])
def test_writer_edge_values_and_shapes(tmp_path, n, p):
    edges = [-0.0, 5e-324, 1e308, -1e308, 0.0]
    X = np.resize(edges, n * p).reshape(n, p)
    for delta in (np.ones(n), np.zeros(n)):
        ds = Dataset(X, np.resize([1e308, -0.0, 5e-324], n), delta)
        write_dataset(tmp_path / "new.csv", ds)
        write_dataset_rows(tmp_path / "ref.csv", ds)
        text = (tmp_path / "new.csv").read_bytes()
        assert text == (tmp_path / "ref.csv").read_bytes()
        assert text.endswith(b"\r\n") and text.count(b"\r\n") == n + 1


# what each rule breaks a cell with; the field count goes last, after every
# cell has been placed
_FAULTS = {
    "number": st.sampled_from(["x", "1e", "", "1_0", "\uff11", "--1"]),
    "delta": st.sampled_from(["2", "-1", "1.0", "", "0x1"]),
    "finite_x": st.sampled_from(["inf", "-inf", "nan"]),
    "needs_y": st.sampled_from(["", " "]),
    "empty_y": st.sampled_from(["1.5", "nan", "0"]),
    "malformed_y": st.sampled_from(["1e", "y", "1..0"]),
    "finite_y": st.sampled_from(["inf", "nan", "-inf"]),
    "fields": st.sampled_from(["drop", "extra"]),
}
# accepted forms: blank lines and padded cells stay on the one-pass read,
# whitespace-only lines and quoted cells send a file to the line path
_FORMS = ("blank", "whitespace", "padded", "quoted")


@st.composite
def _dataset_texts(draw):
    """The text of a dataset CSV; half the files mix in accepted forms other
    than the writer's, and half break one or two rules, each at a line of
    its own."""
    p, n = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    values = st.one_of(_edge_floats, _finite).map(repr)
    rows = []
    for _ in range(n):
        observed = draw(st.booleans())
        rows.append([draw(values) if observed else "", "01"[observed]]
                    + [draw(values) for _ in range(p)])
    faults = (draw(st.sets(st.sampled_from(list(_FAULTS)), min_size=1,
                           max_size=2)) if draw(st.booleans()) else ())
    for rule in (r for r in _FAULTS if r in faults):
        row, cell = rows[draw(st.integers(0, n - 1))], draw(_FAULTS[rule])
        if rule == "fields":
            row[:] = row[:-1] if cell == "drop" else row + ["1.0"]
        elif rule in ("number", "finite_x"):
            row[draw(st.integers(2, len(row) - 1))] = cell
        elif rule == "delta":
            row[1] = cell
        elif rule == "empty_y":
            row[:2] = [cell, "0"]
        else:  # a rule of an observed y
            row[:2] = [cell, "1"]
    forms = draw(st.sets(st.sampled_from(_FORMS))) if draw(st.booleans()) else ()
    gaps = [g for f, g in (("blank", ""), ("whitespace", " \t")) if f in forms]
    cell_forms = ["plain"] + [f for f in ("padded", "quoted") if f in forms]
    lines = []
    for row in rows:
        if gaps and draw(st.booleans()):
            lines.append(draw(st.sampled_from(gaps)))
        cells = []
        for cell in row:
            form = draw(st.sampled_from(cell_forms))
            cells.append(f" {cell}\t" if form == "padded"
                         else f'"{cell}"' if form == "quoted" else cell)
        lines.append(",".join(cells))
    header = ",".join(["y", "delta"] + [f"x{j}" for j in range(1, p + 1)])
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join([header] + lines) + draw(st.sampled_from([end, ""]))


@pytest.mark.filterwarnings("error")
@settings(deadline=None, max_examples=200)
@given(text=_dataset_texts())
def test_one_pass_read_matches_the_line_path_on_generated_files(
        tmp_path_factory, text):
    path = tmp_path_factory.mktemp("generated") / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    _assert_bulk_matches_line_path(path)


def test_import_loads_no_multiprocessing():
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import sys, seel.cli; print(sorted(m for m in sys.modules if m"
            ".startswith(('multiprocessing', 'concurrent.futures.process'))))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


def test_undecodable_file_is_a_schema_error(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("y,delta,x1\n1.0,1,2.0\n\u00e9,0,1.0\n".encode("latin-1"))
    with pytest.raises(CsvSchemaError, match="^cannot read"):
        read_dataset(path)


def test_schema_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("y,delta,x1\n,1,2.0\n")
    code, _ = run_cli(capsys, "fit", str(path))
    assert code == 2


def test_missing_file_exit_code(capsys):
    code, _ = run_cli(capsys, "fit", "/nonexistent/nowhere.csv")
    assert code == 2


# ---------------------------------------------------------------------------
# fit

def test_fit_five_column_file(tmp_path, capsys):
    rng = RngStream(7, 0)
    n = 60
    X = rng.normals(3 * n).reshape(n, 3)
    y = X @ np.array([1.0, 0.0, -0.5]) + 0.1 * rng.normals(n)
    path = tmp_path / "five.csv"
    write_dataset(path, Dataset(X, y, np.ones(n)))
    code, rep = run_cli(capsys, "fit", str(path))
    assert code == 0
    assert rep["p"] == 3 and len(rep["beta"]) == 3
    assert rep["schema_version"] == SCHEMA_VERSION
    assert rep["converged"]


def test_fit_matches_library_call(sparse_csv, capsys):
    path, _ = sparse_csv
    code, rep = run_cli(capsys, "fit", str(path))
    assert code == 0
    ds = read_dataset(path)
    ref = fit_a2(ds, ModelConfig(tau=0.5))
    assert np.allclose(rep["beta"], ref.beta, atol=0, rtol=0)


def test_fit_tau_auto(sparse_csv, capsys):
    path, _ = sparse_csv
    code, rep = run_cli(capsys, "fit", str(path), "--tau", "auto")
    assert code == 0
    ds = read_dataset(path)
    assert rep["tau"] == pytest.approx(empirical_tau(ds.y[ds.delta == 1]))
    assert rep["tau_auto"] is True


def test_fit_tau_auto_one_sided_is_a_numerical_failure(tmp_path, capsys):
    # four of five responses tie at the median, so the rescaled responses
    # are never negative and no tau in (0, 1) zeroes their expectile equation
    path = tmp_path / "one_sided.csv"
    path.write_text("y,delta,x1\n0,1,1.0\n0,1,2.0\n0,1,0.5\n5,1,3.0\n"
                    "0,1,1.5\n")
    assert main(["fit", str(path), "--tau", "auto"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "both signs" in captured.err and "tau must" not in captured.err


def test_fit_with_hypothesis_test(sparse_csv, capsys):
    path, beta0 = sparse_csv
    code, rep = run_cli(capsys, "fit", str(path), "--test-beta",
                        ",".join(str(v) for v in beta0))
    assert code == 0
    t = rep["wilks_test"]
    assert t["df"] == 3
    assert t["reject"] == (t["statistic"] > t["critical"])


def test_fit_standardize_records_transform(sparse_csv, capsys):
    path, _ = sparse_csv
    code, rep = run_cli(capsys, "fit", str(path), "--standardize")
    assert code == 0
    assert rep["standardized"] is not None
    assert len(rep["standardized"]["center"]) == 3


def huge_response_csv(tmp_path):
    # every response 1e200: a * a overflows S, though each value is finite
    path = tmp_path / "huge.csv"
    path.write_text("y,delta,x1\n" + "".join(
        f"1e200,1,{x}\n" for x in ("1", "2", "-1", "0.5", "3")))
    return path


@pytest.mark.parametrize("argv", [["fit"], ["fit", "--algorithm", "a1"],
                                  ["select"]])
def test_overflowing_moments_are_a_numerical_failure(tmp_path, capsys, argv):
    # an infinite S once gave exit 0 with "lambda": [0.0] and a zero ratio
    path = huge_response_csv(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main([argv[0], str(path), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == ("numerical failure: S is not finite: the data "
                            "overflow the float range\n")


def test_overflowing_moments_stop_at_the_overflow(tmp_path, capsys):
    # with overflow warnings as errors the run ends where S overflows, not
    # in the norms of the fit's divergence guard
    path = huge_response_csv(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="overflow") as info:
            main(["fit", str(path), "--algorithm", "a1"])
    assert info.traceback[-1].name == "S"
    ds = read_dataset(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fit = fit_a2(ds, ModelConfig())
    assert np.all(np.isfinite(fit.beta)) and abs(fit.beta[0]) > 1e199


# ---------------------------------------------------------------------------
# select

def test_select_eta_zero_keeps_all_columns(sparse_csv, capsys):
    path, _ = sparse_csv
    code, rep = run_cli(capsys, "select", str(path), "--eta", "0")
    assert code == 0
    assert rep["active_set"] == [1, 2, 3]


def test_select_recovers_support(sparse_csv, capsys):
    path, _ = sparse_csv
    code, rep = run_cli(capsys, "select", str(path))
    assert code == 0
    assert rep["active_set"] == [1, 3]
    assert rep["submodel_wilks_test"]["df"] == 2


def test_select_l1_l2_agree(sparse_csv, capsys):
    path, _ = sparse_csv
    _, rep1 = run_cli(capsys, "select", str(path), "--algorithm", "l1")
    _, rep2 = run_cli(capsys, "select", str(path), "--algorithm", "l2")
    assert rep1["active_set"] == rep2["active_set"]


# ---------------------------------------------------------------------------
# sweep

def test_sweep_single_point(sparse_csv, capsys):
    path, _ = sparse_csv
    code, rep = run_cli(capsys, "sweep", str(path), "--a-values", "2")
    assert code == 0
    assert len(rep["records"]) == 1
    assert rep["best"]["eta"] == rep["records"][0]["eta"]
    assert rep["failed_cells"] == []


def test_sweep_standardize_records_transform(sparse_csv, capsys):
    # as fit and select do, since schema version 5
    path, _ = sparse_csv
    code, plain = run_cli(capsys, "sweep", str(path), "--a-values", "1")
    assert code == 0 and plain["standardized"] is None
    code, rep = run_cli(capsys, "sweep", str(path), "--a-values", "1",
                        "--standardize")
    assert code == 0
    assert rep["schema_version"] == SCHEMA_VERSION == 5
    X = read_dataset(path).X
    assert rep["standardized"] == {"center": X.mean(axis=0).tolist(),
                                   "scale": X.std(axis=0).tolist()}


def test_sweep_csv_row_count(sparse_csv, tmp_path, capsys):
    path, _ = sparse_csv
    out = tmp_path / "sweepout"
    code, rep = run_cli(capsys, "sweep", str(path), "--a-min", "1",
                        "--a-max", "4", "--a-step", "1", "--out", str(out))
    assert code == 0
    assert len(rep["records"]) == 4
    lines = (out / "sweep_records.csv").read_text().strip().splitlines()
    assert len(lines) == 5  # header + one row per grid point


def test_sweep_csv_matches_report(sparse_csv, tmp_path, capsys):
    path, _ = sparse_csv
    out = tmp_path / "sweepout"
    code, _ = run_cli(capsys, "sweep", str(path), "--a-min", "0.5",
                      "--a-max", "2", "--a-step", "0.5", "--out", str(out))
    assert code == 0
    records = json.loads((out / "sweep_report.json").read_text())["records"]
    with open(out / "sweep_records.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(records) == 4
    for row, rec in zip(rows, records):
        for key in ("a", "eta", "bic"):
            assert float(row[key]) == rec[key]
        assert [float(v) for v in row["beta"].split()] == rec["beta"]
        assert [int(j) for j in row["active_set"].split()] == rec["active_set"]
        assert row["ratio_method"] == rec["ratio_method"] == "exact"
        assert int(row["multiplier_iterations"]) == rec["multiplier_iterations"]
        assert rec["multiplier_iterations"] > 0


def test_sweep_failed_cell_keeps_labels(sparse_csv, capsys, monkeypatch):
    path, _ = sparse_csv
    real_fit_l2 = inference.fit_l2
    calls = []

    def fit_l2(ds, cfg, pen, beta0=None):
        calls.append(pen.eta)
        if len(calls) == 1:
            raise NoConvergenceError("forced failure")
        return real_fit_l2(ds, cfg, pen, beta0)

    monkeypatch.setattr(inference, "fit_l2", fit_l2)
    with pytest.warns(UserWarning, match="forced failure"):
        code, rep = run_cli(capsys, "sweep", str(path), "--a-values", "1,2,3")
    assert code == 0
    assert [r["a"] for r in rep["records"]] == [2.0, 3.0]
    for r in rep["records"]:
        assert r["eta"] == r["a"] * rep["n"] ** (-5.0 / 6.0)
    assert rep["failed_cells"] == [{"a": 1.0, "eta": rep["n"] ** (-5.0 / 6.0),
                                    "error": "NoConvergenceError",
                                    "message": "forced failure"}]


def test_sweep_every_cell_failed_still_reports(sparse_csv, tmp_path, capsys,
                                               monkeypatch):
    path, _ = sparse_csv

    def fit_l2(ds, cfg, pen, beta0=None):
        raise NoConvergenceError("forced failure")

    monkeypatch.setattr(inference, "fit_l2", fit_l2)
    out = tmp_path / "sweep"
    with pytest.warns(UserWarning, match="forced failure"):
        code = main(["sweep", str(path), "--a-values", "1,2", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert "numerical failure: forced failure" in captured.err
    rep = json.loads((out / "sweep_report.json").read_text())
    assert rep == json.loads(captured.out)
    assert rep["schema_version"] == SCHEMA_VERSION
    assert rep["records"] == [] and rep["best"] is None
    eta1 = rep["n"] ** (-5.0 / 6.0)
    assert rep["failed_cells"] == [
        {"a": a, "eta": a * eta1, "error": "NoConvergenceError",
         "message": "forced failure"} for a in (1.0, 2.0)]
    with open(out / "sweep_records.csv", newline="") as fh:
        assert list(csv.reader(fh)) == [["a", "eta", "bic", "active_set", "beta",
                                         "ratio_method", "multiplier_iterations"]]


def test_sweep_failure_before_the_grid_writes_no_report(sparse_csv, tmp_path,
                                                        capsys, monkeypatch):
    path, _ = sparse_csv

    def expectile_fit(ds, tau):
        raise RankDeficientError("forced failure")

    monkeypatch.setattr(inference, "expectile_fit", expectile_fit)
    out = tmp_path / "sweep"
    code = main(["sweep", str(path), "--a-values", "1,2", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--a-step", "0"], ["--eta", "99"],
                                   ["--alpha", "0.9"]])
def test_sweep_rejects_bad_flags(sparse_csv, flags):
    path, _ = sparse_csv
    try:
        code = main(["sweep", str(path), *flags])
    except SystemExit as exc:  # argparse rejects unknown flags
        code = exc.code
    assert code == 2


@pytest.mark.parametrize("flags, message", [
    # the count np.arange would give
    (["--a-step", "1e-6"],
     f"has {np.arange(1.0, 8.0 + 0.5e-6, 1e-6).size} cells"),
    (["--a-min", "0", "--a-max", "1e300"], "has 1e+300 cells"),
    (["--a-max", "inf"], "has inf cells"),
    (["--a-values", ",".join(["1"] * 1001)], "has 1001 cells"),
    # a step that would make the count NaN
    (["--a-step", "inf"], "--a-step must be positive and finite"),
])
def test_sweep_grid_over_the_bound_exits_before_the_read(sparse_csv, capsys,
                                                         monkeypatch, flags,
                                                         message):
    def unreachable(*args, **kwargs):
        raise AssertionError("reached")

    monkeypatch.setattr(cli, "read_dataset", unreachable)
    path, _ = sparse_csv
    assert main(["sweep", str(path), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize("a_min, a_max, a_step", [
    (1.0, 1000.0, 1.0), (1.0, 1001.0, 1.0), (0.0, 99.9, 0.1),
    (0.0, 100.0, 0.1), (0.3, 1.0, 0.7 / 999), (0.3, 1.0, 0.7 / 1000),
])
def test_sweep_grid_bound_counts_as_arange_does(sparse_csv, capsys,
                                                monkeypatch, a_min, a_max,
                                                a_step):
    # a grid within the bound reaches the read, a larger one does not
    def sentinel(path):
        raise CsvSchemaError("read reached")

    monkeypatch.setattr(cli, "read_dataset", sentinel)
    cells = np.arange(a_min, a_max + 0.5 * a_step, a_step).size
    path, _ = sparse_csv
    assert main(["sweep", str(path), "--a-min", repr(a_min), "--a-max",
                 repr(a_max), "--a-step", repr(a_step)]) == 2
    err = capsys.readouterr().err
    if cells <= cli.MAX_GRID_CELLS:
        assert err == "error: read reached\n"
    else:
        assert f"has {cells} cells" in err


def test_sweep_selects_support_on_synthetic(sparse_csv, capsys):
    path, _ = sparse_csv
    code, rep = run_cli(capsys, "sweep", str(path), "--a-values",
                        "0.5,1,2,4,8")
    assert code == 0
    assert rep["best"]["active_set"] == [1, 3]


# ---------------------------------------------------------------------------
# simulate

def test_simulate_preset_outputs(tmp_path, capsys):
    out = tmp_path / "simout"
    code, rep = run_cli(capsys, "simulate", "--preset", "table1",
                        "--n", "150", "--reps", "4", "--seed", "9",
                        "--out", str(out), "--dump")
    assert code == 0
    assert rep["replications_used"] == 4
    for alg in ("a1", "a2", "l1", "l2"):
        assert alg in rep["mean_norm"]
    assert (out / "sim_report.json").exists()
    assert (out / "sim_cells.csv").exists()
    dump = read_dataset(out / "sim_dump.csv")
    assert dump.n == 150 and dump.p == 5


def test_simulate_same_seed_identical_files(tmp_path, capsys):
    args = ("simulate", "--preset", "table1", "--n", "120", "--reps", "3",
            "--seed", "4")
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    code1, _ = run_cli(capsys, *args, "--out", str(d1), "--dump")
    code2, _ = run_cli(capsys, *args, "--out", str(d2), "--dump")
    assert code1 == code2 == 0
    for name in ("sim_report.json", "sim_cells.csv", "sim_dump.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_simulate_dump_roundtrip_fit_bitwise(tmp_path, capsys):
    out = tmp_path / "dumpdir"
    code, _ = run_cli(capsys, "simulate", "--preset", "table1", "--n", "100",
                      "--reps", "1", "--seed", "12", "--out", str(out),
                      "--dump")
    assert code == 0
    sc = preset_config("table1", n=100, replications=1, seed=12)
    ds_mem = _generate_dataset(sc, 0)
    ds_csv = read_dataset(out / "sim_dump.csv")
    cfg = ModelConfig(tau=0.5)
    beta_mem = fit_a2(ds_mem, cfg).beta
    beta_csv = fit_a2(ds_csv, cfg).beta
    assert np.array_equal(beta_mem, beta_csv)


def test_simulate_without_preset_requires_shape(capsys):
    code, _ = run_cli(capsys, "simulate", "--reps", "2")
    assert code == 2


def test_simulate_custom_beta0(capsys):
    code, rep = run_cli(capsys, "simulate", "--n", "80",
                        "--beta0", "1,0,2", "--reps", "2", "--seed", "1",
                        "--algorithms", "a2")
    assert code == 0
    assert rep["p"] == 3
    assert rep["beta0"] == [1.0, 0.0, 2.0]


@pytest.mark.parametrize("via_config", [False, True])
def test_simulate_rejects_tau_auto(tmp_path, capsys, via_config):
    # simulate has no empirical tau rule; 'auto' must not pass for 'default'
    argv = ["simulate", "--preset", "table1", "--n", "90", "--reps", "2"]
    if via_config:
        cfg_file = tmp_path / "sim.cfg"
        cfg_file.write_text("tau=auto\n")
        argv += ["--config", str(cfg_file)]
    else:
        argv += ["--tau", "auto"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tau" in captured.err and "'default'" in captured.err
    code, rep = run_cli(capsys, "simulate", "--preset", "table1", "--n", "90",
                        "--reps", "2", "--tau", "DEFAULT")
    assert code == 0 and rep["tau"] != 0.5  # the shifted-exponential rule


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg_file = tmp_path / "sim.cfg"
    # comment and blank lines are skipped
    cfg_file.write_text("# a desk run\n\npreset=table1\n  # n=5\n   \n"
                        "n=90\nreps=2\nseed=5\n")
    code, rep = run_cli(capsys, "simulate", "--config", str(cfg_file))
    assert code == 0
    assert rep["n"] == 90
    code, rep = run_cli(capsys, "simulate", "--config", str(cfg_file),
                        "--n", "110")
    assert code == 0
    assert rep["n"] == 110


def test_standardize_rejects_constant_covariate(tmp_path, capsys):
    path = tmp_path / "constant.csv"
    path.write_text("y,delta,x1,x2\n1.0,1,0.5,1.0\n2.0,1,1.5,1.0\n"
                    ",0,2.5,1.0\n3.0,1,-1.0,1.0\n")
    assert main(["fit", str(path), "--standardize"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: constant covariate cannot be standardized\n"


@pytest.mark.parametrize("off", ["false", "no", "No"])
def test_config_switch_turned_off(sparse_csv, tmp_path, capsys, off):
    path, _ = sparse_csv
    cfg_file = tmp_path / "run.cfg"
    for value, standardized in ((off, False), ("yes", True)):
        cfg_file.write_text(f"standardize = {value}\n")
        code, rep = run_cli(capsys, "fit", str(path), "--config", str(cfg_file))
        assert code == 0
        assert (rep["standardized"] is not None) == standardized
    for value, dumped in ((off, False), ("true", True)):
        out = tmp_path / f"sim-{value}"
        cfg_file.write_text(f"preset = table1\nn = 90\nreps = 2\ndump = {value}\n")
        code, _ = run_cli(capsys, "simulate", "--config", str(cfg_file),
                          "--out", str(out))
        assert code == 0
        assert (out / "sim_report.json").exists()
        assert (out / "sim_dump.csv").exists() == dumped


def test_config_bad_values_rejected(sparse_csv, tmp_path, capsys):
    path, _ = sparse_csv
    cfg_file = tmp_path / "run.cfg"
    # a flag that takes a value gets 'no' as its value, never its default
    cfg_file.write_text("pilot = no\n")
    with pytest.raises(SystemExit) as exc:
        main(["select", str(path), "--config", str(cfg_file)])
    assert exc.value.code == 2
    assert "--pilot" in capsys.readouterr().err
    cfg_file.write_text("standardize = maybe\n")
    assert main(["fit", str(path), "--config", str(cfg_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "'standardize'" in captured.err
    cfg_file.write_text("tau = 0.3\nh 0.2\n")
    assert main(["fit", str(path), "--config", str(cfg_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: config line without '=': 'h 0.2'\n"
    missing = tmp_path / "absent.cfg"
    assert main(["fit", str(path), "--config", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read config {missing}: ")


@pytest.mark.parametrize("command, flags", [
    ("fit", ["--h", "nan"]), ("fit", ["--h", "inf"]), ("fit", ["--nu", "nan"]),
    ("fit", ["--eps-zero", "nan"]), ("fit", ["--max-iter", "0"]),
    ("fit", ["--max-iter", "-1"]), ("select", ["--eta", "nan"]),
    ("select", ["--eta", "inf"]), ("select", ["--gamma", "nan"]),
    ("sweep", ["--gamma", "nan"]),
])
def test_nonfinite_or_out_of_range_config_flags_exit_2(sparse_csv, capsys,
                                                       command, flags):
    # a bad solver or penalty setting is bad input, not a numerical failure
    path, _ = sparse_csv
    code = main([command, str(path), *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "must be" in captured.err


@pytest.mark.parametrize("command, flags", [
    ("fit", ["--h", "nan"]), ("fit", ["--max-iter", "0"]),
    ("fit", ["--tau", "1.5"]), ("fit", ["--tau", "auto", "--nu", "nan"]),
    ("select", ["--eta", "nan"]), ("select", ["--gamma", "nan"]),
    ("select", ["--tau", "auto", "--eta", "-1"]),
    ("sweep", ["--gamma", "nan"]), ("sweep", ["--a-values", "1,nan"]),
    ("sweep", ["--a-values", "1,-2"]), ("sweep", ["--a-step", "0"]),
    ("fit", ["--alpha", "1.5"]), ("fit", ["--alpha", "7"]),
    ("fit", ["--alpha", "nan"]), ("select", ["--alpha", "0"]),
    ("fit", ["--test-beta", "1.5,0,-1", "--alpha", "1.5"]),
    ("fit", ["--test-beta", "abc"]), ("fit", ["--test-beta", "1.5,nan,-1"]),
    ("fit", ["--test-beta", "1.5,0,inf"]),
    ("sweep", ["--a-min", "5", "--a-max", "1"]),
])
def test_bad_settings_are_rejected_before_the_read(sparse_csv, capsys,
                                                   monkeypatch, command,
                                                   flags):
    # the configs are built from the flags first, so a bad one exits 2
    # without reading the CSV or fitting anything
    def unreachable(*args, **kwargs):
        raise AssertionError("reached")

    monkeypatch.setattr(cli, "read_dataset", unreachable)
    monkeypatch.setattr(cli, "expectile_fit", unreachable)
    monkeypatch.setattr(inference, "expectile_fit", unreachable)
    path, _ = sparse_csv
    assert main([command, str(path), *flags]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["fit", "select", "simulate"])
def test_bad_alpha_is_named_as_simulate_names_it(sparse_csv, capsys, command):
    path, _ = sparse_csv
    where = ["--preset", "table1", "--reps", "2"] if command == "simulate" \
        else [str(path)]
    assert main([command, *where, "--alpha", "1.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: alpha must lie in (0, 1)\n"


@pytest.mark.parametrize("algorithm", ["a1", "a2"])
def test_test_beta_of_wrong_length_is_rejected_before_the_fit(
        sparse_csv, capsys, monkeypatch, algorithm):
    # the length needs p, so the CSV is read, but nothing is fitted
    def unreachable(*args, **kwargs):
        raise AssertionError("reached")

    for name in ("fit_a1", "fit_a2", "expectile_fit"):
        monkeypatch.setattr(cli, name, unreachable)
    path, _ = sparse_csv
    assert main(["fit", str(path), "--algorithm", algorithm,
                 "--test-beta", "1,2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--test-beta needs p" in captured.err


def test_test_beta_length_is_checked_against_the_header(sparse_csv, capsys,
                                                       monkeypatch):
    # the CSV header gives p, so no data row is parsed
    def unreachable(*args, **kwargs):
        raise AssertionError("reached")

    monkeypatch.setattr(cli, "_parse_rows", unreachable)
    path, _ = sparse_csv
    assert main(["fit", str(path), "--test-beta", "1,2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--test-beta needs p" in captured.err


def test_test_beta_with_a_bad_header_is_a_schema_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    for text in ("", "resp,delta,x1\n1.0,1,2.0\n"):
        path.write_text(text)
        assert main(["fit", str(path), "--test-beta", "1"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: " + ("empty file" if not text else "header"))


@pytest.mark.parametrize("workers", ["0", "-4"])
def test_simulate_rejects_fewer_than_one_worker(capsys, monkeypatch, workers):
    def unreachable(*args, **kwargs):
        raise AssertionError("reached")

    monkeypatch.setattr(simulate, "_replicate", unreachable)
    assert main(["simulate", "--preset", "table1", "--reps", "2",
                 "--workers", workers]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "workers must be at least 1" in captured.err


def test_numerical_failure_exit_code(tmp_path, capsys):
    # fewer complete rows than parameters: a numerical (not schema) failure
    path = tmp_path / "thin.csv"
    path.write_text("y,delta,x1,x2,x3\n1.0,1,0.5,0.2,0.1\n,0,0.3,0.4,0.5\n")
    code, _ = run_cli(capsys, "fit", str(path))
    assert code == 3


def test_flag_combinations_smoke(sparse_csv, tmp_path, capsys):
    path, beta0 = sparse_csv
    combos = [
        ["fit", str(path), "--tau", "auto", "--standardize", "--kernel",
         "triweight", "--algorithm", "a1"],
        ["select", str(path), "--tau", "0.6", "--algorithm", "l1",
         "--pilot", "same", "--gamma", "2.0", "--kernel", "quartic"],
        ["sweep", str(path), "--grid-form", "n67", "--a-values", "1,3",
         "--pilot", "split"],
        ["simulate", "--preset", "fig-coverage", "--n", "150", "--reps", "2",
         "--seed", "3", "--missing", "covariate"],
        ["simulate", "--preset", "table2", "--n", "120", "--reps", "2",
         "--errors", "normal", "--tau", "0.4"],
    ]
    for argv in combos:
        code, rep = run_cli(capsys, *argv)
        assert code == 0, argv
        assert rep["schema_version"] == SCHEMA_VERSION
