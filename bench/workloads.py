"""The three benchmark workloads: inputs made from a seed, the op, its checks.

Every workload draws its inputs from a fixed bank of input seeds whose
outputs were recorded once (``record_refs.py``) into ``refs/``.  The workload
seed picks and orders bank entries, so the same seed gives the same inputs
and every op's output can be compared with a recorded reference.  The
warm-up op runs on a bank entry that no timed op uses, and ``mc_desk`` and
``sweep_large`` never repeat an input within a run: ``key(i)`` returns None
once the bank is used up, and the timed loop ends there.

The seel functions are called through their module attributes
(``simulate.run_monte_carlo``, not a name imported into this file) so that
the traced run, which rebinds those attributes, sees every call.
"""

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from seel import cli, inference, model, numkit, simulate

# true coefficients of the generated regression data: support {3, 5, 7}
# (1-based), as in the paper's coverage and selection figures
_SUPPORT = {2: 1.0, 4: 2.0, 6: -1.0}
_DATA_STREAM = 11  # RngStream id of generated datasets


def bank_order(label, seed, size):
    """Bank indices 0..size-1 in an order that is a pure function of
    (label, seed), independent of the Python version and platform."""
    def rank(k):
        return hashlib.sha256(f"{label}:{seed}:{k}".encode()).digest()
    return sorted(range(size), key=rank)


def true_beta(p):
    beta = np.zeros(p)
    for j, v in _SUPPORT.items():
        beta[j] = v
    return beta


def make_dataset(bank_seed, n, p):
    """d2 design, shifted-exponential errors, 20% of responses missing
    completely at random."""
    rng = numkit.RngStream(bank_seed, _DATA_STREAM)
    X = simulate.gen_design("d2", n, p, rng)
    eps = simulate.gen_errors("shifted_exp", n, rng)
    delta = simulate.gen_missing("constant", X, rng, 0.8)
    y = np.where(delta == 1, X @ true_beta(p) + eps, np.nan)
    return model.Dataset(X, y, delta)


@dataclass
class Result:
    """Output of one op.

    text is the canonical serialization compared byte for byte by the
    determinism check; data is its parsed form compared field by field with
    the reference; attempted and failed count the workload's units.
    """

    text: str
    data: object
    attempted: int
    failed: int
    error: str | None = None


def _raised(exc, attempted):
    msg = f"{type(exc).__name__}: {exc}"
    return Result(text=msg, data=None, attempted=attempted, failed=attempted,
                  error=msg)


class _Workload:
    """prepare(key) builds the inputs of an op, untimed; op(inputs) is the
    timed call into seel and returns the raw output, or the exception it
    raised; result(key, raw) turns that into a Result."""

    def run(self, key):
        return self.result(key, self.op(self.prepare(key)))


def _record_dict(rec):
    return {"eta": rec.eta, "bic": rec.bic,
            "active_set": [int(j) for j in rec.active_set],
            "beta": [float(v) for v in rec.beta]}


class McDesk(_Workload):
    """Monte Carlo cells alternating between the table1 and fig-coverage
    presets at their own replication counts, with workers=1.

    Each preset has its own range of cell seeds, so no two cells of a run
    share a seed (and with it the per-cell tau calibration draw)."""

    name = "mc_desk"
    presets = ("table1", "fig-coverage")
    seed_base = {"table1": 0, "fig-coverage": 100_000}
    bank = 160  # cells per preset; a 25 s run uses about 35
    smoke_bank = 16
    smoke_replications = 4

    def __init__(self, seed, smoke, workdir):
        self.smoke = smoke
        self.cells = self.smoke_bank if smoke else self.bank
        self.orders = {p: [self.seed_base[p] + k for k in
                           bank_order(f"{self.name}:{p}", seed, self.cells)]
                       for p in self.presets}

    def keys(self):
        return [f"{p}/{self.seed_base[p] + k}"
                for p in self.presets for k in range(self.cells)]

    def warmup_key(self):
        return f"{self.presets[0]}/{self.orders[self.presets[0]][0]}"

    def key(self, i):
        preset = self.presets[i % 2]
        j = 1 + i // 2
        if j >= self.cells:
            return None
        return f"{preset}/{self.orders[preset][j]}"

    def _config(self, key):
        preset, cell = key.split("/")
        overrides = {"seed": int(cell)}
        if self.smoke:
            overrides["replications"] = self.smoke_replications
        return simulate.preset_config(preset, **overrides)

    def prepare(self, key):
        return self._config(key)

    def op(self, config):
        try:
            return simulate.run_monte_carlo(config, workers=1)
        except Exception as exc:  # noqa: BLE001 - a failed cell is counted
            return exc

    def result(self, key, report):
        reps = self._config(key).replications
        if isinstance(report, Exception):
            return _raised(report, reps)
        text = report.to_json()
        return Result(text=text, data=json.loads(text), attempted=reps,
                      failed=report.replications_failed)

    def check(self, key, res):
        d = res.data
        errors = []
        if "schema_version" not in d:
            errors.append("report has no schema_version")
        if d.get("replications_used", -1) + d.get("replications_failed", -1) \
                != self._config(key).replications:
            errors.append("used + failed replications != replications")
        return errors


class SweepLarge(_Workload):
    """bic_sweep over eta = a n^(-5/6), a = 1..8, on large generated data at
    tau = 0.25, where the kernel term (1 - 2 tau) G stays active.

    Every op gets a dataset of its own, generated untimed just before it, as
    a user runs one sweep per dataset."""

    name = "sweep_large"
    bank = 32  # a 25 s run uses about 6
    smoke_bank = 8
    size = (50_000, 50)
    smoke_size = (2_000, 10)
    tau = 0.25
    gamma = 2.5
    a_values = tuple(range(1, 9))

    def __init__(self, seed, smoke, workdir):
        self.n, self.p = self.smoke_size if smoke else self.size
        self.order = bank_order(self.name, seed,
                                self.smoke_bank if smoke else self.bank)

    def keys(self):
        return [str(k) for k in range(len(self.order))]

    def warmup_key(self):
        return str(self.order[0])

    def key(self, i):
        return str(self.order[1 + i]) if 1 + i < len(self.order) else None

    def grid(self):
        return [a * float(self.n) ** (-5.0 / 6.0) for a in self.a_values]

    def prepare(self, key):
        return make_dataset(int(key), self.n, self.p)

    def op(self, ds):
        try:
            return inference.bic_sweep(
                ds, model.ModelConfig(tau=self.tau),
                self.gamma, self.grid(), pilot_mode="same")
        except Exception as exc:  # noqa: BLE001 - a failed sweep is counted
            return exc

    def result(self, key, raw):
        cells = len(self.a_values)
        if isinstance(raw, Exception):
            return _raised(raw, cells)
        best, records = raw
        data = {"cells": cells, "best": _record_dict(best),
                "records": [_record_dict(r) for r in records]}
        return Result(text=json.dumps(data), data=data, attempted=cells,
                      failed=cells - len(records))

    def check(self, key, res):
        d = res.data
        errors = []
        support = sorted(j + 1 for j in _SUPPORT)
        best = sorted(j + 1 for j in d["best"]["active_set"])
        if best != support:
            errors.append(f"best active set {best} != {support}")
        if len(d["records"]) == len(self.a_values):
            etas = [r["eta"] for r in d["records"]]
            if etas != self.grid():
                errors.append("record etas do not follow the grid")
        return errors


class CliCsv(_Workload):
    """A fixed cycle of four seel commands, run in-process by cli.main on one
    CSV written in set-up, with stdout captured.  The warm-up op reads
    another CSV of the bank."""

    name = "cli_csv"
    bank = 8
    size = (5_000, 20)
    smoke_size = (500, 8)
    commands = ("fit_a1", "fit_a2", "select", "sweep")

    def __init__(self, seed, smoke, workdir):
        self.n, self.p = self.smoke_size if smoke else self.size
        self.workdir = Path(workdir)
        self.out_dir = self.workdir / "sweep_out"
        self.csv, self.warmup_csv = bank_order(self.name, seed, self.bank)[:2]
        self._written = set()
        self._csv_path(self.csv)

    def keys(self):
        return [f"{k}/{c}" for k in range(self.bank) for c in self.commands]

    def warmup_key(self):
        return f"{self.warmup_csv}/{self.commands[0]}"

    def key(self, i):
        return f"{self.csv}/{self.commands[i % len(self.commands)]}"

    def _csv_path(self, bank_seed):
        path = self.workdir / f"data_{bank_seed}.csv"
        if bank_seed not in self._written:
            self.workdir.mkdir(parents=True, exist_ok=True)
            cli.write_dataset(path, make_dataset(bank_seed, self.n, self.p))
            self._written.add(bank_seed)
        return path

    def argv(self, key):
        bank_seed, command = key.split("/")
        data = str(self._csv_path(int(bank_seed)))
        beta0 = ",".join(repr(float(v)) for v in true_beta(self.p))
        return {
            "fit_a1": ["fit", data, "--algorithm", "a1", "--tau", "auto",
                       "--test-beta", beta0],
            "fit_a2": ["fit", data, "--algorithm", "a2", "--tau", "0.25"],
            "select": ["select", data, "--tau", "auto", "--pilot", "split"],
            "sweep": ["sweep", data, "--tau", "auto",
                      "--a-values", "1,2,3,4,5,6,7,8",
                      "--out", str(self.out_dir)],
        }[command]

    def prepare(self, key):
        return self.argv(key)

    def op(self, argv):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - a crashed command is counted
            return exc
        return code, out.getvalue(), err.getvalue()

    def result(self, key, raw):
        if isinstance(raw, Exception):
            return _raised(raw, 1)
        code, stdout, stderr = raw
        if code != 0:
            return Result(text=json.dumps({"exit": code, "stdout": stdout}),
                          data=None, attempted=1, failed=1,
                          error=f"exit code {code}: {stderr.strip()}")
        data = {"exit": code, "report": json.loads(stdout)}
        files = {}
        if key.endswith("/sweep"):
            files = {name: (self.out_dir / name).read_text("utf-8")
                     for name in ("sweep_report.json", "sweep_records.csv")}
            data["report_file_matches"] = files["sweep_report.json"] == stdout
            data["csv_rows"] = len(files["sweep_records.csv"].splitlines()) - 1
        text = json.dumps({"exit": code, "stdout": stdout, **files})
        return Result(text=text, data=data, attempted=1, failed=0)

    def check(self, key, res):
        d = res.data
        errors = []
        report = d["report"]
        if "schema_version" not in report:
            errors.append("report has no schema_version")
        if report.get("command") == "sweep":
            scale = float(report["n"]) ** (-5.0 / 6.0)
            for rec in report["records"]:
                if not math.isclose(rec["eta"], rec["a"] * scale, rel_tol=1e-12):
                    errors.append(f"sweep record a={rec['a']} has eta={rec['eta']}"
                                  f" != a*n^(-5/6) = {rec['a'] * scale}")
            if not d["report_file_matches"]:
                errors.append("sweep_report.json differs from stdout")
            if d["csv_rows"] != len(report["records"]):
                errors.append("sweep_records.csv row count != records")
        return errors


WORKLOADS = {w.name: w for w in (McDesk, SweepLarge, CliCsv)}


def make_workload(name, seed, smoke, workdir):
    return WORKLOADS[name](seed, smoke, workdir)
