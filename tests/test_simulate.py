import numpy as np
import pytest

from oracles import design_d1_one_draw, design_d2_loop
from seel import simulate
from seel.numkit import RngStream
from seel.simulate import (
    SCHEMA_VERSION,
    SimConfig,
    _replicate,
    gen_design,
    gen_errors,
    gen_missing,
    missing_probability,
    preset_config,
    run_monte_carlo,
)


def base_config(**overrides):
    kw = dict(n=120, p=5, beta0=[0.0, 0.0, 1.0, 0.0, 2.0], design="d1",
              errors="shifted_exp", missing="complete", replications=5,
              algorithms=("a2", "l2"), seed=42)
    kw.update(overrides)
    return SimConfig(**kw)


# ---------------------------------------------------------------------------
# generators

def test_design_d1_moments():
    X = gen_design("d1", 10 ** 5, 3, RngStream(1, 0))
    assert np.all(np.abs(X.mean(axis=0)) <= 0.02)
    assert np.all(np.abs(X.var(axis=0) - 1.0) <= 0.05)


def test_design_d2_column_moments():
    n, p = 10 ** 5, 10
    X = gen_design("d2", n, p, RngStream(2, 0))
    # column 5 (1-based): chi2(1) + 25/n
    assert X[:, 4].mean() == pytest.approx(1.0 + 25.0 / n, abs=0.03)
    # column 3 is the standard normal filler
    assert X[:, 2].mean() == pytest.approx(0.0, abs=0.02)
    assert X[:, 2].var() == pytest.approx(1.0, abs=0.05)
    # chi-square columns are nonnegative up to the shift
    assert X[:, 0].min() >= 1.0 / n - 1e-12


@pytest.mark.parametrize("batch", [None, 600, 100])
@pytest.mark.parametrize("p", [1, 2, 3, 10])
def test_design_d2_equals_the_column_loop(p, batch, monkeypatch):
    # batched draws give the same bytes as one draw per column, and leave
    # the stream at the same counter: all columns at once (default batch),
    # two columns per batch (600) and one (100, fewer than n)
    if batch is not None:
        monkeypatch.setattr(simulate, "_DRAW_BATCH", batch)
    n = 257
    batched, looped = RngStream(9, 4), RngStream(9, 4)
    X = gen_design("d2", n, p, batched)
    expected = design_d2_loop(n, p, looped)
    assert X.flags.c_contiguous
    assert X.shape == (n, p) and X.tobytes() == expected.tobytes()
    assert batched._counter == looped._counter == n * p
    assert batched.uniforms(3).tobytes() == looped.uniforms(3).tobytes()


@pytest.mark.parametrize("n, rows", [(257, None), (256, 64), (257, 64), (7, 0)])
@pytest.mark.parametrize("p", [1, 5, 50])
def test_design_d1_equals_the_one_shot_draw(p, n, rows, monkeypatch):
    # one batch (the default), four full batches of 64 rows, four and a
    # one-row remainder, and a batch of fewer numbers than one row (one row
    # per draw); every draw stays within the batch or one row
    if rows is not None:
        monkeypatch.setattr(simulate, "_DRAW_BATCH", max(rows * p, p - 1))
    sizes = []
    normals = RngStream.normals

    def counted(self, size):
        sizes.append(size)
        return normals(self, size)

    batched, one = RngStream(9, 4), RngStream(9, 4)
    monkeypatch.setattr(RngStream, "normals", counted)
    X = gen_design("d1", n, p, batched)
    monkeypatch.setattr(RngStream, "normals", normals)
    expected = design_d1_one_draw(n, p, one)
    assert X.flags.c_contiguous
    assert X.shape == (n, p) and X.tobytes() == expected.tobytes()
    assert batched._counter == one._counter == n * p
    assert batched.uniforms(3).tobytes() == one.uniforms(3).tobytes()
    assert sum(sizes) == n * p
    assert max(sizes) <= max(simulate._DRAW_BATCH, p)
    assert len(sizes) == -(-n // max(1, simulate._DRAW_BATCH // p))


def test_errors_normal_and_shifted_exp():
    e = gen_errors("normal", 10 ** 5, RngStream(3, 0))
    assert abs(e.mean()) <= 0.02
    s = gen_errors("shifted_exp", 10 ** 5, RngStream(4, 0))
    assert abs(s.mean()) <= 0.03
    assert s.min() >= -1.5
    skew = np.mean(((s - s.mean()) / s.std()) ** 3)
    assert skew == pytest.approx(2.0, abs=0.15)


def test_shifted_exp_errors_memory_stays_near_their_output():
    # the shift is applied in place to the draw, which holds only two
    # block buffers besides its output
    import tracemalloc

    tracemalloc.start()
    try:
        e = gen_errors("shifted_exp", 10 ** 6, RngStream(4, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= e.nbytes + 256 * 1024


def test_missing_complete_and_constant():
    X = np.zeros((10 ** 5, 2))
    assert np.all(gen_missing("complete", X, RngStream(5, 0)) == 1)
    d = gen_missing("constant", X, RngStream(6, 0), pi=0.8)
    assert d.mean() == pytest.approx(0.8, abs=0.005)


def test_missing_covariate_formula():
    probs = missing_probability(np.array([[1.0], [3.0], [1.5]]))
    assert probs[0] == pytest.approx(0.8)    # |x-1| = 0
    assert probs[1] == pytest.approx(0.95)   # |x-1| = 2
    assert probs[2] == pytest.approx(0.9)    # |x-1| = 0.5
    X = gen_design("d2", 2000, 4, RngStream(7, 0))
    p = missing_probability(X)
    assert np.all((p >= 0.8) & (p <= 1.0))
    d = gen_missing("covariate", X, RngStream(8, 0))
    assert 0.75 <= d.mean() <= 1.0


# ---------------------------------------------------------------------------
# configuration

def test_config_validation():
    with pytest.raises(ValueError):
        base_config(p=4)  # beta0 length mismatch
    with pytest.raises(ValueError):
        base_config(design="d9")
    with pytest.raises(ValueError):
        base_config(algorithms=("a2", "zz"))
    with pytest.raises(ValueError):
        base_config(missing="constant", pi=0.0)


def test_config_defaults():
    sc = base_config()
    assert sc.resolved_eta() == pytest.approx(120.0 ** (-5.0 / 6.0))
    assert base_config(errors="normal").resolved_tau() == 0.5
    tau = sc.resolved_tau()
    # mean-zero shifted exponential has zero expectile at one half
    assert tau == pytest.approx(0.5, abs=0.002)
    # calibration draw is deterministic in the seed
    assert tau == base_config().resolved_tau()


def test_preset_configs():
    t1 = preset_config("table1")
    assert t1.p == 5 and t1.beta0[2] == 1.0 and t1.beta0[4] == 2.0
    cap = preset_config("table1-caption")
    assert cap.beta0[2] == 2.0 and cap.beta0[4] == 1.0
    t2 = preset_config("table2")
    assert np.all(t2.beta0 != 0.0)
    sel = preset_config("fig-selection", n=400, replications=2)
    assert sel.design == "d2" and sel.n == 400
    assert set(np.flatnonzero(sel.beta0).tolist()) == {2, 4, 6}
    # overrides and edits of one config do not leak into the preset table
    assert preset_config("fig-selection").n == 2000
    t1.beta0[2] = 9.0
    assert preset_config("table1").beta0[2] == 1.0
    with pytest.raises(ValueError):
        preset_config("table9")


# ---------------------------------------------------------------------------
# the harness

def test_report_is_pure_function_of_config():
    r1 = run_monte_carlo(base_config(replications=3))
    r2 = run_monte_carlo(base_config(replications=3))
    assert r1.to_json() == r2.to_json()


def test_report_changes_with_seed():
    r1 = run_monte_carlo(base_config(replications=3, seed=1))
    r2 = run_monte_carlo(base_config(replications=3, seed=2))
    assert r1.to_json() != r2.to_json()


def test_worker_count_does_not_change_report():
    sc = base_config(replications=4)
    serial = run_monte_carlo(sc, workers=1)
    parallel = run_monte_carlo(sc, workers=2)
    assert serial.to_json() == parallel.to_json()


def test_all_nonzero_truth_gives_undefined_selection_rate():
    sc = base_config(beta0=[1.0, 1.0, 2.0, 1.0, 1.0], replications=3)
    report = run_monte_carlo(sc)
    assert report.zero_selection["l2"] is None
    header, row = report.csv_record()
    assert row[header.index("zero_selection_l2")] == "NaN"


def test_report_fields_complete():
    report = run_monte_carlo(base_config(replications=3,
                                         algorithms=("a1", "a2", "l1", "l2")))
    for alg in ("a1", "a2", "l1", "l2"):
        assert alg in report.mean_norm
        assert 0.0 <= report.coverage[alg] <= 1.0
    assert 0.0 <= report.cp <= 1.0
    assert 0.0 <= report.cp_cr0 <= 1.0
    assert report.replications_used == 3
    header, row = report.csv_record()
    assert len(header) == len(row) == 12 + 4 * 2 + 2 * 2
    assert header[-4:] == ["norm_l2", "coverage_l2", "zero_selection_l2",
                           "support_recovery_l2"]
    assert report.to_json_dict()["schema_version"] == SCHEMA_VERSION


def test_missing_mechanisms_run():
    for missing, pi in (("constant", 0.8), ("covariate", 0.8)):
        sc = base_config(n=200, missing=missing, pi=pi, replications=3)
        report = run_monte_carlo(sc)
        assert report.replications_used == 3


def test_cp_only_run_without_algorithms():
    sc = base_config(algorithms=(), replications=3)
    report = run_monte_carlo(sc)
    assert report.mean_norm == {}
    assert 0.0 <= report.cp <= 1.0


def test_replicate_computes_one_start_per_dataset(expectile_calls):
    # all four fits share the full dataset's expectile start; the split
    # pilot fits its own half of the rows
    sc = preset_config("table1", replications=1)
    out = _replicate(sc, sc.resolved_tau(), 0)
    assert out is not None
    assert expectile_calls == [sc.n, sc.n // 2]


def test_norms_shrink_with_sample_size():
    # information monotonicity: error norms shrink as n grows
    norms = {}
    for n in (100, 500, 1000):
        sc = base_config(n=n, replications=200, algorithms=("a2",), seed=5)
        norms[n] = run_monte_carlo(sc).mean_norm["a2"]
    assert norms[1000] < norms[500] < norms[100]
