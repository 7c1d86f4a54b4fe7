import concurrent.futures
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (dataset_alone, design_d1_rows, design_d2_loop,
                     resolved_tau_one_shot)
from seel import numkit, simulate
from seel.errors import EstimationError, NoConvergenceError
from seel.estimators import pilot_estimate
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
    # gen_design draws d1 in one normals call, whose quantile runs in
    # blocks: one block (the default), blocks of one number fewer than 64
    # rows, which split rows, with and without a remainder row, and blocks
    # of one number; the bytes equal a draw of one row at a time
    if rows is not None:
        monkeypatch.setattr(numkit, "_NORMAL_BLOCK", max(1, rows * p - 1))
    sizes = []
    quantile = numkit.normal_quantile

    def counted(u):
        sizes.append(u.size)
        return quantile(u)

    one, rowwise = RngStream(9, 4), RngStream(9, 4)
    monkeypatch.setattr(numkit, "normal_quantile", counted)
    X = gen_design("d1", n, p, one)
    monkeypatch.setattr(numkit, "normal_quantile", quantile)
    expected = design_d1_rows(n, p, rowwise)
    assert X.flags.c_contiguous
    assert X.shape == (n, p) and X.tobytes() == expected.tobytes()
    assert one._counter == rowwise._counter == n * p
    assert one.uniforms(3).tobytes() == rowwise.uniforms(3).tobytes()
    block = numkit._NORMAL_BLOCK
    assert sum(sizes) == n * p
    assert max(sizes) <= block
    assert len(sizes) == -(-n * p // block)


@pytest.mark.parametrize("mechanism", ["constant", "covariate"])
def test_missing_flags_are_uniforms_below_the_probability(mechanism):
    # both random mechanisms draw through bernoulli, with a scalar or a
    # per-row probability
    n = 300
    X = gen_design("d1", n, 3, RngStream(5, 1))
    rng, plain = RngStream(5, 2), RngStream(5, 2)
    prob = 0.8 if mechanism == "constant" else missing_probability(X)
    delta = gen_missing(mechanism, X, rng, pi=0.8)
    expected = (plain.uniforms(n) < prob).astype(np.uint8)
    assert delta.dtype == np.uint8 and delta.tobytes() == expected.tobytes()
    assert rng._counter == plain._counter == n


@settings(deadline=None, max_examples=60)
@given(design=st.sampled_from(simulate.DESIGNS),
       errors=st.sampled_from(simulate.ERROR_LAWS),
       missing=st.sampled_from(simulate.MISSING_MECHANISMS),
       p=st.integers(1, 10), extra=st.integers(1, 25),
       seed=st.integers(0, 2 ** 64 - 1), first=st.integers(0, 50),
       reps=st.integers(1, 12), per_block=st.integers(0, 5),
       workers=st.integers(1, 3))
@example(design="d2", errors="normal", missing="covariate", p=10, extra=3,
         seed=0, first=0, reps=7, per_block=3, workers=1)
@example(design="d1", errors="shifted_exp", missing="constant", p=2,
         extra=1, seed=2 ** 64 - 1, first=0, reps=5, per_block=2, workers=2)
@example(design="d1", errors="normal", missing="covariate", p=9, extra=20,
         seed=3, first=40, reps=12, per_block=5, workers=1)
def test_block_draws_equal_the_draws_of_one_replication(
        design, errors, missing, p, extra, seed, first, reps, per_block,
        workers):
    # the blocks of a run hold at most per_block replications (all of them
    # drawn alone when per_block is 0, which makes one replication more
    # than a block), and replications first, ..., first + reps - 1 are
    # drawn in them; each dataset is the bytes of its replication drawn
    # alone from its own stream
    sc = SimConfig(n=p + extra, p=p, beta0=np.linspace(-1.0, 2.0, p),
                   design=design, errors=errors, missing=missing, seed=seed,
                   replications=reps, algorithms=())
    words = simulate._draw_words(sc)
    batch = per_block * words if per_block else words - 1
    with mock.patch.object(simulate, "_DRAW_BATCH", batch):
        blocks = simulate._blocks(sc, workers)
        drawn = [ds for start, stop in blocks
                 for ds in simulate._datasets(sc, first + start, first + stop)]
    assert [start for start, _ in blocks] \
        == [0] + [stop for _, stop in blocks[:-1]]
    assert blocks[-1][1] == reps and len(blocks) >= min(workers, reps)
    assert all(stop - start == 1 or (stop - start) * words <= batch
               for start, stop in blocks)
    assert len(drawn) == reps
    for m, ds in enumerate(drawn, start=first):
        ref = dataset_alone(sc, m)
        assert ds.X.tobytes() == ref.X.tobytes()
        assert ds.y.tobytes() == ref.y.tobytes()
        assert ds.delta.tobytes() == ref.delta.tobytes()


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


@pytest.mark.parametrize("overrides, message", [
    ({"pilot_mode": "splt", "algorithms": ("l2",)}, "pilot mode"),
    ({"kernel": "gauss"}, "unknown kernel"),
    ({"alpha": 1.5}, "alpha"),
    ({"alpha": 0.0}, "alpha"),
    ({"gamma": -1.0, "algorithms": ("a2",)}, "gamma"),
    ({"eta": -1.0, "algorithms": ("a2",)}, "eta"),
    ({"tau": 1.0}, "tau"),
    ({"algorithms": ("a2", "A2")}, "repeated algorithm"),
])
def test_config_rejects_bad_values_up_front(overrides, message):
    # each is rejected when the config is built, not at a replication
    with pytest.raises(ValueError, match=message):
        base_config(**overrides)


def test_config_strips_algorithm_names():
    # padding is tolerated as in --beta0 "1, 2"; a padded repeat is a repeat
    assert base_config(algorithms=(" a2", "L2 ")).algorithms == ("a2", "l2")
    with pytest.raises(ValueError, match="repeated algorithm 'a2'"):
        base_config(algorithms=("a2", " a2"))


def test_replications_use_the_configured_pilot_mode(monkeypatch):
    modes = []

    def recording(ds, cfg, mode="same", beta0=None):
        modes.append(mode)
        return pilot_estimate(ds, cfg, mode=mode, beta0=beta0)

    monkeypatch.setattr(simulate, "pilot_estimate", recording)
    sc = base_config(pilot_mode="split", algorithms=("l2",), replications=2)
    run_monte_carlo(sc)
    assert modes == ["split", "split"]
    # a same-mode pilot is the replication's own A2 fit
    run_monte_carlo(base_config(pilot_mode="same", algorithms=("l2",),
                                replications=2))
    assert modes == ["split", "split"]


def test_config_defaults():
    sc = base_config()
    assert sc.resolved_eta() == pytest.approx(120.0 ** (-5.0 / 6.0))
    assert base_config(errors="normal").resolved_tau() == 0.5
    tau = sc.resolved_tau()
    # mean-zero shifted exponential has zero expectile at one half
    assert tau == pytest.approx(0.5, abs=0.002)
    # calibration draw is deterministic in the seed
    assert tau == base_config().resolved_tau()


@settings(deadline=None, max_examples=10)
@given(st.integers(-2 ** 63, 2 ** 64 - 1))
@example(0)
@example(-1)
@example(2 ** 64 - 1)
def test_resolved_tau_equals_the_one_shot_draw(seed):
    assert base_config(seed=seed).resolved_tau() == resolved_tau_one_shot(seed)


def test_resolved_tau_streams_in_draw_batches(monkeypatch):
    sizes = []

    def recording(law, n, rng):
        sizes.append(n)
        return gen_errors(law, n, rng)

    monkeypatch.setattr(simulate, "gen_errors", recording)
    assert base_config().resolved_tau() == resolved_tau_one_shot(42)
    # 15 full blocks and a partial one
    batch = simulate._DRAW_BATCH
    assert sizes == [batch] * 15 + [10 ** 6 - 15 * batch]
    assert 0 < sizes[-1] < batch


def test_resolved_tau_skips_the_draw(monkeypatch):
    configs = [base_config(errors="normal"), base_config(tau=0.3),
               base_config(tau=0.3, errors="normal")]

    def unreachable(*args, **kwargs):
        raise AssertionError("drew a calibration sample")

    monkeypatch.setattr(simulate, "gen_errors", unreachable)
    monkeypatch.setattr(simulate, "RngStream", unreachable)
    assert [sc.resolved_tau() for sc in configs] == [0.5, 0.3, 0.3]


_DRAW_RSS = """
import resource, sys
from oracles import resolved_tau_one_shot
from seel.simulate import SimConfig
sc = SimConfig(n=10, p=2, beta0=[1.0, 0.0], seed=7)
draw = sc.resolved_tau if sys.argv[1] == "streamed" \
    else lambda: resolved_tau_one_shot(7)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
draw()
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def test_streamed_draw_raises_peak_rss_less_than_one_shot():
    # peak RSS, as the benchmark reads it: only the written pages of the
    # streamed draw's buffers are resident (tracemalloc would count both
    # buffers at full size)
    pytest.importorskip("resource")
    tests = Path(__file__).resolve().parent
    src = Path(simulate.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(tests)])}
    growth = {}
    for mode in ("streamed", "one_shot"):
        run = subprocess.run([sys.executable, "-c", _DRAW_RSS, mode], env=env,
                             capture_output=True, text=True, check=True)
        growth[mode] = int(run.stdout)
    assert growth["streamed"] <= 0.75 * growth["one_shot"]


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


@pytest.mark.parametrize("workers, cpus, pool", [
    (5000, 64, 3),  # no more processes than replications
    (5000, 2, 2),  # nor than CPUs
    (2, 64, 2),
    (1, 64, None),  # one process runs the replications in the caller
    (4, 1, None),
    (4, None, None),  # the CPU count is unknown
])
def test_pool_size_is_capped(monkeypatch, workers, cpus, pool):
    # a pool that records its size and maps in this process, so no test
    # starts many processes
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    sc = base_config(replications=3)
    serial = run_monte_carlo(sc).to_json()
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: cpus)
    assert run_monte_carlo(sc, workers=workers).to_json() == serial
    assert sizes == ([] if pool is None else [pool])


@pytest.mark.parametrize("workers", [0, -4])
def test_fewer_than_one_worker_is_rejected(monkeypatch, workers):
    def unreachable(*args, **kwargs):
        raise AssertionError("reached")

    monkeypatch.setattr(simulate, "_replicate", unreachable)
    monkeypatch.setattr(simulate.SimConfig, "resolved_tau", unreachable)
    with pytest.raises(ValueError, match="workers must be at least 1"):
        run_monte_carlo(base_config(), workers=workers)


def failing_replications(monkeypatch, failing):
    # the A2 fit of each replication in failing raises NoConvergenceError,
    # as a diverging fit would; a serial run replicates in index order
    current = []
    replicate, fit_a2 = simulate._replicate, simulate.fit_a2

    def replicating(sc, tau, m, ds=None):
        current.append(m)
        return replicate(sc, tau, m, ds)

    def fitting(ds, cfg, beta0=None):
        if current[-1] in failing:
            raise NoConvergenceError("forced")
        return fit_a2(ds, cfg, beta0)

    monkeypatch.setattr(simulate, "_replicate", replicating)
    monkeypatch.setattr(simulate, "fit_a2", fitting)


def test_failed_replications_are_left_out_of_the_means(monkeypatch):
    sc = base_config(replications=10, algorithms=("a1", "a2", "l2"))
    tau = sc.resolved_tau()
    failing = {3}
    kept = [_replicate(sc, tau, m) for m in range(sc.replications)
            if m not in failing]
    failing_replications(monkeypatch, failing)
    report = run_monte_carlo(sc)
    assert report.replications_failed == 1
    assert report.replications_used == 9

    def mean_of(key, alg=None):
        return float(np.mean([r[key] if alg is None else r[key][alg]
                              for r in kept]))

    assert (report.cp, report.cp_cr0) == (mean_of("cp"), mean_of("cp_cr0"))
    for alg in sc.algorithms:
        assert report.mean_norm[alg] == mean_of("mean_norm", alg)
        assert report.coverage[alg] == mean_of("coverage", alg)
    assert report.zero_selection["l2"] == mean_of("zero_selection", "l2")
    assert report.support_recovery["l2"] == mean_of("support_recovery", "l2")


def test_more_than_a_tenth_failed_aborts(monkeypatch):
    failing_replications(monkeypatch, {0, 7})
    with pytest.raises(EstimationError,
                       match=r"^2/10 replications failed; aborting$"):
        run_monte_carlo(base_config(replications=10))


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
