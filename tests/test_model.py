import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (
    dense_g,
    expectile_loss,
    g_raw,
    g_smooth,
    g_smooth_hessian_slice,
    g_smooth_jacobian,
    mean_jacobian,
    psi_h,
)
from seel.estimators import fit_a2
from seel.kernels import Kernel
from seel.model import (Dataset, ModelConfig, PenaltyConfig, WeightedGram,
                        evaluate, g_matrix, moments)


def make_ds(X, y, delta=None):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    if delta is None:
        delta = np.ones(len(y), dtype=np.uint8)
    return Dataset(X, y, np.asarray(delta))


def random_instance(rng, p=3):
    x = rng.uniform(-2, 2, size=p)
    y = rng.uniform(-3, 3)
    beta = rng.uniform(-1.5, 1.5, size=p)
    tau = rng.uniform(0.1, 0.9)
    h = rng.uniform(0.05, 0.8)
    return x, y, beta, tau, h


# ---------------------------------------------------------------------------
# Dataset

def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.ones((2, 1)), np.array([1.0, np.nan]), np.array([1, 1]))
    with pytest.raises(ValueError):
        Dataset(np.ones((2, 1)), np.array([1.0, 2.0]), np.array([1, 2]))
    with pytest.raises(ValueError):
        Dataset(np.array([[np.inf], [1.0]]), np.array([1.0, 2.0]), np.array([1, 1]))
    ds = Dataset(np.ones((2, 1)), np.array([1.0, np.nan]), np.array([1, 0]))
    assert ds.n == 2 and ds.p == 1 and ds.n_complete == 1
    Xo, yo = ds.complete_cases()
    assert Xo.tolist() == [[1.0]] and yo.tolist() == [1.0]


@pytest.mark.parametrize("flag", [0.5, 0.9, 1.5, 257, -1, np.nan, np.inf])
def test_dataset_rejects_non_binary_delta(flag):
    # checked before the cast to uint8, which would turn 0.5 and 0.9 into 0
    # (missing), 1.5 and 257 into 1 (observed) and NaN into 0 with a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="delta entries must be 0 or 1"):
            Dataset(np.ones((3, 1)), [1.0, 2.0, 3.0], [flag, 1, 1])


@pytest.mark.parametrize("delta", [[0, 1, 1], [0.0, 1.0, 1.0],
                                   [False, True, True],
                                   np.array([0, 1, 1], dtype=np.uint8)])
def test_dataset_accepts_zero_one_and_bool_delta(delta):
    ds = Dataset(np.arange(3.0)[:, None], [np.nan, 2.0, 3.0], delta)
    assert ds.delta.dtype == np.uint8 and ds.delta.tolist() == [0, 1, 1]
    assert ds.yo.tolist() == [2.0, 3.0]


def test_dataset_complete_cases_are_computed_once_read_only():
    X = np.arange(8.0).reshape(4, 2)
    y = np.array([1.5, np.nan, -2.0, np.inf])
    ds = Dataset(X, y, np.array([1, 0, 1, 0]))
    Xo, yo = ds.complete_cases()
    assert Xo is ds.complete_cases()[0] and yo is ds.complete_cases()[1]
    assert Xo.flags.c_contiguous and yo.flags.c_contiguous
    assert Xo.tobytes() == X[[0, 2]].tobytes()
    assert yo.tobytes() == np.array([1.5, -2.0]).tobytes()
    for a in (Xo, yo, ds.X, ds.y, ds.delta):
        with pytest.raises(ValueError):
            a[0] = 0.0
    # with every response observed the design is not copied again
    full = Dataset(X, np.ones(4), np.ones(4))
    assert full.complete_cases()[0] is full.X


def test_editing_the_callers_arrays_changes_no_fit():
    rng = np.random.default_rng(11)
    n, p = 60, 3
    X = rng.normal(size=(n, p))
    delta = (rng.uniform(size=n) > 0.25).astype(np.uint8)
    y = np.where(delta == 1, X @ np.array([1.0, 0.0, -1.0])
                 + rng.normal(size=n), np.nan)
    cfg = ModelConfig(tau=0.3)
    ref = Dataset(X.copy(), y.copy(), delta.copy())
    expected = [fit_a2(ref, cfg).beta, fit_a2(ref, cfg).beta]
    ds = Dataset(X, y, delta)
    first = fit_a2(ds, cfg).beta
    # the caller reuses its buffers after the first fit
    X *= 3.0
    y[:] = 1.0
    delta[:] = 1
    second = fit_a2(ds, cfg).beta
    assert ds.X.tobytes() == ref.X.tobytes()
    assert ds.y.tobytes() == ref.y.tobytes()
    assert ds.delta.tobytes() == ref.delta.tobytes()
    assert first.tobytes() == expected[0].tobytes()
    assert second.tobytes() == expected[1].tobytes()


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 12), st.integers(1, 4),
       st.sampled_from(["none observed", "all observed", "random", "one observed"]))
def test_design_is_stored_once_and_assembled_bit_for_bit(data, n, p, pattern):
    finite = st.floats(allow_nan=False, allow_infinity=False)
    X = data.draw(arrays(np.float64, (n, p), elements=finite))
    flags = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    delta = {"none observed": np.zeros(n), "all observed": np.ones(n),
             "random": np.array(flags),
             "one observed": np.eye(n)[flags.index(1) if 1 in flags else 0]
             }[pattern].astype(np.uint8)
    ds = Dataset(X, np.where(delta == 1, 1.0, np.nan), delta)
    assert ds.n == n and ds.p == p and ds.n_complete == int(delta.sum())
    first, second = ds.X, ds.X
    assert first.tobytes() == X.tobytes() and second.tobytes() == X.tobytes()
    assert not first.flags.writeable and not second.flags.writeable
    if ds.n_complete == n:
        # nothing missing: X is the stored design itself
        assert first is ds.Xo and second is ds.Xo
    else:
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, ds.Xo)
    assert ds.Xo.tobytes() == X[delta == 1].tobytes()
    assert ds.Xo.flags.c_contiguous and not ds.Xo.flags.writeable
    X[...] = 7.0
    assert ds.X.tobytes() == first.tobytes()


def test_dataset_attributes_cannot_be_assigned():
    ds = Dataset(np.ones((3, 2)), np.array([1.0, np.nan, 2.0]), np.array([1, 0, 1]))
    for name in ("X", "Xo", "y", "gram", "n"):
        with pytest.raises(AttributeError):
            setattr(ds, name, None)
        with pytest.raises(AttributeError):
            delattr(ds, name)


def test_dataset_stores_one_design():
    # numpy buffers beyond the caller's arrays: the dataset keeps one n x p
    # design plus O(n) vectors, and building it needs at most that plus the
    # n x p byte finiteness mask at once
    n, p = 20_000, 50
    rng = np.random.default_rng(5)
    X = rng.normal(size=(n, p))
    delta = (rng.uniform(size=n) > 0.2).astype(np.uint8)
    y = np.where(delta == 1, X[:, 0], np.nan)
    numpy_only = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    tracemalloc.start()
    try:
        ds = Dataset(X, y, delta)
        _, peak = tracemalloc.get_traced_memory()
        held = tracemalloc.take_snapshot().filter_traces(numpy_only).traces
    finally:
        tracemalloc.stop()
    assert 0 < n - ds.n_complete < n
    assert sum(t.size for t in held) < 1.1 * n * p * 8 + 64 * n
    assert peak <= n * p * 8 + n * p + 64 * n


def test_g_matrix_has_the_rows_of_the_complete_case_dataset():
    # rows with a missing response have g_i = 0 and are left out; at the
    # same h the rows kept are those of the complete-case dataset
    rng = np.random.default_rng(12)
    n, p = 50, 4
    X = rng.normal(size=(n, p))
    delta = (rng.uniform(size=n) > 0.3).astype(np.uint8)
    y = np.where(delta == 1, X.sum(axis=1) + rng.normal(size=n), np.nan)
    ds = Dataset(X, y, delta)
    assert 0 < ds.n_complete < n
    complete = Dataset(X[delta == 1], y[delta == 1], np.ones(ds.n_complete))
    cfg = ModelConfig(tau=0.3, h=0.4)
    beta = rng.normal(size=p)
    G = dense_g(ds, cfg, beta)
    assert G.shape == (ds.n_complete, p)
    assert G.tobytes() == dense_g(complete, cfg, beta).tobytes()


def test_g_matrix_returns_the_shared_factors():
    # G = a[:, None] * Xo is never formed: g_matrix hands out the observed
    # design and the evaluation's a themselves, read-only, with no copy
    rng = np.random.default_rng(13)
    n, p = 40, 3
    X = rng.normal(size=(n, p))
    delta = (rng.uniform(size=n) > 0.3).astype(np.uint8)
    y = np.where(delta == 1, X.sum(axis=1) + rng.normal(size=n), np.nan)
    ds = Dataset(X, y, delta)
    cfg = ModelConfig(tau=0.3, h=0.4)
    beta = rng.normal(size=p)
    Xo, a = g_matrix(ds, cfg, beta)
    assert Xo is ds.Xo and a is evaluate(ds, cfg, beta).a
    assert not (Xo.flags.writeable or a.flags.writeable)


def test_dataset_column_selection():
    ds = make_ds([[1.0, 2.0, 3.0]], [4.0])
    sub = ds.select_columns([0, 2])
    assert sub.p == 2
    assert np.allclose(sub.X, [[1.0, 3.0]])


def _same_dataset(got, ref):
    for name in ("X", "Xo", "yo", "y", "delta"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert got.n_complete == ref.n_complete
    # the layout decides how BLAS sums, so it must match too
    assert (got.Xo.flags.c_contiguous, got.Xo.flags.f_contiguous) \
        == (ref.Xo.flags.c_contiguous, ref.Xo.flags.f_contiguous)
    assert not got.Xo.flags.writeable and not got.yo.flags.writeable


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_derived_datasets_equal_those_built_from_their_rows(data):
    # select_columns and head cut from the parent's stored rows; they must
    # give the very arrays Dataset(...) builds from the parent's X
    n = data.draw(st.integers(1, 12), label="n")
    p = data.draw(st.integers(1, 5), label="p")
    finite = st.floats(-1e3, 1e3, allow_nan=False)
    X = data.draw(arrays(float, (n, p), elements=finite), label="X")
    X = np.asfortranarray(X) if data.draw(st.booleans(), label="F") else X
    delta = data.draw(arrays(np.uint8, n, elements=st.integers(0, 1)
                             if data.draw(st.booleans(), label="missing")
                             else st.just(1)), label="delta")
    y = np.where(delta == 1, data.draw(arrays(float, n, elements=finite),
                                       label="y"), np.nan)
    ds = Dataset(X, y, delta)
    for _ in range(2):  # a derived dataset derives in turn
        idx = data.draw(st.lists(st.integers(0, ds.p - 1), min_size=1,
                                 max_size=ds.p + 1), label="idx")
        half = data.draw(st.integers(1, ds.n + 2), label="half")
        X = ds.X
        sub = ds.select_columns(idx)
        _same_dataset(sub, Dataset(X[:, idx], ds.y, ds.delta))
        head = ds.head(half)
        _same_dataset(head, Dataset(X[:half], ds.y[:half], ds.delta[:half]))
        ds = data.draw(st.sampled_from([sub, head]), label="next")


def test_derived_datasets_skip_the_constructor(monkeypatch):
    ds = Dataset(np.arange(12.0).reshape(4, 3), [1.0, np.nan, 2.0, 3.0],
                 [1, 0, 1, 1])
    calls = []
    init = Dataset.__init__

    def counted(self, *args):
        calls.append(1)
        init(self, *args)

    monkeypatch.setattr(Dataset, "__init__", counted)
    sub, head = ds.select_columns([2, 0]), ds.head(2)
    assert calls == []
    assert sub.X.tolist() == [[2.0, 0.0], [5.0, 3.0], [8.0, 6.0],
                              [11.0, 9.0]]
    assert head.Xo.tolist() == [[0.0, 1.0, 2.0]] and head.n == 2
    assert sub.gram is not ds.gram and sub.terms is not ds.terms
    for empty in (lambda: ds.select_columns([]), lambda: ds.head(0)):
        with pytest.raises(ValueError):
            empty()


def test_model_config_defaults_and_validation():
    cfg = ModelConfig(tau=0.3)
    assert cfg.bandwidth(16) == pytest.approx(16 ** -0.25)
    assert ModelConfig(tau=0.3, h=0.2).bandwidth(16) == 0.2
    with pytest.raises(ValueError):
        ModelConfig(tau=1.2)
    with pytest.raises(ValueError):
        ModelConfig(tau=0.5, h=-1.0)


def test_model_config_takes_a_kernel_by_name():
    assert ModelConfig(kernel="Quartic").kernel == Kernel("quartic")
    kernel = Kernel("triweight")
    assert ModelConfig(kernel=kernel).kernel is kernel
    with pytest.raises(ValueError, match="unknown kernel"):
        ModelConfig(kernel="gaussian")


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("field, value", [
    ("tau", NAN), ("h", NAN), ("h", INF), ("h", 0.0), ("nu", NAN),
    ("nu", INF), ("nu", 0.0), ("eps_zero", NAN), ("eps_zero", INF),
    ("max_iter", 0), ("max_iter", -1),
])
def test_model_config_rejects_nonfinite_and_nonpositive(field, value):
    kwargs = {"tau": 0.3, field: value}
    with pytest.raises(ValueError):
        ModelConfig(**kwargs)


@pytest.mark.parametrize("field, value", [
    ("eta", NAN), ("eta", INF), ("eta", -1.0), ("gamma", NAN),
    ("gamma", INF), ("gamma", 0.0),
])
def test_penalty_config_rejects_nonfinite_and_out_of_range(field, value):
    kwargs = {"eta": 0.1, field: value}
    with pytest.raises(ValueError):
        PenaltyConfig(**kwargs)


def test_configs_accept_the_edges_of_their_ranges():
    assert ModelConfig(tau=0.3, max_iter=1).max_iter == 1
    assert PenaltyConfig(eta=0.0).eta == 0.0


# ---------------------------------------------------------------------------
# expectile loss and psi

def test_expectile_loss_values():
    assert expectile_loss(0.5, 2.0) == pytest.approx(2.0)
    assert expectile_loss(0.123, 0.0) == 0.0
    assert expectile_loss(0.75, -2.0) == pytest.approx(1.0)


def test_psi_h_values():
    cfg = ModelConfig(tau=0.5, h=0.3)
    assert psi_h(cfg, np.array([1.0]), 5.0, np.array([2.0])) == pytest.approx(0.5)
    cfg = ModelConfig(tau=0.7, h=0.3)
    # residual 0: G(0) = 1/2
    assert psi_h(cfg, np.array([2.0]), 4.0, np.array([2.0])) == pytest.approx(0.5)
    # residual -2h: smoother saturated at 1
    assert psi_h(cfg, np.array([1.0]), -2 * 0.3, np.array([0.0])) \
        == pytest.approx(0.7 + (1 - 1.4) * 1.0)


def test_psi_h_bounds():
    rng = np.random.default_rng(0)
    cfg = ModelConfig(tau=0.8, h=0.25)
    for _ in range(50):
        x, y, beta, _, _ = random_instance(rng)
        v = psi_h(cfg, x, y, beta)
        assert min(0.8, 0.2) - 1e-12 <= v <= max(0.8, 0.2) + 1e-12


# ---------------------------------------------------------------------------
# estimating functions

def test_g_raw_cases():
    ds = make_ds([[2.0]], [1.0])
    assert np.allclose(g_raw(ds, 0, 0.25, np.zeros(1)), [0.5])
    ds0 = make_ds([[2.0]], [np.nan], [0])
    assert np.allclose(g_raw(ds0, 0, 0.25, np.zeros(1)), [0.0])
    ds_zero = make_ds([[2.0]], [0.0])
    assert np.allclose(g_raw(ds_zero, 0, 0.25, np.zeros(1)), [0.0])


def test_g_smooth_missing_and_zero_residual():
    cfg = ModelConfig(tau=0.3, h=0.2)
    ds0 = make_ds([[2.0]], [np.nan], [0])
    assert np.allclose(g_smooth(ds0, 0, cfg, np.zeros(1)), [0.0])
    ds_zero = make_ds([[2.0]], [0.0])
    assert np.allclose(g_smooth(ds_zero, 0, cfg, np.zeros(1)), [0.0])


def test_g_smooth_saturation_equals_raw():
    cfg = ModelConfig(tau=0.3, h=0.2)
    ds = make_ds([[1.5]], [3 * 0.2])
    assert np.allclose(g_smooth(ds, 0, cfg, np.zeros(1)),
                       g_raw(ds, 0, 0.3, np.zeros(1)))
    rng = np.random.default_rng(1)
    for _ in range(100):
        x, y, beta, tau, h = random_instance(rng)
        cfg = ModelConfig(tau=tau, h=h)
        r = y - x @ beta
        if abs(r) < h:
            continue
        ds = make_ds([x], [y])
        assert np.allclose(g_smooth(ds, 0, cfg, beta), g_raw(ds, 0, tau, beta),
                           atol=1e-14)


def test_jacobian_at_half_tau():
    ds = make_ds([[1.0, 2.0]], [0.7])
    cfg = ModelConfig(tau=0.5, h=0.3)
    x = ds.X[0]
    expected = -0.5 * np.outer(x, x)
    assert np.allclose(g_smooth_jacobian(ds, 0, cfg, np.zeros(2)), expected)
    ds0 = make_ds([[1.0, 2.0]], [np.nan], [0])
    assert np.allclose(g_smooth_jacobian(ds0, 0, cfg, np.zeros(2)), 0.0)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 120:
        x, y, beta, tau, h = random_instance(rng)
        cfg = ModelConfig(tau=tau, h=h)
        ds = make_ds([x], [y])
        J = g_smooth_jacobian(ds, 0, cfg, beta)
        step = 1e-6
        fd = np.empty_like(J)
        for k in range(len(beta)):
            e = np.zeros_like(beta)
            e[k] = step
            fd[:, k] = (g_smooth(ds, 0, cfg, beta + e)
                        - g_smooth(ds, 0, cfg, beta - e)) / (2 * step)
        assert np.max(np.abs(J - fd)) < 1e-5
        checked += 1


def test_hessian_slice_special_cases():
    ds = make_ds([[1.0, -1.0]], [0.4])
    cfg = ModelConfig(tau=0.5, h=0.3)
    assert np.allclose(g_smooth_hessian_slice(ds, 0, 0, cfg, np.zeros(2)), 0.0)
    cfg = ModelConfig(tau=0.3, h=0.1)
    ds_far = make_ds([[1.0, -1.0]], [5.0])
    assert np.allclose(g_smooth_hessian_slice(ds_far, 0, 1, cfg, np.zeros(2)), 0.0)


def test_hessian_slice_matches_finite_differences():
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 120:
        x, y, beta, tau, h = random_instance(rng)
        cfg = ModelConfig(tau=tau, h=h)
        ds = make_ds([x], [y])
        j = int(rng.integers(0, len(beta)))
        H = g_smooth_hessian_slice(ds, 0, j, cfg, beta)
        step = 1e-5
        fd = np.empty_like(H)
        for k in range(len(beta)):
            e = np.zeros_like(beta)
            e[k] = step
            fd[:, k] = (g_smooth_jacobian(ds, 0, cfg, beta + e)[j]
                        - g_smooth_jacobian(ds, 0, cfg, beta - e)[j]) / (2 * step)
        assert np.max(np.abs(H - fd)) < 1e-4
        checked += 1


# ---------------------------------------------------------------------------
# sample moments

def test_moments_all_missing():
    ds = Dataset(np.ones((3, 2)), np.full(3, np.nan), np.zeros(3))
    cfg = ModelConfig(tau=0.4, h=0.2)
    gbar, S = moments(ds, cfg, np.zeros(2))
    J = mean_jacobian(ds, cfg, np.zeros(2))
    assert not gbar.any() and not S.any() and not J.any()


def test_moments_single_row():
    cfg = ModelConfig(tau=0.3, h=0.2)
    ds = make_ds([[1.2, -0.5]], [0.8])
    gbar, _ = moments(ds, cfg, np.zeros(2))
    assert np.allclose(gbar, g_smooth(ds, 0, cfg, np.zeros(2)))


def test_moments_match_oracle_row_means():
    # gbar, S and J average over the full n at the default bandwidth; rows
    # with a missing response contribute zero to each
    rng = np.random.default_rng(7)
    n, p = 40, 3
    X = rng.uniform(-2, 2, size=(n, p))
    beta = rng.uniform(-1.5, 1.5, size=p)
    delta = (rng.uniform(size=n) > 0.3).astype(np.uint8)
    y = np.where(delta == 1, X @ beta + rng.uniform(-1.0, 1.0, size=n), np.nan)
    ds = Dataset(X, y, delta)
    cfg = ModelConfig(tau=0.3)
    h = cfg.bandwidth(n)
    inside = np.abs(ds.yo - ds.Xo @ beta) < h
    assert 0 < ds.n_complete < n and 0 < np.sum(inside) < ds.n_complete
    gbar, S = moments(ds, cfg, beta)
    J = mean_jacobian(ds, cfg, beta)
    g = np.array([g_smooth(ds, i, cfg, beta) for i in range(n)])
    jac = np.array([g_smooth_jacobian(ds, i, cfg, beta) for i in range(n)])
    assert np.allclose(gbar, g.mean(axis=0), rtol=1e-12, atol=1e-14)
    assert np.allclose(S, np.einsum("ij,ik->jk", g, g) / n, rtol=1e-12, atol=1e-14)
    assert np.allclose(J, jac.mean(axis=0), rtol=1e-12, atol=1e-14)


def test_moments_hand_example():
    # ghat values {-1, 2}: x = 1, tau = 1/2, y = {-2, 4}, beta = 0
    ds = make_ds([[1.0], [1.0]], [-2.0, 4.0])
    cfg = ModelConfig(tau=0.5, h=0.1)
    gbar, S = moments(ds, cfg, np.zeros(1))
    assert gbar[0] == pytest.approx(0.5)
    assert S[0, 0] == pytest.approx(2.5)


def test_moments_scale_equivariance():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((40, 3))
    y = rng.standard_normal(40)
    beta = rng.standard_normal(3)
    cfg = ModelConfig(tau=0.35, h=0.4)
    c = 2.5
    g1, S1 = moments(Dataset(X, y, np.ones(40)), cfg, beta)
    # residuals must match: scale X by c, coefficients by 1/c
    g2, S2 = moments(Dataset(c * X, y, np.ones(40)), cfg, beta / c)
    assert np.allclose(g2, c * g1, rtol=1e-12)
    assert np.allclose(S2, c * c * S1, rtol=1e-12)


def test_moments_jacobian_symmetry():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((30, 4))
    y = rng.standard_normal(30)
    ds = Dataset(X, y, np.ones(30))
    cfg = ModelConfig(tau=0.6, h=0.3)
    _, S = moments(ds, cfg, np.zeros(4))
    J = mean_jacobian(ds, cfg, np.zeros(4))
    assert np.allclose(S, S.T)
    assert np.allclose(J, J.T)
    assert np.all(np.linalg.eigvalsh(S) >= -1e-12)


def test_mean_jacobian_is_the_newton_matrix_at_lambda_zero():
    # the fits' Newton matrix at lambda = 0 is Xo' diag(-c) Xo / n, formed
    # through a WeightedGram; negating every weight negates each rounded
    # product and sum, so it is the oracle's mean Jacobian negated, exactly
    rng = np.random.default_rng(8)
    n, p = 60, 3
    X = rng.uniform(-2, 2, size=(n, p))
    beta = rng.uniform(-1, 1, size=p)
    delta = (rng.uniform(size=n) > 0.25).astype(np.uint8)
    y = np.where(delta == 1, X @ beta + rng.standard_normal(n), np.nan)
    ds = Dataset(X, y, delta)
    cfg = ModelConfig(tau=0.3)
    M = WeightedGram(ds.Xo)(evaluate(ds, cfg, beta).c * -1.0) / ds.n
    np.testing.assert_array_equal(M, -mean_jacobian(ds, cfg, beta))
