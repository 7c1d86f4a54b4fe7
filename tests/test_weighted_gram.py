"""The weighted Gram matrix X' diag(v) X that the fits form through
seel.model.WeightedGram: equal to the full product along any sequence of
weights, the same fits as with every product computed in full, and one
reference per dataset (Dataset.gram) shared by the fits on it."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import FullGram
from seel import estimators, model
from seel.estimators import expectile_fit, fit_a1, fit_a2, fit_l1, fit_l2
from seel.inference import bic_sweep
from seel.model import Dataset, ModelConfig, PenaltyConfig, WeightedGram
from seel.numkit import RngStream
from seel.simulate import gen_design, gen_errors, gen_missing

CHANGES = ("none", "one", "half", "more", "all")


class CountingGram(WeightedGram):
    """WeightedGram that counts its calls, its block calls and its full
    products."""

    made = []

    def __init__(self, X):
        super().__init__(X)
        self.calls = 0
        self.blocks = 0
        self.full = 0
        CountingGram.made.append(self)

    def __call__(self, v, cols=None):
        self.calls += 1
        self.blocks += cols is not None
        return super().__call__(v, cols)

    def _rebuild(self, v):
        self.full += 1
        return super()._rebuild(v)


@pytest.fixture
def counting_gram(monkeypatch):
    # every WeightedGram the package makes: the one each Dataset owns and
    # the expectile fit's own
    CountingGram.made = []
    monkeypatch.setattr(model, "WeightedGram", CountingGram)
    monkeypatch.setattr(estimators, "WeightedGram", CountingGram)
    return CountingGram.made


def _changed_rows(rng, n, change):
    size = {"none": 0, "one": 1, "half": n // 2, "all": n}.get(change)
    if size is None:  # more than half
        size = int(rng.integers(n // 2 + 1, n + 1))
    return rng.choice(n, size=size, replace=False)


@settings(max_examples=40, deadline=None)
@given(half_n=st.integers(1, 30), p=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32 - 1),
       changes=st.lists(st.sampled_from(CHANGES), min_size=1, max_size=8))
def test_every_result_equals_the_full_product(half_n, p, seed, changes):
    # each vector differs from the reference, the last vector the class
    # multiplied in full, in the rows the change names; more than half
    # changed rows make that vector the new reference
    n = 2 * half_n
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    gram = CountingGram(X)
    results = []

    def call(v):
        buffer = v.copy()
        got = gram(buffer)
        results.append((v, got.copy()))
        # a caller editing its result or reusing its weight buffer must not
        # reach later results
        got[...] = np.nan
        buffer[...] = np.nan

    v_ref = rng.uniform(-2.0, 2.0, size=n)
    call(v_ref)
    full = 1
    for change in changes:
        v = v_ref.copy()
        rows = _changed_rows(rng, n, change)
        v[rows] += rng.choice((-1.0, 1.0), rows.size) * rng.uniform(0.1, 1.0, rows.size)
        call(v)
        if 2 * rows.size > n:
            v_ref, full = v, full + 1
    assert gram.full == full
    for v, got in results:
        expected = X.T @ (X * v[:, None])
        # rounding of a sum of n products, scaled by its absolute terms
        bound = np.abs(X).T @ (np.abs(X) * np.abs(v)[:, None])
        assert np.all(np.abs(got - expected) <= 1e-12 * bound)


@settings(max_examples=40, deadline=None)
@given(half_n=st.integers(1, 30), p=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32 - 1),
       changes=st.lists(st.sampled_from(CHANGES), min_size=1, max_size=8))
def test_every_block_equals_the_block_of_the_full_product(half_n, p, seed,
                                                          changes):
    # the same sequences with a random column block on each call, the
    # first included: a block is corrected from the full reference, and a
    # rebuild stores the full product, never the block
    n = 2 * half_n
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    v_ref = rng.uniform(-2.0, 2.0, size=n)
    calls = [(v_ref, v_ref)]  # (weights, the reference after the call)
    full = 1
    for change in changes:
        v = v_ref.copy()
        rows = _changed_rows(rng, n, change)
        v[rows] += rng.choice((-1.0, 1.0), rows.size) * rng.uniform(0.1, 1.0, rows.size)
        if 2 * rows.size > n:
            v_ref, full = v, full + 1
        calls.append((v, v_ref))
    gram = CountingGram(X)
    for v, ref in calls:
        cols = rng.choice(p, size=int(rng.integers(1, p + 1)), replace=False)
        block = np.ix_(cols, cols)
        got = gram(v, cols)
        expected = (X.T @ (X * v[:, None]))[block]
        bound = (np.abs(X).T @ (np.abs(X) * np.abs(v)[:, None]))[block]
        assert got.shape == (cols.size, cols.size)
        assert np.all(np.abs(got - expected) <= 1e-12 * bound)
        stored_v, stored_K = gram._ref
        np.testing.assert_array_equal(stored_v, ref)
        np.testing.assert_allclose(stored_K, X.T @ (X * ref[:, None]),
                                   rtol=1e-12, atol=1e-12)
    assert gram.blocks == len(calls)
    assert gram.full == full


def test_threads_sharing_one_gram_get_full_products():
    # two fits on one dataset share its Gram; a thread may rebuild the
    # reference while another corrects it, and every result must still be
    # one correction from a full product of its own weights
    rng = np.random.default_rng(5)
    n, p = 64, 3
    X = rng.normal(size=(n, p))
    base = rng.uniform(-2.0, 2.0, size=n)
    weights = [base]
    for size in (1, 8, 40, n):  # a few rows, more than half, every row
        v = base.copy()
        v[rng.choice(n, size=size, replace=False)] += 1.0
        weights.append(v)
    gram = WeightedGram(X)
    wrong = []

    def work(seed):
        order = np.random.default_rng(seed).integers(len(weights), size=1500)
        for k in order:
            v = weights[k]
            got = gram(v)
            expected = X.T @ (X * v[:, None])
            bound = np.abs(X).T @ (np.abs(X) * np.abs(v)[:, None])
            if not np.all(np.abs(got - expected) <= 1e-12 * bound):
                wrong.append(int(k))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,))
                   for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def _missing_d2(n=2000, p=6, seed=31):
    """Design d2, shifted-exponential errors, about 20% missing responses."""
    rng = RngStream(seed, 0)
    X = gen_design("d2", n, p, rng)
    beta0 = np.zeros(p)
    beta0[[2, 4]] = (1.0, 2.0)
    eps = gen_errors("shifted_exp", n, rng)
    delta = gen_missing("constant", X, rng, 0.8)
    return Dataset(X, np.where(delta == 1, X @ beta0 + eps, np.nan), delta)


def _fits(ds, cfg, pen):
    start = expectile_fit(ds, cfg.tau)
    return start, [fit_a2(ds, cfg, np.zeros(ds.p)), fit_l1(ds, cfg, pen, start),
                   fit_l2(ds, cfg, pen, start)]


def test_fits_equal_those_with_every_product_in_full(monkeypatch):
    ds = _missing_d2()
    cfg = ModelConfig(tau=0.25)
    pen = PenaltyConfig(eta=PenaltyConfig.default_eta(ds.n),
                        pilot=fit_a2(ds, cfg).beta)
    start, fits = _fits(ds, cfg, pen)
    monkeypatch.setattr(model, "WeightedGram", FullGram)
    monkeypatch.setattr(estimators, "WeightedGram", FullGram)
    full_ds = _missing_d2()
    assert isinstance(full_ds.gram, FullGram)
    full_start, full_fits = _fits(full_ds, cfg, pen)
    np.testing.assert_allclose(start, full_start, rtol=1e-12, atol=1e-12)
    for fit, ref in zip(fits, full_fits):
        assert fit.iterations == ref.iterations > 1
        np.testing.assert_array_equal(fit.active_set, ref.active_set)
        np.testing.assert_allclose(fit.beta, ref.beta, rtol=1e-12, atol=1e-12)
    assert fits[2].active_set.size < ds.p  # the penalty froze a coordinate


def test_penalized_fit_from_the_expectile_start_makes_one_full_product(
        counting_gram):
    # the pilot comes from an equal dataset, so the fit meets a Gram with
    # no reference yet
    cfg = ModelConfig(tau=0.25)
    pilot_ds = _missing_d2()
    start = expectile_fit(pilot_ds, cfg.tau)
    pen = PenaltyConfig(eta=PenaltyConfig.default_eta(pilot_ds.n),
                        pilot=fit_a2(pilot_ds, cfg, start).beta)
    ds = _missing_d2()
    del counting_gram[:]
    fit = fit_l2(ds, cfg, pen, start)
    assert counting_gram == []  # the fit made no Gram of its own
    gram = ds.gram
    assert gram.calls == fit.iterations > 1
    assert gram.full == 1


def test_only_a_fit_with_a_frozen_coordinate_forms_blocks(counting_gram):
    # the unpenalized fits, and a zero penalty, make the full call on every
    # iteration; a penalized fit asks for the active block once a
    # coordinate is frozen
    cfg = ModelConfig(tau=0.25)
    ds = _missing_d2()
    start = expectile_fit(ds, cfg.tau)
    pilot = fit_a2(ds, cfg, start).beta
    fit_a1(ds, cfg, start)
    fit_l2(ds, cfg, PenaltyConfig(eta=0.0, pilot=pilot), start)
    assert ds.gram.calls > 0 and ds.gram.blocks == 0
    pen = PenaltyConfig(eta=PenaltyConfig.default_eta(ds.n), pilot=pilot)
    calls = ds.gram.calls
    fit = fit_l2(ds, cfg, pen, start)
    assert fit.active_set.size < ds.p
    assert 0 < ds.gram.blocks < ds.gram.calls - calls == fit.iterations


def test_refreshed_multiplier_changes_every_row(counting_gram):
    # fit_a1 weighs row i by c_i (lam'g_i - 1), which moves with lam on
    # every used row, so each product is computed in full
    ds = _missing_d2()
    fit = fit_a1(ds, ModelConfig(tau=0.25))
    assert ds.gram.calls == ds.gram.full == fit.iterations


def test_bic_sweep_makes_one_full_engine_product(counting_gram):
    # the pilot and the 8 cells all start at the expectile fit, so the
    # first product of the pilot is the only full one; the expectile fit's
    # own products are counted on an equal dataset and taken off
    cfg = ModelConfig(tau=0.25)
    expectile_fit(_missing_d2(p=8), cfg.tau)
    expectile_full = sum(gram.full for gram in counting_gram)
    del counting_gram[:]
    ds = _missing_d2(p=8)
    assert 0.15 < 1.0 - ds.n_complete / ds.n < 0.25
    grid = [a * PenaltyConfig.default_eta(ds.n) for a in range(1, 9)]
    failures = []
    _, records = bic_sweep(ds, cfg, PenaltyConfig.gamma, grid,
                           failures=failures)
    assert len(records) == 8 and failures == []
    assert sum(gram.full for gram in counting_gram) - expectile_full == 1
    assert ds.gram.full == 1
