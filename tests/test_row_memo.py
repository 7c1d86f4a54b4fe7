"""The evaluation memo each Dataset owns (Dataset.terms): results equal
those computed with no memo bit for bit, a shared evaluation serves the
same moments and multiplier as a fresh one, any change of the key misses,
the memoized arrays are read-only, and the cells of a BIC sweep, which all
start where the pilot started, add no row pass for their start."""

import numpy as np
import pytest

from oracles import NoTermsMemo, dense_g
from seel import estimators, inference, model
from seel.el import el_ratio_approx, lambda_approx
from seel.estimators import expectile_fit, fit_a1, fit_a2, fit_l1, fit_l2
from seel.inference import bic_sweep
from seel.kernels import Kernel
from seel.model import (Dataset, ModelConfig, PenaltyConfig, evaluate,
                        g_matrix, moments)
from seel.numkit import RngStream
from seel.simulate import gen_design, gen_errors, gen_missing

CFG = ModelConfig(tau=0.25)


def _arrays(n=1500, p=6, seed=41):
    """Design d2, shifted-exponential errors, about 20% missing responses."""
    rng = RngStream(seed, 0)
    X = gen_design("d2", n, p, rng)
    beta0 = np.zeros(p)
    beta0[[2, 4]] = (1.0, 2.0)
    eps = gen_errors("shifted_exp", n, rng)
    delta = gen_missing("constant", X, rng, 0.8)
    return X, np.where(delta == 1, X @ beta0 + eps, np.nan), delta


@pytest.fixture
def counting_cdf(monkeypatch):
    """Counts the calls of Kernel.cdf, one per row pass computed."""
    calls = []
    cdf = Kernel.cdf

    def counted(self, u):
        calls.append(np.size(u))
        return cdf(self, u)

    monkeypatch.setattr(Kernel, "cdf", counted)
    return calls


def _unmemoized(monkeypatch):
    """A dataset on the same arrays whose every row pass is computed."""
    with monkeypatch.context() as m:
        m.setattr(model, "_TermsMemo", NoTermsMemo)
        return Dataset(*_arrays())


def _same(got, ref):
    for g, r in zip(got, ref):
        assert np.asarray(g).tobytes() == np.asarray(r).tobytes()


def test_moments_and_g_matrix_equal_those_without_a_memo(monkeypatch):
    ds, fresh = Dataset(*_arrays()), _unmemoized(monkeypatch)
    beta = expectile_fit(ds, CFG.tau)
    for _ in range(2):  # the second round reads the memo
        _same(moments(ds, CFG, beta), moments(fresh, CFG, beta))
        _same(g_matrix(ds, CFG, beta), g_matrix(fresh, CFG, beta))
        _same([dense_g(ds, CFG, beta)], [dense_g(fresh, CFG, beta)])
    assert ds.terms.entries and fresh.terms.entries == ()


def test_fits_and_sweep_equal_those_without_a_memo(monkeypatch):
    ds, fresh = Dataset(*_arrays()), _unmemoized(monkeypatch)
    start = expectile_fit(ds, CFG.tau)
    pen = PenaltyConfig(eta=PenaltyConfig.default_eta(ds.n),
                        pilot=fit_a2(fresh, CFG, start).beta)
    for fit in (fit_a1, fit_a2):
        a, b = fit(ds, CFG, start), fit(fresh, CFG, start)
        assert a.iterations == b.iterations and a.trace == b.trace
        _same([a.beta], [b.beta])
    for fit in (fit_l1, fit_l2):
        a, b = fit(ds, CFG, pen, start), fit(fresh, CFG, pen, start)
        assert a.iterations == b.iterations and a.trace == b.trace
        _same([a.beta], [b.beta])
    grid = [a * PenaltyConfig.default_eta(ds.n) for a in range(1, 9)]
    got = bic_sweep(Dataset(*_arrays()), CFG, 2.5, grid)[1]
    ref = bic_sweep(fresh, CFG, 2.5, grid)[1]
    assert len(got) == len(ref) == 8
    for a, b in zip(got, ref):
        assert (a.eta, a.ratio_method, a.multiplier_iterations) \
            == (b.eta, b.ratio_method, b.multiplier_iterations)
        _same([a.bic, a.beta, a.active_set], [b.bic, b.beta, b.active_set])


def _terms(ev):
    return [ev.a, ev.c]


def test_any_change_of_the_key_misses(counting_cdf):
    ds = Dataset(*_arrays())
    beta = expectile_fit(ds, CFG.tau)
    ev = evaluate(ds, CFG, beta)
    assert evaluate(ds, CFG, beta.copy()) is ev
    assert len(counting_cdf) == 1
    flipped = []  # beta with the lowest bit of one coordinate flipped
    for j in range(ds.p):
        flipped.append(beta.copy())
        flipped[-1].view(np.uint64)[j] ^= np.uint64(1)
    for cfg, b in [(ModelConfig(tau=0.3), beta),
                   (ModelConfig(tau=0.25, h=0.2), beta),
                   (ModelConfig(tau=0.25, kernel=Kernel("quartic")), beta)] \
            + [(CFG, f) for f in flipped]:
        evaluate(ds, CFG, beta)  # the unchanged key is held
        del counting_cdf[:]
        got = evaluate(ds, cfg, b)
        assert len(counting_cdf) == 1
        _same(_terms(got),
              _terms(evaluate(Dataset(*_arrays()), cfg, b, memo=False)))
    # two entries, most recently used first: a hit moves to the front, so
    # a new key evicts the other one
    del counting_cdf[:]
    evaluate(ds, CFG, flipped[-1])
    evaluate(ds, CFG, beta)
    assert counting_cdf == []
    evaluate(ds, CFG, flipped[-2])
    evaluate(ds, CFG, beta)
    assert len(counting_cdf) == 1
    evaluate(ds, CFG, flipped[-1])
    assert len(counting_cdf) == 2


def test_shared_evaluation_equals_a_fresh_one(monkeypatch):
    # every quantity a shared evaluation serves, read after the fits that
    # share it and in any order, equals that of an evaluation made afresh
    ds = Dataset(*_arrays())
    start = expectile_fit(ds, CFG.tau)
    pen = PenaltyConfig(eta=PenaltyConfig.default_eta(ds.n),
                        pilot=fit_a2(ds, CFG, start).beta)
    fit_a1(ds, CFG, start)
    fit_l1(ds, CFG, pen, start)
    shared = evaluate(ds, CFG, start)
    lam = lambda_approx(ds, CFG, start)
    assert lam is shared.lam
    assert moments(ds, CFG, start)[1] is shared.S
    fresh = evaluate(_unmemoized(monkeypatch), CFG, start)
    for name in ("a", "c", "gbar", "S", "lam"):
        _same([getattr(shared, name)], [getattr(fresh, name)])
    # one multiplier solve serves the multiplier and the quadratic ratio
    ratio = el_ratio_approx(ds, CFG, start)
    assert ratio == max(ds.n * float(fresh.gbar @ fresh.lam), 0.0)


def test_each_quantity_is_formed_once_per_evaluation(monkeypatch):
    ds = Dataset(*_arrays())
    beta = expectile_fit(ds, CFG.tau)
    solves = []
    solve_spd = model.solve_spd

    def counted(A, b):
        solves.append(1)
        return solve_spd(A, b)

    monkeypatch.setattr(model, "solve_spd", counted)
    first = moments(ds, CFG, beta)
    assert all(x is y for x, y in zip(moments(ds, CFG, beta), first))
    lam = lambda_approx(ds, CFG, beta)
    el_ratio_approx(ds, CFG, beta)
    assert lambda_approx(ds, CFG, beta) is lam and len(solves) == 1


def test_memoized_terms_are_read_only():
    ds = Dataset(*_arrays())
    ev = evaluate(ds, CFG, np.zeros(ds.p))
    for x in (ev.a, ev.c, ev.gbar, ev.S, ev.lam):
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 1.0


def test_sweep_cells_add_no_pass_for_their_start(counting_cdf, monkeypatch):
    # the pilot makes one pass per iteration, its start included; a cell's
    # start is the pilot's, so its passes are its later iterations and the
    # one at its fitted beta for the ratio; with no memo each cell makes
    # one pass more
    fits = []

    def recorded(fit):
        def run(*args, **kwargs):
            fits.append(fit(*args, **kwargs))
            return fits[-1]
        return run

    monkeypatch.setattr(estimators, "fit_a2", recorded(fit_a2))
    monkeypatch.setattr(inference, "fit_l2", recorded(fit_l2))
    grid = [a * PenaltyConfig.default_eta(1500) for a in range(1, 9)]
    extra = []
    for ds in (Dataset(*_arrays()), _unmemoized(monkeypatch)):
        del counting_cdf[:], fits[:]
        _, records = bic_sweep(ds, CFG, 2.5, grid)
        assert [r.ratio_method for r in records] == ["exact"] * 8
        assert len(fits) == 9
        extra.append(len(counting_cdf) - sum(fit.iterations for fit in fits))
    assert extra == [0, 8]
