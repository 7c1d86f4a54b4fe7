"""Invariance properties of the fits fit_a1, fit_a2, fit_l1 and fit_l2.

Each property transforms a simulated dataset in a way that maps the
smoothed estimating equations onto themselves and checks that the fit moves
with it: beta and the closed-form multiplier S^{-1} gbar at beta to
rounding, in the same number of iterations, or, when the fit on the original
data raises an EstimationError, by raising the same type.  The unpenalized
fits start from the expectile fit (the default) or from zero, which takes
more iterations and fails more often.  The penalized fits start from the
expectile fit and are given the pilot, which moves with the data as the fit
does, so that the adaptive weights stay the same.

Column scaling is checked for the unpenalized fits only.  A penalized fit
freezes a coordinate once its magnitude falls below eps_zero and stops when
the step falls below nu; both thresholds are in the coefficients' own units,
so rescaling a column changes which coordinates freeze and when the fit
stops, and the penalized fits are not scale invariant.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from seel.el import lambda_approx
from seel.errors import EstimationError
from seel.estimators import expectile_fit, fit_a1, fit_a2, fit_l1, fit_l2
from seel.model import Dataset, ModelConfig, PenaltyConfig
from seel.numkit import RngStream
from seel.simulate import gen_design, gen_errors, gen_missing

N = 400
BETA0 = np.array([0.0, 1.0, 0.0, 2.0])
FITS = {"a1": fit_a1, "a2": fit_a2}
PENALIZED = {"l1": fit_l1, "l2": fit_l2}

SETTINGS = settings(max_examples=8, deadline=None)
seeds = st.integers(0, 2 ** 32 - 1)
taus = st.sampled_from((0.25, 0.5, 0.7))
algorithms = st.sampled_from(tuple(FITS))
penalized = st.sampled_from(tuple(PENALIZED))
eta_scales = st.sampled_from((1.0, 3.0, 8.0))


def simulated(seed):
    """Design d2, shifted-exponential errors, about 20% missing responses."""
    rng = RngStream(seed, 0)
    X = gen_design("d2", N, BETA0.size, rng)
    eps = gen_errors("shifted_exp", N, rng)
    delta = gen_missing("constant", X, rng, 0.8)
    return Dataset(X, np.where(delta == 1, X @ BETA0 + eps, np.nan), delta)


def attempt(fit, ds, cfg, *args):
    """The fit's result and the closed-form multiplier at its beta, or the
    type of the EstimationError either raised."""
    try:
        result = fit(ds, cfg, *args)
        return result, lambda_approx(ds, cfg, result.beta)
    except EstimationError as exc:
        return type(exc)


def outcome(alg, ds, cfg, zero_start):
    return attempt(FITS[alg], ds, cfg, np.zeros(ds.p) if zero_start else None)


def assert_moves_with(base, other, transform, atol=1e-12, rtol=0.0):
    """other is the fit of the transformed data: transform(base) to
    tolerance, or the same exception type."""
    if isinstance(base, type):
        assert other is base
        return
    assert not isinstance(other, type), other
    (base_fit, base_lam), (fit, lam) = base, other
    assert fit.iterations == base_fit.iterations
    np.testing.assert_array_equal(fit.active_set, base_fit.active_set)
    np.testing.assert_allclose(fit.beta, transform(base_fit.beta), rtol=rtol, atol=atol)
    np.testing.assert_allclose(lam, transform(base_lam), rtol=rtol, atol=atol)


def penalized_outcome(alg, ds, cfg, eta, pilot, start):
    return attempt(PENALIZED[alg], ds, cfg, PenaltyConfig(eta=eta, pilot=pilot), start)


def penalized_base(seed, tau, eta_scale):
    """Data, level, penalty, pilot and expectile start of one example; the
    pilot is the multiplier-free fit from that start."""
    ds = simulated(seed)
    cfg = ModelConfig(tau=tau, h=ds.n ** -0.25)
    start = expectile_fit(ds, tau)
    pilot = fit_a2(ds, cfg, start).beta
    return ds, cfg, eta_scale * PenaltyConfig.default_eta(ds.n), pilot, start


@SETTINGS
@given(seed=seeds, tau=taus, alg=algorithms, zero_start=st.booleans(),
       perm_seed=seeds)
def test_row_permutation(seed, tau, alg, zero_start, perm_seed):
    ds = simulated(seed)
    perm = np.random.default_rng(perm_seed).permutation(ds.n)
    cfg = ModelConfig(tau=tau)
    base = outcome(alg, ds, cfg, zero_start)
    permuted = Dataset(ds.X[perm], ds.y[perm], ds.delta[perm])
    assert_moves_with(base, outcome(alg, permuted, cfg, zero_start), lambda v: v)


@SETTINGS
@given(seed=seeds, tau=taus, alg=algorithms, zero_start=st.booleans())
def test_mirrored_level_and_response_negate_the_fit(seed, tau, alg, zero_start):
    # g_i(-beta; 1 - tau, -y) = -g_i(beta; tau, y) for a symmetric kernel
    ds = simulated(seed)
    base = outcome(alg, ds, ModelConfig(tau=tau), zero_start)
    mirrored = outcome(alg, Dataset(ds.X, -ds.y, ds.delta),
                       ModelConfig(tau=1.0 - tau), zero_start)
    assert_moves_with(base, mirrored, lambda v: -v)


@SETTINGS
@given(seed=seeds, tau=taus, alg=algorithms, zero_start=st.booleans(),
       extra=st.integers(1, 100))
def test_rows_without_response_change_nothing(seed, tau, alg, zero_start, extra):
    # with h held fixed, rows with delta = 0 only rescale gbar, S and the
    # Jacobian by the same factor n / (n + extra)
    ds = simulated(seed)
    cfg = ModelConfig(tau=tau, h=ds.n ** -0.25)
    base = outcome(alg, ds, cfg, zero_start)
    X_new = RngStream(seed, 1).normals(extra * ds.p).reshape(extra, ds.p)
    grown = Dataset(np.vstack([ds.X, X_new]),
                    np.concatenate([ds.y, np.full(extra, np.nan)]),
                    np.concatenate([ds.delta, np.zeros(extra, dtype=np.uint8)]))
    assert_moves_with(base, outcome(alg, grown, cfg, zero_start), lambda v: v)


@SETTINGS
@given(seed=seeds, tau=taus, alg=algorithms,
       scale=st.lists(st.floats(0.25, 4.0), min_size=BETA0.size,
                      max_size=BETA0.size))
def test_column_scaling_scales_the_fit_inversely(seed, tau, alg, scale):
    # the stopping rule measures steps in the coefficients' own units, so it
    # is not scale invariant; from the expectile start these fits take one
    # Newton step of at most about 0.11 nu, which a scale in [1/4, 4] keeps
    # below nu.  A zero start takes steps close to nu and is left out.
    ds = simulated(seed)
    c = np.array(scale)
    cfg = ModelConfig(tau=tau)
    base = outcome(alg, ds, cfg, zero_start=False)
    scaled = outcome(alg, Dataset(ds.X * c, ds.y, ds.delta), cfg, zero_start=False)
    assert_moves_with(base, scaled, lambda v: v / c, rtol=1e-10)


@SETTINGS
@given(seed=seeds, tau=taus, alg=penalized, eta_scale=eta_scales,
       perm_seed=seeds)
def test_penalized_row_permutation(seed, tau, alg, eta_scale, perm_seed):
    ds, cfg, eta, pilot, start = penalized_base(seed, tau, eta_scale)
    perm = np.random.default_rng(perm_seed).permutation(ds.n)
    base = penalized_outcome(alg, ds, cfg, eta, pilot, start)
    permuted = Dataset(ds.X[perm], ds.y[perm], ds.delta[perm])
    assert_moves_with(base, penalized_outcome(alg, permuted, cfg, eta, pilot, start),
                      lambda v: v)


@SETTINGS
@given(seed=seeds, tau=taus, alg=penalized, eta_scale=eta_scales)
def test_penalized_mirrored_level_and_response_negate_the_fit(
        seed, tau, alg, eta_scale):
    # the penalty eta w_j |beta_j| and its weights |pilot_j|^-gamma are even
    # in beta and in the pilot
    ds, cfg, eta, pilot, start = penalized_base(seed, tau, eta_scale)
    base = penalized_outcome(alg, ds, cfg, eta, pilot, start)
    mirrored = penalized_outcome(
        alg, Dataset(ds.X, -ds.y, ds.delta),
        ModelConfig(tau=1.0 - tau, h=cfg.h), eta, -pilot, -start)
    assert_moves_with(base, mirrored, lambda v: -v)


@SETTINGS
@given(seed=seeds, tau=taus, alg=penalized, eta_scale=eta_scales,
       extra=st.integers(1, 100))
def test_penalized_rows_without_response_rescale_eta(
        seed, tau, alg, eta_scale, extra):
    # rows with delta = 0 rescale gbar and M by n / (n + extra) but leave
    # the penalty term alone, so eta is rescaled by the same factor
    ds, cfg, eta, pilot, start = penalized_base(seed, tau, eta_scale)
    base = penalized_outcome(alg, ds, cfg, eta, pilot, start)
    X_new = RngStream(seed, 1).normals(extra * ds.p).reshape(extra, ds.p)
    grown = Dataset(np.vstack([ds.X, X_new]),
                    np.concatenate([ds.y, np.full(extra, np.nan)]),
                    np.concatenate([ds.delta, np.zeros(extra, dtype=np.uint8)]))
    eta_grown = eta * ds.n / (ds.n + extra)
    assert_moves_with(base, penalized_outcome(alg, grown, cfg, eta_grown, pilot, start),
                      lambda v: v)
