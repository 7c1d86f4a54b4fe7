import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import OneShotStream, normal_quantile_masked
from seel.errors import InvalidProbabilityError, SingularMatrixError
from seel.numkit import (
    _BLOCK,
    _NORMAL_BLOCK,
    RngStream,
    chi2_quantile,
    chi2_sf,
    gamma_p,
    normal_quantile,
    solve_linear,
    solve_spd,
)
from seel.simulate import gen_errors


# ---------------------------------------------------------------------------
# solve_spd

def test_solve_identity():
    x = solve_spd(np.eye(2), np.array([3.0, 4.0]))
    assert np.allclose(x, [3.0, 4.0], atol=1e-14)


def test_solve_diagonal():
    x = solve_spd(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-14)


def test_solve_hand_elimination():
    # 4x + 2y = 2, 2x + 3y = 1 -> x = 1/2, y = 0
    A = np.array([[4.0, 2.0], [2.0, 3.0]])
    x = solve_spd(A, np.array([2.0, 1.0]))
    assert np.allclose(x, [0.5, 0.0], atol=1e-12)


def test_solve_recovers_random_spd():
    rng = np.random.default_rng(7)
    for _ in range(25):
        p = rng.integers(1, 8)
        Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        eigs = 10.0 ** rng.uniform(-3, 3, size=p)  # condition <= 1e6
        A = Q @ np.diag(eigs) @ Q.T
        x = rng.standard_normal(p)
        x_hat = solve_spd(A, A @ x)
        assert np.linalg.norm(x_hat - x) <= 1e-8 * (1.0 + np.linalg.norm(x))


def test_solve_residual_bound():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = rng.integers(1, 6)
        M = rng.standard_normal((p, p))
        A = M @ M.T + np.eye(p)
        b = rng.standard_normal(p)
        x = solve_spd(A, b)
        assert np.linalg.norm(A @ x - b) <= 1e-10 * (1.0 + np.linalg.norm(b))


def test_solve_jitter_rescues_semidefinite():
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    x = solve_spd(A, np.array([2.0, 2.0]))
    assert np.all(np.isfinite(x))
    assert np.linalg.norm(A @ x - np.array([2.0, 2.0])) < 1e-4


def test_solve_jitter_rescues_a_zero_pivot_after_cholesky():
    # the Gram matrix of an 8 x 2 design whose singular values are 1.9 and
    # 3.6e-10: the Cholesky test passes, the LU solve meets a zero pivot
    A = np.array([[0.3244738719255133, -1.0258416428582717],
                  [-1.0258416428582717, 3.2432536708648683]])
    b = A @ np.array([1.0, 1.0])
    np.linalg.cholesky(A)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(A, b)
    x = solve_spd(A, b)
    assert np.all(np.isfinite(x))
    assert np.linalg.norm(A @ x - b) < 1e-4


def test_solve_signals_indefinite():
    with pytest.raises(SingularMatrixError):
        solve_spd(np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([1.0, 1.0]))


@pytest.mark.parametrize("A, b, message", [
    pytest.param(np.zeros((2, 2)), np.ones(2), "linear system is singular",
                 id="zero"),
    pytest.param(np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2),
                 "linear system is singular", id="rank-one"),
    pytest.param(np.array([[1e-300]]), np.array([1e300]),
                 "linear solve produced non-finite values", id="overflow"),
    pytest.param(np.eye(2), np.array([np.inf, 1.0]),
                 "linear solve produced non-finite values", id="infinite"),
])
def test_solve_linear_signals_failure(A, b, message):
    with pytest.raises(SingularMatrixError, match=f"^{message}$"):
        solve_linear(A, b)


# ---------------------------------------------------------------------------
# chi-square tail functions

def test_chi2_quantile_reference_values():
    assert chi2_quantile(0.95, 3) == pytest.approx(7.8, abs=0.05)
    assert chi2_quantile(0.95, 2) == pytest.approx(5.99, abs=0.01)


def _series_gamma_p(a, x, terms=500):
    # independent oracle: plain power series of the lower incomplete gamma
    total, term = 0.0, 1.0 / a
    for k in range(terms):
        total += term
        term *= x / (a + k + 1)
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def test_chi2_quantile_df1_against_series_bisection():
    lo, hi = 0.0, 50.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _series_gamma_p(0.5, 0.5 * mid) < 0.95:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    assert oracle == pytest.approx(3.8415, abs=5e-4)
    assert chi2_quantile(0.95, 1) == pytest.approx(oracle, abs=1e-6)


def test_chi2_sf_reference_values():
    assert chi2_sf(11.5, 3) == pytest.approx(0.009, abs=0.001)
    assert chi2_sf(1.45, 2) == pytest.approx(0.48, abs=0.01)
    assert chi2_sf(0.0, 5) == 1.0


def test_chi2_sf_matches_scipy():
    chi2 = pytest.importorskip("scipy.stats").chi2
    for df in (1, 2, 5, 10, 40):
        for x in (0.1, 1.0, 5.0, 20.0, 80.0):
            assert chi2_sf(x, df) == pytest.approx(chi2.sf(x, df), rel=1e-10, abs=1e-14)


@settings(deadline=None, max_examples=60)
@given(q=st.floats(0.001, 0.999), df=st.integers(1, 30))
def test_quantile_sf_mutual_inverse(q, df):
    c = chi2_quantile(q, df)
    assert chi2_sf(c, df) == pytest.approx(1.0 - q, abs=1e-6)


def test_chi2_quantile_memo_matches_fresh_solve():
    for q, df in ((0.95, 3), (0.95, 10), (0.9, 1), (0.99, 7)):
        first = chi2_quantile(q, df)
        assert chi2_quantile(q, df) == first
        assert chi2_quantile.__wrapped__(q, df) == first


# chi2_quantile at every level a report asks for (q = 0.9, 0.95, 0.99) and
# df 1..60, recorded with the Lanczos log Gamma that math.lgamma replaced:
# every Monte Carlo critical value keeps its bits
QUANTILE_DIGEST = "f8cb5b5043c68002ea9b7cac79ca740734fbe3872285c160d03e904836be0a44"


@pytest.mark.parametrize("q, df, bits", [
    (0.9, 1, "0x1.5a4f3f769f500p+1"), (0.95, 1, "0x1.ebb4ec31e8500p+1"),
    (0.95, 5, "0x1.6241846103180p+3"), (0.99, 10, "0x1.735917be46200p+4"),
    (0.95, 60, "0x1.3c53e9417d1c0p+6"),
])
def test_chi2_quantile_pinned_bits(q, df, bits):
    assert chi2_quantile(q, df).hex() == bits


def test_chi2_quantile_pinned_digest():
    values = [chi2_quantile(q, df) for q in (0.9, 0.95, 0.99)
              for df in range(1, 61)]
    digest = hashlib.sha256(np.array(values, dtype="<f8").tobytes()).hexdigest()
    assert digest == QUANTILE_DIGEST


@pytest.mark.parametrize("a, bits", [
    (0.5, "0x1.250d048e7a1c0p-1"), (1.5, "-0x1.eeb95b094c1a0p-4"),
    (2.5, "0x1.2383e809a67f0p-2"), (10.5, "0x1.be199a0f64394p+3"),
    (30.5, "0x1.23d05ac006be7p+6"),
])
def test_lgamma_pinned_at_half_integers(a, bits):
    # the chi-square functions take log Gamma(df / 2) from math.lgamma,
    # which CPython computes itself (not the C library's lgamma); a CPython
    # that changes it fails here
    assert math.lgamma(a).hex() == bits


def test_chi2_quantile_rejects_bad_probability():
    for q in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(InvalidProbabilityError):
            chi2_quantile(q, 3)


def test_gamma_p_basics():
    # P(1, x) = 1 - exp(-x)
    for x in (0.1, 1.0, 3.0):
        assert gamma_p(1.0, x) == pytest.approx(1.0 - math.exp(-x), abs=1e-12)


# ---------------------------------------------------------------------------
# normal quantile

def _normal_cdf_quadrature(z, nodes=80):
    # integrate the density over [0, |z|] with Gauss-Legendre
    x, w = np.polynomial.legendre.leggauss(nodes)
    t = 0.5 * abs(z) * (x + 1.0)
    integral = 0.5 * abs(z) * np.sum(w * np.exp(-t * t / 2.0)) / math.sqrt(2 * math.pi)
    return 0.5 + integral if z >= 0 else 0.5 - integral


def test_normal_quantile_inverts_quadrature_cdf():
    for u in (1e-8, 0.01, 0.3, 0.5, 0.8413, 0.975, 1 - 1e-7):
        z = normal_quantile(u)
        assert _normal_cdf_quadrature(z) == pytest.approx(u, abs=1e-9)


def quantile_inputs():
    # both central edges, both tails, u below exp(-25) (r > 5) and u next
    # to 1, plus a stream of draws
    edges = np.array([0.075, np.nextafter(0.075, 0.0), 0.925,
                      np.nextafter(0.925, 1.0), 0.5, np.exp(-25.0),
                      np.nextafter(np.exp(-25.0), 0.0), 5e-324, 1e-300,
                      1.0 - 2.0 ** -53, 1.0 - 2.0 ** -40, 1e-8])
    tiny = np.exp(-np.linspace(20.0, 740.0, 500))
    near_one = 1.0 - np.exp(-np.linspace(3.0, 36.7, 500))
    return np.concatenate([edges, tiny, near_one, RngStream(8, 3).uniforms(5000)])


def test_normal_quantile_matches_masked_oracle():
    u = quantile_inputs()
    assert (u > 0.0).all() and (u < 1.0).all()
    assert normal_quantile(u).tobytes() == normal_quantile_masked(u).tobytes()
    block = u[:6000].reshape(60, 100)
    for arr in (block, block.T, block[::2, ::3]):
        z = normal_quantile(arr)
        assert z.shape == arr.shape
        assert z.tobytes() == normal_quantile_masked(arr).tobytes()


@pytest.mark.parametrize("case", ["central", "near_tail", "far_tail"])
def test_normal_quantile_branch_skips_keep_the_bytes(case):
    # an array with no far-tail element (r > 5, u or 1 - u below about
    # 1.4e-11) skips the far branch, whether it has tail elements or none;
    # each equals its elements computed one at a time, and the masked
    # oracle, whose Horner evaluation multiplies an array filled with the
    # last coefficient by r where _poly starts from r times that coefficient
    u = RngStream(11, 7).uniforms(4000)
    if case == "central":
        u = 0.08 + 0.84 * u
    elif case == "near_tail":
        u = np.concatenate([0.07 * u[:2000], 1.0 - 0.07 * u[2000:]])
        u = np.clip(u, 1e-10, 1.0 - 1e-10)
    else:
        u = np.concatenate([u, [1e-11, 5e-324, 1e-300, 1.0 - 2.0 ** -53]])
    q = np.abs(u - 0.5)
    tail = np.minimum(u, 1.0 - u)
    assert (q > 0.425).any() == (case != "central")
    assert (tail < 1.4e-11).any() == (case == "far_tail")
    z = normal_quantile(u)
    one_at_a_time = np.array([normal_quantile(float(x)) for x in u])
    assert z.tobytes() == one_at_a_time.tobytes()
    assert z.tobytes() == normal_quantile_masked(u).tobytes()


def test_normal_quantile_scalar_inputs_match_masked_oracle():
    for v in quantile_inputs()[:12]:
        for x in (float(v), np.array(v), np.float64(v)):
            z = normal_quantile(x)
            assert type(z) is float
            assert z == normal_quantile_masked(x)
    empty = normal_quantile(np.empty((0, 3)))
    assert empty.shape == (0, 3)


# ---------------------------------------------------------------------------
# counter-based stream

def test_stream_bit_identical_reproduction():
    a = RngStream(123, 9).uniforms(4096)
    b = RngStream(123, 9).uniforms(4096)
    assert np.array_equal(a, b)


SIZES = (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5)
SEEDS = ((0, 0), (123, 9), (2 ** 63 + 5, 2 ** 48 + 7), (-1, 3))


@pytest.mark.parametrize("seed,stream", SEEDS)
def test_uniforms_match_one_shot_oracle(seed, stream):
    # one draw of each size, then the same sizes again with the counter
    # carried on, so blocks start at every offset
    rng, oracle = RngStream(seed, stream), OneShotStream(seed, stream)
    for size in SIZES + SIZES[::-1]:
        assert rng.uniforms(size).tobytes() == oracle.uniforms(size).tobytes()
        assert rng._counter == oracle._counter


@pytest.mark.parametrize("seed,stream", SEEDS[:3])
def test_derived_draws_match_one_shot_oracle(seed, stream):
    rng, oracle = RngStream(seed, stream), OneShotStream(seed, stream)
    for size in SIZES:
        assert rng.exponentials(1.5, size).tobytes() \
            == oracle.exponentials(1.5, size).tobytes()
        assert rng.normals(size).tobytes() == oracle.normals(size).tobytes()
        assert rng.bernoulli(0.3, size).tobytes() \
            == oracle.bernoulli(0.3, size).tobytes()
        assert rng.chi2_1(size).tobytes() == oracle.chi2_1(size).tobytes()
    # normals turn their uniforms into normals _NORMAL_BLOCK at a time:
    # draws that end just before, at and after one or two block edges
    for size in (_NORMAL_BLOCK - 1, _NORMAL_BLOCK, _NORMAL_BLOCK + 1,
                 2 * _NORMAL_BLOCK, 2 * _NORMAL_BLOCK + 3):
        assert rng.normals(size).tobytes() == oracle.normals(size).tobytes()


@pytest.mark.parametrize("seed,stream,size,digest", [
    (0, 0, 1000,
     "bc69ccec2b9c3649adcac151a591ae19c1d37f7fc15eb03e64826441443df40c"),
    (123, 9, 24581,
     "f228d682066bc4a5e8f1e72f8d4be2fa6f7930ae8cfa9a8c8e7220d8a294d286"),
    (2 ** 63 + 5, 2 ** 48 + 7, 100003,
     "403c381ecc051a4e1d1d9a91dc8a15968a9c33d6f5ec948f844f4d6633ab5d91"),
])
def test_uniforms_pinned_digest(seed, stream, size, digest):
    # recorded from the one-shot generator; pins the oracle and the stream
    for rng in (RngStream(seed, stream), OneShotStream(seed, stream)):
        assert hashlib.sha256(rng.uniforms(size).tobytes()).hexdigest() == digest


def test_exponential_draw_memory_stays_near_its_output():
    # the hash runs in two fixed block buffers and the log in place, so a
    # draw holds no temporary as large as its output
    import tracemalloc

    tracemalloc.start()
    try:
        e = RngStream(0, 0).exponentials(1.5, 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= e.nbytes + 256 * 1024


@pytest.mark.parametrize("draw", [
    lambda: RngStream(0, 0).normals(10 ** 6),
    lambda: gen_errors("normal", 10 ** 6, RngStream(0, 0)),
], ids=["normals", "gen_errors"])
def test_normal_draw_memory_stays_near_its_output(draw):
    # the quantile runs block by block over the uniforms, in place, so a
    # draw holds no temporary as large as its output
    import tracemalloc

    tracemalloc.start()
    try:
        z = draw()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= z.nbytes + 4 * 1024 * 1024


def test_stream_distinct_ids_differ():
    a = RngStream(123, 0).uniforms(256)
    b = RngStream(123, 1).uniforms(256)
    assert not np.array_equal(a, b)


def test_stream_open_interval():
    u = RngStream(5, 5).uniforms(10 ** 5)
    assert u.min() > 0.0 and u.max() < 1.0


def test_normal_draw_moments():
    z = RngStream(1, 0).normals(10 ** 5)
    assert abs(z.mean()) <= 0.02
    assert abs(z.var() - 1.0) <= 0.02


def test_exponential_draw_moments():
    e = RngStream(2, 0).exponentials(1.5, 10 ** 5)
    assert e.mean() == pytest.approx(1.5, abs=0.03)
    assert e.min() > 0.0


def test_chi2_1_variance():
    # Var chi2(1) = 2, from the moment identity E[Z^4] - E[Z^2]^2 = 3 - 1
    c = RngStream(3, 0).chi2_1(10 ** 5)
    assert c.var() == pytest.approx(2.0, abs=0.1)
    assert c.mean() == pytest.approx(1.0, abs=0.02)

