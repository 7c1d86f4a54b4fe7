import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import kernel_cdf_full, pdf_prime
from seel.kernels import KERNEL_NAMES, Kernel
from seel.model import ModelConfig


def _gauss_legendre_integral(f, a, b, nodes=40):
    x, w = np.polynomial.legendre.leggauss(nodes)
    t = 0.5 * (b - a) * x + 0.5 * (a + b)
    return 0.5 * (b - a) * float(np.sum(w * f(t)))


@pytest.fixture(params=KERNEL_NAMES)
def kernel(request):
    return Kernel(request.param)


def test_epanechnikov_peak_from_normalization():
    # quadrature oracle: integral of (1 - u^2) over [-1, 1] is 4/3
    mass = _gauss_legendre_integral(lambda u: 1.0 - u * u, -1.0, 1.0)
    assert mass == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert Kernel("epanechnikov").pdf(0.0) == pytest.approx(1.0 / mass, abs=1e-12)


def test_pdf_outside_support_and_boundary(kernel):
    assert kernel.pdf(1.5) == 0.0
    assert kernel.pdf(-2.0) == 0.0
    assert kernel.pdf(1.0) == 0.0
    assert kernel.pdf(-1.0) == 0.0


def test_pdf_far_outside_support_is_zero_without_warnings(kernel):
    # the polynomial is formed only on the support, so 1 - u*u cannot overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kernel.pdf(np.array([1e200, -1e200, 0.5]))
        assert got.tolist() == [0.0, 0.0, kernel.pdf(0.5)]
        assert kernel.pdf(1e200) == 0.0
        nan = kernel.pdf(np.nan)
    assert type(nan) is float and nan == 0.0


def test_pdf_integrates_to_one(kernel):
    mass = _gauss_legendre_integral(kernel.pdf, -1.0, 1.0)
    assert mass == pytest.approx(1.0, abs=1e-10)


def test_pdf_symmetry(kernel):
    u = np.linspace(-1, 1, 41)
    assert np.allclose(kernel.pdf(u), kernel.pdf(-u), atol=1e-15)


def test_cdf_endpoints_and_center(kernel):
    assert kernel.cdf(-1.0) == 0.0
    assert kernel.cdf(1.0) == 1.0
    assert kernel.cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert kernel.cdf(-3.0) == 0.0
    assert kernel.cdf(7.0) == 1.0


# the edges of the band, signed zeros, infinities, NaN and subnormals
_EDGES = [1.0, -1.0, np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0),
          np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0), 0.0, -0.0,
          np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
          np.nextafter(2.2250738585072014e-308, 0.0)]
_CDF_INPUTS = st.one_of(st.sampled_from(_EDGES), st.floats(-1.5, 1.5),
                        st.floats(allow_nan=True, allow_infinity=True))


def _same_bits(got, ref):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def test_cdf_at_the_edges_equals_the_full_polynomial_bit_for_bit(kernel):
    _same_bits(kernel.cdf(np.array(_EDGES)),
               kernel_cdf_full(kernel, np.array(_EDGES)))
    for x in _EDGES:
        got = kernel.cdf(float(x))
        assert type(got) is float
        _same_bits(got, kernel_cdf_full(kernel, float(x)))


@settings(deadline=None, max_examples=150)
@given(name=st.sampled_from(KERNEL_NAMES),
       u=arrays(float, st.integers(0, 40), elements=_CDF_INPUTS),
       x=_CDF_INPUTS)
def test_cdf_in_band_equals_the_full_polynomial_bit_for_bit(name, u, x):
    k = Kernel(name)
    _same_bits(k.cdf(u), kernel_cdf_full(k, u))
    # a strided 2-D view and its transpose
    grid = np.resize(u, (3, 2 * max(1, u.size)))
    for view in (grid[:, ::2], grid[::2, 1::2].T):
        _same_bits(k.cdf(view), kernel_cdf_full(k, view))
    got, ref = k.cdf(x), kernel_cdf_full(k, x)
    assert type(got) is float and type(ref) is float
    _same_bits(got, ref)


def test_epanechnikov_cdf_against_quadrature():
    k = Kernel("epanechnikov")
    val = _gauss_legendre_integral(k.pdf, -1.0, 0.5)
    assert val == pytest.approx(0.84375, abs=1e-12)
    assert k.cdf(0.5) == pytest.approx(val, abs=1e-12)


def test_cdf_nondecreasing_and_matches_pdf(kernel):
    grid = np.linspace(-0.98, 0.98, 99)
    cdf = kernel.cdf(grid)
    assert np.all(np.diff(cdf) >= 0.0)
    step = 1e-6
    fd = (kernel.cdf(grid + step) - kernel.cdf(grid - step)) / (2 * step)
    assert np.max(np.abs(fd - kernel.pdf(grid))) < 1e-6


def test_pdf_prime_values():
    k = Kernel("epanechnikov")
    assert pdf_prime(k, 0.0) == 0.0
    assert pdf_prime(k, 0.5) == pytest.approx(-0.75, abs=1e-12)
    assert pdf_prime(k, 2.0) == 0.0


def test_pdf_prime_matches_finite_differences(kernel):
    grid = np.linspace(-0.95, 0.95, 39)
    step = 1e-6
    fd = (kernel.pdf(grid + step) - kernel.pdf(grid - step)) / (2 * step)
    assert np.max(np.abs(fd - pdf_prime(kernel, grid))) < 1e-5


# the smoothed indicator G(x/h) is kernel.cdf(x / h), as seel.model uses it

def test_smoothed_indicator_values(kernel):
    assert kernel.cdf(0.0 / 0.3) == pytest.approx(0.5)
    assert kernel.cdf(0.6 / 0.3) == 1.0
    assert kernel.cdf(-0.6 / 0.3) == 0.0


def test_smoothed_indicator_epanechnikov_half():
    assert Kernel("epanechnikov").cdf(0.05 / 0.1) \
        == pytest.approx(0.84375, abs=1e-12)


def test_smoothed_indicator_pointwise_limit(kernel):
    # G(x/h) -> 1{x > 0} as h -> 0
    for x in (-1.0, -1e-3, 1e-3, 1.0):
        val = kernel.cdf(x / 1e-6)
        assert val == (1.0 if x > 0 else 0.0)


def test_smoothed_indicator_rejects_bad_bandwidth(kernel):
    for h in (0.0, -0.5):
        with pytest.raises(ValueError, match="bandwidth"):
            ModelConfig(tau=0.5, h=h, kernel=kernel)


def test_unknown_kernel_rejected():
    with pytest.raises(ValueError):
        Kernel("gaussian")

