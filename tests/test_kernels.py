import numpy as np
import pytest

from oracles import pdf_prime
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

