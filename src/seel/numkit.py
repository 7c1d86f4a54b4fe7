"""Self-contained numerical kernels: SPD solves, chi-square tail functions
and a counter-based random number generator.

numpy supplies array storage and matrix products; every algorithm that the
estimation code depends on for correctness (factorization fallback, the
regularized incomplete gamma, the normal quantile, the generator itself) is
implemented here so results are reproducible bit for bit across platforms.
"""

import functools
import math

import numpy as np

from .errors import InvalidProbabilityError, SingularMatrixError

# ---------------------------------------------------------------------------
# dense symmetric solves

_JITTER_FIRST = 1e-8
_JITTER_LAST = 1e-4


def solve_spd(A, b):
    """Solve A x = b for a symmetric positive definite matrix A.

    A Cholesky factorization is attempted first; on failure the system is
    retried with an escalating ridge A + kappa*I, kappa running from
    1e-8*trace(A)/p up to 1e-4*trace(A)/p in powers of ten.  The first
    matrix whose factorization succeeds is solved by LAPACK (np.linalg.solve);
    a nearly singular matrix can pass the Cholesky test and still stop that
    LU solve at a zero pivot, and then the ladder goes on as if the
    factorization had failed.

    Raises
    ------
    SingularMatrixError
        If the factorization or the solve fails at every jitter level.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    p = A.shape[0]
    if A.shape != (p, p) or b.shape != (p,):
        raise ValueError("solve_spd expects a p x p matrix and a p-vector")
    kappa = 0.0
    while True:
        try:
            M = A if kappa == 0.0 else A + kappa * np.eye(p)
            np.linalg.cholesky(M)
            return np.linalg.solve(M, b)
        except np.linalg.LinAlgError:
            if kappa == 0.0:
                # the ridge scale, needed only once the plain matrix fails
                scale = np.trace(A) / p
                if not np.isfinite(scale) or scale <= 0.0:
                    scale = 1.0
                kappa = _JITTER_FIRST * scale
            else:
                kappa *= 10.0
            if kappa > _JITTER_LAST * scale * (1.0 + 1e-12):
                raise SingularMatrixError(
                    "matrix not positive definite at any jitter level"
                ) from None


def solve_linear(A, b):
    """General dense solve used for Newton systems that need not be definite."""
    try:
        x = np.linalg.solve(np.asarray(A, dtype=float), np.asarray(b, dtype=float))
    except np.linalg.LinAlgError:
        raise SingularMatrixError("linear system is singular") from None
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError("linear solve produced non-finite values")
    return x


# ---------------------------------------------------------------------------
# chi-square distribution via the regularized incomplete gamma function

_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gammaln(x):
    """log Gamma(x) for x > 0 (Lanczos approximation, g = 7)."""
    if x <= 0.0:
        raise ValueError("gammaln requires x > 0")
    if x < 0.5:
        # reflection keeps the approximation in its accurate range
        return math.log(math.pi / math.sin(math.pi * x)) - gammaln(1.0 - x)
    x -= 1.0
    acc = _LANCZOS_COEF[0]
    for i, c in enumerate(_LANCZOS_COEF[1:], start=1):
        acc += c / (x + i)
    t = x + _LANCZOS_G + 0.5
    return 0.5 * math.log(2.0 * math.pi) + (x + 0.5) * math.log(t) - t + math.log(acc)


_IGAMMA_EPS = 1e-15
_IGAMMA_ITMAX = 500


def _gamma_p_series(a, x):
    # lower regularized incomplete gamma by its power series, x < a + 1
    if x <= 0.0:
        return 0.0
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_IGAMMA_ITMAX):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _IGAMMA_EPS:
            break
    return total * math.exp(-x + a * math.log(x) - gammaln(a))

def _gamma_q_contfrac(a, x):
    # upper regularized incomplete gamma by Lentz's continued fraction, x >= a + 1
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _IGAMMA_ITMAX + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _IGAMMA_EPS:
            break
    return h * math.exp(-x + a * math.log(x) - gammaln(a))


def gamma_p(a, x):
    """Regularized lower incomplete gamma P(a, x)."""
    if a <= 0.0:
        raise ValueError("gamma_p requires a > 0")
    if x < 0.0:
        raise ValueError("gamma_p requires x >= 0")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _gamma_p_series(a, x)
    return 1.0 - _gamma_q_contfrac(a, x)


def chi2_sf(stat, df):
    """Survival function P[chi2(df) > stat] = Q(df/2, stat/2)."""
    if stat < 0.0:
        raise ValueError("chi-square statistic must be nonnegative")
    if df < 1:
        raise ValueError("degrees of freedom must be a positive integer")
    a, x = 0.5 * df, 0.5 * float(stat)
    if x < a + 1.0:
        return 1.0 - _gamma_p_series(a, x)
    return _gamma_q_contfrac(a, x)


@functools.lru_cache(maxsize=None)
def chi2_quantile(q, df):
    """Quantile c with P[chi2(df) <= c] = q, accurate to 1e-8 absolute.

    Solved by bisection on the regularized incomplete gamma; monotonicity
    makes the bracket shrink unconditionally.  Results are memoized: the
    value depends on (q, df) alone, and callers ask for a handful of levels
    and degrees of freedom many times over.
    """
    if not 0.0 < q < 1.0:
        raise InvalidProbabilityError("quantile level must lie in (0, 1)")
    if df < 1:
        raise ValueError("degrees of freedom must be a positive integer")
    lo, hi = 0.0, float(df) + 10.0
    while gamma_p(0.5 * df, 0.5 * hi) < q:
        hi *= 2.0
        if hi > 1e12:
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gamma_p(0.5 * df, 0.5 * mid) < q:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * (1.0 + hi):
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# normal quantile (Wichura's AS 241, double precision)

_A = (3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
      1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
      3.3430575583588128105e4, 2.5090809287301226727e3)
_B = (4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
      2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
      5.2264952788528545610e3)
_C = (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
      3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
      2.27238449892691845833e-2, 7.74545014278341407640e-4)
_D = (2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
      1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
      1.05075007164441684324e-9)
_E = (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
      2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
      2.71155556874348757815e-5, 2.01033439929228813265e-7)
_F = (5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
      7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
      2.04426310338993978564e-15)


def _poly(coefs, r):
    # Horner evaluation in place; coefs listed from the constant term upward
    acc = np.full_like(r, coefs[-1])
    for c in coefs[-2::-1]:
        acc *= r
        acc += c
    return acc


def _rational(num, den, r):
    out = _poly(num, r)
    out /= _poly((1.0,) + den, r)
    return out


def normal_quantile(u):
    """Inverse standard normal CDF, vectorized; u must lie strictly in (0, 1).

    Elementwise: output i depends on u[i] alone.  Each branch of AS 241 is
    gathered with np.compress, evaluated in place and scattered back with
    np.place, which gives the same bytes as evaluating every element alone.
    """
    u = np.asarray(u, dtype=float)
    flat = u.ravel()
    q = flat - 0.5
    out = np.empty_like(q)

    central = np.abs(q) <= 0.425
    qc = np.compress(central, q)
    r = 0.180625 - qc ** 2
    zc = _poly(_A, r)
    zc *= qc
    zc /= _poly((1.0,) + _B, r)
    np.place(out, central, zc)

    tail = ~central
    lower = np.compress(tail, q) < 0.0
    ut = np.compress(tail, flat)
    r = np.sqrt(-np.log(np.where(lower, ut, 1.0 - ut)))
    z = np.empty_like(r)
    near = r <= 5.0
    np.place(z, near, _rational(_C, _D, np.compress(near, r) - 1.6))
    far = ~near
    np.place(z, far, _rational(_E, _F, np.compress(far, r) - 5.0))
    np.negative(z, out=z, where=lower)
    np.place(out, tail, z)
    out = out.reshape(u.shape)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# counter-based splittable generator

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_M1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_M2 = np.uint64(0x94D049BB133111EB)
_STREAM_SALT = np.uint64(0xD6E8FEB86659FD93)

# words are made in blocks of _BLOCK counters; block j of a draw hashes
# offset + _STEPS[:k], offset = key + (first counter) * golden mod 2^64
_BLOCK = 1 << 13
_STEPS = np.arange(_BLOCK, dtype=np.uint64) * _GOLDEN


def _mix64(z):
    # splitmix64 finalizer; z is a uint64 scalar or array
    z = (z ^ (z >> np.uint64(30))) * _MIX_M1
    z = (z ^ (z >> np.uint64(27))) * _MIX_M2
    return z ^ (z >> np.uint64(31))


class RngStream:
    """Deterministic counter-based random stream.

    Output i is a pure function of (seed, stream_id, i): the i-th counter is
    hashed through the splitmix64 finalizer, so identical (seed, stream_id)
    pairs reproduce identical draw sequences and distinct stream ids give
    statistically independent streams, and a draw of n numbers equals any
    split of it into consecutive smaller draws.  The hash runs in place over
    blocks of _BLOCK counters, in two fixed block buffers, so a draw holds
    no temporary larger than a block.  Each stream instance is meant to be
    owned by a single worker.
    """

    def __init__(self, seed, stream_id=0):
        with np.errstate(over="ignore"):
            s = np.uint64(int(seed) & _MASK64)
            t = np.uint64(int(stream_id) & _MASK64)
            self._key = _mix64((_mix64(s + _GOLDEN) ^ (t * _STREAM_SALT)) + _GOLDEN)
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._counter = 0

    def uniforms(self, size):
        """size draws from the open interval (0, 1), 53-bit resolution."""
        out = np.empty(size)
        z = np.empty(min(size, _BLOCK), dtype=np.uint64)
        t = np.empty_like(z)
        for i0 in range(0, size, _BLOCK):
            zk, tk = z[:size - i0], t[:size - i0]
            offset = (int(self._key) + self._counter * int(_GOLDEN)) & _MASK64
            np.add(_STEPS[:zk.size], np.uint64(offset), out=zk)
            # _mix64 in place, then the top 53 bits
            for shift, mult in ((30, _MIX_M1), (27, _MIX_M2)):
                np.right_shift(zk, np.uint64(shift), out=tk)
                zk ^= tk
                zk *= mult
            np.right_shift(zk, np.uint64(31), out=tk)
            zk ^= tk
            zk >>= np.uint64(11)
            out[i0:i0 + zk.size] = zk
            self._counter += zk.size
        out += 0.5
        out *= 2.0 ** -53
        return out

    def normals(self, size):
        return normal_quantile(self.uniforms(size))

    def exponentials(self, mean, size):
        u = self.uniforms(size)
        return np.multiply(np.log(u, out=u), -mean, out=u)

    def chi2_1(self, size):
        return self.normals(size) ** 2

    def bernoulli(self, prob, size):
        return (self.uniforms(size) < prob).astype(np.uint8)
