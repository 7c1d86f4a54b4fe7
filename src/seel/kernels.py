"""Compact-support kernel densities and their CDFs.

The CDFs are stored as explicit polynomial antiderivatives rather than
numeric integrals, which keeps inner loops cheap and bit-reproducible.
"""

import numpy as np

KERNEL_NAMES = ("epanechnikov", "quartic", "triweight")


class Kernel:
    """Symmetric kernel density on [-1, 1] selected by name.

    Supported variants: "epanechnikov" (3/4)(1-u^2), "quartic"
    (15/16)(1-u^2)^2 and "triweight" (35/32)(1-u^2)^3.  All methods accept
    scalars or numpy arrays and vanish outside the support.
    """

    def __init__(self, name="epanechnikov"):
        name = str(name).lower()
        if name not in KERNEL_NAMES:
            raise ValueError(f"unknown kernel {name!r}; choose from {KERNEL_NAMES}")
        self.name = name

    def __repr__(self):
        return f"Kernel({self.name!r})"

    def __eq__(self, other):
        return isinstance(other, Kernel) and other.name == self.name

    def pdf(self, u):
        """k(u); the polynomial is formed only on the support |u| <= 1, and
        k is 0 outside it and at NaN."""
        u = np.asarray(u, dtype=float)
        inside = np.abs(u) <= 1.0
        v = u[inside]
        t = 1.0 - v * v
        if self.name == "epanechnikov":
            val = 0.75 * t
        elif self.name == "quartic":
            val = (15.0 / 16.0) * t * t
        else:
            val = (35.0 / 32.0) * t * t * t
        out = np.zeros(u.shape)
        out[inside] = val
        return out if out.ndim else float(out)

    def cdf(self, u):
        """G(u); G(x/h) smooths the indicator of x > 0 (1 for x >= h, 0 for
        x <= -h).  Outside the band -1 < u < 1 (NaN stays inside) G is
        written as exactly 1 or 0, the clipped polynomial's values at +-1."""
        u = np.asarray(u, dtype=float)
        above = u >= 1.0
        out = np.array(above, dtype=float)
        band = ~(above | (u <= -1.0))
        # a 0-d u keeps the clipped path, and with it numpy scalar arithmetic
        v = u[band] if u.ndim else np.clip(u, -1.0, 1.0)
        if self.name == "epanechnikov":
            val = 0.25 * (2.0 + 3.0 * v - v ** 3)
        elif self.name == "quartic":
            val = 0.5 + (15.0 / 16.0) * (v - (2.0 / 3.0) * v ** 3 + 0.2 * v ** 5)
        else:
            val = 0.5 + (35.0 / 32.0) * (v - v ** 3 + 0.6 * v ** 5 - v ** 7 / 7.0)
        # np.clip's values: the polynomial never gives -0.0, where the two
        # would differ
        out[band] = np.minimum(np.maximum(val, 0.0), 1.0)
        return out if out.ndim else float(out)
