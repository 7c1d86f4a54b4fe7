"""Host-speed probe: rescales measured times to a nominal host speed.

The shared virtual machine this benchmark was tuned on ran the same code up
to twice as slow in periods lasting from seconds to minutes (CPU time slowed
with wall time, so no waiting was involved).  Ten 30 s runs then spread
their median op wall time by 10-34% of the median.  So every timed span is
bracketed by probes of a fixed numpy and Python kernel, and its time is
multiplied by the kernel's nominal time over the mean of the probes just
before and just after it.  The probe runs in a process of its own, so
nothing the measured program does or leaves behind (threads, memory,
patched modules) changes it.

There are two kernels, each matching the work of the ops it rescales:

  small  small-matrix linear algebra and plain Python arithmetic, the work
         of desk-scale fits (mc_desk, cli_csv); the least of three times,
         so that a brief stall does not count but a slow period does;
  large  passes over a 50 000 x 50 array (a singular value decomposition,
         a weighted Gram matrix, elementwise exp, a 50 x 50 solve), the work
         of fits over 50k rows (sweep_large); the mean of three times, as
         the 4-5 s ops it brackets take every stall in their span.  On the
         tuning VM the same 4 s sweep, repeated 48 times, spread its time by
         0.124 (inter-quartile range over median); rescaled by this kernel
         by 0.072, by the small one by 0.143.

Run as a program, ``hostspeed.py <kind>`` answers each line read on stdin
with the time of one probe of that kind, until stdin closes.
"""

import statistics
import subprocess
import sys
import time
from bisect import bisect_right

import numpy as np

# probe after the op that brings the op time since the last probe to this
PROBE_EVERY_S = 0.5


def _small_kernel():
    a = np.random.default_rng(0).standard_normal((200, 20))
    eye = np.eye(20)
    t0 = time.perf_counter()
    for i in range(200):
        np.linalg.solve(a.T @ a + eye, a[i % 200])
    x = 0
    for i in range(50_000):
        x += i * i
    return time.perf_counter() - t0


_LARGE = {}


def _large_kernel():
    if not _LARGE:
        rng = np.random.default_rng(0)
        _LARGE.update(x=rng.standard_normal((50_000, 50)),
                      r=rng.standard_normal(50_000), eye=np.eye(50))
    x, r = _LARGE["x"], _LARGE["r"]
    t0 = time.perf_counter()
    np.linalg.svd(x, compute_uv=False)
    g = x * r[:, None]
    g.T @ g
    np.exp(-np.abs(g)).sum(axis=0)
    np.linalg.solve(g.T @ x + _LARGE["eye"], x.T @ r)
    return time.perf_counter() - t0


# kind: (kernel, how three times make one probe, nominal probe time in s).
# The nominal times are about each probe's time on the 2-vCPU Xeon VM the
# benchmark was tuned on, in a fast period.
KINDS = {
    "small": (_small_kernel, min, 0.009),
    "large": (_large_kernel, statistics.fmean, 0.105),
}


def probe(kind):
    kernel, combine, _ = KINDS[kind]
    return combine([kernel() for _ in range(3)])


class Prober:
    """Client of a probe process; call it for one probe's time.  env must
    pin BLAS to one thread, as for the measured program: with more, the
    probe's solves run at another speed and depend on the other CPUs'
    load."""

    def __init__(self, env, kind):
        self.kind = kind
        self.proc = subprocess.Popen([sys.executable, __file__, kind], env=env,
                                     text=True, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)

    def __call__(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def rescale(t, before, after, kind):
    """t rescaled to the kind's nominal probe time, from the probes just
    before and after it."""
    return t * KINDS[kind][2] * 2.0 / (before + after)


def at_nominal(span_s, probes, kind):
    """Each of span_s rescaled.  probes holds (spans done, probe s) pairs in
    order, the first taken before span 0 and the last after the final span;
    span i uses the last probe before it and the next one after it."""
    done = [d for d, _ in probes]
    out = []
    for i, t in enumerate(span_s):
        k = bisect_right(done, i) - 1
        out.append(rescale(t, probes[k][1], probes[k + 1][1], kind))
    return out


if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(probe(sys.argv[1])), flush=True)
