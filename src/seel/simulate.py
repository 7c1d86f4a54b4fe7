"""Data generators and the Monte Carlo harness.

Each replication m draws its own counter-based stream (base seed, stream m),
generates design, errors and missingness, fits the requested algorithms and
scores the coverage and selection metrics.  Replications are independent and
reduced in index order, so the report is a pure function of the configuration
no matter how many workers execute it.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .el import el_ratio_approx
from .errors import EstimationError
from .estimators import (expectile_fit, fit_a1, fit_a2, fit_l1, fit_l2,
                         pilot_estimate)
from .inference import _tau_of_masses, check_alpha, el_ratio
from .kernels import Kernel
from .model import SOLVER_FIELDS, Dataset, ModelConfig, PenaltyConfig
from .numkit import RngStream, chi2_quantile

DESIGNS = ("d1", "d2")
ERROR_LAWS = ("normal", "shifted_exp")
MISSING_MECHANISMS = ("complete", "constant", "covariate")
ALGORITHMS = ("a1", "a2", "l1", "l2")
# the per-algorithm metrics of a SimReport, each a dict keyed by algorithm;
# the selection rates are defined for l1 and l2 only
METRICS = ("mean_norm", "coverage", "zero_selection", "support_recovery")

_EXP_MEAN = 1.5
_TAU_STREAM = 2 ** 48 + 7  # reserved stream id for the tau calibration draw
_MAX_FAILURE_SHARE = 0.10
_DRAW_BATCH = 2 ** 16  # design draws per batch, see gen_design

SCHEMA_VERSION = 5  # of every JSON report the package writes


@dataclass
class SimConfig:
    """One Monte Carlo configuration cell."""

    n: int
    p: int
    beta0: np.ndarray
    design: str = "d1"
    errors: str = "shifted_exp"
    missing: str = "complete"
    pi: float = 0.8
    tau: float | None = None
    h: float | None = None
    eta: float | None = None
    gamma: float = PenaltyConfig.gamma
    alpha: float = 0.05
    replications: int = 100
    algorithms: tuple = ("a2", "l2")
    seed: int = 0
    kernel: str = Kernel().name
    nu: float = ModelConfig.nu
    eps_zero: float = ModelConfig.eps_zero
    max_iter: int = ModelConfig.max_iter
    pilot_mode: str = "split"

    def __post_init__(self):
        self.beta0 = np.array(self.beta0, dtype=float).ravel()
        if self.beta0.shape != (self.p,):
            raise ValueError("beta0 must have p entries")
        if not self.n > self.p >= 1:
            raise ValueError("need n > p >= 1")
        if self.design not in DESIGNS:
            raise ValueError(f"design must be one of {DESIGNS}")
        if self.errors not in ERROR_LAWS:
            raise ValueError(f"errors must be one of {ERROR_LAWS}")
        if self.missing not in MISSING_MECHANISMS:
            raise ValueError(f"missing must be one of {MISSING_MECHANISMS}")
        if self.missing == "constant" and not 0.0 < self.pi <= 1.0:
            raise ValueError("pi must lie in (0, 1]")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if self.pilot_mode not in ("same", "split"):
            raise ValueError("pilot mode must be 'same' or 'split'")
        check_alpha(self.alpha)
        # the configs every replication builds, built once so that a bad
        # tau, h, kernel, tolerance, eta or gamma fails here
        self.model_config(0.5 if self.tau is None else self.tau)
        PenaltyConfig(eta=self.resolved_eta(), gamma=self.gamma)
        self.algorithms = tuple(str(a).strip().lower()
                                for a in self.algorithms)
        for i, a in enumerate(self.algorithms):
            if a not in ALGORITHMS or a in self.algorithms[:i]:
                raise ValueError(f"unknown or repeated algorithm {a!r}")

    def resolved_eta(self):
        return PenaltyConfig.default_eta(self.n) if self.eta is None else self.eta

    def resolved_tau(self):
        """Default tau: 1/2 for normal errors, the zero-expectile level of a
        calibration sample of 10^6 draws for the shifted exponential.

        The sample is drawn in blocks of _DRAW_BATCH, and each block's
        positive and negative errors are compressed, in draw order, into
        two buffers: their sums, and so tau, are the bits of one full draw
        (zero_expectile_tau of gen_errors(..., 10 ** 6, ...)), but no
        full-size sample or mask is ever formed.
        """
        if self.tau is not None:
            return self.tau
        if self.errors == "normal":
            return 0.5
        rng = RngStream(self.seed, _TAU_STREAM)
        size = 10 ** 6
        pos, neg = np.empty(size), np.empty(size)
        n_pos = n_neg = 0
        for i0 in range(0, size, _DRAW_BATCH):
            e = gen_errors("shifted_exp", min(_DRAW_BATCH, size - i0), rng)
            mask = e > 0.0
            k = int(np.count_nonzero(mask))
            np.compress(mask, e, out=pos[n_pos:n_pos + k])
            n_pos += k
            np.less(e, 0.0, out=mask)
            k = int(np.count_nonzero(mask))
            np.compress(mask, e, out=neg[n_neg:n_neg + k])
            n_neg += k
        return _tau_of_masses(float(np.sum(pos[:n_pos])),
                              float(-np.sum(neg[:n_neg])))

    def model_config(self, tau):
        return ModelConfig(tau=tau, **{k: getattr(self, k) for k in SOLVER_FIELDS})


@dataclass
class SimReport:
    """Aggregated Monte Carlo metrics for one configuration cell."""

    config: SimConfig
    replications_used: int
    replications_failed: int
    cp: float
    cp_cr0: float
    mean_norm: dict = field(default_factory=dict)
    coverage: dict = field(default_factory=dict)
    zero_selection: dict = field(default_factory=dict)
    support_recovery: dict = field(default_factory=dict)
    tau_used: float = 0.5

    def to_json_dict(self):
        sc = self.config
        return {
            "schema_version": SCHEMA_VERSION,
            "n": sc.n, "p": sc.p, "beta0": sc.beta0.tolist(),
            "design": sc.design, "errors": sc.errors,
            "missing": sc.missing, "pi": sc.pi if sc.missing == "constant" else None,
            "tau": self.tau_used, "h": sc.h, "eta": sc.resolved_eta(),
            "gamma": sc.gamma, "alpha": sc.alpha, "seed": sc.seed,
            "algorithms": list(sc.algorithms), "pilot_mode": sc.pilot_mode,
            "replications": sc.replications,
            "replications_used": self.replications_used,
            "replications_failed": self.replications_failed,
            "cp": self.cp, "cp_cr0": self.cp_cr0,
            **{key: getattr(self, key) for key in METRICS},
        }

    def csv_record(self):
        """Header and row of the sim_cells.csv line, from to_json_dict: per
        algorithm, each metric it has, the column named without "mean_"; an
        undefined selection rate is written "NaN"."""
        d = self.to_json_dict()
        cells = [(k, d[k]) for k in (
            "n", "p", "design", "errors", "missing", "tau", "eta", "seed",
            "replications_used", "replications_failed", "cp", "cp_cr0")]
        cells += [(f"{key.removeprefix('mean_')}_{alg}", d[key][alg])
                  for alg in d["algorithms"] for key in METRICS
                  if alg in d[key]]
        header, row = zip(*cells)
        return list(header), ["NaN" if v is None else str(v) for v in row]

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2)


def gen_design(design, n, p, rng):
    """Design matrix draw: d1 is standard normal; d2 gives column j (1-based)
    chi-square(1) + j^2/n except column 3, which stays standard normal."""
    if design == "d1":
        # whole rows, at most _DRAW_BATCH numbers (or one row) at a time: the
        # same bytes and counter as one normals(n * p), and bounded
        # temporaries of the draw
        X = np.empty((n, p))
        rows = max(1, _DRAW_BATCH // p)
        for i0 in range(0, n, rows):
            k = min(rows, n - i0)
            X[i0:i0 + k] = rng.normals(k * p).reshape(k, p)
        return X
    # column j takes the j-th block of n consecutive draws, as p calls of
    # normals(n) would; whole columns are drawn together, at most
    # _DRAW_BATCH numbers (or one column) at a time, which bounds the
    # temporaries of the draw and of the squaring
    X = np.empty((n, p))
    width = max(1, _DRAW_BATCH // n)
    for j0 in range(0, p, width):
        cols = np.arange(j0, min(p, j0 + width))
        Z = rng.normals(n * cols.size).reshape(cols.size, n).T
        chi2 = cols != 2
        Z[:, chi2] = Z[:, chi2] ** 2 + (cols[chi2] + 1) ** 2 / n
        X[:, j0:j0 + cols.size] = Z
    return X


def gen_errors(law, n, rng):
    """Error draw: standard normal, or exponential(mean 1.5) shifted to mean
    zero (right-skewed, support bounded below at -1.5)."""
    if law == "normal":
        return rng.normals(n)
    e = rng.exponentials(_EXP_MEAN, n)
    e -= _EXP_MEAN
    return e


def missing_probability(X):
    """Covariate-driven observation probabilities, averaged over columns.

    Per entry: 0.8 + 0.2|x - 1| when |x - 1| <= 1, else 0.95; the row value
    is the mean over the p covariates and always lies in [0.8, 0.95].
    """
    d = np.abs(X - 1.0)
    per_entry = np.where(d <= 1.0, 0.8 + 0.2 * d, 0.95)
    return per_entry.mean(axis=1)


def gen_missing(mechanism, X, rng, pi=0.8):
    """Missingness flags: all observed, Bernoulli(pi), or covariate-driven."""
    n = X.shape[0]
    if mechanism == "complete":
        return np.ones(n, dtype=np.uint8)
    if mechanism == "constant":
        return rng.bernoulli(pi, n)
    probs = missing_probability(X)
    return (rng.uniforms(n) < probs).astype(np.uint8)


def _generate_dataset(sc, stream_id):
    rng = RngStream(sc.seed, stream_id)
    X = gen_design(sc.design, sc.n, sc.p, rng)
    eps = gen_errors(sc.errors, sc.n, rng)
    delta = gen_missing(sc.missing, X, rng, sc.pi)
    y = X @ sc.beta0 + eps
    y = np.where(delta == 1, y, np.nan)
    return Dataset(X, y, delta)


def _replicate(sc, tau, m):
    """Metrics of replication m, or None when a fit fails: cp, cp_cr0 and
    one dict per METRICS entry keyed by algorithm."""
    cfg = sc.model_config(tau)
    ds = _generate_dataset(sc, m)
    crit_p = chi2_quantile(1.0 - sc.alpha, sc.p)
    out = {key: {} for key in METRICS}
    norm, coverage, zero, support = (out[key] for key in METRICS)
    try:
        out["cp"] = el_ratio(ds, cfg, sc.beta0)[0] <= crit_p
        out["cp_cr0"] = el_ratio_approx(ds, cfg, sc.beta0) <= crit_p

        needs_pilot = any(a in ("l1", "l2") for a in sc.algorithms)
        # every fit on ds starts from the same expectile fit, computed once
        start = expectile_fit(ds, cfg.tau) if sc.algorithms else None
        fits = {}
        if "a1" in sc.algorithms:
            fits["a1"] = fit_a1(ds, cfg, start)
        if "a2" in sc.algorithms or (needs_pilot and sc.pilot_mode == "same"):
            fits["a2"] = fit_a2(ds, cfg, start)
        if needs_pilot:
            pilot = fits["a2"].beta if sc.pilot_mode == "same" \
                else pilot_estimate(ds, cfg, mode=sc.pilot_mode)
            pen = PenaltyConfig(eta=sc.resolved_eta(), gamma=sc.gamma, pilot=pilot)
            if "l1" in sc.algorithms:
                fits["l1"] = fit_l1(ds, cfg, pen, start)
            if "l2" in sc.algorithms:
                fits["l2"] = fit_l2(ds, cfg, pen, start)

        true_zero = int(np.sum(sc.beta0 == 0.0))
        true_support = set(np.flatnonzero(sc.beta0).tolist())
        for alg in sc.algorithms:
            fit = fits[alg]
            norm[alg] = float(np.linalg.norm(fit.beta - sc.beta0))
            if alg in ("a1", "a2"):
                coverage[alg] = el_ratio(ds, cfg, fit.beta)[0] <= crit_p
            else:
                active = fit.active_set
                if len(active):
                    sub = ds.select_columns(active)
                    stat, _ = el_ratio(sub, cfg, fit.beta[active])
                    covered = stat <= chi2_quantile(1.0 - sc.alpha, len(active))
                else:
                    covered = True
                coverage[alg] = covered
                zero[alg] = (sc.p - len(active)) / true_zero \
                    if true_zero else None
                support[alg] = set(active.tolist()) == true_support
    except EstimationError:
        return None
    return out


def run_monte_carlo(sc, workers=1):
    """Run the full Monte Carlo cell and aggregate the summary metrics.

    Per-replication failures are counted and excluded from the averages; the
    run aborts if more than 10% of the replications fail.  They run in
    min(workers, replications, CPU count) processes when that exceeds 1.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    tau = sc.resolved_tau()
    jobs = [(sc, tau, m) for m in range(sc.replications)]
    workers = min(workers, sc.replications, os.cpu_count() or 1)
    if workers > 1:
        # imported here, so that no serial run loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replicate, *zip(*jobs), chunksize=8))
    else:
        results = [_replicate(*job) for job in jobs]

    kept = [r for r in results if r is not None]
    failed = len(results) - len(kept)
    if failed > _MAX_FAILURE_SHARE * sc.replications:
        raise EstimationError(
            f"{failed}/{sc.replications} replications failed; aborting"
        )

    def mean_of(values):
        # a selection rate is None in every replication exactly when beta0
        # has no zero, and stays None
        return None if values[0] is None else float(np.mean(values))

    return SimReport(
        config=sc,
        replications_used=len(kept),
        replications_failed=failed,
        cp=mean_of([r["cp"] for r in kept]),
        cp_cr0=mean_of([r["cp_cr0"] for r in kept]),
        tau_used=tau,
        **{key: {alg: mean_of([r[key][alg] for r in kept])
                 for alg in kept[0][key]} for key in METRICS},
    )


def _sparse_beta(p, entries, fill=0.0):
    beta = np.full(p, fill)
    for j, v in entries.items():
        beta[j] = v
    return beta


# named desk-scale configurations mirroring the simulation studies
PRESETS = {
    # sparse truth, beta_3 = 1, beta_5 = 2 (main text values)
    "table1": dict(n=500, p=5, beta0=_sparse_beta(5, {2: 1.0, 4: 2.0}),
                   design="d1", errors="shifted_exp", missing="complete",
                   algorithms=("a1", "a2", "l1", "l2"), replications=50),
    # swapped variant: beta_3 = 2, beta_5 = 1
    "table1-caption": dict(n=500, p=5, beta0=_sparse_beta(5, {2: 2.0, 4: 1.0}),
                           design="d1", errors="shifted_exp",
                           missing="complete",
                           algorithms=("a1", "a2", "l1", "l2"),
                           replications=50),
    # every coefficient nonzero: selection rate is undefined (NaN)
    "table2": dict(n=500, p=5,
                   beta0=_sparse_beta(5, {2: 2.0, 4: 1.0}, fill=1.0),
                   design="d1", errors="shifted_exp", missing="complete",
                   algorithms=("a2", "l2"), replications=50),
    # coverage-versus-missingness figures: p = 10, support {3, 5, 7}
    "fig-coverage": dict(n=1000, p=10,
                         beta0=_sparse_beta(10, {2: 1.0, 4: 2.0, 6: -1.0}),
                         design="d2", errors="shifted_exp",
                         missing="constant", pi=0.8,
                         algorithms=("a2", "l2"), replications=50),
    # selection-rate figures: complete data, large n
    "fig-selection": dict(n=2000, p=10,
                          beta0=_sparse_beta(10, {2: 1.0, 4: 2.0, 6: -1.0}),
                          design="d2", errors="shifted_exp",
                          missing="complete",
                          algorithms=("l2",), replications=50),
}


def preset_config(name, **overrides):
    """SimConfig of the named entry of PRESETS, with overrides applied."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return SimConfig(**{**PRESETS[name], **overrides})
