"""Data generators and the Monte Carlo harness.

Each replication m draws its own counter-based stream (base seed, stream m),
generates design, errors and missingness, fits the requested algorithms and
scores the coverage and selection metrics.  Replications are independent and
reduced in index order, so the report is a pure function of the configuration
no matter how many workers execute it.
"""

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .el import el_ratio_approx
from .errors import EstimationError
from .estimators import (expectile_fit, fit_a1, fit_a2, fit_l1, fit_l2,
                         pilot_estimate)
from .inference import el_ratio, zero_expectile_tau
from .kernels import Kernel
from .model import Dataset, ModelConfig, PenaltyConfig
from .numkit import RngStream, chi2_quantile

DESIGNS = ("d1", "d2")
ERROR_LAWS = ("normal", "shifted_exp")
MISSING_MECHANISMS = ("complete", "constant", "covariate")
ALGORITHMS = ("a1", "a2", "l1", "l2")

_EXP_MEAN = 1.5
_TAU_STREAM = 2 ** 48 + 7  # reserved stream id for the tau calibration draw
_MAX_FAILURE_SHARE = 0.10
_DRAW_BATCH = 2 ** 16  # design draws per batch, see gen_design

SCHEMA_VERSION = 4  # of every JSON report the package writes


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
        self.algorithms = tuple(str(a).lower() for a in self.algorithms)
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {a!r}")

    def resolved_eta(self):
        return PenaltyConfig.default_eta(self.n) if self.eta is None else self.eta

    def resolved_tau(self):
        """Default tau: 1/2 for normal errors, the zero-expectile level of a
        large calibration sample for the shifted exponential."""
        if self.tau is not None:
            return self.tau
        if self.errors == "normal":
            return 0.5
        rng = RngStream(self.seed, _TAU_STREAM)
        sample = gen_errors("shifted_exp", 10 ** 6, rng)
        return zero_expectile_tau(sample)

    def model_config(self, tau=None):
        if tau is None:
            tau = self.resolved_tau()
        return ModelConfig(tau=tau, h=self.h,
                           kernel=Kernel(self.kernel), nu=self.nu,
                           eps_zero=self.eps_zero, max_iter=self.max_iter)


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
            "mean_norm": self.mean_norm, "coverage": self.coverage,
            "zero_selection": self.zero_selection,
            "support_recovery": self.support_recovery,
        }

    def csv_record(self):
        """Header and row of the sim_cells.csv line, from one column list."""
        sc = self.config
        cells = [("n", sc.n), ("p", sc.p), ("design", sc.design),
                 ("errors", sc.errors), ("missing", sc.missing),
                 ("tau", repr(self.tau_used)), ("eta", repr(sc.resolved_eta())),
                 ("seed", sc.seed), ("replications_used", self.replications_used),
                 ("replications_failed", self.replications_failed),
                 ("cp", repr(self.cp)), ("cp_cr0", repr(self.cp_cr0))]
        for alg in sc.algorithms:
            cells.append((f"norm_{alg}", repr(self.mean_norm[alg])))
            cells.append((f"coverage_{alg}", repr(self.coverage[alg])))
            if alg in ("l1", "l2"):
                zs = self.zero_selection[alg]
                cells.append((f"zero_selection_{alg}",
                              "NaN" if zs is None else repr(zs)))
                cells.append((f"support_recovery_{alg}",
                              repr(self.support_recovery[alg])))
        header, row = zip(*cells)
        return list(header), list(row)

    def to_json(self, indent=2):
        return json.dumps(self.to_json_dict(), indent=indent)


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
    """Metrics of replication m, or None when a fit fails."""
    cfg = sc.model_config(tau)
    ds = _generate_dataset(sc, m)
    crit_p = chi2_quantile(1.0 - sc.alpha, sc.p)
    out = {}
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
        pilot = None
        if needs_pilot:
            pilot = fits["a2"].beta if sc.pilot_mode == "same" \
                else pilot_estimate(ds, cfg, mode="split")
            pen = PenaltyConfig(eta=sc.resolved_eta(), gamma=sc.gamma, pilot=pilot)
            if "l1" in sc.algorithms:
                fits["l1"] = fit_l1(ds, cfg, pen, start)
            if "l2" in sc.algorithms:
                fits["l2"] = fit_l2(ds, cfg, pen, start)

        true_zero = int(np.sum(sc.beta0 == 0.0))
        true_support = set(np.flatnonzero(sc.beta0).tolist())
        for alg in sc.algorithms:
            fit = fits[alg]
            out[f"norm_{alg}"] = float(np.linalg.norm(fit.beta - sc.beta0))
            if alg in ("a1", "a2"):
                out[f"cov_{alg}"] = el_ratio(ds, cfg, fit.beta)[0] <= crit_p
            else:
                active = fit.active_set
                if len(active):
                    sub = ds.select_columns(active)
                    stat, _ = el_ratio(sub, cfg, fit.beta[active])
                    covered = stat <= chi2_quantile(1.0 - sc.alpha, len(active))
                else:
                    covered = True
                out[f"cov_{alg}"] = covered
                out[f"zero_{alg}"] = (sc.p - len(active)) / true_zero \
                    if true_zero else None
                out[f"supp_{alg}"] = set(active.tolist()) == true_support
    except EstimationError:
        return None
    return out


def run_monte_carlo(sc, workers=1):
    """Run the full Monte Carlo cell and aggregate the summary metrics.

    Per-replication failures are counted and excluded from the averages; the
    run aborts if more than 10% of the replications fail.
    """
    tau = sc.resolved_tau()
    jobs = [(sc, tau, m) for m in range(sc.replications)]
    if workers > 1:
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
    if not kept:
        raise EstimationError("every replication failed")

    def mean_of(key):
        return float(np.mean([r[key] for r in kept]))

    report = SimReport(
        config=sc,
        replications_used=len(kept),
        replications_failed=failed,
        cp=mean_of("cp"),
        cp_cr0=mean_of("cp_cr0"),
        tau_used=tau,
    )
    for alg in sc.algorithms:
        report.mean_norm[alg] = mean_of(f"norm_{alg}")
        report.coverage[alg] = mean_of(f"cov_{alg}")
        if alg in ("l1", "l2"):
            vals = [r[f"zero_{alg}"] for r in kept]
            report.zero_selection[alg] = None if vals[0] is None \
                else float(np.mean(vals))
            report.support_recovery[alg] = mean_of(f"supp_{alg}")
    return report


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
