"""Spans around calls into the public functions of each seel module.

Tracing rebinds each listed function in every ``seel.*`` module namespace
that holds it (names are looked up at call time, so ``seel.simulate.fit_l2``
and ``seel.estimators.fit_l2`` are both replaced) and wraps each listed
method on its class.  A span records its name, start, end, parent span, op
id and the exception type it raised, if any.  Spans stay in memory until
the run ends; ``metrics`` turns them into the per-layer numbers.
"""

import json
import sys
import time
from collections import defaultdict
from functools import wraps

import numpy as np

from seel import cli, el, estimators, inference, kernels, model, numkit, simulate

_RNG = "numkit.RngStream"


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


# counters: f(tracer, name, span, args, kwargs, result) -> None; result is
# None when the call raised (span[5] then holds the exception type)

def _elements(i, argname):
    def count(tr, name, span, args, kwargs, result):
        tr.counts[f"{name}.elements"] += int(np.size(_arg(args, kwargs, i, argname)))
    return count


def _rows(tr, name, span, args, kwargs, result):
    tr.counts[f"{name}.rows"] += _arg(args, kwargs, 0, "ds").n


def _draws(i):
    def count(tr, name, span, args, kwargs, result):
        # a draw method that another draw method called adds no draws
        if span[3] < 0 or tr.spans[span[3]][0] != _RNG:
            tr.counts[f"{_RNG}.draws"] += int(_arg(args, kwargs, i, "size"))
    return count


def _chi2_quantile(tr, name, span, args, kwargs, result):
    key = (float(_arg(args, kwargs, 0, "q")), int(_arg(args, kwargs, 1, "df")))
    tr.distinct[span[4]].add(key)


def _array_bytes(tr, name, span, args, kwargs, result):
    if result is not None:
        arrays = result if isinstance(result, tuple) else (result.X, result.delta)
        tr.counts[f"{name}.bytes"] += sum(int(a.nbytes) for a in arrays)


def _lambda_solver(tr, name, span, args, kwargs, result):
    if result is not None:
        tr.counts[f"{name}.iterations"] += int(result.iterations)
    elif span[5] == "HullViolationError":
        tr.counts[f"{name}.hull_violation"] += 1
    elif span[5] == "NoConvergenceError":
        tr.counts[f"{name}.no_convergence"] += 1


def _log_domain(tr, name, span, args, kwargs, result):
    if span[5] == "LogDomainError":
        tr.counts[f"{name}.log_domain"] += 1


def _fit(tr, name, span, args, kwargs, result):
    if result is not None:
        tr.counts[f"{name}.iterations"] += int(result.iterations)
    else:
        tr.counts["estimators.fit.failed"] += 1
        tr.counts[f"estimators.fit.failed.{span[5]}"] += 1


def _bic_sweep(tr, name, span, args, kwargs, result):
    cells = len(list(_arg(args, kwargs, 3, "eta_grid")))
    tr.counts[f"{name}.cells"] += cells
    failed = cells if result is None else cells - len(result[1])
    tr.counts[f"{name}.failed_cells"] += failed


def _monte_carlo(tr, name, span, args, kwargs, result):
    reps = _arg(args, kwargs, 0, "sc").replications
    tr.counts[f"{name}.replications"] += reps
    failed = reps if result is None else result.replications_failed
    tr.counts[f"{name}.replications_failed"] += failed


def _read_rows(tr, name, span, args, kwargs, result):
    if result is not None:
        tr.counts[f"{name}.rows"] += result.n


# (owner, attribute, span name, counter); a module owner means every seel
# module binding that function is rebound, a class owner means the method
# is wrapped on the class
TRACED = [
    (numkit, "chi2_quantile", "numkit.chi2_quantile", _chi2_quantile),
    (numkit, "chi2_sf", "numkit.chi2_sf", None),
    (numkit, "solve_spd", "numkit.solve_spd", None),
    (numkit, "solve_linear", "numkit.solve_linear", None),
    (numkit, "normal_quantile", "numkit.normal_quantile", _elements(0, "u")),
    (numkit.RngStream, "uniforms", _RNG, _draws(1)),
    (numkit.RngStream, "normals", _RNG, _draws(1)),
    (numkit.RngStream, "exponentials", _RNG, _draws(2)),
    (numkit.RngStream, "chi2_1", _RNG, _draws(1)),
    (numkit.RngStream, "bernoulli", _RNG, _draws(2)),
    (kernels.Kernel, "cdf", "kernels.Kernel.cdf", _elements(1, "u")),
    (kernels.Kernel, "pdf", "kernels.Kernel.pdf", _elements(1, "u")),
    (model, "moments", "model.moments", _rows),
    (model, "g_matrix", "model.g_matrix", _rows),
    (model.Dataset, "__init__", "model.Dataset.init", None),
    (model.Dataset, "complete_cases", "model.Dataset.complete_cases", _array_bytes),
    (model.Dataset, "select_columns", "model.Dataset.select_columns", _array_bytes),
    (el, "solve_lambda_exact", "el.solve_lambda_exact", _lambda_solver),
    (el, "lambda_approx", "el.lambda_approx", None),
    (el, "el_ratio_exact", "el.el_ratio_exact", _log_domain),
    (el, "el_ratio_approx", "el.el_ratio_approx", None),
    (estimators, "fit_a1", "estimators.fit_a1", _fit),
    (estimators, "fit_a2", "estimators.fit_a2", _fit),
    (estimators, "fit_l1", "estimators.fit_l1", _fit),
    (estimators, "fit_l2", "estimators.fit_l2", _fit),
    (estimators, "expectile_fit", "estimators.expectile_fit", None),
    (estimators, "pilot_estimate", "estimators.pilot_estimate", None),
    (inference, "el_ratio", "inference.el_ratio", None),
    (inference, "penalized_ratio", "inference.penalized_ratio", None),
    (inference, "wilks_test", "inference.wilks_test", None),
    (inference, "bic_sweep", "inference.bic_sweep", _bic_sweep),
    (inference, "empirical_tau", "inference.empirical_tau", None),
    (simulate.SimConfig, "resolved_tau", "simulate.SimConfig.resolved_tau", None),
    (simulate, "gen_design", "simulate.gen_design", None),
    (simulate, "gen_errors", "simulate.gen_errors", None),
    (simulate, "gen_missing", "simulate.gen_missing", None),
    (simulate, "run_monte_carlo", "simulate.run_monte_carlo", _monte_carlo),
    (cli, "read_dataset", "cli.read_dataset", _read_rows),
    (cli, "main", "cli.main", None),
]

# a span of the first name whose direct child has the second name used the
# fallback path
_FALLBACKS = {
    "inference.el_ratio": "el.el_ratio_approx",
    "inference.penalized_ratio": "inference.el_ratio",
}


class Tracer:
    """In-memory span recorder; install() rebinds, uninstall() restores."""

    def __init__(self):
        # span: [name, start, end, parent index, op id, exception type]
        self.spans = []
        self._child_s = []
        self._stack = []
        self._restore = []
        self.op = -1
        self.counts = defaultdict(int)
        self.distinct = defaultdict(set)

    def _wrap(self, fn, name, counter):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent, tracer.op, None]
            tracer.spans.append(span)
            tracer._child_s.append(0.0)
            tracer._stack.append(idx)
            result = None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
                if parent >= 0:
                    tracer._child_s[parent] += span[2] - span[1]
                if counter is not None:
                    counter(tracer, name, span, args, kwargs, result)
        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "seel" or key.startswith("seel.")]
        for owner, attr, name, counter in TRACED:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, counter)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._restore.append((owner, attr, original))
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def metrics(self, op_seconds):
        """Per-layer metrics from the recorded spans; op_seconds holds the
        harness-measured wall time of each traced op."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        fallback = defaultdict(int)
        top_s = 0.0
        for idx, (name, start, end, parent, _op, _exc) in enumerate(self.spans):
            calls[name] += 1
            total_s[name] += end - start
            self_s[name] += end - start - self._child_s[idx]
            if parent < 0:
                top_s += end - start
            elif self.spans[parent][0] in _FALLBACKS \
                    and _FALLBACKS[self.spans[parent][0]] == name:
                fallback[self.spans[parent][0]] += 1
        out = dict(self.counts)
        for name in {entry[2] for entry in TRACED}:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in _FALLBACKS:
            out[f"{name}.fallback_share"] = fallback[name] / calls[name] \
                if calls[name] else 0.0
        chi2 = "numkit.chi2_quantile"
        distinct = sum(len(pairs) for pairs in self.distinct.values())
        out[f"{chi2}.distinct_share"] = distinct / calls[chi2] if calls[chi2] else 0.0
        mc = "simulate.run_monte_carlo"
        out[f"{mc}.reps_per_s"] = out.get(f"{mc}.replications", 0) / total_s[mc] \
            if total_s[mc] else 0.0
        out["trace.coverage"] = top_s / sum(op_seconds)
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
