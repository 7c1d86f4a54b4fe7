"""Run one benchmark workload of seel and print its metrics.

    python3 bench/run.py --workload mc_desk --seed 1 --seconds 25 --trace 0

--trace 0 measures the end-to-end metrics; --trace 1 gives the per-layer
metrics of a traced run.  Each workload runs in fresh processes (child.py)
with BLAS pinned to one thread.  Every metric is printed by name with its
unit; the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  A record of the run, with machine metadata,
is written to bench/results/.  See bench/README.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import refs_path
from hostspeed import KINDS, Prober, at_nominal, rescale

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"

DEADLINE_S = 170.0  # a run must end within 180 s
# rough untraced op time, used only to size the traced run's fixed op count
NOMINAL_OP_S = {"mc_desk": 0.45, "sweep_large": 5.5, "cli_csv": 0.17}
MIN_TRACE_OPS = {"mc_desk": 2, "sweep_large": 1, "cli_csv": 4}
# set-up processes per run (setup_s is their median); more where set-up is
# cheap
SETUP_SAMPLES = {"mc_desk": 7, "sweep_large": 3, "cli_csv": 7}
# counts a traced run must see above 0: at least one per layer the workload
# calls, so that a layer the tracer stops seeing fails the run
REACHED = {
    "mc_desk": (
        "numkit.chi2_quantile.calls", "numkit.RngStream.draws",
        "numkit.solve_spd.calls", "kernels.Kernel.cdf.elements",
        "model.moments.rows", "model.g_matrix.rows",
        "el.el_ratio_exact.calls", "el.lambda_approx.calls",
        "estimators.fit_a1.calls", "estimators.fit_a2.calls",
        "estimators.fit_l1.calls", "estimators.fit_l2.calls",
        "estimators.expectile_fit.calls", "inference.el_ratio.calls",
        "simulate.SimConfig.resolved_tau.calls"),
    "sweep_large": (
        "numkit.solve_spd.calls", "kernels.Kernel.cdf.elements",
        "model.g_matrix.rows", "model.Dataset.complete_cases.bytes",
        "el.solve_lambda_exact.calls", "el.solve_lambda_exact.iterations",
        "estimators.fit_l2.calls", "estimators.expectile_fit.calls",
        "estimators.pilot_estimate.calls", "inference.penalized_ratio.calls",
        "inference.bic_sweep.cells"),
    "cli_csv": (
        "numkit.chi2_quantile.calls", "numkit.chi2_sf.calls",
        "kernels.Kernel.cdf.elements", "model.moments.rows",
        "model.Dataset.init.calls", "el.solve_lambda_exact.calls",
        "estimators.fit_a1.calls", "estimators.fit_a2.calls",
        "inference.wilks_test.calls", "inference.empirical_tau.calls",
        "inference.bic_sweep.cells", "cli.read_dataset.calls",
        "cli.read_dataset.rows"),
}
# the host-speed probe each workload's timing metrics are rescaled by
# (hostspeed.py): the kernel whose work matches the workload's ops
PROBE = {"mc_desk": "small", "sweep_large": "large", "cli_csv": "small"}
COUNT_UNITS = ("count", "bytes-computed")
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1",
}


class ChildError(RuntimeError):
    pass


def spawn(args, deadline):
    """Run child.py to completion; returns (its JSON result, spawn time)."""
    cmd = [sys.executable, str(BENCH / "child.py"), *map(str, args)]
    env = dict(os.environ, **CHILD_ENV)
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise ChildError(f"{' '.join(cmd[1:])} did not finish in time") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildError(f"{' '.join(cmd[1:])} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), start


def tail(op_s):
    """(value, percentile, samples beyond it) of the highest percentile with
    at least 10 samples beyond it.  Below 40 ops that percentile would lie
    below the 75th, or not exist, so there a quarter of the ops, rounded
    down, lie beyond it (at 6 ops: the second largest)."""
    s = sorted(op_s)
    beyond = min(10, len(s) // 4)
    return s[-1 - beyond], 100.0 * (len(s) - beyond) / len(s), beyond


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "platform": platform.platform(),
            "git_commit": commit}


def check_errors(child):
    """Failure messages of one child result, and the failed units per op."""
    errors = [f"warm-up op: {e}" for e in child["warmup_errors"]]
    failed = []
    for key, errs, att, fail in zip(child["keys"], child["errors"],
                                    child["attempted"], child["failed"]):
        errors.extend(f"op {key}: {e}" for e in errs)
        failed.append(att if errs else fail)
    if child.get("deterministic") is False:
        errors.append("re-running the first op's inputs changed its output bytes")
    if child["blas_threads"] not in (1, None):
        errors.append(f"BLAS runs {child['blas_threads']} threads, not 1")
    return errors, failed


def _software(child):
    return {k: child[k] for k in ("numpy", "blas", "blas_threads")}


def untraced(args, spec, deadline):
    base = ["--workload", args.workload, "--seed", args.seed] \
        + (["--smoke"] if args.smoke else [])
    # set-up-only processes run before and after the timed one, so that the
    # set-up times sample the machine at different moments of the run
    setups, setups_wall = [], []
    kind = PROBE[args.workload]
    prober = Prober(dict(os.environ, **CHILD_ENV), kind)
    try:
        def setup_only(count):
            for _ in range(count):
                before = prober()
                out, start = spawn(base + ["--mode", "setup"], deadline)
                setups_wall.append(out["ready"] - start)
                setups.append(rescale(setups_wall[-1], before, prober(), kind))

        first = (SETUP_SAMPLES[args.workload] - 1) // 2
        setup_only(first)
        before = prober()
        main, start = spawn(base + ["--mode", "timed", "--seconds", args.seconds,
                                    "--probe", kind], deadline)
        setups_wall.append(main["ready"] - start)
        setups.append(rescale(setups_wall[-1], before, main["probes"][0][1],
                              kind))
        setup_only(SETUP_SAMPLES[args.workload] - 1 - first)
    finally:
        prober.close()

    errors, failed = check_errors(main)
    attempted = sum(main["attempted"])
    op_s = at_nominal(main["op_s"], main["probes"], kind)
    wall = _timing(setups_wall, main["op_s"])
    values = _timing(setups, op_s)
    values.update({
        "success_share": 1.0 - sum(failed) / attempted,
        "peak_rss_mib": main["peak_rss_kib"] / 1024.0,
    })
    tail_s, tail_pct, beyond = tail(op_s)
    details = {
        "ops": len(op_s), "op_s_wall": main["op_s"], "op_s": op_s,
        "setups_s_wall": setups_wall, "setups_s": setups,
        "probes": main["probes"], "probe_kind": kind,
        "nominal_probe_s": KINDS[kind][2], "wall": wall,
        "op_s_tail_percentile": tail_pct, "op_s_tail_samples_beyond": beyond,
        "fail_share": sum(failed) / attempted, "units_failed": sum(failed),
        "keys": main["keys"], "bank_used_up": main["bank_used_up"],
        **_software(main),
    }
    return values, spec["end_to_end"], attempted, sum(failed), errors, details


def _timing(setups, op_s):
    return {"setup_s": statistics.median(setups),
            "ops_per_s": len(op_s) / sum(op_s),
            "op_s_p50": statistics.median(op_s),
            "op_s_tail": tail(op_s)[0]}


def traced(args, spec, deadline):
    n_ops = max(MIN_TRACE_OPS[args.workload],
                int(args.seconds / (2.5 * NOMINAL_OP_S[args.workload])))
    base = ["--workload", args.workload, "--seed", args.seed, "--mode", "trace",
            "--ops", n_ops] + (["--smoke"] if args.smoke else [])
    spans = results_path(args, "spans.jsonl")
    first, _ = spawn(base + ["--spans", spans], deadline)
    second, _ = spawn(base + ["--traced-only"], deadline)

    errors, failed = check_errors(first)
    errors += check_errors(second)[0]
    if first["texts"] != second["texts"]:
        errors.append("two traced processes gave different output bytes")
    layer = first["layer"]
    values = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if m["unit"] in COUNT_UNITS:
            values[name] = layer.get(name, 0)
            if second["layer"].get(name, 0) != values[name]:
                errors.append(f"count {name} differs between two traced runs: "
                              f"{values[name]} != {second['layer'].get(name, 0)}")
        elif name in layer:
            values[name] = layer[name]
        else:
            errors.append(f"traced run did not produce {name}")
    errors.extend(f"traced run saw no {name}" for name in REACHED[args.workload]
                  if not layer.get(name))
    details = {"ops": n_ops, "op_s": first["op_s"], "spans_file": str(spans),
               "all_layer_metrics": layer, "keys": first["keys"],
               **_software(first)}
    return (values, spec["per_layer"], sum(first["attempted"]), sum(failed),
            errors, details)


def results_path(args, suffix):
    out = BENCH / "results"
    out.mkdir(exist_ok=True)
    smoke = "-smoke" if args.smoke else ""
    return out / f"{args.workload}-seed{args.seed}-trace{args.trace}{smoke}.{suffix}"


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs on the same code path, for the test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "seel" / "__init__.py").is_file():
        print(f"error: no seel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    load_start = os.getloadavg()[0]
    started = time.time()
    try:
        values, specs, attempted, failed, errors, details = \
            (traced if args.trace else untraced)(args, spec, deadline)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in specs if m["name"] in values}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "started_unix": started,
        "machine": dict(machine(), load_1min_start=load_start,
                        load_1min_end=os.getloadavg()[0]),
        "reference_commit": json.loads(refs_path(args.workload, args.smoke)
                                       .read_text("utf-8"))["commit"],
        "errors": errors, "metrics": metrics, "details": details,
    }
    results_path(args, "json").write_text(json.dumps(record, indent=1), "utf-8")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(f"machine = {json.dumps(record['machine'])}")
    if "wall" in details:
        for name, value in details["wall"].items():
            print(f"wall time, not rescaled: {name} = {value:.6g}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
