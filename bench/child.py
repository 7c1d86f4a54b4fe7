"""One workload process, started by run.py.

Modes:
  setup  set up (imports, inputs, one warm-up op) and report when ready;
  timed  set up, run ops in a closed loop for --seconds (or until the
         workload's bank of inputs is used up), then re-run the first timed
         op's inputs and require byte-identical output;
  trace  set up, run --ops ops, each untraced and then traced
         (--traced-only skips the untraced runs).

Prints one JSON object on its last stdout line.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

from checks import compare, refs_path
from hostspeed import PROBE_EVERY_S, Prober

ROOT = Path(__file__).resolve().parents[1]


def _blas_threads(np):
    # numpy wheels bundle scipy-openblas; ask the loaded library directly
    import ctypes

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*"))
    for lib in libs:
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            return int(fn())
    return None


def _timed(wl, key, tracer=None):
    """Raw output of one op and its wall time; the op's inputs are built
    first, untimed and untraced."""
    inputs = wl.prepare(key)
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        raw = wl.op(inputs)
        dt = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return raw, dt


def _timed_loop(wl, seconds, probe):
    """Closed loop: run ops until their wall times add up to seconds, or
    until the workload's bank of inputs is used up.  Host-speed probes run
    before the first op, after the last, and between ops at least every
    PROBE_EVERY_S of op time, as (ops done, probe s) pairs."""
    keys, results, op_s, probes = [], [], [], [(0, probe())]
    since_probe = 0.0
    while not op_s or sum(op_s) < seconds:
        key = wl.key(len(keys))
        if key is None:
            break
        keys.append(key)
        raw, dt = _timed(wl, key)
        op_s.append(dt)
        since_probe += dt
        if since_probe >= PROBE_EVERY_S:
            probes.append((len(op_s), probe()))
            since_probe = 0.0
        results.append(wl.result(key, raw))
    if probes[-1][0] != len(op_s):
        probes.append((len(op_s), probe()))
    return keys, results, op_s, probes


def _traced_ops(wl, keys, tracer, untraced):
    """Run each op traced; with untraced, run it untraced just before, so
    that both timings of an op see the same machine state."""
    plain, plain_s, results, op_s = [], [], [], []
    for i, key in enumerate(keys):
        if untraced:
            raw, dt = _timed(wl, key)
            plain.append(wl.result(key, raw))
            plain_s.append(dt)
        tracer.op = i
        raw, dt = _timed(wl, key, tracer)
        results.append(wl.result(key, raw))
        op_s.append(dt)
    return plain, plain_s, results, op_s


def _check_all(wl, refs, keys, results):
    """Per-op check errors (reference and reference-free checks)."""
    errors = []
    for key, res in zip(keys, results):
        if res.error is not None or res.data is None:
            errs = [f"op raised or failed: {res.error}"]
        elif key not in refs:
            errs = [f"no reference output for input {key}"]
        else:
            errs = compare(refs[key], res.data) + wl.check(key, res)
        errors.append(errs)
    return errors


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    ap.add_argument("--ops", type=int, default=1)
    ap.add_argument("--traced-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spans", default=None, help="file for the recorded spans")
    ap.add_argument("--probe", default="small", help="host-speed probe kind")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import seel
    if Path(seel.__file__).resolve().parent != ROOT / "src" / "seel":
        raise SystemExit(f"imported seel from {seel.__file__}, not this checkout")
    from workloads import make_workload

    refs = json.loads(refs_path(args.workload, args.smoke).read_text("utf-8"))["outputs"]
    workdir = ROOT / "bench" / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        wl = make_workload(args.workload, args.seed, args.smoke, workdir)
        warm = wl.run(wl.warmup_key())
        ready = time.monotonic()
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        out = {"ready": ready, "numpy": np.__version__,
               "blas": f"{blas.get('name')} {blas.get('version')}",
               "blas_threads": _blas_threads(np)}
        if args.mode == "setup":
            print(json.dumps(out))
            return 0

        if args.mode == "timed":
            # run.py pinned BLAS to one thread
            probe = Prober(os.environ, args.probe)
            try:
                keys, results, op_s, probes = _timed_loop(wl, args.seconds, probe)
            finally:
                probe.close()
            again = wl.run(keys[0])
            out.update(op_s=op_s, probes=probes, deterministic=again.text == results[0].text,
                       bank_used_up=wl.key(len(keys)) is None)
        else:
            from tracer import Tracer

            keys = [k for k in map(wl.key, range(args.ops)) if k is not None]
            tracer = Tracer()
            plain, plain_s, results, op_s = _traced_ops(
                wl, keys, tracer, untraced=not args.traced_only)
            layer = tracer.metrics(op_s)
            if plain:
                layer["trace.overhead_share"] = sum(op_s) / sum(plain_s) - 1.0
                # each traced op re-ran the inputs of the untraced op before it
                out["deterministic"] = all(a.text == b.text
                                           for a, b in zip(plain, results))
            out.update(op_s=op_s, layer=layer, texts=[r.text for r in results])
            if args.spans:
                tracer.write_spans(args.spans)
        out.update(
            keys=keys,
            warmup_errors=_check_all(wl, refs, [wl.warmup_key()], [warm])[0],
            errors=_check_all(wl, refs, keys, results),
            attempted=[r.attempted for r in results],
            failed=[r.failed for r in results],
            peak_rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
