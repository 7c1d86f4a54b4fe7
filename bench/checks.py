"""Field-by-field comparison of an op's output with its recorded reference.

Integers, booleans, strings, None and list lengths must match exactly, so
counts, active sets, iteration numbers and exit codes cannot drift.  Floats
may differ by |a - b| <= ATOL + RTOL * max(|a|, |b|).

Why this tolerance: permuting the rows of cli_csv and sweep_large inputs,
which reorders every reduction over rows, changed no count, iteration number
or active set; values of ordinary size moved by at most 1.5e-14 relative and
values that are zero up to rounding (the ratio at the fitted beta, the
multiplier at a converged fit) by at most 2e-14 absolute.  RTOL and ATOL
leave a margin of about 1e5 and 50 over that for other summation orders,
such as batched matrix products.  A changed statistic moves values far more:
one more Newton step, a changed active set or pilot, another tau, or a
Monte Carlo replication that flips (1/50 of a rate).

Keys present in the output but not in the reference are ignored, so that
added diagnostics do not break the checks; ``schema_version`` may only grow.
"""

import math
from pathlib import Path

RTOL = 1e-9
ATOL = 1e-12


def compare(ref, out, path="$"):
    """List of mismatch descriptions; empty when out matches ref."""
    if isinstance(ref, dict):
        if not isinstance(out, dict):
            return [f"{path}: expected an object, got {out!r:.80}"]
        errors = []
        for key, value in ref.items():
            sub = f"{path}.{key}"
            if key not in out:
                errors.append(f"{sub}: missing")
            elif key == "schema_version":
                if not isinstance(out[key], int) or out[key] < value:
                    errors.append(f"{sub}: {out[key]!r} < reference {value!r}")
            else:
                errors.extend(compare(value, out[key], sub))
        return errors
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return [f"{path}: expected a list of {len(ref)}, got {out!r:.80}"]
        errors = []
        for i, (r, o) in enumerate(zip(ref, out)):
            errors.extend(compare(r, o, f"{path}[{i}]"))
        return errors
    if isinstance(ref, float) and isinstance(out, (int, float)) \
            and not isinstance(out, bool):
        if _close(ref, float(out)):
            return []
        return [f"{path}: {out!r} != reference {ref!r}"]
    if type(ref) is not type(out) or ref != out:
        return [f"{path}: {out!r:.80} != reference {ref!r:.80}"]
    return []


def _close(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= ATOL + RTOL * max(abs(a), abs(b))


def refs_path(workload, smoke):
    """File holding the reference outputs of a workload's input bank."""
    name = f"{workload}{'.smoke' if smoke else ''}.json"
    return Path(__file__).resolve().parent / "refs" / name
