"""F_p kernel timings on fresh inputs, for each importable backend.

    PYTHONPATH=src python3 perfbench/kernels.py --seed 0

``rref`` reduces its argument in place, so every repeat reduces a fresh copy
of the same random matrix; reducing an already reduced matrix is about a
hundred times cheaper and would time the wrong thing.  The shapes sit in the
small, medium and large size buckets the tracer reports, at the prime the
decomposition path uses.  When both backends import, their pivots, reduced
matrices and products must be identical.

Prints one JSON line: ``{"metrics": {...}, "backends": {...}, "agree": bool}``
with each timing as the median over repeats, in microseconds, named
``fpkernel.rref.<backend>.<rows>x<cols>.us`` and
``fpkernel.matmul.<backend>.<n>x<k>x<m>.us``.
"""

import argparse
import json
import random
import statistics
import time

from glsw import _fp_fallback

try:
    from glsw import _fpcore
except ImportError:
    _fpcore = None

PRIME = 101
# (rows, cols, repeats): one shape per tracer size bucket
RREF_SHAPES = ((8, 12, 400), (30, 40, 40), (150, 180, 3))
# (n, k, m, repeats)
MATMUL_SHAPES = ((8, 8, 8, 400), (30, 30, 30, 40), (120, 120, 120, 3))


def backends():
    found = {"fallback": _fp_fallback}
    if _fpcore is not None:
        found["fpcore"] = _fpcore
    return found


def time_rref(rref, a, rows, cols, repeats):
    times = []
    for _ in range(repeats):
        fresh = list(a)
        t0 = time.perf_counter()
        rref(fresh, rows, cols, PRIME)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def time_matmul(matmul, a, b, n, k, m, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        matmul(a, b, n, k, m, PRIME)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def agree(impls, rng):
    """Whether every backend returns identical pivots, matrices and products."""
    if len(impls) < 2:
        return True
    for rows, cols, _ in RREF_SHAPES:
        # rank-deficient input exercises the no-pivot branches as well
        a = [rng.randrange(PRIME) if rng.random() < 0.7 else 0 for _ in range(rows * cols)]
        a[cols : 2 * cols] = a[:cols]
        results = []
        for mod in impls.values():
            work = list(a)
            pivots = mod.rref(work, rows, cols, PRIME)
            results.append((list(pivots), list(work)))
        if any(r != results[0] for r in results):
            return False
    for n, k, m, _ in MATMUL_SHAPES:
        a = [rng.randrange(PRIME) for _ in range(n * k)]
        b = [rng.randrange(PRIME) for _ in range(k * m)]
        products = [list(mod.matmul(a, b, n, k, m, PRIME)) for mod in impls.values()]
        if any(r != products[0] for r in products):
            return False
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    impls = backends()
    metrics = {}
    for rows, cols, repeats in RREF_SHAPES:
        a = [rng.randrange(PRIME) for _ in range(rows * cols)]
        for name, mod in impls.items():
            metrics[f"fpkernel.rref.{name}.{rows}x{cols}.us"] = time_rref(
                mod.rref, a, rows, cols, repeats
            )
    for n, k, m, repeats in MATMUL_SHAPES:
        a = [rng.randrange(PRIME) for _ in range(n * k)]
        b = [rng.randrange(PRIME) for _ in range(k * m)]
        for name, mod in impls.items():
            metrics[f"fpkernel.matmul.{name}.{n}x{k}x{m}.us"] = time_matmul(
                mod.matmul, a, b, n, k, m, repeats
            )
    status = {name: "present" if name in impls else "absent" for name in ("fallback", "fpcore")}
    print(json.dumps({"metrics": metrics, "backends": status, "agree": agree(impls, rng)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
