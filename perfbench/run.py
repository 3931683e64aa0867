#!/usr/bin/env python3
"""The glsw benchmark: what a `glsw verify` user waits for, per workload.

    python3 perfbench/run.py --workload decompose --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 0 --holdout-seed 1 --seconds 30

Run from the root of a source checkout; glsw is imported from ``src/``.

Load model: a closed loop with one client.  Each sample is a fresh
single-threaded interpreter that imports glsw and calls ``suites.run_suite``
for every suite of the workload, so it pays what `glsw verify` users pay,
lazy cache fills included.  The next sample
starts when the previous one has ended, and samples are started until the
next one would end after ``--seconds``; there is always at least one.

``--trace 0`` reports the end-to-end metrics (``END_TO_END``), each the
median over the run's samples; times are scaled to a nominal host speed (see
``NOMINAL_PROBE_S``) and the unscaled ones are printed beside them.  ``--trace 1`` alternates untraced and traced
samples, and reports the per-layer metrics (``PER_LAYER``) built by
``tracer.py`` plus the F_p kernel timings of ``kernels.py``.

Every sample is checked: it must exit 0, every check of every suite must
pass, each suite must report its known number of checks, and all samples of a
run (traced or not) must produce the same sha256 digest of the canonical
reports.  Any miss counts against ``failed``; ``correct`` is true only when
nothing failed.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
KERNELS = os.path.join(HERE, "kernels.py")

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "decompose": ("decomposition",),
    "translate": ("bc1",),
    "lattice": ("stability",),
    "sweep": ("catalog", "euler", "family", "tubes", "null-family"),
}

# Suite seed of every timed run, what `glsw verify` uses by default.  The
# suites' cost depends on their seed more than any useful bound: rejection
# sampling and rational entry growth vary with the draws.  `decomposition`
# took 10.1-19.5 s at suite seeds 1-9; `bc1` 4.6-6.9 host-speed-scaled
# seconds at suite seeds 0-29; the sweep suites, even averaged over four
# suite seeds per sample, spread 13% between quartiles over ten workload
# seeds, against 3-7% for runs at one seed.  `stability` ignores its seed:
# the suite hard-codes the primes (3, 5).  --holdout-seed N reruns every
# workload at suite seed N, to re-check a claim on other inputs.
SUITE_SEED = 0

# Checks each suite reports; a suite that silently drops checks is a failure.
EXPECTED_CHECKS = {
    "catalog": 23,
    "bc1": 6,
    "family": 14,
    "stability": 10,
    "euler": 25,
    "decomposition": 6,
    "tubes": 4,
    "null-family": 3,
}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

KERNEL_METRICS = (
    "fpkernel.rref.fallback.8x12.us",
    "fpkernel.rref.fallback.30x40.us",
    "fpkernel.rref.fallback.150x180.us",
    "fpkernel.matmul.fallback.8x8x8.us",
    "fpkernel.matmul.fallback.30x30x30.us",
    "fpkernel.matmul.fallback.120x120x120.us",
)

# Per-layer metrics: tracer.py's metrics(), trace.overhead_frac and the
# kernel timings.  Counts, and ratios of counts, repeat exactly at a seed;
# the other metrics are times or ratios of times.
PER_LAYER = [*Tracer().metrics(1.0), "trace.overhead_frac", *KERNEL_METRICS]
COUNT_FIELDS = {
    "calls",
    "ops",
    "members",
    "spans",
    "rank_per_call",
    "qq_rref_per_call",
    "complete_frac",
    "cert_fail_frac",
}
PER_LAYER_UNITS = {
    "calls": "count",
    "ops": "count",
    "members": "count",
    "spans": "count",
    "self_s": "s",
    "us": "us",
    "rank_per_call": "count",
    "qq_rref_per_call": "count",
    "complete_frac": "ratio",
    "cert_fail_frac": "ratio",
    "coverage_frac": "ratio",
    "overhead_frac": "ratio",
}

# Host-speed scaling.  wall_s, cpu_s and setup_s are host-speed-scaled
# seconds: each measured time (less the probe's own time) times
# NOMINAL_PROBE_S / the median time of child.py's reference loop measured
# during that same sample.  On the 2-core Xeon host the benchmark was defined
# on, speed swung by up to 2x, and eight 25-second runs of `bc1` at one seed
# spread 19% between quartiles in wall time against 3% scaled.  The value
# below is about the loop's median there, so scaled times read as seconds on
# that host; it cancels out of any before/after ratio.
NOMINAL_PROBE_S = 0.3e-3

# Set-up samples taken at the start of every run.
SETUP_PROBES = 12
# A sample that runs longer than this is killed and counted as failed.
SAMPLE_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark cannot run here (no glsw source, or it fails to import)."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args, timeout=SAMPLE_TIMEOUT_S):
    """Run a perfbench script in a fresh interpreter; return (start, rc, json, stderr)."""
    cmd = [sys.executable, *args]
    start = time.monotonic()
    with subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            return start, -9, None, err
    lines = out.strip().splitlines()
    try:
        data = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        data = None
    return start, proc.returncode, data, err


def setup_probe():
    """Time from spawning an interpreter to `import glsw.cli` finishing:
    (raw seconds, host-speed-scaled seconds)."""
    start, rc, data, err = run_child([CHILD])
    if rc != 0 or data is None:
        raise BenchError(f"glsw does not import: {err.strip()[-500:]}")
    raw = data["ready"] - start
    return raw, raw * NOMINAL_PROBE_S / data["probe_median_s"]


def scaled(sample, key):
    """A sample's wall or CPU time less the probe's, at nominal host speed."""
    net = sample[key] - sample["probe_total_s"]
    if not sample["probe_median_s"]:
        return net
    return net * NOMINAL_PROBE_S / sample["probe_median_s"]


class Run:
    """Samples of one workload at one suite seed, and the checks made on them."""

    def __init__(self, workload, seed, suite_seed=SUITE_SEED):
        self.workload = workload
        self.suites = WORKLOADS[workload]
        self.seed = seed
        self.suite_seed = suite_seed
        self.samples = []
        self.traced = []
        self.setups = []
        self.digests = set()
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, count, problem):
        self.failed += count
        self.problems.append(problem)

    def sample(self, trace=False):
        """Run one fresh-interpreter sample and check its reports."""
        args = [CHILD, "--seed", str(self.suite_seed), "--trace", str(int(trace)), *self.suites]
        start, rc, data, err = run_child(args)
        expected = sum(EXPECTED_CHECKS[s] for s in self.suites)
        self.attempted += expected
        if rc != 0 or data is None:
            self.fail(expected, f"sample exited {rc}: {err.strip()[-300:]}")
            return
        bad = 0
        for suite in self.suites:
            verdicts = data["checks"].get(suite, [])
            if len(verdicts) != EXPECTED_CHECKS[suite]:
                self.problems.append(
                    f"{suite} reported {len(verdicts)} checks, expected {EXPECTED_CHECKS[suite]}"
                )
            bad += max(EXPECTED_CHECKS[suite] - len(verdicts), 0)
            bad += verdicts.count(False)
        if self.digests and data["digest"] not in self.digests:
            bad = expected
            self.problems.append(f"report digest {data['digest']} differs from {sorted(self.digests)}")
        self.digests.add(data["digest"])
        self.failed += min(bad, expected)
        (self.traced if trace else self.samples).append(data)


def measure(workload, seed, seconds, trace, suite_seed=SUITE_SEED):
    """One run of the benchmark; returns (run, metrics, facts)."""
    t0 = time.monotonic()
    run = Run(workload, seed, suite_seed)
    facts = run_facts(seed, suite_seed)
    for _ in range(SETUP_PROBES):
        run.setups.append(setup_probe())
    metrics = {}
    if trace:
        metrics.update(kernel_metrics(run, facts))
    durations = []
    while True:
        a = time.monotonic()
        if trace:
            # alternate which side runs first so drift hits both alike
            order = (False, True) if len(run.traced) % 2 == 0 else (True, False)
            for traced in order:
                run.sample(trace=traced)
        else:
            run.sample()
        durations.append(time.monotonic() - a)
        if time.monotonic() - t0 + statistics.median(durations) > seconds:
            break
    facts["compiled"] = next((s["compiled"] for s in run.samples + run.traced), None)
    metrics.update(layer_metrics(run) if trace else end_to_end(run))
    return run, metrics, facts


def kernel_metrics(run, facts):
    start, rc, kern, err = run_child([KERNELS, "--seed", str(run.seed)])
    run.attempted += 1
    if rc != 0 or kern is None or not kern["agree"]:
        run.fail(1, f"kernel timing failed or backends disagree: {err.strip()[-300:]}")
        return {}
    facts["kernel_backends"] = kern["backends"]
    return kern["metrics"]


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(run):
    return {
        "wall_s": _median(scaled(s, "wall_s") for s in run.samples),
        "cpu_s": _median(scaled(s, "cpu_s") for s in run.samples),
        "setup_s": _median(s for _, s in run.setups),
        "peak_rss_mb": _median(s["peak_rss_mb"] for s in run.samples),
    }


def layer_metrics(run):
    """Medians of the traced times; counts, which must repeat exactly."""
    if not run.traced:
        return {}
    layers = [s["layers"] for s in run.traced]
    out = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        if name.rsplit(".", 1)[1] not in COUNT_FIELDS:
            out[name] = statistics.median(values)
            continue
        if any(v != values[0] for v in values):
            run.fail(1, f"count {name} differs between traced samples: {values}")
        out[name] = values[0]
    if run.samples:
        out["trace.overhead_frac"] = (
            _median(s["wall_s"] for s in run.traced) / _median(s["wall_s"] for s in run.samples) - 1
        )
    return out


def run_facts(seed, suite_seed):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "glsw_pure": bool(os.environ.get("GLSW_PURE")),
        "seed": seed,
        "suite_seed": suite_seed,
        "loadavg_1m": os.getloadavg()[0],
    }


def unit_of(name):
    if name in END_TO_END:
        return END_TO_END[name]
    return PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


def describe(run, metrics, facts, trace):
    """Human-readable lines printed before the result."""
    lines = [f"facts {json.dumps(facts, sort_keys=True)}"]
    for digest in sorted(run.digests):
        lines.append(f"digest {run.workload} suite_seed={run.suite_seed} sha256={digest}")
    walls = sorted(scaled(s, "wall_s") for s in run.samples)
    n = len(walls)
    # highest percentile with at least ten samples above it
    tail = f"p{100 * (n - 10) // n}={walls[n - 11]:.4f} s" if n > 10 else "none (n <= 10)"
    lines.append(
        f"samples {run.workload}: untraced={n} traced={len(run.traced)} "
        f"setup={len(run.setups)}; wall_s tail percentile: {tail}"
    )
    if run.samples and not trace:
        speed = _median(s["probe_median_s"] / NOMINAL_PROBE_S for s in run.samples)
        lines.append(
            f"unscaled: wall_s {_median(s['wall_s'] for s in run.samples):.6g} s, "
            f"cpu_s {_median(s['cpu_s'] for s in run.samples):.6g} s, "
            f"setup_s {_median(raw for raw, _ in run.setups):.6g} s; "
            f"host slowness (probe / nominal) {speed:.3g}"
        )
    lines.extend(f"FAIL {problem}" for problem in run.problems)
    frac = run.failed / run.attempted
    lines.append(f"fail_frac {frac:.6g} ratio ({run.failed}/{run.attempted} checks)")
    lines.extend(f"{name} {value:.6g} {unit_of(name)}" for name, value in metrics.items())
    if trace and run.traced:
        lines.append("top spans by self time (first traced sample):")
        spans = sorted(run.traced[0]["spans"].items(), key=lambda kv: -kv[1][1])
        for name, (calls, self_s) in spans[:20]:
            lines.append(f"  {name:<48} calls={calls:<9} self_s={self_s:.4f}")
    return lines


def result_line(run, metrics, trace):
    """The JSON object the benchmark ends with: exactly the declared metrics."""
    names = PER_LAYER if trace else list(END_TO_END)
    return json.dumps(
        {
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {n: {"value": metrics.get(n, 0.0), "unit": unit_of(n)} for n in names},
        }
    )


def summary_table(results):
    names = list(END_TO_END)
    header = ["workload", "suite_seed", "fail_frac [ratio]"] + [f"{n} [{unit_of(n)}]" for n in names]
    rows = [header]
    for run, metrics in results:
        frac = run.failed / run.attempted
        rows.append(
            [run.workload, str(run.suite_seed), f"{frac:.3g}"]
            + [f"{metrics.get(n, 0.0):.4g}" for n in names]
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in rows)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=0, help="seed of the kernel-timing inputs")
    parser.add_argument(
        "--holdout-seed",
        type=int,
        default=None,
        help="also run every workload at this suite seed, to re-check a claim on other inputs",
    )
    parser.add_argument("--seconds", type=float, default=30, help="length of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "glsw", "__init__.py")):
        print(f"no glsw source under {SRC}", file=sys.stderr)
        return 2
    plan = []
    for workload in sorted(WORKLOADS) if args.all else [args.workload]:
        plan.append((workload, SUITE_SEED))
        if args.holdout_seed is not None:
            plan.append((workload, args.holdout_seed))
    results = []
    try:
        for workload, suite_seed in plan:
            run, metrics, facts = measure(workload, args.seed, args.seconds, args.trace, suite_seed)
            print("\n".join(describe(run, metrics, facts, args.trace)), flush=True)
            results.append((run, metrics))
    except BenchError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if len(results) == 1:
        print(result_line(*results[0], args.trace))
    elif not args.trace:
        print(summary_table(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
