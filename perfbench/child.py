"""One benchmark sample: a fresh interpreter that imports glsw and runs suites.

    PYTHONPATH=src python3 perfbench/child.py --seed 0 --trace 0 bc1 stability

Prints one JSON line: the monotonic clock when ``import glsw.cli`` (which
selects the F_p kernel) finished, wall and CPU time from the first suite call
to the last report, peak RSS, the sha256 of the canonical reports, each
suite's check verdicts, the host-speed probe's timings and, with
``--trace 1``, the per-layer metrics.  With no suites it only imports glsw
and times the probe, which is how set-up time is sampled.

The host-speed probe: this host's speed swings by up to 2x within seconds and
drifts over minutes as other tenants load it.  An interval timer runs a fixed
integer loop (``reference_loop``, which allocates nothing the garbage
collector tracks) every ``PROBE_INTERVAL_S`` of wall time inside the sample,
so its timings show how fast the host ran at the same moments as the suites.
run.py divides by their median; the probe's own time is reported so it can
be subtracted.  Traced samples run without it.
"""

import time

import glsw.cli  # noqa: F401  -- what `glsw verify` imports

READY = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

from glsw import decomposition, fpkernel, suites  # noqa: E402


PROBE_INTERVAL_S = 0.05
# setup probes time the loop this many times right after the import
SETUP_PROBE_LOOPS = 15


def reference_loop(n=3000):
    s = 0
    for i in range(n):
        s = (s * 31 + i) % 1000003
    return s


class SpeedProbe:
    """Times ``reference_loop`` on an interval timer while it is running."""

    def __init__(self):
        self.times = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference_loop()
        self.times.append(time.perf_counter() - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        # ignore, not default: a tick already pending must not kill the sample
        signal.signal(signal.SIGALRM, signal.SIG_IGN)


def probe_once():
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def canonical(report):
    """The bytes `glsw verify` prints for a report."""
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def run(names, seed, tracer=None):
    """Run the suites in order; return the sample record."""
    checks = {}
    digest = hashlib.sha256()
    probe = SpeedProbe()
    # the tracer and the probe both act only while they are entered
    with tracer if tracer is not None else probe:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for name in names:
            try:
                report = suites.run_suite(name, {"seed": seed})
            except decomposition.CertificationError as exc:
                report = {"suite": name, "error": f"CertificationError: {exc}"}
            digest.update(canonical(report).encode())
            checks[name] = [c["passed"] for c in report.get("checks", [])]
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
    out = {
        "ready": READY,
        "wall_s": wall,
        "cpu_s": cpu,
        "probe_total_s": sum(probe.times),
        "probe_median_s": statistics.median(probe.times) if probe.times else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": digest.hexdigest(),
        "checks": checks,
        "compiled": fpkernel.COMPILED,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics(wall)
        out["spans"] = {k: v[:2] for k, v in tracer.spans.items() if v[0]}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("suites", nargs="*")
    args = parser.parse_args(argv)
    if not args.suites:
        probe = statistics.median(probe_once() for _ in range(SETUP_PROBE_LOOPS))
        print(json.dumps({"ready": READY, "probe_median_s": probe}))
        return 0
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    print(json.dumps(run(args.suites, args.seed, tracer)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
