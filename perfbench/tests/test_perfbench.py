"""Tests of the benchmark itself: the wrap guard, the tracer's bindings,
digest invariance under tracing, exact repeat of counts, trace coverage, the
kernel comparison and the result-line contract.

    python3 -m pytest -q perfbench/tests

Samples run in fresh interpreters, as in the benchmark, on the two cheap
workloads `lattice` and `sweep`; the whole file takes about half a minute.
"""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import kernels  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from glsw import exact, reps, stability  # noqa: E402


def test_wrap_guard_fails_loudly_on_a_renamed_function(monkeypatch):
    monkeypatch.delattr(reps, "hom_basis")
    with pytest.raises(tracer.WrapError, match="glsw.reps.hom_basis"):
        tracer.Tracer().install()
    # nothing was patched before the guard fired
    assert not hasattr(stability.rref, "__wrapped__")


def test_wrap_guard_covers_methods(monkeypatch):
    monkeypatch.delattr(exact.Mat, "__mul__")
    with pytest.raises(tracer.WrapError, match="glsw.exact.Mat.__mul__"):
        tracer.Tracer().install()


def test_every_module_binding_is_patched_and_restored():
    originals = (exact.rref, exact.Mat.__mul__, exact.Mat.__dict__["from_rows"])
    with tracer.Tracer() as t:
        # `from glsw.exact import rref` in reps and stability sees the wrapper
        for mod in (exact, reps, stability):
            assert mod.rref.__wrapped__ is originals[0]
        assert exact.Mat.__mul__.__wrapped__ is originals[1]
        m = exact.Mat.from_rows([[1, 2], [3, 4]], 5)
        stability.rref(m * m)
        assert t.spans["exact.Mat.from_rows"][0] == 1
        assert t.spans["exact.Mat.__mul__"][0] == 1
        assert t.spans["exact.rref"][0] == 1
        assert t.spans["fpkernel.rref"][0] == 1
        assert t.buckets["fpkernel.rref.small"] == [1, pytest.approx(t.spans["fpkernel.rref"][1]), 8]
    assert exact.rref is reps.rref is stability.rref is originals[0]
    assert exact.Mat.__mul__ is originals[1]
    assert exact.Mat.__dict__["from_rows"] is originals[2]


def test_self_times_partition_the_traced_time():
    with tracer.Tracer() as t:
        m = exact.Mat.from_rows([[1, 2, 0], [0, 1, 1], [1, 0, 1]], 7)
        exact.kernel_basis(m)
    # kernel_basis's self time excludes the rref and kernel spans it caused
    total = sum(s[1] for s in t.spans.values())
    assert t.spans["exact.kernel_basis"][1] < total
    assert all(s[1] >= 0 for s in t.spans.values())


@pytest.fixture(scope="module")
def lattice_run():
    """Two untraced and two traced samples of the seed-free lattice workload."""
    r = run.Run("lattice", 0)
    for traced in (False, True, True, False):
        r.sample(trace=traced)
    return r


def test_samples_pass_and_digest_is_invariant_under_tracing(lattice_run):
    assert lattice_run.failed == 0, lattice_run.problems
    assert len(lattice_run.samples) == len(lattice_run.traced) == 2
    assert len(lattice_run.digests) == 1


def test_counts_repeat_exactly_and_times_are_medians(lattice_run):
    metrics = run.layer_metrics(lattice_run)
    assert lattice_run.failed == 0, lattice_run.problems
    first, second = (s["layers"] for s in lattice_run.traced)
    counts = [n for n in first if n.rsplit(".", 1)[1] in run.COUNT_FIELDS]
    assert counts
    assert all(first[n] == second[n] for n in counts)
    assert metrics["stability.submodules.calls"] == 10
    assert metrics["stability.submodules.complete_frac"] == 1.0
    assert "trace.overhead_frac" in metrics


@pytest.mark.parametrize("workload", ["lattice", "sweep"])
def test_trace_covers_at_least_nine_tenths(lattice_run, workload):
    r = lattice_run if workload == "lattice" else run.Run("sweep", 0)
    if not r.traced:
        r.sample(trace=True)
    assert r.failed == 0, r.problems
    assert r.traced[0]["layers"]["trace.coverage_frac"] >= 0.90


def test_a_changed_digest_counts_as_failed():
    r = run.Run("lattice", 0)
    r.digests.add("0" * 64)
    r.sample()
    assert r.failed == run.EXPECTED_CHECKS["stability"]
    assert any("digest" in p for p in r.problems)


def test_kernel_backends_must_agree():
    rng = kernels.random.Random(0)
    fallback = kernels._fp_fallback
    assert kernels.agree({"fallback": fallback}, rng)
    assert kernels.agree({"a": fallback, "b": fallback}, rng)

    def skewed_rref(a, nrows, ncols, p):
        pivots = fallback.rref(a, nrows, ncols, p)
        a[-1] = (a[-1] + 1) % p
        return pivots

    broken = types.SimpleNamespace(rref=skewed_rref, matmul=fallback.matmul)
    assert not kernels.agree({"fallback": fallback, "broken": broken}, rng)


def test_kernel_timing_reduces_a_fresh_copy_every_repeat():
    seen = []

    def spy(a, nrows, ncols, p):
        seen.append(list(a))
        return kernels._fp_fallback.rref(a, nrows, ncols, p)

    a = [kernels.random.Random(1).randrange(kernels.PRIME) for _ in range(16)]
    kernels.time_rref(spy, a, 4, 4, 3)
    assert seen == [a, a, a]


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_holdout_seed_reruns_every_workload_at_that_suite_seed():
    proc = _bench("--workload", "sweep", "--holdout-seed", "5", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    assert "digest sweep suite_seed=0 sha256=" in proc.stdout
    assert "digest sweep suite_seed=5 sha256=" in proc.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_holds_exactly_the_declared_metrics(trace):
    proc = _bench("--workload", "sweep", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared()["per_layer" if trace == "1" else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        d["name"]: d["unit"] for d in declared
    }
    assert "digest sweep suite_seed=0 sha256=" in proc.stdout


def test_declared_workloads_are_the_benchmarks():
    declared = _declared()
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in declared["per_layer"]] == run.PER_LAYER


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "sweep", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
