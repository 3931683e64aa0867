"""Span tracer for glsw, installed from outside the package.

``Tracer.install()`` replaces the public functions of each layer module, and
the public methods of the classes those modules define, by timing wrappers.
A ``from glsw.exact import rref`` elsewhere binds the same function object
under another module's name, so every binding in every ``glsw`` module is
patched, not only the defining one.  Nothing in ``src/`` changes, and
``uninstall()`` restores every attribute it replaced.

A span is one call of a wrapped function, named ``<module>.<function>`` or
``<module>.<Class>.<method>``.  Its self time is its duration minus the
durations of the wrapped calls made inside it, so self times add up to the
time spent inside the traced layers.  A few spans also feed derived buckets
(kernel calls by matrix size, rational vs prime-field products) and nested
counters (rank calls made inside ``minimal_polynomial``), from which
``metrics()`` builds the per-layer figures the benchmark reports.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

LAYERS = (
    "exact",
    "fpkernel",
    "algebra",
    "quivers",
    "reps",
    "families",
    "decomposition",
    "stability",
)

# Every name a per-layer metric is derived from.  A rename in glsw must fail
# here instead of silently reporting an empty layer.
REQUIRED = {
    "fpkernel": ("rref", "matmul"),
    "exact": (
        "Mat.__mul__",
        "rref",
        "rank",
        "solve",
        "kernel_basis",
        "minimal_polynomial",
        "factor_primefield",
    ),
    "algebra": ("gls_presentation", "unfold"),
    "quivers": ("ValuedQuiver.null_root",),
    "reps": (
        "hom_basis",
        "minimal_presentation",
        "ar_translate",
        "ar_inverse",
        "ext1_dim",
        "krull_schmidt",
        "is_isomorphic",
        "random_locally_free",
    ),
    "families": ("eta_brick_sample", "bc1_V"),
    "decomposition": ("folded_decomposition", "kac_decomposition_unfolded"),
    "stability": ("submodules", "is_stable", "is_semistable"),
}

# Dunder methods that do real work; the other dunders are cheap accessors.
_DUNDERS = ("__mul__", "__add__", "__sub__", "__neg__")
# Constant-time helpers called up to a million times a run: a span each would
# cost more than they do, so their time stays in the caller's self time.
_UNWRAPPED = {
    "exact.Mat.row",
    "exact.Mat.zero",
    "exact.poly_trim",
    "algebra.BoundQuiverAlgebra.path_target",
}

# fpkernel.rref size buckets by entry count (rows * cols).
SMALL_MAX = 100
MEDIUM_MAX = 2500


class WrapError(RuntimeError):
    """A name the benchmark traces no longer exists in glsw."""


class Tracer:
    def __init__(self):
        # name -> [calls, self seconds, calls that raised]
        self.spans = {}
        # bucket name -> [calls, self seconds, ops]
        self.buckets = {}
        # counter name -> count
        self.counters = {}
        # child-time accumulators of the open spans, above a root slot
        self._stack = [0.0]
        # how many calls of each _NESTED function are open
        self._depth = dict.fromkeys(_NESTED, 0)
        self._undo = []

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every layer; raise ``WrapError`` if a required name is gone."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = {name: importlib.import_module(f"glsw.{name}") for name in LAYERS}
        _check_required(modules)
        replaced = {}
        for layer, mod in modules.items():
            for attr, fn in _public_functions(layer, mod):
                name = f"{layer}.{attr}"
                if id(fn) not in replaced and name not in _UNWRAPPED:
                    replaced[id(fn)] = (fn, self._wrap(name, fn))
            for cname, cls in _public_classes(mod):
                for attr, raw in _public_methods(cls):
                    name = f"{layer}.{cname}.{attr}"
                    if name not in _UNWRAPPED:
                        self._patch_method(cls, attr, raw, name)
        # rebind every module-level reference, whichever module holds it
        for mod in [m for n, m in sys.modules.items() if n == "glsw" or n.startswith("glsw.")]:
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _patch_method(self, cls, attr, raw, name):
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(name, raw.__func__))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrap(name, raw.__func__))
        else:
            wrapped = self._wrap(name, raw)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    # -- recording ------------------------------------------------------------

    def _wrap(self, name, fn):
        stat = self.spans.setdefault(name, [0, 0.0, 0])
        hook = _HOOKS.get(name)
        nested = name in _NESTED
        depth = self._depth
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if nested:
                depth[name] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat[2] += 1
                raise
            finally:
                dur = clock() - t0
                self_s = dur - stack.pop()
                stack[-1] += dur
                stat[0] += 1
                stat[1] += self_s
                if nested:
                    depth[name] -= 1
            if hook is not None:
                hook(tracer, args, result, self_s)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def add_bucket(self, name, self_s, ops=0):
        b = self.buckets.setdefault(name, [0, 0.0, 0])
        b[0] += 1
        b[1] += self_s
        b[2] += ops

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def inside(self, name):
        return self._depth[name] > 0

    # -- results ----------------------------------------------------------------

    def metrics(self, wall_s):
        """Per-layer metrics: see ``PER_LAYER`` in run.py for the list."""
        out = {}

        def span(name, *fields):
            calls, self_s, _ = self.spans.get(name, (0, 0.0, 0))
            values = {"calls": calls, "self_s": self_s}
            for f in fields:
                out[f"{name}.{f}"] = values[f]
            return calls

        def bucket(name, *fields):
            calls, self_s, ops = self.buckets.get(name, (0, 0.0, 0))
            values = {"calls": calls, "self_s": self_s, "ops": ops}
            for f in fields:
                out[f"{name}.{f}"] = values[f]

        for size in ("small", "medium", "large"):
            bucket(f"fpkernel.rref.{size}", "calls", "self_s", "ops")
        bucket("fpkernel.matmul", "calls", "self_s", "ops")
        for field in ("qq", "fp"):
            bucket(f"exact.rref.{field}", "calls", "self_s")
            bucket(f"exact.Mat.mul.{field}", "calls", "self_s", "ops")
        calls = span("exact.minimal_polynomial", "calls", "self_s")
        out["exact.minimal_polynomial.rank_per_call"] = _ratio(
            self.counters.get("exact.minimal_polynomial.rank", 0), calls
        )
        span("exact.factor_primefield", "calls", "self_s")
        for name in ("solve", "rank", "kernel_basis"):
            span(f"exact.{name}", "calls")
        calls = span("reps.minimal_presentation", "calls", "self_s")
        out["reps.minimal_presentation.qq_rref_per_call"] = _ratio(
            self.counters.get("reps.minimal_presentation.qq_rref", 0), calls
        )
        for name in (
            "ar_translate",
            "ar_inverse",
            "ext1_dim",
            "hom_basis",
            "krull_schmidt",
            "is_isomorphic",
            "random_locally_free",
        ):
            span(f"reps.{name}", "calls", "self_s")
        calls = span("decomposition.folded_decomposition", "calls", "self_s")
        out["decomposition.folded_decomposition.cert_fail_frac"] = _ratio(
            self.spans.get("decomposition.folded_decomposition", (0, 0, 0))[2], calls
        )
        span("decomposition.kac_decomposition_unfolded", "calls", "self_s")
        calls = span("stability.submodules", "calls", "self_s")
        out["stability.submodules.members"] = self.counters.get(
            "stability.submodules.members", 0
        )
        out["stability.submodules.complete_frac"] = _ratio(
            self.counters.get("stability.submodules.complete", 0), calls
        )
        for name in ("is_stable", "is_semistable"):
            span(f"stability.{name}", "calls", "self_s")
        for name in ("gls_presentation", "unfold"):
            span(f"algebra.{name}", "calls", "self_s")
        for name in ("eta_brick_sample", "bc1_V"):
            span(f"families.{name}", "calls", "self_s")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                s[1] for n, s in self.spans.items() if n.startswith(layer + ".")
            )
        out["trace.spans"] = sum(s[0] for s in self.spans.values())
        total_self = sum(s[1] for s in self.spans.values())
        out["trace.coverage_frac"] = _ratio(total_self, wall_s)
        return out


def _ratio(num, den):
    return num / den if den else 0.0


# -- what gets wrapped ---------------------------------------------------------


def _public_functions(layer, mod):
    if layer == "fpkernel":
        # the kernel module re-exports the selected backend's functions
        return [(n, getattr(mod, n)) for n in REQUIRED["fpkernel"]]
    return [
        (n, v)
        for n, v in vars(mod).items()
        if not n.startswith("_")
        and inspect.isfunction(v)
        and v.__module__ == mod.__name__
    ]


def _public_classes(mod):
    return [
        (n, v)
        for n, v in vars(mod).items()
        if not n.startswith("_") and inspect.isclass(v) and v.__module__ == mod.__name__
    ]


def _public_methods(cls):
    out = []
    for n, raw in vars(cls).items():
        if n.startswith("_") and n not in _DUNDERS:
            continue
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        if inspect.isfunction(fn):
            out.append((n, raw))
    return out


def _check_required(modules):
    missing = []
    for layer, names in REQUIRED.items():
        for name in names:
            owner = modules[layer]
            for part in name.split("."):
                owner = getattr(owner, part, None)
                if owner is None:
                    break
            if not callable(owner):
                missing.append(f"glsw.{layer}.{name}")
    if missing:
        raise WrapError("traced names missing from glsw: " + ", ".join(missing))


# -- hooks: derived buckets and nested counters --------------------------------


def _fp_rref(tracer, args, pivots, self_s):
    entries = args[1] * args[2]
    if entries <= SMALL_MAX:
        bucket = "fpkernel.rref.small"
    elif entries <= MEDIUM_MAX:
        bucket = "fpkernel.rref.medium"
    else:
        bucket = "fpkernel.rref.large"
    tracer.add_bucket(bucket, self_s, len(pivots) * entries)


def _fp_matmul(tracer, args, result, self_s):
    n, k, m = args[2], args[3], args[4]
    tracer.add_bucket("fpkernel.matmul", self_s, n * k * m)


def _exact_rref(tracer, args, result, self_s):
    if args[0].p is not None:
        tracer.add_bucket("exact.rref.fp", self_s)
        return
    tracer.add_bucket("exact.rref.qq", self_s)
    if tracer.inside("reps.minimal_presentation"):
        tracer.count("reps.minimal_presentation.qq_rref")


def _exact_rank(tracer, args, result, self_s):
    if tracer.inside("exact.minimal_polynomial"):
        tracer.count("exact.minimal_polynomial.rank")


def _mat_mul(tracer, args, result, self_s):
    a, b = args[0], args[1]
    bucket = "exact.Mat.mul.qq" if a.p is None else "exact.Mat.mul.fp"
    tracer.add_bucket(bucket, self_s, a.rows * a.cols * b.cols)


def _submodules(tracer, args, lattice, self_s):
    tracer.count("stability.submodules.members", len(lattice.members))
    tracer.count("stability.submodules.complete", 1 if lattice.complete else 0)


# Functions whose open calls the hooks ask about with Tracer.inside().
_NESTED = ("exact.minimal_polynomial", "reps.minimal_presentation")

_HOOKS = {
    "fpkernel.rref": _fp_rref,
    "fpkernel.matmul": _fp_matmul,
    "exact.rref": _exact_rref,
    "exact.rank": _exact_rank,
    "exact.Mat.__mul__": _mat_mul,
    "stability.submodules": _submodules,
}
