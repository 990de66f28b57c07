"""Per-layer spans and counts recorded from outside the habiro package.

The layers are habiro's modules.  `Tracer.install` replaces each traced
function by a wrapper in the module namespace that binds it, because that is
where the caller looks the name up: `habiro.cli` binds the entry points of the
other layers, `habiro.families` binds the q-series kernels, and
`habiro.thetaside` and `habiro.signcheck` bind `bernoulli_poly`.

A span is (name, start, end, parent index, task id), kept in memory while the
tasks run.  A span's self time is its duration minus the durations of its
direct children and minus the time the speed sampler (speed.py) interrupted
it; every span belongs to the layer named before the first dot.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

# (module that binds the name, attribute, span name)
_SPANS = (
    ("habiro.cli", "cached_expansion", "families.cached_expansion"),
    ("habiro.families", "expand_family", "families.expand_family"),
    *(("habiro.families", name, "qseries.kernel")
      for name in ("mul_trunc_int", "mul_dense_int", "mul_sparse_binomial_int",
                   "one_minus_power_int", "subst_one_minus_int", "qbinomial")),
    *(("habiro.cli", name, "qseries.transform")
      for name in ("transform_g", "transform_h", "binomial_transform")),
    ("habiro.cli", "c_sequence", "thetaside.c_sequence"),
    ("habiro.cli", "b_sequence", "thetaside.b_sequence"),
    ("habiro.cli", "xi_from_theta", "thetaside.xi_from_theta"),
    ("habiro.asym", "find_k_nu", "thetaside.find_k_nu"),
    ("habiro.signcheck", "find_k_nu", "thetaside.find_k_nu"),
    ("habiro.asym", "g_value", "thetaside.g_value"),
    ("habiro.signcheck", "g_value", "thetaside.g_value"),
    ("habiro.thetaside", "bernoulli_poly", "exact.bernoulli_poly"),
    ("habiro.signcheck", "bernoulli_poly", "exact.bernoulli_poly"),
    ("habiro.signcheck", "zeta_interval", "exact.zeta_interval"),
    ("habiro.cli", "profile_for_family", "asym.profile_for_family"),
    ("habiro.cli", "ratio_diagnostics", "asym.ratio_diagnostics"),
    ("habiro.cli", "verify_positivity", "signcheck.verify_positivity"),
    ("habiro.signcheck", "family_n_bound", "signcheck.family_n_bound"),
    ("habiro.signcheck", "bernoulli_sign_test", "signcheck.bernoulli_sign_test"),
)

# decide_sign is counted but not timed: a span on it would take the interval
# arithmetic of the tail bound away from signcheck.n_bound_s.
_COUNTED = ("habiro.signcheck", "decide_sign")

TASK_SPAN = "cli.task"
LAYERS = ("cli", "families", "qseries", "thetaside", "exact", "asym", "signcheck")
BASE_PRECISION = 64

# per-layer metric -> span names whose self times it sums
SELF_TIME_METRICS = {
    "cli.self_s": (TASK_SPAN,),
    "families.expand_s": ("families.expand_family",),
    "families.cache_s": ("families.cached_expansion",),
    "qseries.kernel_s": ("qseries.kernel",),
    "qseries.transform_s": ("qseries.transform",),
    "thetaside.c_s": ("thetaside.c_sequence",),
    "thetaside.b_s": ("thetaside.b_sequence",),
    "thetaside.xi_s": ("thetaside.xi_from_theta",),
    "thetaside.find_k_nu_s": ("thetaside.find_k_nu",),
    "thetaside.g_value_s": ("thetaside.g_value",),
    "exact.bernoulli_s": ("exact.bernoulli_poly",),
    "exact.zeta_s": ("exact.zeta_interval",),
    "asym.profile_s": ("asym.profile_for_family",),
    "asym.ratio_s": ("asym.ratio_diagnostics",),
    "signcheck.n_bound_s": ("signcheck.family_n_bound",),
    "signcheck.sign_test_s": ("signcheck.bernoulli_sign_test",),
}

# per-layer metric -> counter it reports
COUNT_METRICS = {
    "families.expand_calls": "families.expand_family",
    "families.cache_hits": "families.cache_hits",
    "families.cache_misses": "families.cache_misses",
    "qseries.kernel_calls": "qseries.kernel",
    "thetaside.c_terms": "thetaside.c_terms",
    "exact.bernoulli_calls": "exact.bernoulli_poly",
    "exact.zeta_calls": "exact.zeta_interval",
    "exact.precision_escalations": "exact.precision_escalations",
    "signcheck.sign_tests": "signcheck.bernoulli_sign_test",
    "signcheck.zero_sign_tests": "signcheck.zero_sign_tests",
    "signcheck.members": "signcheck.verify_positivity",
}

MAX_METRICS = {
    "families.max_coeff_bits": "families.max_coeff_bits",
    "exact.max_precision_bits": "exact.max_precision_bits",
}


def _arg(args, kwargs, pos: int, name: str, default):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    """Wrappers that record spans and counts while installed."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = defaultdict(int)
        self.task_id: int | None = None
        self.excluded: dict[int, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def run_task(self, task_id: int, fn, *args):
        """Call fn inside the root span of one task."""
        self.task_id = task_id
        try:
            return self._timed(TASK_SPAN, fn, args, {})
        finally:
            self.task_id = None

    def _timed(self, name: str, fn, args, kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.task_id)

    def exclude(self, seconds: float) -> None:
        """Take time spent outside habiro, mid-call, from the innermost open span."""
        if self._stack:
            self.excluded[self._stack[-1]] += seconds

    def _note_precision(self, prec: int) -> None:
        if prec > BASE_PRECISION:
            self.counts["exact.precision_escalations"] += 1
        self.maxima["exact.max_precision_bits"] = max(self.maxima["exact.max_precision_bits"], prec)

    def _after(self, name: str, args, kwargs, result, expands_before: int) -> None:
        """Counts read from a finished call's arguments and result, outside its span."""
        self.counts[name] += 1
        if name == "families.cached_expansion":
            missed = self.counts["families.expand_family"] > expands_before
            self.counts["families.cache_misses" if missed else "families.cache_hits"] += 1
            bits = max((abs(c).bit_length() for c in result.integer_coeffs()), default=0)
            self.maxima["families.max_coeff_bits"] = max(self.maxima["families.max_coeff_bits"], bits)
        elif name == "thetaside.c_sequence":
            self.counts["thetaside.c_terms"] += len(result)
        elif name == "thetaside.g_value":
            self._note_precision(_arg(args, kwargs, 3, "prec", BASE_PRECISION))
        elif name == "exact.zeta_interval":
            self._note_precision(_arg(args, kwargs, 1, "prec", BASE_PRECISION))
        elif name == "signcheck.bernoulli_sign_test" and result == 0:
            self.counts["signcheck.zero_sign_tests"] += 1

    def _span_wrapper(self, name: str, fn):
        def wrapper(*args, **kwargs):
            expands_before = self.counts["families.expand_family"]
            result = self._timed(name, fn, args, kwargs)
            self._after(name, args, kwargs, result, expands_before)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _decide_sign_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            self._note_precision(_arg(args, kwargs, 1, "start", BASE_PRECISION))
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, module_name: str, attr: str, make_wrapper) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, span in _SPANS:
            self._patch(module_name, attr, lambda fn, span=span: self._span_wrapper(span, fn))
        self._patch(*_COUNTED, self._decide_sign_wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, task in self.spans:
                fh.write(json.dumps([name, start, end, parent, task]) + "\n")

    def summary(self, scale: list[float] | None = None) -> dict:
        """Self time per span name, task time, counts and maxima.

        With scale, the times of a span of task i are multiplied by scale[i].
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_by_name: dict[str, float] = defaultdict(float)
        for i, ((name, start, end, _, task), inner) in enumerate(zip(self.spans, child)):
            own = end - start - inner - self.excluded.get(i, 0.0)
            self_by_name[name] += own * (1.0 if scale is None else scale[task])
        return {"self_s": dict(self_by_name), "task_s": sum(self_by_name.values()),
                "counts": dict(self.counts), "maxima": dict(self.maxima)}


def layer_metrics(summary: dict) -> dict[str, float]:
    """Per-layer metric values from one traced pass's summary."""
    self_s = summary["self_s"]
    out: dict[str, float] = {}
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = sum(self_s.get(n, 0.0) for n in names)
    for metric, key in COUNT_METRICS.items():
        out[metric] = summary["counts"].get(key, 0)
    for metric, key in MAX_METRICS.items():
        out[metric] = summary["maxima"].get(key, 0)
    task_s = summary["task_s"]
    for layer in LAYERS:
        layer_s = sum(v for n, v in self_s.items() if n.split(".", 1)[0] == layer)
        out[f"{layer}.share"] = layer_s / task_s if task_s else 0.0
    out["trace.attributed_share"] = 1.0 - out["cli.share"]
    return out
