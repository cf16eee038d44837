"""Span tracing for the benchmark's traced run.

The benchmark wraps the public functions of each critpoly module (a
"layer") and records one span per call: name, start, end, the enclosing
span and the request it belongs to. Spans stay in memory until the run
ends. Per-layer metrics are derived from them afterwards, together with the
counts recorded at the same boundaries.

Nothing here is imported by critpoly itself; the wrappers are installed
into the module namespaces for the duration of a traced run and removed
again afterwards.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
from collections import Counter
from fractions import Fraction

# Public functions timed per layer. `rat` and `errors` do too little work to
# be worth timing; small hot helpers (pochhammer, gen_binom, catalan, ...)
# are left out so that tracing does not dominate what it measures.
LAYER_FUNCTIONS = {
    "construct": ["p_s41", "p_s32", "p_s21_chebyshev", "p_hyp",
                  "p_chebyshev_recursive", "p_beta", "q_rational",
                  "mellin_closed", "mellin_T_closed", "s32_bare_sum",
                  "s32_bare_closed_form"],
    "poly": ["substitute_critical", "real_root_data", "isolate_real_roots",
             "refine_root"],
    "verify": ["certify_critical_line", "check_functional_equation",
               "check_fq1", "check_difference_equation",
               "check_central_difference", "check_M_recurrences",
               "check_gould_sum_forms", "check_integer_s_sums",
               "check_gould_closures", "check_q_range", "check_corollary2"],
    "quadrature": ["quad_mellin_gegenbauer", "quad_mellin_T",
                   "closed_form_value", "compare_mellin", "compare_mellin_T",
                   "genfun_check", "transform_level_lemma1_check",
                   "lemma3a_check"],
    "hyp3f2": ["eval_3f2", "poly_from_3f2", "thomae_terminating",
               "appendix_transform_suite"],
    "orthopoly": ["identity_suite", "gegenbauer", "triangle_row_polynomial_b"],
    "arithprops": ["odd_factor_check", "reduced_odd_forms",
                   "catalan_valuation_check", "divisibility_characterization",
                   "a_polynomial_checks"],
    "cli": ["main"],
}

# constructors whose (function, n, param) key identifies one built object
BUILDERS = {"p_s41", "p_s32", "p_s21_chebyshev", "p_hyp",
            "p_chebyshev_recursive", "p_beta", "q_rational", "mellin_closed",
            "mellin_T_closed"}

VERIFY_CHECKS = {f"verify.{name}" for name in LAYER_FUNCTIONS["verify"]
                 if name.startswith("check_")}


class Tracer:
    """In-memory span recorder with per-boundary counters.

    A span is a list [id, parent_id, request_id, name, start, end]. Spans
    opened in a worker thread with nothing open in that thread take the
    innermost open span of the main thread as parent: the CLI runs each
    verify suite in its thread pool while the main thread waits on it.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self.coeff_bits_max = 0
        self.paused = False
        self.request = 0
        self._built = set()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        elif self._main_stack:
            parent = self._main_stack[-1][0]
        else:
            parent = None
        span = [len(self.spans), parent, self.request, name, self.clock(),
                None]
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[5] = self.clock()
        self._stack().pop()

    def new_request(self) -> int:
        self.request += 1
        return self.request

    def record(self, layer: str, name: str, args, result) -> None:
        """Counts taken at a layer boundary from a call that returned."""
        if layer == "construct" and name in BUILDERS:
            self.counts["construct.calls"] += 1
            param = args[1] if len(args) > 1 else None
            key = (name, args[0], None if param is None else Fraction(param))
            if key in self._built:
                self.counts["construct.repeats"] += 1
            else:
                self._built.add(key)
                self.coeff_bits_max = max(self.coeff_bits_max,
                                          coeff_bits(result))
        elif name == "isolate_real_roots":
            self.counts["poly.roots_found"] += len(result)
        elif name == "certify_critical_line":
            self.counts["verify.certify_calls"] += 1
        elif name in ("quad_mellin_gegenbauer", "quad_mellin_T"):
            self.counts["quadrature.evaluations"] += result.evaluations
        elif name == "eval_3f2":
            self.counts["hyp3f2.eval_calls"] += 1


def coeff_bits(built) -> int:
    """Largest numerator or denominator bit size among the coefficients of a
    constructed object (critical polynomial, Mellin form or q_n)."""
    if hasattr(built, "poly"):
        coeffs = built.poly.coeffs
    elif hasattr(built, "factor"):
        coeffs = built.factor.coeffs
    else:
        coeffs = list(built.fun.num.coeffs) + list(built.fun.den.coeffs)
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for c in coeffs), default=0)


def _wrap(tracer: Tracer, layer: str, fn, span_name: str):
    name = fn.__name__

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.paused:
            return fn(*args, **kwargs)
        span = tracer.begin(span_name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        tracer.record(layer, name, args, result)
        return result

    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Put traced wrappers in place of the listed functions in every
    critpoly module namespace that binds them (verify, for one, imports
    real_root_data by name) and in the CLI's suite table; restore the
    originals on exit."""
    undo = []
    try:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "critpoly" or key.startswith("critpoly.")]
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules[f"critpoly.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapped = _wrap(tracer, layer, original, f"{layer}.{name}")
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, attr, value))
                            setattr(module, attr, wrapped)
        suites = sys.modules["critpoly.cli"].SUITES
        for suite, fn in list(suites.items()):
            undo.append((suites, suite, fn))
            suites[suite] = _wrap(tracer, "cli", fn, f"cli.suite.{suite}")
        yield tracer
    finally:
        for target, attr, value in reversed(undo):
            if isinstance(target, dict):
                target[attr] = value
            else:
                setattr(target, attr, value)


# ---------------------------------------------------------------------------
# derived metrics
# ---------------------------------------------------------------------------

def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> its duration minus the part of its interval that its
    child spans cover."""
    children = {}
    for span in spans:
        if span[1] is not None:
            children.setdefault(span[1], []).append(span)
    out = {}
    for sid, _, _, _, start, end in spans:
        kids = [(max(k[4], start), min(k[5], end))
                for k in children.get(sid, ())]
        out[sid] = (end - start) - _covered([k for k in kids if k[1] > k[0]])
    return out


def outermost_time(spans, match) -> float:
    """Summed duration of the spans that satisfy `match` and have no
    ancestor that also does, so nested calls are not counted twice."""
    by_id = {span[0]: span for span in spans}
    total = 0.0
    for span in spans:
        if not match(span[3]):
            continue
        parent = span[1]
        while parent is not None and not match(by_id[parent][3]):
            parent = by_id[parent][1]
        if parent is None:
            total += span[5] - span[4]
    return total


TIMES = {
    "construct.build_s": lambda n: n.startswith("construct."),
    "verify.certify_s": lambda n: n == "verify.certify_critical_line",
    "verify.checks_s": lambda n: n in VERIFY_CHECKS,
    "poly.substitute_s": lambda n: n == "poly.substitute_critical",
    "poly.sturm_s": lambda n: n == "poly.real_root_data",
    "poly.isolate_s": lambda n: n == "poly.isolate_real_roots",
    "poly.refine_s": lambda n: n == "poly.refine_root",
    "quadrature.quad_s": lambda n: n in ("quadrature.quad_mellin_gegenbauer",
                                         "quadrature.quad_mellin_T"),
    "quadrature.closed_form_s": lambda n: n == "quadrature.closed_form_value",
    "quadrature.genfun_s": lambda n: n == "quadrature.genfun_check",
    "hyp3f2.eval_s": lambda n: n == "hyp3f2.eval_3f2",
    "orthopoly.identity_s": lambda n: n == "orthopoly.identity_suite",
    "arithprops.s": lambda n: n.startswith("arithprops."),
    "cli.s": lambda n: n == "cli.main",
    "trace.wall_s": lambda n: n == "request",
}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced workload: (value, unit) by name.

    A named time is the summed duration of the outermost matching spans, so
    it includes the calls they make into other layers; `<layer>.self_s` is
    the layer's time outside every child span. Layers and suites that the
    workload never enters read 0.
    """
    spans = [s for s in tracer.spans if s[5] is not None]
    out = {}
    selfs = self_times(spans)
    for layer in LAYER_FUNCTIONS:
        out[f"{layer}.self_s"] = (sum(selfs[s[0]] for s in spans
                                      if s[3].split(".")[0] == layer), "s")
    for metric, match in TIMES.items():
        out[metric] = (outermost_time(spans, match), "s")
    for suite in {s[3] for s in spans if s[3].startswith("cli.suite.")}:
        out[f"{suite}_s"] = (outermost_time(spans, lambda n: n == suite), "s")
    counts = tracer.counts
    calls = counts["construct.calls"]
    out["construct.calls"] = (calls, "count")
    out["construct.repeat_frac"] = (
        counts["construct.repeats"] / calls if calls else 0.0, "ratio")
    out["construct.coeff_bits_max"] = (tracer.coeff_bits_max, "bits")
    for name in ("verify.certify_calls", "poly.roots_found",
                 "quadrature.evaluations", "hyp3f2.eval_calls"):
        out[name] = (counts[name], "count")
    return out
