"""The benchmark's workloads: seeded inputs, the timed operations and the
checks on their outputs.

Every workload is run by one client in a closed loop: the next operation
starts only when the previous one has returned. The seed generates the
inputs (parameter draws from the tier-1 sample sets, s points and request
order); the program sees nothing but those inputs. A run is split into
rounds; a round is the workload's fixed work list and `wall_s` is its time.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from critpoly import cli, construct, quadrature, verify
from critpoly.poly import substitute_critical

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

# tier-1 parameter samples (tests/test_acceptance.py)
LAMBDAS = [Fraction(-1, 4), Fraction(1, 2), Fraction(1), Fraction(3, 2),
           Fraction(2), Fraction(7, 3)]
BETAS = [Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(-2),
         Fraction(-3)]
# lambda samples of the tier-1 quadrature criterion (c06); at lambda = -1/4
# the quadrature cannot reach its 1e-12 error target, so every row would fail
QUAD_LAMBDAS = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(5, 2)]
# s draws for the Mellin rows; s = 1/2 and the T zeros n^2 - 1 are added on
# every round, and s below 1/2 is where the quadrature stops meeting 1e-12
S_GRID = [0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0]
MELLIN_NMAX = 12
REL_TOL = 1e-10

# exact-scale sizes: round r certifies at n = CERT_N + r and lists roots at
# n = ROOTS_N + r, so no (family, param, n) is built twice in a run
CERT_N = 120
ROOTS_N = 40

VERIFY_ARGS = ["--nmax", "10", "--output", "json"]
SUITE_NAMES = ["forms", "funceq", "diffeq", "recur", "gould", "q", "hyp3f2",
               "corollary2", "genfun", "quad", "props", "triangles"]


@dataclass(frozen=True)
class Op:
    """One timed request: `run` does the work, `check` lists what is wrong
    with its output (nothing when it is right)."""
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class RoundResult:
    latencies: list       # seconds per op, in run order
    kinds: list
    failures: list        # (label, problems)

    @property
    def wall(self) -> float:
        return sum(self.latencies)

    def wall_of(self, kind: str) -> float:
        return sum(t for t, k in zip(self.latencies, self.kinds) if k == kind)


def run_ops(ops, tracer=None) -> RoundResult:
    """Run the ops one after another, timing each, then check its output
    outside the timed region (and outside tracing)."""
    result = RoundResult([], [], [])
    for op in ops:
        span = None
        if tracer is not None:
            tracer.new_request()
            span = tracer.begin("request")
        start = time.perf_counter()
        try:
            out, problems = op.run(), []
        except Exception as exc:  # a raising op is a counted failure
            out, problems = None, [f"raised {type(exc).__name__}: {exc}"]
        elapsed = time.perf_counter() - start
        if span is not None:
            tracer.end(span)
            tracer.paused = True
        try:
            if not problems:
                problems = op.check(out)
        except Exception as exc:  # malformed output counts as wrong
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        finally:
            if tracer is not None:
                tracer.paused = False
        result.latencies.append(elapsed)
        result.kinds.append(op.kind)
        if problems:
            result.failures.append((op.label, problems))
    return result


# ---------------------------------------------------------------------------
# exact-scale
# ---------------------------------------------------------------------------

def digest(poly) -> str:
    text = ",".join(str(c) for c in poly.coeffs)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def reference_key(family: str, param, n: int) -> str:
    return f"{family}:{param}:{n}"


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def build(family: str, param, n: int):
    if family == "gegenbauer":
        return construct.p_s32(n, param)
    return construct.p_beta(n, param)


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _coeff_problems(poly, n, family, param, reference) -> list:
    problems = []
    if poly.degree != n // 2:
        problems.append(f"degree {poly.degree} != {n // 2}")
    want = reference.get(reference_key(family, param, n))
    if want is None:
        problems.append("no reference digest for this key")
    elif digest(poly) != want:
        problems.append("coefficients differ from the reference digest")
    return problems


def certify_op(family: str, param, n: int, reference: dict) -> Op:
    def run():
        p = build(family, param, n)
        return p, verify.certify_critical_line(p)

    def check(out):
        p, cert = out
        problems = _coeff_problems(p.poly, n, family, param, reference)
        if not cert.passed:
            problems.append("certificate did not pass")
        if cert.distinct_real_roots != n // 2:
            problems.append(f"{cert.distinct_real_roots} distinct roots, "
                            f"want {n // 2}")
        return problems

    return Op("certify", f"certify {family} {param} n={n}", run, check)


def roots_argv(family: str, param, n: int) -> list:
    flag = "--lambda" if family == "gegenbauer" else "--beta"
    return ["roots", "--family", family, f"{flag}={param}", "--n", str(n),
            "--output", "json"]


def root_problems(v, roots) -> list:
    """Each listed t must be a root of v: v changes sign across a window
    around t too narrow to hold a neighbouring root."""
    problems = []
    windows = []
    for t in roots:
        delta = Fraction(1, 10 ** 9) * max(1, abs(Fraction(t)))
        lo, hi = Fraction(t) - delta, Fraction(t) + delta
        if v(lo) * v(hi) >= 0:
            problems.append(f"no sign change of v around t={t}")
        windows.append((lo, hi))
    windows.sort()
    if any(a[1] >= b[0] for a, b in zip(windows, windows[1:])):
        problems.append("listed roots are not distinct")
    return problems


def roots_op(family: str, param, n: int, reference: dict) -> Op:
    m = n // 2

    def check(out):
        code, text = out
        payload = json.loads(text)
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if payload["pass"] is not True:
            problems.append("certificate did not pass")
        if payload["degree"] != m or payload["distinct_real_roots"] != m:
            problems.append("degree or distinct root count != floor(n/2)")
        roots = [float(r.removeprefix("1/2 + ").removesuffix("i"))
                 for r in payload["roots"]]
        if len(roots) != m:
            problems.append(f"{len(roots)} refined roots, want {m}")
        p = build(family, param, n)
        problems += _coeff_problems(p.poly, n, family, param, reference)
        v, _ = substitute_critical(p.poly)
        return problems + root_problems(v, roots)

    return Op("roots", f"roots {family} {param} n={n}",
              lambda: _cli(roots_argv(family, param, n)), check)


PARAMS = ([("gegenbauer", lam) for lam in LAMBDAS]
          + [("beta", beta) for beta in BETAS])


def exact_keys(rounds: int):
    """Every (kind, family, param, n) the exact-scale rounds can request."""
    for r in range(rounds):
        for family, param in PARAMS:
            yield "certify", family, param, CERT_N + r
            yield "roots", family, param, ROOTS_N + r


def exact_scale_ops(seed: int, r: int, traced: bool) -> list:
    """Each round certifies every tier-1 lambda and beta sample once at
    n = CERT_N + r and lists its roots once at n = ROOTS_N + r. The cost
    depends strongly on n and on the parameter, so drawing them at random
    would make rounds of different seeds unequal; the seed draws the order."""
    reference = load_reference()
    ops = ([certify_op(f, p, CERT_N + r, reference) for f, p in PARAMS]
           + [roots_op(f, p, ROOTS_N + r, reference) for f, p in PARAMS])
    random.Random(f"{seed}/exact-scale/{r}").shuffle(ops)
    return ops


def exact_scale_warm_up() -> None:
    construct.p_s32(10, 1)
    verify.certify_critical_line(construct.p_beta(9, 0))
    _cli(roots_argv("gegenbauer", 1, 8))


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------

def verify_op(seed: int, suites: list) -> Op:
    name = "all" if suites == SUITE_NAMES else suites[0]
    argv = ["verify", "--suite", name, "--seed", str(seed)] + VERIFY_ARGS

    def check(out):
        code, text = out
        rows = json.loads(text)
        problems = [] if code == 0 else [f"exit code {code}"]
        got = [row.get("suite") for row in rows]
        if got != suites:
            problems.append(f"suite rows {got}, want {suites}")
        problems += [f"suite {row.get('suite')} failed: {row}"
                     for row in rows if row.get("pass") is not True]
        return problems

    return Op("verify", f"verify --suite {name}", lambda: _cli(argv), check)


def verify_all_ops(seed: int, r: int, traced: bool) -> list:
    # The traced pass runs the suites one per call so that each suite's time
    # is its own, not shared with a suite running in the other pool thread.
    if traced:
        return [verify_op(seed, [name]) for name in SUITE_NAMES]
    return [verify_op(seed, SUITE_NAMES)]


# ---------------------------------------------------------------------------
# mellin-batch
# ---------------------------------------------------------------------------

def mellin_op(n: int, lam, s: float) -> Op:
    def check(row):
        problems = []
        if (row["n"], row["s"]) != (n, s):
            problems.append(f"row is for n={row['n']}, s={row['s']}")
        if not row["rel_err"] <= REL_TOL:
            problems.append(f"rel_err {row['rel_err']} > {REL_TOL}")
        return problems

    if lam is None:
        return Op("mellin_T", f"compare_mellin_T n={n} s={s}",
                  lambda: quadrature.compare_mellin_T(n, s), check)
    return Op("mellin", f"compare_mellin n={n} lambda={lam} s={s}",
              lambda: quadrature.compare_mellin(n, lam, s), check)


def mellin_batch_ops(seed: int, r: int, traced: bool) -> list:
    """128 Gegenbauer rows and 24 T rows. s = 1/2 is a zero of the factor
    whenever floor(n/2) is odd and s = n^2 - 1 is a zero of the T factor,
    so the absolute-error branch of the comparison runs on every round."""
    rng = random.Random(f"{seed}/mellin-batch/{r}")
    ops = []
    for lam in QUAD_LAMBDAS:
        for n in range(MELLIN_NMAX + 1):
            ops += [mellin_op(n, lam, s) for s in rng.sample(S_GRID, 2)]
            if (n // 2) % 2 == 1:
                ops.append(mellin_op(n, lam, 0.5))
    for n in range(MELLIN_NMAX + 1):
        ops.append(mellin_op(n, None, rng.choice(S_GRID)))
        if n >= 2:
            ops.append(mellin_op(n, None, float(n * n - 1)))
    rng.shuffle(ops)
    return ops


def mellin_batch_warm_up() -> None:
    quadrature.compare_mellin(1, Fraction(1), 1.75)
    quadrature.compare_mellin_T(1, 1.75)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    ops: Callable[[int, int, bool], list]   # (seed, round, traced) -> ops
    warm_up: Callable[[], None]
    max_rounds: int
    per_layer: tuple


def _layers(*names) -> tuple:
    return names + ("trace.wall_s",)


CONSTRUCT = ("construct.build_s", "construct.self_s", "construct.calls",
             "construct.repeat_frac", "construct.coeff_bits_max")

# Which end-to-end metric each per-layer metric should move, written down
# before any optimisation is measured:
#   construct.*  verify-all wall_s (repeat_frac ~0.9 there, so memoizing the
#                builders pays); exact-scale wall_s through faster large-n
#                construction only (repeat_frac = 0, so a cache cannot help);
#                peak_rss_mb if a cache is added. mellin-batch: almost none.
#   verify.certify_s, poly.substitute_s, poly.sturm_s
#                exact-scale wall_s and its certify_wall_s; no change on the
#                other two workloads.
#   poly.isolate_s, poly.refine_s, poly.roots_found
#                exact-scale wall_s and its roots_wall_s only.
#   quadrature.* mellin-batch op_p50_ms, op_p90_ms and wall_s; verify-all
#                wall_s through the quad and genfun suites.
#   verify.checks_s, hyp3f2.*, orthopoly.*, arithprops.*, cli.suite.*
#                verify-all wall_s.

WORKLOADS = {
    "exact-scale": Workload(
        "exact-scale", exact_scale_ops, exact_scale_warm_up, 8,
        _layers(*CONSTRUCT, "hyp3f2.self_s", "verify.certify_s",
                "verify.certify_calls", "verify.self_s", "poly.substitute_s",
                "poly.sturm_s", "poly.isolate_s", "poly.refine_s",
                "poly.roots_found", "poly.self_s", "cli.s", "cli.self_s")),
    # one call per process: a second call in the same process would find
    # the CLI's caches warm, which a user's fresh `critpoly verify` does not
    "verify-all": Workload(
        "verify-all", verify_all_ops, lambda: None, 1,
        _layers(*CONSTRUCT, "verify.checks_s", "verify.self_s",
                "quadrature.quad_s", "quadrature.evaluations",
                "quadrature.closed_form_s", "quadrature.genfun_s",
                "quadrature.self_s", "hyp3f2.eval_s", "hyp3f2.eval_calls",
                "hyp3f2.self_s", "orthopoly.identity_s", "orthopoly.self_s",
                "arithprops.s", "arithprops.self_s", "cli.s", "cli.self_s",
                *(f"cli.suite.{name}_s" for name in SUITE_NAMES))),
    "mellin-batch": Workload(
        "mellin-batch", mellin_batch_ops, mellin_batch_warm_up, 64,
        _layers(*CONSTRUCT, "hyp3f2.self_s", "quadrature.quad_s",
                "quadrature.evaluations", "quadrature.closed_form_s",
                "quadrature.self_s")),
}
