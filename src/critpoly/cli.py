"""Batch command-line front door: construct, certify, verify, compare, and
emit tables."""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import logging
import sys
import time
from fractions import Fraction

from . import arithprops, construct, poly, quadrature, verify
from .errors import CritPolyError
from .hyp3f2 import appendix_transform_suite
from .orthopoly import identity_suite
from .rat import format_rat, parse_rat

LAMBDA_SET = [Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(7, 3)]
BETA_SET = [Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(-2)]

GOLDEN = {0: [Fraction(1, 2)], 1: [Fraction(1)],
          2: [Fraction(-3, 4), Fraction(3, 2)],
          3: [Fraction(-3), Fraction(6)],
          4: [Fraction(63, 4), Fraction(-15), Fraction(15)]}
# the gould suite uses the hat polynomials up to index 2 GOULD_NMAX + 1
GOULD_NMAX = 6
GENFUN_K = 40
GENFUN_LAMBDAS = [Fraction(1), Fraction(1, 2), Fraction(5, 2), Fraction(7, 3)]

log = logging.getLogger("critpoly")


def _max_workers() -> int:
    """The CLI runs every suite and row in the calling thread, one after
    another; only `bench/run.py` still reads this name."""
    return 1


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") \
            from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _rat_flag(text: str) -> Fraction:
    try:
        return parse_rat(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _emit(payload, args) -> None:
    if args.output == "json":
        text = json.dumps(payload, indent=2, default=str) + "\n"
    elif args.output == "csv":
        rows = payload if isinstance(payload, list) else [payload]
        rows = [_flatten(r) for r in rows]
        fields = []
        for r in rows:
            for k in r:
                if k not in fields:
                    fields.append(k)
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=fields)
        w.writeheader()
        w.writerows(rows)
        text = buf.getvalue()
    else:
        rows = payload if isinstance(payload, list) else [payload]
        lines = []
        for r in rows:
            flat = _flatten(r)
            lines.append("  ".join(f"{k}={v}" for k, v in flat.items()))
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _flatten(d: dict, prefix: str = "") -> dict:
    out = {}
    for k, v in d.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(_flatten(v, key + "."))
        elif isinstance(v, (list, tuple)):
            out[key] = ";".join(str(x) for x in v)
        else:
            out[key] = v
    return out


# ---------------------------------------------------------------------------
# poly / roots
# ---------------------------------------------------------------------------

def _build(args, parser) -> construct.CriticalPolynomial:
    family = args.family
    form = args.form
    if family == "beta":
        if args.beta is None or args.lam is not None:
            parser.error("--family beta requires --beta and forbids --lambda")
        if form not in (None, "hyp"):
            parser.error("--family beta only supports --form hyp")
        return construct.p_beta(args.n, args.beta)
    if args.beta is not None:
        parser.error("--beta is only valid with --family beta")
    if family == "chebyshev":
        if args.lam not in (None, Fraction(1)):
            parser.error("--family chebyshev fixes lambda = 1")
        if form is None:
            return construct.p_s32(args.n, 1)
        if form == "s21":
            return construct.p_s21_chebyshev(args.n)
        if form == "recur":
            return construct.p_chebyshev_recursive(args.n)
        parser.error("--family chebyshev supports --form s21 or recur")
    lam = args.lam if args.lam is not None else Fraction(1)
    builders = {"s41": construct.p_s41, "s32": construct.p_s32,
                "hyp": construct.p_hyp, None: construct.p_s32}
    if form not in builders:
        parser.error(f"--form {form} is not valid for --family gegenbauer")
    return builders[form](args.n, lam)


def cmd_poly(args, parser) -> int:
    p = _build(args, parser)
    if args.output == "text":
        _emit({"polynomial": repr(p.poly), **p.to_json()}, args)
    else:
        _emit(p.to_json(), args)
    return 0


def cmd_roots(args, parser) -> int:
    p = _build(args, parser)
    start = time.perf_counter()
    cert = verify.certify_critical_line(p)
    # a Favard certificate isolates nothing: the roots come from isolating
    # the reduction it holds, and their count cross-checks the certificate
    listing = cert.isolation or poly.LineIsolation(p.poly, cert.reduction)
    roots = listing.roots()
    passed = cert.passed and len(roots) == cert.distinct_real_roots
    log.debug("roots of %s: %d isolation nodes, %d refinement evaluations, "
              "%.3f s", cert.subject, listing.work, listing.refine_work,
              time.perf_counter() - start)
    payload = {**cert.to_json(), "pass": passed,
               "isolation_method": listing.method,
               "refine_work": listing.refine_work,
               "roots": [f"1/2 + {t}i" for t in roots]}
    _emit(payload, args)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

def _suite(cases):
    """A suite's row from its generator of (case, ok) pairs: at the first
    false ok, pass False with the number of cases run and a detail naming
    the case; after no case at all, pass False, since a row that checked
    nothing proves nothing; otherwise pass True with that number, merged
    with any dict the generator returns."""
    @functools.wraps(cases)
    def run(nmax: int, seed: int) -> dict:
        pairs, checks = cases(nmax, seed), 0
        while True:
            try:
                case, ok = next(pairs)
            except StopIteration as done:
                if not checks:
                    return {"pass": False, "checks": 0,
                            "detail": "no case ran"}
                return {"pass": True, "checks": checks, **(done.value or {})}
            checks += 1
            if not ok:
                return {"pass": False, "checks": checks,
                        "detail": f"{case} fails"}
    return run


def _forms_top(nmax: int) -> int:
    """The largest index of the forms row and of the reflection: that at
    which the gould suite builds a hat polynomial, if above nmax."""
    return max(nmax, 2 * min(nmax, GOULD_NMAX) + 1)


@_suite
def _suite_forms(nmax: int, seed: int):
    """Golden values of S32; then HYP = 2 S41, which ties the beta kernel
    (S32 and HYP) to the Gould weights (S41, and S21, which is S41 at
    lambda = 1), and RECUR = S21, up to ``_forms_top``. The funceq row
    proves the reflection of S32, hence of every form tied to it."""
    for n, coeffs in GOLDEN.items():
        yield (f"golden value at n={n}",
               construct.p_s32(n, 1).to_json()["coeffs"]
               == [format_rat(c) for c in coeffs])
    for n in range(_forms_top(nmax) + 1):
        for lam in LAMBDA_SET:
            yield (f"HYP = 2 S32 at n={n}, lambda={lam}",
                   verify.check_hat_ratio(construct.p_hyp(n, lam).poly,
                                          n, lam))
        yield (f"RECUR = S21 at n={n}",
               construct.p_chebyshev_recursive(n).poly
               == construct.p_s21_chebyshev(n).poly)
    return {"method": "identity"}


@_suite
def _suite_funceq(nmax: int, seed: int):
    for n in range(_forms_top(nmax) + 1):
        for lam in LAMBDA_SET:
            yield (f"reflection at n={n}, lambda={lam}",
                   verify.check_functional_equation(
                       construct.p_s32(n, lam).poly, n))
    # q_n, and so fq1, is undefined at n = 0
    for n in range(1, nmax + 1):
        for lam in LAMBDA_SET:
            yield f"fq1 at n={n}, lambda={lam}", verify.check_fq1(n, lam)
    for n in range(nmax + 1):
        for beta in BETA_SET:
            yield (f"beta reflection at n={n}, beta={beta}",
                   verify.check_functional_equation(
                       construct.p_beta(n, beta).poly, n))
    return {"method": "identity"}


@_suite
def _suite_diffeq(nmax: int, seed: int):
    for n in range(nmax + 1):
        for lam in LAMBDA_SET:
            yield (f"difference equation at n={n}, lambda={lam}",
                   verify.check_difference_equation(
                       construct.p_s32(n, lam).poly, n, lam))
            yield (f"central relation at n={n}, lambda={lam}",
                   verify.check_central_difference(
                       construct.p_hyp(n, lam).poly, n, lam))
    return {"method": "identity"}


@_suite
def _suite_recur(nmax: int, seed: int):
    for n in range(min(nmax, 12) + 1):
        for lam in LAMBDA_SET:
            for name, ok in verify.check_M_recurrences(n, lam).items():
                yield f"{name} at n={n}, lambda={lam}", ok
    return {"method": "identity"}


@_suite
def _suite_gould(nmax: int, seed: int):
    """Gould-type sum forms proved in Q[s], the M_0 prefactors at integer
    s, closures and bare sums."""
    for n in range(min(nmax, GOULD_NMAX) + 1):
        for lam in LAMBDA_SET:
            yield (f"sum forms at n={n}, lambda={lam}",
                   verify.check_gould_sum_forms(n, lam)["pass"])
    for lam in LAMBDA_SET:
        yield (f"integer-s prefactors at lambda={lam}",
               verify.check_integer_s_sums(lam, 6)["pass"])
    closures = verify.check_gould_closures(nmax, LAMBDA_SET)
    yield f"closures {closures['failures'][:3]}", closures["pass"]
    for n in range(nmax + 1):
        for lam in LAMBDA_SET:
            for parity, s in (("even", 1), ("odd", 2)):
                yield (f"bare {parity} sum at n={n}, lambda={lam}",
                       construct.s32_bare_sum(n, lam, s, parity)
                       == construct.s32_bare_closed_form(n, lam, parity))
    return {"method": "identity"}


@_suite
def _suite_q(nmax: int, seed: int):
    grid = [Fraction(3, 2), Fraction(2), Fraction(10), Fraction(1000)]
    for n in range(1, nmax + 1):
        for lam in LAMBDA_SET:
            q = construct.q_rational(n, lam)
            yield (f"q forms at n={n}, lambda={lam}",
                   verify.check_q_forms(q.fun, n, lam))
            # s = 10^6 n is where check_q_range tests the limit q -> 1
            r = verify.check_q_range(q, grid + [Fraction(10 ** 6 * n)])
            yield (f"q range at n={n}, lambda={lam}",
                   r["pass"] and r["near_one_points"] >= 1)


@_suite
def _suite_hyp3f2(nmax: int, seed: int):
    r = appendix_transform_suite(trials=200, nmax=min(nmax, 8), seed=seed)
    yield f"appendix transforms {r['failures'][:3]}", r["all_pass"]
    return {"trials": r["trials"]}


@_suite
def _suite_corollary2(nmax: int, seed: int):
    for n in range(min(nmax, 8) + 1):
        yield f"corollary 2 at n={n}", verify.check_corollary2(n)
    return {"method": "exact"}


@_suite
def _suite_genfun(nmax: int, seed: int):
    """The generating functions, coefficients 0..GENFUN_K proved exactly as
    polynomials in s, after checking the closed forms they sum: HYP = 2 S32
    with reflection, and the T-factor zero sets."""
    for lam in (Fraction(1), Fraction(1, 2), Fraction(5, 2)):
        for k in range(GENFUN_K + 1):
            hat = construct.p_hyp(k, lam).poly
            yield (f"HYP = 2 S32 at n={k}, lambda={lam}",
                   verify.check_hat_ratio(hat, k, lam))
            yield (f"reflection at n={k}, lambda={lam}",
                   verify.check_functional_equation(hat, k))
    proved, bits = {}, 0
    for lam in GENFUN_LAMBDAS + [None]:
        r = quadrature.genfun_check(lam, GENFUN_K)
        yield (f"generating function of {r['family']} at n={r['failed_n']}",
               r["pass"])
        proved[r["family"]] = r["coefficients"]
        bits = max(bits, r["coeff_bits"])
    for k in range(2, GENFUN_K + 1):
        yield (f"T zero set at n={k}",
               verify.check_T_zero_set(construct.mellin_T_closed(k).factor,
                                       k))
    return {"method": "exact", "coefficients": proved, "coeff_bits": bits}


@_suite
def _suite_quad(nmax: int, seed: int):
    small = min(nmax, 8)
    worst = 0.0
    for n in range(small + 1):
        for lam in (0.5, 1.0, 2.5):
            for s in (0.5, 2.0, 3.7):
                rel_err = quadrature.compare_mellin(n, lam, s)["rel_err"]
                worst = max(worst, rel_err)
                yield (f"quadrature at n={n}, lambda={lam}, s={s} "
                       f"(rel_err={rel_err})", rel_err <= 1e-10)
    for n in range(2, small + 1):
        m = abs(quadrature.quad_mellin_T(n, float(n * n - 1)).value)
        yield f"T zero at n={n}, s={n * n - 1} (|M|={m})", m <= 1e-11
    for m, n in ((2, 2), (3, 2), (2, 3)):
        yield (f"composition at m={m}, n={n}",
               quadrature.transform_level_lemma1_check(m, n, 2.0)["pass"])
    for m in range(5):
        for n in range(5):
            yield (f"shift at m={m}, n={n}",
                   quadrature.lemma3a_check(m, n, 1.3)["pass"])
    return {"worst_rel_err": worst}


@_suite
def _suite_props(nmax: int, seed: int):
    for n in range(1, min(nmax, 10) + 1):
        for s in (1, 2, 3, 7, 20, 40):
            yield (f"odd factors at n={n}, s={s}",
                   arithprops.odd_factor_check(n, s)["pass"])
            yield (f"reduced odd forms at n={n}, s={s}",
                   arithprops.reduced_odd_forms(n, s)["pass"])
    yield ("Catalan 2-adic valuation",
           arithprops.catalan_valuation_check(20)["pass"])


@_suite
def _suite_triangles(nmax: int, seed: int):
    for kind, kmax in (("b", 199), ("a", 200)):
        r = arithprops.divisibility_characterization(kind, kmax)
        yield (f"{kind}-triangle primality test for k <= {kmax} "
               f"(mismatches at k={r['mismatches'][:3]})", r["pass"])
    r = arithprops.a_polynomial_checks(16)
    for name in ("recurrence", "gegenbauer_combination", "b_row_match"):
        yield f"A_k {name}", r[name]
    rep = identity_suite(max(6, min(nmax, 10)))
    return {"identity_checks": sum(rep.values())}


SUITES = {
    "forms": _suite_forms, "funceq": _suite_funceq, "diffeq": _suite_diffeq,
    "recur": _suite_recur, "gould": _suite_gould, "q": _suite_q,
    "hyp3f2": _suite_hyp3f2, "corollary2": _suite_corollary2,
    "genfun": _suite_genfun, "quad": _suite_quad, "props": _suite_props,
    "triangles": _suite_triangles,
}


def _run_suite(name: str, nmax: int, seed: int) -> dict:
    """One suite's row, with the seconds that suite took."""
    start = time.perf_counter()
    try:
        row = SUITES[name](nmax, seed)
    except Exception as exc:  # a raising suite is a failed suite
        log.error("suite %s raised", name, exc_info=True)
        row = {"pass": False, "detail": f"{type(exc).__name__}: {exc}"}
    return {**row, "elapsed_s": time.perf_counter() - start}


def cmd_verify(args, parser) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    payload = [{"suite": name, **_run_suite(name, args.nmax, args.seed)}
               for name in names]
    _emit(payload, args)
    return 0 if all(r["pass"] for r in payload) else 1


# ---------------------------------------------------------------------------
# mellin / props / triangle
# ---------------------------------------------------------------------------

def cmd_mellin(args, parser) -> int:
    ns = args.n if args.n else list(range(args.nmax + 1))
    before = quadrature.memo_counts()
    if args.family == "T":
        rows = [quadrature.compare_mellin_T(n, s, args.tol)
                for n in ns for s in args.s]
    else:
        lams = args.lam or [Fraction(1)]
        rows = [quadrature.compare_mellin(n, lam, s, args.tol)
                for n in ns for lam in lams for s in args.s]
    built, reused, computed, beta_reused, planned, plan_reused = (
        after - start for after, start in zip(quadrature.memo_counts(),
                                              before))
    log.debug("mellin: %d rows, %d Gauss-Jacobi rules built of %d requested "
              "(%d reused), %d Beta values computed of %d requested "
              "(%d reused), %d row plans built of %d requested (%d reused)",
              len(rows), built, built + reused, reused, computed,
              computed + beta_reused, beta_reused, planned,
              planned + plan_reused, plan_reused)
    _emit(rows, args)
    return 0 if all(r["rel_err"] <= 1e-10 for r in rows) else 1


def cmd_props(args, parser) -> int:
    s_values = args.s or [1, 3, 7]
    rows = arithprops.csv_rows(args.nmax, s_values)
    _emit(rows, args)
    ok = all(r["valuation_2"] == 0 for r in rows)
    return 0 if ok else 1


def cmd_triangle(args, parser) -> int:
    if args.characterize is not None:
        r = arithprops.divisibility_characterization(args.kind,
                                                     args.characterize)
        _emit(r, args)
        return 0 if r["pass"] else 1
    if args.k is None:
        parser.error("triangle requires --k or --characterize")
    row = arithprops.triangle(args.kind, args.k)
    _emit(row.to_json(), args)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="critpoly",
        description="Critical polynomials from Mellin transforms of "
                    "Gegenbauer and Chebyshev functions")
    parser.add_argument("--log-level", default="WARNING",
                        choices=["DEBUG", "INFO", "WARNING", "ERROR"],
                        help="level of the critpoly logger (default WARNING)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", choices=["json", "csv", "text"],
                       default="text")
        p.add_argument("--out", metavar="FILE")
        p.add_argument("--seed", type=int, default=0)

    for name, func, text in (
            ("poly", cmd_poly, "construct a critical polynomial"),
            ("roots", cmd_roots, "certify and list critical-line zeros")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--family", choices=["gegenbauer", "beta", "chebyshev"],
                       default="gegenbauer")
        p.add_argument("--lambda", dest="lam", type=_rat_flag, default=None)
        p.add_argument("--beta", type=_rat_flag, default=None)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--form", choices=["s41", "s32", "s21", "hyp", "recur"],
                       default=None)
        common(p)
        p.set_defaults(func=func)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=["all"] + list(SUITES), default="all")
    p.add_argument("--nmax", type=_positive_int, default=10)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("mellin", help="quadrature vs closed-form comparison")
    p.add_argument("--family", choices=["gegenbauer", "T"],
                   default="gegenbauer")
    p.add_argument("--n", type=int, action="append", default=None)
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--lambda", dest="lam", type=_rat_flag, action="append",
                   default=None)
    p.add_argument("--s", type=float, action="append", required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    common(p)
    p.set_defaults(func=cmd_mellin)

    p = sub.add_parser("props", help="Catalan-normalized integer values")
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--s", type=int, action="append", default=None)
    common(p)
    p.set_defaults(func=cmd_props)

    p = sub.add_parser("triangle", help="number-triangle rows and primality")
    p.add_argument("--kind", choices=["a", "b"], required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--characterize", type=int, metavar="KMAX", default=None)
    common(p)
    p.set_defaults(func=cmd_triangle)

    return parser


# Building the parser costs about as much as a small command, and parsing
# leaves it unchanged (every `append` option defaults to None), so every
# call in a process shares one.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    level = log.level
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: "
                                           "%(message)s"))
    log.setLevel(args.log_level)
    log.addHandler(handler)
    try:
        return args.func(args, parser)
    except CritPolyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
