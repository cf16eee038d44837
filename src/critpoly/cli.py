"""Batch command-line front door: construct, certify, verify, compare, and
emit tables."""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import logging
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

from . import arithprops, construct, quadrature, verify
from .errors import CritPolyError
from .hyp3f2 import appendix_transform_suite
from .orthopoly import identity_suite
from .rat import as_rat, format_rat, parse_rat

LAMBDA_SET = [Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(7, 3)]
BETA_SET = [Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(-2)]
S_SAMPLES = [Fraction(1, 3), Fraction(7, 5), Fraction(5, 2),
             Fraction(11, 7), Fraction(9, 4)]

GOLDEN = {0: [Fraction(1, 2)], 1: [Fraction(1)],
          2: [Fraction(-3, 4), Fraction(3, 2)],
          3: [Fraction(-3), Fraction(6)],
          4: [Fraction(63, 4), Fraction(-15), Fraction(15)]}
# the gould suite uses the hat polynomials up to index 2 GOULD_NMAX + 1
GOULD_NMAX = 6
GENFUN_K = 40
GENFUN_S = (1.0, 2.0, 3.0)

log = logging.getLogger("critpoly")


def _max_workers() -> int:
    raw = os.environ.get("CRITPOLY_THREADS", "")
    fallback = min(4, os.cpu_count() or 1)
    if raw.strip():
        try:
            return max(1, int(raw))
        except ValueError:
            log.warning("CRITPOLY_THREADS=%r is not an integer; using %d "
                        "workers", raw, fallback)
    return fallback


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
    roots = cert.isolation.roots()
    log.debug("roots of %s: %d isolation nodes, %d refinement evaluations, "
              "%.3f s", cert.subject, cert.work, cert.isolation.refine_work,
              time.perf_counter() - start)
    payload = {**cert.to_json(), "refine_work": cert.isolation.refine_work,
               "roots": [f"1/2 + {t}i" for t in roots]}
    _emit(payload, args)
    return 0 if cert.passed else 1


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

def _suite_forms(nmax: int, seed: int) -> dict:
    """Golden values; then S41, HYP, S21 and RECUR against S32 and the
    reflection of S32 (hence of every form), up to the largest index at
    which the gould suite builds a hat polynomial."""
    count = 0
    for n, coeffs in GOLDEN.items():
        want = [format_rat(c) for c in coeffs]
        for built in (construct.p_s41(n, 1), construct.p_s32(n, 1),
                      construct.p_s21_chebyshev(n),
                      construct.p_chebyshev_recursive(n)):
            if built.to_json()["coeffs"] != want:
                return {"pass": False, "detail": f"golden mismatch at n={n}"}
        count += 4
    for n in range(max(nmax, 2 * min(nmax, GOULD_NMAX) + 1) + 1):
        for lam in LAMBDA_SET:
            a, b = construct.p_s41(n, lam), construct.p_s32(n, lam)
            if a.poly != b.poly:
                return {"pass": False,
                        "detail": f"S41 != S32 at n={n}, lambda={lam}"}
            if not verify.check_hat_ratio(construct.p_hyp(n, lam).poly,
                                          n, lam):
                return {"pass": False,
                        "detail": f"HYP != 2 S32 at n={n}, lambda={lam}"}
            if not verify.check_functional_equation(b.poly, n):
                return {"pass": False,
                        "detail": f"reflection fails at n={n}, lambda={lam}"}
            count += 3
        if construct.p_s21_chebyshev(n).poly != construct.p_s32(n, 1).poly:
            return {"pass": False, "detail": f"S21 != S32 at n={n}"}
        if (construct.p_chebyshev_recursive(n).poly
                != construct.p_s21_chebyshev(n).poly):
            return {"pass": False, "detail": f"RECUR != S21 at n={n}"}
        count += 2
    return {"pass": True, "checks": count}


def _suite_funceq(nmax: int, seed: int) -> dict:
    count = 0
    for n in range(nmax + 1):
        for lam in LAMBDA_SET:
            if not verify.check_functional_equation(
                    construct.p_s32(n, lam).poly, n):
                return {"pass": False,
                        "detail": f"funceq fails at n={n}, lambda={lam}"}
            if n >= 1 and not verify.check_fq1(n, lam):
                return {"pass": False,
                        "detail": f"fq1 fails at n={n}, lambda={lam}"}
            count += 2
        for beta in BETA_SET:
            if not verify.check_functional_equation(
                    construct.p_beta(n, beta).poly, n):
                return {"pass": False,
                        "detail": f"beta funceq fails at n={n}, beta={beta}"}
            count += 1
    return {"pass": True, "checks": count}


def _suite_diffeq(nmax: int, seed: int) -> dict:
    count = 0
    for n in range(nmax + 1):
        for lam in LAMBDA_SET:
            if not verify.check_difference_equation(
                    construct.p_s32(n, lam).poly, n, lam):
                return {"pass": False,
                        "detail": f"difference eq fails at n={n}, "
                                  f"lambda={lam}"}
            if not verify.check_central_difference(
                    construct.p_hyp(n, lam).poly, n, lam):
                return {"pass": False,
                        "detail": f"central relation fails at n={n}, "
                                  f"lambda={lam}"}
            count += 2
    return {"pass": True, "checks": count}


def _suite_recur(nmax: int, seed: int) -> dict:
    count = 0
    for n in range(min(nmax, 12) + 1):
        for lam in LAMBDA_SET:
            rep = verify.check_M_recurrences(n, lam, S_SAMPLES)
            for name, r in rep.items():
                ok = r.get("pass", True) and r.get("zero_polynomial", True)
                if not ok:
                    return {"pass": False,
                            "detail": f"{name} fails at n={n}, lambda={lam}"}
                count += 1
    return {"pass": True, "checks": count}


def _suite_gould(nmax: int, seed: int) -> dict:
    count = 0
    small = min(nmax, GOULD_NMAX)
    for n in range(small + 1):
        for lam in LAMBDA_SET:
            if not verify.check_gould_sum_forms(n, lam, S_SAMPLES)["pass"]:
                return {"pass": False,
                        "detail": f"sum forms fail at n={n}, lambda={lam}"}
            if not verify.check_integer_s_sums(n, lam, 6)["pass"]:
                return {"pass": False,
                        "detail": f"integer-s sums fail at n={n}, "
                                  f"lambda={lam}"}
            count += 2
    closures = verify.check_gould_closures(nmax, LAMBDA_SET)
    if not closures["pass"]:
        return {"pass": False, "detail": f"closures: {closures['failures'][:3]}"}
    count += nmax * len(LAMBDA_SET)
    for n in range(nmax + 1):
        for lam in LAMBDA_SET:
            for parity, s in (("even", 1), ("odd", 2)):
                if (construct.s32_bare_sum(n, lam, s, parity)
                        != construct.s32_bare_closed_form(n, lam, parity)):
                    return {"pass": False,
                            "detail": f"bare {parity} sum fails at n={n}, "
                                      f"lambda={lam}"}
                count += 1
    return {"pass": True, "checks": count}


def _suite_q(nmax: int, seed: int) -> dict:
    grid = [Fraction(3, 2), Fraction(2), Fraction(10), Fraction(1000)]
    count = 0
    for n in range(1, nmax + 1):
        for lam in LAMBDA_SET:
            if not verify.check_q_forms(construct.q_rational(n, lam).fun,
                                        n, lam):
                return {"pass": False,
                        "detail": f"q forms differ at n={n}, lambda={lam}"}
            r = verify.check_q_range(n, lam, grid)
            if not r["pass"]:
                return {"pass": False,
                        "detail": f"q range fails at n={n}, lambda={lam}"}
            count += 2
    return {"pass": True, "checks": count}


def _suite_hyp3f2(nmax: int, seed: int) -> dict:
    r = appendix_transform_suite(trials=200, nmax=min(nmax, 8), seed=seed)
    return {"pass": r["all_pass"], "trials": r["trials"],
            "detail": r["failures"][:3] if r["failures"] else ""}


def _suite_corollary2(nmax: int, seed: int) -> dict:
    samples = [Fraction(3, 10), Fraction(5, 2), Fraction(17, 6)]
    worst = 0.0
    for n in range(min(nmax, 8) + 1):
        r = verify.check_corollary2(n, samples)
        if not r["pass"]:
            return {"pass": False, "detail": f"fails at n={n}"}
        worst = max(worst, r["worst_rel_err"])
    return {"pass": True, "worst_rel_err": worst}


def _suite_genfun(nmax: int, seed: int) -> dict:
    """The generating-function series, after checking the closed forms they
    sum: HYP = 2 S32 with reflection, and the T-factor zero sets."""
    count = 0
    # the series coefficients do not depend on t, and the T family not on
    # lambda either: each is computed once for the points that share it
    t_values = {s: quadrature.mellin_values(None, s, GENFUN_K)
                for s in GENFUN_S}
    for lam in (1.0, 0.5, 2.5):
        lam_r = as_rat(lam)
        for k in range(GENFUN_K + 1):
            hat = construct.p_hyp(k, lam_r).poly
            if not (verify.check_hat_ratio(hat, k, lam_r)
                    and verify.check_functional_equation(hat, k)):
                return {"pass": False,
                        "detail": f"hat polynomial fails at n={k}, "
                                  f"lambda={lam}"}
            count += 2
        for s in GENFUN_S:
            m_values = quadrature.mellin_values(lam, s, GENFUN_K)
            for t in (0.05, 0.1):
                r = quadrature.genfun_check(lam, s, t, K=GENFUN_K, tol=1e-9,
                                            m_values=m_values,
                                            t_values=t_values[s])
                if not r["pass"]:
                    return {"pass": False,
                            "detail": f"lambda={lam}, s={s}, t={t}: "
                                      f"{r['errors']}"}
                count += 1
    for k in range(2, GENFUN_K + 1):
        if not verify.check_T_zero_set(construct.mellin_T_closed(k).factor,
                                       k):
            return {"pass": False, "detail": f"T zero set fails at n={k}"}
        count += 1
    return {"pass": True, "checks": count}


def _suite_quad(nmax: int, seed: int) -> dict:
    small = min(nmax, 8)
    worst = 0.0
    for n in range(small + 1):
        for lam in (0.5, 1.0, 2.5):
            for s in (0.5, 2.0, 3.7):
                r = quadrature.compare_mellin(n, lam, s)
                worst = max(worst, r["rel_err"])
                if r["rel_err"] > 1e-10:
                    return {"pass": False,
                            "detail": f"n={n}, lambda={lam}, s={s}: "
                                      f"rel_err={r['rel_err']}"}
    for n in range(2, small + 1):
        q = quadrature.quad_mellin_T(n, float(n * n - 1))
        if abs(q.value) > 1e-11:
            return {"pass": False,
                    "detail": f"T zero at n={n}: |M|={abs(q.value)}"}
    for m, n in ((2, 2), (3, 2), (2, 3)):
        r = quadrature.transform_level_lemma1_check(m, n, 2.0)
        if not r["pass"]:
            return {"pass": False, "detail": f"composition m={m}, n={n}"}
    for m in range(5):
        for n in range(5):
            if not quadrature.lemma3a_check(m, n, 1.3)["pass"]:
                return {"pass": False, "detail": f"shift m={m}, n={n}"}
    return {"pass": True, "worst_rel_err": worst}


def _suite_props(nmax: int, seed: int) -> dict:
    for n in range(1, min(nmax, 10) + 1):
        for s in (1, 2, 3, 7, 20, 40):
            if not arithprops.odd_factor_check(n, s)["pass"]:
                return {"pass": False, "detail": f"odd factors n={n}, s={s}"}
            if not arithprops.reduced_odd_forms(n, s)["pass"]:
                return {"pass": False, "detail": f"reduced n={n}, s={s}"}
    if not arithprops.catalan_valuation_check(20)["pass"]:
        return {"pass": False, "detail": "Catalan 2-adic valuation"}
    return {"pass": True}


def _suite_triangles(nmax: int, seed: int) -> dict:
    for kind, kmax in (("b", 199), ("a", 200)):
        r = arithprops.divisibility_characterization(kind, kmax)
        if not r["pass"]:
            return {"pass": False,
                    "detail": f"{kind}-triangle mismatch at {r['mismatches'][:3]}"}
    r = arithprops.a_polynomial_checks(16)
    if not r["pass"]:
        return {"pass": False, "detail": str(r)}
    rep = identity_suite(max(6, min(nmax, 10)))
    return {"pass": True, "identity_checks": sum(rep.values())}


SUITES = {
    "forms": _suite_forms, "funceq": _suite_funceq, "diffeq": _suite_diffeq,
    "recur": _suite_recur, "gould": _suite_gould, "q": _suite_q,
    "hyp3f2": _suite_hyp3f2, "corollary2": _suite_corollary2,
    "genfun": _suite_genfun, "quad": _suite_quad, "props": _suite_props,
    "triangles": _suite_triangles,
}


def _run_suite(name: str, nmax: int, seed: int) -> dict:
    """One suite's row, timed in the worker that runs it."""
    start = time.perf_counter()
    try:
        row = SUITES[name](nmax, seed)
    except Exception as exc:  # a raising suite is a failed suite
        log.error("suite %s raised", name, exc_info=True)
        row = {"pass": False, "detail": f"{type(exc).__name__}: {exc}"}
    return {**row, "elapsed_s": time.perf_counter() - start}


def cmd_verify(args, parser) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    with ThreadPoolExecutor(max_workers=_max_workers()) as pool:
        futures = {name: pool.submit(_run_suite, name, args.nmax, args.seed)
                   for name in names}
        results = {name: futures[name].result() for name in names}
    payload = [{"suite": name, **results[name]} for name in names]
    _emit(payload, args)
    return 0 if all(r["pass"] for r in results.values()) else 1


# ---------------------------------------------------------------------------
# mellin / props / triangle
# ---------------------------------------------------------------------------

def cmd_mellin(args, parser) -> int:
    ns = args.n if args.n else list(range(args.nmax + 1))
    rows = []
    if args.family == "T":
        jobs = [(n, None, s) for n in ns for s in args.s]
    else:
        lams = args.lam or [Fraction(1)]
        jobs = [(n, lam, s) for n in ns for lam in lams for s in args.s]
    with ThreadPoolExecutor(max_workers=_max_workers()) as pool:
        if args.family == "T":
            futs = [pool.submit(quadrature.compare_mellin_T, n, s, args.tol)
                    for n, _, s in jobs]
        else:
            futs = [pool.submit(quadrature.compare_mellin, n, lam, s,
                                args.tol) for n, lam, s in jobs]
        rows = [f.result() for f in futs]
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

    p = sub.add_parser("poly", help="construct a critical polynomial")
    p.add_argument("--family", choices=["gegenbauer", "beta", "chebyshev"],
                   default="gegenbauer")
    p.add_argument("--lambda", dest="lam", type=_rat_flag, default=None)
    p.add_argument("--beta", type=_rat_flag, default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--form", choices=["s41", "s32", "s21", "hyp", "recur"],
                   default=None)
    common(p)
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("roots", help="certify and list critical-line zeros")
    p.add_argument("--family", choices=["gegenbauer", "beta", "chebyshev"],
                   default="gegenbauer")
    p.add_argument("--lambda", dest="lam", type=_rat_flag, default=None)
    p.add_argument("--beta", type=_rat_flag, default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--form", choices=["s41", "s32", "s21", "hyp", "recur"],
                   default=None)
    common(p)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=["all"] + list(SUITES), default="all")
    p.add_argument("--nmax", type=int, default=10)
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
