"""Command-line front door: flags, schemas, exit codes, determinism."""
import csv
import dataclasses
import io
import json
import logging
import os
import subprocess
import sys
import threading
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from critpoly import arithprops, cli, orthopoly, poly, quadrature, verify
from critpoly.cli import main
from critpoly.construct import p_beta
from sturm_oracle import sturm_roots
from taylor_oracle import TaylorPositiveRoots

SRC = Path(__file__).resolve().parent.parent / "src"
TRIANGLES = ["verify", "--suite", "triangles", "--nmax", "6",
             "--output", "json"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_poly_json_schema(capsys):
    code, out = run(capsys, "poly", "--family", "chebyshev", "--n", "4",
                    "--form", "s21", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["variable"] == "s"
    assert doc["coeffs"] == ["63/4", "-15", "15"]


def test_poly_defaults_to_s32(capsys):
    code, out = run(capsys, "poly", "--n", "0", "--lambda", "1",
                    "--output", "json")
    assert code == 0
    assert json.loads(out)["coeffs"] == ["1/2"]


def test_poly_text_output(capsys):
    code, out = run(capsys, "poly", "--n", "4", "--lambda", "1")
    assert code == 0
    assert out.startswith("polynomial=15*s^2 - 15*s + 63/4  n=4  ")
    code, out = run(capsys, "poly", "--family", "beta", "--beta", "0",
                    "--n", "6")
    assert out.startswith("polynomial=1/8*s^3 - 3/16*s^2 + s - 15/32  ")


def test_poly_beta_family(capsys):
    code, out = run(capsys, "poly", "--family", "beta", "--beta", "0",
                    "--n", "2", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["beta"] == "0"
    assert len(doc["coeffs"]) == 2


def test_float_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["poly", "--n", "2", "--lambda", "0.5"])
    assert exc.value.code == 2


def test_inconsistent_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["poly", "--family", "beta", "--n", "2", "--lambda", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["poly", "--family", "chebyshev", "--n", "2", "--form", "s41"])
    assert exc.value.code == 2


def test_roots_output(capsys):
    code, out = run(capsys, "roots", "--n", "4", "--lambda", "1",
                    "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["distinct_real_roots"] == 2
    ts = [float(r.split("+")[1].rstrip("i")) for r in doc["roots"]]
    assert ts == pytest.approx([-0.8944271909999159, 0.8944271909999159])


def test_roots_fallback_lists_the_same_roots(capsys, monkeypatch):
    argv = ("roots", "--family", "beta", "--beta=-2", "--n", "13",
            "--output", "json")
    code, out = run(capsys, *argv)
    fast = json.loads(out)
    # Favard certifies; the listing is the Descartes isolation of the bare
    # polynomial, which the forced fallback below replaces
    assert code == 0 and fast["method"] == "favard"
    assert fast["isolation_method"] == "descartes"

    class NoProof(poly.LineIsolation):
        def descartes_failure(self):
            return "forced"

    # the listing takes one squarefree part of w, isolates its roots and
    # refines those
    built = []
    squarefree = poly.squarefree_ints

    def counted(a):
        built.append(a)
        return squarefree(a)

    monkeypatch.setattr(poly, "LineIsolation", NoProof)
    monkeypatch.setattr(poly, "squarefree_ints", counted)
    code, out = run(capsys, *argv)
    assert len(built) == 1
    slow = json.loads(out)
    assert code == 0 and slow["method"] == "favard"
    assert slow["isolation_method"] == "squarefree"
    assert slow["pass"] is True
    assert slow["distinct_real_roots"] == fast["distinct_real_roots"] == 6
    assert slow["coeff_bits"] == fast["coeff_bits"]
    ts = [[float(r.split("+")[1].rstrip("i")) for r in doc["roots"]]
          for doc in (fast, slow)]
    assert ts[0] == pytest.approx(ts[1], rel=1e-12, abs=1e-12)
    v, _ = poly.substitute_critical(p_beta(13, -2).poly)
    assert ts[1] == pytest.approx(sturm_roots(v), rel=1e-12, abs=1e-12)
    assert slow["refine_work"] > 0


def test_roots_reduces_the_line_once(capsys, monkeypatch):
    # the listing isolates the (odd, w) that the Favard certificate holds
    calls = []
    reduce = poly.line_reduction

    def counted(p):
        calls.append(p)
        return reduce(p)

    monkeypatch.setattr(poly, "line_reduction", counted)
    monkeypatch.setattr(verify, "line_reduction", counted)
    code, out = run(capsys, "roots", "--family", "beta", "--beta=-3", "--n",
                    "41", "--output", "json")
    doc = json.loads(out)
    assert code == 0 and doc["method"] == "favard"
    assert doc["isolation_method"] == "descartes" and len(doc["roots"]) == 20
    assert len(calls) == 1
    # and so does the Descartes certificate after a failed Favard check
    monkeypatch.setattr(verify, "favard_failure", lambda p, odd, w: "forced")
    cert = verify.certify_critical_line(p_beta(41, -3))
    assert cert.method == "descartes" and len(calls) == 2


def test_roots_count_differing_from_the_certificate_fails(capsys,
                                                          monkeypatch):
    # a Favard certificate claiming one root more than the Descartes
    # isolation of the bare polynomial lists
    certify = verify.certify_critical_line

    def claims_one_more(p, reduction=None):
        cert = certify(p, reduction)
        if cert.method != "favard":
            return cert
        return dataclasses.replace(
            cert, distinct_real_roots=cert.distinct_real_roots + 1)

    argv = ("roots", "--family", "beta", "--beta=-3", "--n", "40",
            "--output", "json")
    code, out = run(capsys, *argv)
    assert code == 0 and json.loads(out)["pass"] is True
    monkeypatch.setattr(verify, "certify_critical_line", claims_one_more)
    code, out = run(capsys, *argv)
    doc = json.loads(out)
    assert code == 1 and doc["pass"] is False
    assert doc["method"] == "favard" and doc["distinct_real_roots"] == 21
    assert len(doc["roots"]) == 20


def test_roots_report_refine_work(capsys):
    argv = ("roots", "--family", "beta", "--beta=-3", "--n", "40")
    code, out = run(capsys, *argv, "--output", "json")
    work = json.loads(out)["refine_work"]
    assert code == 0 and work == 147
    code, out = run(capsys, *argv, "--output", "csv")
    assert next(csv.DictReader(io.StringIO(out)))["refine_work"] == "147"
    # bisection spends 575 signs on the same boxes
    oracle = TaylorPositiveRoots(poly.LineIsolation(p_beta(40, -3).poly).w)
    for box in oracle.boxes:
        oracle.refine(box)
    assert work < oracle.evaluations == 575


def test_log_level_shows_the_fallback(capsys, monkeypatch):
    class NoProof(poly.LineIsolation):
        def descartes_failure(self):
            return "forced"

    monkeypatch.setattr(poly, "LineIsolation", NoProof)
    argv = ["roots", "--n", "4", "--lambda", "1", "--output", "json"]
    level = logging.getLogger("critpoly").level
    assert main(argv) == 0
    assert "falls back" not in capsys.readouterr().err
    assert main(["--log-level", "DEBUG", *argv]) == 0
    err = capsys.readouterr().err
    assert "DEBUG critpoly: " in err
    assert "falls back to the squarefree part of w: forced" in err
    assert "2 isolation nodes, 11 refinement evaluations" in err
    # the level is the run's own: the logger is back at its earlier level
    assert logging.getLogger("critpoly").level == level


def test_roots_degree_zero(capsys):
    code, out = run(capsys, "roots", "--n", "1", "--lambda", "1",
                    "--output", "json")
    assert code == 0
    assert json.loads(out)["roots"] == []


def test_verify_single_suite(capsys):
    code, out = run(capsys, "verify", "--suite", "forms", "--nmax", "6",
                    "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc[0]["suite"] == "forms" and doc[0]["pass"]


def test_verify_reports_a_raising_suite(capsys, monkeypatch):
    def boom(nmax, seed):
        raise ZeroDivisionError("boom")

    monkeypatch.setitem(cli.SUITES, "props", boom)
    code, out = run(capsys, "verify", "--suite", "props", "--output", "json")
    assert code == 1
    row = json.loads(out)[0]
    assert row["pass"] is False
    assert row["detail"] == "ZeroDivisionError: boom"
    assert row["elapsed_s"] >= 0


def test_verify_rows_carry_their_suite_time(capsys, monkeypatch):
    def slow(nmax, seed):
        time.sleep(0.05)
        return {"pass": True, "checks": 1}

    monkeypatch.setitem(cli.SUITES, "props", slow)
    code, out = run(capsys, "verify", "--suite", "props", "--output", "csv")
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert list(row) == ["suite", "pass", "checks", "elapsed_s"]
    assert 0.05 <= float(row["elapsed_s"]) < 5


def test_verify_runs_its_suites_in_order_in_the_calling_thread(
        capsys, monkeypatch):
    ran = []
    names = list(cli.SUITES)
    middle = names[len(names) // 2]

    def stub(name):
        def suite(nmax, seed):
            ran.append((threading.get_ident(), name))
            if name == middle:
                raise RuntimeError("boom")
            return {"pass": True, "checks": 1}
        return suite

    for name in names:
        monkeypatch.setitem(cli.SUITES, name, stub(name))
    code, out = run(capsys, "verify", "--suite", "all", "--output", "json")
    assert code == 1
    assert ran == [(threading.get_ident(), name) for name in names]
    rows = json.loads(out)
    assert [row["suite"] for row in rows] == names
    assert [row["pass"] for row in rows] == [name != middle for name in names]
    assert rows[names.index(middle)]["detail"] == "RuntimeError: boom"


# the cases each suite runs at --nmax 10: a change that drops or adds a case
# changes its count, and updates this pin on purpose
CHECK_COUNTS = {"forms": 75, "funceq": 140, "diffeq": 88, "recur": 69,
                "gould": 121, "q": 80, "hyp3f2": 1, "corollary2": 9,
                "genfun": 290, "quad": 116, "props": 121, "triangles": 5}
# the method each row that has one reports; the other rows carry a figure
# of their own
METHODS = {"forms": "identity", "funceq": "identity", "diffeq": "identity",
           "recur": "identity", "gould": "identity", "corollary2": "exact",
           "genfun": "exact"}


def test_verify_all_runs_the_pinned_number_of_checks(capsys):
    code, out = run(capsys, "verify", "--suite", "all", "--nmax", "10",
                    "--output", "json")
    rows = json.loads(out)
    assert code == 0 and all(row["pass"] for row in rows), rows
    assert {row["suite"]: row["checks"] for row in rows} == CHECK_COUNTS
    assert [row["suite"] for row in rows] == list(CHECK_COUNTS)
    assert {row["suite"]: row["method"] for row in rows
            if "method" in row} == METHODS


# the rows whose checks must not repeat one another; genfun re-runs the
# HYP = 2 S32 ratio and the reflection to n = 40 as the premise of its proof
IDENTITY_ROWS = ["forms", "funceq", "diffeq", "recur", "gould", "q",
                 "corollary2"]


def test_no_check_runs_in_two_rows(monkeypatch):
    rows_of, current = {}, []

    def wrap(name, check):
        def traced(*args):
            key = (name, tuple(tuple(a) if isinstance(a, list) else a
                               for a in args))
            rows_of.setdefault(key, set()).add(current[-1])
            return check(*args)
        return traced

    for name in dir(verify):
        if name.startswith("check_"):
            monkeypatch.setattr(verify, name, wrap(name, getattr(verify, name)))
    for row in IDENTITY_ROWS:
        current.append(row)
        assert cli.SUITES[row](10, 0)["pass"], row
    assert set().union(*rows_of.values()) == set(IDENTITY_ROWS)
    shared = Counter((key[0], *sorted(rows))
                     for key, rows in rows_of.items() if len(rows) > 1)
    assert not shared, shared


def test_mellin_runs_its_rows_in_order_in_the_calling_thread(
        capsys, monkeypatch):
    ran = []

    def row(n, lam, s, tol):
        ran.append((threading.get_ident(), n, lam, s))
        return {"n": n, "s": s, "rel_err": 1.0 if (n, s) == (1, 2.0) else 0.0}

    monkeypatch.setattr(quadrature, "compare_mellin", row)
    code, out = run(capsys, "mellin", "--nmax", "2", "--lambda", "1",
                    "--lambda", "3/2", "--s", "1", "--s", "2",
                    "--output", "json")
    assert code == 1
    want = [(n, lam, s) for n in range(3)
            for lam in (Fraction(1), Fraction(3, 2)) for s in (1.0, 2.0)]
    assert ran == [(threading.get_ident(), *job) for job in want]
    assert [(r["n"], r["s"]) for r in json.loads(out)] == [
        (n, s) for n, _, s in want]


def test_broken_identity_fails_verify(capsys, monkeypatch):
    # breaks identity (viii), b_row_substitution, of the identity suite
    good = orthopoly.triangle_row_polynomial_b
    monkeypatch.setattr(orthopoly, "triangle_row_polynomial_b",
                        lambda k: good(k) + 1)
    code, out = run(capsys, *TRIANGLES)
    assert code == 1
    row = json.loads(out)[0]
    assert row["pass"] is False and "b_row_substitution" in row["detail"]


def test_broken_identity_fails_verify_under_optimize():
    # python -O strips assert statements; the checks must not rely on them
    script = ("import sys\n"
              "from critpoly import orthopoly\n"
              "from critpoly.cli import main\n"
              "good = orthopoly.triangle_row_polynomial_b\n"
              "orthopoly.triangle_row_polynomial_b = lambda k: good(k) + 1\n"
              f"sys.exit(main({TRIANGLES!r}))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    row = json.loads(proc.stdout)[0]
    assert row["pass"] is False and "b_row_substitution" in row["detail"]


# one check per suite, replaced by a stand-in that fails at one case only:
# (suite, module, check, stand-in, the detail the row must carry)
AT_N2_LAMBDA_3_2 = "at n=2, lambda=3/2 fails"
FAIL_ONE_CASE = [
    ("forms", verify, "check_hat_ratio",
     lambda p, n, lam: (n, lam) != (2, Fraction(3, 2)),
     "HYP = 2 S32 " + AT_N2_LAMBDA_3_2),
    ("funceq", verify, "check_fq1",
     lambda n, lam: (n, lam) != (2, Fraction(3, 2)),
     "fq1 " + AT_N2_LAMBDA_3_2),
    ("diffeq", verify, "check_central_difference",
     lambda p, n, lam: (n, lam) != (2, Fraction(3, 2)),
     "central relation " + AT_N2_LAMBDA_3_2),
    ("recur", verify, "check_M_recurrences",
     lambda n, lam: {"duplication_series": (n, lam) != (2, Fraction(3, 2))},
     "duplication_series " + AT_N2_LAMBDA_3_2),
    ("gould", verify, "check_gould_sum_forms",
     lambda n, lam: {"pass": (n, lam) != (2, Fraction(3, 2))},
     "sum forms " + AT_N2_LAMBDA_3_2),
    ("q", verify, "check_q_range",
     lambda q, grid: {"pass": (q.n, q.lam) != (2, Fraction(3, 2)),
                      "near_one_points": 1},
     "q range " + AT_N2_LAMBDA_3_2),
    ("hyp3f2", cli, "appendix_transform_suite",
     lambda trials, nmax, seed: {
         "all_pass": False, "trials": trials,
         "failures": [{"identity": 3, "params": "n=2 a=1/2 b=1 c=3 d=5"}]},
     "'params': 'n=2 a=1/2 b=1 c=3 d=5'"),
    ("corollary2", verify, "check_corollary2",
     lambda n: n != 2,
     "corollary 2 at n=2 fails"),
    ("genfun", quadrature, "genfun_check",
     lambda lam, K: {"family": "T" if lam is None else f"lambda={lam}",
                     "pass": lam != Fraction(7, 3), "failed_n": 12,
                     "coefficients": 12, "coeff_bits": 0},
     "generating function of lambda=7/3 at n=12 fails"),
    ("quad", quadrature, "compare_mellin",
     lambda n, lam, s: {"rel_err": 1.0 if (n, lam, s) == (2, 1.0, 3.7)
                        else 0.0},
     "quadrature at n=2, lambda=1.0, s=3.7 (rel_err=1.0) fails"),
    ("props", arithprops, "odd_factor_check",
     lambda n, s: {"pass": (n, s) != (2, 7)}, "odd factors at n=2, s=7 fails"),
    ("triangles", arithprops, "divisibility_characterization",
     lambda kind, kmax: {"pass": kind == "b", "mismatches": [] if kind == "b"
                         else [12]},
     "a-triangle primality test for k <= 200 (mismatches at k=[12]) fails"),
]


def test_every_suite_has_a_negative_control():
    assert [case[0] for case in FAIL_ONE_CASE] == list(cli.SUITES)


@pytest.mark.parametrize("suite, module, check, stand_in, detail",
                         FAIL_ONE_CASE, ids=[c[0] for c in FAIL_ONE_CASE])
def test_a_failing_check_names_its_case(monkeypatch, suite, module, check,
                                        stand_in, detail):
    monkeypatch.setattr(module, check, stand_in)
    row = cli.SUITES[suite](4, 0)
    assert row["pass"] is False and type(row["checks"]) is int
    assert detail in row["detail"], row


def test_q_range_case_needs_a_limit_point(monkeypatch):
    # a grid with no s >= 10^6 n leaves the limit q -> 1 untested
    monkeypatch.setattr(verify, "check_q_range", lambda q, grid: {
        "pass": True, "near_one_points": sum(s >= 10 ** 6 * q.n
                                             for s in grid)})
    assert cli.SUITES["q"](4, 0)["pass"] is True
    monkeypatch.setattr(verify, "check_q_range", lambda q, grid: {
        "pass": True, "near_one_points": 0})
    row = cli.SUITES["q"](4, 0)
    assert row["pass"] is False
    assert "q range at n=1, lambda=" in row["detail"], row


def test_verify_deterministic(capsys):
    _, a = run(capsys, "verify", "--suite", "hyp3f2", "--seed", "5",
               "--output", "json")
    _, b = run(capsys, "verify", "--suite", "hyp3f2", "--seed", "5",
               "--output", "json")
    rows = [json.loads(out) for out in (a, b)]
    # everything but the suite's run time is determined by the seed
    assert all(row.pop("elapsed_s") >= 0 for doc in rows for row in doc)
    assert rows[0] == rows[1]


@pytest.mark.parametrize("argv", [
    ["poly", "--n", "-1"], ["poly", "--n", "-1", "--form", "s41"],
    ["poly", "--family", "chebyshev", "--form", "recur", "--n", "-2"],
    ["poly", "--family", "beta", "--beta", "0", "--n", "-1"],
    ["roots", "--n", "-3"], ["mellin", "--n", "-1", "--s", "1"],
    ["mellin", "--family", "T", "--n", "-1", "--s", "1"]],
    ids=" ".join)
def test_a_negative_index_is_a_domain_error(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: need n >= 0"), err


@pytest.mark.parametrize("argv", [
    ["mellin", "--s", "inf"], ["mellin", "--family", "T", "--s", "1e400"]],
    ids=" ".join)
def test_an_infinite_s_is_a_domain_error(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: need n >= 0 and a finite s"), err


@pytest.mark.parametrize("nmax", ["0", "-1"])
def test_verify_nmax_below_one_is_a_usage_error(capsys, nmax):
    # --nmax -1 used to end the hyp3f2 row in "empty range for randrange()"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "hyp3f2", "--nmax", nmax])
    assert exc.value.code == 2
    assert "--nmax: must be >= 1" in capsys.readouterr().err


def test_a_row_that_ran_no_case_fails(capsys, monkeypatch):
    # q checks n = 1..nmax, so at nmax 0 it used to pass with 0 checks
    assert cli.SUITES["q"](0, 0) == {"pass": False, "checks": 0,
                                     "detail": "no case ran"}

    @cli._suite
    def empty(nmax, seed):
        yield from ()
        return {"method": "identity"}

    monkeypatch.setitem(cli.SUITES, "props", empty)
    code, out = run(capsys, "verify", "--suite", "props", "--output", "json")
    assert code == 1
    row = json.loads(out)[0]
    assert row["pass"] is False and row["checks"] == 0


def test_mellin_csv(capsys):
    code, out = run(capsys, "mellin", "--n", "1", "--lambda", "1",
                    "--s", "1", "--output", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["n"] == "1"
    assert float(rows[0]["rel_err"]) <= 1e-10


def test_mellin_csv_reports_quadrature_work(capsys):
    code, out = run(capsys, "mellin", "--n", "4", "--n", "5",
                    "--lambda=-1/4", "--s", "0.125", "--output", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["evaluations"]) for r in rows] == [5, 5]
    assert all(float(r["error_estimate"]) <= 1e-20 for r in rows)
    assert all(float(r["rel_err"]) <= 1e-12 for r in rows)


def test_mellin_logs_the_rules_and_beta_values_it_reuses(capsys, caplog):
    # n = 0..12 at one lambda and s ask for the rules of 1..5 nodes at
    # beta = 0 and of 1..4 at beta = 1/2, two of each row's size, and one
    # mu0 per weight; from cold the conftest fixture leaves every memo empty
    argv = ["--log-level", "DEBUG", "mellin", "--nmax", "12", "--lambda",
            "7/3", "--s", "2", "--output", "json"]
    caplog.set_level(logging.DEBUG, logger="critpoly")
    logs, outs = [], []
    for _ in range(2):
        caplog.clear()
        code, out = run(capsys, *argv)
        assert code == 0
        outs.append(out)
        logs += [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("mellin:")]
    assert len(json.loads(outs[0])) == 13 and outs[1] == outs[0]
    assert logs == [
        "mellin: 13 rows, 9 Gauss-Jacobi rules built of 26 requested "
        "(17 reused), 2 Beta values computed of 13 requested (11 reused), "
        "13 row plans built of 13 requested (0 reused)",
        "mellin: 13 rows, 0 Gauss-Jacobi rules built of 26 requested "
        "(26 reused), 0 Beta values computed of 13 requested (13 reused), "
        "0 row plans built of 13 requested (13 reused)"]


def test_mellin_logs_one_row_plan_per_n_and_lambda(capsys, caplog):
    # three s per (n, lambda): the first row of each n builds its plan and
    # the other two reuse it, whatever their weight
    caplog.set_level(logging.DEBUG, logger="critpoly")
    code, _ = run(capsys, "--log-level", "DEBUG", "mellin", "--nmax", "12",
                  "--lambda", "7/3", "--s", "0.5", "--s", "2", "--s", "3.7",
                  "--output", "json")
    assert code == 0
    [line] = [r.getMessage() for r in caplog.records
              if r.getMessage().startswith("mellin:")]
    assert line.startswith("mellin: 39 rows, ")
    assert line.endswith(", 13 row plans built of 39 requested (26 reused)")


def test_calls_share_the_parser_but_no_parsed_values(capsys):
    # the `append` options of one call must not carry into the next
    argv = ["mellin", "--n", "1", "--n", "2", "--lambda", "1", "--s", "1",
            "--s", "2", "--output", "csv"]
    code, out = run(capsys, *argv)
    assert code == 0 and len(list(csv.DictReader(io.StringIO(out)))) == 4
    code, out = run(capsys, "mellin", "--n", "3", "--lambda", "1", "--s",
                    "1.5", "--output", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert code == 0 and [(r["n"], r["s"]) for r in rows] == [("3", "1.5")]
    assert cli._parser() is cli._parser()


def test_triangle_row(capsys):
    code, out = run(capsys, "triangle", "--kind", "b", "--k", "2",
                    "--output", "json")
    assert code == 0
    assert json.loads(out)["entries"] == [5, 5, 1]


def test_triangle_characterize(capsys):
    code, out = run(capsys, "triangle", "--kind", "a", "--characterize",
                    "30", "--output", "json")
    assert code == 0
    assert json.loads(out)["pass"]


def test_props_csv(capsys):
    code, out = run(capsys, "props", "--nmax", "2", "--s", "3",
                    "--output", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["value"] == "15"
    assert all(r["valuation_2"] == "0" for r in rows)


def test_out_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, _ = run(capsys, "poly", "--n", "2", "--lambda", "1",
                  "--output", "json", "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())["coeffs"] == ["-3/4", "3/2"]


def test_domain_error_exit_2(capsys):
    # lambda = -1 is outside the admissible range: domain error, not crash
    code = main(["poly", "--n", "2", "--lambda", "-1"])
    assert code == 2
