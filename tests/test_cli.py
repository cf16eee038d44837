"""Command-line front door: flags, schemas, exit codes, determinism."""
import csv
import io
import json
import logging
import os
import subprocess
import sys
import threading
import time
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
    assert code == 0 and fast["method"] == "descartes"

    class NoProof(poly.LineIsolation):
        def __init__(self, p):
            super().__init__(p)
            self.fallback = "forced"

    # the fallback isolates v once, in the certificate, and refines that
    built = []
    init = poly.RealRootData.__init__

    def counted(self, v):
        built.append(v)
        init(self, v)

    monkeypatch.setattr(verify, "LineIsolation", NoProof)
    monkeypatch.setattr(poly.RealRootData, "__init__", counted)
    code, out = run(capsys, *argv)
    assert len(built) == 1
    slow = json.loads(out)
    assert code == 0 and slow["method"] == "squarefree"
    assert slow["pass"] is True
    assert slow["distinct_real_roots"] == fast["distinct_real_roots"] == 6
    assert slow["coeff_bits"] == fast["coeff_bits"]
    ts = [[float(r.split("+")[1].rstrip("i")) for r in doc["roots"]]
          for doc in (fast, slow)]
    assert ts[0] == pytest.approx(ts[1], rel=1e-12, abs=1e-12)
    v, _ = poly.substitute_critical(p_beta(13, -2).poly)
    assert ts[1] == pytest.approx(sturm_roots(v), rel=1e-12, abs=1e-12)
    assert slow["refine_work"] > 0


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
        def __init__(self, p):
            super().__init__(p)
            self.fallback = "forced"

    monkeypatch.setattr(verify, "LineIsolation", NoProof)
    argv = ["roots", "--n", "4", "--lambda", "1", "--output", "json"]
    level = logging.getLogger("critpoly").level
    assert main(argv) == 0
    assert "falls back" not in capsys.readouterr().err
    assert main(["--log-level", "DEBUG", *argv]) == 0
    err = capsys.readouterr().err
    assert "DEBUG critpoly: " in err
    assert "falls back to the squarefree part: forced" in err
    assert "2 isolation nodes, 28 refinement evaluations" in err
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
     lambda n, lam, s: {"duplication_series":
                        {"pass": (n, lam) != (2, Fraction(3, 2))}},
     "duplication_series " + AT_N2_LAMBDA_3_2),
    ("gould", verify, "check_integer_s_sums",
     lambda n, lam, m: {"pass": (n, lam) != (2, Fraction(3, 2))},
     "integer-s sums " + AT_N2_LAMBDA_3_2),
    ("q", verify, "check_q_range",
     lambda n, lam, grid: {"pass": (n, lam) != (2, Fraction(3, 2))},
     "q range " + AT_N2_LAMBDA_3_2),
    ("hyp3f2", cli, "appendix_transform_suite",
     lambda trials, nmax, seed: {
         "all_pass": False, "trials": trials,
         "failures": [{"identity": 3, "params": "n=2 a=1/2 b=1 c=3 d=5"}]},
     "'params': 'n=2 a=1/2 b=1 c=3 d=5'"),
    ("corollary2", verify, "check_corollary2",
     lambda n, samples: {"pass": n != 2, "worst_rel_err": 0.0},
     "corollary 2 at n=2 fails"),
    ("genfun", quadrature, "genfun_check",
     lambda lam, s, t, **kw: {"pass": (lam, s, t) != (0.5, 2.0, 0.1),
                              "errors": {}},
     "series at lambda=0.5, s=2.0, t=0.1 (errors {}) fails"),
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


def test_verify_deterministic(capsys):
    _, a = run(capsys, "verify", "--suite", "hyp3f2", "--seed", "5",
               "--output", "json")
    _, b = run(capsys, "verify", "--suite", "hyp3f2", "--seed", "5",
               "--output", "json")
    rows = [json.loads(out) for out in (a, b)]
    # everything but the suite's run time is determined by the seed
    assert all(row.pop("elapsed_s") >= 0 for doc in rows for row in doc)
    assert rows[0] == rows[1]


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
