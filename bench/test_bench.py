"""Self-tests of the benchmark: its output checks must catch a wrong answer,
and its self-time arithmetic must hold on a hand-built span tree.

    python3 -m pytest bench/test_bench.py
"""
import json
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import spans  # noqa: E402
import workloads  # noqa: E402
from critpoly.poly import Poly  # noqa: E402


def _op_returning(op, output):
    return workloads.Op(op.kind, op.label, lambda: output, op.check)


def test_corrupted_coefficient_counts_as_failure():
    reference = workloads.load_reference()
    op = workloads.certify_op("gegenbauer", Fraction(7, 3), 40, reference)
    p, cert = op.run()
    assert workloads.run_ops([_op_returning(op, (p, cert))]).failures == []
    coeffs = list(p.poly.coeffs)
    coeffs[3] += 1
    # a CriticalPolynomial would refuse the broken coefficients itself
    broken = SimpleNamespace(poly=Poly("s", coeffs))
    result = workloads.run_ops([_op_returning(op, (broken, cert))])
    assert len(result.failures) == 1
    assert "reference digest" in result.failures[0][1][0]


def test_wrong_root_counts_as_failure():
    reference = workloads.load_reference()
    op = workloads.roots_op("beta", Fraction(-3), 40, reference)
    code, text = op.run()
    assert op.check((code, text)) == []
    payload = json.loads(text)
    root = payload["roots"][4]
    t = float(root.removeprefix("1/2 + ").removesuffix("i"))
    payload["roots"][4] = f"1/2 + {t * (1 + 1e-6)}i"
    result = workloads.run_ops([_op_returning(op, (code,
                                                   json.dumps(payload)))])
    assert len(result.failures) == 1


def test_off_tolerance_row_counts_as_failure():
    op = workloads.mellin_op(3, Fraction(1), 2.0)
    row = op.run()
    good = dict(row, rel_err=5e-11)
    bad = dict(row, rel_err=2e-10)
    result = workloads.run_ops([_op_returning(op, good),
                                _op_returning(op, bad)])
    assert len(result.latencies) == 2
    assert len(result.failures) == 1
    assert len(result.failures) / len(result.latencies) > 0


def test_failed_suite_row_counts_as_failure():
    op = workloads.verify_op(0, ["q", "props"])
    rows = [{"suite": "q", "pass": True}, {"suite": "props", "pass": False}]
    assert op.check((1, json.dumps(rows))) != []
    rows[1]["pass"] = True
    assert op.check((0, json.dumps(rows))) == []
    assert op.check((0, json.dumps(rows[:1]))) != []


def test_raising_op_counts_as_failure():
    def boom():
        raise ValueError("boom")

    op = workloads.Op("x", "x", boom, lambda out: [])
    result = workloads.run_ops([op])
    assert result.failures and "ValueError" in result.failures[0][1][0]


def test_inputs_follow_the_seed():
    def labels(seed, r=0):
        return [op.label for op in workloads.mellin_batch_ops(seed, r, False)]

    assert labels(3) == labels(3)
    assert labels(3) != labels(4)
    assert len(labels(3)) >= 100
    assert any("s=0.5" in label for label in labels(3))
    assert any("compare_mellin_T n=12 s=143.0" == label
               for label in labels(3))


def test_self_times_on_hand_built_tree():
    # root [0, 10]; a [1, 4] with child c [2, 3]; b [3, 6] overlaps a, as a
    # worker-thread span may; d [9, 12] sticks out of the root's interval
    tree = [[0, None, 1, "request", 0.0, 10.0],
            [1, 0, 1, "construct.p_hyp", 1.0, 4.0],
            [2, 1, 1, "construct.p_s32", 2.0, 3.0],
            [3, 0, 1, "poly.refine_root", 3.0, 6.0],
            [4, 0, 1, "poly.refine_root", 9.0, 12.0]]
    selfs = spans.self_times(tree)
    assert selfs == {0: 10.0 - 5.0 - 1.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 3.0}
    assert spans.outermost_time(
        tree, lambda n: n.startswith("construct.")) == 3.0
    assert spans.outermost_time(tree, lambda n: n == "poly.refine_root") == 6.0

    tracer = spans.Tracer()
    tracer.spans = tree
    metrics = spans.layer_metrics(tracer)
    assert metrics["construct.self_s"] == (3.0, "s")
    assert metrics["construct.build_s"] == (3.0, "s")
    assert metrics["poly.refine_s"] == (6.0, "s")
    assert metrics["trace.wall_s"] == (10.0, "s")


def test_tracer_links_spans_and_counts_repeats():
    clock = iter(range(100)).__next__
    tracer = spans.Tracer(clock=clock)
    with spans.installed(tracer):
        from critpoly import construct, verify
        tracer.new_request()
        outer = tracer.begin("request")
        p = construct.p_hyp(4, 1)
        verify.certify_critical_line(construct.p_s32(4, 1))
        tracer.end(outer)
    assert not hasattr(construct.p_hyp, "__wrapped__")
    names = [s[3] for s in tracer.spans]
    assert names[:2] == ["request", "construct.p_hyp"]
    inner = names.index("construct.p_s32")
    assert tracer.spans[inner][1] == 1  # p_hyp builds p_s32 to compare
    assert "poly.real_root_data" in names
    assert tracer.counts["construct.calls"] == 3
    assert tracer.counts["construct.repeats"] == 1
    assert tracer.counts["verify.certify_calls"] == 1
    assert tracer.coeff_bits_max == max(
        max(abs(c.numerator).bit_length(), c.denominator.bit_length())
        for c in p.poly.coeffs)
