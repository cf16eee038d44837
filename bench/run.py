"""Benchmark of critpoly: three workloads, each run by one client in a
closed loop in its own process.

    python3 bench/run.py --workload exact-scale --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 30

With `--trace 0` a run measures one workload for about `--seconds` seconds
and prints its end-to-end metrics. With `--trace 1` it runs one round of
every workload, each in a fresh process, with the public functions of each
critpoly module wrapped in spans, and prints the per-layer metrics named
`<workload>.<layer>.<metric>`; the spans are written to `.bench_out/`.
`--all` runs every workload untraced and then the traced run, and prints
the tracing overhead (traced minus untraced `wall_s`) per workload.

Lines before the last describe the machine and every metric by name with
its unit; the last line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The exit code is 0 only when every
output checked was correct. The program is imported from `src/` next to
this directory, so the benchmark needs no install step.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("exact-scale", "verify-all", "mellin-batch")
SETUP_RUNS = 11
RUN_LIMIT_S = 170      # every run, traced or not, ends within 180 s
OUT_DIR = ROOT / ".bench_out"


def load_program():
    """Import critpoly from this checkout's src/ and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import critpoly
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import critpoly from {src}: {exc}")
    if Path(critpoly.__file__).resolve().parent.parent != src:
        raise SystemExit(f"bench: critpoly was imported from "
                         f"{critpoly.__file__}, not from {src}")
    return critpoly


def environment(args) -> dict:
    import mpmath
    from critpoly import cli

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "critpoly").glob("*.py")):
        src.update(path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu, "python": platform.python_version(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "cli_workers": cli._max_workers(),
            "git_commit": git_commit(), "src_sha256": src.hexdigest()[:16],
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds}


def git_commit():
    """HEAD of the checkout when it is the top of a git work tree; a copy
    without git history has none."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode == 0 and len(lines) == 2 and \
            Path(lines[0]).resolve() == ROOT.resolve():
        return lines[1]
    return None


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict) -> str:
    values = {name: {"value": value, "unit": unit}
              for name, (value, unit) in metrics.items()}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": values})


def report_failures(workload: str, failures) -> None:
    for label, problems in failures:
        print(f"{workload} FAILED {label}: {'; '.join(problems)}",
              file=sys.stderr)


def _self_command(*extra) -> list:
    return [sys.executable, str(HERE / "run.py"), *extra]


# ---------------------------------------------------------------------------
# untraced run
# ---------------------------------------------------------------------------

def time_setup(args) -> float:
    """Seconds from starting a fresh interpreter until it has imported the
    program, generated the first round's inputs and warmed up."""
    cmd = _self_command("--setup-probe", "--workload", args.workload,
                        "--seed", str(args.seed))
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"bench: set-up probe failed ({proc.returncode})")
    return elapsed


def setup_probe(args) -> int:
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workload.ops(args.seed, 0, False)
    workload.warm_up()
    print("ready", flush=True)
    return 0


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def untraced_run(args) -> int:
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    setups = [time_setup(args) for _ in range(SETUP_RUNS)]
    ops = workload.ops(args.seed, 0, False)
    workload.warm_up()

    rounds, begin, last = [], time.perf_counter(), 0.0
    for r in range(workload.max_rounds):
        now = time.perf_counter()
        if rounds and now - begin + last > args.seconds:
            break
        rounds.append(workloads.run_ops(ops))
        last = time.perf_counter() - now
        if r + 1 < workload.max_rounds:
            ops = workload.ops(args.seed, r + 1, False)

    latencies = [t for rr in rounds for t in rr.latencies]
    failures = [f for rr in rounds for f in rr.failures]
    name = workload.name
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(rr.wall for rr in rounds), "s"),
        "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "op_p90_ms": (percentile(latencies, 90) * 1000, "ms"),
        "peak_rss_mb": (peak_mb, "MiB"),
    }
    notes = {"setup_s": f"median of {SETUP_RUNS} fresh-process set-ups",
             "wall_s": f"median over {len(rounds)} rounds of "
                       f"{len(rounds[0].latencies)} ops",
             "op_p50_ms": f"{len(latencies)} ops",
             "op_p90_ms": f"{len(latencies)} ops"}
    print("env", json.dumps(environment(args)))
    for metric, (value, unit) in metrics.items():
        print(f"{name} {metric} {value:.6g} {unit}  {notes.get(metric, '')}")
    if name == "exact-scale":
        for kind in ("certify", "roots"):
            value = statistics.median(rr.wall_of(kind) for rr in rounds)
            print(f"{name} {kind}_wall_s {value:.6g} s  "
                  f"median over {len(rounds)} rounds")
    print(f"{name} fail_frac {len(failures) / len(latencies):.6g} ratio  "
          f"{len(failures)} of {len(latencies)} ops")
    report_failures(name, failures)
    print(result_line(not failures, len(latencies), len(failures), metrics),
          flush=True)
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def trace_one(args) -> int:
    """One traced round of one workload in this process."""
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    ops = workload.ops(args.seed, 0, True)
    workload.warm_up()
    tracer = spans.Tracer()
    with spans.installed(tracer):
        rr = workloads.run_ops(ops, tracer)
    derived = spans.layer_metrics(tracer)
    missing = [m for m in workload.per_layer if m not in derived]
    if missing:
        raise SystemExit(f"bench: the trace yields no {missing}")
    metrics = {m: derived[m] for m in workload.per_layer}

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"environment": environment(args),
                   "span_fields": ["id", "parent", "request", "name",
                                   "start", "end"],
                   "spans": tracer.spans, "counts": dict(tracer.counts)}, fh)
    report_failures(workload.name, rr.failures)
    print(result_line(not rr.failures, len(rr.latencies), len(rr.failures),
                      metrics), flush=True)
    return 0 if not rr.failures else 1


def run_child(cmd, deadline: float):
    """Run a benchmark subprocess, relay everything but its result line, and
    return the parsed result (None when it printed none)."""
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"bench: {' '.join(cmd[2:])} ran out of time")
    sys.stderr.write(out.stderr)
    lines = out.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        print(lines[-1])
        return None


def traced_run(args) -> int:
    deadline = time.perf_counter() + RUN_LIMIT_S
    print("env", json.dumps(environment(args)))
    metrics, attempted, failed = {}, 0, 0
    for name in WORKLOAD_NAMES:
        child = run_child(_self_command("--trace-one", "--workload", name,
                                        "--seed", str(args.seed)), deadline)
        if child is None:
            raise SystemExit(f"bench: traced {name} gave no result")
        attempted += child["attempted"]
        failed += child["failed"]
        for metric, m in child["metrics"].items():
            metrics[f"{name}.{metric}"] = (m["value"], m["unit"])
            print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
    print(result_line(failed == 0, attempted, failed, metrics), flush=True)
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload untraced, then the traced run, then the overhead."""
    walls, ok = {}, True
    for name in WORKLOAD_NAMES:
        child = run_child(_self_command(
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0"),
            time.perf_counter() + 180)
        ok &= child is not None and child["correct"]
        if child is not None:
            walls[name] = child["metrics"]["wall_s"]["value"]
    child = run_child(_self_command(
        "--workload", WORKLOAD_NAMES[0], "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "1"),
        time.perf_counter() + 180)
    ok &= child is not None and child["correct"]
    for name, untraced in walls.items():
        if child is None:
            break
        traced = child["metrics"][f"{name}.trace.wall_s"]["value"]
        note = ("; the traced pass runs one suite per call, the untraced "
                "one all suites in the CLI's pool" if name == "verify-all"
                else "")
        print(f"{name} trace_overhead_s {traced - untraced:.6g} s  "
              f"traced wall_s {traced:.6g} - untraced wall_s "
              f"{untraced:.6g}{note}")
    return 0 if ok else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, then the traced run")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--trace-one", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and not args.all:
        parser.error("--workload is required unless --all is given")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # the CLI's pool size is part of what is measured: its own default
    os.environ.pop("CRITPOLY_THREADS", None)
    load_program()
    if args.setup_probe:
        return setup_probe(args)
    if args.all:
        return run_all(args)
    if args.trace_one:
        return trace_one(args)
    if args.trace:
        return traced_run(args)
    return untraced_run(args)


if __name__ == "__main__":
    sys.exit(main())
