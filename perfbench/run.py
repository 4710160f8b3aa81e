"""lihopf benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every job is a fresh interpreter
(``worker.py``) that imports lihopf from ``src/``, so the cold workloads
start with empty caches and nothing clears them by hand.

``--trace 0`` repeats jobs until ``--seconds`` is used up (at least
MIN_JOBS of them) and prints the end-to-end metrics over the jobs.
``--trace 1`` runs two untraced and two traced jobs, checks that both
traced jobs give identical per-layer counts and the untraced output
digests, and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the run stamp.  The full record (stamp, host drift, every job)
goes to ``perfbench/out/``.
"""

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

MIN_JOBS = 3
RUN_LIMIT_S = 170.0

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("req_p50_ms", "ms"),
    ("req_per_s", "1/s"),
]
# Reported in the stamp, not as a bounded metric: on warm-cli it is the
# latency of the one memory-heavy request type, whose run-to-run spread
# on a shared host reached 0.29 of its median, above any allowed bound.
STAMP_ONLY = [("req_p99_ms", "ms")]

_SPAN_STATS = [
    ("coproduct.coproduct_bar", ("calls", "self_s", "terms_out")),
    ("coproduct.coproduct_h", ("calls", "self_s", "terms_out")),
    ("coproduct.inv_generator", ("calls", "self_s", "terms_out",
                                 "distinct_args", "distinct_shapes")),
    ("coproduct.inv_element", ("calls", "self_s", "terms_out")),
    ("coproduct.antipode", ("calls", "self_s", "terms_out")),
    ("coproduct.derive", ("calls", "self_s")),
    ("series.TruncatedSeries.mul", ("calls", "self_s", "max_terms_out")),
    ("algebra.Element.mul", ("calls", "self_s")),
    ("algebra.Element.add", ("calls", "self_s")),
    ("tensor.Tensor.mul", ("calls", "self_s")),
    ("tensor.symbol", ("calls", "self_s", "terms_out")),
    ("tensor.project_pi", ("calls", "self_s")),
    ("forms.w_element", ("calls", "self_s")),
    ("variation.build_V", ("calls", "self_s")),
    ("iterint.phi", ("calls", "self_s")),
    ("iterint.i_coproduct", ("calls", "self_s")),
    ("expr.parse", ("calls", "self_s")),
    ("expr.render", ("calls", "self_s")),
    ("cli.main", ("calls", "self_s")),
]
SUITES = ("golden", "coassoc", "inv-morphism", "variation", "forms",
          "iterint", "numeric", "structural")
PER_LAYER = (
    [("%s.%s" % (name, stat), "s" if stat.endswith("_s") else "count")
     for name, stats in _SPAN_STATS for stat in stats]
    + [("verify.run_suite.%s.wall_s" % s, "s") for s in SUITES]
    + [("trace.overhead_s", "s"), ("trace.spans", "count")]
)


def host_drift_s():
    """Seconds for a fixed pure-Python Fraction loop (about 0.2 s here);
    stored beside each run so host slowdowns can be told from
    regressions."""
    start = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 40001):
        acc += Fraction(1, k) * Fraction(k + 1, k + 2)
        if k % 64 == 0:
            acc = Fraction(acc.numerator % 1000003,
                           acc.denominator % 1000003 or 1)
    return time.perf_counter() - start


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() or "unknown"


def run_job(workload, seed, deadline, hashseed, spans_path=None):
    """One worker process; returns its record, or one with ``error``."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed)]
    if spans_path:
        cmd += ["--trace", spans_path]
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=str(hashseed))
    timeout = max(1.0, deadline - time.monotonic())
    start = time.monotonic()
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": "timed out after %.0f s" % timeout,
                "elapsed_s": time.monotonic() - start}
    elapsed = time.monotonic() - start
    sys.stderr.write(res.stderr)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        return {"error": "worker exited with %d" % res.returncode,
                "elapsed_s": elapsed}
    rec = json.loads(lines[-1])
    rec["elapsed_s"] = elapsed
    rec["hashseed"] = hashseed
    return rec


def tally(jobs):
    attempted = sum(j.get("attempted", 1) for j in jobs)
    failed = sum(j["failed"] if "error" not in j else 1 for j in jobs)
    return attempted, failed


def untraced_run(workload, seed, seconds, deadline):
    jobs = []
    start = time.monotonic()
    while True:
        jobs.append(run_job(workload, seed, deadline, hashseed=0))
        elapsed = time.monotonic() - start
        typical = statistics.median(j["elapsed_s"] for j in jobs)
        if len(jobs) >= MIN_JOBS and elapsed + typical > seconds:
            break
        if time.monotonic() + typical > deadline:
            break
    ok = [j for j in jobs if "error" not in j]
    metrics = {}
    if ok:
        for name in ("wall_s", "setup_s", "peak_rss_mb"):
            metrics[name] = statistics.median(j[name] for j in ok)
        lat_ms, busy_s = request_latencies(workload, ok)
        metrics["req_p50_ms"] = statistics.median(lat_ms)
        metrics["req_p99_ms"] = statistics.quantiles(
            lat_ms, n=100, method="inclusive")[98] if len(lat_ms) > 1 \
            else lat_ms[0]
        metrics["req_per_s"] = len(lat_ms) / busy_s
        metrics = {name: {"value": metrics[name], "unit": unit}
                   for name, unit in END_TO_END + STAMP_ONLY}
    return jobs, metrics, job_problems(jobs)


def request_latencies(workload, jobs):
    """Latencies (ms) of every request of the run, and the seconds spent
    on them.  A warm request is one CLI call of the timed phase; a cold
    request is one whole cold job, import and inputs included."""
    if wl.MODE[workload] == "warm":
        return ([x for j in jobs for x in j["op_ms"]],
                sum(j["wall_s"] for j in jobs))
    lat_s = [j["setup_s"] + j["wall_s"] for j in jobs]
    return [1000.0 * x for x in lat_s], sum(lat_s)


def job_problems(jobs):
    """Crashed jobs, outputs unlike the stored digests, and jobs (traced
    or not) whose outputs disagree."""
    problems = []
    for i, j in enumerate(jobs):
        if "error" in j:
            problems.append("job %d: %s" % (i, j["error"]))
        elif j["mismatches"]:
            problems.append("job %d: outputs differ from stored digests: %s"
                            % (i, ", ".join(j["mismatches"][:5])))
    if len({j["digest"] for j in jobs if "error" not in j}) > 1:
        problems.append("jobs disagree on their output digests")
    return problems


def count_diff(a, b):
    """Every exact count on which two traced jobs disagree."""
    return ["%s %s != %s" % (k, a.get(k), b.get(k))
            for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]


def traced_run(workload, seed, deadline, spans_prefix):
    """Untraced and traced jobs alternate, so host drift during the run
    biases the overhead estimate less."""
    jobs = []
    for h in (1, 2):
        jobs.append(run_job(workload, seed, deadline, hashseed=0))
        jobs.append(run_job(workload, seed, deadline, hashseed=h,
                            spans_path="%s-job%d.jsonl" % (spans_prefix, h)))
    untraced, traced = jobs[0::2], jobs[1::2]
    problems = job_problems(jobs)
    if any("error" in j for j in jobs):
        return jobs, {}, problems
    a, b = (j["counts"] for j in traced)
    diff = count_diff(a, b)
    if diff:
        problems.append("per-layer counts differ between two traced runs: "
                        + "; ".join(diff[:10]))
    metrics = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_s":
            value = (statistics.mean(j["wall_s"] for j in traced)
                     - statistics.mean(j["wall_s"] for j in untraced))
        elif unit == "s":
            value = statistics.mean(j["times"].get(name, 0.0)
                                    for j in traced)
        else:
            value = a.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
    return jobs, metrics, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "lihopf", "__init__.py")):
        sys.exit("benchmark: no lihopf sources under %s; run from the "
                 "repository root" % SRC)
    deadline = time.monotonic() + RUN_LIMIT_S
    compileall.compile_dir(os.path.join(SRC, "lihopf"), quiet=1)
    os.makedirs(OUT, exist_ok=True)
    stamp = {
        "workload": args.workload,
        "mode": wl.MODE[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "host_drift_s": host_drift_s(),
    }
    name = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    if args.trace:
        jobs, metrics, problems = traced_run(
            args.workload, args.seed, deadline, os.path.join(OUT, name))
    else:
        jobs, metrics, problems = untraced_run(
            args.workload, args.seed, args.seconds, deadline)
    attempted, failed = tally(jobs)
    stamp["jobs"] = len(jobs)
    if not args.trace:
        stamp["requests"] = len(request_latencies(
            args.workload, [j for j in jobs if "error" not in j])[0])
        for name, _ in STAMP_ONLY:
            if name in metrics:
                stamp[name] = metrics.pop(name)
    stamp["fail_ratio"] = failed / attempted
    correct = not problems and failed == 0
    for p in problems:
        print("benchmark: FAIL: " + p, file=sys.stderr)
    if not metrics:
        sys.exit("benchmark: no job finished; no metrics")
    with open(os.path.join(OUT, name + ".json"), "w") as fh:
        json.dump({"stamp": stamp, "problems": problems, "jobs": jobs,
                   "metrics": metrics}, fh, indent=1, sort_keys=True)
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
