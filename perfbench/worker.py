"""One benchmark job: a fresh interpreter that imports lihopf, makes the
workload's inputs from the seed, runs the timed phase and checks every
output against the stored digests.  Prints one JSON object as its last
line of standard output.

    python3 perfbench/worker.py --workload NAME --seed N [--trace PATH]
    python3 perfbench/worker.py --record

``--trace PATH`` installs the per-layer wrappers before the timed phase
and writes the spans to PATH.  ``--record`` recomputes every catalog
digest into ``digests.json``; run it only after checking that the
outputs are right (``lihopf verify --suite all`` passes).
"""

import argparse
import contextlib
import importlib
import io
import json
import resource
import sys
import time
import traceback

import workloads as wl

clock = time.perf_counter


class Checker:
    """Compares each output's digest with the stored one."""

    def __init__(self, expected):
        self.expected = expected
        self.got = {}
        self.attempted = 0
        self.failed = 0
        self.mismatches = []

    def check(self, key, doc, times=1):
        """Check one output that ``times`` requests produced."""
        self.attempted += times
        d = wl.digest(doc)
        self.got[key] = d
        if self.expected.get(key) != d:
            self.failed += times
            if key not in self.mismatches:
                self.mismatches.append(key)

    def fail(self, key, exc):
        self.attempted += 1
        self.failed += 1
        if key not in self.mismatches:
            self.mismatches.append(key)
            print("benchmark: %s raised %s" % (key, exc), file=sys.stderr)
            traceback.print_exc(limit=3, file=sys.stderr)


# ---------------------------------------------------------------------------
# depth-ladder rungs, each from argument text to its expr document

def _rung(fn, arg, sort_name):
    from lihopf import algebra
    expr = importlib.import_module("lihopf.expr")
    sort = {"H": algebra.H, "Hbar": algebra.HBAR}[sort_name]
    if fn == "build_V":
        variation = importlib.import_module("lihopf.variation")
        nvec = tuple(int(w) for w in arg.split(","))
        V = variation.build_V(nvec, sort)
        return expr.matrix_document(
            "V", nvec, sort_name, V.keys,
            [[expr.element_document(x) for x in row] for row in V.rows])
    e = expr.parse(arg, sort)
    if fn == "symbol":
        return expr.words_document(
            importlib.import_module("lihopf.tensor").symbol(e))
    out = getattr(importlib.import_module("lihopf.coproduct"), fn)(e)
    if fn == "inv_element":
        return expr.element_document(out)
    return expr.tensor_document(out)


def _cli_call(args):
    from lihopf import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        cli.main.main(args=args, standalone_mode=False, prog_name="lihopf")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# jobs: each returns (setup_s, wall_s, seconds of each timed operation:
# CLI request, suite or rung).  wall_s covers the operations themselves;
# output checks run outside it.

def job_verify_all(seed, checker, t0, install):
    verify = importlib.import_module("lihopf.verify")
    setup_s = clock() - t0
    install()
    start = clock()
    reports = verify.run_all(seed=seed)
    wall_s = clock() - start
    checker.check("verify-all report", wl.report_doc(reports))
    for r in reports:
        checker.attempted += r.cases
        checker.failed += len(r.failures)
        for f in r.failures[:3]:
            print("benchmark: %s failed: %s" % (r.suite, f), file=sys.stderr)
    return setup_s, wall_s, [r.seconds for r in reports]


def job_depth_ladder(seed, checker, t0, install):
    importlib.import_module("lihopf")
    rungs = wl.ladder_rungs(seed)
    setup_s = clock() - t0
    install()
    lat = []
    for key, fn, arg, sort in rungs:
        s = clock()
        try:
            doc = _rung(fn, arg, sort)
        except Exception as exc:
            lat.append(clock() - s)
            checker.fail(key, exc)
            continue
        lat.append(clock() - s)
        checker.check(key, doc)
    return setup_s, sum(lat), lat


def job_warm_cli(seed, checker, t0, install):
    importlib.import_module("lihopf.cli")
    mix = [(wl.request_key(args), args) for args in wl.cli_mix(seed)]
    # request key -> {distinct output text: how many requests gave it};
    # keeping one copy of each text keeps the outputs out of peak_rss_mb
    outputs = {key: {} for key, _ in mix}

    def run(call, key, args):
        s = clock()
        try:
            text = call(args)
        except (Exception, SystemExit) as exc:
            dt = clock() - s
            checker.fail(key, exc)
            return dt
        dt = clock() - s
        seen = outputs[key]
        seen[text] = seen.get(text, 0) + 1
        return dt

    for key, args in mix:
        run(_cli_call, key, args)
    setup_s = clock() - t0
    call = install(_cli_call)
    lat = [run(call, key, args)
           for _ in range(wl.cli_passes(mix)) for key, args in mix]
    for key, args in mix:
        for text, times in outputs[key].items():
            checker.check(key, wl.cli_output_doc(args, text), times)
        outputs[key] = {}
    return setup_s, sum(lat), lat


JOBS = {"verify-all": job_verify_all, "depth-ladder": job_depth_ladder,
        "warm-cli": job_warm_cli}


def run_job(workload, seed, spans_path=None):
    t0 = clock()
    expected = wl.load_digests()
    checker = Checker(expected)
    tracer = None

    def install(cli_call=None):
        nonlocal tracer
        if spans_path:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
            if cli_call is not None:
                return tracer.wrap("cli.main", cli_call)
        return cli_call

    setup_s, wall_s, lat = JOBS[workload](seed, checker, t0, install)
    out = {
        "workload": workload,
        "seed": seed,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "op_ms": [1000.0 * x for x in lat],
        "attempted": checker.attempted,
        "failed": checker.failed,
        "mismatches": checker.mismatches,
        "digest": wl.digest(checker.got),
    }
    if tracer is not None:
        tracer.write_spans(spans_path)
        out["counts"] = tracer.counts()
        out["times"] = tracer.times()
    return out


def record():
    """Recompute every stored digest from the current program."""
    from lihopf import verify
    reports = verify.run_all(seed=0)
    if not all(r.passed for r in reports):
        raise SystemExit("refusing to record: a verification suite fails")
    out = {"verify-all": {"verify-all report": wl.digest(
        wl.report_doc(reports))}}
    out["depth-ladder"] = {
        key: wl.digest(_rung(fn, arg, sort))
        for shift in range(wl.LADDER_SHIFTS)
        for key, fn, arg, sort in wl.ladder_rungs(shift)}
    out["warm-cli"] = {
        wl.request_key(args): wl.digest(
            wl.cli_output_doc(args, _cli_call(args)))
        for args in wl.cli_catalog()}
    flat = {}
    for part in out.values():
        flat.update(part)
    with open(wl.DIGESTS_PATH, "w") as fh:
        json.dump(flat, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("recorded %d digests" % len(flat))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", metavar="PATH")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if args.record:
        record()
        return
    if args.workload is None:
        ap.error("--workload is required")
    print(json.dumps(run_job(args.workload, args.seed, args.trace)))


if __name__ == "__main__":
    main()
