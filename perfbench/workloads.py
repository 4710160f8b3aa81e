"""Inputs and output checks of the three benchmark workloads.

Inputs are made from the seed alone and handed to lihopf as text or
plain arguments.  Every output is reduced to canonical JSON and hashed
with sha256; the expected hashes live in ``digests.json`` next to this
file, keyed by request, so any seed's inputs can be checked.
"""

import hashlib
import itertools
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")

WORKLOADS = ("verify-all", "depth-ladder", "warm-cli")
MODE = {"verify-all": "cold", "depth-ladder": "cold", "warm-cli": "warm"}

# depth-ladder: the seed moves the first index to LADDER_BASE + seed %
# LADDER_SHIFTS.  build_V((2,2,2)) always uses indices 1..4; starting the
# other rungs above them keeps them from sharing cached generators with it
# at some shifts only, so every shift does the same work.
LADDER_BASE = 5
LADDER_SHIFTS = 4
LADDER = [
    ("inv_element", "ILi[1,1,1,1]", "Hbar"),
    ("coproduct_h", "Li[2,2,2,2]", "H"),
    ("symbol", "Li[1,1,1,1]", "H"),
    ("symbol", "Li[2,2,2]", "H"),
    ("build_V", "2,2,2", "H"),
    ("coproduct_bar", "Li[1,1,1,1,1]", "Hbar"),
]

# warm-cli: the full request set at one index base, depth <= 3.  The seed
# picks the base, CLI_BASE + seed % CLI_SHIFTS, and the order.  varmatrix
# always uses indices 1..4, so the brackets start above them: then no
# seed shares more cached generators than another, and every seed does
# the same work on relabelled windows, warm-up included.
CLI_BASE = 5
CLI_SHIFTS = 4
CLI_WEIGHTS = [(1,), (2,), (1, 1), (2, 1), (1, 2), (1, 1, 1), (2, 1, 1),
               (1, 2, 1)]
CLI_MATRIX_WEIGHTS = [(2, 1), (1, 2), (1, 1, 1)]
CLI_MATRIX_WHAT = ("V", "Omega", "omega", "wV")
CLI_FORMATS = ("json", "json", "latex", "text")
# enough passes over the mix that the p99 has >= 10 samples beyond it
CLI_MIN_TIMED = 1000


def canonical(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest(doc):
    return hashlib.sha256(canonical(doc).encode()).hexdigest()


def load_digests():
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


def bracket_text(name, weights, base):
    idx = ",".join(str(base + k) for k in range(len(weights) + 1))
    return "%s[%s](%s)" % (name, ",".join(map(str, weights)), idx)


# ---------------------------------------------------------------------------
# depth-ladder

def ladder_rungs(seed):
    """The rungs as (key, map name, argument text, sort name)."""
    base = LADDER_BASE + seed % LADDER_SHIFTS
    out = []
    for fn, arg, sort in LADDER:
        if fn != "build_V":
            name, weights = arg.split("[")
            weights = tuple(int(w) for w in weights.rstrip("]").split(","))
            arg = bracket_text(name, weights, base)
        out.append(("%s %s %s" % (fn, sort, arg), fn, arg, sort))
    return out


# ---------------------------------------------------------------------------
# warm-cli

def cli_requests(base):
    """Every warm-cli request at one index base, each with its format."""
    reqs = []
    formats = itertools.cycle(CLI_FORMATS)

    def add(*args):
        reqs.append(list(args) + ["--format", next(formats)])

    for w in CLI_WEIGHTS:
        li = bracket_text("Li", w, base)
        ili = bracket_text("ILi", w, base)
        add("coproduct", li, "--sort", "H")
        add("coproduct", li, "--sort", "Hbar")
        add("coproduct", ili, "--sort", "Hbar")
        add("inv", ili)
        add("symbol", li)
        add("form", li)
    prod = "%s %s" % (bracket_text("Li", (1,), base),
                      bracket_text("Li", (2,), base + 1))
    add("coproduct", "1/2 " + prod, "--sort", "H")
    add("symbol", prod + " - " + bracket_text("Li", (2, 1), base))
    add("inv", "%s^2" % bracket_text("ILi", (1, 1), base))
    for w in CLI_MATRIX_WEIGHTS:
        for what in CLI_MATRIX_WHAT:
            add("varmatrix", "--weights", ",".join(map(str, w)),
                "--what", what)
    return reqs


def cli_catalog():
    """Every request any seed's mix may contain."""
    seen = {}
    for shift in range(CLI_SHIFTS):
        for args in cli_requests(CLI_BASE + shift):
            seen.setdefault(request_key(args), args)
    return list(seen.values())


def cli_mix(seed):
    mix = cli_requests(CLI_BASE + seed % CLI_SHIFTS)
    random.Random(seed).shuffle(mix)
    return mix


def cli_passes(mix):
    return -(-CLI_MIN_TIMED // len(mix))


def request_key(args):
    return " ".join(args)


def cli_output_doc(args, text):
    """JSON outputs are parsed so the hash ignores layout; LaTeX and
    text outputs are hashed as they are."""
    if args[args.index("--format") + 1] == "json":
        return json.loads(text)
    return text


# ---------------------------------------------------------------------------
# verify-all

def report_doc(reports):
    """The pass/fail part of a verification report (timings dropped)."""
    return [{"suite": r.suite, "cases": r.cases, "failures": list(r.failures)}
            for r in reports]
