"""Per-layer tracing installed from outside the library.

``Tracer.install()`` replaces chosen lihopf functions and operators with
timing wrappers.  Module-level functions are rebound in every ``lihopf``
module namespace that holds them, because several modules (``verify``,
``variation``, ``cli``, ``iterint``) bind names such as ``coproduct_bar``
or ``build_V`` at import time; rebinding only the defining module would
leave those calls untraced.  Operators are replaced on their class, under
every alias (``__mul__`` and ``__rmul__`` are one function object).

Every wrapped call keeps a frame on one stack so that a call's self time
is its duration minus the time covered by wrapped calls nested in it.
Span wrappers also record ``(id, parent, name, start, end)`` in memory;
counter wrappers (the hot arithmetic operators) record only statistics.
"""

import importlib
import json
import sys
import time

# (module, function, layer metric prefix); each becomes a span wrapper.
SPAN_FUNCTIONS = [
    ("lihopf.coproduct", "coproduct_bar", "coproduct.coproduct_bar"),
    ("lihopf.coproduct", "coproduct_h", "coproduct.coproduct_h"),
    ("lihopf.coproduct", "inv_generator", "coproduct.inv_generator"),
    ("lihopf.coproduct", "inv_element", "coproduct.inv_element"),
    ("lihopf.coproduct", "antipode", "coproduct.antipode"),
    ("lihopf.coproduct", "derive", "coproduct.derive"),
    ("lihopf.tensor", "symbol", "tensor.symbol"),
    ("lihopf.tensor", "project_pi", "tensor.project_pi"),
    ("lihopf.forms", "w_element", "forms.w_element"),
    ("lihopf.variation", "build_V", "variation.build_V"),
    ("lihopf.iterint", "phi", "iterint.phi"),
    ("lihopf.iterint", "i_coproduct", "iterint.i_coproduct"),
    ("lihopf.expr", "parse", "expr.parse"),
]

# (module, class, operator names, metric prefix); counters, no spans.
COUNTED_OPERATORS = [
    ("lihopf.algebra", "Element", ("__mul__", "__rmul__"), "algebra.Element.mul"),
    ("lihopf.algebra", "Element", ("__add__", "__radd__"), "algebra.Element.add"),
    ("lihopf.tensor", "Tensor", ("__mul__", "__rmul__"), "tensor.Tensor.mul"),
    ("lihopf.series", "TruncatedSeries", ("__mul__", "__rmul__"),
     "series.TruncatedSeries.mul"),
]

RENDER_PREFIXES = ("latex_", "text_")
RENDER_SUFFIX = "_document"


def _is_renderer(name):
    return name.startswith(RENDER_PREFIXES) or name.endswith(RENDER_SUFFIX)


class Stat:
    __slots__ = ("name", "calls", "self_s", "total_s", "terms_out",
                 "max_terms_out")

    def __init__(self, name):
        self.name = name
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.terms_out = 0
        self.max_terms_out = 0


class Tracer:
    """Collects spans and per-name statistics for one process."""

    def __init__(self):
        self.stats = {}
        self.spans = []
        self.inv_args = set()
        self.inv_shapes = set()
        self._undo = []
        self._frames = [[0.0]]
        self._span_ids = [0]
        self._next_id = 1

    def stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat(name)
        return st

    def wrap(self, name, fn, span=True, name_of=None):
        """Wrap ``fn``; ``name_of(args)`` picks the statistic per call
        when one function feeds several names."""
        frames = self._frames
        span_ids = self._span_ids
        spans = self.spans
        clock = time.perf_counter
        fixed = None if name_of else self.stat(name)
        tracer = self

        def wrapper(*args, **kwargs):
            st = fixed or tracer.stat(name_of(args, kwargs))
            frame = [0.0]
            frames.append(frame)
            if span:
                sid = tracer._next_id
                tracer._next_id = sid + 1
                parent = span_ids[-1]
                span_ids.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                dur = end - start
                frames[-1][0] += dur
                st.calls += 1
                st.self_s += dur - frame[0]
                st.total_s += dur
                if span:
                    span_ids.pop()
                    spans.append((sid, parent, st.name, start, end))
            terms = getattr(result, "terms", None)
            if terms is not None:
                n = len(terms)
                st.terms_out += n
                if n > st.max_terms_out:
                    st.max_terms_out = n
            return result

        return wrapper

    def install(self):
        """Wrap every traced lihopf function and operator in place."""
        replace = {}
        for mod_name, attr, metric in SPAN_FUNCTIONS:
            fn = getattr(importlib.import_module(mod_name), attr)
            inner = self._note_inv_args(fn) if attr == "inv_generator" else fn
            replace[id(fn)] = self.wrap(metric, inner)
        expr = importlib.import_module("lihopf.expr")
        for attr, fn in list(vars(expr).items()):
            if callable(fn) and _is_renderer(attr) and \
                    getattr(fn, "__module__", None) == "lihopf.expr":
                replace[id(fn)] = self.wrap("expr.render", fn)
        verify = importlib.import_module("lihopf.verify")
        replace[id(verify.run_suite)] = self.wrap(
            "verify.run_suite", verify.run_suite,
            name_of=lambda args, kwargs: "verify.run_suite."
            + (args[0] if args else kwargs["name"]))
        found = set()
        for mod_name in [m for m in sys.modules if m == "lihopf"
                         or m.startswith("lihopf.")]:
            module = sys.modules[mod_name]
            for attr, value in list(vars(module).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None:
                    found.add(id(value))
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)
        missing = set(replace) - found
        if missing:
            raise RuntimeError("traced functions not found in any lihopf "
                               "module: %d" % len(missing))
        for mod_name, cls_name, ops, metric in COUNTED_OPERATORS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            fn = cls.__dict__[ops[0]]
            wrapper = self.wrap(metric, fn, span=False)
            for op in ops:
                if cls.__dict__.get(op) is not fn:
                    raise RuntimeError("%s.%s is not an alias of %s"
                                       % (cls_name, op, ops[0]))
                self._undo.append((cls, op, fn))
                setattr(cls, op, wrapper)

    def uninstall(self):
        """Put back every function and operator ``install`` replaced."""
        while self._undo:
            target, attr, value = self._undo.pop()
            setattr(target, attr, value)

    def _note_inv_args(self, fn):
        args_seen = self.inv_args
        shapes_seen = self.inv_shapes

        def inv_generator(g):
            args_seen.add(g._key)
            shapes_seen.add((g.weights, g.inverted))
            return fn(g)

        return inv_generator

    def counts(self):
        """Every exact count the trace holds, for repeatability checks."""
        out = {}
        for name, st in sorted(self.stats.items()):
            out[name + ".calls"] = st.calls
            out[name + ".terms_out"] = st.terms_out
            out[name + ".max_terms_out"] = st.max_terms_out
        out["coproduct.inv_generator.distinct_args"] = len(self.inv_args)
        out["coproduct.inv_generator.distinct_shapes"] = len(self.inv_shapes)
        out["trace.spans"] = len(self.spans)
        return out

    def times(self):
        """Self and inclusive seconds per statistic."""
        out = {}
        for name, st in sorted(self.stats.items()):
            out[name + ".self_s"] = st.self_s
            out[name + ".wall_s"] = st.total_s
        return out

    def write_spans(self, path):
        """One JSON array per line: id, parent id (0 = none), name,
        start and end in seconds of ``time.perf_counter``."""
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps([sid, parent, name, start, end]))
                fh.write("\n")
