"""What the benchmark's tracer (perfbench/tracer.py) needs from the
library: every traced function where it looks for it, and every traced
operator held in its class's own namespace, with each alias the same
function object.  A refactor that breaks this fails here rather than in
a traced benchmark run."""

import importlib
import importlib.util
import os

import pytest

TRACER_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("lihopf_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    for mod_name, attr, _ in _tracer().SPAN_FUNCTIONS:
        assert callable(getattr(importlib.import_module(mod_name), attr))


@pytest.mark.parametrize("mod_name, cls_name, ops, metric",
                         _tracer().COUNTED_OPERATORS)
def test_traced_operators_are_own_aliases(mod_name, cls_name, ops, metric):
    cls = getattr(importlib.import_module(mod_name), cls_name)
    fn = cls.__dict__.get(ops[0])
    assert callable(fn), metric
    for op in ops:
        assert cls.__dict__.get(op) is fn, (cls_name, op)
