"""The traced benchmark wraps kbforge functions and methods by name
(bench/layers.py). Installing its wrappers here makes a renamed or deleted
name fail the test suite, not only a traced benchmark run."""

import sys
from pathlib import Path

from kbforge import nn

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_bench_wrappers_install_and_restore():
    tracer = Tracer(flag=nn.grad_enabled)
    try:
        layers.install(tracer)
        patched = list(tracer._undo)
        assert patched
        assert all(vars(owner)[attr] is not original for owner, attr, original in patched)
    finally:
        tracer.restore()
    assert all(vars(owner)[attr] is original for owner, attr, original in patched)
