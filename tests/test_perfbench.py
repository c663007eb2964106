"""The benchmark traces the program from outside, at each import site; a
renamed or removed site would make its per-layer metric read 0."""

from perfbench.tracer import Tracer


def test_every_trace_target_resolves():
    with Tracer().installed() as tracer:
        assert tracer.missing == []
