"""The benchmark's own tests: span arithmetic, the run-time wrappers, and
each correctness check rejecting a forged input.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT / "bench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import layers  # noqa: E402
from kbforge import datagen, linker, nn, pipeline  # noqa: E402
from kbforge.corpus import Span  # noqa: E402
from kbforge.datagen import Bag  # noqa: E402
from kbforge.kb import Entity, KnowledgeBase, Triple  # noqa: E402
from speed import REFERENCE_LOOP_S, SpeedSampler  # noqa: E402
from tracing import Span as TSpan  # noqa: E402
from tracing import Tracer, covered_length, cut_out, nearest, roots, self_times  # noqa: E402


def test_covered_length_merges_overlaps_and_clips_to_the_parent():
    assert covered_length(0.0, 10.0, []) == 0.0
    assert covered_length(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == 3.0
    assert covered_length(0.0, 10.0, [(1.0, 4.0), (2.0, 5.0), (4.5, 6.0)]) == 5.0
    assert covered_length(0.0, 10.0, [(-2.0, 1.0), (9.0, 12.0)]) == 2.0
    assert covered_length(0.0, 10.0, [(11.0, 12.0)]) == 0.0


def test_self_time_subtracts_direct_children_only():
    spans = [TSpan("root", 0.0, 10.0, None),
             TSpan("a", 1.0, 5.0, 0),
             TSpan("a.child", 2.0, 4.0, 1),
             TSpan("b", 6.0, 7.0, 0)]
    assert self_times(spans) == [5.0, 2.0, 2.0, 1.0]
    assert roots(spans) == [0, 0, 0, 0]
    assert nearest(spans, {"a"}) == [None, 1, 1, None]


def test_tracer_nests_spans_and_counts_work():
    ticks = iter(range(100))
    tracer = Tracer(flag=lambda: "f", clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda x: [x] * x, "inner", work=lambda a, k, r: len(r))
    with tracer.span("outer"):
        inner(3)
    outer, call = tracer.spans
    assert (outer.name, outer.parent, call.name, call.parent) == ("outer", None, "inner", 0)
    assert call.work == 3 and call.flag == "f"
    assert outer.start < call.start < call.end < outer.end


def test_slow_work_count_is_cut_out_of_every_enclosing_span():
    def traced_run(work_seconds):
        now = [0.0]
        tracer = Tracer(clock=lambda: now[0])

        def call():
            now[0] += 1.0

        def work(args, kwargs, result):
            now[0] += work_seconds
            return 7

        inner = tracer.wrap(call, "inner", work)
        with tracer.span("outer"), tracer.span("mid"):
            inner()
            now[0] += 0.5
            inner()
        with tracer.span("after"):
            now[0] += 0.25
        cut_out(tracer.spans, tracer.excluded)
        spans = tracer.spans
        return ([(s.name, s.work, s.duration) for s in spans], self_times(spans),
                spans[-1].start)

    fast, slow = traced_run(0.0), traced_run(100.0)
    assert slow[0] == fast[0] == [("outer", None, 2.5), ("mid", None, 2.5),
                                  ("inner", 7, 1.0), ("inner", 7, 1.0),
                                  ("after", None, 0.25)]
    assert slow[1] == fast[1] == [0.0, 0.5, 1.0, 1.0, 0.25]
    assert slow[2] == fast[2] == 2.5


def test_tracer_closes_the_span_of_a_call_that_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom")()
    assert tracer.spans[0].end is not None and not tracer._open


def test_patch_reaches_every_module_that_imported_the_function():
    original = linker.subgraph_link
    tracer = Tracer()
    assert tracer.patch_function(linker, "subgraph_link", "linker.subgraph_link") >= 3
    try:
        for module in (linker, pipeline, datagen):
            assert module.subgraph_link is not original
        pipeline.subgraph_link([], None)
        assert [s.name for s in tracer.spans] == ["linker.subgraph_link"]
    finally:
        tracer.restore()
    for module in (linker, pipeline, datagen):
        assert module.subgraph_link is original


def test_tape_nodes_counts_everything_reachable_from_the_loss():
    a = nn.Parameter(np.ones((2, 1), dtype=np.float64), "a")
    b = nn.Parameter(np.ones((2, 1), dtype=np.float64), "b")
    loss = nn.tsum(nn.add(nn.mul(a, a), b))
    assert layers.tape_nodes(loss) == 5  # loss, add, mul, a, b


def test_link_latency_groups_the_link_stage_by_sentence():
    spans = [TSpan("build", 0.0, 100.0, None),
             TSpan("pipeline.link", 1.0, 50.0, 0),
             TSpan("linker.recognize", 2.0, 3.0, 1),
             TSpan("linker.generate_candidates", 3.0, 3.5, 1),
             TSpan("linker.subgraph_link", 3.5, 4.0, 1),
             TSpan("linker.recognize", 5.0, 6.0, 1),
             TSpan("linker.score_candidates", 6.0, 9.0, 1),
             TSpan("nn.bilstm", 6.5, 8.0, 6)]
    lat = layers.link_latencies(spans, "build", roots(spans))
    assert lat == [2.0, 4.0]


# -- each check rejects a forged input ------------------------------------------

@pytest.fixture
def kb():
    ents = [Entity("a", "Ann Lee", ("Ann",), "Agent"),
            Entity("b", "Bo Lee", (), "Place"),
            Entity("c", "Ann Roe", ("Ann",), "Agent")]
    return KnowledgeBase(ents, [Triple("a", "founded", "b"), Triple("c", "founded", "b")])


def test_bag_label_outside_the_kb_is_rejected(kb):
    assert checks.bag_labels_in_kb([Bag("a", "b", ("founded",), ("s1",))], kb) == []
    assert checks.bag_labels_in_kb([Bag("a", "b", ("married",), ("s1",))], kb)
    assert checks.bag_labels_in_kb([Bag("b", "a", ("founded",), ("s1",))], kb)


def test_triple_against_its_template_is_rejected(kb):
    assert checks.triples_fit_templates([Triple("c", "founded", "b")], kb) == []
    assert checks.triples_fit_templates([Triple("b", "founded", "a")], kb)
    assert checks.triples_fit_templates([Triple("a", "unknown", "b")], kb)


def test_link_to_a_non_candidate_is_rejected(kb):
    span = Span(0, 0, "Ann")
    assert checks.links_among_candidates([("s1", span, "c")], kb, None, 0) == []
    assert checks.links_among_candidates([("s1", span, "b")], kb, None, 0)
    assert checks.links_among_candidates([("s1", Span(0, 0, "Zed"), "a")], kb, None, 0)


def test_rerun_that_ran_a_stage_is_rejected():
    assert checks.rerun_is_idle({"re": False, "link": False}) == []
    assert checks.rerun_is_idle({"re": True, "link": False})


def test_differing_files_are_rejected(tmp_path):
    (tmp_path / "x").write_text("same\n")
    (tmp_path / "y").write_text("same\n")
    (tmp_path / "z").write_text("other\n")
    assert checks.same_bytes(tmp_path / "x", tmp_path / "y") == []
    assert checks.same_bytes(tmp_path / "x", tmp_path / "z")


def test_result_differing_from_an_earlier_run_is_rejected(tmp_path):
    history = tmp_path / "history.json"
    assert checks.repeats_earlier_runs(history, "k", {"sha": "1"}) == []
    assert checks.repeats_earlier_runs(history, "k", {"sha": "1", "counts": 5}) == []
    assert checks.repeats_earlier_runs(history, "k", {"sha": "1", "counts": 6})
    assert checks.repeats_earlier_runs(history, "k", {"sha": "2"})
    assert checks.repeats_earlier_runs(history, "other", {"sha": "2"}) == []


def test_artifact_digest_depends_on_every_byte(tmp_path):
    (tmp_path / "a").write_bytes(b"12")
    (tmp_path / "b").write_bytes(b"3")
    first = checks.sha256_files([tmp_path / "a", tmp_path / "b"])
    (tmp_path / "a").write_bytes(b"1")
    (tmp_path / "b").write_bytes(b"23")
    assert checks.sha256_files([tmp_path / "a", tmp_path / "b"]) != first


def test_reference_clock_stops_in_the_sampler_and_runs_at_the_sampled_speed():
    speed = SpeedSampler()
    assert speed.reference_seconds(0.0, 1.0) == 1.0
    speed.starts = [1.0, 2.0, 3.0]
    speed.loops = [REFERENCE_LOOP_S, 2 * REFERENCE_LOOP_S, REFERENCE_LOOP_S]
    speed.spent = [0.1, 0.1, 0.1]
    clock = speed.reference_clock()
    # full speed from 1.1 to 2.0, half speed from 2.1 to 3.0, full again after 3.1
    assert [clock(t) for t in (1.0, 1.05, 2.0, 3.0, 3.1, 4.1)] == pytest.approx(
        [0.0, 0.0, 0.9, 1.35, 1.35, 2.35])
    assert clock(0.5) == pytest.approx(-0.5)
    assert speed.reference_seconds(2.5, 2.9) == pytest.approx(0.2)
    assert speed.reference_seconds(0.5, 2.5) == pytest.approx(1.6)


def test_sampler_samples_while_started_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    speed = SpeedSampler()
    speed.start()
    try:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            sum(range(1000))
    finally:
        speed.stop()
    assert len(speed.loops) >= 3
    assert signal.getsignal(signal.SIGALRM) is before
