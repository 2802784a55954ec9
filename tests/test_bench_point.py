"""tools/bench_point.py: what it reads from one bench/run.py run's output,
and how it summarizes the runs of one workload and seed."""

import json
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
if str(TOOLS) not in sys.path:
    sys.path.insert(0, str(TOOLS))

from bench_point import parse_run, summarize  # noqa: E402

MACHINE = {"cpu": "Xeon", "nproc": 2, "python": "3.11.7"}


def bench_output(workload_note: str, build_s: float, correct: bool = True) -> str:
    """What bench/run.py prints, cut to the lines the tool reads and a few
    it must skip."""
    metrics = {"build_s": {"value": build_s, "unit": "s"},
               "peak_rss_mb": {"value": 50.0 + build_s, "unit": "MB"}}
    return "\n".join([
        "machine " + json.dumps(MACHINE, sort_keys=True),
        f"workload cold_build seed 7: fixture: synth seed 7; {workload_note}; machine ran 1.7x",
        f"  build_s {build_s:.6f} s",
        "checks: all passed" if correct else "CHECK FAILED: artifacts_sha256 differs",
        json.dumps({"correct": correct, "attempted": 120, "failed": 0, "metrics": metrics}),
    ]) + "\n"


def test_parse_run_reads_machine_repeats_and_metrics():
    run = parse_run(bench_output("3 cold build(s), 9 warm reruns", 2.5))
    assert run == {"machine": MACHINE, "repeats": 3,
                   "metrics": {"build_s": {"value": 2.5, "unit": "s"},
                               "peak_rss_mb": {"value": 52.5, "unit": "MB"}}}
    assert parse_run(bench_output("4 inference pass(es) over the new text", 1.0))["repeats"] == 4


def test_parse_run_rejects_a_failed_or_cut_run():
    with pytest.raises(ValueError, match="failed its checks"):
        parse_run(bench_output("3 cold build(s)", 2.5, correct=False))
    with pytest.raises(ValueError, match="no machine facts or repeats"):
        parse_run(bench_output("cold builds not counted", 2.5))
    with pytest.raises(ValueError):
        parse_run(bench_output("3 cold build(s)", 2.5).rsplit("\n", 2)[0])


def test_summarize_gives_median_and_inclusive_quartiles():
    runs = [parse_run(bench_output(f"{n} cold build(s)", b))
            for n, b in ((3, 4.0), (2, 1.0), (3, 2.0))]
    summary = summarize(runs)
    assert summary["repeats"] == [3, 2, 3]
    assert summary["metrics"]["build_s"] == {"unit": "s", "median": 2.0, "q1": 1.5, "q3": 3.0}
    assert summary["metrics"]["peak_rss_mb"] == {"unit": "MB", "median": 52.0, "q1": 51.5,
                                                 "q3": 53.0}
    one = summarize(runs[:1])["metrics"]["build_s"]
    assert one == {"unit": "s", "median": 4.0, "q1": 4.0, "q3": 4.0}
