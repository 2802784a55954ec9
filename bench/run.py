"""kbforge benchmark: a cold knowledge-base build, and inference on new text.

    python3 bench/run.py --workload cold_build|infer_new_text
                         [--seed N] [--seconds S] [--trace 0|1]

Each run is one single-threaded process driving kbforge through its public
functions. It generates a synthetic fixture from the seed, times the
workload, checks the outputs, prints a readable report and, as its last
line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the kbforge modules are wrapped in spans (see tracing.py) and
the metrics are the per-layer ones. ``--seconds`` is the measuring budget:
the timed job repeats until that much time is spent, at least once (a
traced run does it once). NOTES.md gives the reasons for the workloads and the metrics.

Working files go to .bench_work/ at the root of the checkout; each run's
fixtures and artifacts are deleted when it ends.
"""

from __future__ import annotations

import os

# kbforge is single-threaded by design; a multi-threaded BLAS would only
# add contention on a small machine. Set before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# The tier-1 fixture (tests/conftest.py FIXTURE_SHAPE without its seed).
FIXTURE = dict(entities=200, types=5, relations=10, triples_per_relation=42,
               sentences_per_triple=3, distractor_rate=0.2, holdout_fraction=0.1)
# infer_new_text trains on the same KB realized once per triple, then reads
# new text with twelve sentences per triple: bags about four times larger
# than cold_build's.
TRAIN_SENTENCES_PER_TRIPLE = 1
NEW_TEXT_SENTENCES_PER_TRIPLE = 12

# tests/conftest.py CONFIG_TEMPLATE, verbatim
CONFIG_TEMPLATE = """\
[paths]
entities = {fix}/entities.tsv
triples = {fix}/triples.tsv
corpus = {fix}/corpus.jsonl
gold_links = {fix}/gold_links.tsv
gold_triples = {fix}/gold_triples.tsv
out_dir = {out}

[pipeline]
seed = 0
threads = 1

[embeddings]
dim = 64
epochs = 6

[bootstrap]
knn_k = 0

[el]
hidden = 24
mlp_hidden = 64
epochs = 5
margin = 0.3
knn_k = 0

[ds]
na_ratio = 1.5

[re]
down_weight = 1.0
epochs = 6
"""
# Trainer epochs (skip-gram, context linker, relation model). The tier-1
# epochs take about two minutes on the reference host (see NOTES.md),
# several times the run budget, so both workloads train one epoch each.
EPOCHS = (1, 1, 1)

SETUP_REPEATS = 7
RERUNS = 9
STAGE_CALLS = {
    "ingest": lambda r: (r.kb(), r.corpus()),
    "embeddings": lambda r: r.embeddings(),
    "bootstrap": lambda r: r.bootstrap(),
    "el": lambda r: r.el_model(),
    "bags": lambda r: r.bags(),
    "re": lambda r: r.re_model(),
    "link": lambda r: r.link_corpus(),
    "extract": lambda r: r.extracted(),
    "enrich": lambda r: r.enriched(),
    "evaluate": lambda r: r.evaluate(),
}

END_TO_END_UNITS = {
    "setup_s": "s", "build_s": "s", "rerun_s": "s", "sentences_per_s": "1/s",
    "peak_rss_mb": "MB", "subgraph_precision_at_1": "ratio",
    "context_accuracy_at_1": "ratio",
}
# Printed in the report, not in the JSON line: after one training epoch the
# relation model's quality spreads too much across seeds for any bound.
REPORT_ONLY_UNITS = {"triple_precision": "ratio", "bag_f1": "ratio"}


def import_program():
    """Put the checkout's src/ first on the path, so no other kbforge loads."""
    if not (SRC / "kbforge" / "__init__.py").is_file():
        sys.exit(f"bench: no kbforge sources under {SRC}")
    sys.path.insert(0, str(SRC))


def machine_facts() -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_name,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def code_digest() -> str:
    """What a stored result is only comparable under: sources, benchmark,
    interpreter and numpy."""
    import numpy as np

    h = hashlib.sha256(f"{platform.python_version()} {np.__version__}".encode())
    for path in sorted(list((SRC / "kbforge").rglob("*.py")) + list(BENCH.glob("*.py"))):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class Probe:
    """Phase and stage spans, and the kbforge wrappers; inert untraced."""

    def __init__(self, traced: bool):
        self.tracer = None
        if traced:
            from kbforge import nn
            from tracing import Tracer
            self.tracer = Tracer(flag=nn.grad_enabled)

    def span(self, name):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def start(self):
        if self.tracer:
            import layers
            layers.install(self.tracer)

    def stop(self):
        if self.tracer:
            self.tracer.restore()


class Interval:
    """perf_counter at entry and exit."""

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        return False


class Run:
    """What a workload measured and found. Times are reference seconds."""

    def __init__(self, speed):
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, float] = {}
        self.phase_seconds: dict[str, float] = {}  # first occurrence of each phase
        self.layer_extra: dict = {}
        self.digest_parts: list[str] = []
        self.notes: list[str] = []

    def seconds(self, interval: Interval) -> float:
        return self.speed.reference_seconds(interval.start, interval.end)

    def phase(self, name, seconds):
        self.phase_seconds.setdefault(name, seconds)


def generate(run: Run, work: Path, seed: int, shapes: dict) -> tuple[float, dict]:
    """Write one fixture per name with the given sentences per triple. The
    whole set-up is repeated; returns its median time and the first copy."""
    from kbforge.synth import SynthConfig, generate_fixture

    times = []
    for rep in range(SETUP_REPEATS):
        with Interval() as iv:
            for name, per_triple in shapes.items():
                shape = dict(FIXTURE, sentences_per_triple=per_triple)
                generate_fixture(SynthConfig(**shape, seed=seed), work / f"setup{rep}" / name)
        times.append(run.seconds(iv))
    for rep in range(1, SETUP_REPEATS):
        shutil.rmtree(work / f"setup{rep}")
    return statistics.median(times), {name: work / "setup0" / name for name in shapes}


def make_config(fixture: Path, out: Path, epochs):
    from kbforge import pipeline

    ini = out.parent / f"{out.name}.ini"
    ini.write_text(CONFIG_TEMPLATE.format(fix=fixture, out=out))
    cfg = pipeline.load_config(ini)
    cfg.embeddings.epochs, cfg.el.epochs, cfg.re.epochs = epochs
    return cfg


def run_stages(cfg, probe: Probe, run: Run):
    """Every runner stage in dependency order, each under its own span.
    Returns (runner, report or None, seconds per stage). A stage that raises
    fails, and so does every stage after it, which needs its output."""
    from kbforge import pipeline

    runner = pipeline.PipelineRunner(cfg)
    times: dict[str, float] = {}
    report = None
    for stage, call in STAGE_CALLS.items():
        run.attempted += 1
        if len(times) < list(STAGE_CALLS).index(stage):
            run.failed += 1
            continue
        try:
            with Interval() as iv, probe.span(f"pipeline.{stage}"):
                report = call(runner)
        except Exception:
            traceback.print_exc()
            run.failed += 1
            run.problems.append(f"stage {stage} raised")
            report = None
            continue
        times[stage] = run.seconds(iv)
    return runner, report, times


def repeat(job, seconds: float, once: bool) -> list:
    """Call job() until ``seconds`` of wall time are spent; at least once.
    job() returns (reference seconds, ...)."""
    results = []
    end = time.perf_counter() + seconds
    while not results or (not once and time.perf_counter() < end):
        results.append(job())
    return results


def warm_reruns(cfg, probe: Probe, run: Run, checks) -> float:
    """New runners on a built out dir; every stage must be a cache hit."""
    times = []
    for _ in range(RERUNS):
        with Interval() as iv, probe.span("rerun"):
            runner, _, _ = run_stages(cfg, probe, run)
        times.append(run.seconds(iv))
        run.problems += checks.rerun_is_idle(runner.stage_ran)
    hits = sum(1 for ran in runner.stage_ran.values() if not ran)
    run.layer_extra["rerun_stages_run"] = len(runner.stage_ran) - hits
    run.layer_extra["rerun_hit_ratio"] = hits / len(runner.stage_ran)
    run.phase("rerun", sum(times))
    run.notes.append("reruns " + " ".join(f"{t:.3f}" for t in times) + " s")
    return statistics.median(times)


def check_build(runner, out: Path, run: Run, checks) -> None:
    """Checks on a built out dir that hold on every seed."""
    kb, table = runner.kb(), runner.embeddings()
    cfg = runner.cfg
    run.problems += checks.bag_labels_in_kb(runner.bags()["all"], kb)
    run.problems += checks.triples_fit_templates(
        [t.triple() for t in runner.extracted()[0]], kb)
    for sentences, knn_k in ((runner.bootstrap()[0], cfg.bootstrap.knn_k),
                             (runner.link_corpus()[0], cfg.el.knn_k)):
        links = [(s.id, sp, sp.linked) for s in sentences for sp in s.spans if sp.linked]
        run.problems += checks.links_among_candidates(links, kb, table, knn_k)
    run.digest_parts.append(checks.sha256_files(out / name for name in checks.ARTIFACTS))


def cold_build(args, work: Path, probe: Probe, checks, speed) -> Run:
    run = Run(speed)
    setup_s, fixtures = generate(run, work, args.seed,
                                 {"fixture": FIXTURE["sentences_per_triple"]})
    fixture = fixtures["fixture"]
    run.metrics["setup_s"] = setup_s
    run.notes.append(f"fixture: synth seed {args.seed}, trainer epochs "
                     f"(skip-gram, context linker, relations) {EPOCHS}")

    probe.start()
    builds = []

    def build():
        out = work / f"out{len(builds)}"
        cfg = make_config(fixture, out, EPOCHS)
        with Interval() as iv, probe.span("build"):
            runner, report, times = run_stages(cfg, probe, run)
        builds.append((run.seconds(iv), cfg, out, runner, report, times))
        run.notes.append(f"build wall {iv.end - iv.start:.2f} s")

    repeat(build, args.seconds, once=args.trace == 1)
    _, cfg, out, runner, report, times = builds[-1]
    if report is not None:
        run.metrics["rerun_s"] = warm_reruns(cfg, probe, run, checks)
    probe.stop()

    run.phase("build", builds[0][0])
    run.notes.append("stage seconds " + " ".join(f"{k} {v:.2f}" for k, v in times.items()))
    run.metrics["build_s"] = statistics.median(b[0] for b in builds)
    run.layer_extra["stages_run"] = sum(runner.stage_ran.values())
    run.notes.append(f"{len(builds)} cold build(s), {RERUNS} warm reruns")
    if report is None:
        return run
    run.metrics["sentences_per_s"] = len(runner.corpus()) / run.metrics["build_s"]
    run.metrics.update({"subgraph_precision_at_1": report.el.get("precision_at_1"),
                        "context_accuracy_at_1": report.el.get("accuracy_at_1"),
                        "bag_f1": report.re.get("f1"),
                        "triple_precision": report.triple_precision})
    check_build(runner, out, run, checks)
    return run


def infer_new_text(args, work: Path, probe: Probe, checks, speed) -> Run:
    from kbforge import corpus, datagen, linker, metrics, relations, synth

    run = Run(speed)
    setup_s, fixtures = generate(run, work, args.seed, {
        "train": TRAIN_SENTENCES_PER_TRIPLE, "new": NEW_TEXT_SENTENCES_PER_TRIPLE})
    train_fix, new_fix = fixtures["train"], fixtures["new"]
    run.metrics["setup_s"] = setup_s
    for name in ("entities.tsv", "triples.tsv"):
        run.problems += checks.same_bytes(new_fix / name, train_fix / name)
    new_text = corpus.ingest_corpus(new_fix / "corpus.jsonl")
    run.notes.append(f"new text: synth seed {args.seed}, {len(new_text)} sentences; "
                     f"models trained {EPOCHS} epochs on {TRAIN_SENTENCES_PER_TRIPLE} "
                     "sentence(s) per triple")

    probe.start()
    out = work / "out"
    cfg = make_config(train_fix, out, EPOCHS)
    with Interval() as iv, probe.span("build"):
        runner, report, times = run_stages(cfg, probe, run)
    run.metrics["build_s"] = run.seconds(iv)
    run.notes.append("stage seconds " + " ".join(f"{k} {v:.2f}" for k, v in times.items()))
    run.phase("build", run.metrics["build_s"])
    if report is None:
        raise RuntimeError("training the models failed")
    run.metrics["rerun_s"] = warm_reruns(cfg, probe, run, checks)
    run.layer_extra["stages_run"] = sum(runner.stage_ran.values())
    # The warm reruns count as stage operations; this workload's operations
    # are sentences.
    run.attempted = run.failed = 0

    kb, table = runner.kb(), runner.embeddings()
    el_model, re_model = runner.el_model(), runner.re_model()
    recognizer = linker.GazetteerRecognizer(kb)

    def one_pass():
        decisions, linked, failed = [], [], 0
        with Interval() as iv, probe.span("infer"):
            for sentence in new_text:
                try:
                    ds = linker.link(sentence, kb, table, el_model, recognizer, knn_k=0)
                except Exception:
                    traceback.print_exc()
                    failed += 1
                    ds = []
                decisions.append(ds)
                linked.append(corpus.Sentence(sentence.id, sentence.tokens, [
                    corpus.Span(d.span.start, d.span.end, d.span.surface,
                                kb.entity_type(d.entity), d.entity, d.method)
                    for d in ds]))
            rejected: list = []
            try:
                accepted = relations.extract(linked, kb, re_model, rejected_log=rejected)
            except Exception:
                traceback.print_exc()
                bagged = {sid for sids in datagen.collect_pair_sentences(linked).values()
                          for sid in sids}
                failed += len(bagged)
                accepted = []
        return run.seconds(iv), decisions, linked, accepted, rejected, failed

    passes = repeat(one_pass, args.seconds, once=args.trace == 1)
    probe.stop()
    run.phase("infer", passes[0][0])
    run.notes.append(f"{len(passes)} inference pass(es) over the new text")
    run.attempted = len(new_text) * len(passes)
    run.failed = sum(p[-1] for p in passes)
    run.metrics["sentences_per_s"] = statistics.median(len(new_text) / p[0] for p in passes)

    _, decisions, linked, accepted, rejected, _ = passes[-1]
    gold_links = synth.load_gold_links(new_fix / "gold_links.tsv")
    items = [metrics.LinkEvalItem(sid, d.span.start, d.span.end, d.method, d.entity)
             for sid, ds in zip((s.id for s in new_text), decisions) for d in ds]
    el = metrics.eval_entity_linker(items, gold_links)
    truth = {(t.subject, t.relation, t.object) for t in kb.iter_triples()}
    truth |= synth.load_gold_triples(new_fix / "gold_triples.tsv")
    gold_bags = {}
    with open(new_fix / "gold_bags.jsonl", encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            gold_bags[(rec["subject"], rec["object"])] = set(rec["labels"])
    predicted: dict[tuple[str, str], set[str]] = {}
    for t in accepted + [t for t, _ in rejected]:
        predicted.setdefault((t.subject, t.object), set()).add(t.relation)
    pairs = sorted(datagen.collect_pair_sentences(linked))
    bag_scores = metrics.eval_relation_extractor(
        [predicted.get(p, set()) for p in pairs], [gold_bags.get(p, set()) for p in pairs])
    run.metrics.update({
        "subgraph_precision_at_1": el["precision_at_1"],
        "context_accuracy_at_1": el["accuracy_at_1"],
        "bag_f1": bag_scores["f1"],
        "triple_precision": metrics.triple_precision(
            [(t.subject, t.relation, t.object) for t in accepted], truth),
    })

    check_build(runner, out, run, checks)
    run.problems += checks.links_among_candidates(
        [(s.id, d.span, d.entity) for s, ds in zip(new_text, decisions) for d in ds],
        kb, table, 0)
    run.problems += checks.triples_fit_templates([t.triple() for t in accepted], kb)
    digests = {inference_digest(p[1], p[3]) for p in passes}
    if len(digests) > 1:
        run.problems.append("inference passes over the same text disagree")
    run.digest_parts.append(inference_digest(decisions, accepted))
    return run


def inference_digest(decisions, accepted) -> str:
    outputs = [json.dumps([[d.span.start, d.span.end, d.entity, d.method] for d in ds])
               for ds in decisions]
    outputs += [f"{t.subject} {t.relation} {t.object} {t.confidence!r}" for t in accepted]
    return hashlib.sha256("\n".join(outputs).encode()).hexdigest()


WORKLOADS = {"cold_build": cold_build, "infer_new_text": infer_new_text}


def read_runs(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def tracing_overhead(history: list[dict], this: dict) -> str:
    same = [r for r in history if r["trace"] == 0 and r["workload"] == this["workload"]
            and r["code"] == this["code"]]
    base = [r for r in same if r["seed"] == this["seed"]] or same
    if not base:
        return "tracing overhead: no untraced run of this code and workload recorded yet"
    untraced = statistics.median(sum(r["phase_seconds"].values()) for r in base)
    traced = sum(this["phase_seconds"].values())
    return (f"tracing overhead: traced {traced:.3f} s - untraced median {untraced:.3f} s "
            f"(n={len(base)}{'' if base is not same else ', other seeds'}) = "
            f"{traced - untraced:+.3f} s ({100 * (traced / untraced - 1):+.1f} %)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    sys.path.insert(0, str(BENCH))
    import checks
    import layers
    import tracing
    from speed import SpeedSampler

    machine = machine_facts()
    print("machine " + json.dumps(machine, sort_keys=True))
    WORK.mkdir(exist_ok=True)
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    probe = Probe(args.trace == 1)
    speed = SpeedSampler()
    speed.start()
    try:
        run = WORKLOADS[args.workload](args, work, probe, checks, speed)
    finally:
        speed.stop()
        probe.stop()
        shutil.rmtree(work, ignore_errors=True)
    run.notes.append(f"machine ran {speed.slowdown():.3f}x the reference loop time "
                     f"({len(speed.loops)} samples)")

    m = run.metrics
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for name in END_TO_END_UNITS:
        if m.get(name) is None:
            run.problems.append(f"{name} was not measured")
            m[name] = 0.0

    code = code_digest()
    key = f"{args.workload}|seed={args.seed}|code={code}"
    record = {"artifacts_sha256": "-".join(run.digest_parts)}
    this = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "code": code, "machine": machine,
            "phase_seconds": run.phase_seconds, "end_to_end": m}

    print(f"workload {args.workload} seed {args.seed}: " + "; ".join(run.notes))
    for name, unit in {**END_TO_END_UNITS, **REPORT_ONLY_UNITS}.items():
        value = "undefined" if m.get(name) is None else f"{m[name]:.6f}"
        print(f"  {name:<28} {value:>14} {unit}")
    error_rate = run.failed / run.attempted if run.attempted else 1.0
    print(f"  {'error_rate':<28} {error_rate:>14.6f} ratio "
          f"({run.failed} of {run.attempted} operations failed)")

    if args.trace:
        spans = probe.tracer.spans
        clock = speed.reference_clock()
        for span in spans:
            span.start, span.end = clock(span.start), clock(span.end)
        excluded = [(clock(a), clock(b)) for a, b in probe.tracer.excluded]
        tracing.cut_out(spans, excluded)
        print(f"work counts took {sum(b - a for a, b in excluded):.3f} s, cut out of the spans")
        main_phase = "build" if args.workload == "cold_build" else "infer"
        per_layer, missing = layers.per_layer_metrics(spans, main_phase, STAGE_CALLS,
                                                      run.layer_extra)
        run.problems += [f"trace has no spans for {name}" for name in missing]
        counts = {name: per_layer[name][0] for name in layers.EXACT_COUNTS}
        record["counts"] = counts
        print("counts " + json.dumps(counts, sort_keys=True))
        for name, (value, unit) in per_layer.items():
            print(f"  {name:<36} {value:>16.6f} {unit}")
        overhead = tracing_overhead(read_runs(WORK / "runs.jsonl"), this)
        print(overhead)
        this["tracing_overhead"] = overhead
        tracing.write_spans(spans, tracing.self_times(spans), WORK / f"spans-{args.workload}-seed{args.seed}.tsv")
        out_metrics = {name: {"value": v, "unit": u} for name, (v, u) in per_layer.items()}
    else:
        out_metrics = {name: {"value": m[name], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()}

    run.problems += checks.repeats_earlier_runs(WORK / "history.json", key, record)
    with open(WORK / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(dict(this, problems=run.problems), sort_keys=True) + "\n")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    if not run.problems:
        print("checks: all passed")
    correct = not run.problems and run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": out_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
