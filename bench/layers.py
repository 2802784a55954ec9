"""Which kbforge calls the traced run wraps, and the per-layer metrics
derived from the resulting spans.

Span roots are the benchmark's phases: ``build`` (a cold pipeline run),
``rerun`` (a warm no-op rerun) and ``infer`` (linking and extraction over
new text). Prediction-side metrics come from the workload's main phase;
training-side metrics come from ``build``.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import Tracer, nearest, roots, self_times

MODULES = ("pipeline", "embeddings", "datagen", "linker", "relations", "nn",
           "corpus", "kb")
RE_TRAIN = "relations.train_re"
EL_TRAIN = "linker.train_context_linker"

# printed on their own line: they must repeat exactly across runs of one seed
EXACT_COUNTS = ("nn.tape_nodes.re_step", "nn.tape_nodes.el_step",
                "embeddings.sgd_pairs", "linker.context_scored_spans",
                "relations.predict_bags", "datagen.bags")


def tape_nodes(loss) -> int:
    """Nodes reachable from ``loss`` through the tape's parent links."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def install(tracer: Tracer) -> None:
    from kbforge import corpus, datagen, embeddings, kb, linker, nn, relations

    fn, meth = tracer.patch_function, tracer.patch_method
    size = lambda a, k, r: len(r)

    fn(corpus, "ingest_corpus", "corpus.ingest_corpus", size)
    fn(corpus, "write_corpus", "corpus.write_corpus")
    fn(kb, "load_kb", "kb.load_kb")

    fn(embeddings, "train_node_embeddings", "embeddings.train_node_embeddings")
    fn(embeddings, "train_joint_embeddings", "embeddings.train_joint_embeddings")
    fn(embeddings, "_sgd_pairs", "embeddings.sgd_pairs", lambda a, k, r: len(a[2]))
    fn(embeddings, "save_table", "embeddings.save_table")
    fn(embeddings, "load_table", "embeddings.load_table")

    fn(datagen, "bootstrap_linked_corpus", "datagen.bootstrap")
    fn(datagen, "_extract_once", "datagen.extract_once",
       lambda a, k, r: (len(a[0]), len(r)))
    fn(datagen, "distant_supervision", "datagen.distant_supervision", size)
    fn(datagen, "save_bags", "datagen.save_bags")
    fn(datagen, "load_bags", "datagen.load_bags")

    meth(linker.GazetteerRecognizer, "recognize", "linker.recognize")
    meth(linker.TrainableSpanClassifier, "recognize", "linker.recognize")
    meth(linker.TrainableSpanClassifier, "train", "linker.classifier_train")
    fn(linker, "generate_candidates", "linker.generate_candidates")
    fn(linker, "subgraph_link", "linker.subgraph_link",
       lambda a, k, r: (len(r), sum(d is not None for d in r)))
    fn(linker, "train_context_linker", EL_TRAIN)
    meth(linker.ContextLinkerModel, "_context_vec", "linker.context_vec")
    meth(linker.ContextLinkerModel, "score_candidates", "linker.score_candidates")
    fn(linker, "link", "linker.link")

    fn(relations, "train_re", RE_TRAIN)
    meth(relations.REModel, "encode_tokens", "relations.encode_tokens")
    meth(relations.REModel, "pcnn_encode", "relations.pcnn")
    meth(relations.REModel, "cgcn_encode", "relations.cgcn")
    meth(relations.REModel, "selective_gate", "relations.gate")
    fn(relations, "aggregate_bag", "relations.aggregate")
    meth(relations.REModel, "predict_from_bag_vector", "relations.head")
    meth(relations.REModel, "predict", "relations.predict",
         lambda a, k, r: (len(a[1]), len(r[1])))
    fn(relations, "sliding_margin_loss", "relations.loss")
    fn(relations, "extract", "relations.extract", size)
    fn(relations, "save_model", "relations.save_model")
    fn(relations, "load_model", "relations.load_model")

    meth(nn.BiLSTM, "__call__", "nn.bilstm", lambda a, k, r: a[1].shape[1])
    meth(nn.GCNLayer, "__call__", "nn.gcn")
    meth(nn.Tensor, "backward", "nn.backward", lambda a, k, r: tape_nodes(a[0]))
    meth(nn.Adam, "step", "nn.adam_step")
    fn(nn, "save_checkpoint", "nn.checkpoint_save")
    fn(nn, "load_checkpoint", "nn.checkpoint_load")


def percentile(values, q: int) -> float:
    """q-th percentile (1..99) by statistics.quantiles' default method."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def link_latencies(spans, main: str, root_of) -> list[float]:
    """Per-sentence linking time in seconds. ``linker.link`` spans when the
    main phase calls it; otherwise the pipeline's link stage, where one
    sentence's time is the sum of the linker calls from its ``recognize``
    up to the next sentence's."""
    direct = [s.duration for i, s in enumerate(spans)
              if s.name == "linker.link" and spans[root_of[i]].name == main]
    if direct:
        return direct
    parts = ("linker.recognize", "linker.generate_candidates",
             "linker.subgraph_link", "linker.score_candidates")
    per_sentence: list[float] = []
    for i, span in enumerate(spans):
        if (span.name in parts and spans[span.parent].name == "pipeline.link"
                and spans[root_of[i]].name == "build"):
            if span.name == "linker.recognize":
                per_sentence.append(0.0)
            if per_sentence:
                per_sentence[-1] += span.duration
    return per_sentence


def per_layer_metrics(spans, main: str, stages, extra: dict) -> tuple[dict, list[str]]:
    """Returns ({name: (value, unit)}, names of timings that had no spans).
    ``stages`` names the pipeline stage spans, ``extra`` the run's cache
    counts."""
    selfs = self_times(spans)
    root_of = roots(spans)
    trainer_of = nearest(spans, {RE_TRAIN, EL_TRAIN})
    extract_of = nearest(spans, {"relations.extract"})
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span.name].append(i)
    missing: list[str] = []

    def phase(i):
        return spans[root_of[i]].name

    def trainer(i):
        t = trainer_of[i]
        return None if t is None else spans[t].name

    def pick(name, where=None):
        return [i for i in by_name.get(name, ()) if where is None or where(i)]

    def total(idx):
        return sum(spans[i].duration for i in idx)

    def work(idx, pos=None):
        return sum(spans[i].work if pos is None else spans[i].work[pos] for i in idx)

    def mean_ms(metric, idx, per=None):
        """Milliseconds per call, or per unit of ``per`` when given."""
        den = len(idx) if per is None else per
        if not den:
            missing.append(metric)
            return 0.0
        return 1000.0 * total(idx) / den

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    in_main = lambda i: phase(i) == main
    in_build = lambda i: phase(i) == "build"

    for stage in stages:
        idx = pick(f"pipeline.{stage}", in_build)
        if not idx:
            missing.append(f"pipeline.{stage}_s")
        m[f"pipeline.{stage}_s"] = (total(idx), "s")
    m["pipeline.stages_run"] = (extra["stages_run"], "count")
    reruns = max(len([i for i in range(len(spans))
                      if spans[i].parent is None and spans[i].name == "rerun"]), 1)
    rerun_stages = [i for i in range(len(spans)) if phase(i) == "rerun"
                    and spans[i].name.startswith("pipeline.")]
    m["pipeline.rerun_stages_run"] = (extra["rerun_stages_run"], "count")
    m["pipeline.rerun_hit_ratio"] = (extra["rerun_hit_ratio"], "ratio")
    m["pipeline.rerun_load_s"] = (
        total([i for i in rerun_stages if spans[i].name != "pipeline.evaluate"]) / reruns, "s")
    m["pipeline.rerun_evaluate_s"] = (
        total([i for i in rerun_stages if spans[i].name == "pipeline.evaluate"]) / reruns, "s")

    sgd = pick("embeddings.sgd_pairs")
    m["embeddings.node_train_s"] = (total(pick("embeddings.train_node_embeddings")), "s")
    m["embeddings.joint_train_s"] = (total(pick("embeddings.train_joint_embeddings")), "s")
    m["embeddings.sgd_pairs"] = (work(sgd), "count")
    m["embeddings.pairs_per_s"] = (ratio(work(sgd), total(sgd)), "1/s")

    rounds = pick("datagen.extract_once")
    ds = pick("datagen.distant_supervision")
    m["datagen.rounds"] = (ratio(len(rounds), len(pick("datagen.bootstrap"))), "count")
    m["datagen.round_s"] = (mean_ms("datagen.round_s", rounds) / 1000.0, "s")
    m["datagen.classifier_train_s"] = (total(pick("linker.classifier_train")), "s")
    m["datagen.kept_ratio"] = (ratio(work(rounds, 1), work(rounds, 0)), "ratio")
    m["datagen.ds_s"] = (total(ds), "s")
    m["datagen.bags"] = (work(ds), "count")

    m["linker.recognize_ms_per_sentence"] = (
        mean_ms("linker.recognize_ms_per_sentence", pick("linker.recognize", in_main)), "ms")
    m["linker.candidates_ms_per_span"] = (
        mean_ms("linker.candidates_ms_per_span",
                pick("linker.generate_candidates", in_main)), "ms")
    sub = pick("linker.subgraph_link", in_main)
    m["linker.subgraph_ms_per_sentence"] = (
        mean_ms("linker.subgraph_ms_per_sentence", sub), "ms")
    m["linker.subgraph_decided_ratio"] = (ratio(work(sub, 1), work(sub, 0)), "ratio")
    el_train = pick(EL_TRAIN)
    items = pick("linker.context_vec", lambda i: trainer(i) == EL_TRAIN and spans[i].flag)
    el_back = pick("nn.backward", lambda i: trainer(i) == EL_TRAIN)
    m["linker.context_train_items"] = (len(items), "count")
    m["linker.context_update_ratio"] = (ratio(len(el_back), len(items)), "ratio")
    m["linker.context_step_ms"] = (
        mean_ms("linker.context_step_ms", el_train, per=len(items)), "ms")
    scored = pick("linker.score_candidates", in_main)
    m["linker.context_scored_spans"] = (len(scored), "count")
    m["linker.context_score_ms_per_span"] = (
        mean_ms("linker.context_score_ms_per_span", scored), "ms")
    lat = link_latencies(spans, main, root_of)
    if not lat:
        missing.append("linker.link_ms_p50")
    m["linker.link_ms_p50"] = (1000.0 * percentile(lat, 50), "ms")
    m["linker.link_ms_p99"] = (1000.0 * percentile(lat, 99), "ms")
    m["linker.link_samples"] = (len(lat), "count")

    re_train = pick(RE_TRAIN)
    steps = pick("nn.adam_step", lambda i: trainer(i) == RE_TRAIN)
    m["relations.train_steps"] = (len(steps), "count")
    m["relations.train_step_ms"] = (
        mean_ms("relations.train_step_ms", re_train, per=len(steps)), "ms")
    is_train = lambda i: trainer(i) == RE_TRAIN and spans[i].flag
    is_predict = lambda i: in_main(i) and not spans[i].flag
    for part in ("encode_tokens", "pcnn", "cgcn", "gate", "aggregate", "head"):
        for split, where in (("train", is_train), ("predict", is_predict)):
            name = f"relations.{part}_ms.{split}"
            m[name] = (mean_ms(name, pick(f"relations.{part}", where)), "ms")
    predicts = pick("relations.predict", in_main)
    in_extract = [i for i in predicts if extract_of[i] is not None]
    m["relations.predict_bags"] = (len(predicts), "count")
    m["relations.sentences_per_bag"] = (ratio(work(predicts, 0), len(predicts)), "count")
    m["relations.predict_ms_per_bag"] = (
        mean_ms("relations.predict_ms_per_bag", predicts), "ms")
    m["relations.accept_ratio"] = (
        ratio(work(pick("relations.extract", in_main)), work(in_extract, 1)), "ratio")

    for split, where in (("train", lambda i: in_build(i) and spans[i].flag),
                         ("predict", lambda i: in_main(i) and not spans[i].flag)):
        idx = pick("nn.bilstm", where)
        name = f"nn.bilstm_ms_per_token.{split}"
        m[name] = (mean_ms(name, idx, per=work(idx)), "ms")
    m["nn.gcn_ms"] = (mean_ms("nn.gcn_ms", pick("nn.gcn")), "ms")
    for short, owner in (("re", RE_TRAIN), ("el", EL_TRAIN)):
        idx = pick("nn.backward", lambda i: trainer(i) == owner)
        m[f"nn.backward_ms.{short}"] = (mean_ms(f"nn.backward_ms.{short}", idx), "ms")
        m[f"nn.tape_nodes.{short}_step"] = (ratio(work(idx), len(idx)), "count")
    m["nn.adam_step_ms"] = (mean_ms("nn.adam_step_ms", pick("nn.adam_step")), "ms")
    m["nn.checkpoint_save_ms"] = (
        mean_ms("nn.checkpoint_save_ms", pick("nn.checkpoint_save")), "ms")
    m["nn.checkpoint_load_ms"] = (
        mean_ms("nn.checkpoint_load_ms", pick("nn.checkpoint_load")), "ms")

    ingest = pick("corpus.ingest_corpus")
    m["corpus.ingest_ms_per_sentence"] = (
        mean_ms("corpus.ingest_ms_per_sentence", ingest, per=work(ingest)), "ms")
    m["kb.load_ms"] = (mean_ms("kb.load_ms", pick("kb.load_kb")), "ms")

    for module in MODULES:
        own = sum(t for span, t in zip(spans, selfs)
                  if span.name.startswith(module + "."))
        m[f"{module}.self_s"] = (own, "s")
    return m, missing
