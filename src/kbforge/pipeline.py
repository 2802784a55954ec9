"""End-to-end orchestration with per-stage artifact caching.

Stages: ingest -> node+joint embeddings -> bootstrap -> context-linker
training -> bag generation -> relation model training -> full-corpus linking
-> extraction -> validation -> enrichment -> evaluation. Each stage hashes
its input files plus its config subsection; a matching hash with artifacts
on disk skips the work, so a config edit only invalidates downstream stages.

Everything runs single-threaded; the --threads flag is accepted and recorded
but execution stays sequential, which is what makes reruns byte-identical.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import nn
from .corpus import Sentence, Span, ingest_corpus, write_corpus
from .datagen import (
    BootstrapConfig,
    DistantSupervisionConfig,
    bootstrap_linked_corpus,
    distant_supervision,
    load_bags,
    save_bags,
    split_dataset,
    write_generation_report,
)
from .embeddings import (
    EmbeddingTable,
    SkipGramConfig,
    load_table,
    save_table,
    train_joint_embeddings,
    train_node_embeddings,
)
from .kb import KnowledgeBase, Triple, build_fact_type_templates, load_kb
from .linker import (
    ContextLinkerModel,
    ELConfig,
    GazetteerRecognizer,
    LinkDecision,
    generate_candidates,
    subgraph_link,
    train_context_linker,
)
from .metrics import (
    LinkEvalItem,
    MetricsReport,
    eval_entity_linker,
    eval_relation_extractor,
    triple_precision,
)
from .relations import (
    ExtractedTriple,
    REConfig,
    bag_instances,
    extract,
    load_model,
    save_extracted_triples,
    save_model,
    train_re,
)
from .synth import load_gold_links, load_gold_triples


class PipelineError(Exception):
    pass


class BenchmarkError(Exception):
    """Raised when the optional evaluation benchmark is absent or malformed."""


def load_benchmark(directory):
    """Load an externally published evaluation set.

    Expected layout under ``directory``: ``entities.tsv`` and ``triples.tsv``
    in the standard KB format, plus ``human_labeled.jsonl`` where each line
    holds ``{"sentence": <corpus record>, "subject": id, "relation": id,
    "object": id}``. Returns (kb, sentences, gold) with gold a list of
    (sentence_id, Triple). Missing files raise BenchmarkError with a
    "benchmark not installed" message instead of crashing.
    """
    from .corpus import sentence_from_record

    root = Path(directory)
    needed = [root / "entities.tsv", root / "triples.tsv",
              root / "human_labeled.jsonl"]
    missing = [str(p) for p in needed if not p.exists()]
    if missing:
        raise BenchmarkError(f"benchmark not installed: missing {missing}")
    try:
        kb = load_kb(needed[0], needed[1])
    except Exception as exc:
        raise BenchmarkError(f"benchmark KB unreadable: {exc}") from exc
    sentences = []
    gold = []
    with open(needed[2], encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                sentence = sentence_from_record(rec["sentence"])
                triple = Triple(rec["subject"], rec["relation"], rec["object"])
            except Exception as exc:
                raise BenchmarkError(
                    f"{needed[2]}:{lineno}: malformed record: {exc}") from exc
            sentences.append(sentence)
            gold.append((sentence.id, triple))
    return kb, sentences, gold


@dataclass
class PipelineConfig:
    entities_path: str = ""
    triples_path: str = ""
    corpus_path: str = ""
    gold_links_path: str = ""
    gold_triples_path: str = ""
    out_dir: str = "out"
    seed: int = 0
    threads: int = 1
    embeddings: SkipGramConfig = field(default_factory=SkipGramConfig)
    bootstrap: BootstrapConfig = field(default_factory=BootstrapConfig)
    el: ELConfig = field(default_factory=ELConfig)
    ds: DistantSupervisionConfig = field(default_factory=DistantSupervisionConfig)
    re: REConfig = field(default_factory=REConfig)
    split: tuple[float, float, float] = (0.8, 0.1, 0.1)

    def reseed(self) -> None:
        """Derive per-stage seeds from the global one so stages stay
        decoupled but reproducible."""
        self.embeddings.seed = self.seed + 1
        self.bootstrap.seed = self.seed + 3
        self.el.seed = self.seed + 4
        self.ds.seed = self.seed + 5
        self.re.seed = self.seed + 7


def _apply_section(obj, section) -> None:
    for key in section:
        if not hasattr(obj, key):
            raise PipelineError(f"unknown config key {key!r} for {type(obj).__name__}")
        current = getattr(obj, key)
        raw = section[key]
        if isinstance(current, bool):
            value = raw.strip().lower() in ("1", "true", "yes", "on")
        elif isinstance(current, int):
            value = int(raw)
        elif isinstance(current, float):
            value = float(raw)
        else:
            value = raw
        setattr(obj, key, value)


def load_config(path=None, seed=None, out_dir=None, threads=None) -> PipelineConfig:
    cfg = PipelineConfig()
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise PipelineError(f"config file {path} not found")
        if parser.has_section("paths"):
            p = parser["paths"]
            cfg.entities_path = p.get("entities", cfg.entities_path)
            cfg.triples_path = p.get("triples", cfg.triples_path)
            cfg.corpus_path = p.get("corpus", cfg.corpus_path)
            cfg.gold_links_path = p.get("gold_links", cfg.gold_links_path)
            cfg.gold_triples_path = p.get("gold_triples", cfg.gold_triples_path)
            cfg.out_dir = p.get("out_dir", cfg.out_dir)
        if parser.has_section("pipeline"):
            s = parser["pipeline"]
            cfg.seed = s.getint("seed", cfg.seed)
            cfg.threads = s.getint("threads", cfg.threads)
        for name, sub in (("embeddings", cfg.embeddings), ("bootstrap", cfg.bootstrap),
                          ("el", cfg.el), ("ds", cfg.ds), ("re", cfg.re)):
            if parser.has_section(name):
                _apply_section(sub, parser[name])
        if parser.has_section("split"):
            s = parser["split"]
            cfg.split = (s.getfloat("train", 0.8), s.getfloat("valid", 0.1),
                         s.getfloat("test", 0.1))
    if seed is not None:
        cfg.seed = seed
    if out_dir is not None:
        cfg.out_dir = out_dir
    if threads is not None:
        cfg.threads = threads
    cfg.reseed()
    return cfg


def _hash_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _cfg_digest(obj) -> str:
    if dataclasses.is_dataclass(obj):
        obj = dataclasses.asdict(obj)
    return json.dumps(obj, sort_keys=True, default=str)


class PipelineRunner:
    """Owns the artifact directory and the stage graph. Stage methods are
    idempotent: they return cached results when inputs and config are
    unchanged."""

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        self.out = Path(cfg.out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self._manifest_path = self.out / "cache.json"
        self._manifest = {}
        if self._manifest_path.exists():
            self._manifest = json.loads(self._manifest_path.read_text())
        self._mem: dict[str, object] = {}
        self.stage_ran: dict[str, bool] = {}

    # -- cache plumbing -------------------------------------------------------

    def _key(self, input_files, subcfg) -> str:
        h = hashlib.sha256()
        for f in input_files:
            h.update(_hash_file(f).encode())
        h.update(_cfg_digest(subcfg).encode())
        h.update(str(self.cfg.seed).encode())
        return h.hexdigest()

    def _fresh(self, stage: str, key: str, outputs) -> bool:
        entry = self._manifest.get(stage)
        return (entry is not None and entry.get("key") == key
                and all(Path(p).exists() for p in outputs))

    def _record(self, stage: str, key: str, outputs) -> None:
        self._manifest[stage] = {"key": key, "outputs": [str(p) for p in outputs]}
        self._manifest_path.write_text(json.dumps(self._manifest, sort_keys=True,
                                                  indent=2) + "\n")

    def _run_stage(self, stage: str, input_files, subcfg, outputs, builder):
        key = self._key(input_files, subcfg)
        if self._fresh(stage, key, outputs):
            # a repeat ensure-call must not erase this session's "ran" flag
            self.stage_ran.setdefault(stage, False)
            return
        try:
            builder()
        except Exception as exc:
            raise PipelineError(f"stage {stage}: {exc}") from exc
        missing = [str(p) for p in outputs if not Path(p).exists()]
        if missing:
            raise PipelineError(f"stage {stage} did not produce {missing}")
        self._record(stage, key, outputs)
        self.stage_ran[stage] = True

    # -- stages ---------------------------------------------------------------

    def kb(self) -> KnowledgeBase:
        if "kb" not in self._mem:
            if not self.cfg.entities_path or not self.cfg.triples_path:
                raise PipelineError("config lacks [paths] entities/triples")
            self._mem["kb"] = load_kb(self.cfg.entities_path, self.cfg.triples_path)
        return self._mem["kb"]

    def corpus(self) -> list[Sentence]:
        if "corpus" not in self._mem:
            if not self.cfg.corpus_path:
                raise PipelineError("config lacks [paths] corpus")
            self._mem["corpus"] = ingest_corpus(self.cfg.corpus_path)
        return self._mem["corpus"]

    def _kb_inputs(self):
        return [self.cfg.entities_path, self.cfg.triples_path]

    def embeddings(self) -> EmbeddingTable:
        """Node vectors from KB neighborhoods, then joint word+entity
        training over a provisional sub-graph-linked pass of the corpus
        (sub-graph decisions never depend on vectors, so this is sound)."""
        out_path = self.out / "embeddings.vec"

        def build():
            kb = self.kb()
            node = train_node_embeddings(kb, self.cfg.embeddings)
            provisional: list[Sentence] = []
            recognizer = GazetteerRecognizer(kb)
            for sentence in self.corpus():
                spans = recognizer.recognize(sentence)
                cands = [c for c in (generate_candidates(sp, kb, None, 0)
                                     for sp in spans) if c is not None]
                linked = []
                for cand, decision in zip(cands, subgraph_link(cands, kb)):
                    if decision is not None:
                        sp = cand.span
                        linked.append(Span(sp.start, sp.end, sp.surface,
                                           kb.entity_type(decision.entity),
                                           decision.entity, "subgraph"))
                provisional.append(Sentence(sentence.id, sentence.tokens, linked))
            table = train_joint_embeddings(provisional, kb, node, self.cfg.embeddings)
            save_table(table, out_path)

        self._run_stage("embeddings", self._kb_inputs() + [self.cfg.corpus_path],
                        self.cfg.embeddings, [out_path], build)
        if "table" not in self._mem:
            self._mem["table"] = load_table(out_path)
        return self._mem["table"]

    def bootstrap(self) -> tuple[list[Sentence], list]:
        linked_path = self.out / "linked.jsonl"
        report_path = self.out / "rounds.json"
        self.embeddings()

        def build():
            corpus, rounds = bootstrap_linked_corpus(
                self.corpus(), self.kb(), self.embeddings(), self.cfg.bootstrap)
            write_corpus(corpus, linked_path)
            write_generation_report(rounds, report_path)

        self._run_stage("bootstrap",
                        self._kb_inputs() + [self.cfg.corpus_path,
                                             self.out / "embeddings.vec"],
                        self.cfg.bootstrap, [linked_path, report_path], build)
        if "bootstrap" not in self._mem:
            rounds = json.loads(report_path.read_text())["rounds"]
            self._mem["bootstrap"] = (ingest_corpus(linked_path), rounds)
        return self._mem["bootstrap"]

    def el_model(self) -> ContextLinkerModel:
        ckpt = self.out / "el.ckpt"
        self.bootstrap()

        def build():
            linked, _ = self.bootstrap()
            model = train_context_linker(linked, self.kb(), self.embeddings(),
                                         self.cfg.el)
            nn.save_checkpoint(ckpt, model.parameters(), {"trained": True})

        self._run_stage("el", [self.out / "linked.jsonl", self.out / "embeddings.vec"]
                        + self._kb_inputs(), self.cfg.el, [ckpt], build)
        if "el_model" not in self._mem:
            model = ContextLinkerModel(self.embeddings(), self.cfg.el)
            meta, tensors = nn.load_checkpoint(ckpt)
            nn.restore_parameters(model.parameters(), tensors)
            model.trained = bool(meta["trained"])
            self._mem["el_model"] = model
        return self._mem["el_model"]

    def bags(self):
        paths = {name: self.out / f"bags_{name}.jsonl"
                 for name in ("all", "train", "valid", "test")}
        self.bootstrap()

        def build():
            linked, _ = self.bootstrap()
            all_bags = distant_supervision(linked, self.kb(), self.cfg.ds)
            train, valid, test = split_dataset(all_bags, self.cfg.split,
                                               self.cfg.ds.seed + 1)
            for name, subset in (("all", all_bags), ("train", train),
                                 ("valid", valid), ("test", test)):
                save_bags(subset, paths[name])

        self._run_stage("bags", [self.out / "linked.jsonl"] + self._kb_inputs(),
                        {"ds": dataclasses.asdict(self.cfg.ds),
                         "split": list(self.cfg.split)},
                        list(paths.values()), build)
        if "bags" not in self._mem:
            self._mem["bags"] = {name: load_bags(p) for name, p in paths.items()}
        return self._mem["bags"]

    def re_model(self):
        ckpt = self.out / "re.ckpt"
        self.bags()

        def build():
            linked, _ = self.bootstrap()
            sentences_by_id = {s.id: s for s in linked}
            model = train_re(self.bags()["train"], sentences_by_id, self.kb(),
                             self.cfg.re)
            save_model(model, ckpt)

        self._run_stage("re", [self.out / "bags_train.jsonl",
                               self.out / "linked.jsonl"] + self._kb_inputs(),
                        self.cfg.re, [ckpt], build)
        if "re_model" not in self._mem:
            self._mem["re_model"] = load_model(ckpt)
        return self._mem["re_model"]

    def link_corpus(self):
        """Link the whole corpus with both steps; also emit the per-span
        evaluation records (method, decision, candidate ranking)."""
        linked_path = self.out / "final_linked.jsonl"
        eval_path = self.out / "link_eval.jsonl"
        self.el_model()

        def build():
            kb = self.kb()
            table = self.embeddings()
            model = self.el_model()
            recognizer = GazetteerRecognizer(kb)
            out_sentences = []
            records = []
            for sentence in self.corpus():
                spans = recognizer.recognize(sentence)
                cands = [c for c in (generate_candidates(sp, kb, table,
                                                         self.cfg.el.knn_k)
                                     for sp in spans) if c is not None]
                decisions = subgraph_link(cands, kb, self.cfg.bootstrap.count_multiplicity)
                linked_spans = []
                for cand, decision in zip(cands, decisions):
                    sp = cand.span
                    if decision is not None:
                        ranking = ()
                    else:
                        scores = model.score_candidates(sentence, sp, cand.entities)
                        ranked = sorted(zip(cand.entities, scores),
                                        key=lambda p: (-p[1], p[0]))
                        ranking = tuple(e for e, _ in ranked)
                        decision = LinkDecision(sp, ranked[0][0], "context",
                                                ranked[0][1])
                    linked_spans.append(Span(sp.start, sp.end, sp.surface,
                                             kb.entity_type(decision.entity),
                                             decision.entity, decision.method))
                    records.append({"sentence": sentence.id, "start": sp.start,
                                    "end": sp.end, "method": decision.method,
                                    "entity": decision.entity,
                                    "ranking": list(ranking)})
                out_sentences.append(Sentence(sentence.id, sentence.tokens,
                                              linked_spans))
            write_corpus(out_sentences, linked_path)
            with open(eval_path, "w", encoding="utf-8") as fh:
                for rec in records:
                    fh.write(json.dumps(rec, sort_keys=True) + "\n")

        self._run_stage("link", [self.cfg.corpus_path, self.out / "embeddings.vec",
                                 self.out / "el.ckpt"] + self._kb_inputs(),
                        {"el": dataclasses.asdict(self.cfg.el),
                         "count_multiplicity": self.cfg.bootstrap.count_multiplicity},
                        [linked_path, eval_path], build)
        if "final_linked" not in self._mem:
            items = []
            with open(eval_path, encoding="utf-8") as fh:
                for line in fh:
                    rec = json.loads(line)
                    items.append(LinkEvalItem(sys.intern(rec["sentence"]), rec["start"],
                                              rec["end"], sys.intern(rec["method"]),
                                              sys.intern(rec["entity"]),
                                              tuple(map(sys.intern, rec["ranking"]))))
            self._mem["final_linked"] = (ingest_corpus(linked_path), items)
        return self._mem["final_linked"]

    def extracted(self):
        triples_path = self.out / "extracted.tsv"
        rejected_path = self.out / "rejected.tsv"
        self.link_corpus()
        self.re_model()

        def build():
            corpus, _ = self.link_corpus()
            rejected = []
            accepted = extract(corpus, self.kb(), self.re_model(),
                               rejected_log=rejected)
            save_extracted_triples(accepted, triples_path)
            with open(rejected_path, "w", encoding="utf-8") as fh:
                for t, reason in rejected:
                    fh.write(f"{t.subject}\t{t.relation}\t{t.object}\t{reason}\n")

        self._run_stage("extract", [self.out / "final_linked.jsonl",
                                    self.out / "re.ckpt"] + self._kb_inputs(),
                        {}, [triples_path, rejected_path], build)
        if "extracted" not in self._mem:
            accepted = []
            with open(triples_path, encoding="utf-8") as fh:
                for line in fh:
                    s, r, o, conf, sids = line.rstrip("\n").split("\t")
                    accepted.append(ExtractedTriple(
                        sys.intern(s), sys.intern(r), sys.intern(o), float(conf),
                        tuple(map(sys.intern, sids.split(","))) if sids else ()))
            rejected = []
            with open(rejected_path, encoding="utf-8") as fh:
                for line in fh:
                    s, r, o, reason = line.rstrip("\n").split("\t")
                    rejected.append((Triple(s, r, o), reason))
            self._mem["extracted"] = (accepted, rejected)
        return self._mem["extracted"]

    def enriched(self):
        path = self.out / "enriched_triples.tsv"
        added_path = self.out / "enriched_added.tsv"
        self.extracted()

        def build():
            kb = load_kb(self.cfg.entities_path, self.cfg.triples_path)
            accepted, _ = self.extracted()
            by_triple = {}
            for t in accepted:
                if t.triple() not in kb and t.subject != t.object:
                    prev = by_triple.get(t.triple())
                    sids = set(t.sentence_ids) | (set(prev) if prev else set())
                    by_triple[t.triple()] = tuple(sorted(sids))
            added = kb.add_triples(sorted(by_triple))
            self._mem["enriched_added"] = added
            with open(path, "w", encoding="utf-8") as fh:
                for t in kb.iter_triples():
                    fh.write(f"{t.subject}\t{t.relation}\t{t.object}\n")
            with open(added_path, "w", encoding="utf-8") as fh:
                for t in sorted(by_triple):
                    sids = ",".join(by_triple[t])
                    fh.write(f"{t.subject}\t{t.relation}\t{t.object}\t{sids}\n")

        self._run_stage("enrich", [self.out / "extracted.tsv"] + self._kb_inputs(),
                        {}, [path, added_path], build)
        if "enriched_added" not in self._mem:
            base = self.kb().triple_count
            with open(path, encoding="utf-8") as fh:
                total = sum(1 for line in fh if line.strip())
            self._mem["enriched_added"] = total - base
        return self._mem["enriched_added"]

    def evaluate(self) -> MetricsReport:
        metrics_path = self.out / "metrics.json"
        corpus, items = self.link_corpus()
        _, rounds = self.bootstrap()
        report = MetricsReport()
        report.rounds = rounds

        if self.cfg.gold_links_path:
            gold = load_gold_links(self.cfg.gold_links_path)
            report.el = eval_entity_linker(items, gold)

        model = self.re_model()
        test = self.bags()["test"]
        linked, _ = self.bootstrap()
        sentences_by_id = {s.id: s for s in linked}
        if test:
            predictions = [model.predict(bag_instances(bag, sentences_by_id))[1]
                           for bag in test]
            report.re = eval_relation_extractor(predictions,
                                                 [set(b.labels) for b in test])

        accepted, rejected = self.extracted()
        truth = {(t.subject, t.relation, t.object) for t in self.kb().iter_triples()}
        if self.cfg.gold_triples_path:
            truth |= load_gold_triples(self.cfg.gold_triples_path)
        report.triple_precision = triple_precision(
            [(t.subject, t.relation, t.object) for t in accepted], truth)

        report.counts = {
            "sentences": len(self.corpus()),
            "kb_entities": len(self.kb().entities),
            "kb_triples": self.kb().triple_count,
            "bootstrap_sentences": len(linked),
            "bags_total": len(self.bags()["all"]),
            "bags_train": len(self.bags()["train"]),
            "bags_valid": len(self.bags()["valid"]),
            "bags_test": len(self.bags()["test"]),
            "linked_spans": len(items),
            "extracted_accepted": len(accepted),
            "extracted_rejected": len(rejected),
            "enriched_added": self.enriched(),
        }
        metrics_path.write_text(report.to_json())
        return report


def run_pipeline(cfg: PipelineConfig) -> MetricsReport:
    return PipelineRunner(cfg).evaluate()
