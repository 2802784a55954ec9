"""End-to-end orchestration with per-stage artifact caching.

Stages: ingest -> node+joint embeddings -> bootstrap -> context-linker
training -> bag generation -> relation model training -> full-corpus linking
-> extraction -> validation -> enrichment -> evaluation. ``STAGES`` declares
each stage's input files, config slice and outputs. A stage hashes its input
files, its config slice and the code (``code_digest``); a matching hash,
with every output still holding the sha256 recorded when it was built,
skips the work, so a config edit only invalidates downstream stages, and a
code change invalidates every stage.
"""

from __future__ import annotations

import configparser
import dataclasses
import functools
import hashlib
import json
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import linker, relations
from .bounds import bounded, check_bounds
from .corpus import CorpusError, Sentence, ingest_corpus, sentence_from_record, write_corpus
from .datagen import (
    Bag,
    BootstrapConfig,
    DistantSupervisionConfig,
    bootstrap_linked_corpus,
    distant_supervision,
    gazetteer_linked,
    load_bags,
    load_generation_report,
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
from .files import hash_file as _hash_file
from .files import (
    hash_tree,
    json_int,
    json_list,
    read_json,
    read_jsonl,
    read_rows,
    remove_stale_temporaries,
    write_json,
    write_jsonl,
    write_rows,
)
from .kb import KnowledgeBase, Triple, load_kb, save_triples
from .linker import (
    ContextLinkerModel,
    ELConfig,
    GazetteerRecognizer,
    link_sentences,
    train_context_linker,
)
# unused here, but bench/test_bench.py patches it at this import site
from .linker import subgraph_link  # noqa: F401
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
    REModel,
    bag_instances,
    extract,
    load_extraction,
    save_extraction,
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

    def record(rec: dict) -> tuple[Sentence, Triple]:
        try:
            sentence = sentence_from_record(rec["sentence"])
        except CorpusError as exc:
            raise BenchmarkError(f"malformed record: {exc}") from exc
        return sentence, Triple(rec["subject"], rec["relation"], rec["object"])

    records = read_jsonl(needed[2], record, BenchmarkError)
    return kb, [s for s, _ in records], [(s.id, t) for s, t in records]


@dataclass
class PipelineConfig:
    entities_path: str = ""
    triples_path: str = ""
    corpus_path: str = ""
    gold_links_path: str = ""
    gold_triples_path: str = ""
    out_dir: str = "out"
    seed: int = bounded(0, lo=0)
    embeddings: SkipGramConfig = field(default_factory=SkipGramConfig)
    bootstrap: BootstrapConfig = field(default_factory=BootstrapConfig)
    el: ELConfig = field(default_factory=ELConfig)
    ds: DistantSupervisionConfig = field(default_factory=DistantSupervisionConfig)
    re: REConfig = field(default_factory=REConfig)

    __post_init__ = check_bounds


def _number(section, key: str, default):
    """``section[key]`` as a number of ``default``'s type (int or float);
    ``default`` when the key is absent."""
    if key not in section:
        return default
    try:
        return type(default)(section[key])
    except ValueError:
        raise PipelineError(f"[{section.name}] {key} = {section[key]!r} is not "
                            f"{'an integer' if type(default) is int else 'a number'}") from None


def _apply_section(obj, section):
    """``obj`` with the section's values, built by the dataclass constructor
    so that its checks run. Every config dataclass field is an int or a
    float."""
    _check_keys(section, [f.name for f in dataclasses.fields(obj)])
    return dataclasses.replace(obj, **{key: _number(section, key, getattr(obj, key))
                                       for key in section})


def _check_keys(section, allowed) -> None:
    for key in section:
        if key not in allowed:
            raise PipelineError(f"unknown config key {key!r} in [{section.name}]")


def load_config(path=None, seed=None, out_dir=None) -> PipelineConfig:
    """The config an INI file sets, or the defaults; ``seed`` and ``out_dir``
    replace its ``[pipeline] seed`` and ``[paths] out_dir``."""
    # values are taken literally, so a path may hold a '%'; no header can
    # name the default section "", so a [DEFAULT] is unknown like any other
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    if path is not None:
        try:
            read = parser.read(path, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as exc:
            detail = str(exc).replace("\n", " ")
            raise PipelineError(f"config file {path}: {detail}") from None
        if not read:
            raise PipelineError(f"config file {path} not found")
    parser.read_dict({"pipeline": {} if seed is None else {"seed": str(seed)},
                      "paths": {} if out_dir is None else {"out_dir": out_dir}})
    cfg = PipelineConfig()
    for name in parser.sections():
        s = parser[name]
        try:
            if name == "paths":
                _check_keys(s, SOURCES + ("out_dir",))
                for key, value in s.items():
                    setattr(cfg, key if key == "out_dir" else f"{key}_path", value)
            elif name == "pipeline":
                # threads sets nothing; it is accepted, as an integer, because
                # bench/run.py's config template still sets it
                _check_keys(s, ("seed", "threads"))
                _number(s, "threads", 0)
                cfg.seed = _number(s, "seed", cfg.seed)
                check_bounds(cfg)
            elif name in ("embeddings", "bootstrap", "el", "ds", "re"):
                if "seed" in s:
                    raise PipelineError(f"[{name}] seed is derived from [pipeline] seed; "
                                        "set that instead")
                setattr(cfg, name, _apply_section(getattr(cfg, name), s))
            else:
                raise PipelineError(f"unknown config section [{name}]")
        except ValueError as exc:
            raise PipelineError(f"[{name}] {exc}") from None
    # per-stage seeds derive from the global one, so stages stay decoupled
    # but reproducible
    for name, offset in (("embeddings", 1), ("bootstrap", 3), ("el", 4), ("ds", 5), ("re", 7)):
        getattr(cfg, name).seed = cfg.seed + offset
    return cfg


@functools.cache
def code_digest() -> str:
    """sha256 of the numpy version and of every module of the kbforge
    package, computed once per process. Every stage key folds it in, so
    artifacts built by other code are never reused."""
    source = hash_tree(Path(__file__).resolve().parent, "*.py")
    return hashlib.sha256(f"numpy {np.__version__}\0{source}".encode()).hexdigest()


def _cfg_digest(obj) -> str:
    if dataclasses.is_dataclass(obj):
        obj = dataclasses.asdict(obj)
    return json.dumps(obj, sort_keys=True, default=str)


# -- stage builders and loaders ------------------------------------------------
# A builder writes its stage's output files; a loader reads them back into
# what the runner's accessor returns. Both take the runner and the output
# paths in the order the stage table declares them.


def _build_embeddings(r: PipelineRunner, vec) -> None:
    """Node vectors from KB neighborhoods, then joint word+entity training
    over the corpus as the gazetteer sub-graph pass links it (sub-graph
    decisions never depend on vectors, so this is sound)."""
    kb = r.kb()
    node = train_node_embeddings(kb, r.cfg.embeddings)
    save_table(train_joint_embeddings(gazetteer_linked(r.corpus(), kb), kb, node,
                                      r.cfg.embeddings), vec)


def _build_bootstrap(r: PipelineRunner, linked, report) -> None:
    corpus, rounds = bootstrap_linked_corpus(r.corpus(), r.kb(), r.embeddings(),
                                             r.cfg.bootstrap)
    write_corpus(corpus, linked)
    write_generation_report(rounds, report)


def _build_el(r: PipelineRunner, ckpt) -> None:
    linker.save_model(train_context_linker(r.bootstrap()[0], r.kb(), r.embeddings(),
                                           r.cfg.el), ckpt)


BAG_SPLITS = ("all", "train", "valid", "test")


def _build_bags(r: PipelineRunner, *paths) -> None:
    all_bags = distant_supervision(r.bootstrap()[0], r.kb(), r.cfg.ds)
    splits = (all_bags,) + split_dataset(all_bags, r.cfg.ds)
    for subset, path in zip(splits, paths):
        save_bags(subset, path)


def _load_bags(r: PipelineRunner, *paths) -> dict[str, list[Bag]]:
    """Every split's bags; a train, valid or test bag is the equal bag of
    ``all`` (a Bag is frozen), so the splits hold no second copy."""
    all_bags = load_bags(paths[0])
    same = {bag: bag for bag in all_bags}
    return {"all": all_bags, **{name: [same.get(bag, bag) for bag in load_bags(path)]
                                for name, path in zip(BAG_SPLITS[1:], paths[1:])}}


def _build_re(r: PipelineRunner, ckpt) -> None:
    sentences_by_id = {s.id: s for s in r.bootstrap()[0]}
    relations.save_model(train_re(r.bags()["train"], sentences_by_id, r.kb(), r.cfg.re), ckpt)


def _build_link(r: PipelineRunner, linked, evals) -> None:
    """Link the whole corpus with both steps; also emit the per-span
    evaluation records (method, decision, candidate ranking)."""
    kb, corpus = r.kb(), r.corpus()
    decisions = link_sentences(corpus, kb, GazetteerRecognizer(kb), r.embeddings(),
                               r.cfg.el.knn_k, r.el_model())
    write_corpus([Sentence(s.id, s.tokens, [d.span for d in ds])
                  for s, ds in zip(corpus, decisions)], linked)
    write_jsonl(evals, ({"sentence": s.id, "start": d.span.start, "end": d.span.end,
                         "method": d.method, "entity": d.entity, "ranking": list(d.ranking)}
                        for s, ds in zip(corpus, decisions) for d in ds))


def _ingest_linked(r: PipelineRunner, path) -> list[Sentence]:
    """A linked copy of the input corpus, loaded onto it: each sentence
    that repeats its input sentence's tokens shares their list."""
    return ingest_corpus(path, {s.id: s for s in r.corpus()})


def _link_eval_item(rec: dict) -> LinkEvalItem:
    return LinkEvalItem(sys.intern(rec["sentence"]), json_int(rec["start"]),
                        json_int(rec["end"]), sys.intern(rec["method"]),
                        sys.intern(rec["entity"]),
                        tuple(map(sys.intern, json_list(rec["ranking"]))))


def _build_extract(r: PipelineRunner, accepted_path, rejected_path) -> None:
    rejected = []
    accepted = extract(r.link_corpus()[0], r.kb(), r.re_model(), rejected_log=rejected)
    save_extraction(accepted, rejected, accepted_path, rejected_path)


def _build_enrich(r: PipelineRunner, path, added_path) -> None:
    """A new KB: the runner's plus the accepted triples it lacks, checked as any KB's."""
    kb = r.kb()
    added = sorted((t for t in r.extracted()[0] if t.triple() not in kb),
                   key=ExtractedTriple.triple)
    save_triples(KnowledgeBase(kb.entities.values(),
                               [*kb.iter_triples(), *(t.triple() for t in added)]), path)
    write_rows(added_path, ((t.subject, t.relation, t.object, ",".join(sorted(t.sentence_ids)))
                            for t in added))


def _load_enrich(r: PipelineRunner, path, added_path) -> int:
    """The rows of ``added_path``, as many as ``path`` holds beyond the KB."""
    added = len(read_rows(added_path, 4, PipelineError))
    if added != len(read_rows(path, 3, PipelineError)) - r.kb().triple_count:
        raise PipelineError(f"{added_path}: {added} rows, not the KB's new triples in {path}")
    return added


def _build_evaluate(r: PipelineRunner, metrics_path) -> None:
    _, items = r.link_corpus()
    linked, rounds = r.bootstrap()
    report = MetricsReport(rounds=rounds)

    if r.cfg.gold_links_path:
        report.el = eval_entity_linker(items, load_gold_links(r.cfg.gold_links_path))

    model = r.re_model()
    bags = r.bags()
    sentences_by_id = {s.id: s for s in linked}
    if bags["test"]:
        predictions = [model.predict(bag_instances(bag, sentences_by_id))[1]
                       for bag in bags["test"]]
        report.re = eval_relation_extractor(predictions,
                                             [set(b.labels) for b in bags["test"]])

    accepted, rejected = r.extracted()
    kb = r.kb()
    truth = {(t.subject, t.relation, t.object) for t in kb.iter_triples()}
    if r.cfg.gold_triples_path:
        truth |= load_gold_triples(r.cfg.gold_triples_path)
    report.triple_precision = triple_precision(
        [(t.subject, t.relation, t.object) for t in accepted], truth)

    report.counts = {
        "sentences": len(r.corpus()),
        "kb_entities": len(kb.entities),
        "kb_triples": kb.triple_count,
        "bootstrap_sentences": len(linked),
        "bags_total": len(bags["all"]),
        "bags_train": len(bags["train"]),
        "bags_valid": len(bags["valid"]),
        "bags_test": len(bags["test"]),
        "linked_spans": len(items),
        "extracted_accepted": len(accepted),
        "extracted_rejected": len(rejected),
        "enriched_added": r.enriched(),
    }
    write_json(metrics_path, report.to_dict())


@dataclass(frozen=True)
class Stage:
    """One cached stage. ``inputs`` are source names (see ``SOURCES``) or
    artifact names in the out dir; each artifact input makes the stage that
    outputs it upstream of this one. The cache key hashes the inputs in the
    order given, then ``config(cfg)``, the global seed and ``code_digest()``."""
    name: str
    inputs: tuple[str, ...]
    config: Callable[[PipelineConfig], object]
    outputs: tuple[str, ...]
    build: Callable[..., None]
    load: Callable[..., object]


# input files named by the config rather than by the out dir
SOURCES = ("entities", "triples", "corpus", "gold_links", "gold_triples")
_KB = ("entities", "triples")
_BAGS = tuple(f"bags_{name}.jsonl" for name in BAG_SPLITS)

STAGES = {stage.name: stage for stage in (
    Stage("embeddings", _KB + ("corpus",), lambda c: c.embeddings,
          ("embeddings.vec",), _build_embeddings, lambda r, vec: load_table(vec)),
    Stage("bootstrap", _KB + ("corpus", "embeddings.vec"), lambda c: c.bootstrap,
          ("linked.jsonl", "rounds.json"), _build_bootstrap,
          lambda r, linked, report: (_ingest_linked(r, linked),
                                     load_generation_report(report))),
    Stage("el", ("linked.jsonl", "embeddings.vec") + _KB, lambda c: c.el,
          ("el.ckpt",), _build_el,
          lambda r, ckpt: linker.load_model(ckpt, r.embeddings(), r.cfg.el)),
    Stage("bags", ("linked.jsonl",) + _KB, lambda c: c.ds, _BAGS, _build_bags, _load_bags),
    Stage("re", ("bags_train.jsonl", "linked.jsonl") + _KB, lambda c: c.re,
          ("re.ckpt",), _build_re, lambda r, ckpt: relations.load_model(ckpt)),
    Stage("link", ("corpus", "embeddings.vec", "el.ckpt") + _KB, lambda c: c.el,
          ("final_linked.jsonl", "link_eval.jsonl"), _build_link,
          lambda r, linked, evals: (_ingest_linked(r, linked),
                                    read_jsonl(evals, _link_eval_item, PipelineError))),
    Stage("extract", ("final_linked.jsonl", "re.ckpt") + _KB, lambda c: {},
          ("extracted.tsv", "rejected.tsv"), _build_extract, lambda r, *p: load_extraction(*p)),
    Stage("enrich", ("extracted.tsv",) + _KB, lambda c: {},
          ("enriched_triples.tsv", "enriched_added.tsv"), _build_enrich, _load_enrich),
    Stage("evaluate",
          ("final_linked.jsonl", "link_eval.jsonl", "linked.jsonl", "rounds.json",
           "re.ckpt") + _BAGS + ("extracted.tsv", "rejected.tsv", "enriched_triples.tsv")
          + _KB + ("corpus", "gold_links", "gold_triples"),
          lambda c: {}, ("metrics.json",), _build_evaluate,
          lambda r, path: read_json(path, PipelineError, MetricsReport.from_dict)),
)}
PRODUCER = {out: stage.name for stage in STAGES.values() for out in stage.outputs}


class PipelineRunner:
    """Owns the artifact directory and ensures the stages of ``STAGES``:
    each accessor returns its stage's loaded outputs, building them first
    (upstream stages included) unless the cache holds them for the same
    inputs and config. A runner ensures each stage at most once, and loads
    a stage's outputs once: after building them, or when its accessor is
    called."""

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        self.out = Path(cfg.out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self._manifest_path = self.out / "cache.json"
        self._manifest = {}
        if self._manifest_path.exists():
            # stage -> {"key", "sha256": {output file name: sha256}}; other
            # fields are ignored
            self._manifest = read_json(self._manifest_path, PipelineError,
                                       lambda doc: {k: dict(v) for k, v in doc.items()})
        self._mem: dict[str, object] = {}
        # file -> sha256, hashed once per runner: a stage's outputs when it
        # is checked against the cache, and again after it is built
        self._hashes: dict[object, str] = {}
        # stage -> whether this runner built it (False: cache hit)
        self.stage_ran: dict[str, bool] = {}

    # -- cache plumbing -------------------------------------------------------

    def _key(self, stage: Stage) -> str:
        h = hashlib.sha256()
        for name in stage.inputs:
            f = getattr(self.cfg, f"{name}_path") if name in SOURCES else self.out / name
            if f and f not in self._hashes and not Path(f).exists():
                raise PipelineError(f"stage {stage.name}: input {name} not found: {f}")
            # an optional source left unconfigured hashes as a marker
            h.update(self._hash(f).encode() if f else b"-")
        h.update(_cfg_digest(stage.config(self.cfg)).encode())
        h.update(str(self.cfg.seed).encode())
        h.update(code_digest().encode())
        return h.hexdigest()

    def _hash(self, path) -> str:
        if path not in self._hashes:
            self._hashes[path] = _hash_file(path)
        return self._hashes[path]

    def _fresh(self, stage: str, key: str, outputs) -> bool:
        """Whether the cache holds ``key`` for the stage, and each output
        still has the sha256 recorded for it."""
        entry = self._manifest.get(stage)
        if entry is None or entry.get("key") != key:
            return False
        recorded = entry.get("sha256")
        return isinstance(recorded, dict) and all(
            p.exists() and recorded.get(p.name) == self._hash(p) for p in outputs)

    def _record(self, stage: str, key: str, outputs) -> None:
        # outputs are named by file, not path, so the manifest does not
        # depend on where the out dir lives
        for p in outputs:
            self._hashes[p] = _hash_file(p)
        self._manifest[stage] = {"key": key,
                                 "sha256": {p.name: self._hashes[p] for p in outputs}}
        write_json(self._manifest_path, self._manifest)

    def _ensure(self, name: str) -> None:
        """Ensure stage ``name``: first every stage that outputs one of its
        inputs, then this one, which builds unless the cache holds its key
        and the outputs it recorded. A cache hit loads nothing. A build
        first removes what killed builds left of its outputs and of the
        manifest. It is recorded only after its outputs load, through the
        memo the stage's accessor reads, so a build loads nothing twice and
        an output its loader rejects fails the stage unrecorded."""
        if name in self.stage_ran:
            return
        stage = STAGES[name]
        for upstream in dict.fromkeys(PRODUCER[i] for i in stage.inputs if i in PRODUCER):
            self._ensure(upstream)
        outputs = [self.out / o for o in stage.outputs]
        key = self._key(stage)
        if self._fresh(name, key, outputs):
            self.stage_ran[name] = False
            return
        remove_stale_temporaries(self.out, {*stage.outputs, self._manifest_path.name})
        try:
            stage.build(self, *outputs)
        except Exception as exc:
            raise PipelineError(f"stage {name}: {exc}") from exc
        missing = [str(p) for p in outputs if not p.exists()]
        if missing:
            raise PipelineError(f"stage {name} did not produce {missing}")
        self._load(name)
        self._record(name, key, outputs)
        self.stage_ran[name] = True

    def _memo(self, what: str, load, *args):
        """``load(*args)``, once per runner; any error it raises becomes a
        PipelineError that names ``what``."""
        if what not in self._mem:
            try:
                self._mem[what] = load(*args)
            except Exception as exc:
                raise PipelineError(f"{what}: {exc}") from exc
        return self._mem[what]

    def _load(self, name: str):
        stage = STAGES[name]
        return self._memo(f"stage {name}", stage.load, self,
                          *(self.out / o for o in stage.outputs))

    def _loaded(self, name: str):
        """The loaded outputs of stage ``name``, ensured first."""
        self._ensure(name)
        return self._load(name)

    # -- accessors ------------------------------------------------------------

    def kb(self) -> KnowledgeBase:
        if not self.cfg.entities_path or not self.cfg.triples_path:
            raise PipelineError("config lacks [paths] entities/triples")
        return self._memo("input kb", load_kb, self.cfg.entities_path, self.cfg.triples_path)

    def corpus(self) -> list[Sentence]:
        if not self.cfg.corpus_path:
            raise PipelineError("config lacks [paths] corpus")
        return self._memo("input corpus", ingest_corpus, self.cfg.corpus_path)

    def embeddings(self) -> EmbeddingTable:
        return self._loaded("embeddings")

    def bootstrap(self) -> tuple[list[Sentence], list]:
        return self._loaded("bootstrap")

    def el_model(self) -> ContextLinkerModel:
        return self._loaded("el")

    def bags(self) -> dict[str, list[Bag]]:
        return self._loaded("bags")

    def re_model(self) -> REModel:
        return self._loaded("re")

    def link_corpus(self) -> tuple[list[Sentence], list[LinkEvalItem]]:
        return self._loaded("link")

    def extracted(self) -> tuple[list[ExtractedTriple], list[tuple[Triple, str]]]:
        return self._loaded("extract")

    def enriched(self) -> int:
        return self._loaded("enrich")

    def evaluate(self) -> MetricsReport:
        return self._loaded("evaluate")

