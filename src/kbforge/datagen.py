"""Self-training bootstrap over raw text and distant supervision into
multi-instance multi-label bags.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .bounds import bounded, check_bounds
from .corpus import Sentence
from .embeddings import EmbeddingTable
from .files import json_int, json_list, read_json, read_jsonl, write_json, write_jsonl
from .kb import KnowledgeBase
from .linker import GazetteerRecognizer, TrainableSpanClassifier, link_sentence
# unused here, but bench/test_bench.py patches it at this import site
from .linker import subgraph_link  # noqa: F401


class DataGenError(Exception):
    pass


@dataclass(frozen=True, slots=True)
class Bag:
    subject: str
    object: str
    labels: tuple[str, ...]       # sorted; empty = NA
    sentence_ids: tuple[str, ...]


@dataclass
class BootstrapConfig:
    max_rounds: int = bounded(3, lo=0)
    knn_k: int = bounded(10, lo=0)
    seed: int = 0
    classifier_feature_dim: int = bounded(4096, lo=1)
    classifier_lr: float = bounded(0.5, above=0)
    classifier_epochs: int = bounded(5, lo=0)
    classifier_negatives: int = bounded(10, lo=0)

    __post_init__ = check_bounds


@dataclass
class DistantSupervisionConfig:
    max_bag_size: int = bounded(32, lo=1)
    na_ratio: float = bounded(1.0, lo=0)
    seed: int = 0

    __post_init__ = check_bounds


def _extract_once(raw_corpus: list[Sentence], kb: KnowledgeBase,
                  table: EmbeddingTable | None, recognizer, cfg: BootstrapConfig) -> list[Sentence]:
    """Tag, sub-graph link, and keep sentences with >=2 linked spans;
    unlinked spans are dropped and kept spans get the KB type of their
    entity."""
    kept: list[Sentence] = []
    for sentence in raw_corpus:
        linked = [d.span for d in link_sentence(sentence, kb, recognizer, table, cfg.knn_k)
                  if d is not None]
        if len(linked) >= 2:
            kept.append(Sentence(sentence.id, sentence.tokens, linked))
    return kept


def bootstrap_linked_corpus(raw_corpus: list[Sentence], kb: KnowledgeBase,
                            table: EmbeddingTable | None, cfg: BootstrapConfig
                            ) -> tuple[list[Sentence], list[dict]]:
    """The linked corpus, and per round its ``rounds.json`` record: the
    1-based ``round``, the number of sentences it ``extracted`` and the
    ``recognizer`` that tagged them. Round 1 extracts with the alias
    gazetteer; later rounds retrain a span classifier on the previous round's
    labels and re-extract. Stops when the extracted-sentence count drops
    (previous corpus wins) or at the round cap; equal counts keep going.
    Every sentence's n-grams are hashed once, into a feature table the
    classifier rounds share by sentence id."""
    if not raw_corpus:
        raise DataGenError("bootstrap needs a non-empty corpus")
    seen: set[str] = set()
    for sentence in raw_corpus:
        if sentence.id in seen:
            raise DataGenError(f"duplicate sentence id {sentence.id!r}")
        seen.add(sentence.id)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    feature_table: dict[str, np.ndarray] = {}

    best = _extract_once(raw_corpus, kb, table, GazetteerRecognizer(kb), cfg)
    rounds = [{"round": 1, "extracted": len(best), "recognizer": "gazetteer"}]
    for round_index in range(2, cfg.max_rounds + 1):
        student = TrainableSpanClassifier(kb, cfg, feature_table)
        try:
            student.train(best, rng)
        except Exception as exc:
            raise DataGenError(f"round {round_index}: recognizer training failed: {exc}") from exc
        current = _extract_once(raw_corpus, kb, table, student, cfg)
        rounds.append({"round": round_index, "extracted": len(current),
                       "recognizer": f"classifier-round-{round_index}"})
        if len(current) < len(best):
            break
        best = current
    return best, rounds


def write_generation_report(rounds: list[dict], path) -> None:
    """``rounds.json``: ``{"rounds": rounds}``."""
    write_json(path, {"rounds": rounds})


def load_generation_report(path) -> list[dict]:
    """The records write_generation_report wrote; DataGenError names the file."""
    return read_json(path, DataGenError, lambda doc: [
        {"round": json_int(r["round"]), "extracted": json_int(r["extracted"]),
         "recognizer": r["recognizer"]} for r in json_list(doc["rounds"])])


def collect_pair_sentences(corpus: list[Sentence]) -> dict[tuple[str, str], list[str]]:
    """Every ordered pair of distinct linked entities -> ids of sentences
    where both occur, in corpus order, each sentence once per pair."""
    pairs: dict[tuple[str, str], list[str]] = {}
    for sentence in corpus:
        linked = sorted({sp.linked for sp in sentence.spans if sp.linked})
        for s in linked:
            for o in linked:
                if s == o:
                    continue
                pairs.setdefault((s, o), []).append(sentence.id)
    return pairs


def distant_supervision(corpus: list[Sentence], kb: KnowledgeBase,
                        cfg: DistantSupervisionConfig) -> list[Bag]:
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    positives: list[Bag] = []
    negatives: list[Bag] = []
    pair_sentences = collect_pair_sentences(corpus)
    for (s, o) in sorted(pair_sentences):
        sids = pair_sentences[(s, o)]
        if len(sids) > cfg.max_bag_size:
            picks = rng.choice(len(sids), size=cfg.max_bag_size, replace=False)
            sids = [sids[i] for i in sorted(picks)]
        labels = tuple(sorted(kb.relations_between(s, o)))
        bag = Bag(s, o, labels, tuple(sids))
        (positives if labels else negatives).append(bag)
    keep_na = min(len(negatives), int(round(cfg.na_ratio * len(positives))))
    if keep_na < len(negatives):
        picks = rng.choice(len(negatives), size=keep_na, replace=False)
        negatives = [negatives[i] for i in sorted(picks)]
    return sorted(positives + negatives, key=lambda b: (b.subject, b.object))


def check_split(ratios: tuple[float, float, float]) -> None:
    """ValueError unless the (train, valid, test) ratios are each in [0, 1]
    and sum to 1."""
    if not all(0.0 <= r <= 1.0 for r in ratios):
        raise ValueError(f"split ratios {list(ratios)} must each lie in [0, 1]")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split ratios sum to {sum(ratios)}, expected 1")


def split_dataset(bags: list[Bag], ratios: tuple[float, float, float],
                  seed: int) -> tuple[list[Bag], list[Bag], list[Bag]]:
    check_split(ratios)
    rng = np.random.Generator(np.random.PCG64(seed))
    order = rng.permutation(len(bags))
    n = len(bags)
    cut1 = int(n * ratios[0])
    cut2 = int(n * (ratios[0] + ratios[1]))
    train = [bags[i] for i in order[:cut1]]
    valid = [bags[i] for i in order[cut1:cut2]]
    test = [bags[i] for i in order[cut2:]]
    return train, valid, test


def save_bags(bags: list[Bag], path) -> None:
    write_jsonl(path, ({"subject": bag.subject, "object": bag.object,
                        "labels": list(bag.labels), "sentences": list(bag.sentence_ids)}
                       for bag in bags))


def _bag(rec: dict) -> Bag:
    # ids repeat across bags, splits and the corpus: hold each once
    return Bag(sys.intern(rec["subject"]), sys.intern(rec["object"]),
               tuple(map(sys.intern, json_list(rec["labels"]))),
               tuple(map(sys.intern, json_list(rec["sentences"]))))


def load_bags(path) -> list[Bag]:
    return read_jsonl(path, _bag, DataGenError)
