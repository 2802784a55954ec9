import json
from collections import Counter

import numpy as np
import pytest

from kbforge import datagen
from kbforge.corpus import Sentence, Span, Token, ingest_corpus
from kbforge.datagen import (
    Bag,
    BootstrapConfig,
    DataGenError,
    DistantSupervisionConfig,
    bootstrap_linked_corpus,
    collect_pair_sentences,
    distant_supervision,
    load_bags,
    load_generation_report,
    save_bags,
    split_dataset,
    write_generation_report,
)
from kbforge.kb import Entity, KnowledgeBase, Triple, load_kb
from kbforge.linker import TrainableSpanClassifier


def mk_sentence(words, sid="s0", spans=None):
    toks = [Token(i, w) for i, w in enumerate(words)]
    return Sentence(sid, toks, spans or [])


def pair_kb():
    ents = [Entity("e1", "Tony", (), "person"),
            Entity("e2", "Pepper", (), "person"),
            Entity("e3", "Mark", (), "suit")]
    return KnowledgeBase(ents, [Triple("e1", "knows", "e2"),
                                Triple("e1", "wears", "e3")])


# -- bootstrap ----------------------------------------------------------------


def test_gazetteer_round_keeps_doubly_linked_sentences():
    kb = pair_kb()
    corpus = [mk_sentence(["Tony", "met", "Pepper"], "a"),
              mk_sentence(["Tony", "slept"], "b")]
    linked, rounds = bootstrap_linked_corpus(corpus, kb, None,
                                             BootstrapConfig(max_rounds=1, knn_k=0))
    assert [s.id for s in linked] == ["a"]
    assert [(sp.surface, sp.linked, sp.span_type, sp.method)
            for sp in linked[0].spans] == [("Tony", "e1", "person", "subgraph"),
                                           ("Pepper", "e2", "person", "subgraph")]
    assert len(rounds) == 1
    assert rounds == [{"round": 1, "extracted": 1, "recognizer": "gazetteer"}]


def test_bootstrap_rejects_empty_corpus():
    with pytest.raises(DataGenError):
        bootstrap_linked_corpus([], pair_kb(), None, BootstrapConfig())


def test_bootstrap_rejects_duplicate_sentence_ids():
    corpus = [mk_sentence(["Tony", "met", "Pepper"], "a"),
              mk_sentence(["Tony", "wore", "Mark"], "a")]
    with pytest.raises(DataGenError, match="duplicate sentence id 'a'"):
        bootstrap_linked_corpus(corpus, pair_kb(), None, BootstrapConfig(knn_k=0))


def test_bootstrap_hashes_each_ngram_at_most_once(fixture_dir, monkeypatch):
    kb = load_kb(fixture_dir / "entities.tsv", fixture_dir / "triples.tsv")
    raw = ingest_corpus(fixture_dir / "corpus.jsonl")[:200]
    hashed = Counter()
    hash_widths = TrainableSpanClassifier._hash_widths

    def counting(self, sentence, widths):
        for width in widths:
            for start in range(len(sentence.tokens) - width + 1):
                hashed[sentence.id, start, start + width - 1] += 1
        return hash_widths(self, sentence, widths)

    monkeypatch.setattr(TrainableSpanClassifier, "_hash_widths", counting)
    _, rounds = bootstrap_linked_corpus(raw, kb, None, BootstrapConfig(max_rounds=3, knn_k=0))
    assert [r["recognizer"] for r in rounds][1:] == ["classifier-round-2", "classifier-round-3"]
    # every n-gram up to the widest trained span of every raw sentence
    assert len(hashed) == sum(2 * len(s.tokens) - 1 for s in raw)
    assert max(hashed.values()) == 1


class _NoopClassifier:
    """Stands in for the student recognizer when rounds are scripted."""

    def __init__(self, *a, **kw):
        pass

    def train(self, corpus, rng):
        pass

    def recognize(self, sentence):
        return []


def scripted_rounds(monkeypatch, lengths, max_rounds):
    """Drive the round loop with a fake extraction whose per-call corpus
    sizes follow `lengths`."""
    corpora = [[mk_sentence(["w"], f"r{i}s{j}") for j in range(n)]
               for i, n in enumerate(lengths)]
    calls = {"n": 0}

    def fake_extract(raw, kb, table, recognizer, cfg):
        out = corpora[calls["n"]]
        calls["n"] += 1
        return out

    monkeypatch.setattr(datagen, "_extract_once", fake_extract)
    monkeypatch.setattr(datagen, "TrainableSpanClassifier", _NoopClassifier)
    kb = pair_kb()
    return bootstrap_linked_corpus([mk_sentence(["w"])], kb, None,
                                   BootstrapConfig(max_rounds=max_rounds))


def test_round_count_drop_keeps_previous_corpus(monkeypatch):
    linked, rounds = scripted_rounds(monkeypatch, [5, 3], max_rounds=4)
    assert len(linked) == 5
    assert [s.id for s in linked] == [f"r0s{j}" for j in range(5)]
    assert [(r["round"], r["extracted"]) for r in rounds] == [(1, 5), (2, 3)]


def test_round_equal_count_continues(monkeypatch):
    linked, rounds = scripted_rounds(monkeypatch, [5, 5, 6], max_rounds=3)
    assert len(linked) == 6
    assert [r["extracted"] for r in rounds] == [5, 5, 6]
    assert rounds[-1]["recognizer"] == "classifier-round-3"


def test_round_cap_stops_even_when_growing(monkeypatch):
    linked, rounds = scripted_rounds(monkeypatch, [2, 3, 4, 9], max_rounds=3)
    assert len(rounds) == 3
    assert len(linked) == 4


def test_late_drop_keeps_best_so_far(monkeypatch):
    linked, rounds = scripted_rounds(monkeypatch, [5, 6, 4], max_rounds=3)
    assert len(linked) == 6
    assert [r["extracted"] for r in rounds] == [5, 6, 4]


def test_generation_report_schema(tmp_path):
    path = tmp_path / "rounds.json"
    rounds = [{"round": 1, "extracted": 7, "recognizer": "gazetteer"}]
    write_generation_report(rounds, path)
    assert json.loads(path.read_text()) == {"rounds": rounds}
    assert load_generation_report(path) == rounds


@pytest.mark.parametrize("doc", [
    {"rounds": "gazetteer"}, {"rounds": [{"round": "1", "extracted": 7, "recognizer": "g"}]},
    {"rounds": [{"round": 1, "extracted": 7}]}, {"rounds": [[1, 7, "g"]]}, {},
], ids=["rounds-not-a-list", "round-not-an-int", "no-recognizer", "record-not-an-object",
        "no-rounds"])
def test_generation_report_that_does_not_fit_is_a_datagen_error(tmp_path, doc):
    path = tmp_path / "rounds.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataGenError) as err:
        load_generation_report(path)
    assert str(err.value).startswith(f"{path}:1: ")


# -- distant supervision ------------------------------------------------------


def linked(sid, *ents):
    words = [e for e in ents]
    s = mk_sentence(words, sid)
    s.spans = [Span(i, i, e, "t", linked=e) for i, e in enumerate(ents)]
    return s


def test_pair_collection_is_ordered_and_deduped():
    corpus = [linked("a", "e1", "e2"),
              linked("b", "e2", "e1"),
              linked("c", "e1", "e1", "e2")]   # e1 mentioned twice
    pairs = collect_pair_sentences(corpus)
    assert pairs[("e1", "e2")] == ["a", "b", "c"]
    assert pairs[("e2", "e1")] == ["a", "b", "c"]
    assert ("e1", "e1") not in pairs


def ds_kb():
    ents = [Entity(e, e, (), "t") for e in ("e1", "e2", "e3", "e4")]
    return KnowledgeBase(ents, [Triple("e1", "r1", "e2"), Triple("e1", "r2", "e2"),
                                Triple("e3", "r1", "e1")])


def test_bags_are_sound_and_complete_before_cap():
    kb = ds_kb()
    corpus = [linked("a", "e1", "e2"), linked("b", "e3", "e1"),
              linked("c", "e2", "e4"), linked("d", "e1", "e2")]
    bags = distant_supervision(corpus, kb, DistantSupervisionConfig(na_ratio=1e9))
    by_pair = {(b.subject, b.object): b for b in bags}
    # soundness: every label set matches the KB exactly, direction included
    for b in bags:
        assert b.labels == tuple(sorted(kb.relations_between(b.subject, b.object)))
    # completeness: every co-occurring ordered pair surfaces as a bag
    assert set(by_pair) == set(collect_pair_sentences(corpus))
    assert by_pair[("e1", "e2")].labels == ("r1", "r2")
    assert by_pair[("e2", "e1")].labels == ()
    assert by_pair[("e3", "e1")].labels == ("r1",)
    assert by_pair[("e1", "e2")].sentence_ids == ("a", "d")


def test_na_ratio_caps_negative_bags():
    kb = ds_kb()
    corpus = [linked("a", "e1", "e2"), linked("b", "e2", "e4"),
              linked("c", "e3", "e4"), linked("d", "e1", "e4")]
    # one positive pair and seven NA pairs co-occur
    for ratio, expect_neg in ((0.0, 0), (2.0, 2), (100.0, 7)):
        bags = distant_supervision(corpus, kb, DistantSupervisionConfig(na_ratio=ratio))
        pos = [b for b in bags if b.labels]
        neg = [b for b in bags if not b.labels]
        assert len(pos) == 1
        assert len(neg) == expect_neg


def test_bag_size_cap_subsamples_in_order():
    kb = ds_kb()
    corpus = [linked(f"s{i:02d}", "e1", "e2") for i in range(40)]
    cfg = DistantSupervisionConfig(max_bag_size=8, seed=3)
    bags = distant_supervision(corpus, kb, cfg)
    big = next(b for b in bags if (b.subject, b.object) == ("e1", "e2"))
    assert len(big.sentence_ids) == 8
    assert list(big.sentence_ids) == sorted(big.sentence_ids)
    assert set(big.sentence_ids) <= {f"s{i:02d}" for i in range(40)}


def test_distant_supervision_deterministic():
    kb = ds_kb()
    corpus = [linked(f"s{i}", "e1", "e2") for i in range(50)]
    corpus += [linked("x", "e2", "e4"), linked("y", "e3", "e4")]
    cfg = DistantSupervisionConfig(max_bag_size=16, na_ratio=1.0, seed=9)
    a = distant_supervision(corpus, kb, cfg)
    b = distant_supervision(corpus, kb, cfg)
    assert a == b


# -- splits and serialization -------------------------------------------------


def many_bags(n=50):
    return [Bag(f"s{i}", f"o{i}", ("r1",) if i % 3 else (), (f"sid{i}",))
            for i in range(n)]


def test_split_is_a_partition():
    bags = many_bags()
    train, valid, test = split_dataset(bags, (0.8, 0.1, 0.1), seed=4)
    assert len(train) == 40 and len(valid) == 5 and len(test) == 5
    combined = sorted(train + valid + test, key=lambda b: b.subject)
    assert combined == sorted(bags, key=lambda b: b.subject)


def test_split_deterministic_and_seed_sensitive():
    bags = many_bags()
    a = split_dataset(bags, (0.8, 0.1, 0.1), seed=4)
    b = split_dataset(bags, (0.8, 0.1, 0.1), seed=4)
    c = split_dataset(bags, (0.8, 0.1, 0.1), seed=5)
    assert a == b
    assert a != c


def test_split_rejects_bad_ratios():
    with pytest.raises(ValueError):
        split_dataset(many_bags(), (0.8, 0.1, 0.2), seed=0)
    # sums to 1, but would put every bag in train and none in valid or test
    with pytest.raises(ValueError, match="must each lie in"):
        split_dataset(many_bags(), (1.2, -0.1, -0.1), seed=0)


def test_bags_round_trip(tmp_path):
    bags = [Bag("e1", "e2", ("r1", "r2"), ("a", "b")),
            Bag("e2", "e1", (), ("c",))]
    path = tmp_path / "bags.jsonl"
    save_bags(bags, path)
    assert load_bags(path) == bags


def test_loaded_bags_share_id_strings(tmp_path):
    path = tmp_path / "bags.jsonl"
    save_bags([Bag("e1", "e2", ("r1",), ("s1",)), Bag("e2", "e1", ("r1",), ("s1",))], path)
    (a, b), (c, _) = load_bags(path), load_bags(path)
    assert a.subject is b.object is c.subject
    assert a.labels[0] is b.labels[0] is c.labels[0]
    assert a.sentence_ids[0] is b.sentence_ids[0] is c.sentence_ids[0]
    path.write_text('{"subject": 1, "object": "e2", "labels": [], "sentences": []}\n')
    with pytest.raises(DataGenError, match=r"bags\.jsonl:1"):
        load_bags(path)


def test_load_bags_reports_line_numbers(tmp_path):
    path = tmp_path / "bags.jsonl"
    path.write_text('{"subject": "e1", "object": "e2", "labels": [], "sentences": []}\n'
                    "not json\n")
    with pytest.raises(DataGenError, match=r"bags\.jsonl:2"):
        load_bags(path)
