import json

import pytest

from kbforge.corpus import ingest_corpus
from kbforge.kb import load_kb
from kbforge.synth import (
    SynthConfig,
    generate_fixture,
    load_gold_links,
    load_gold_triples,
)

SMALL = SynthConfig(entities=40, types=4, relations=4, triples_per_relation=8,
                    sentences_per_triple=2, seed=13)


@pytest.fixture(scope="module")
def small_fixture(tmp_path_factory):
    d = tmp_path_factory.mktemp("synth")
    return generate_fixture(SMALL, d), d


def test_regenerating_reproduces_every_byte(small_fixture, tmp_path):
    paths, _ = small_fixture
    again = generate_fixture(SMALL, tmp_path / "again")
    for name, path in paths.items():
        assert again[name].read_bytes() == path.read_bytes(), name


def test_seed_changes_the_corpus(small_fixture, tmp_path):
    paths, _ = small_fixture
    import dataclasses
    other = generate_fixture(dataclasses.replace(SMALL, seed=14),
                             tmp_path / "other")
    assert other["corpus"].read_bytes() != paths["corpus"].read_bytes()


def test_kb_and_corpus_are_well_formed(small_fixture):
    paths, _ = small_fixture
    kb = load_kb(paths["entities"], paths["triples"])
    assert len(kb.entities) == SMALL.entities
    corpus = ingest_corpus(paths["corpus"])      # validates every sentence
    realized = SMALL.relations * SMALL.triples_per_relation * SMALL.sentences_per_triple
    distractors = int(round(SMALL.distractor_rate * realized))
    assert len(corpus) == realized + distractors
    assert all(not s.spans for s in corpus), "raw corpus must be unannotated"


def test_gold_links_land_on_real_tokens(small_fixture):
    paths, _ = small_fixture
    kb = load_kb(paths["entities"], paths["triples"])
    by_id = {s.id: s for s in ingest_corpus(paths["corpus"])}
    gold = load_gold_links(paths["gold_links"])
    assert gold
    for (sid, start, end), eid in gold.items():
        sent = by_id[sid]
        assert 0 <= start <= end < len(sent.tokens)
        assert eid in kb.entities
        # the span surface must be an alias of the linked entity
        surface = sent.surface(start, end)
        assert surface in kb.entities[eid].aliases


def test_holdout_is_realized_but_absent_from_kb(small_fixture):
    paths, _ = small_fixture
    kb = load_kb(paths["entities"], paths["triples"])
    held = load_gold_triples(paths["gold_triples"])
    expected = int(round(SMALL.holdout_fraction * SMALL.relations
                         * SMALL.triples_per_relation))
    assert len(held) == expected
    kb_triples = {(t.subject, t.relation, t.object) for t in kb.iter_triples()}
    assert not held & kb_triples
    # every held-out pair appears in some gold bag with its relation
    bags = {}
    with open(paths["gold_bags"], encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            bags[(rec["subject"], rec["object"])] = set(rec["labels"])
    for s, r, o in held:
        assert r in bags[(s, o)]


def test_distractor_pairs_become_na_bags(small_fixture):
    paths, _ = small_fixture
    empties = 0
    with open(paths["gold_bags"], encoding="utf-8") as fh:
        for line in fh:
            if not json.loads(line)["labels"]:
                empties += 1
    assert empties > 0


def test_config_rejects_impossible_shapes():
    with pytest.raises(ValueError, match=r"types must be at least 2"):
        SynthConfig(types=1)
    with pytest.raises(ValueError, match=r"relations must lie in \[1,12\]"):
        SynthConfig(relations=99)
    with pytest.raises(ValueError, match=r"entities must lie in \[1,609\]"):
        SynthConfig(entities=10_000)
    with pytest.raises(ValueError, match="sentences_per_triple must be at least 1"):
        SynthConfig(sentences_per_triple=0)
    # rates and seeds that used to load
    with pytest.raises(ValueError, match="distractor_rate must be a finite number >= 0"):
        SynthConfig(distractor_rate=-0.1)
    with pytest.raises(ValueError, match=r"holdout_fraction must lie in \[0,1\]"):
        SynthConfig(holdout_fraction=1.5)
    with pytest.raises(ValueError, match="seed must be at least 0"):
        SynthConfig(seed=-1)
