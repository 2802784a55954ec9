import contextlib
import dataclasses
import itertools
import json
import signal
import sys

import pytest
from conftest import FIXTURE_SHAPE
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kbforge import files
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


@st.composite
def small_shapes(draw) -> dict:
    """The fields of small shapes, some of which the generator cannot fill:
    a type may hold no entity, a relation may ask for more triples than its
    two types hold pairs, and the distractors for more entity pairs than
    the triples leave free."""
    return dict(entities=draw(st.integers(1, 10) | st.integers(11, 40)),
                types=draw(st.integers(2, 6)),
                relations=draw(st.integers(1, 4)),
                triples_per_relation=draw(st.integers(1, 12)),
                sentences_per_triple=draw(st.integers(1, 3)),
                distractor_rate=draw(st.sampled_from([0.0, 0.2, 0.5, 2.0, 20.0])),
                holdout_fraction=draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])),
                seed=draw(st.integers(0, 2**32)))


@contextlib.contextmanager
def deadline(seconds: int):
    """TimeoutError in the block once it has run ``seconds``: a generator
    that draws forever fails the test instead of stalling it."""
    def expired(signum, frame):
        raise TimeoutError(f"no fixture after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def fillable(shape: dict, tmp_path) -> bool:
    """Whether the generator can fill ``shape``, counted pair by pair. Each
    relation needs triples_per_relation pairs of different entities, the
    subject of type r % types and the object of the next (entity k has
    type k % types). The distractors need as many unordered entity pairs
    that no triple holds, the triples read from the fixture of the same
    shape without distractors."""
    n, t = shape["entities"], shape["types"]
    for r in range(shape["relations"]):
        pairs = sum(a != b and a % t == r % t and b % t == (r + 1) % t
                    for a in range(n) for b in range(n))
        if pairs < shape["triples_per_relation"]:
            return False
    with deadline(10):
        paths = generate_fixture(SynthConfig(**{**shape, "distractor_rate": 0.0}),
                                 tmp_path / "plain")
    triples = load_gold_triples(paths["triples"]) | load_gold_triples(paths["gold_triples"])
    taken = {frozenset((s, o)) for s, _, o in triples}
    ids = load_kb(paths["entities"], paths["triples"]).entities
    free = sum(frozenset(pair) not in taken for pair in itertools.combinations(ids, 2))
    distractors = round(shape["distractor_rate"]
                        * (len(triples) * shape["sentences_per_triple"]))
    return distractors <= free


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(shape=small_shapes())
def test_generated_fixtures_pass_the_reader_checks(tmp_path, shape):
    # a shape the generator cannot fill is a ValueError, never a hang
    if not fillable(shape, tmp_path):
        with deadline(10), pytest.raises(ValueError):
            generate_fixture(SynthConfig(**shape), tmp_path / "fixture")
        return
    with deadline(10):
        paths = generate_fixture(SynthConfig(**shape), tmp_path / "fixture")
    # generate_fixture does not check the trees it writes: ingest_corpus
    # checks every sentence where the corpus is read
    kb = load_kb(paths["entities"], paths["triples"])
    by_id = {s.id: s for s in ingest_corpus(paths["corpus"])}
    gold = load_gold_links(paths["gold_links"])
    assert len(gold) == 2 * len(by_id)
    for (sid, start, end), eid in gold.items():
        sent = by_id[sid]
        assert 0 <= start <= end < len(sent.tokens)
        assert sent.surface(start, end) in kb.entities[eid].aliases


def test_gold_loaders_intern_their_ids(small_fixture):
    # sentence and entity ids repeat over rows, so a loader that does not
    # intern them holds equal strings that are not the interned object
    paths, _ = small_fixture
    links = load_gold_links(paths["gold_links"])
    ids = [x for (sid, _, _), eid in links.items() for x in (sid, eid)]
    ids += [x for triple in load_gold_triples(paths["gold_triples"]) for x in triple]
    assert ids and all(x is sys.intern(x) for x in ids)


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


# sha256 of every file generate_fixture writes at seed 7, by sentences per
# triple: 3 is the tier-1 fixture (conftest.FIXTURE_SHAPE), 1 and 12 the
# benchmark's training and new-text fixtures. A change to the generated
# data, its draws or its encoding changes one of them. The KB files and the
# held-out triples do not depend on the sentences per triple.
KB_SHA256 = {
    "entities.tsv": "6483b3427941c819662cda322bb084c497071ae68631736ab65abcdf60ccdfcc",
    "triples.tsv": "ca89aa295b08013d6630a03a49732011a3e647059d670c0faf5584164f9b7441",
    "gold_triples.tsv": "52c34a999e008f493d8b3c3cbce4f94e3c32da8e0efe57e3804a3f328544b84c",
}
FIXTURE_SHA256 = {
    3: {**KB_SHA256,
        "corpus.jsonl": "6119bf932d06f52d737a886b97c33a3d03cb5bfadd1d91a7b2be986211126bcf",
        "gold_links.tsv": "c256fe09e209f9271f783df4a110b765b120d15ff33b79ab70dd6fedce72deb9",
        "gold_bags.jsonl": "5e19dc3acddb50fa2f18e834d8012899cddf46ad900fb0f935140154ca20a13f"},
    1: {**KB_SHA256,
        "corpus.jsonl": "70b20cb82c2b86084c04d8eda3b27e9879b4a256b4b3052ae1cde4fdbd0fd428",
        "gold_links.tsv": "b273c4b02963726e38cffea4b843e58ba269d918597c04879c63ecd334d8306d",
        "gold_bags.jsonl": "5884fe34878068e668517d1d361edf64b76b4d7ddef7ed193085d7ec328a9db6"},
    12: {**KB_SHA256,
        "corpus.jsonl": "d20bba65a66f4fdac99c5fdd61b6e2eb60f4ff9ffdcdc51caa98d091a8525cb3",
        "gold_links.tsv": "03bcb1a131737f5982fb402d8624a12d16213072aed7e50f99d651f958aa3523",
        "gold_bags.jsonl": "e6a6593d8b95df237dcda7a55ef65d73c1b64ef966b52215f7c3c3a0342369d1"},
}


@pytest.mark.parametrize("per_triple", sorted(FIXTURE_SHA256))
def test_fixture_bytes_are_pinned(per_triple, tmp_path):
    shape = dataclasses.replace(FIXTURE_SHAPE, sentences_per_triple=per_triple)
    assert shape.seed == 7
    paths = generate_fixture(shape, tmp_path)
    assert {path.name: files.hash_file(path) for path in paths.values()} \
        == FIXTURE_SHA256[per_triple]
