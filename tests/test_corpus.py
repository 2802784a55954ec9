import json

import numpy as np
import pytest

from kbforge.corpus import (
    CorpusError,
    Gazetteer,
    Sentence,
    Span,
    Token,
    build_gazetteer,
    ingest_corpus,
    longest_ngram_match,
    make_span,
    sentence_from_record,
    sentence_to_record,
    shortest_dependency_path,
    sdp_adjacency,
    validate_sentence,
    write_corpus,
)
from kbforge.kb import Entity, KnowledgeBase


def toy_sentence() -> Sentence:
    # "Tony Stark visited New York" with a small hand-built tree rooted at
    # "visited" (index 2).
    words = ["Tony", "Stark", "visited", "New", "York"]
    heads = [1, 2, -1, 4, 2]
    tokens = [Token(i, w, "NN", h) for i, (w, h) in enumerate(zip(words, heads))]
    return Sentence("s1", tokens, [])


def test_validate_rejects_bad_indexes():
    s = toy_sentence()
    broken = Sentence("s1", [Token(5, "x", "NN", -1)], [])
    with pytest.raises(CorpusError, match="s1"):
        validate_sentence(broken)


def test_validate_rejects_two_roots():
    tokens = [Token(0, "a", "NN", -1), Token(1, "b", "NN", -1)]
    with pytest.raises(CorpusError, match="root"):
        validate_sentence(Sentence("s2", tokens, []))


def test_validate_rejects_head_cycle():
    tokens = [Token(0, "a", "NN", 1), Token(1, "b", "NN", 0),
              Token(2, "c", "NN", -1)]
    with pytest.raises(CorpusError, match="cycle"):
        validate_sentence(Sentence("s3", tokens, []))


def test_validate_rejects_overlapping_spans():
    s = toy_sentence()
    spans = [make_span(s, 0, 1), make_span(s, 1, 2)]
    with pytest.raises(CorpusError, match="overlap"):
        validate_sentence(Sentence(s.id, s.tokens, spans))


def test_span_surface_and_covers():
    s = toy_sentence()
    sp = make_span(s, 3, 4)
    assert sp.surface == "New York"


def test_record_round_trip():
    s = toy_sentence()
    sp = make_span(s, 0, 1, span_type="Agent", linked="e2", method="subgraph")
    s = Sentence(s.id, s.tokens, [sp])
    rec = sentence_to_record(s)
    back = sentence_from_record(rec)
    assert back.id == s.id
    assert [t.surface for t in back.tokens] == [t.surface for t in s.tokens]
    assert back.spans[0].linked == "e2"
    assert back.spans[0].method == "subgraph"


def test_records_share_interned_strings_and_reject_non_strings():
    rec = {"id": "a", "tokens": ["Tony", "met", "Tony"], "pos": ["NN", "VB", "NN"],
           "spans": [{"start": 0, "end": 0, "type": "person", "entity": "e1",
                      "method": "subgraph"}]}
    a = sentence_from_record(json.loads(json.dumps(rec)))
    b = sentence_from_record(json.loads(json.dumps(dict(rec, id="b"))))
    assert a.tokens[0].surface is b.tokens[2].surface
    assert a.tokens[0].pos_tag is b.tokens[0].pos_tag
    assert a.spans[0].linked is b.spans[0].linked
    assert a.spans[0].span_type is b.spans[0].span_type
    for bad in (dict(rec, tokens=["Tony", 7, "Tony"]), dict(rec, pos=["NN", None, "NN"]),
                dict(rec, spans=[{"start": 0, "end": 0, "entity": 3}])):
        with pytest.raises(CorpusError, match="must be strings"):
            sentence_from_record(bad)


def test_corpus_file_round_trip(tmp_path):
    s = toy_sentence()
    path = tmp_path / "c.jsonl"
    write_corpus([s], path)
    loaded = ingest_corpus(path)
    assert len(loaded) == 1
    assert loaded[0].surface(0, 4) == "Tony Stark visited New York"


def test_two_ingests_share_id_strings(tmp_path):
    path = tmp_path / "c.jsonl"
    write_corpus([toy_sentence()], path)
    first, second = ingest_corpus(path), ingest_corpus(path)
    assert first[0].id == "s1" and first[0].id is second[0].id
    with pytest.raises(CorpusError, match="not a string"):
        sentence_from_record({"id": 7, "tokens": ["x"]})


def test_one_ingest_shares_equal_tokens(tmp_path):
    path = tmp_path / "c.jsonl"
    s2 = toy_sentence()
    s2.id = "s2"
    write_corpus([toy_sentence(), s2], path)
    first, second = ingest_corpus(path)
    assert first.tokens == second.tokens
    assert all(a is b for a, b in zip(first.tokens, second.tokens))


def test_ingest_rejects_duplicate_ids(tmp_path):
    s = toy_sentence()
    path = tmp_path / "c.jsonl"
    write_corpus([s], path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(open(path).readline())
    with pytest.raises(CorpusError, match=str(path)):
        ingest_corpus(path)


def test_ingest_reports_line_numbers(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("not json\n")
    with pytest.raises(CorpusError, match=f"{path}:1"):
        ingest_corpus(path)


# -- gazetteer matching -------------------------------------------------------

def gaz() -> Gazetteer:
    kb = KnowledgeBase([
        Entity("e1", "Tony Stark", ("Tony Stark", "Tony"), "Agent"),
        Entity("e2", "New York", ("New York",), "Place"),
        Entity("e3", "York", ("York",), "Place"),
    ])
    return build_gazetteer(kb)


def test_longest_match_prefers_longer_ngram():
    spans = longest_ngram_match(toy_sentence(), gaz())
    surfaces = [sp.surface for sp in spans]
    assert "Tony Stark" in surfaces
    assert "New York" in surfaces
    # "York" alone must not match inside the longer span
    assert "York" not in surfaces


def test_matches_do_not_overlap():
    spans = longest_ngram_match(toy_sentence(), gaz())
    for a in spans:
        for b in spans:
            if a is not b:
                assert not a.overlaps(b)


def test_gazetteer_lookup_case_sensitivity():
    g = gaz()
    assert "Tony" in g
    assert "tony" not in g


# -- dependency paths ---------------------------------------------------------

def test_sdp_simple_tree():
    s = toy_sentence()
    a = make_span(s, 0, 1)   # Tony Stark, last token 1
    b = make_span(s, 3, 4)   # New York, last token 4
    path = shortest_dependency_path(s, a, b)
    assert path == [1, 2, 4]
    assert path[0] == 1 and path[-1] == 4


def test_sdp_is_reversible():
    s = toy_sentence()
    a = make_span(s, 0, 1)
    b = make_span(s, 3, 4)
    assert shortest_dependency_path(s, b, a) == [4, 2, 1]


def test_sdp_overlapping_spans_error():
    s = toy_sentence()
    with pytest.raises(CorpusError):
        shortest_dependency_path(s, make_span(s, 0, 2), make_span(s, 2, 4))


def test_sdp_adjacency_symmetric_normalized():
    s = toy_sentence()
    path = [1, 2, 4]
    adj = sdp_adjacency(s, path)
    n = len(s.tokens)
    assert adj.shape == (n, n)
    assert np.allclose(adj, adj.T)
    # off-path tokens keep a self-loop only
    assert adj[0, 0] == 1.0
    assert np.count_nonzero(adj[0]) == 1
    # on-path rows are D^{-1/2}(A+I)D^{-1/2}; degree of token 2 on the path
    # is 2 neighbors + self = 3
    assert adj[2, 2] == pytest.approx(1 / 3)
    eigvals = np.linalg.eigvalsh(adj)
    assert eigvals.max() <= 1.0 + 1e-9
