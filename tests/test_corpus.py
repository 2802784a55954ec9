import json

import numpy as np
import pytest
from conftest import tree_heads
from hypothesis import given, settings
from hypothesis import strategies as st

from kbforge.corpus import (
    CorpusError,
    Sentence,
    Span,
    Token,
    ingest_corpus,
    make_span,
    sentence_from_record,
    sentence_to_record,
    shortest_dependency_path,
    sdp_adjacency,
    validate_sentence,
    validate_tree,
    write_corpus,
)


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


def reference_tree_check(sid: str, heads: list[int]) -> None:
    """The tree check that walked from every token with a fresh set."""
    n = len(heads)
    roots = [i for i, h in enumerate(heads) if h == -1]
    for i, h in enumerate(heads):
        if h != -1 and not (0 <= h < n):
            raise CorpusError(f"sentence {sid!r}: dep_head {h} of token {i} out of range")
    if len(roots) != 1:
        raise CorpusError(f"sentence {sid!r}: expected exactly one root, found {len(roots)}")
    for i in range(n):
        seen = set()
        cur = i
        while cur != -1:
            if cur in seen:
                raise CorpusError(f"sentence {sid!r}: cycle in dependency heads at token {i}")
            seen.add(cur)
            cur = heads[cur]


def tree_outcome(check, heads):
    try:
        check("s", heads)
    except CorpusError as exc:
        return str(exc)
    return None


@st.composite
def trees(draw) -> list[int]:
    """Heads of a tree over up to 9 tokens, with up to three of them
    redrawn: cycles, no root, two roots, heads out of range."""
    heads = draw(tree_heads(draw(st.integers(0, 9))))
    for _ in range(draw(st.integers(0, 3)) if heads else 0):
        heads[draw(st.integers(0, len(heads) - 1))] = draw(st.integers(-3, len(heads) + 1))
    return heads


@settings(max_examples=500, deadline=None)
@given(heads=trees() | st.lists(st.integers(-2, 8), max_size=9))
def test_tree_check_matches_the_walk_from_every_token(heads):
    assert tree_outcome(validate_tree, heads) == tree_outcome(reference_tree_check, heads)


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
