import json

import numpy as np
import pytest
from conftest import tree_heads
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_relations import tiny_model

from kbforge.corpus import (
    CorpusError,
    Sentence,
    Span,
    Token,
    ingest_corpus,
    make_span,
    sentence_from_record,
    sentence_to_record,
    validate_tree,
    write_corpus,
)


def toy_sentence() -> Sentence:
    # "Tony Stark visited New York" with a small hand-built tree rooted at
    # "visited" (index 2).
    words = ["Tony", "Stark", "visited", "New", "York"]
    heads = [1, 2, -1, 4, 2]
    tokens = [Token(w, "NN", h) for w, h in zip(words, heads)]
    return Sentence("s1", tokens, [])


def toy_record(heads, spans=()) -> dict:
    """A corpus record over len(heads) tokens with the given heads and
    (start, end) spans."""
    return {"id": "s1", "tokens": [f"w{i}" for i in range(len(heads))], "heads": heads,
            "spans": [{"start": start, "end": end} for start, end in spans]}


def test_validate_rejects_two_roots():
    with pytest.raises(CorpusError, match="root"):
        sentence_from_record(toy_record([-1, -1]))


def test_validate_rejects_head_cycle():
    with pytest.raises(CorpusError, match="cycle"):
        sentence_from_record(toy_record([1, 0, -1]))


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
    # out of order, so the sorted check runs; the two share token 1
    heads = [1, 2, -1, 4, 2]
    with pytest.raises(CorpusError, match="overlap"):
        sentence_from_record(toy_record(heads, [(1, 2), (0, 1)]))
    with pytest.raises(CorpusError, match="overlap"):
        sentence_from_record(toy_record(heads, [(3, 4), (0, 2), (1, 1)]))
    # out of order and apart: loaded, in the record's order
    sent = sentence_from_record(toy_record(heads, [(3, 4), (0, 1)]))
    assert [(sp.start, sp.end) for sp in sent.spans] == [(3, 4), (0, 1)]


def test_span_surface_and_covers():
    s = toy_sentence()
    sp = make_span(s, 3, 4)
    assert sp.surface == "New York"


def test_record_round_trip():
    s = toy_sentence()
    sp = Span(0, 1, s.surface(0, 1), "Agent", "e2", "subgraph")
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


@pytest.mark.parametrize("word", ["", "New York", " York", "York\t", "New\u00a0York"],
                         ids=["empty", "space", "leading-space", "tab", "no-break-space"])
def test_records_reject_a_token_that_is_empty_or_holds_whitespace(word):
    # a span's surface is its tokens joined by single spaces
    rec = {"id": "a", "tokens": ["Tony", "met", word]}
    with pytest.raises(CorpusError) as err:
        sentence_from_record(rec)
    assert str(err.value) == f"sentence 'a': token 2 {word!r} is empty or contains whitespace"


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


# -- loading onto a base corpus ----------------------------------------------

WORDS, TAGS = ("a", "b", "c"), ("N", "V")


def token_list(words, tags, heads) -> list[Token]:
    return [Token(*t) for t in zip(words, tags, heads)]


def token_values(sent: Sentence) -> list[tuple]:
    return [(t.surface, t.pos_tag, t.dep_head) for t in sent.tokens]


@st.composite
def spans(draw, n: int) -> list[Span]:
    """Sorted spans that keep apart, with or without labels."""
    cuts = sorted(draw(st.sets(st.integers(0, n - 1), max_size=4)))
    bounds = list(zip(cuts[::2], cuts[1::2])) + ([(cuts[-1],) * 2] if len(cuts) % 2 else [])
    return [Span(start, end, "", draw(st.sampled_from([None, "T"])),
                 draw(st.sampled_from([None, "e1"])), draw(st.sampled_from([None, "subgraph"])))
            for start, end in bounds]


@st.composite
def sentences(draw, sid: str) -> Sentence:
    n = draw(st.integers(1, 5))
    words = draw(st.lists(st.sampled_from(WORDS), min_size=n, max_size=n))
    tags = draw(st.lists(st.sampled_from(TAGS), min_size=n, max_size=n))
    return Sentence(sid, token_list(words, tags, draw(tree_heads(n))))


@st.composite
def copies(draw, sent: Sentence) -> Sentence:
    """``sent`` with new spans and, maybe, one word, one tag or its whole
    tree redrawn (which may give back the same value)."""
    words, tags, heads = map(list, zip(*token_values(sent)))
    i = draw(st.integers(0, len(words) - 1))
    change = draw(st.sampled_from(["none", "word", "tag", "tree"]))
    if change == "word":
        words[i] = draw(st.sampled_from(WORDS))
    elif change == "tag":
        tags[i] = draw(st.sampled_from(TAGS))
    elif change == "tree":
        heads = draw(tree_heads(len(words)))
    return Sentence(sent.id, token_list(words, tags, heads), draw(spans(len(words))))


def load_outcome(path, base=None):
    try:
        return ingest_corpus(path, base)
    except CorpusError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_loading_onto_a_base_changes_no_value_and_shares_only_equal_tokens(tmp_path, data):
    write_corpus([data.draw(sentences(f"s{i}")) for i in range(data.draw(st.integers(1, 4)))],
                 tmp_path / "base.jsonl")
    base = {s.id: s for s in ingest_corpus(tmp_path / "base.jsonl")}
    # a linked copy: some of the base's ids, in any order, and some new ones
    ids = data.draw(st.lists(st.sampled_from(sorted(base) + ["s8", "s9"]), unique=True))
    overlay = [data.draw(copies(base[sid]) if sid in base else sentences(sid)) for sid in ids]
    write_corpus(overlay, tmp_path / "overlay.jsonl")
    plain = ingest_corpus(tmp_path / "overlay.jsonl")
    onto = ingest_corpus(tmp_path / "overlay.jsonl", base)
    assert onto == plain
    for sent in onto:
        same = sent.id in base and token_values(sent) == token_values(base[sent.id])
        assert (sent.id in base and sent.tokens is base[sent.id].tokens) == same


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_record_that_differs_from_its_base_sentence_loads_on_its_own(tmp_path, data):
    write_corpus([data.draw(sentences("s0"))], tmp_path / "base.jsonl")
    base = {s.id: s for s in ingest_corpus(tmp_path / "base.jsonl")}
    words, tags, heads = map(list, zip(*token_values(base["s0"])))
    i = data.draw(st.integers(0, len(words) - 1))
    change = data.draw(st.sampled_from(["word", "tag", "head", "float head"]))
    if change == "word":
        words[i] = data.draw(st.sampled_from(WORDS).filter(lambda w: w != words[i]))
    elif change == "tag":
        tags[i] = data.draw(st.sampled_from(TAGS).filter(lambda t: t != tags[i]))
    elif change == "head":
        # out of range, a second root, no root, a cycle, or another tree
        heads[i] = data.draw(st.integers(-2, len(heads)).filter(lambda h: h != heads[i]))
    else:
        heads[i] = float(heads[i])  # equal to the base's head, but not a JSON integer
    write_corpus([Sentence("s0", token_list(words, tags, heads))], tmp_path / "changed.jsonl")
    onto = load_outcome(tmp_path / "changed.jsonl", base)
    assert onto == load_outcome(tmp_path / "changed.jsonl")
    assert isinstance(onto, str) or onto[0].tokens is not base["s0"].tokens


def test_a_base_id_does_not_spare_a_cyclic_tree_its_check(tmp_path):
    base = {"s0": Sentence("s0", token_list("aaaa", "NNNN", [-1, 0, 1, 0]))}
    write_corpus([Sentence("s0", token_list("aaaa", "NNNN", [-1, 2, 1, 0]))], tmp_path / "c.jsonl")
    with pytest.raises(CorpusError, match="cycle in dependency heads at token 1"):
        ingest_corpus(tmp_path / "c.jsonl", base)


def test_a_record_that_matches_its_base_sentence_keeps_every_other_check(tmp_path):
    base = {"s1": toy_sentence()}
    rec = sentence_to_record(toy_sentence())
    path = tmp_path / "c.jsonl"
    for bad, message in ((dict(rec, heads=[1.0, 2, -1, 4, 2]), "expected a list of integers"),
                         (dict(rec, spans=[{"start": 3, "end": 5}]), r"span \[3,5\] out of range"),
                         (dict(rec, spans=[{"start": 1, "end": 2}, {"start": 0, "end": 1}]),
                          "overlapping spans")):
        path.write_text(json.dumps(bad) + "\n")
        with pytest.raises(CorpusError, match=message):
            ingest_corpus(path, base)
    path.write_text(2 * (json.dumps(rec) + "\n"))
    with pytest.raises(CorpusError, match="duplicate sentence id 's1'"):
        ingest_corpus(path, base)


# -- dependency paths ---------------------------------------------------------

def sdp_block(s, a, b):
    """The pruned, normalised tree the relation model builds for spans a, b."""
    return tiny_model(dtype=np.float64)._sdp_matrix([(s, a, b)])[0]


def test_sdp_simple_tree():
    # the path from "Stark" (1) to "York" (4) is [1, 2, 4]: its edges are
    # the only ones kept
    s = toy_sentence()
    adj = sdp_block(s, make_span(s, 1, 1), make_span(s, 4, 4))
    assert {(i, j) for i, j in zip(*np.nonzero(adj)) if i != j} == {(1, 2), (2, 1),
                                                                    (2, 4), (4, 2)}


def test_sdp_adjacency_symmetric_normalized():
    s = toy_sentence()
    adj = sdp_block(s, make_span(s, 1, 1), make_span(s, 4, 4))
    n = len(s.tokens)
    assert adj.shape == (n, n)
    assert np.array_equal(adj, adj.T)
    # off-path tokens keep a self-loop only
    assert adj[0, 0] == adj[3, 3] == 1.0
    assert np.count_nonzero(adj[0]) == np.count_nonzero(adj[3]) == 1
    # on-path rows are D^(-1/2) (A+I) D^(-1/2); token 2 has two path
    # neighbours and itself
    assert adj[2, 2] == pytest.approx(1 / 3)
    assert np.linalg.eigvalsh(adj).max() <= 1.0 + 1e-9
