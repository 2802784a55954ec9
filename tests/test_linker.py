import functools
import math
import sys
import zlib
from fractions import Fraction

import numpy as np
import pytest
from conftest import traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st

from kbforge import linker, nn
from kbforge.corpus import Sentence, Span, Token, ingest_corpus
from kbforge.datagen import BootstrapConfig, _extract_once
from kbforge.embeddings import EmbeddingTable, entity_symbol, knn_candidates
from kbforge.kb import Entity, KnowledgeBase, Triple, UnknownEntityError, load_kb
from kbforge.linker import (
    EL_BATCH,
    Candidate,
    ContextLinkerModel,
    ELConfig,
    GazetteerRecognizer,
    LinkDecision,
    LinkError,
    TrainableSpanClassifier,
    generate_candidates,
    hinge_loss,
    link,
    link_sentences,
    subgraph_link,
    train_context_linker,
)


def mk_sentence(words, sid="s0", spans=None):
    toks = [Token(w) for w in words]
    return Sentence(sid, toks, spans or [])


def span_at(i, surface):
    return Span(i, i, surface)


# -- alias matching -----------------------------------------------------------


def toy_sentence() -> Sentence:
    return mk_sentence(["Tony", "Stark", "visited", "New", "York"], "s1")


def toy_kb() -> KnowledgeBase:
    return KnowledgeBase([
        Entity("e1", "Tony Stark", ("Tony Stark", "Tony"), "Agent"),
        Entity("e2", "New York", ("New York",), "Place"),
        Entity("e3", "York", ("York",), "Place"),
    ])


def test_longest_match_prefers_longer_ngram():
    surfaces = [sp.surface for sp in GazetteerRecognizer(toy_kb()).recognize(toy_sentence())]
    assert surfaces == ["Tony Stark", "New York"]
    # "York" alone must not match inside the longer span


def test_matches_do_not_overlap():
    spans = GazetteerRecognizer(toy_kb()).recognize(toy_sentence())
    for a in spans:
        for b in spans:
            if a is not b:
                assert a.end < b.start or b.end < a.start


def test_gazetteer_lookup_case_sensitivity():
    recognizer = GazetteerRecognizer(toy_kb())
    assert [sp.surface for sp in recognizer.recognize(mk_sentence(["Tony"]))] == ["Tony"]
    assert recognizer.recognize(mk_sentence(["tony"])) == []


class Gazetteer:
    """The alias surfaces of a KB, and the most tokens any of them has."""

    def __init__(self, aliases):
        self._aliases = frozenset(aliases)
        self.max_ngram = max((len(a.split()) for a in self._aliases), default=1)

    def __contains__(self, surface: str) -> bool:
        return surface in self._aliases


def longest_ngram_match(sentence: Sentence, gazetteer: Gazetteer) -> list[Span]:
    """Greedy left-to-right leftmost-longest alias matching; returned spans
    never overlap."""
    n = len(sentence.tokens)
    out: list[Span] = []
    pos = 0
    while pos < n:
        matched = False
        for width in range(min(gazetteer.max_ngram, n - pos), 0, -1):
            surface = sentence.surface(pos, pos + width - 1)
            if surface in gazetteer:
                out.append(Span(pos, pos + width - 1, sys.intern(surface)))
                pos += width
                matched = True
                break
        if not matched:
            pos += 1
    return out


_WORDS = st.sampled_from(["a", "b", "c", "a b", ""])


@settings(max_examples=200, deadline=None)
@given(entity_aliases=st.lists(st.lists(st.text("abc ", min_size=1, max_size=7),
                                        min_size=1, max_size=3), max_size=6),
       words=st.lists(_WORDS, min_size=1, max_size=12))
def test_recognizer_equals_the_reference_ngram_match(entity_aliases, words):
    kb = KnowledgeBase([Entity(f"e{i}", aliases[0], tuple(aliases))
                        for i, aliases in enumerate(entity_aliases)])
    gazetteer = Gazetteer(a for aliases in entity_aliases for a in aliases)
    sentence = mk_sentence(words)
    assert (GazetteerRecognizer(kb).recognize(sentence)
            == longest_ngram_match(sentence, gazetteer))


# -- candidate generation -----------------------------------------------------


def stark_kb():
    ents = [
        Entity("e1", "Tony Stark", ("Stark",), "person"),
        Entity("e2", "Stark Tower", ("Stark",), "place"),
        Entity("e3", "Pepper", (), "person"),
    ]
    return KnowledgeBase(ents, [Triple("e1", "knows", "e3")])


def test_candidates_dictionary_hits_sorted():
    kb = stark_kb()
    c = generate_candidates(span_at(0, "Stark"), kb, None, 0)
    assert c.entities == ["e1", "e2"]
    assert c.source == "dictionary"


def test_candidates_none_when_no_source():
    kb = stark_kb()
    assert generate_candidates(span_at(0, "Thanos"), kb, None, 0) is None


def test_candidates_knn_order_and_filtering():
    # entity vectors placed at controlled distances from the query word;
    # ghost is in the table but not the KB and must be dropped
    kb = stark_kb()
    symbols = ["probe", entity_symbol("e3"), entity_symbol("e1"),
               entity_symbol("ghost"), entity_symbol("e2"), "Stark"]
    vecs = np.zeros((6, 2), dtype=np.float32)
    vecs[0] = [0.0, 0.0]          # probe
    vecs[1] = [1.0, 0.0]          # e3 nearest
    vecs[2] = [2.0, 0.0]          # e1
    vecs[3] = [0.5, 0.0]          # ghost, nearest of all but not in KB
    vecs[4] = [3.0, 0.0]          # e2 farthest
    vecs[5] = [1.0, 0.0]          # Stark, right on top of e3
    table = EmbeddingTable(symbols, vecs)

    c = generate_candidates(span_at(0, "probe"), kb, table, 5)
    assert c.entities == ["e3", "e1", "e2"]
    assert c.source == "knn"

    # a span with dictionary hits gets exactly those: no neighbours added
    c = generate_candidates(span_at(0, "Stark"), kb, table, 5)
    assert c.entities == ["e1", "e2"]
    assert c.source == "dictionary"


_CAND_WORDS = ["w0", "w1", "w2", "oov"]  # the table has no row for "oov"


@settings(max_examples=300, deadline=None)
@given(aliases=st.lists(st.sets(st.sampled_from(_CAND_WORDS), max_size=3),
                        min_size=1, max_size=6),
       coords=st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                       min_size=9, max_size=9),
       words=st.lists(st.sampled_from(_CAND_WORDS), min_size=1, max_size=2),
       with_table=st.booleans(), data=st.data())
def test_candidates_are_the_dictionary_hits_or_else_the_nearest_entities(
        aliases, coords, words, with_table, data):
    # small integer coordinates make distance ties common, and exact
    ids = [f"e{i}" for i in range(len(aliases))]
    kb = KnowledgeBase([Entity(e, f"name of {e}", tuple(sorted(a)))
                        for e, a in zip(ids, aliases)])
    symbols = _CAND_WORDS[:3] + [entity_symbol(e) for e in ids]
    vecs = np.array(coords[:len(symbols)], dtype=np.float32)
    table = EmbeddingTable(symbols, vecs) if with_table else None
    k = data.draw(st.integers(0, len(ids)), label="k")
    surface = " ".join(words)
    got = generate_candidates(span_at(0, surface), kb, table, k)

    hits = sorted(e for e, a in zip(ids, aliases) if surface in a)
    if hits:
        assert (got.entities, got.source) == (hits, "dictionary")
        return
    known = [coords[_CAND_WORDS.index(w)] for w in words if w != "oov"]
    if table is None or k == 0 or not known:
        assert got is None
        return
    query = [sum(Fraction(v[d]) for v in known) / len(known) for d in (0, 1)]
    dist2 = {e: sum((c - q) ** 2 for c, q in zip(coords[3 + i], query))
             for i, e in enumerate(ids)}
    assert (got.entities, got.source) == (sorted(ids, key=lambda e: (dist2[e], e))[:k], "knn")


def test_candidate_rejects_empty_and_duplicates():
    sp = span_at(0, "x")
    with pytest.raises(LinkError):
        Candidate(sp, [], "dictionary")
    with pytest.raises(LinkError):
        Candidate(sp, ["e1", "e1"], "dictionary")


# -- sub-graph step -----------------------------------------------------------


def test_subgraph_hand_case_links_connected_candidate():
    kb = stark_kb()
    cands = [
        Candidate(span_at(0, "Stark"), ["e1", "e2"], "dictionary"),
        Candidate(span_at(2, "Pepper"), ["e3"], "dictionary"),
    ]
    got = subgraph_link(cands, kb)
    assert got[0].entity == "e1" and got[0].method == "subgraph"
    assert got[0].score == 1.0
    assert got[1].entity == "e3" and got[1].score == 1.0


def test_subgraph_single_span_never_links():
    kb = stark_kb()
    cands = [Candidate(span_at(0, "Stark"), ["e1", "e2"], "dictionary")]
    assert subgraph_link(cands, kb) == [None]


def test_subgraph_checks_candidate_ids_only_when_there_are_pairs():
    kb = stark_kb()
    ghost = Candidate(span_at(0, "Stark"), ["e1", "ghost"], "dictionary")
    pepper = Candidate(span_at(2, "Pepper"), ["e3"], "dictionary")
    assert subgraph_link([ghost], kb) == [None]
    for pair in ([ghost, pepper], [pepper, ghost]):
        with pytest.raises(UnknownEntityError, match="ghost"):
            subgraph_link(pair, kb)


def test_subgraph_tie_stays_open():
    # both candidates of span 0 touch e3 equally often
    ents = [Entity(e, e, (), "t") for e in ("a", "b", "c")]
    kb = KnowledgeBase(ents, [Triple("a", "r", "c"), Triple("b", "r", "c")])
    cands = [
        Candidate(span_at(0, "x"), ["a", "b"], "dictionary"),
        Candidate(span_at(1, "y"), ["c"], "dictionary"),
    ]
    got = subgraph_link(cands, kb)
    assert got[0] is None
    assert got[1].entity == "c" and got[1].score == 2.0


def oracle_subgraph(cand_entities, edges):
    """Reference for the connection-counting step, driven by a plain set of
    undirected entity pairs instead of the KB adjacency structures."""
    counts = [{e: 0 for e in ents} for ents in cand_entities]
    for i in range(len(cand_entities)):
        for j in range(i + 1, len(cand_entities)):
            for a in cand_entities[i]:
                for b in cand_entities[j]:
                    if frozenset((a, b)) in edges:
                        counts[i][a] += 1
                        counts[j][b] += 1
    out = []
    for ents, cnt in zip(cand_entities, counts):
        best = max(cnt.values())
        winners = [e for e in ents if cnt[e] == best]
        out.append((winners[0], float(best)) if best > 0 and len(winners) == 1
                   else None)
    return out


def test_subgraph_matches_bruteforce_oracle_on_random_trials():
    rng = np.random.default_rng(11)
    for _ in range(300):
        m = int(rng.integers(2, 21))
        ids = [f"e{i}" for i in range(m)]
        ents = [Entity(e, e, (), "t") for e in ids]
        edges = set()
        triples = []
        for _ in range(int(rng.integers(0, 41))):
            a, b = rng.choice(m, size=2, replace=False)
            r = f"r{int(rng.integers(3))}"
            key = (ids[a], r, ids[b])
            if key not in {(t.subject, t.relation, t.object) for t in triples}:
                triples.append(Triple(*key))
                edges.add(frozenset((ids[a], ids[b])))
        kb = KnowledgeBase(ents, triples)

        n_spans = int(rng.integers(2, 6))
        cand_lists = []
        for s in range(n_spans):
            k = int(rng.integers(1, min(6, m) + 1))
            picks = sorted(rng.choice(m, size=k, replace=False))
            cand_lists.append([ids[i] for i in picks])
        cands = [Candidate(span_at(i, f"w{i}"), ents_, "dictionary")
                 for i, ents_ in enumerate(cand_lists)]

        got = subgraph_link(cands, kb)
        want = oracle_subgraph(cand_lists, edges)
        for g, w in zip(got, want):
            if w is None:
                assert g is None
            else:
                assert g is not None
                assert (g.entity, g.score) == w


def test_subgraph_counts_monotone_in_edges():
    # growing the connection set can only grow each candidate's count
    rng = np.random.default_rng(5)
    for _ in range(50):
        ids = [f"e{i}" for i in range(8)]
        cand_lists = [list(rng.choice(ids, size=3, replace=False)) for _ in range(3)]
        all_pairs = [frozenset((a, b)) for i, a in enumerate(ids)
                     for b in ids[i + 1:]]
        small = {p for p in all_pairs if rng.random() < 0.2}
        grown = small | {p for p in all_pairs if rng.random() < 0.2}

        def counts_of(edges):
            out = {}
            for i, ents in enumerate(cand_lists):
                for e in ents:
                    out[(i, e)] = 0.0
            for i in range(3):
                for j in range(i + 1, 3):
                    for a in cand_lists[i]:
                        for b in cand_lists[j]:
                            if frozenset((a, b)) in edges:
                                out[(i, a)] += 1
                                out[(j, b)] += 1
            return out

        lo, hi = counts_of(small), counts_of(grown)
        assert all(hi[k] >= v for k, v in lo.items())


# -- context step -------------------------------------------------------------


def test_hinge_loss_hand_values():
    assert hinge_loss(0.4, 0.7, 0.2) == pytest.approx(0.5, abs=1e-12)
    assert hinge_loss(0.9, 0.3, 0.2) == 0.0


def small_table(words, entity_ids, dim=6, seed=0):
    rng = np.random.default_rng(seed)
    symbols = list(words) + [entity_symbol(e) for e in entity_ids]
    vecs = rng.standard_normal((len(symbols), dim)).astype(np.float32) * 0.1
    return EmbeddingTable(symbols, vecs)


def linked_corpus():
    s1 = mk_sentence(["Stark", "built", "suits"], "s1")
    s1.spans = [Span(0, 0, "Stark", "person", linked="e1")]
    s2 = mk_sentence(["Stark", "has", "floors"], "s2")
    s2.spans = [Span(0, 0, "Stark", "place", linked="e2")]
    return [s1, s2]


def test_constructed_model_scores_and_its_saved_copy_scores_the_same_bits(tmp_path):
    table = small_table(["Stark", "met", "Pepper"], ["e1", "e2", "e3"])
    cfg = ELConfig(hidden=4, mlp_hidden=8)
    model = ContextLinkerModel(table, cfg)
    linker.save_model(model, tmp_path / "el.ckpt")
    copy = linker.load_model(tmp_path / "el.ckpt", table, cfg)
    sent = mk_sentence(["Stark", "met", "Pepper"])
    open_spans = [(0, span_at(0, "Stark"), ["e1", "e2"]), (0, span_at(2, "Pepper"), ["e3"])]
    got = [m.score_candidates(m._context_vec(sent), open_spans) for m in (model, copy)]
    assert [len(s) for s in got[0]] == [2, 1] and got[0] == got[1]


def test_train_requires_linked_spans():
    kb = stark_kb()
    table = small_table(["Stark"], ["e1", "e2", "e3"])
    with pytest.raises(LinkError):
        train_context_linker([mk_sentence(["Stark"])], kb, table,
                             ELConfig(hidden=4, mlp_hidden=8, epochs=1))


def test_train_requires_two_entities_for_negatives():
    kb = KnowledgeBase([Entity("e1", "Solo", (), "t")], [])
    table = small_table(["Solo"], ["e1"])
    s = mk_sentence(["Solo"])
    s.spans = [Span(0, 0, "Solo", "t", linked="e1")]
    with pytest.raises(LinkError):
        train_context_linker([s], kb, table,
                             ELConfig(hidden=4, mlp_hidden=8, epochs=1, knn_k=0))


def trained_model(kb=None):
    kb = kb or stark_kb()
    words = ["Stark", "built", "suits", "has", "floors", "met", "Pepper"]
    table = small_table(words, ["e1", "e2", "e3"])
    cfg = ELConfig(hidden=4, mlp_hidden=8, epochs=2, knn_k=0, seed=3)
    return table, train_context_linker(linked_corpus(), kb, table, cfg)


def test_oov_count_is_the_training_tokens_without_a_row_and_linking_leaves_it():
    kb = stark_kb()
    # "floors" has no table row, and the training corpus holds it once
    table = small_table(["Stark", "built", "suits", "has", "met", "Pepper"], ["e1", "e2", "e3"])
    model = train_context_linker(linked_corpus(), kb, table,
                                 ELConfig(hidden=4, mlp_hidden=8, epochs=2, knn_k=0, seed=3))
    assert model.oov_count == 1
    # "Zorro" has no row either; the context step reads its vector
    (decision,) = link(mk_sentence(["Stark", "met", "Zorro"]), kb, table, model,
                       GazetteerRecognizer(kb), 0)
    assert decision.method == "context"
    assert model.oov_count == 1


def test_oov_count_survives_a_save_and_load(tmp_path):
    kb = stark_kb()
    # "floors" has no table row, and the training corpus holds it once
    table = small_table(["Stark", "built", "suits", "has", "met", "Pepper"], ["e1", "e2", "e3"])
    cfg = ELConfig(hidden=4, mlp_hidden=8, epochs=1, knn_k=0, seed=3)
    linker.save_model(train_context_linker(linked_corpus(), kb, table, cfg), tmp_path / "el.ckpt")
    loaded = linker.load_model(tmp_path / "el.ckpt", table, cfg)
    assert loaded.oov_count == 1


def test_context_scores_are_pure_and_bounded():
    table, model = trained_model()
    sent = mk_sentence(["Stark", "met", "Pepper"])
    sp = span_at(0, "Stark")
    (a,) = model.score_candidates(model._context_vec(sent), [(0, sp, ["e1", "e2"])])
    (b,) = model.score_candidates(model._context_vec(sent), [(0, sp, ["e1", "e2"])])
    assert a == b
    assert all(0.0 < s < 1.0 for s in a)


def test_training_runs_singleton_candidate_negative_path():
    # every span has exactly one candidate, so negatives must come from the
    # global entity pool rather than the candidate list
    kb = KnowledgeBase([Entity("e1", "Rhodey", (), "t"),
                        Entity("e2", "Vision", (), "t")], [])
    table = small_table(["Rhodey", "flew", "Vision"], ["e1", "e2"])
    s = mk_sentence(["Rhodey", "flew"])
    s.spans = [Span(0, 0, "Rhodey", "t", linked="e1")]
    cfg = ELConfig(hidden=4, mlp_hidden=8, epochs=1, knn_k=0, seed=1)
    model = train_context_linker([s], kb, table, cfg)
    assert len(model.epoch_losses) == 1


def batch_corpus(n):
    """n sentences of 3 to 6 tokens, each with two linked spans: "Stark"
    (two candidates) and "Pepper" (one candidate, so its negatives come
    from the whole KB)."""
    out = []
    for i in range(n):
        s = mk_sentence(["Stark", "met", "Pepper"] + ["built"] * (i % 4), f"b{i}")
        s.spans = [Span(0, 0, "Stark", "person", linked="e1" if i % 2 else "e2"),
                   Span(2, 2, "Pepper", "person", linked="e3")]
        out.append(s)
    return out


def batch_items(corpus, kb):
    """The trainer's items for ``corpus`` with knn_k = 0, in its order."""
    return [(s, sp, sp.linked, generate_candidates(sp, kb, None, 0).entities)
            for s in corpus for sp in s.spans]


def float64_model(cfg, entity_ids=("e1", "e2", "e3")):
    table = small_table(["Stark", "met", "Pepper", "built"], entity_ids)
    model = ContextLinkerModel(table, cfg)
    for p in model.parameters():
        p.data = p.data.astype(np.float64)
    return model


def reference_score(model, v_c, span, entity):
    """(1, 1) score of one candidate: one scorer call on [v_c; span vector;
    entity vector]."""
    x = nn.concat([v_c, model._span_vec(span), model._entity_vec(entity)], axis=0)
    return model.scorer(x)


SCORED_ENTITIES = [f"e{i}" for i in range(1, 9)]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.sampled_from(["Stark", "Pepper", "Stark met"]),
                          st.lists(st.sampled_from(SCORED_ENTITIES), min_size=0, max_size=6,
                                   unique=True)),
                min_size=1, max_size=4))
def test_score_candidates_matches_per_candidate_scoring(open_spans):
    # open spans of four sentences encoded side by side, each span scored
    # against its sentence's column
    model = float64_model(ELConfig(hidden=4, mlp_hidden=8, seed=2), SCORED_ENTITIES)
    items = [(col, Span(0, len(surface.split()) - 1, surface), entities)
             for col, surface, entities in open_spans]
    with nn.no_grad():
        v_c = model._context_vec(*batch_corpus(4))
        expected = [[reference_score(model, nn.take(v_c, [col], axis=1), span, e).item()
                     for e in entities] for col, span, entities in items]
    got = model.score_candidates(v_c, items)
    assert [len(g) for g in got] == [len(e) for _, _, e in items]
    for (_, _, entities), g, want in zip(items, got, expected):
        np.testing.assert_allclose(g, want, rtol=0, atol=1e-12)
        rank = lambda scores: sorted(zip(entities, scores), key=lambda p: (-p[1], p[0]))
        assert [e for e, _ in rank(g)] == [e for e, _ in rank(want)]
    assert model.score_candidates(v_c, []) == []


def test_context_vec_batch_columns_equal_each_sentence_alone():
    model = float64_model(ELConfig(hidden=4, mlp_hidden=8))
    sentences = batch_corpus(4)[::-1]
    batched = model._context_vec(*sentences).data
    assert batched.shape == (8, 4)
    for b, s in enumerate(sentences):
        np.testing.assert_allclose(batched[:, b:b + 1], model._context_vec(s).data,
                                   rtol=0, atol=1e-12)


def test_single_sentence_context_vec_is_the_unbatched_encoding():
    # link-time scores of a saved model depend on this staying bit for bit
    table = small_table(["Stark", "met", "Pepper", "built"], ["e1", "e2", "e3"])
    model = ContextLinkerModel(table, ELConfig(hidden=4, mlp_hidden=8))
    s = batch_corpus(4)[3]
    out = model.encoder(nn.Tensor(np.stack([table.vector(t.surface) for t in s.tokens],
                                           axis=1))).data
    expected = np.concatenate([out[:4, -1:], out[4:, :1]])
    assert np.array_equal(model._context_vec(s).data, expected)


def test_batched_step_gradient_is_the_mean_of_per_item_gradients():
    kb = stark_kb()
    # a margin above 1 keeps every hinge positive, so every item counts
    model = float64_model(ELConfig(hidden=4, mlp_hidden=8, margin=2.0))
    items = batch_items(batch_corpus(3), kb)    # two items per sentence, 3-5 tokens
    negatives = [{"e1": "e2", "e2": "e1", "e3": "e1"}[gold] for _, _, gold, _ in items]
    params = model.parameters()

    hinges = model._hinges(items, negatives)
    assert hinges.shape == (1, len(items)) and hinges.data.min() > 0.0
    nn.mean(hinges).backward()
    batched = [p.grad.copy() for p in params]

    # per-item reference: one encoding, two scorer calls, one backward each
    margin = np.array([[model.cfg.margin]])
    for p in params:
        p.grad = None
    for (sentence, span, gold, _), neg in zip(items, negatives):
        v_c = model._context_vec(sentence)
        s_gold = reference_score(model, v_c, span, gold)
        s_neg = reference_score(model, v_c, span, neg)
        nn.relu(nn.add(nn.sub(s_neg, s_gold), margin)).backward()
    for p, g in zip(params, batched):
        np.testing.assert_allclose(g, p.grad / len(items), rtol=0, atol=1e-10,
                                   err_msg=p.name)


def test_epoch_draws_the_per_item_loops_negatives_and_steps_per_batch(monkeypatch):
    kb = stark_kb()
    corpus = batch_corpus(10)
    items = batch_items(corpus, kb)
    cfg = ELConfig(hidden=4, mlp_hidden=8, epochs=2, knn_k=0, seed=5)

    # the per-item loop's draws: one permutation per epoch, then one
    # negative per item in permutation order
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    all_ids = sorted(kb.entities)
    expected = []
    for _ in range(cfg.epochs):
        for i in rng.permutation(len(items)):
            _, _, gold, cand_ids = items[i]
            pool = [e for e in cand_ids if e != gold]
            if pool:
                neg = pool[int(rng.integers(len(pool)))]
            else:
                neg = gold
                while neg == gold:
                    neg = all_ids[int(rng.integers(len(all_ids)))]
            expected.append((i, neg))
    assert any(items[i][2] == "e3" for i, _ in expected)   # singleton path covered

    hinges, step = ContextLinkerModel._hinges, nn.Adam.step
    batches, steps = [], []

    index = {id(span): i for i, (_, span, _, _) in enumerate(items)}

    def recording_hinges(self, batch, negatives):
        batches.append([(index[id(span)], neg) for (_, span, _, _), neg in zip(batch, negatives)])
        return hinges(self, batch, negatives)

    def counting_step(self):
        steps.append(1)
        step(self)

    monkeypatch.setattr(ContextLinkerModel, "_hinges", recording_hinges)
    monkeypatch.setattr(nn.Adam, "step", counting_step)
    table = small_table(["Stark", "met", "Pepper", "built"], ["e1", "e2", "e3"])
    model = train_context_linker(corpus, kb, table, cfg)

    assert [pair for batch in batches for pair in batch] == expected
    assert [len(b) for b in batches] == [EL_BATCH, len(items) - EL_BATCH] * cfg.epochs
    assert 0 < len(steps) <= cfg.epochs * math.ceil(len(items) / EL_BATCH)
    assert len(model.epoch_losses) == cfg.epochs


def test_training_step_tape_size_independent_of_batch_size():
    def tape_nodes(loss):
        seen, stack = {id(loss)}, [loss]
        while stack:
            for parent in stack.pop()._parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        return len(seen)

    kb = stark_kb()
    table = small_table(["Stark", "met", "Pepper", "built"], ["e1", "e2", "e3"])
    model = ContextLinkerModel(table, ELConfig(hidden=4, mlp_hidden=8))
    items = batch_items(batch_corpus(8), kb)
    negatives = ["e1" if gold != "e1" else "e2" for _, _, gold, _ in items]
    sizes = [tape_nodes(nn.mean(model._hinges(items[:b], negatives[:b])))
             for b in (1, 5, EL_BATCH)]
    # the benchmark's nn.tape_nodes.el_step counts the same nodes; the
    # mean of the hinges is one of them
    assert sizes == [28, 28, 28]


# -- full two-step linking ----------------------------------------------------


def test_link_resolves_ambiguity_through_connections():
    kb = stark_kb()
    sent = mk_sentence(["Stark", "met", "Pepper"])
    got = link(sent, kb, None, None, GazetteerRecognizer(kb), knn_k=0)
    by_surface = {d.span.surface: d for d in got}
    assert by_surface["Stark"].entity == "e1"
    assert by_surface["Stark"].method == "subgraph"
    assert by_surface["Pepper"].entity == "e3"


def test_link_without_model_raises_when_context_needed():
    kb = stark_kb()
    sent = mk_sentence(["Stark", "arrived"])
    with pytest.raises(LinkError):
        link(sent, kb, None, None, GazetteerRecognizer(kb), knn_k=0)


def test_link_falls_back_to_context_ranking():
    kb = stark_kb()
    table, model = trained_model(kb)
    sent = mk_sentence(["Stark", "built", "suits"])
    got = link(sent, kb, table, model, GazetteerRecognizer(kb), knn_k=0)
    assert len(got) == 1
    assert got[0].method == "context"
    assert got[0].entity in {"e1", "e2"}
    (scores,) = model.score_candidates(model._context_vec(sent), [(0, got[0].span, ["e1", "e2"])])
    assert got[0].score == pytest.approx(max(scores), abs=1e-7)
    assert got[0].ranking[0] == got[0].entity and sorted(got[0].ranking) == ["e1", "e2"]


def test_link_sentence_encodes_each_sentence_once(monkeypatch):
    # two "Stark" spans with no connected candidate pair: both stay open
    kb = stark_kb()
    table, model = trained_model(kb)
    sent = mk_sentence(["Stark", "built", "Stark"])
    assert subgraph_link([generate_candidates(sp, kb, None, 0)
                          for sp in GazetteerRecognizer(kb).recognize(sent)], kb) == [None, None]
    encode = ContextLinkerModel._context_vec
    calls = []

    def counting(self, *sentences):
        calls.append([s.id for s in sentences])
        return encode(self, *sentences)

    monkeypatch.setattr(ContextLinkerModel, "_context_vec", counting)
    got = link_sentences([sent], kb, GazetteerRecognizer(kb), table, 0, model)[0]
    assert len(calls) == 1
    assert [d.method for d in got] == ["context", "context"]
    # bit-identical to scoring each span on its own encoding
    for d in got:
        (scores,) = model.score_candidates(encode(model, sent), [(0, d.span, ["e1", "e2"])])
        assert d.score == max(scores)
    assert link_sentences([sent], kb, GazetteerRecognizer(kb), table, 0)[0] == [None, None]


@functools.cache
def float32_linker():
    """The trained float32 context linker of trained_model()."""
    return trained_model()[1]


LINK_WORDS = st.sampled_from(["Stark", "Pepper", "met", "built", "suits", "floors"])
LINK_CORPORA = st.lists(st.lists(LINK_WORDS, min_size=1, max_size=7), min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(LINK_CORPORA, st.randoms(use_true_random=False), st.integers(1, 5), st.booleans())
def test_link_sentences_equals_each_sentence_linked_alone(word_lists, random, chunk, float64):
    # "Stark" alone stays open between two candidates, "Pepper" alone
    # between one, and the two together are decided by the sub-graph step
    kb = stark_kb()
    if float64:
        model = float64_model(ELConfig(hidden=4, mlp_hidden=8, seed=2))
    else:
        model = float32_linker()
    corpus = [mk_sentence(words, f"s{i}") for i, words in enumerate(word_lists)]
    random.shuffle(corpus)
    recognizer = GazetteerRecognizer(kb)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linker, "LINK_CHUNK", chunk)
        got = link_sentences(corpus, kb, recognizer, None, 0, model)
    assert len(got) == len(corpus)
    for sentence, decisions in zip(corpus, got):
        alone = link_sentences([sentence], kb, recognizer, None, 0, model)[0]
        assert ([(d.span, d.entity, d.method, d.ranking) for d in decisions]
                == [(d.span, d.entity, d.method, d.ranking) for d in alone])
        np.testing.assert_allclose([d.score for d in decisions], [d.score for d in alone],
                                   rtol=0, atol=1e-12 if float64 else 1e-6)


@settings(max_examples=60, deadline=None)
@given(LINK_CORPORA)
def test_each_decision_is_its_linked_span(word_lists):
    # a decision holds its entity and method once, in its span, whichever
    # step decided it and whichever entry point returned it
    assert LinkDecision.__slots__ == ("span", "score", "ranking")
    kb = stark_kb()
    corpus = [mk_sentence(words, f"s{i}") for i, words in enumerate(word_lists)]
    recognizer = GazetteerRecognizer(kb)
    cands = [[generate_candidates(sp, kb, None, 0) for sp in recognizer.recognize(s)]
             for s in corpus]
    passes = {"subgraph": [subgraph_link(c, kb) for c in cands],
              "without model": link_sentences(corpus, kb, recognizer, None, 0),
              "with model": link_sentences(corpus, kb, recognizer, None, 0, float32_linker())}
    for name, decisions in passes.items():
        methods = {"context", "subgraph"} if name == "with model" else {"subgraph"}
        for sentence_cands, ds in zip(cands, decisions, strict=True):
            for cand, d in zip(sentence_cands, ds, strict=True):
                if d is None:
                    assert name != "with model"
                    continue
                assert d.method in methods and d.entity in cand.entities
                assert (d.span.linked, d.span.method) == (d.entity, d.method)
                assert d.span.span_type == kb.entity_type(d.entity)
                assert ((d.span.start, d.span.end, d.span.surface)
                        == (cand.span.start, cand.span.end, cand.span.surface))


GAZETTEER_WORDS = ["a", "b", "c", "d", "x"]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_gazetteer_pass_is_the_same_with_vectors_and_knn(data):
    # the pipeline shares one gazetteer pass without vectors between stages
    # that would run it with the embedding table and a knn_k: every span the
    # gazetteer proposes is an alias, so its candidates are its dictionary
    # hits either way
    n = data.draw(st.integers(2, 7))
    ids = [f"e{i}" for i in range(n)]
    alias_lists = data.draw(st.lists(
        st.lists(st.sampled_from(["a", "b", "c", "a b", "b c", "d"]), max_size=2, unique=True),
        min_size=n, max_size=n))
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                               .filter(lambda p: p[0] != p[1]), max_size=12, unique=True))
    kb = KnowledgeBase([Entity(e, e, tuple(aliases), "t") for e, aliases in zip(ids, alias_lists)],
                       [Triple(ids[a], "r", ids[b]) for a, b in pairs])
    word_lists = data.draw(st.lists(st.lists(st.sampled_from(GAZETTEER_WORDS), min_size=1,
                                             max_size=8), min_size=1, max_size=6))
    corpus = [mk_sentence(words, f"s{i}") for i, words in enumerate(word_lists)]
    table = small_table(GAZETTEER_WORDS, ids, seed=data.draw(st.integers(0, 3)))
    k = data.draw(st.integers(1, n))
    recognizer = GazetteerRecognizer(kb)
    assert (link_sentences(corpus, kb, recognizer, table, k)
            == link_sentences(corpus, kb, recognizer, None, 0))


class OneSpanRecognizer:
    """Proposes one fixed span, as a trained span classifier may propose a
    surface that no KB alias has."""

    def __init__(self, span):
        self.span = span

    def recognize(self, sentence):
        return [self.span]


def test_link_sentence_asks_knn_only_for_a_span_outside_the_alias_table():
    kb = stark_kb()
    table, model = trained_model(kb)
    sent = mk_sentence(["suits", "built"])
    recognizer = OneSpanRecognizer(span_at(0, "suits"))
    assert not kb.entities_by_alias("suits")
    nearest = [e for e, _ in knn_candidates(table, "suits", 2)]
    (got,) = link_sentences([sent], kb, recognizer, table, 2, model)[0]
    assert (got.method, got.span.surface) == ("context", "suits")
    assert got.entity == got.ranking[0] and sorted(got.ranking) == sorted(nearest)
    assert got.span.linked == got.entity
    assert link_sentences([sent], kb, recognizer, table, 2)[0] == [None]
    assert link_sentences([sent], kb, recognizer, table, 0, model)[0] == []
    assert link_sentences([sent], kb, recognizer, None, 2, model)[0] == []


# -- span classifier ------------------------------------------------------------


def reference_features(clf, sentence, start, end):
    """The seven feature buckets of one n-gram, every feature hashed on its
    own: what TrainableSpanClassifier._feature_rows must reproduce bit for
    bit."""
    toks = sentence.tokens
    surface = sentence.surface(start, end)

    def ctx(i):
        return toks[i].surface if 0 <= i < len(toks) else "<s>"

    feats = [f"surf={surface}", f"len={end - start + 1}",
             f"gaz={bool(clf.kb.entities_by_alias(surface))}",
             f"l1={ctx(start - 1)}", f"l2={ctx(start - 2)}",
             f"r1={ctx(end + 1)}", f"r2={ctx(end + 2)}"]
    return [zlib.crc32(f.encode("utf-8")) % clf.feature_dim for f in feats]


def reference_span_train(clf, corpus, rng):
    """TrainableSpanClassifier.train converting each item's feature list to
    an index on every step: what the trainer must reproduce bit for bit."""
    clf.max_span_len = max(sp.end - sp.start + 1 for s in corpus for sp in s.spans)
    items = []
    for sentence in corpus:
        gold = {(sp.start, sp.end) for sp in sentence.spans}
        for se in sorted(gold):
            items.append((reference_features(clf, sentence, *se), 1.0))
        negs = [se for se in clf._ngrams(sentence) if se not in gold]
        if len(negs) > clf.negatives_per_sentence:
            picks = rng.choice(len(negs), size=clf.negatives_per_sentence, replace=False)
            negs = [negs[i] for i in sorted(picks)]
        for se in negs:
            items.append((reference_features(clf, sentence, *se), 0.0))
    for _ in range(clf.epochs):
        for i in rng.permutation(len(items)):
            idx, y = items[i]
            z = clf.weights[idx].sum() + clf.bias
            g = 1.0 / (1.0 + np.exp(-z)) - y
            np.subtract.at(clf.weights, idx, clf.lr * g)
            clf.bias -= clf.lr * g


def reference_recognize(clf, sentence):
    """TrainableSpanClassifier.recognize hashing and scoring one n-gram at a
    time: what the one-product scoring must reproduce bit for bit."""
    scored = []
    for start, end in clf._ngrams(sentence):
        z = clf.weights[reference_features(clf, sentence, start, end)].sum() + clf.bias
        p = 1.0 / (1.0 + np.exp(-z))
        if p > 0.5:
            scored.append((p, start, end))
    scored.sort(key=lambda t: (-t[0], t[1], t[1] - t[2]))
    taken = []
    for _, start, end in scored:
        if all(end < s or e < start for s, e in taken):
            taken.append((start, end))
    return [Span(start, end, sentence.surface(start, end)) for start, end in sorted(taken)]


def wide_span_classifier(feature_table=None):
    """A classifier trained on gold spans three tokens wide, over a KB whose
    aliases are one token wide."""
    kb = KnowledgeBase([Entity("e1", "Tony"), Entity("e2", "Pepper")])
    corpus = [mk_sentence(["Tony", "Stark", "Jr", "met", "Pepper"], f"w{i}",
                          [Span(0, 2, "Tony Stark Jr"), Span(4, 4, "Pepper")])
              for i in range(3)]
    corpus.append(mk_sentence(["Pepper", "saw", "Tony"], "w3", [Span(2, 2, "Tony")]))
    clf = TrainableSpanClassifier(
        kb, BootstrapConfig(classifier_feature_dim=64, classifier_epochs=4), feature_table)
    return clf, kb, corpus


def test_span_classifier_step_moves_a_repeated_bucket_once_per_repeat():
    # one single-token gold span and no negatives: one step from zero
    # weights, where p = 0.5 and g = p - 1
    kb = KnowledgeBase([Entity("e1", "Tony")])
    sentence = mk_sentence(["Tony"], spans=[Span(0, 0, "Tony")])
    clf = TrainableSpanClassifier(
        kb, BootstrapConfig(classifier_feature_dim=3, classifier_lr=0.5, classifier_epochs=1))
    counts = np.bincount(reference_features(clf, sentence, 0, 0), minlength=3)
    assert counts.max() > 1  # seven features in three buckets
    clf.train([sentence], np.random.default_rng(0))
    np.testing.assert_array_equal(clf.weights, -0.5 * (0.5 - 1.0) * counts)
    assert clf.bias == 0.25


@pytest.mark.parametrize("feature_dim", [4096, 16])
def test_span_classifier_training_matches_per_step_conversion(fixture_dir, feature_dim):
    # 16 buckets make features of one span collide (repeated indexes)
    kb = load_kb(fixture_dir / "entities.tsv", fixture_dir / "triples.tsv")
    raw = ingest_corpus(fixture_dir / "corpus.jsonl")[:300]
    corpus = _extract_once(raw, kb, None, GazetteerRecognizer(kb), BootstrapConfig(knn_k=0))
    assert corpus
    cfg = BootstrapConfig(classifier_feature_dim=feature_dim, classifier_epochs=3)
    trained, reference = (TrainableSpanClassifier(kb, cfg) for _ in "ab")
    rng_a, rng_b = (np.random.Generator(np.random.PCG64(2)) for _ in "ab")
    trained.train(corpus, rng_a)
    reference_span_train(reference, corpus, rng_b)
    assert trained.weights.tobytes() == reference.weights.tobytes()
    assert trained.bias == reference.bias
    assert trained.max_span_len == reference.max_span_len
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def classifier_train_peak(kb, corpus) -> tuple[int, int]:
    """(tracemalloc peak of one TrainableSpanClassifier.train over what was
    allocated before it, training items), read from a feature table filled
    beforehand, as in bootstrap rounds after the first."""
    table: dict[str, np.ndarray] = {}
    clf = TrainableSpanClassifier(kb, BootstrapConfig(), table)
    clf.max_span_len = max(sp.end - sp.start + 1 for s in corpus for sp in s.spans)
    items = 0
    for s in corpus:
        gold = len({(sp.start, sp.end) for sp in s.spans})
        rows = clf._feature_rows(s, clf._ngrams(s))
        items += gold + min(len(rows) - gold, clf.negatives_per_sentence)
    return traced_peak(lambda: clf.train(corpus, np.random.default_rng(0))), items


def test_span_classifier_training_peak_per_item_stays_flat(fixture_dir):
    # an item holds a list of its seven buckets' shared int objects, its
    # slot in the item and label lists, and its place in an epoch's
    # permutation: 179 bytes. Items as lists of their own ints, from the
    # round's concatenated array, took 476 bytes each.
    kb = load_kb(fixture_dir / "entities.tsv", fixture_dir / "triples.tsv")
    raw = ingest_corpus(fixture_dir / "corpus.jsonl")
    corpus = _extract_once(raw, kb, None, GazetteerRecognizer(kb), BootstrapConfig(knn_k=0))
    (small, n_small), (large, n_large) = (classifier_train_peak(kb, corpus[:n])
                                          for n in (250, 1000))
    assert n_large > 3 * n_small
    assert large / n_large <= small / n_small
    assert (large - small) / (n_large - n_small) < 256


def test_span_classifier_trains_on_a_span_wider_than_every_alias():
    trained, kb, corpus = wide_span_classifier(feature_table={})
    reference = wide_span_classifier()[0]
    rng_a, rng_b = (np.random.Generator(np.random.PCG64(5)) for _ in "ab")
    trained.train(corpus, rng_a)
    reference_span_train(reference, corpus, rng_b)
    assert trained.max_span_len == 3 > kb.max_alias_tokens
    assert trained.weights.tobytes() == reference.weights.tobytes()
    assert trained.bias == reference.bias
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 8), top=st.integers(1, 4))
def test_span_ngrams_are_ordered_by_width_then_start(n, top):
    # the one order that hashing, recognition and the gold rows read
    clf = TrainableSpanClassifier(KnowledgeBase([Entity("e1", "Tony")]),
                                  BootstrapConfig(classifier_feature_dim=64))
    clf.max_span_len = top
    sentence = mk_sentence([f"w{i}" for i in range(n)])
    want = []
    for width in range(1, min(top, n) + 1):
        want += [(start, start + width - 1) for start in range(n - width + 1)]
    assert clf._ngrams(sentence) == want
    assert clf._feature_rows(sentence, want).shape == (len(want), 7)


@settings(max_examples=60, deadline=None)
@given(words=st.lists(st.sampled_from(["Tony", "Stark", "Pepper", "met", "<s>", "a b"]),
                      max_size=9),
       widths=st.lists(st.integers(1, 5), min_size=1, max_size=3),
       feature_dim=st.sampled_from([5, 4096]), shared=st.booleans())
def test_span_feature_rows_match_the_per_ngram_reference(words, widths, feature_dim, shared):
    # the widest span grows and shrinks between calls, so a shared feature
    # table is hashed again whole when it falls short and read back in part
    kb = KnowledgeBase([Entity("e1", "Tony Stark", ("Tony", "Tony Stark")),
                        Entity("e2", "Pepper")])
    clf = TrainableSpanClassifier(kb, BootstrapConfig(classifier_feature_dim=feature_dim),
                                  feature_table={} if shared else None)
    sentence = mk_sentence(words)
    hashed = []
    bucket = clf._bucket
    clf._bucket = lambda feat: hashed.append(feat) or bucket(feat)
    n, done = len(words), 0  # done: the widest width in the table
    for width in widths:
        hashed.clear()
        clf.max_span_len = width
        want = [reference_features(clf, sentence, *se) for se in clf._ngrams(sentence)]
        got = clf._feature_rows(sentence, clf._ngrams(sentence))
        assert got.shape == (len(want), 7)
        assert got.tolist() == want
        # seven features per n-gram up to `top` wide when the table falls
        # short of it; none when the table holds every width
        top = min(width, n)
        assert len(hashed) == (7 * sum(n - w + 1 for w in range(1, top + 1)) if top > done else 0)
        if shared:
            done = max(done, top)


@pytest.mark.parametrize("feature_dim", [4096, 16])
def test_span_classifier_recognition_matches_per_ngram_reference(fixture_dir, feature_dim):
    # trained through a feature table, as the bootstrap does: training fills
    # it and recognition reads and extends it
    kb = load_kb(fixture_dir / "entities.tsv", fixture_dir / "triples.tsv")
    raw = ingest_corpus(fixture_dir / "corpus.jsonl")[:300]
    corpus = _extract_once(raw, kb, None, GazetteerRecognizer(kb), BootstrapConfig(knn_k=0))
    cfg = BootstrapConfig(classifier_feature_dim=feature_dim, classifier_epochs=3)
    clf = TrainableSpanClassifier(kb, cfg, feature_table={})
    clf.train(corpus, np.random.Generator(np.random.PCG64(2)))
    got = [clf.recognize(s) for s in raw]
    assert got == [reference_recognize(clf, s) for s in raw]
    assert sum(map(len, got)) > len(raw)
    # sentences shorter than the widest trained span, down to one token
    assert clf.max_span_len == 2
    shorts = [Sentence(f"{s.id}-1", s.tokens[:1]) for s in raw]
    got = [clf.recognize(s) for s in shorts]
    assert got == [reference_recognize(clf, s) for s in shorts]
    assert any(got)


def test_span_classifier_recognizes_sentences_shorter_than_its_widest_span():
    clf, _, corpus = wide_span_classifier()
    clf.train(corpus, np.random.Generator(np.random.PCG64(5)))
    shorts = [mk_sentence(words) for words in
              (["Tony"], ["Pepper", "met"], ["Tony", "Stark"], ["saw", "Pepper"], [])]
    got = [clf.recognize(s) for s in shorts]
    assert got == [reference_recognize(clf, s) for s in shorts]
    assert any(got)
