import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbforge import embeddings
from kbforge.corpus import Sentence, Span, Token
from kbforge.embeddings import (
    SGD_BLOCK,
    EmbeddingError,
    EmbeddingTable,
    SkipGramConfig,
    entity_symbol,
    init_vectors,
    is_entity_symbol,
    knn_candidates,
    load_table,
    save_table,
    train_joint_embeddings,
    train_node_embeddings,
)
from kbforge.kb import Entity, KnowledgeBase, Triple


def test_entity_symbol_round_trip():
    sym = entity_symbol("e42")
    assert is_entity_symbol(sym)
    assert not is_entity_symbol("word")


def test_init_vectors_range_scales_with_dim():
    rng = np.random.default_rng(0)
    v = init_vectors(rng, 100, 50)
    assert v.dtype == np.float32
    assert np.abs(v).max() <= 0.5 / 50 + 1e-9


def test_table_rejects_duplicate_symbols():
    with pytest.raises(EmbeddingError):
        EmbeddingTable(["a", "a"], np.zeros((2, 3), dtype=np.float32))


def test_table_rejects_nonfinite_vectors():
    bad = np.zeros((1, 3), dtype=np.float32)
    bad[0, 0] = np.nan
    with pytest.raises(EmbeddingError):
        EmbeddingTable(["a"], bad)


def test_table_save_load_exact(tmp_path):
    rng = np.random.default_rng(3)
    vecs = rng.standard_normal((3, 4)).astype(np.float32)
    symbols = ["w", entity_symbol("e1"), "z"]
    table = EmbeddingTable(symbols, vecs)
    path = tmp_path / "table.vec"
    save_table(table, path)
    back = load_table(path)
    assert back.symbols == table.symbols
    assert np.array_equal(back.vectors, table.vectors)


def chain_kb(n: int = 6) -> KnowledgeBase:
    ents = [Entity(f"e{i}", f"E{i}", (f"E{i}",)) for i in range(n)]
    triples = [Triple(f"e{i}", "r", f"e{i+1}") for i in range(n - 1)]
    return KnowledgeBase(ents, triples)


def test_node_embeddings_zero_epochs_returns_init():
    kb = chain_kb()
    cfg = SkipGramConfig(dim=8, epochs=0, seed=1)
    table = train_node_embeddings(kb, cfg)
    assert len(table.symbols) == 6
    assert np.abs(table.vectors).max() <= 0.5 / 8 + 1e-9
    assert table.epoch_losses == []


def test_node_embeddings_neighbors_closer_than_strangers():
    # two dense cliques with a single bridge; in-clique pairs should end up
    # closer than cross-clique pairs
    ents = [Entity(f"a{i}", f"A{i}", (f"A{i}",)) for i in range(4)]
    ents += [Entity(f"b{i}", f"B{i}", (f"B{i}",)) for i in range(4)]
    triples = []
    for i in range(4):
        for j in range(i + 1, 4):
            triples.append(Triple(f"a{i}", "r", f"a{j}"))
            triples.append(Triple(f"b{i}", "r", f"b{j}"))
    triples.append(Triple("a0", "r", "b0"))
    kb = KnowledgeBase(ents, triples)
    table = train_node_embeddings(kb, SkipGramConfig(dim=16, epochs=40, seed=0,
                                                     learning_rate=0.1))
    vec = {s: table.vectors[table.index[s]].astype(np.float64)
           for s in table.symbols}

    def dist(x, y):
        return np.linalg.norm(vec[entity_symbol(x)] - vec[entity_symbol(y)])

    within = np.mean([dist("a1", "a2"), dist("a1", "a3"), dist("b1", "b2"),
                      dist("b1", "b3")])
    across = np.mean([dist("a1", "b1"), dist("a2", "b2"), dist("a1", "b3"),
                      dist("a3", "b2")])
    assert within < across


def test_node_embeddings_deterministic():
    kb = chain_kb()
    cfg = SkipGramConfig(dim=8, epochs=3, seed=9)
    t1 = train_node_embeddings(kb, cfg)
    t2 = train_node_embeddings(kb, cfg)
    assert np.array_equal(t1.vectors, t2.vectors)
    assert t1.epoch_losses == t2.epoch_losses


def linked_sentence(sid, words, links) -> Sentence:
    tokens = [Token(i, w, "NN", i - 1 if i else -1) for i, w in enumerate(words)]
    spans = [Span(i, i, words[i], None, eid, "subgraph") for i, eid in links]
    return Sentence(sid, tokens, spans)


def joint_inputs():
    kb = chain_kb(3)
    sents = [
        linked_sentence("s1", ["E0", "met", "E1"], [(0, "e0"), (2, "e1")]),
        linked_sentence("s2", ["E1", "met", "E2"], [(0, "e1"), (2, "e2")]),
        linked_sentence("s3", ["E0", "spoke", "there"], [(0, "e0")]),
    ]
    return kb, sents


def test_joint_embeddings_cover_both_namespaces():
    kb, sents = joint_inputs()
    node = train_node_embeddings(kb, SkipGramConfig(dim=8, epochs=1, seed=0))
    table = train_joint_embeddings(sents, kb, node,
                                   SkipGramConfig(dim=8, epochs=2, seed=0))
    assert entity_symbol("e0") in table.index
    assert "met" in table.index
    assert len(table.epoch_losses) == 2
    assert all(np.isfinite(l) for l in table.epoch_losses)


def test_joint_embeddings_empty_corpus_error():
    kb, _ = joint_inputs()
    node = train_node_embeddings(kb, SkipGramConfig(dim=8, epochs=0, seed=0))
    with pytest.raises(EmbeddingError):
        train_joint_embeddings([], kb, node, SkipGramConfig(dim=8, seed=0))


def test_joint_embeddings_reject_reserved_words():
    kb, sents = joint_inputs()
    node = train_node_embeddings(kb, SkipGramConfig(dim=8, epochs=0, seed=0))
    poisoned = sents + [linked_sentence("s4", [entity_symbol("e0"), "x"], [])]
    with pytest.raises(EmbeddingError):
        train_joint_embeddings(poisoned, kb, node, SkipGramConfig(dim=8, seed=0))


def test_joint_embeddings_deterministic():
    kb, sents = joint_inputs()
    cfg = SkipGramConfig(dim=8, epochs=2, seed=4)
    node = train_node_embeddings(kb, cfg)
    t1 = train_joint_embeddings(sents, kb, node, cfg)
    t2 = train_joint_embeddings(sents, kb, node, cfg)
    assert np.array_equal(t1.vectors, t2.vectors)


# -- block-sampled SGD --------------------------------------------------------

def reference_sgd_pairs(vectors, ctx, centers, contexts, lrs, sampler, rng, k, loss_out):
    """Negative-sampling SGD drawing, updating and scoring one pair at a
    time: what the block version must reproduce bit for bit."""
    for center, context, lr in zip(centers, contexts, lrs):
        negs = sampler.pick(np.array([context]), rng.random((1, k)))[0]
        rows = np.concatenate(([context], negs))
        labels = np.zeros(len(rows))
        labels[0] = 1.0
        w = vectors[center].astype(np.float64)
        c = ctx[rows].astype(np.float64)
        scores = 1.0 / (1.0 + np.exp(-(c @ w)))
        p = np.clip(np.where(labels > 0, scores, 1.0 - scores), 1e-10, 1.0)
        loss_out.append(float(-np.log(p).sum()))
        g = scores - labels
        grad_w = g @ c
        np.add.at(ctx, rows, (-lr * np.outer(g, w)).astype(ctx.dtype))
        vectors[center] -= (lr * grad_w).astype(vectors.dtype)


def run_both_sgd(seed, n_words, n_entities, dim, n_pairs, k):
    """Runs reference and block SGD on the same inputs; words and entities
    are two namespaces of one sampler, as in joint training. Returns both
    outcomes."""
    gen = np.random.default_rng(seed)
    rows = n_words + n_entities
    vectors = init_vectors(gen, rows, dim)
    ctx = gen.normal(0.0, 0.3, (rows, dim)).astype(np.float32)
    symbols = [f"r{i}" for i in range(rows)]
    sampler = embeddings._NegativeSampler(
        {s: i for i, s in enumerate(symbols)},
        [dict(zip(symbols[:n_words], gen.integers(1, 50, n_words))),
         dict(zip(symbols[n_words:], gen.integers(1, 5, n_entities)))])
    pairs = gen.integers(0, rows, (n_pairs, 2))
    lrs = 0.05 * np.maximum(1 - np.arange(n_pairs) / max(n_pairs, 1), 1e-4)
    outcomes = []
    for sgd in (reference_sgd_pairs, embeddings._sgd_pairs):
        v, c = vectors.copy(), ctx.copy()
        rng = np.random.Generator(np.random.PCG64(seed))
        losses = []
        sgd(v, c, pairs[:, 0], pairs[:, 1], lrs, sampler, rng, k, losses)
        outcomes.append((v, c, losses, rng.bit_generator.state))
    return outcomes


def assert_same_sgd(ref, blocked):
    assert ref[0].tobytes() == blocked[0].tobytes()
    assert ref[1].tobytes() == blocked[1].tobytes()
    assert ref[2] == blocked[2]
    assert ref[3] == blocked[3]


def test_block_sgd_is_bit_identical_to_pair_by_pair_sgd():
    # 3 entity rows and k=10 make every entity-context pair repeat a row;
    # 400 word rows leave most word pairs distinct
    n_pairs = 2 * SGD_BLOCK + 37
    ref, blocked = run_both_sgd(5, n_words=400, n_entities=3, dim=16,
                                n_pairs=n_pairs, k=10)
    assert len(ref[2]) == n_pairs
    assert_same_sgd(ref, blocked)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), n_words=st.integers(1, 60),
       n_entities=st.integers(1, 20), dim=st.integers(1, 12),
       n_pairs=st.integers(0, 2 * SGD_BLOCK + 3), k=st.integers(1, 12))
def test_block_sgd_matches_pair_by_pair_sgd_at_any_size(seed, n_words, n_entities,
                                                        dim, n_pairs, k):
    assert_same_sgd(*run_both_sgd(seed, n_words, n_entities, dim, n_pairs, k))


def test_train_pairs_matches_a_rate_decayed_pair_by_pair():
    # two non-empty pair sets around an empty one, over three epochs
    gen = np.random.default_rng(3)
    vectors = init_vectors(gen, 30, 6)
    table = EmbeddingTable([f"w{i}" for i in range(30)], vectors.copy())
    sampler = embeddings._NegativeSampler(
        table.index, [dict(zip(table.symbols[:20], gen.integers(1, 9, 20))),
                      dict.fromkeys(table.symbols[20:], 1)])
    pair_sets = [gen.integers(0, 30, (300, 2)), np.zeros((0, 2), np.int64),
                 gen.integers(20, 30, (40, 2))]
    cfg = SkipGramConfig(dim=6, epochs=3, negatives=4)
    rng = np.random.Generator(np.random.PCG64(1))
    embeddings._train_pairs(table, pair_sets, sampler, rng, cfg)

    ref_vectors, ctx = vectors.copy(), np.zeros_like(vectors)
    ref_rng = np.random.Generator(np.random.PCG64(1))
    step, total, epoch_losses = 0, cfg.epochs * 340, []
    for _ in range(cfg.epochs):
        losses = []
        for pairs in pair_sets[::2]:
            order = ref_rng.permutation(len(pairs))
            lrs = []
            for _ in order:
                lrs.append(cfg.learning_rate * max(1.0 - step / total, 1e-4))
                step += 1
            reference_sgd_pairs(ref_vectors, ctx, pairs[order, 0], pairs[order, 1], lrs,
                                sampler, ref_rng, cfg.negatives, losses)
        epoch_losses.append(float(np.mean(losses)))
    assert table.vectors.tobytes() == ref_vectors.tobytes()
    assert table.epoch_losses == epoch_losses
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# -- nearest-neighbour candidates ---------------------------------------------

def random_table(rng, n_words=8, n_entities=10, dim=6) -> EmbeddingTable:
    symbols = [f"w{i}" for i in range(n_words)]
    symbols += [entity_symbol(f"e{i}") for i in range(n_entities)]
    vecs = rng.standard_normal((len(symbols), dim)).astype(np.float32)
    return EmbeddingTable(symbols, vecs)


def test_knn_matches_brute_force():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        table = random_table(rng)
        phrase = "w0 w3"
        got = knn_candidates(table, phrase, 4)

        query = (table.vectors[table.index["w0"]].astype(np.float64)
                 + table.vectors[table.index["w3"]].astype(np.float64)) / 2
        scored = []
        for i in range(10):
            sym = entity_symbol(f"e{i}")
            d = np.linalg.norm(table.vectors[table.index[sym]].astype(np.float64)
                               - query)
            scored.append((d, f"e{i}"))
        scored.sort()
        expected = [e for _, e in scored[:4]]
        assert [e for e, _ in got] == expected


def test_knn_ignores_oov_and_entity_tokens():
    rng = np.random.default_rng(0)
    table = random_table(rng)
    assert knn_candidates(table, "unknown words only", 3) == []
    with_entity = knn_candidates(table, f"w0 {entity_symbol('e1')}", 3)
    plain = knn_candidates(table, "w0", 3)
    assert [e for e, _ in with_entity] == [e for e, _ in plain]


def test_knn_rejects_nonpositive_k():
    rng = np.random.default_rng(0)
    table = random_table(rng)
    with pytest.raises(ValueError):
        knn_candidates(table, "w0", 0)
