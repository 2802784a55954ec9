import tracemalloc
from collections import defaultdict

import numpy as np
import pytest
from conftest import traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st

from kbforge import embeddings
from kbforge.corpus import Sentence, Span, Token, ingest_corpus, make_span
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
from kbforge.kb import Entity, KnowledgeBase, Triple, load_kb
from kbforge.synth import load_gold_links


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


def test_table_round_trips_float32_bit_patterns_in_nine_digits(tmp_path):
    f32 = np.finfo(np.float32)
    edges = np.array([0.0, -0.0, f32.smallest_subnormal, -f32.smallest_subnormal,
                      f32.smallest_normal, -f32.smallest_normal, f32.max, -f32.max, 1.0, -1.0,
                      np.nextafter(f32.smallest_normal, np.float32(0))], dtype=np.float32)
    bits = np.random.default_rng(5).integers(0, 2**32, size=40_000, dtype=np.uint64)
    drawn = bits.astype(np.uint32).view(np.float32)
    values = np.concatenate([edges, drawn[np.isfinite(drawn)]])
    values = values[: len(values) // 16 * 16].reshape(-1, 16)
    table = EmbeddingTable([f"s{i}" for i in range(len(values))], values)
    path = tmp_path / "table.vec"
    save_table(table, path)
    assert load_table(path).vectors.tobytes() == values.tobytes()
    written = [v for line in path.read_text().splitlines()[1:] for v in line.split()[1:]]
    digits = {len(v.lstrip("-").split("e")[0].replace(".", "").lstrip("0")) for v in written}
    assert max(digits) <= 9


def test_save_table_refuses_nonfinite_vectors_naming_the_first(tmp_path):
    table = EmbeddingTable(["a", "b", "c"], np.zeros((3, 2), dtype=np.float32))
    table.vectors[1, 1] = np.inf  # as training leaves a diverged row
    table.vectors[2, 0] = np.nan
    path = tmp_path / "table.vec"
    with pytest.raises(EmbeddingError, match="non-finite vector for symbol 'b'"):
        save_table(table, path)
    assert not path.exists()


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


# -- block SGD ----------------------------------------------------------------

# float32 rounding: the block code sums a row's updates in float64 and
# casts once, where the reference adds each float32 update in turn
F32_TOL = dict(rtol=1e-5, atol=1e-6)


def reference_sgd_pairs(vectors, ctx, centers, contexts, lrs, sampler, rng, k, loss_out):
    """Negative-sampling SGD drawing, updating and scoring one pair at a
    time: what _sgd_pairs does in blocks of one pair."""
    for i, (center, context, lr) in enumerate(zip(centers, contexts, lrs)):
        negs = sampler.pick(np.array([context]), rng.random((1, k)))[0]
        rows = np.concatenate(([context], negs))
        labels = np.zeros(len(rows))
        labels[0] = 1.0
        w = vectors[center].astype(np.float64)
        c = ctx[rows].astype(np.float64)
        scores = 1.0 / (1.0 + np.exp(-(c @ w)))
        p = np.clip(np.where(labels > 0, scores, 1.0 - scores), 1e-10, 1.0)
        loss_out[i] = -np.log(p).sum()
        g = scores - labels
        grad_w = g @ c
        np.add.at(ctx, rows, (-lr * np.outer(g, w)).astype(ctx.dtype))
        vectors[center] -= (lr * grad_w).astype(vectors.dtype)


def reference_block_sgd(vectors, ctx, centers, contexts, lrs, sampler, rng, k, loss_out):
    """_sgd_pairs written out: each block of SGD_BLOCK pairs draws its
    negatives in one call and scores every pair against the rows as they
    were when the block began. Then each row gets the float64 sum of its
    updates in pair order, scaled to k+1 times their mean when more than
    k+1 updates name it."""
    for lo in range(0, len(centers), SGD_BLOCK):
        hi = min(lo + SGD_BLOCK, len(centers))
        negs = sampler.pick(contexts[lo:hi], rng.random((hi - lo, k)))
        v_snap, c_snap = vectors.copy(), ctx.copy()
        v_ups, c_ups = {}, {}  # row -> its updates in pair order
        for j in range(lo, hi):
            w = v_snap[centers[j]].astype(np.float64)
            grad_w, loss = np.zeros_like(w), 0.0
            for i, row in enumerate([contexts[j], *negs[j - lo]]):
                c = c_snap[row].astype(np.float64)
                score = 1.0 / (1.0 + np.exp(-(c @ w)))
                label = 1.0 if i == 0 else 0.0
                loss -= np.log(np.clip(score if label else 1.0 - score, 1e-10, 1.0))
                grad_w += (score - label) * c
                c_ups.setdefault(row, []).append(-lrs[j] * (score - label) * w)
            v_ups.setdefault(centers[j], []).append(-lrs[j] * grad_w)
            loss_out[j] = loss
        for table, ups in ((vectors, v_ups), (ctx, c_ups)):
            for row, row_ups in ups.items():
                total = np.zeros(table.shape[1])
                for u in row_ups:
                    total += u
                if len(row_ups) > k + 1:
                    total *= (k + 1) / len(row_ups)
                table[row] += total.astype(table.dtype)


def run_both_sgd(reference, seed, n_words, n_entities, dim, n_pairs, k):
    """Runs ``reference`` and _sgd_pairs on the same inputs; words and
    entities are two namespaces of one sampler, as in joint training.
    Returns both outcomes."""
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
    for sgd in (reference, sgd_pairs_in_order):
        v, c = vectors.copy(), ctx.copy()
        rng = np.random.Generator(np.random.PCG64(seed))
        losses = np.full(n_pairs, np.nan)
        sgd(v, c, pairs[:, 0], pairs[:, 1], lrs, sampler, rng, k, losses)
        outcomes.append((v, c, losses, rng.bit_generator.state))
    return outcomes


def sgd_pairs_in_order(vectors, ctx, centers, contexts, lrs, sampler, rng, k, loss_out):
    """_sgd_pairs over the pairs in the order given, with the reference
    functions' arguments."""
    embeddings._sgd_pairs(vectors, ctx, np.arange(len(centers)),
                          np.stack([centers, contexts], axis=1), lambda i: lrs[i],
                          sampler, rng, k, loss_out)


def assert_close_sgd(ref, blocked):
    np.testing.assert_allclose(blocked[0], ref[0], **F32_TOL)
    np.testing.assert_allclose(blocked[1], ref[1], **F32_TOL)
    np.testing.assert_allclose(blocked[2], ref[2], **F32_TOL)
    assert ref[3] == blocked[3]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), n_words=st.integers(1, 60),
       n_entities=st.integers(1, 20), dim=st.integers(1, 12),
       n_pairs=st.integers(0, 300), k=st.integers(1, 12))
def test_sgd_in_blocks_of_one_matches_pair_by_pair_sgd(seed, n_words, n_entities, dim,
                                                       n_pairs, k):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(embeddings, "SGD_BLOCK", 1)
        assert_close_sgd(*run_both_sgd(reference_sgd_pairs, seed, n_words, n_entities,
                                       dim, n_pairs, k))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**16), n_words=st.integers(1, 400),
       n_entities=st.integers(1, 20), dim=st.integers(1, 16),
       n_pairs=st.integers(0, 2 * SGD_BLOCK + 3), k=st.integers(1, 12))
def test_sgd_matches_a_written_out_block_reference(seed, n_words, n_entities, dim,
                                                   n_pairs, k):
    # a few entity rows make a block name each of them far more than k+1
    # times, so the cap is exercised
    assert_close_sgd(*run_both_sgd(reference_block_sgd, seed, n_words, n_entities,
                                   dim, n_pairs, k))


def reference_train_pairs(table, pair_sets, sampler, rng, cfg):
    """_train_pairs over reference_sgd_pairs, with the rate computed pair by
    pair. Zero pairs train nothing and record no epoch."""
    step, total = 0, cfg.epochs * sum(map(len, pair_sets))
    if total == 0:
        return
    ctx = np.zeros_like(table.vectors)
    for _ in range(cfg.epochs):
        losses = []
        for pairs in pair_sets:
            order = rng.permutation(len(pairs))
            lrs = []
            for _ in order:
                lrs.append(cfg.learning_rate * max(1.0 - step / total, 1e-4))
                step += 1
            pair_losses = np.full(len(pairs), np.nan)
            reference_sgd_pairs(table.vectors, ctx, pairs[order, 0], pairs[order, 1], lrs,
                                sampler, rng, cfg.negatives, pair_losses)
            losses.extend(pair_losses)
        table.epoch_losses.append(float(np.mean(losses)))


@settings(max_examples=10, deadline=None)
@given(sizes=st.lists(st.integers(0, 200), min_size=1, max_size=3),
       epochs=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_train_pairs_in_blocks_of_one_match_a_rate_decayed_pair_by_pair(sizes, epochs, seed):
    gen = np.random.default_rng(seed)
    vectors = init_vectors(gen, 30, 6)
    symbols = [f"w{i}" for i in range(30)]
    sampler = embeddings._NegativeSampler(
        dict(zip(symbols, range(30))), [dict(zip(symbols[:20], gen.integers(1, 9, 20))),
                                        dict.fromkeys(symbols[20:], 1)])
    pair_sets = [gen.integers(0, 30, (n, 2)) for n in sizes]
    cfg = SkipGramConfig(dim=6, epochs=epochs, negatives=4)
    tables, rngs = [], []
    for train in (embeddings._train_pairs, reference_train_pairs):
        table = EmbeddingTable(symbols, vectors.copy())
        rng = np.random.Generator(np.random.PCG64(seed))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(embeddings, "SGD_BLOCK", 1)
            train(table, pair_sets, sampler, rng, cfg)
        tables.append(table)
        rngs.append(rng.bit_generator.state)
    np.testing.assert_allclose(tables[0].vectors, tables[1].vectors, **F32_TOL)
    np.testing.assert_allclose(tables[0].epoch_losses, tables[1].epoch_losses, **F32_TOL)
    assert rngs[0] == rngs[1]


@pytest.mark.parametrize("rows", [2, 3, 5])
def test_train_pairs_on_a_tiny_namespace_stays_finite_and_near_pair_by_pair(rows):
    # every block names each row about 64 * 11 / rows times; summed
    # uncapped, those updates diverge at the default rate
    gen = np.random.default_rng(rows)
    symbols = [f"e{i}" for i in range(rows)]
    vectors = init_vectors(gen, rows, 16)
    pairs = gen.integers(0, rows, (2000, 2))
    cfg = SkipGramConfig(dim=16, epochs=6, learning_rate=0.05)
    assert cfg.learning_rate == SkipGramConfig().learning_rate
    tables = []
    for train in (embeddings._train_pairs, reference_train_pairs):
        table = EmbeddingTable(symbols, vectors.copy())
        sampler = embeddings._NegativeSampler(table.index, [dict.fromkeys(symbols, 1)])
        train(table, [pairs], sampler, np.random.Generator(np.random.PCG64(0)), cfg)
        tables.append(table)
    blocked, ref = tables
    assert np.all(np.isfinite(blocked.vectors))
    assert np.all(np.isfinite(blocked.epoch_losses))
    assert blocked.epoch_losses[-1] == pytest.approx(ref.epoch_losses[-1], rel=0.01)


def sgd_peak_bytes(n_pairs, dim=64, k=10, rows=500):
    """tracemalloc peak of one _sgd_pairs call over what is left allocated
    after it."""
    gen = np.random.default_rng(0)
    symbols = [f"w{i}" for i in range(rows)]
    vectors = init_vectors(gen, rows, dim)
    ctx = np.zeros_like(vectors)
    sampler = embeddings._NegativeSampler(dict(zip(symbols, range(rows))),
                                          [dict(zip(symbols, gen.integers(1, 50, rows)))])
    pairs = gen.integers(0, rows, (n_pairs, 2))
    lrs = np.full(n_pairs, 0.05)
    rng, losses = np.random.default_rng(1), np.full(n_pairs, np.nan)
    order = np.arange(n_pairs)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        embeddings._sgd_pairs(vectors, ctx, order, pairs, lambda i: lrs[i], sampler, rng, k,
                              losses)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert np.all(np.isfinite(losses))
    return peak - current


def test_sgd_peak_memory_is_bounded_and_flat_in_pairs():
    small, large = sgd_peak_bytes(3 * SGD_BLOCK), sgd_peak_bytes(40 * SGD_BLOCK)
    assert small < 2 * 2**20
    assert large < 2 * 2**20
    # nothing the call allocates scales with pairs
    assert large - small < 64 * 2**10


def train_pairs_peak_bytes(n_pairs, dim=64, rows=500):
    """tracemalloc peak of one _train_pairs epoch over n_pairs pairs, over
    what was allocated before it."""
    gen = np.random.default_rng(0)
    symbols = [f"w{i}" for i in range(rows)]
    table = EmbeddingTable(symbols, init_vectors(gen, rows, dim))
    sampler = embeddings._NegativeSampler(table.index,
                                          [dict(zip(symbols, gen.integers(1, 50, rows)))])
    pairs = gen.integers(0, rows, (n_pairs, 2))
    peak = traced_peak(lambda: embeddings._train_pairs(table, [pairs], sampler,
                                                       np.random.default_rng(1),
                                                       SkipGramConfig(dim=dim, epochs=1)))
    assert len(table.epoch_losses) == 1
    return peak


def test_train_pairs_peak_grows_only_by_the_order_and_the_losses():
    # per pair, a pass keeps its place in the permutation and the epoch
    # keeps its loss, 8 bytes each; blocks gather their pairs and rates
    # from the order, so nothing else grows with the pairs
    small, large = 3 * SGD_BLOCK, 400 * SGD_BLOCK
    growth = train_pairs_peak_bytes(large) - train_pairs_peak_bytes(small)
    assert growth - 16 * (large - small) < 64 * 2**10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), n_pairs=st.integers(0, 3 * SGD_BLOCK), k=st.integers(1, 6))
def test_sgd_pass_in_an_order_equals_the_pairs_laid_out_in_that_order(seed, n_pairs, k):
    gen = np.random.default_rng(seed)
    rows, dim = 40, 5
    symbols = [f"w{i}" for i in range(rows)]
    vectors = init_vectors(gen, rows, dim)
    ctx = gen.normal(0.0, 0.3, (rows, dim)).astype(np.float32)
    sampler = embeddings._NegativeSampler(dict(zip(symbols, range(rows))),
                                          [dict(zip(symbols, gen.integers(1, 9, rows)))])
    pairs = gen.integers(0, rows, (n_pairs, 2))
    order = gen.permutation(n_pairs)
    rate = lambda i: 0.05 * np.maximum(1 - (7 + i) / (n_pairs + 9), 1e-4)
    outcomes = []
    for args in ((order, pairs), (np.arange(n_pairs), pairs[order])):
        v, c = vectors.copy(), ctx.copy()
        rng, losses = np.random.Generator(np.random.PCG64(seed)), np.full(n_pairs, np.nan)
        embeddings._sgd_pairs(v, c, *args, rate, sampler, rng, k, losses)
        outcomes.append((v, c, losses, rng.bit_generator.state))
    (v, c, losses, state), (v2, c2, losses2, state2) = outcomes
    assert v.tobytes() == v2.tobytes() and c.tobytes() == c2.tobytes()
    assert losses.tobytes() == losses2.tobytes() and state == state2


@settings(max_examples=50, deadline=None)
@given(lengths=st.lists(st.integers(0, 9), max_size=6), window=st.integers(1, 5))
def test_window_pair_rows_match_the_pair_by_pair_loop(lengths, window):
    streams = [[(False, f"w{i}_{t}") for t in range(n)] for i, n in enumerate(lengths)]
    index = {s: i for i, s in enumerate(s for stream in streams for _, s in stream)}
    expected = []
    for stream in streams:
        rows = [index[s] for _, s in stream]
        for t, center in enumerate(rows):
            for j in range(max(0, t - window), min(len(rows) - 1, t + window) + 1):
                if j != t:
                    expected.append((center, rows[j]))
    got = embeddings._window_pair_rows(streams, index, window)
    assert got.dtype == np.int64 and got.shape == (len(expected), 2)
    assert got.tolist() == [list(pair) for pair in expected]


def test_joint_training_traced_peak_is_bounded_on_the_tier1_fixture(fixture_dir):
    # The tier-1 corpus with its gold links gives 54,120 text pairs. Traced
    # peak with the pairs as one int64 array and the losses in float64:
    # 5.3 MiB. With the pairs built as a list of tuples it was 6.8 MiB, and
    # with one Python float per pair's loss 6.6 MiB.
    kb = load_kb(fixture_dir / "entities.tsv", fixture_dir / "triples.tsv")
    gold = defaultdict(list)
    for (sid, start, end), eid in sorted(load_gold_links(fixture_dir / "gold_links.tsv").items()):
        gold[sid].append((start, end, eid))
    sents = [Sentence(s.id, s.tokens, [make_span(s, start, end, linked=eid)
                                       for start, end, eid in gold[s.id]])
             for s in ingest_corpus(fixture_dir / "corpus.jsonl")]
    cfg = SkipGramConfig(dim=64, epochs=1)
    node = train_node_embeddings(kb, cfg)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        table = train_joint_embeddings(sents, kb, node, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.epoch_losses) == 1
    assert peak - before < 5.75 * 2**20


# -- nearest-neighbour candidates ---------------------------------------------

def random_table(rng, n_words=8, n_entities=10, dim=6) -> EmbeddingTable:
    symbols = [f"w{i}" for i in range(n_words)]
    symbols += [entity_symbol(f"e{i}") for i in range(n_entities)]
    vecs = rng.standard_normal((len(symbols), dim)).astype(np.float32)
    return EmbeddingTable(symbols, vecs)


def test_knn_matches_brute_force():
    # entity rows interleaved with words and in shuffled id order, where
    # "e10" sorts before "e9"; some entities share a vector, so distances
    # tie exactly and only the id can order them
    ids = [f"e{i}" for i in range(12)]
    for seed in range(20):
        rng = np.random.default_rng(seed)
        symbols = [f"w{i}" for i in range(8)] + [entity_symbol(e) for e in ids]
        symbols = [symbols[i] for i in rng.permutation(len(symbols))]
        vecs = rng.standard_normal((len(symbols), 6)).astype(np.float32)
        for a, b in rng.choice(len(ids), size=(4, 2)):
            vecs[symbols.index(entity_symbol(ids[b]))] = vecs[symbols.index(entity_symbol(ids[a]))]
        table = EmbeddingTable(symbols, vecs)

        query = (table.vectors[table.index["w0"]].astype(np.float64)
                 + table.vectors[table.index["w3"]].astype(np.float64)) / 2
        scored = sorted((float(np.linalg.norm(table.vector(entity_symbol(e)).astype(np.float64)
                                              - query)), e) for e in ids)
        for k in (4, len(ids), len(ids) + 3):
            got = knn_candidates(table, "w0 w3", k)
            assert [e for e, _ in got] == [e for _, e in scored[:k]]
            assert [d for _, d in got] == pytest.approx([d for d, _ in scored[:k]])


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
