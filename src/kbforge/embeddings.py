"""Skip-gram embeddings over KB neighbor pairs and linked text, in one
vector space, plus L2 nearest-neighbor candidate lookup.

Words and entities share the table but live in disjoint namespaces: entity
rows are keyed "ent:<id>". Training is SGD with negative sampling and a
linearly decaying rate, single-threaded, fully driven by one seeded
generator. It runs in blocks of SGD_BLOCK pairs that score against one
snapshot of the rows and add their summed updates at once, each row's step
capped (see _sgd_pairs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .bounds import bounded, check_bounds
from .files import json_list
from .kb import KnowledgeBase

ENT_PREFIX = "ent:"


def entity_symbol(entity_id: str) -> str:
    return ENT_PREFIX + entity_id


def is_entity_symbol(symbol: str) -> bool:
    return symbol.startswith(ENT_PREFIX)


class EmbeddingError(ValueError):
    pass


@dataclass
class SkipGramConfig:
    dim: int = bounded(32, lo=1)
    epochs: int = bounded(3, lo=0)
    learning_rate: float = bounded(0.05, above=0)
    negatives: int = bounded(10, lo=1)
    window: int = bounded(3, lo=1)
    seed: int = 0

    __post_init__ = check_bounds


class EmbeddingTable:
    def __init__(self, symbols: list[str], vectors: np.ndarray):
        if len(symbols) != len(set(symbols)):
            raise EmbeddingError("duplicate symbols")
        for s in symbols:
            if not isinstance(s, str):
                raise EmbeddingError(f"symbol {s!r} is not a string")
            if not s or any(ch.isspace() for ch in s):
                raise EmbeddingError(f"symbol {s!r} is empty or contains whitespace")
        self.symbols = list(symbols)
        self.index = {s: i for i, s in enumerate(self.symbols)}
        # the entity ids in id order, and the row of each
        self.entity_ids = sorted(s[len(ENT_PREFIX):] for s in self.symbols
                                 if is_entity_symbol(s))
        self.entity_row_numbers = np.array(
            [self.index[entity_symbol(e)] for e in self.entity_ids], dtype=np.int64)
        self.vectors = np.asarray(vectors, dtype=np.float32)
        if self.vectors.ndim != 2 or len(self.vectors) != len(self.symbols):
            raise EmbeddingError(f"vectors of shape {self.vectors.shape}, not one row per symbol")
        if not np.all(np.isfinite(self.vectors)):
            raise EmbeddingError("non-finite vector entries")
        self.epoch_losses: list[float] = []

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def vector(self, symbol: str) -> np.ndarray:
        try:
            return self.vectors[self.index[symbol]]
        except KeyError:
            raise EmbeddingError(f"unknown symbol {symbol!r}") from None


def init_vectors(rng: np.random.Generator, count: int, dim: int, dtype=np.float32) -> np.ndarray:
    """The initial rows of an embedding table: uniform in +-0.5/dim."""
    return rng.uniform(-0.5 / dim, 0.5 / dim, size=(count, dim)).astype(dtype)


def save_table(table: EmbeddingTable, path) -> None:
    """Writes what load_table reads, a checkpoint of the symbols (meta) and
    their rows (tensor ``vectors``); refuses, before writing anything, a
    table that training has left with a non-finite entry."""
    bad = ~np.isfinite(table.vectors).all(axis=1)
    if bad.any():
        raise EmbeddingError(f"non-finite vector for symbol "
                             f"{table.symbols[int(bad.argmax())]!r}; {path} not written")
    nn.save_checkpoint(path, [nn.Parameter(table.vectors, "vectors")],
                       {"symbols": table.symbols})


def load_table(path) -> EmbeddingTable:
    """The table save_table wrote."""
    def fit(meta, tensors):
        if list(tensors) != ["vectors"]:
            raise ValueError(f"tensors {sorted(tensors)} are not ['vectors']")
        return EmbeddingTable(json_list(meta["symbols"]), tensors["vectors"])
    return nn.load_checkpoint(path, fit)


# -- negative sampling -------------------------------------------------------

# Pairs per block in _sgd_pairs. Every pair of a block reads the rows as
# they were when the block began, and a block holds three (SGD_BLOCK, k+1,
# dim) float64 arrays: 256 pairs took 5.9 MiB at dim 64 and k 10, 64 take
# 1.3 MiB.
SGD_BLOCK = 64


class _NegativeSampler:
    """unigram^0.75 samplers, one per namespace: a context's negatives come
    from its own namespace. Each namespace maps symbols to their counts,
    each at least 1, and together they cover every symbol of ``index``."""

    def __init__(self, index: dict[str, int], namespaces: list[dict[str, int]]):
        self.space = np.zeros(len(index), dtype=np.int64)  # namespace of each row
        self.rows, self.cums = [], []
        for i, counts in enumerate(namespaces):
            rows = np.array([index[s] for s in counts], dtype=np.int64)
            self.space[rows] = i
            weights = np.array(list(counts.values()), dtype=np.float64) ** 0.75
            self.rows.append(rows)
            self.cums.append(np.cumsum(weights / weights.sum()))

    def pick(self, contexts: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """Row i of the result: the rows that row i of ``uniforms`` (in
        [0, 1)) draws from the namespace of ``contexts[i]``."""
        space = self.space[contexts]
        out = np.empty(uniforms.shape, dtype=np.int64)
        for i, (rows, cum) in enumerate(zip(self.rows, self.cums)):
            mine = space == i
            picks = np.searchsorted(cum, uniforms[mine], side="right")
            out[mine] = rows[np.minimum(picks, len(rows) - 1)]
        return out


def _scatter_add(table, rows, updates, cap: int) -> None:
    """``table[rows[i]] += updates[i]`` for every i, each row's updates
    summed in float64 in the order given and cast once. A row named more
    than ``cap`` times moves by ``cap`` times the mean of its updates."""
    counts = np.bincount(rows, minlength=len(table))
    named = counts > 0
    slot = np.cumsum(named) - 1  # each named row's place among the named
    counts = counts[named]
    n, dim = len(counts), updates.shape[1]
    # one bin per (slot, column); bincount adds in index order, in float64
    ids = (slot[rows][:, None] * dim + np.arange(dim)).ravel()
    sums = np.bincount(ids, weights=updates.ravel(), minlength=n * dim).reshape(n, dim)
    over = counts > cap
    sums[over] *= (cap / counts[over])[:, None]
    table[named] += sums.astype(table.dtype)


def _sgd_pairs(vectors, ctx, order, pairs, rate, sampler, rng, k, loss_out):
    """One pass of negative-sampling SGD whose i-th (center, context) pair
    is ``pairs[order[i]]``, at rate ``rate(i)`` for an array i of positions.
    Updates vectors/ctx in place; writes pair i's loss to ``loss_out[i]``,
    a float64 array as long as ``order``.

    Pairs go in blocks of SGD_BLOCK, each gathered from ``order`` with its
    rates, so nothing here is as long as the pass. A block draws its
    negatives with one ``rng.random((n, k))`` call (the same stream as n
    calls of k), reads its center and context rows once, scores every pair
    against that snapshot and adds the updates of all its pairs at the end.
    A row named more than k+1 times in a block, more often than one pair
    can name it, moves by k+1 times the mean of its updates: summed
    uncapped, the updates to the few rows of a small namespace, which every
    pair names, diverge."""
    labels = np.zeros(k + 1)
    labels[0] = 1.0
    for lo in range(0, len(order), SGD_BLOCK):
        block_centers, block_contexts = pairs[order[lo:lo + SGD_BLOCK]].T
        n = len(block_centers)
        rows = np.empty((n, k + 1), dtype=np.int64)
        rows[:, 0] = block_contexts
        rows[:, 1:] = sampler.pick(block_contexts, rng.random((n, k)))
        w = vectors[block_centers].astype(np.float64)
        c = ctx[rows].astype(np.float64)
        scores = 1.0 / (1.0 + np.exp(-np.einsum("nkd,nd->nk", c, w)))
        # rate times d(loss)/d(score)
        step = (scores - labels) * rate(np.arange(lo, lo + n))[:, None]
        _scatter_add(vectors, block_centers, -np.einsum("nk,nkd->nd", step, c), k + 1)
        ctx_updates = -step[:, :, None] * w[:, None, :]
        _scatter_add(ctx, rows.ravel(), ctx_updates.reshape(n * (k + 1), -1), k + 1)
        # clamp keeps log finite when a score saturates
        p = np.clip(np.where(labels > 0, scores, 1.0 - scores), 1e-10, 1.0)
        loss_out[lo:lo + n] = -np.log(p).sum(axis=1)


def _train_pairs(table: EmbeddingTable, pair_sets, sampler: _NegativeSampler,
                 rng: np.random.Generator, cfg: SkipGramConfig) -> None:
    """cfg.epochs epochs, each one pass over every (n, 2) array of (center,
    context) rows in ``pair_sets``, in order and in a fresh permutation. The
    rate decays linearly over all the run's pairs; each epoch's mean pair
    loss is appended to ``table.epoch_losses``."""
    sizes = list(map(len, pair_sets))
    total, done = cfg.epochs * sum(sizes), 0
    if total == 0:
        return
    ctx = np.zeros_like(table.vectors)
    losses = np.empty(sum(sizes))  # the pair losses of one epoch
    for _ in range(cfg.epochs):
        for pairs, pair_losses in zip(pair_sets, np.split(losses, np.cumsum(sizes)[:-1])):
            def rate(i, done=done):
                return cfg.learning_rate * np.maximum(1 - (done + i) / total, 1e-4)

            _sgd_pairs(table.vectors, ctx, rng.permutation(len(pairs)), pairs, rate,
                       sampler, rng, cfg.negatives, pair_losses)
            done += len(pairs)
        table.epoch_losses.append(float(np.mean(losses)))


def _kb_pair_rows(kb: KnowledgeBase, index: dict[str, int]) -> np.ndarray:
    pairs = []
    for v in sorted(kb.entities):
        for u in sorted(kb.neighbors(v)):
            pairs.append((index[entity_symbol(v)], index[entity_symbol(u)]))
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


def train_node_embeddings(kb: KnowledgeBase, cfg: SkipGramConfig) -> EmbeddingTable:
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    ids = sorted(kb.entities)
    symbols = [entity_symbol(e) for e in ids]
    table = EmbeddingTable(symbols, init_vectors(rng, len(symbols), cfg.dim))

    sampler = _NegativeSampler(table.index, [{entity_symbol(e): max(len(kb.neighbors(e)), 1)
                                              for e in ids}])
    _train_pairs(table, [_kb_pair_rows(kb, table.index)], sampler, rng, cfg)
    return table


def _linked_stream(sentence) -> list[tuple[bool, str]]:
    """(is_entity, symbol) pairs: token surfaces with each linked span's
    entity symbol inserted right after the span's last surface word. The
    flag carries provenance so surface words cannot masquerade as entity
    symbols."""
    insert_after = {sp.end: sp.linked for sp in sentence.spans if sp.linked}
    out = []
    for i, tok in enumerate(sentence.tokens):
        out.append((False, tok.surface))
        eid = insert_after.get(i)
        if eid is not None:
            out.append((True, entity_symbol(eid)))
    return out


def _window_pair_rows(streams, index: dict[str, int], window: int) -> np.ndarray:
    """(center, context) rows of every position of every stream, each with
    every other position of its stream at most ``window`` away, by center and
    then by context position: one (n, 2) array, not one tuple per pair."""
    lengths = [len(stream) for stream in streams]
    rows = np.array([index[s] for stream in streams for _, s in stream], dtype=np.int64)
    # the stream of each position spans [start, end)
    end = np.repeat(np.cumsum(lengths, dtype=np.int64), lengths)[:, None]
    start = end - np.repeat(lengths, lengths)[:, None]
    contexts = np.arange(len(rows))[:, None] + [d for d in range(-window, window + 1) if d]
    inside = (start <= contexts) & (contexts < end)
    return np.stack([rows[inside.nonzero()[0]], rows[contexts[inside]]], axis=1)


def train_joint_embeddings(sentences, kb: KnowledgeBase, init: EmbeddingTable,
                           cfg: SkipGramConfig) -> EmbeddingTable:
    if not sentences:
        raise EmbeddingError("cannot train joint embeddings on an empty corpus")
    rng = np.random.Generator(np.random.PCG64(cfg.seed))

    streams = [_linked_stream(s) for s in sentences]
    word_counts: dict[str, int] = {}
    ent_counts: dict[str, int] = {}
    for stream in streams:
        for is_ent, sym in stream:
            if not is_ent and is_entity_symbol(sym):
                raise EmbeddingError(
                    f"word token {sym!r} collides with the entity namespace")
            bucket = ent_counts if is_ent else word_counts
            bucket[sym] = bucket.get(sym, 0) + 1

    ent_symbols = [s for s in init.symbols if is_entity_symbol(s)]
    word_symbols = sorted(word_counts)
    symbols = word_symbols + ent_symbols
    vectors = np.zeros((len(symbols), cfg.dim), dtype=np.float32)
    vectors[:len(word_symbols)] = init_vectors(rng, len(word_symbols), cfg.dim)
    for j, s in enumerate(ent_symbols):
        vectors[len(word_symbols) + j] = init.vector(s)
    table = EmbeddingTable(symbols, vectors)

    idx = table.index
    # a KB context is an entity row, so the text and KB passes share one
    # sampler; +1 keeps never-linked entities reachable as negatives
    sampler = _NegativeSampler(idx, [{s: word_counts[s] for s in word_symbols},
                                     {s: ent_counts.get(s, 0) + 1 for s in ent_symbols}])

    _train_pairs(table, [_window_pair_rows(streams, idx, cfg.window),
                         _kb_pair_rows(kb, idx)], sampler, rng, cfg)
    return table


def knn_candidates(table: EmbeddingTable, phrase: str, k: int) -> list[tuple[str, float]]:
    """k entities nearest (L2) to the mean of the phrase's in-vocabulary
    word vectors, ascending, ties broken by entity id."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rows = [table.index[w] for w in phrase.split() if w in table.index
            and not is_entity_symbol(w)]
    if not rows:
        return []
    query = table.vectors[rows].astype(np.float64).mean(axis=0)
    mat = table.vectors[table.entity_row_numbers].astype(np.float64)
    dists = np.sqrt(((mat - query) ** 2).sum(axis=1))
    # rows are in id order, so a stable sort breaks distance ties by id
    return [(table.entity_ids[i], float(dists[i]))
            for i in np.argsort(dists, kind="stable")[:k].tolist()]
