"""Two-step entity linking: sub-graph disambiguation over KB connectivity,
then a neural context ranker for whatever the first step leaves open.
"""

from __future__ import annotations

import sys
import zlib
from dataclasses import dataclass

import numpy as np

from . import nn
from .bounds import bounded, check_bounds
from .corpus import Sentence, Span, make_span
from .embeddings import EmbeddingTable, entity_symbol, knn_candidates
from .files import json_bool
from .kb import KnowledgeBase


class LinkError(Exception):
    pass


@dataclass(slots=True)
class Candidate:
    span: Span
    entities: list[str]
    source: str  # dictionary | knn

    def __post_init__(self):
        if not self.entities:
            raise LinkError("candidate with no entities")
        if len(set(self.entities)) != len(self.entities):
            raise LinkError("duplicate candidate entities")


@dataclass(slots=True)
class LinkDecision:
    span: Span  # linked: carries the entity, its KB type and the method
    score: float
    ranking: tuple[str, ...] = ()  # context decisions: candidates by descending score

    @property
    def entity(self) -> str:
        return self.span.linked

    @property
    def method(self) -> str:  # subgraph | context
        return self.span.method


def _decision(kb: KnowledgeBase, span: Span, entity: str, method: str, score: float,
              ranking: tuple[str, ...] = ()) -> LinkDecision:
    """The decision linking ``span`` to ``entity``; its span is ``span``
    linked, typed by the KB and tagged with ``method``."""
    return LinkDecision(Span(span.start, span.end, span.surface, kb.entity_type(entity),
                             entity, method), score, ranking)


class GazetteerRecognizer:
    """Greedy left-to-right leftmost-longest matching of the KB's aliases;
    returned spans never overlap."""

    def __init__(self, kb: KnowledgeBase):
        self.kb = kb

    def recognize(self, sentence: Sentence) -> list[Span]:
        out: list[Span] = []
        pos, n = 0, len(sentence.tokens)
        while pos < n:
            for width in range(min(self.kb.max_alias_tokens, n - pos), 0, -1):
                surface = sentence.surface(pos, pos + width - 1)
                if self.kb.entities_by_alias(surface):
                    out.append(Span(pos, pos + width - 1, sys.intern(surface)))
                    pos += width
                    break
            else:
                pos += 1
        return out


_NO_ROWS = np.empty((0, 7), dtype=np.intp)


class TrainableSpanClassifier:
    """Logistic model over hashed span features (surface, length, gazetteer
    membership, context words within +-2). Student model of the self-training
    loop; proposes all n-grams up to the longest span seen in training and
    keeps non-overlapping ones scoring above 0.5.

    The ``classifier_*`` fields of `cfg`, a datagen.BootstrapConfig, set
    the hyperparameters. `feature_table` (sentence id -> feature rows) lets
    classifiers over the same KB, feature_dim and sentences share the
    hashing; without one each call hashes its sentences afresh."""

    def __init__(self, kb: KnowledgeBase, cfg, feature_table: dict[str, np.ndarray] | None = None):
        self.kb = kb
        self.feature_dim = cfg.classifier_feature_dim
        self.lr = cfg.classifier_lr
        self.epochs = cfg.classifier_epochs
        self.negatives_per_sentence = cfg.classifier_negatives
        self.feature_table = feature_table
        self.weights = np.zeros(self.feature_dim, dtype=np.float64)
        self.bias = 0.0
        self.max_span_len = 1
        self.trained = False

    def _bucket(self, feat: str) -> int:
        return zlib.crc32(feat.encode("utf-8")) % self.feature_dim

    def _ngrams(self, sentence: Sentence) -> list[tuple[int, int]]:
        """(start, end) of the sentence's n-grams up to the longest span seen
        in training, by width, then start: the order of its feature rows. A
        wider limit only appends n-grams, so narrower rows are a prefix."""
        n = len(sentence.tokens)
        return [(start, start + width - 1) for width in range(1, min(self.max_span_len, n) + 1)
                for start in range(n - width + 1)]

    def _hash_spans(self, sentence: Sentence, spans) -> np.ndarray:
        """(spans, 7) feature buckets of the sentence's (start, end) spans:
        surface, length, gazetteer membership and the words at -1, -2, +1
        and +2 ("<s>" past either end)."""
        words = [t.surface for t in sentence.tokens]
        padded = ["<s>", "<s>"] + words + ["<s>", "<s>"]
        b = self._bucket
        rows = []
        for start, end in spans:
            surface = " ".join(words[start:end + 1])
            rows.append((b(f"surf={surface}"), b(f"len={end - start + 1}"),
                         b(f"gaz={bool(self.kb.entities_by_alias(surface))}"),
                         b(f"l1={padded[start + 1]}"), b(f"l2={padded[start]}"),
                         b(f"r1={padded[end + 3]}"), b(f"r2={padded[end + 4]}")))
        return np.array(rows, dtype=np.intp).reshape(-1, 7)

    def _feature_rows(self, sentence: Sentence, ngrams: list[tuple[int, int]]) -> np.ndarray:
        """(n-grams, 7) feature buckets of the sentence's ``_ngrams``; hashes
        the sentence unless the feature table holds them. Bootstrap round r
        asks for widths no wider than round r-1's classifier did, so the
        table never holds only some of them."""
        table = self.feature_table
        rows = _NO_ROWS if table is None else table.get(sentence.id, _NO_ROWS)
        if len(rows) < len(ngrams):
            rows = self._hash_spans(sentence, ngrams)
            if table is not None:
                table[sentence.id] = rows
        return rows[:len(ngrams)]

    def train(self, corpus: list[Sentence], rng: np.random.Generator) -> None:
        gold_lens = [sp.end - sp.start + 1 for s in corpus for sp in s.spans]
        if not gold_lens:
            raise LinkError("no labeled spans to train the span classifier on")
        self.max_span_len = max(gold_lens)
        # each sentence's gold spans in (start, end) order, then its sampled
        # negatives in _ngrams order. An item is a list of its seven buckets,
        # gathered sentence by sentence as int objects that every item shares.
        buckets = np.arange(self.feature_dim).astype(object)
        items: list[list[int]] = []
        labels: list[float] = []
        for sentence in corpus:
            ngrams = self._ngrams(sentence)
            rows = self._feature_rows(sentence, ngrams)
            gold = [ngrams.index(span) for span in sorted({(sp.start, sp.end)
                                                           for sp in sentence.spans})]
            negs = np.delete(np.arange(len(rows)), gold)
            if len(negs) > self.negatives_per_sentence:
                picks = rng.choice(len(negs), size=self.negatives_per_sentence, replace=False)
                negs = negs[np.sort(picks)]
            items += buckets[rows[gold + negs.tolist()]].tolist()
            labels += [1.0] * len(gold) + [0.0] * len(negs)
        # SGD on Python floats, whose ops are numpy's double ops: a left-to-right
        # sum of seven terms and one subtraction per feature equal weights[idx].sum()
        # and np.subtract.at bit for bit, a repeated bucket once per repeat
        w = self.weights.tolist()
        bias, lr = self.bias, self.lr
        for _ in range(self.epochs):
            for i in rng.permutation(len(items)).tolist():
                idx = items[i]
                z = 0.0
                for b in idx:
                    z += w[b]
                g = 1.0 / (1.0 + float(np.exp(-(z + bias)))) - labels[i]
                step = lr * g
                for b in idx:
                    w[b] -= step
                bias -= step
        self.weights[:] = w
        self.bias = bias
        self.trained = True

    def recognize(self, sentence: Sentence) -> list[Span]:
        if not self.trained:
            raise LinkError("span classifier used before training")
        ngrams = self._ngrams(sentence)
        p = 1.0 / (1.0 + np.exp(-(self.weights[self._feature_rows(sentence, ngrams)].sum(axis=1)
                                  + self.bias)))
        scored = [(prob, start, end) for (start, end), prob in zip(ngrams, p.tolist())
                  if prob > 0.5]
        scored.sort(key=lambda t: (-t[0], t[1], t[1] - t[2]))
        taken: list[tuple[int, int]] = []
        for _, start, end in scored:
            if all(end < s or e < start for s, e in taken):
                taken.append((start, end))
        return [make_span(sentence, start, end) for start, end in sorted(taken)]


def generate_candidates(span: Span, kb: KnowledgeBase, table: EmbeddingTable | None,
                        k: int) -> Candidate | None:
    """The span's dictionary hits in id order; for a span with none, its
    ``k`` nearest KB entities (ties broken by id) when ``table`` is given
    and ``k > 0``. None when that leaves no entity."""
    dict_hits = sorted(kb.entities_by_alias(span.surface))
    if dict_hits:
        return Candidate(span, dict_hits, "dictionary")
    if table is None or k <= 0:
        return None
    knn_hits = [eid for eid, _ in knn_candidates(table, span.surface, k) if eid in kb.entities]
    return Candidate(span, knn_hits, "knn") if knn_hits else None


def subgraph_link(sentence_candidates: list[Candidate],
                  kb: KnowledgeBase) -> list[LinkDecision | None]:
    """Connection counting over cross-span candidate pairs; a span links to
    its strictly unique top-count candidate when that count is positive."""
    counts: list[dict[str, float]] = [dict.fromkeys(c.entities, 0.0)
                                      for c in sentence_candidates]
    # one span has no pairs, and so no id to check
    neighbors = ([[kb.neighbors(e) for e in c.entities] for c in sentence_candidates]
                 if len(sentence_candidates) > 1 else [])
    for i in range(len(neighbors)):
        for j in range(i + 1, len(neighbors)):
            for a, linked in zip(sentence_candidates[i].entities, neighbors[i]):
                for b in sentence_candidates[j].entities:
                    if b in linked:
                        counts[i][a] += 1.0
                        counts[j][b] += 1.0

    decisions: list[LinkDecision | None] = []
    for cand, count in zip(sentence_candidates, counts):
        best = max(count.values())
        top = [e for e in cand.entities if count[e] == best]
        if best > 0 and len(top) == 1:
            decisions.append(_decision(kb, cand.span, top[0], "subgraph", best))
        else:
            decisions.append(None)
    return decisions


@dataclass
class ELConfig:
    hidden: int = bounded(16, lo=1)  # per direction; v_c is 2*hidden
    mlp_hidden: int = bounded(32, lo=1)
    margin: float = bounded(0.2, above=0)
    learning_rate: float = bounded(5e-3, above=0)
    epochs: int = bounded(3, lo=0)
    knn_k: int = bounded(10, lo=0)
    seed: int = 0

    __post_init__ = check_bounds


class ContextLinkerModel:
    """BiLSTM sentence encoder + sigmoid-bounded two-layer scorer over
    [sentence vector; span word vector; entity vector]."""

    def __init__(self, table: EmbeddingTable, cfg: ELConfig):
        self.table = table
        self.cfg = cfg
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        d = table.dim
        self.encoder = nn.BiLSTM(d, cfg.hidden, rng, "el.encoder")
        self.scorer = nn.TwoLayerScorer(2 * cfg.hidden + 2 * d, cfg.mlp_hidden, 1,
                                        rng, "el.scorer")
        self.trained = False
        self.oov_count = 0
        self.epoch_losses: list[float] = []

    def parameters(self):
        return self.encoder.parameters() + self.scorer.parameters()

    def _word_vec(self, surface: str) -> np.ndarray:
        if surface in self.table.index:
            return self.table.vector(surface)
        return np.zeros(self.table.dim, dtype=np.float32)

    def _span_vec(self, span: Span) -> np.ndarray:
        vecs = [self._word_vec(w) for w in span.surface.split()]
        return np.mean(vecs, axis=0).reshape(-1, 1)

    def _entity_vec(self, entity: str) -> np.ndarray:
        return self.table.vector(entity_symbol(entity)).reshape(-1, 1)

    def _context_vec(self, *sentences: Sentence) -> nn.Tensor:
        """(2*hidden, B) context vectors, column b for sentence b. The
        sentences go through the encoder side by side in one pass; a single
        sentence runs as one unbatched sequence."""
        x = np.stack([self._word_vec(t.surface) for s in sentences for t in s.tokens], axis=1)
        lengths = [len(s.tokens) for s in sentences]
        return nn.final_states(self.encoder(nn.Tensor(x), lengths), lengths)

    def _scores(self, v_c, spans: np.ndarray, entities: list[str]) -> nn.Tensor:
        """(1, n) scores in one scorer pass: column i scores [v_c column i;
        spans column i; entity i]."""
        x = nn.concat([v_c, spans,
                       np.concatenate([self._entity_vec(e) for e in entities], axis=1)],
                      axis=0)
        return self.scorer(x)

    def _hinges(self, items, negatives: list[str]) -> nn.Tensor:
        """(1, B) hinges relu(s_neg - s_gold + margin) of B training items
        (sentence, span, gold, candidates) against their negatives: one
        encoder pass over the B sentences and one scorer pass over the
        [gold columns | negative columns]."""
        b = len(items)
        v_c = self._context_vec(*(sentence for sentence, *_ in items))
        spans = np.concatenate([self._span_vec(span) for _, span, *_ in items], axis=1)
        entities = [gold for _, _, gold, _ in items] + negatives
        scores = self._scores(nn.concat([v_c, v_c], axis=1), np.tile(spans, 2), entities)
        margin = np.array([[self.cfg.margin]], dtype=scores.dtype)
        return nn.relu(nn.add(nn.sub(nn.take(scores, np.arange(b, 2 * b), axis=1),
                                     nn.take(scores, np.arange(b), axis=1)), margin))

    def score_candidates(self, v_c: nn.Tensor,
                         open_spans: list[tuple[int, Span, list[str]]]) -> list[list[float]]:
        """Scores of each open span's candidate entities in one ``_scores``
        pass. ``open_spans`` holds (column, span, entities), where column
        ``column`` of ``v_c``, from ``_context_vec``, encodes the span's
        sentence; that column and the span vector repeat once per entity."""
        if not self.trained:
            raise LinkError("context linker used before training")
        columns = [col for col, _, entities in open_spans for _ in entities]
        if not columns:
            return [[] for _ in open_spans]
        spans = np.concatenate([np.tile(self._span_vec(span), len(entities))
                                for _, span, entities in open_spans], axis=1)
        with nn.no_grad():
            scores = self._scores(nn.take(v_c, np.array(columns), axis=1), spans,
                                  [e for _, _, entities in open_spans for e in entities])
        flat = iter(scores.data[0].tolist())
        return [[next(flat) for _ in entities] for _, _, entities in open_spans]


# Training items per Adam step of the context linker; the last step of an
# epoch may take fewer.
EL_BATCH = 16


def train_context_linker(corpus: list[Sentence], kb: KnowledgeBase,
                         table: EmbeddingTable, cfg: ELConfig) -> ContextLinkerModel:
    """Pairwise hinge ranking on the linked spans of ``corpus`` whose gold
    entity is a candidate. Each epoch visits the items in a fresh
    permutation, draws one negative per item in that order, and takes one
    Adam step on the mean hinge of every EL_BATCH consecutive items; a
    batch whose hinges are all 0 takes none."""
    model = ContextLinkerModel(table, cfg)
    # the training corpus's tokens that have no table row
    model.oov_count = sum(t.surface not in table.index for s in corpus for t in s.tokens)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    items = []
    for sentence in corpus:
        for span in sentence.spans:
            if not span.linked:
                continue
            cand = generate_candidates(span, kb, table, cfg.knn_k)
            if cand is None or span.linked not in cand.entities:
                continue
            items.append((sentence, span, span.linked, cand.entities))
    if not items:
        raise LinkError("no linked spans to train the context linker on")

    all_ids = sorted(kb.entities)
    if len(all_ids) < 2:
        raise LinkError("need at least two KB entities for negative sampling")

    def loss_of(ids):
        batch = [items[i] for i in ids]
        negatives = [_draw_negative(rng, gold, cand_ids, all_ids)
                     for _, _, gold, cand_ids in batch]
        hinges = model._hinges(batch, negatives)
        return (nn.mean(hinges) if hinges.data.max() > 0.0 else None,
                hinges.data.ravel().tolist())

    model.epoch_losses = nn.fit(model.parameters(), cfg.learning_rate, cfg.epochs,
                                len(items), EL_BATCH, rng, loss_of)
    model.trained = True
    return model


def save_model(model: ContextLinkerModel, path) -> None:
    nn.save_checkpoint(path, model.parameters(), {"trained": model.trained})


def load_model(path, table: EmbeddingTable, cfg: ELConfig) -> ContextLinkerModel:
    """The model save_model wrote, over ``table``."""
    def fit(meta, tensors):
        model = ContextLinkerModel(table, cfg)
        model.trained = json_bool(meta["trained"])
        nn.restore_parameters(model.parameters(), tensors)
        return model
    return nn.load_checkpoint(path, fit)


def _draw_negative(rng: np.random.Generator, gold: str, cand_ids: list[str],
                   all_ids: list[str]) -> str:
    """A uniform draw from the candidates other than ``gold``; a span with
    no other candidate draws KB entities until one is not ``gold``."""
    pool = [e for e in cand_ids if e != gold]
    if pool:
        return pool[int(rng.integers(len(pool)))]
    neg = gold
    while neg == gold:
        neg = all_ids[int(rng.integers(len(all_ids)))]
    return neg


def hinge_loss(s: float, s_neg: float, margin: float) -> float:
    return max(0.0, s_neg - s + margin)


# Sentences per encoder pass of the context step in link_sentences; the
# last chunk may hold fewer.
LINK_CHUNK = 64


def link_sentences(sentences: list[Sentence], kb: KnowledgeBase, recognizer,
                   table: EmbeddingTable | None, knn_k: int,
                   model: ContextLinkerModel | None = None) -> list[list[LinkDecision | None]]:
    """Per sentence: recognize -> candidates -> sub-graph step, then, only
    when ``model`` is given, the context step for the spans the sub-graph
    step leaves open (None for each of them otherwise). The context step
    encodes the sentences with an open span LINK_CHUNK at a time in one
    ``_context_vec`` pass, and scores a chunk's open spans in one
    ``score_candidates`` pass. Only a span with no alias hit gets embedding
    neighbours as candidates (``generate_candidates``), and a span with no
    candidates yields no entry."""
    out: list[list[LinkDecision | None]] = []
    pending = []  # (sentence index, [(entry index, candidate) of its open spans])
    for i, sentence in enumerate(sentences):
        cands = [c for c in (generate_candidates(sp, kb, table, knn_k)
                             for sp in recognizer.recognize(sentence)) if c is not None]
        decisions = subgraph_link(cands, kb)
        out.append(decisions)
        open_spans = [(j, c) for j, (c, d) in enumerate(zip(cands, decisions)) if d is None]
        if open_spans and model is not None:
            pending.append((i, open_spans))
    for lo in range(0, len(pending), LINK_CHUNK):
        chunk = pending[lo:lo + LINK_CHUNK]
        with nn.no_grad():
            v_c = model._context_vec(*(sentences[i] for i, _ in chunk))
        items = [(col, i, j, c) for col, (i, open_spans) in enumerate(chunk)
                 for j, c in open_spans]
        scores = model.score_candidates(v_c, [(col, c.span, c.entities)
                                              for col, _, _, c in items])
        for (_, i, j, c), span_scores in zip(items, scores):
            ranked = sorted(zip(c.entities, span_scores), key=lambda p: (-p[1], p[0]))
            out[i][j] = _decision(kb, c.span, ranked[0][0], "context", ranked[0][1],
                                  tuple(e for e, _ in ranked))
    return out


def link(sentence: Sentence, kb: KnowledgeBase, table: EmbeddingTable | None,
         model: ContextLinkerModel | None, recognizer, knn_k: int) -> list[LinkDecision]:
    """``link_sentences`` of one sentence that must decide every span: the
    context model is only touched when the sub-graph step leaves something
    open, and a span left open without one raises LinkError."""
    decisions = link_sentences([sentence], kb, recognizer, table, knn_k, model)[0]
    if any(d is None for d in decisions):
        raise LinkError("context step needed but no trained model supplied")
    return decisions
