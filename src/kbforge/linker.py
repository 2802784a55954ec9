"""Two-step entity linking: sub-graph disambiguation over KB connectivity,
then a neural context ranker for whatever the first step leaves open.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from . import nn
from .corpus import Sentence, Span, build_gazetteer, longest_ngram_match, make_span
from .embeddings import EmbeddingTable, entity_symbol, knn_candidates
from .kb import UNTYPED, KnowledgeBase


class LinkError(Exception):
    pass


@dataclass(slots=True)
class Candidate:
    span: Span
    entities: list[str]
    source: str  # dictionary | knn | both

    def __post_init__(self):
        if not self.entities:
            raise LinkError("candidate with no entities")
        if len(set(self.entities)) != len(self.entities):
            raise LinkError("duplicate candidate entities")


@dataclass(slots=True)
class LinkDecision:
    span: Span
    entity: str
    method: str  # subgraph | context
    score: float
    ranking: tuple[str, ...] = ()  # context decisions: candidates by descending score


def _span_type(kb: KnowledgeBase, surface: str) -> str:
    types = {kb.entity_type(e) for e in kb.entities_by_alias(surface)}
    return next(iter(types)) if len(types) == 1 else UNTYPED


class GazetteerRecognizer:
    def __init__(self, kb: KnowledgeBase):
        self.kb = kb
        self.gazetteer = build_gazetteer(kb)

    def recognize(self, sentence: Sentence) -> list[Span]:
        spans = longest_ngram_match(sentence, self.gazetteer)
        for sp in spans:
            sp.span_type = _span_type(self.kb, sp.surface)
        return spans


class TrainableSpanClassifier:
    """Logistic model over hashed span features (surface, length, gazetteer
    membership, context words within +-2). Student model of the self-training
    loop; proposes all n-grams up to the longest span seen in training and
    keeps non-overlapping ones scoring above 0.5."""

    def __init__(self, kb: KnowledgeBase, feature_dim: int = 4096, lr: float = 0.5,
                 epochs: int = 5, negatives_per_sentence: int = 10):
        self.kb = kb
        self.gazetteer = build_gazetteer(kb)
        self.feature_dim = feature_dim
        self.lr = lr
        self.epochs = epochs
        self.negatives_per_sentence = negatives_per_sentence
        self.weights = np.zeros(feature_dim, dtype=np.float64)
        self.bias = 0.0
        self.max_span_len = 1
        self.trained = False

    def _bucket(self, feat: str) -> int:
        return zlib.crc32(feat.encode("utf-8")) % self.feature_dim

    def _features(self, sentence: Sentence, start: int, end: int) -> list[int]:
        toks = sentence.tokens
        surface = sentence.surface(start, end)

        def ctx(i: int) -> str:
            return toks[i].surface if 0 <= i < len(toks) else "<s>"

        feats = [
            f"surf={surface}",
            f"len={end - start + 1}",
            f"gaz={surface in self.gazetteer}",
            f"l1={ctx(start - 1)}",
            f"l2={ctx(start - 2)}",
            f"r1={ctx(end + 1)}",
            f"r2={ctx(end + 2)}",
        ]
        return [self._bucket(f) for f in feats]

    def _ngrams(self, sentence: Sentence):
        n = len(sentence.tokens)
        for width in range(1, min(self.max_span_len, n) + 1):
            for start in range(n - width + 1):
                yield start, start + width - 1

    def _prob(self, idx) -> float:
        z = self.weights[idx].sum() + self.bias
        return 1.0 / (1.0 + np.exp(-z))

    def train(self, corpus: list[Sentence], rng: np.random.Generator) -> None:
        gold_lens = [sp.end - sp.start + 1 for s in corpus for sp in s.spans]
        if not gold_lens:
            raise LinkError("no labeled spans to train the span classifier on")
        self.max_span_len = max(gold_lens)
        # features as index arrays, built once rather than on every step
        items: list[tuple[np.ndarray, float]] = []
        for sentence in corpus:
            gold = {(sp.start, sp.end) for sp in sentence.spans}
            for se in sorted(gold):
                items.append((np.array(self._features(sentence, *se)), 1.0))
            negs = [se for se in self._ngrams(sentence) if se not in gold]
            if len(negs) > self.negatives_per_sentence:
                picks = rng.choice(len(negs), size=self.negatives_per_sentence, replace=False)
                negs = [negs[i] for i in sorted(picks)]
            for se in negs:
                items.append((np.array(self._features(sentence, *se)), 0.0))
        for _ in range(self.epochs):
            for i in rng.permutation(len(items)):
                idx, y = items[i]
                g = self._prob(idx) - y
                self.weights[idx] -= self.lr * g
                self.bias -= self.lr * g
        self.trained = True

    def recognize(self, sentence: Sentence) -> list[Span]:
        if not self.trained:
            raise LinkError("span classifier used before training")
        scored = []
        for start, end in self._ngrams(sentence):
            p = self._prob(self._features(sentence, start, end))
            if p > 0.5:
                scored.append((p, start, end))
        scored.sort(key=lambda t: (-t[0], t[1], t[1] - t[2]))
        taken: list[tuple[int, int]] = []
        for _, start, end in scored:
            if all(end < s or e < start for s, e in taken):
                taken.append((start, end))
        out = []
        for start, end in sorted(taken):
            sp = make_span(sentence, start, end)
            sp.span_type = _span_type(self.kb, sp.surface)
            out.append(sp)
        return out


def generate_candidates(span: Span, kb: KnowledgeBase, table: EmbeddingTable | None,
                        k: int) -> Candidate | None:
    """Dictionary hits (lexicographic) first, then embedding neighbors by
    distance; None when both sources come up empty."""
    dict_hits = sorted(kb.entities_by_alias(span.surface))
    knn_hits: list[str] = []
    if table is not None and k > 0:
        for eid, _dist in knn_candidates(table, span.surface, k):
            if eid in kb.entities and eid not in dict_hits and eid not in knn_hits:
                knn_hits.append(eid)
    if not dict_hits and not knn_hits:
        return None
    source = "both" if dict_hits and knn_hits else ("dictionary" if dict_hits else "knn")
    return Candidate(span, dict_hits + knn_hits, source)


def subgraph_link(sentence_candidates: list[Candidate],
                  kb: KnowledgeBase) -> list[LinkDecision | None]:
    """Connection counting over cross-span candidate pairs; a span links to
    its strictly unique top-count candidate when that count is positive."""
    counts: list[dict[str, float]] = [dict.fromkeys(c.entities, 0.0)
                                      for c in sentence_candidates]
    for i in range(len(sentence_candidates)):
        for j in range(i + 1, len(sentence_candidates)):
            for a in sentence_candidates[i].entities:
                for b in sentence_candidates[j].entities:
                    if kb.connected(a, b):
                        counts[i][a] += 1.0
                        counts[j][b] += 1.0

    decisions: list[LinkDecision | None] = []
    for cand, count in zip(sentence_candidates, counts):
        best = max(count.values())
        top = [e for e in cand.entities if count[e] == best]
        if best > 0 and len(top) == 1:
            decisions.append(LinkDecision(cand.span, top[0], "subgraph", best))
        else:
            decisions.append(None)
    return decisions


@dataclass
class ELConfig:
    hidden: int = 16        # per direction; v_c is 2*hidden
    mlp_hidden: int = 32
    margin: float = 0.2
    learning_rate: float = 5e-3
    epochs: int = 3
    knn_k: int = 10
    seed: int = 0


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
        self.oov_count += 1
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
        self.encoder(nn.Tensor(x), lengths=[len(s.tokens) for s in sentences])
        return self.encoder.final_states()

    def _score(self, v_c, span: Span, entity: str):
        x = nn.concat([v_c, self._span_vec(span), self._entity_vec(entity)], axis=0)
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
        x = nn.concat([nn.concat([v_c, v_c], axis=1), np.tile(spans, 2),
                       np.concatenate([self._entity_vec(e) for e in entities], axis=1)],
                      axis=0)
        scores = self.scorer(x)
        margin = np.array([[self.cfg.margin]], dtype=scores.dtype)
        return nn.relu(nn.add(nn.sub(nn.narrow(scores, 1, b, b),
                                     nn.narrow(scores, 1, 0, b)), margin))

    def score_candidates(self, v_c: nn.Tensor, span: Span,
                         entities: list[str]) -> list[float]:
        """Scores of ``entities`` for ``span``, given its sentence's context
        vector ``v_c`` from ``_context_vec``."""
        if not self.trained:
            raise LinkError("context linker used before training")
        with nn.no_grad():
            return [self._score(v_c, span, e).item() for e in entities]


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
    opt = nn.Adam(model.parameters(), lr=cfg.learning_rate)
    for _ in range(cfg.epochs):
        losses = []
        order = rng.permutation(len(items))
        for lo in range(0, len(order), EL_BATCH):
            batch = [items[i] for i in order[lo:lo + EL_BATCH]]
            negatives = [_draw_negative(rng, gold, cand_ids, all_ids)
                         for _, _, gold, cand_ids in batch]
            hinges = model._hinges(batch, negatives)
            losses.extend(hinges.data.ravel().tolist())
            if hinges.data.max() > 0.0:
                opt.zero_grad()
                nn.mean(hinges).backward()
                opt.step()
        model.epoch_losses.append(float(np.mean(losses)))
    model.trained = True
    return model


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


def link_sentence(sentence: Sentence, kb: KnowledgeBase, recognizer,
                  table: EmbeddingTable | None, knn_k: int,
                  model: ContextLinkerModel | None = None) -> list[LinkDecision | None]:
    """recognize -> candidates -> sub-graph step, then, only when ``model``
    is given, the context step for the spans the sub-graph step leaves open
    (None for each of them otherwise). Spans with no candidates yield no
    entry. A decision's span is the recognized span linked to its entity,
    typed by the KB and tagged with the method that chose it."""
    cands = [c for c in (generate_candidates(sp, kb, table, knn_k)
                         for sp in recognizer.recognize(sentence)) if c is not None]
    v_c = None
    out: list[LinkDecision | None] = []
    for cand, decision in zip(cands, subgraph_link(cands, kb)):
        if decision is not None:
            entity, method, score, ranking = decision.entity, "subgraph", decision.score, ()
        elif model is not None:
            if v_c is None:
                # one encoding serves every open span of the sentence
                with nn.no_grad():
                    v_c = model._context_vec(sentence)
            scores = model.score_candidates(v_c, cand.span, cand.entities)
            ranked = sorted(zip(cand.entities, scores), key=lambda p: (-p[1], p[0]))
            (entity, score), method = ranked[0], "context"
            ranking = tuple(e for e, _ in ranked)
        else:
            out.append(None)
            continue
        sp = cand.span
        out.append(LinkDecision(Span(sp.start, sp.end, sp.surface, kb.entity_type(entity),
                                     entity, method), entity, method, score, ranking))
    return out


def link(sentence: Sentence, kb: KnowledgeBase, table: EmbeddingTable | None,
         model: ContextLinkerModel | None, recognizer, knn_k: int = 10) -> list[LinkDecision]:
    """``link_sentence`` that must decide every span: the context model is
    only touched when the sub-graph step leaves something open, and a span
    left open without one raises LinkError."""
    decisions = link_sentence(sentence, kb, recognizer, table, knn_k, model)
    if any(d is None for d in decisions):
        raise LinkError("context step needed but no trained model supplied")
    return decisions
