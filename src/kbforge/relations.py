"""Bag-level relation extraction: four-family token encoding, PCNN and
C-GCN sentence encoders, selective-gate aggregation, sliding-margin
multi-label prediction, and fact-type-template validation of the output
triples.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass

import numpy as np

from . import nn
from .bounds import bounded, check_bounds
from .corpus import Sentence, Span, sdp_adjacency, shortest_dependency_path
from .datagen import Bag, collect_pair_sentences
from .embeddings import init_vectors
from .files import json_list, read_rows, write_rows
from .kb import UNTYPED, KnowledgeBase, Triple, build_fact_type_templates

NO_SPAN_TYPE = "O"
UNK = "<unk>"
# bags per Adam step in train_re: one batched forward pass over their
# sentences and one step on their summed loss
RE_BATCH = 8


class RelationError(Exception):
    pass


@dataclass
class REConfig:
    word_dim: int = bounded(24, lo=1)
    pos_dim: int = bounded(4, lo=1)  # each of the three position families
    type_dim: int = bounded(4, lo=1)
    tag_dim: int = bounded(4, lo=1)
    hidden: int = bounded(24, lo=1)  # d_h; BiLSTM runs hidden//2 per direction
    conv_width: int = bounded(3, lo=1)
    margin: float = bounded(0.1, above=0, below=1)  # gamma of the sliding-margin loss
    down_weight: float = bounded(0.5, above=0)  # lambda on negative terms
    threshold_init: float = bounded(0.5)
    max_pos: int = bounded(30, lo=0)
    learning_rate: float = bounded(5e-3, above=0)
    epochs: int = bounded(5, lo=0)
    seed: int = 0

    def __post_init__(self):
        check_bounds(self)
        if self.hidden % 2:
            raise ValueError("hidden must be even (split across LSTM directions)")

    @property
    def token_dim(self) -> int:
        return self.word_dim + 3 * self.pos_dim + self.type_dim + self.tag_dim


def span_distance(token_index, start, end):
    """Signed token distance to the span [start, end]: 0 inside, negative
    left of it. Elementwise on arrays."""
    return token_index - np.minimum(np.maximum(token_index, start), end)


def segment_anchors(subject_span: Span, object_span: Span) -> tuple[int, int, int]:
    """(i, j, direction) with i < j; direction 1 when the subject follows
    the object in surface order."""
    if subject_span.overlaps(object_span):
        raise RelationError("subject and object spans overlap")
    if subject_span.end < object_span.start:
        return subject_span.end, object_span.end, 0
    return object_span.end, subject_span.end, 1


class REModel:
    def __init__(self, cfg: REConfig, relations: list[str], word_vocab: list[str],
                 type_vocab: list[str], tag_vocab: list[str], dtype=None):
        if not relations:
            raise RelationError("relation vocabulary is empty")
        self.cfg = cfg
        self.dtype = dtype or nn.autograd.DEFAULT_DTYPE
        self.relations = list(relations)
        self.rel_index = {r: i for i, r in enumerate(self.relations)}
        self.word_index = self._index_with_unk(word_vocab)
        self.type_index = self._index_with_unk(type_vocab)
        self.tag_index = self._index_with_unk(tag_vocab)
        rng = np.random.Generator(np.random.PCG64(cfg.seed))

        d_e, d_h = cfg.token_dim, cfg.hidden

        def table(name, rows, dim):
            return nn.Parameter(init_vectors(rng, rows, dim, self.dtype), name)

        self.emb_word = table("re.emb.word", len(self.word_index), cfg.word_dim)
        self.emb_pos1 = table("re.emb.pos1", 2 * cfg.max_pos + 1, cfg.pos_dim)
        self.emb_pos2 = table("re.emb.pos2", 2 * cfg.max_pos + 1, cfg.pos_dim)
        self.emb_pos3 = table("re.emb.pos3", cfg.max_pos + 2, cfg.pos_dim)
        self.emb_type = table("re.emb.type", len(self.type_index), cfg.type_dim)
        self.emb_tag = table("re.emb.tag", len(self.tag_index), cfg.tag_dim)

        self.conv_w = nn.Parameter(
            nn.glorot(rng, (d_h, d_e, cfg.conv_width), d_e * cfg.conv_width, d_h, self.dtype),
            "re.conv.w")
        self.conv_b = nn.Parameter(np.zeros((d_h, 1), dtype=self.dtype), "re.conv.b")

        self.lstm = nn.BiLSTM(d_e, d_h // 2, rng, "re.lstm", self.dtype)
        # "re.gcn0": the tensor names that re.ckpt files already hold
        self.gcn = nn.GCNLayer(d_h, rng, "re.gcn0", self.dtype)

        # each layer draws its initial weights from rng as it is built
        self.att1 = nn.Linear(d_e, d_e, rng, "re.att.l1", self.dtype)
        self.att2 = nn.Linear(d_e, d_e, rng, "re.att.l2", self.dtype)
        self.att_proj = nn.Parameter(nn.glorot(rng, (d_h, d_e), d_e, d_h, self.dtype),
                                     "re.att.proj")
        self.gate = nn.TwoLayerScorer(d_h, d_h, 6 * d_h, rng, "re.gate", self.dtype)
        self.head = nn.TwoLayerScorer(6 * d_h + 1, 3 * d_h, len(relations), rng, "re.out",
                                      self.dtype)
        self.threshold = nn.Parameter(
            np.full((1, 1), cfg.threshold_init, dtype=self.dtype), "re.threshold")
        self.trained = False
        self.epoch_losses: list[float] = []

    @staticmethod
    def _index_with_unk(vocab: list[str]) -> dict[str, int]:
        index = {UNK: 0}
        for v in sorted(set(vocab)):
            if v not in index:
                index[v] = len(index)
        return index

    def parameters(self):
        params = [self.emb_word, self.emb_pos1, self.emb_pos2, self.emb_pos3,
                  self.emb_type, self.emb_tag, self.conv_w, self.conv_b]
        params += self.lstm.parameters() + self.gcn.parameters()
        return (params + self.att1.parameters() + self.att2.parameters() + [self.att_proj]
                + self.gate.parameters() + self.head.parameters() + [self.threshold])

    # -- encoding ------------------------------------------------------------
    #
    # A bag of B (sentence, subject span, object span) instances is encoded
    # in one pass: the token columns of its sentences lie side by side in a
    # (d, N) input, ``lengths`` gives each sentence's token count, and every
    # layer returns one column per sentence.

    def encode_tokens(self, instances: list[tuple[Sentence, Span, Span]]) -> nn.Tensor:
        """(token_dim, N) token columns of the bag's sentences. A column
        stacks the embeddings of the token's word, its distance to the
        subject, to the object and to the nearest other linked span, its
        span type and its POS tag."""
        cfg = self.cfg
        lengths = np.array([len(s.tokens) for s, _, _ in instances])
        first = np.cumsum(lengths) - lengths
        owner = np.repeat(np.arange(len(instances)), lengths)
        at = np.arange(len(owner)) - first[owner]       # index in its sentence
        bounds = np.empty((4, len(instances)), dtype=np.int64)
        nearest = np.full(len(owner), -1)                # -1: no other linked span
        types = np.full(len(owner), self.type_index.get(NO_SPAN_TYPE, 0))
        for b, (sentence, subj, obj) in enumerate(instances):
            if subj.overlaps(obj):
                raise RelationError("subject and object spans overlap")
            bounds[:, b] = subj.start, subj.end, obj.start, obj.end
            mine = slice(first[b], first[b] + lengths[b])
            others = [np.abs(span_distance(at[mine], sp.start, sp.end))
                      for sp in sentence.spans
                      if sp.linked and sp is not subj and sp is not obj]
            if others:
                nearest[mine] = np.minimum(np.min(others, axis=0), cfg.max_pos)
            for sp in sentence.spans:
                types[first[b] + sp.start:first[b] + sp.end + 1] = \
                    self.type_index.get(sp.span_type or UNTYPED, 0)
        to_pair = span_distance(at, bounds[[0, 2]][:, owner], bounds[[1, 3]][:, owner])
        positions = np.minimum(np.maximum(to_pair, -cfg.max_pos), cfg.max_pos) + cfg.max_pos
        tokens = [tok for s, _, _ in instances for tok in s.tokens]
        x = nn.embed_columns(
            [self.emb_word, self.emb_pos1, self.emb_pos2, self.emb_pos3, self.emb_type,
             self.emb_tag],
            [[self.word_index.get(tok.surface, 0) for tok in tokens], positions[0],
             positions[1], nearest + 1, types,
             [self.tag_index.get(tok.pos_tag, 0) for tok in tokens]])
        assert x.shape == (cfg.token_dim, len(tokens))
        return x

    def pcnn_encode(self, x: nn.Tensor, lengths, anchors) -> nn.Tensor:
        """Three-segment max-pooled convolution per sentence; the segments
        of a sentence split at its 0-based anchors (i, j) as [0,i), [i,j),
        [j,n)."""
        lengths = np.asarray(lengths)
        if any(not 0 <= i < j < n for (i, j), n in zip(anchors, lengths)):
            raise RelationError(f"anchors must satisfy 0 <= i < j < n, got {anchors} "
                                f"for lengths {lengths.tolist()}")
        first = np.cumsum(lengths) - lengths
        i, j = first + np.array(anchors).T
        h = nn.conv1d(x, self.conv_w, self.conv_b, lengths)
        out = nn.tanh(nn.max_pool_segments(h, [first, i, j],
                                           [i - 1, j - 1, first + lengths - 1]))
        assert out.shape == (3 * self.cfg.hidden, len(lengths))
        return out

    def _sdp_matrix(self, instances: list[tuple[Sentence, Span, Span]]) -> np.ndarray:
        """(B, m, m) stack of each sentence's normalized adjacency over its
        shortest dependency path plus the tokens of both spans, m the longest
        sentence's token count; block b is zero past its sentence's tokens."""
        m = max(len(sentence.tokens) for sentence, _, _ in instances)
        a_hat = np.zeros((len(instances), m, m), dtype=self.dtype)
        for block, (sentence, subject_span, object_span) in zip(a_hat, instances):
            keep = (shortest_dependency_path(sentence, subject_span, object_span)
                    + list(range(subject_span.start, subject_span.end + 1))
                    + list(range(object_span.start, object_span.end + 1)))
            n = len(sentence.tokens)
            block[:n, :n] = sdp_adjacency(sentence, keep)
        return a_hat

    def cgcn_encode(self, x: nn.Tensor, a_hat: np.ndarray, lengths,
                    spans: list[tuple[Span, Span]]) -> nn.Tensor:
        """BiLSTM, then GCN over each sentence's adjacency block of a_hat
        (see _sdp_matrix), then per sentence the max over all its tokens,
        its subject span and its object span."""
        lengths = np.asarray(lengths)
        if a_hat.shape != (len(lengths),) + (max(lengths),) * 2:
            raise RelationError(f"adjacency {a_hat.shape} for sentence lengths "
                                f"{lengths.tolist()}")
        h = self.gcn(self.lstm(x, lengths), a_hat, lengths)
        first = np.cumsum(lengths) - lengths
        subj, obj = (first + np.array([[sp.start for sp in part], [sp.end for sp in part]])
                     for part in zip(*spans))
        out = nn.tanh(nn.max_pool_segments(h, [first, subj[0], obj[0]],
                                           [first + lengths - 1, subj[1], obj[1]]))
        assert out.shape == (3 * self.cfg.hidden, len(lengths))
        return out

    def selective_gate(self, x: nn.Tensor, lengths=None) -> nn.Tensor:
        """Per sentence: attention over its own tokens, then the gate MLP;
        (6h, B)."""
        p = nn.softmax(self.att2(nn.relu(self.att1(x))), axis=1, lengths=lengths)
        s_att = nn.matmul(self.att_proj, nn.segment_sum(nn.mul(p, x), lengths))
        gate = self.gate(s_att)
        assert gate.shape == (6 * self.cfg.hidden, 1 if lengths is None else len(lengths))
        return gate

    def encode_bag(self, instances: list[tuple[Sentence, Span, Span]]
                   ) -> tuple[nn.Tensor, nn.Tensor, list[int]]:
        """Sentence vectors (6h, B) and gates (6h, B), one column per
        instance in the given order, and each instance's direction flag."""
        if not instances:
            raise RelationError("cannot encode an empty bag")
        lengths = [len(sentence.tokens) for sentence, _, _ in instances]
        x = self.encode_tokens(instances)
        anchors = [segment_anchors(subj, obj) for _, subj, obj in instances]
        s_pcnn = self.pcnn_encode(x, lengths, [(i, j) for i, j, _ in anchors])
        s_gcn = self.cgcn_encode(x, self._sdp_matrix(instances), lengths,
                                 [(subj, obj) for _, subj, obj in instances])
        s = nn.concat([s_pcnn, s_gcn], axis=0)
        return s, self.selective_gate(x, lengths), [d for _, _, d in anchors]

    def predict_from_bag_vector(self, v: nn.Tensor, directions) -> nn.Tensor:
        """(R, B) scores of the bag vectors v (6h, B), given each bag's mean
        direction flag (a plain number for a single bag)."""
        d = nn.Tensor(np.asarray(directions, dtype=self.dtype).reshape(1, -1))
        scores = self.head(nn.concat([v, d], axis=0))
        assert scores.shape == (len(self.relations), v.shape[1])
        return scores

    def forward_bags(self, bags: list[list[tuple[Sentence, Span, Span]]]) -> nn.Tensor:
        """(R, B) relation scores, one column per bag. The sentences of all
        bags are encoded in one pass, each bag's instances in a canonical
        order, so any permutation of a bag scores bit-identically."""
        ordered = [sorted(instances, key=lambda inst: (
            inst[0].id, inst[1].start, inst[1].end, inst[2].start, inst[2].end))
            for instances in bags]
        s, g, directions = self.encode_bag([inst for bag in ordered for inst in bag])
        sizes = [len(bag) for bag in ordered]
        v = aggregate_bag(s, g, sizes)
        starts = np.cumsum(sizes) - sizes
        means = [float(np.mean(directions[a:a + n])) for a, n in zip(starts, sizes)]
        return self.predict_from_bag_vector(v, means)

    def predict(self, instances: list[tuple[Sentence, Span, Span]]
                ) -> tuple[np.ndarray, set[str]]:
        """Scores plus the above-threshold relation set; empty set = NA."""
        with nn.no_grad():
            scores = self.forward_bags([instances]).data[:, 0]
        b = self.threshold.item()
        predicted = {r for r, sc in zip(self.relations, scores) if sc > b}
        return scores, predicted


def aggregate_bag(s: nn.Tensor, g: nn.Tensor, sizes) -> nn.Tensor:
    """(6h, B) bag vectors: for bags whose columns lie side by side,
    ``sizes`` giving each one's column count, the sum over each bag's
    columns of gate times sentence vector, in column order. A bag's vector
    is bit-identical whichever bags lie beside it."""
    if not len(sizes) or min(sizes) < 1:
        raise RelationError("cannot aggregate an empty bag")
    return nn.segment_sum(nn.mul(g, s), sizes)


def sliding_margin_loss(scores: nn.Tensor, labels: np.ndarray, threshold: nn.Tensor,
                        margin: float, down_weight: float) -> nn.Tensor:
    """Per-relation squared hinge around the learnable threshold: positives
    pushed above B+margin, negatives below B-margin (the latter scaled by
    down_weight), summed over relations and bags: ``labels`` holds one
    entry per score. Gradients reach both the scores and B."""
    y = labels.reshape(scores.shape).astype(scores.data.dtype)
    upper = nn.add(threshold, nn.Tensor(np.full((1, 1), margin, scores.data.dtype)))
    lower = nn.sub(threshold, nn.Tensor(np.full((1, 1), margin, scores.data.dtype)))
    pos = nn.relu(nn.sub(upper, scores))
    neg = nn.relu(nn.sub(scores, lower))
    pos_sq = nn.mul(nn.mul(pos, pos), nn.Tensor(y))
    neg_sq = nn.mul(nn.mul(neg, neg), nn.Tensor((1.0 - y) * down_weight))
    return nn.tsum(nn.add(pos_sq, neg_sq))


# -- training ----------------------------------------------------------------

def bag_instances(bag: Bag, sentences_by_id: dict[str, Sentence]
                  ) -> list[tuple[Sentence, Span, Span]]:
    instances = []
    for sid in bag.sentence_ids:
        sentence = sentences_by_id[sid]
        subj = next((sp for sp in sentence.spans if sp.linked == bag.subject), None)
        obj = next((sp for sp in sentence.spans if sp.linked == bag.object), None)
        if subj is None or obj is None:
            raise RelationError(
                f"sentence {sid!r} lacks linked spans for ({bag.subject},{bag.object})")
        instances.append((sentence, subj, obj))
    return instances


def train_re(bags: list[Bag], sentences_by_id: dict[str, Sentence],
             kb: KnowledgeBase, cfg: REConfig) -> REModel:
    """cfg.epochs epochs of Adam through nn.fit: one step per RE_BATCH bags,
    on their sliding-margin loss summed over relations and bags. Each bag
    reports an equal share of its batch's loss, so ``epoch_losses`` holds
    each epoch's mean per-bag loss."""
    if not bags:
        raise RelationError("no bags to train on")
    word_vocab = sorted({t.surface for s in sentences_by_id.values() for t in s.tokens})
    tag_vocab = sorted({t.pos_tag for s in sentences_by_id.values() for t in s.tokens})
    type_vocab = sorted(set(kb.types) | {UNTYPED, NO_SPAN_TYPE})
    model = REModel(cfg, kb.relations, word_vocab, type_vocab, tag_vocab)

    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    labels = np.zeros((len(model.relations), len(bags)))
    for b, bag in enumerate(bags):
        for r in bag.labels:
            labels[model.rel_index[r], b] = 1.0

    def loss_of(ids):
        scores = model.forward_bags([bag_instances(bags[i], sentences_by_id) for i in ids])
        loss = sliding_margin_loss(scores, labels[:, ids], model.threshold,
                                   cfg.margin, cfg.down_weight)
        return loss, [loss.item() / len(ids)] * len(ids)

    model.epoch_losses = nn.fit(model.parameters(), cfg.learning_rate, cfg.epochs,
                                len(bags), RE_BATCH, rng, loss_of)
    model.trained = True
    return model


# -- triple validation and extraction -----------------------------------------

@dataclass(frozen=True, slots=True)
class ExtractedTriple:
    subject: str
    relation: str
    object: str
    confidence: float
    sentence_ids: tuple[str, ...]

    def triple(self) -> Triple:
        return Triple(self.subject, self.relation, self.object)


def validate_triple(triple: Triple, entity_types: dict[str, str],
                    template: dict[str, tuple[frozenset, frozenset]]
                    ) -> tuple[bool, str | None]:
    allowed = template.get(triple.relation)
    if allowed is None:
        return False, "unknown-relation"
    subj_types, obj_types = allowed
    if entity_types.get(triple.subject, UNTYPED) not in subj_types:
        return False, "subject-type"
    if entity_types.get(triple.object, UNTYPED) not in obj_types:
        return False, "object-type"
    return True, None


def extract(corpus: list[Sentence], kb: KnowledgeBase, model: REModel,
            rejected_log: list | None = None) -> list[ExtractedTriple]:
    """Group linked sentences into ordered-pair bags, predict, expand to
    triples, and keep only template-valid ones."""
    if not model.trained:
        raise RelationError("extraction requires a trained model")
    template = build_fact_type_templates(kb)
    entity_types = {e: kb.entity_type(e) for e in kb.entities}
    sentences_by_id = {s.id: s for s in corpus}
    pairs = collect_pair_sentences(corpus)

    accepted: list[ExtractedTriple] = []
    for (s, o) in sorted(pairs):
        sids = tuple(pairs[(s, o)])
        scores, predicted = model.predict(bag_instances(Bag(s, o, (), sids), sentences_by_id))
        for rel in sorted(predicted):
            t = ExtractedTriple(s, rel, o, float(scores[model.rel_index[rel]]), sids)
            ok, reason = validate_triple(t.triple(), entity_types, template)
            if ok:
                accepted.append(t)
            elif rejected_log is not None:
                rejected_log.append((t, reason))
    return accepted


def save_extraction(accepted, rejected, accepted_path, rejected_path) -> None:
    """Rows ``subject relation object confidence sid,sid,...`` of ``accepted``
    and ``subject relation object reason`` of the (triple, reason) ``rejected``."""
    write_rows(accepted_path, ((t.subject, t.relation, t.object, repr(t.confidence),
                                ",".join(t.sentence_ids)) for t in accepted))
    write_rows(rejected_path, ((t.subject, t.relation, t.object, reason)
                               for t, reason in rejected))


def _accepted_triple(s, rel, o, conf, sids) -> ExtractedTriple:
    return ExtractedTriple(sys.intern(s), sys.intern(rel), sys.intern(o), float(conf),
                           tuple(map(sys.intern, sids.split(","))) if sids else ())


def load_extraction(accepted_path, rejected_path) -> tuple[list, list]:
    """What save_extraction wrote; RelationError names FILE:LINE."""
    accepted = read_rows(accepted_path, 5, RelationError, _accepted_triple)
    rejected = read_rows(rejected_path, 4, RelationError,
                         lambda s, rel, o, reason: (Triple(s, rel, o), reason))
    return accepted, rejected


def save_model(model: REModel, path) -> None:
    # each index lists its words in the order of their ids
    nn.save_checkpoint(path, model.parameters(), {
        "config": dataclasses.asdict(model.cfg), "relations": model.relations,
        "word_vocab": list(model.word_index), "type_vocab": list(model.type_index),
        "tag_vocab": list(model.tag_index), "trained": model.trained})


def load_model(path) -> REModel:
    """The model save_model wrote; CheckpointError names the path and the
    meta key, tensor or reason for a checkpoint that does not fit REModel."""
    meta, tensors = nn.load_checkpoint(path)
    try:
        model = REModel(REConfig(**meta["config"]), json_list(meta["relations"]),
                        *(json_list(meta[k]) for k in ("word_vocab", "type_vocab", "tag_vocab")))
        model.trained = bool(meta["trained"])
    except KeyError as exc:
        raise nn.CheckpointError(f"{path}: meta lacks key {exc}") from exc
    except (TypeError, ValueError, RelationError) as exc:
        raise nn.CheckpointError(f"{path}: meta does not fit REModel: {exc}") from exc
    nn.restore_parameters(model.parameters(), tensors, path)
    return model
