"""Bag-level relation extraction: four-family token encoding, PCNN and
C-GCN sentence encoders, selective-gate aggregation, sliding-margin
multi-label prediction, and fact-type-template validation of the output
triples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .corpus import Sentence, Span, sdp_adjacency, shortest_dependency_path
from .datagen import Bag
from .kb import UNTYPED, KnowledgeBase, Triple, build_fact_type_templates

NO_SPAN_TYPE = "O"
UNK = "<unk>"


class RelationError(Exception):
    pass


@dataclass
class REConfig:
    word_dim: int = 24
    pos_dim: int = 4          # each of the three position families
    type_dim: int = 4
    tag_dim: int = 4
    hidden: int = 24          # d_h; BiLSTM runs hidden//2 per direction
    conv_width: int = 3
    gcn_layers: int = 1
    margin: float = 0.1       # gamma of the sliding-margin loss
    down_weight: float = 0.5  # lambda on negative terms
    threshold_init: float = 0.5
    max_pos: int = 30
    learning_rate: float = 5e-3
    epochs: int = 5
    seed: int = 0
    gate_softmax_axis: str = "tokens"
    sdp_anchor: str = "last"
    sdp_include_internal: bool = True
    freeze_word_vectors: bool = False

    def __post_init__(self):
        dims = (self.word_dim, self.pos_dim, self.type_dim, self.tag_dim, self.hidden)
        if any(d <= 0 for d in dims):
            raise ValueError("all embedding dims must be positive")
        if not (0.0 < self.margin < 1.0):
            raise ValueError("margin must lie in (0,1)")
        if self.down_weight <= 0:
            raise ValueError("down_weight must be positive")
        if self.hidden % 2:
            raise ValueError("hidden must be even (split across LSTM directions)")
        if self.gate_softmax_axis != "tokens":
            raise ValueError("only token-axis gate softmax is implemented")

    @property
    def token_dim(self) -> int:
        return self.word_dim + 3 * self.pos_dim + self.type_dim + self.tag_dim


def span_distance(token_index: int, span: Span) -> int:
    """Signed token distance to a span: 0 inside, negative left of it."""
    if token_index < span.start:
        return token_index - span.start
    if token_index > span.end:
        return token_index - span.end
    return 0


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
                 type_vocab: list[str], tag_vocab: list[str],
                 word_vectors: dict[str, np.ndarray] | None = None, dtype=None):
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
        self.word_frozen = word_vectors is not None and cfg.freeze_word_vectors

        def table(name, rows, dim):
            return nn.Parameter(
                rng.uniform(-0.5 / dim, 0.5 / dim, (rows, dim)).astype(self.dtype), name)

        self.emb_word = table("re.emb.word", len(self.word_index), cfg.word_dim)
        if word_vectors is not None:
            for word, row in self.word_index.items():
                vec = word_vectors.get(word)
                if vec is not None:
                    if vec.shape != (cfg.word_dim,):
                        raise RelationError(f"pretrained vector for {word!r} has "
                                            f"shape {vec.shape}, want ({cfg.word_dim},)")
                    self.emb_word.data[row] = vec.astype(self.dtype)
        self.emb_pos1 = table("re.emb.pos1", 2 * cfg.max_pos + 1, cfg.pos_dim)
        self.emb_pos2 = table("re.emb.pos2", 2 * cfg.max_pos + 1, cfg.pos_dim)
        self.emb_pos3 = table("re.emb.pos3", cfg.max_pos + 2, cfg.pos_dim)
        self.emb_type = table("re.emb.type", len(self.type_index), cfg.type_dim)
        self.emb_tag = table("re.emb.tag", len(self.tag_index), cfg.tag_dim)

        g = lambda shape, fi, fo, name: nn.Parameter(
            nn.glorot(rng, shape, fi, fo, self.dtype), name)
        zeros = lambda shape, name: nn.Parameter(np.zeros(shape, dtype=self.dtype), name)

        self.conv_w = nn.Parameter(
            nn.glorot(rng, (d_h, d_e, cfg.conv_width), d_e * cfg.conv_width, d_h, self.dtype),
            "re.conv.w")
        self.conv_b = zeros((d_h, 1), "re.conv.b")

        self.lstm = nn.BiLSTM(d_e, d_h // 2, rng, "re.lstm", self.dtype)
        self.gcn = [nn.GCNLayer(d_h, rng, f"re.gcn{l}", self.dtype)
                    for l in range(cfg.gcn_layers)]

        self.att_w1 = g((d_e, d_e), d_e, d_e, "re.att.w1")
        self.att_b1 = zeros((d_e, 1), "re.att.b1")
        self.att_w2 = g((d_e, d_e), d_e, d_e, "re.att.w2")
        self.att_b2 = zeros((d_e, 1), "re.att.b2")
        self.att_proj = g((d_h, d_e), d_e, d_h, "re.att.proj")
        self.gate_w1 = g((d_h, d_h), d_h, d_h, "re.gate.w1")
        self.gate_b1 = zeros((d_h, 1), "re.gate.b1")
        self.gate_w2 = g((6 * d_h, d_h), d_h, 6 * d_h, "re.gate.w2")
        self.gate_b2 = zeros((6 * d_h, 1), "re.gate.b2")

        self.out_w1 = g((3 * d_h, 6 * d_h + 1), 6 * d_h + 1, 3 * d_h, "re.out.w1")
        self.out_b1 = zeros((3 * d_h, 1), "re.out.b1")
        self.out_w2 = g((len(relations), 3 * d_h), 3 * d_h, len(relations), "re.out.w2")
        self.out_b2 = zeros((len(relations), 1), "re.out.b2")
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
        params = [] if self.word_frozen else [self.emb_word]
        params += [self.emb_pos1, self.emb_pos2, self.emb_pos3, self.emb_type,
                   self.emb_tag, self.conv_w, self.conv_b]
        params += self.lstm.parameters()
        for layer in self.gcn:
            params += layer.parameters()
        params += [self.att_w1, self.att_b1, self.att_w2, self.att_b2, self.att_proj,
                   self.gate_w1, self.gate_b1, self.gate_w2, self.gate_b2,
                   self.out_w1, self.out_b1, self.out_w2, self.out_b2, self.threshold]
        return params

    # -- encoding ------------------------------------------------------------

    def encode_tokens(self, sentence: Sentence, subject_span: Span,
                      object_span: Span) -> nn.Tensor:
        if subject_span.overlaps(object_span):
            raise RelationError("subject and object spans overlap")
        cfg = self.cfg
        n = len(sentence.tokens)
        others = [sp for sp in sentence.spans
                  if sp is not subject_span and sp is not object_span and sp.linked]

        word_idx, p1_idx, p2_idx, p3_idx, ty_idx, tag_idx = [], [], [], [], [], []
        span_type_at = {}
        for sp in sentence.spans:
            for t in range(sp.start, sp.end + 1):
                span_type_at[t] = sp.span_type or UNTYPED
        for tok in sentence.tokens:
            word_idx.append(self.word_index.get(tok.surface, 0))
            d1 = np.clip(span_distance(tok.index, subject_span), -cfg.max_pos, cfg.max_pos)
            d2 = np.clip(span_distance(tok.index, object_span), -cfg.max_pos, cfg.max_pos)
            p1_idx.append(int(d1) + cfg.max_pos)
            p2_idx.append(int(d2) + cfg.max_pos)
            if others:
                d3 = min(abs(span_distance(tok.index, sp)) for sp in others)
                d3 = min(d3, cfg.max_pos)
            else:
                d3 = -1
            p3_idx.append(d3 + 1)
            ty_idx.append(self.type_index.get(span_type_at.get(tok.index, NO_SPAN_TYPE), 0))
            tag_idx.append(self.tag_index.get(tok.pos_tag, 0))

        blocks = [
            nn.gather_rows(self.emb_word, word_idx),
            nn.gather_rows(self.emb_pos1, p1_idx),
            nn.gather_rows(self.emb_pos2, p2_idx),
            nn.gather_rows(self.emb_pos3, p3_idx),
            nn.gather_rows(self.emb_type, ty_idx),
            nn.gather_rows(self.emb_tag, tag_idx),
        ]
        x = nn.transpose(nn.concat(blocks, axis=1))
        assert x.shape == (cfg.token_dim, n)
        return x

    def pcnn_encode(self, x: nn.Tensor, i: int, j: int) -> nn.Tensor:
        """Three-segment max-pooled convolution; segments split at the
        0-based anchors as [0,i), [i,j), [j,n)."""
        if not 0 <= i < j:
            raise RelationError(f"anchors must satisfy 0 <= i < j, got {i},{j}")
        n = x.shape[1]
        h = nn.conv1d(x, self.conv_w, self.conv_b)
        segs = [nn.max_pool_range(h, 0, i - 1),
                nn.max_pool_range(h, i, j - 1),
                nn.max_pool_range(h, j, n - 1)]
        out = nn.tanh(nn.concat(segs, axis=0))
        assert out.shape == (3 * self.cfg.hidden, 1)
        return out

    def _sdp_matrix(self, sentence: Sentence, subject_span: Span,
                    object_span: Span) -> np.ndarray:
        path = shortest_dependency_path(sentence, subject_span, object_span,
                                        self.cfg.sdp_anchor)
        keep = list(path)
        if self.cfg.sdp_include_internal:
            keep += list(range(subject_span.start, subject_span.end + 1))
            keep += list(range(object_span.start, object_span.end + 1))
        return sdp_adjacency(sentence, keep).astype(self.dtype)

    def cgcn_encode(self, x: nn.Tensor, a_hat: np.ndarray, subject_span: Span,
                    object_span: Span) -> nn.Tensor:
        n = x.shape[1]
        if a_hat.shape != (n, n):
            raise RelationError(f"adjacency {a_hat.shape} for {n} tokens")
        h = self.lstm(x)
        for layer in self.gcn:
            h = layer(h, a_hat)
        pools = [nn.max_pool_range(h, 0, n - 1),
                 nn.max_pool_range(h, subject_span.start, subject_span.end),
                 nn.max_pool_range(h, object_span.start, object_span.end)]
        out = nn.tanh(nn.concat(pools, axis=0))
        assert out.shape == (3 * self.cfg.hidden, 1)
        return out

    def selective_gate(self, x: nn.Tensor) -> nn.Tensor:
        q = nn.add(nn.matmul(self.att_w2,
                             nn.relu(nn.add(nn.matmul(self.att_w1, x), self.att_b1))),
                   self.att_b2)
        p = nn.softmax(q, axis=1)
        s_att = nn.tsum(nn.mul(p, x), axis=1, keepdims=True)
        s_att = nn.matmul(self.att_proj, s_att)
        hidden = nn.relu(nn.add(nn.matmul(self.gate_w1, s_att), self.gate_b1))
        gate = nn.sigmoid(nn.add(nn.matmul(self.gate_w2, hidden), self.gate_b2))
        assert gate.shape == (6 * self.cfg.hidden, 1)
        return gate

    def encode_sentence(self, sentence: Sentence, subject_span: Span,
                        object_span: Span) -> tuple[nn.Tensor, nn.Tensor, int]:
        x = self.encode_tokens(sentence, subject_span, object_span)
        i, j, direction = segment_anchors(subject_span, object_span)
        s_pcnn = self.pcnn_encode(x, i, j)
        a_hat = self._sdp_matrix(sentence, subject_span, object_span)
        s_gcn = self.cgcn_encode(x, a_hat, subject_span, object_span)
        s = nn.concat([s_pcnn, s_gcn], axis=0)
        return s, self.selective_gate(x), direction

    def predict_from_bag_vector(self, v: nn.Tensor, direction: float) -> nn.Tensor:
        d = nn.Tensor(np.array([[direction]], dtype=self.dtype))
        z = nn.concat([v, d], axis=0)
        hidden = nn.relu(nn.add(nn.matmul(self.out_w1, z), self.out_b1))
        scores = nn.sigmoid(nn.add(nn.matmul(self.out_w2, hidden), self.out_b2))
        assert scores.shape == (len(self.relations), 1)
        return scores

    def forward_bag(self, instances: list[tuple[Sentence, Span, Span]]) -> nn.Tensor:
        encoded = [self.encode_sentence(*inst) for inst in instances]
        v = aggregate_bag([(s, g) for s, g, _ in encoded])
        direction = float(np.mean([d for _, _, d in encoded]))
        return self.predict_from_bag_vector(v, direction)

    def predict(self, instances: list[tuple[Sentence, Span, Span]]
                ) -> tuple[np.ndarray, set[str]]:
        """Scores plus the above-threshold relation set; empty set = NA."""
        with nn.no_grad():
            scores = self.forward_bag(instances).data[:, 0]
        b = self.threshold.item()
        predicted = {r for r, sc in zip(self.relations, scores) if sc > b}
        return scores, predicted


def aggregate_bag(pairs: list[tuple[nn.Tensor, nn.Tensor]]) -> nn.Tensor:
    """v = sum of gate-weighted sentence vectors. Terms are summed in byte
    order of their values, so any permutation of the bag gives a
    bit-identical result."""
    if not pairs:
        raise RelationError("cannot aggregate an empty bag")
    ordered = sorted(pairs, key=lambda sg: sg[0].data.tobytes() + sg[1].data.tobytes())
    total = nn.mul(ordered[0][1], ordered[0][0])
    for s, g in ordered[1:]:
        total = nn.add(total, nn.mul(g, s))
    return total


def sliding_margin_loss(scores: nn.Tensor, labels: np.ndarray, threshold: nn.Tensor,
                        margin: float, down_weight: float) -> nn.Tensor:
    """Per-relation squared hinge around the learnable threshold: positives
    pushed above B+margin, negatives below B-margin (the latter scaled by
    down_weight). Gradients reach both the scores and B."""
    y = labels.reshape(-1, 1).astype(scores.data.dtype)
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
             kb: KnowledgeBase, cfg: REConfig,
             word_vectors: dict[str, np.ndarray] | None = None) -> REModel:
    if not bags:
        raise RelationError("no bags to train on")
    word_vocab = sorted({t.surface for s in sentences_by_id.values() for t in s.tokens})
    tag_vocab = sorted({t.pos_tag for s in sentences_by_id.values() for t in s.tokens})
    type_vocab = sorted(set(kb.types) | {UNTYPED, NO_SPAN_TYPE})
    model = REModel(cfg, kb.relations, word_vocab, type_vocab, tag_vocab, word_vectors)

    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    opt = nn.Adam(model.parameters(), lr=cfg.learning_rate)
    label_rows = []
    for bag in bags:
        y = np.zeros(len(model.relations))
        for r in bag.labels:
            y[model.rel_index[r]] = 1.0
        label_rows.append(y)

    model.epoch_losses = []
    for _ in range(cfg.epochs):
        losses = []
        for i in rng.permutation(len(bags)):
            instances = bag_instances(bags[i], sentences_by_id)
            scores = model.forward_bag(instances)
            loss = sliding_margin_loss(scores, label_rows[i], model.threshold,
                                       cfg.margin, cfg.down_weight)
            losses.append(loss.item())
            opt.zero_grad()
            loss.backward()
            opt.step()
        model.epoch_losses.append(float(np.mean(losses)))
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
            template: dict | None = None,
            rejected_log: list | None = None) -> list[ExtractedTriple]:
    """Group linked sentences into ordered-pair bags, predict, expand to
    triples, and keep only template-valid ones."""
    if not model.trained:
        raise RelationError("extraction requires a trained model")
    if template is None:
        template = build_fact_type_templates(kb)
    entity_types = {e: kb.entity_type(e) for e in kb.entities}
    sentences_by_id = {s.id: s for s in corpus}
    pairs: dict[tuple[str, str], list[str]] = {}
    for sentence in corpus:
        linked = sorted({sp.linked for sp in sentence.spans if sp.linked})
        for s in linked:
            for o in linked:
                if s != o:
                    pairs.setdefault((s, o), []).append(sentence.id)

    accepted: list[ExtractedTriple] = []
    for (s, o) in sorted(pairs):
        sids = pairs[(s, o)]
        bag = Bag(s, o, (), tuple(sids))
        scores, predicted = model.predict(bag_instances(bag, sentences_by_id))
        for rel in sorted(predicted):
            t = ExtractedTriple(s, rel, o, float(scores[model.rel_index[rel]]),
                                tuple(sids))
            ok, reason = validate_triple(t.triple(), entity_types, template)
            if ok:
                accepted.append(t)
            elif rejected_log is not None:
                rejected_log.append((t, reason))
    return accepted


def save_extracted_triples(triples: list[ExtractedTriple], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for t in triples:
            fh.write(f"{t.subject}\t{t.relation}\t{t.object}\t{t.confidence!r}\t"
                     f"{','.join(t.sentence_ids)}\n")


def save_model(model: REModel, path) -> None:
    meta = {
        "config": {k: getattr(model.cfg, k) for k in REConfig.__dataclass_fields__},
        "relations": model.relations,
        "word_vocab": [w for w, _ in sorted(model.word_index.items(), key=lambda p: p[1])],
        "type_vocab": [w for w, _ in sorted(model.type_index.items(), key=lambda p: p[1])],
        "tag_vocab": [w for w, _ in sorted(model.tag_index.items(), key=lambda p: p[1])],
        "trained": model.trained,
    }
    nn.save_checkpoint(path, model.parameters() + ([model.emb_word] if model.word_frozen else []),
                       meta)


def load_model(path) -> REModel:
    meta, tensors = nn.load_checkpoint(path)
    cfg = REConfig(**meta["config"])
    vocab = [w for w in meta["word_vocab"] if w != UNK]
    types = [w for w in meta["type_vocab"] if w != UNK]
    tags = [w for w in meta["tag_vocab"] if w != UNK]
    model = REModel(cfg, meta["relations"], vocab, types, tags)
    nn.restore_parameters(model.parameters() if not model.word_frozen
                          else model.parameters() + [model.emb_word], tensors)
    model.trained = bool(meta["trained"])
    return model
