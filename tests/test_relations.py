import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbforge import nn, relations
from kbforge.corpus import Sentence, Span, Token
from kbforge.datagen import Bag
from kbforge.kb import Entity, KnowledgeBase, Triple, build_fact_type_templates
from kbforge.kb import UNTYPED
from kbforge.relations import (
    NO_SPAN_TYPE,
    ExtractedTriple,
    REConfig,
    REModel,
    RelationError,
    aggregate_bag,
    bag_instances,
    extract,
    load_model,
    save_model,
    sliding_margin_loss,
    span_distance,
    train_re,
)

from gradcheck import gradcheck


def mk_sentence(words, heads, sid="s0", tags=None):
    tags = tags or ["N"] * len(words)
    toks = [Token(w, tags[i], heads[i]) for i, w in enumerate(words)]
    return Sentence(sid, toks)


def re_kb():
    ents = [Entity("e1", "Tony", (), "person"),
            Entity("e2", "Pepper", (), "person"),
            Entity("e3", "Mark", (), "suit")]
    return KnowledgeBase(ents, [Triple("e1", "knows", "e2"),
                                Triple("e1", "wears", "e3")])


def tiny_cfg(**kw):
    base = dict(word_dim=3, pos_dim=2, type_dim=2, tag_dim=2, hidden=4,
                conv_width=3, max_pos=5, seed=0)
    base.update(kw)
    return REConfig(**base)


def tiny_model(relations=("knows", "wears"), dtype=None, **kw):
    cfg = tiny_cfg(**kw)
    return REModel(cfg, list(relations),
                   ["Tony", "knows", "wears", "Pepper", "Mark"],
                   ["person", "suit"], ["N", "V"], dtype=dtype)


def pair_sentence(sid="s0"):
    s = mk_sentence(["Tony", "knows", "Pepper"], [1, -1, 1], sid)
    subj = Span(0, 0, "Tony", "person", linked="e1")
    obj = Span(2, 2, "Pepper", "person", linked="e2")
    s.spans = [subj, obj]
    return s, subj, obj


def reversed_sentence(sid="s1"):
    # object precedes subject; subject span is two tokens wide
    s = mk_sentence(["Pepper", "visited", "Tony", "Stark"], [1, -1, 1, 2], sid)
    obj = Span(0, 0, "Pepper", "person", linked="e2")
    subj = Span(2, 3, "Tony Stark", "person", linked="e1")
    s.spans = [obj, subj]
    return s, subj, obj


def layout(instances):
    """The lengths and the (6, B) columns of the instances' sentences laid
    side by side, counted token by token: each instance's first and last
    column, subject start and end, and object start and end."""
    lengths, columns, first = [], [], 0
    for sentence, subj, obj in instances:
        n = len(sentence.tokens)
        columns.append([first, first + n - 1, first + subj.start, first + subj.end,
                        first + obj.start, first + obj.end])
        lengths.append(n)
        first += n
    return np.array(lengths), np.array(columns).T


# -- geometry helpers ---------------------------------------------------------


def test_span_distance_sign_convention():
    assert span_distance(0, 3, 5) == -3
    assert span_distance(3, 3, 5) == 0
    assert span_distance(4, 3, 5) == 0
    assert span_distance(5, 3, 5) == 0
    assert span_distance(8, 3, 5) == 3
    assert span_distance(np.arange(9), 3, 5).tolist() == [-3, -2, -1, 0, 0, 0, 1, 2, 3]


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_cfg(margin=0.0)
    with pytest.raises(ValueError):
        tiny_cfg(hidden=5)
    with pytest.raises(ValueError):
        tiny_cfg(down_weight=0.0)


# -- encoders -----------------------------------------------------------------


def test_encode_tokens_shape_and_overlap_guard(monkeypatch):
    m = tiny_model()
    s, subj, obj = pair_sentence()
    x = m.encode_tokens([(s, subj, obj)], *layout([(s, subj, obj)]))
    assert x.shape == (m.cfg.token_dim, 3)
    # forward_bags refuses an overlapping instance before any encoder runs
    encoded = []
    monkeypatch.setattr(m, "encode_tokens", lambda *args: encoded.append(args))
    with pytest.raises(RelationError, match="overlap"):
        m.forward_bags([[(s, subj, Span(0, 1, "Tony knows"))]])
    assert encoded == []


def test_encode_tokens_nearest_other_span_positions(monkeypatch):
    # pos3 of a token: 1 + its distance to the nearest linked span other
    # than the subject and the object, capped at max_pos (5 here); 0 when
    # the sentence has no such span
    m = tiny_model()
    words = ["Tony", "knows", "Pepper", "w", "w", "w", "w", "w", "Mark", "Two", "w", "w", "w",
             "Happy"]
    s = mk_sentence(words, [-1] + [0] * 13, "four")
    subj = Span(0, 0, "Tony", "person", linked="e1")
    obj = Span(2, 2, "Pepper", "person", linked="e2")
    s.spans = [subj, obj, Span(4, 4, "w"), Span(8, 9, "Mark Two", "suit", linked="e3"),
               Span(13, 13, "Happy", "person", linked="e2")]
    pair, pair_subj, pair_obj = pair_sentence()
    indices = []
    embed_columns = nn.embed_columns

    def capturing(tables, columns):
        indices.append([list(c) for c in columns])
        return embed_columns(tables, columns)

    monkeypatch.setattr(nn, "embed_columns", capturing)
    both = [(s, subj, obj), (pair, pair_subj, pair_obj)]
    m.encode_tokens(both, *layout(both))
    # to tokens 8-9:  8 7 6 5 4 3 2 1 0 0 1 2 3 4
    # to token 13:   13 12 11 10 9 8 7 6 5 4 3 2 1 0
    # the minimum, capped at 5, plus 1; the unlinked span at 4 does not count
    assert indices[0][3] == [6, 6, 6, 6, 5, 4, 3, 2, 1, 1, 2, 3, 2, 1] + [0, 0, 0]
    # pos1 and pos2: the signed distance to the subject and to the object,
    # capped at 5, plus 5
    assert indices[0][1] == [5, 6, 7, 8, 9, 10, 10, 10, 10, 10, 10, 10, 10, 10] + [5, 6, 7]
    assert indices[0][2] == [3, 4, 5, 6, 7, 8, 9, 10, 10, 10, 10, 10, 10, 10] + [3, 4, 5]


def test_pcnn_leading_anchor_zeroes_first_segment():
    m = tiny_model()
    lengths, offsets = layout([pair_sentence()])
    x = m.encode_tokens([pair_sentence()], lengths, offsets)
    out = m.pcnn_encode(x, lengths, offsets)
    h = m.cfg.hidden
    assert out.shape == (3 * h, 1)
    assert np.all(out.data[:h] == 0.0)          # empty [0,-1] segment
    assert np.any(out.data[h:] != 0.0)


def test_forward_bags_rejects_overlapping_spans():
    # spans sharing a token but not their last one (the PCNN's cut points
    # and the pruned tree are defined, the instance is still refused), and
    # a span inside the other
    m = tiny_model()
    s, subj, _ = pair_sentence()
    for pair in [(Span(0, 1, "Tony knows"), Span(1, 2, "knows Pepper")),
                 (subj, Span(0, 1, "Tony knows"))]:
        with pytest.raises(RelationError, match="overlap"):
            m.forward_bags([[(s, *pair)]])


# -- bag batching -------------------------------------------------------------


@st.composite
def instances(draw, sid):
    """A sentence of 2-12 tokens with a random dependency tree and 2-4
    non-overlapping spans, at least two of them linked, and a
    (sentence, subject, object) pair of distinct linked spans."""
    n = draw(st.integers(2, 12))
    words = draw(st.lists(st.sampled_from(["Tony", "knows", "Pepper", "Mark", "zzz"]),
                          min_size=n, max_size=n))
    tags = draw(st.lists(st.sampled_from(["N", "V", "X"]), min_size=n, max_size=n))
    root = draw(st.integers(0, n - 1))
    order = draw(st.permutations(range(n)))
    order.remove(root)
    order.insert(0, root)
    heads = [0] * n
    heads[root] = -1
    for k in range(1, n):
        heads[order[k]] = order[draw(st.integers(0, k - 1))]
    sentence = mk_sentence(words, heads, sid, tags)
    starts = sorted(draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=min(n, 4))))
    for k, start in enumerate(starts):
        room = (starts[k + 1] if k + 1 < len(starts) else n) - start
        end = start + draw(st.integers(0, min(room, 3) - 1))
        linked = f"e{k}" if k < 2 or draw(st.booleans()) else None
        sentence.spans.append(Span(start, end, sentence.surface(start, end),
                                   draw(st.sampled_from(["person", "suit", None])), linked))
    linked = [sp for sp in sentence.spans if sp.linked]
    subj, obj = draw(st.permutations(linked))[:2]
    return sentence, subj, obj


@st.composite
def bags(draw):
    size = draw(st.integers(1, 24))
    return [draw(instances(f"s{i}")) for i in range(size)]


def pruned_tree_reference(sentence, subj, obj):
    """D^(-1/2) (A+I) D^(-1/2) over the tokens of both spans and of the
    undirected tree path between their last tokens, found by breadth-first
    search over the head edges; A holds the edges with both ends kept."""
    n = len(sentence.tokens)
    edges = [(t, h) for t, h in enumerate(sentence.heads()) if h != -1]
    neighbours = {t: [] for t in range(n)}
    for t, h in edges:
        neighbours[t].append(h)
        neighbours[h].append(t)
    came_from, queue = {subj.end: None}, deque([subj.end])
    while queue:
        t = queue.popleft()
        for u in neighbours[t]:
            if u not in came_from:
                came_from[u] = t
                queue.append(u)
    keep = set(range(subj.start, subj.end + 1)) | set(range(obj.start, obj.end + 1))
    t = obj.end
    while t is not None:
        keep.add(t)
        t = came_from[t]
    a = np.eye(n)
    for t, h in edges:
        if t in keep and h in keep:
            a[t, h] = a[h, t] = 1.0
    d = 1.0 / np.sqrt(a.sum(axis=1))
    return a * d[:, None] * d[None, :]


@settings(max_examples=100, deadline=None)
@given(bags())
def test_sdp_matrix_equals_the_pruned_tree_from_its_definition(bag):
    model = tiny_model()
    both_orders = bag + [(s, obj, subj) for s, subj, obj in bag]
    stack = model._sdp_matrix(both_orders)
    expected = np.zeros_like(stack)
    for b, (s, subj, obj) in enumerate(both_orders):
        n = len(s.tokens)
        expected[b, :n, :n] = pruned_tree_reference(s, subj, obj)
        assert (model._sdp_matrix([(s, subj, obj)])[0].tobytes()
                == stack[b, :n, :n].tobytes())
    assert stack.tobytes() == expected.tobytes()
    assert stack[:len(bag)].tobytes() == stack[len(bag):].tobytes()


def sentence_columns(model, instances):
    """Each encoder's output on the instances laid out by ``layout``:
    token columns, PCNN, C-GCN and gate vectors."""
    lengths, offsets = layout(instances)
    x = model.encode_tokens(instances, lengths, offsets)
    return [x, model.pcnn_encode(x, lengths, offsets),
            model.cgcn_encode(x, model._sdp_matrix(instances), lengths, offsets),
            model.selective_gate(x, lengths)]


@settings(max_examples=40, deadline=None)
@given(bags())
def test_batched_sentence_encoding_equals_bag_of_one(bag):
    model = tiny_model(dtype=np.float64)
    x, *batched = sentence_columns(model, bag)
    h = model.cfg.hidden
    assert [out.shape for out in batched] == [(3 * h, len(bag))] * 2 + [(6 * h, len(bag))]
    first = 0
    for b, inst in enumerate(bag):
        x1, *alone = sentence_columns(model, [inst])
        n = x1.shape[1]
        assert x1.data.tobytes() == x.data[:, first:first + n].copy().tobytes()
        for out, one in zip(batched, alone):
            np.testing.assert_allclose(out.data[:, b], one.data[:, 0], rtol=0, atol=1e-12)
        first += n


@settings(max_examples=60, deadline=None)
@given(bags(), st.integers(0, 2**32 - 1))
def test_pcnn_segments_split_at_the_spans_last_tokens(bag, seed):
    # both orders of each pair: the segments do not depend on which span
    # is the subject
    model = tiny_model(dtype=np.float64)
    both_orders = bag + [(s, obj, subj) for s, subj, obj in bag]
    lengths, offsets = layout(both_orders)
    rng = np.random.default_rng(seed)
    x = nn.Tensor(rng.normal(size=(model.cfg.token_dim, lengths.sum())))
    out = model.pcnn_encode(x, lengths, offsets)
    first = 0
    for b, (sentence, subj, obj) in enumerate(both_orders):
        n = len(sentence.tokens)
        i, j = sorted((subj.end, obj.end))
        h = nn.conv1d(nn.Tensor(x.data[:, first:first + n]), model.conv_w, model.conv_b)
        want = nn.tanh(nn.concat([nn.max_pool_range(h, 0, i - 1), nn.max_pool_range(h, i, j - 1),
                                  nn.max_pool_range(h, j, n - 1)], axis=0))
        np.testing.assert_allclose(out.data[:, b], want.data[:, 0], rtol=0, atol=1e-12)
        first += n


@settings(max_examples=30, deadline=None)
@given(bags(), st.randoms(use_true_random=False))
def test_forward_bag_bit_identical_under_permutation(bag, random):
    model = tiny_model()
    shuffled = random.sample(bag, len(bag))
    assert (model.forward_bags([shuffled]).data.tobytes()
            == model.forward_bags([bag]).data.tobytes())


@st.composite
def bag_batches(draw):
    """1-8 bags of 1-3 instances; sentence ids are unique across the batch."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=8))
    return [[draw(instances(f"b{b}s{i}")) for i in range(size)]
            for b, size in enumerate(sizes)]


@settings(max_examples=30, deadline=None)
@given(bag_batches())
def test_forward_bags_column_is_that_bag_scored_alone(batch):
    model = tiny_model()
    scores = model.forward_bags(batch)
    assert scores.shape == (len(model.relations), len(batch))
    for b, bag in enumerate(batch):
        alone = model.forward_bags([bag]).data
        np.testing.assert_allclose(scores.data[:, b:b + 1], alone, rtol=0, atol=1e-5)


@settings(max_examples=30, deadline=None)
@given(bag_batches())
def test_forward_bags_hands_every_encoder_the_reference_layout(batch):
    # the instances as forward_bags orders them, laid out by ``layout``
    model = tiny_model()
    seen = []
    for name in ("encode_tokens", "pcnn_encode", "cgcn_encode"):
        def capturing(*args, encoder=getattr(model, name)):
            seen.append(args)
            return encoder(*args)
        setattr(model, name, capturing)
    model.forward_bags(batch)
    (instances, *layout_args), (_, *pcnn_args), (_, _, *cgcn_args) = seen
    want = layout(instances)
    for got in (layout_args, pcnn_args, cgcn_args):
        assert [a.tolist() for a in got] == [a.tolist() for a in want]


@settings(max_examples=30, deadline=None)
@given(bag_batches())
def test_bag_direction_is_its_share_of_subjects_after_objects(batch):
    model = tiny_model()
    seen = []
    head = model.predict_from_bag_vector

    def capturing(v, directions):
        seen.append(directions)
        return head(v, directions)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "predict_from_bag_vector", capturing)
        model.forward_bags(batch)
    want = [sum(subj.start > obj.start for _, subj, obj in bag) / len(bag) for bag in batch]
    assert len(seen) == 1 and np.asarray(seen[0]).tolist() == want


@st.composite
def span_pairs(draw):
    """A sentence of 1-8 tokens and two spans anywhere in it."""
    n = draw(st.integers(1, 8))
    spans = []
    for linked in ("e1", "e2"):
        start = draw(st.integers(0, n - 1))
        spans.append(Span(start, draw(st.integers(start, n - 1)), "w", "person", linked))
    sentence = mk_sentence(["w"] * n, [-1] + [0] * (n - 1), "pair")
    sentence.spans = sorted(spans, key=lambda sp: (sp.start, sp.end))
    return sentence, *spans


@settings(max_examples=60, deadline=None)
@given(bag_batches(), span_pairs(), st.data())
def test_forward_bags_rejects_a_batch_exactly_when_an_instance_overlaps(batch, pair, data):
    # the one overlap check, made for the whole batch at once, against
    # the definition: the spans share a token
    _, subj, obj = pair
    bag = data.draw(st.integers(0, len(batch) - 1))
    batch[bag] = batch[bag] + [pair]
    model = tiny_model()
    if subj.end < obj.start or obj.end < subj.start:
        assert model.forward_bags(batch).shape == (2, len(batch))
    else:
        with pytest.raises(RelationError, match="overlap"):
            model.forward_bags(batch)


def test_large_bag_memory_grows_linearly():
    # 500 sentences of 12 tokens: a dense adjacency over the bag's 6,000
    # tokens alone would take 144 MB in float32
    model = tiny_model()
    bag = []
    for i in range(500):
        s = mk_sentence(["Tony", "knows", "Pepper"] * 4, [1, -1, 1] + [1] * 9, f"s{i}")
        subj = Span(0, 0, "Tony", "person", linked="e1")
        obj = Span(2, 2, "Pepper", "person", linked="e2")
        s.spans = [subj, obj]
        bag.append((s, subj, obj))
    assert model._sdp_matrix(bag).shape == (500, 12, 12)
    labels = np.array([1.0, 0.0])
    tracemalloc.start()
    try:
        loss = sliding_margin_loss(model.forward_bags([bag]), labels, model.threshold,
                                   model.cfg.margin, model.cfg.down_weight)
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24e6


def test_training_step_tape_size_independent_of_bag_size():
    def tape_nodes(loss):
        seen, stack = {id(loss)}, [loss]
        while stack:
            for parent in stack.pop()._parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        return len(seen)

    model = tiny_model()
    pool = [pair_sentence(f"p{i}") if i % 2 else reversed_sentence(f"p{i}") for i in range(8)]
    sizes = []
    for bag in (pool[:1], pool):
        loss = sliding_margin_loss(model.forward_bags([bag]), np.array([1.0, 0.0]),
                                   model.threshold, model.cfg.margin, model.cfg.down_weight)
        sizes.append(tape_nodes(loss))
    assert sizes[0] == sizes[1]


# -- loss ---------------------------------------------------------------------


def scalar_loss(r, y, b=0.5, margin=0.1, down_weight=0.5):
    scores = nn.Parameter(np.array([[r]], dtype=np.float64), "r")
    threshold = nn.Parameter(np.array([[b]], dtype=np.float64), "b")
    loss = sliding_margin_loss(scores, np.array([y], dtype=np.float64),
                               threshold, margin, down_weight)
    return loss, threshold, scores


def test_loss_hand_values():
    loss, _, _ = scalar_loss(0.9, 1.0)
    assert loss.item() == pytest.approx(0.0, abs=1e-9)
    loss, _, _ = scalar_loss(0.9, 0.0)
    assert loss.item() == pytest.approx(0.125, abs=1e-9)
    # positive short of the upper margin: (0.6 - 0.55)^2
    loss, _, _ = scalar_loss(0.55, 1.0)
    assert loss.item() == pytest.approx(0.0025, abs=1e-9)


def test_loss_zero_iff_margins_satisfied():
    rng = np.random.default_rng(2)
    for _ in range(200):
        r = float(rng.uniform(0, 1))
        y = float(rng.integers(2))
        b = float(rng.uniform(0.2, 0.8))
        margin = float(rng.uniform(0.05, 0.2))
        loss, _, _ = scalar_loss(r, y, b, margin)
        satisfied = (r >= b + margin) if y else (r <= b - margin)
        assert (loss.item() == 0.0) == satisfied


def test_loss_matches_independent_formula():
    rng = np.random.default_rng(7)
    for _ in range(100):
        k = int(rng.integers(1, 6))
        scores = rng.uniform(0, 1, size=(k, 1))
        labels = rng.integers(0, 2, size=k).astype(np.float64)
        b = float(rng.uniform(0.2, 0.8))
        margin = float(rng.uniform(0.05, 0.2))
        lam = float(rng.uniform(0.2, 2.0))

        pos = np.maximum(0.0, (b + margin) - scores[:, 0]) ** 2 * labels
        neg = np.maximum(0.0, scores[:, 0] - (b - margin)) ** 2 * (1 - labels) * lam
        want = float(np.sum(pos + neg))

        loss = sliding_margin_loss(nn.Tensor(scores.astype(np.float64)), labels,
                                   nn.Parameter(np.array([[b]]), "b"), margin, lam)
        assert loss.item() == pytest.approx(want, abs=1e-9)


def test_loss_gradient_reaches_threshold():
    loss, threshold, scores = scalar_loss(0.9, 0.0)
    loss.backward()
    # d/dB of (r - (B - margin))^2 * lambda = -2 * 0.5 * 0.5 = -0.5
    assert threshold.grad is not None
    assert threshold.grad.reshape(()) == pytest.approx(-0.5, abs=1e-9)
    assert scores.grad is not None


# -- bag aggregation ----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 11), min_size=1, max_size=8), st.integers(0, 2**32 - 1))
def test_aggregate_bag_is_its_column_of_a_batched_segment_sum(lengths, seed):
    # bags laid side by side and summed as segments give each bag's vector
    # bit for bit, so batching bags cannot change a model's scores
    rng = np.random.default_rng(seed)
    s = rng.standard_normal((24, sum(lengths))).astype(np.float32)
    g = rng.uniform(0, 1, s.shape).astype(np.float32)
    batched = aggregate_bag(nn.Tensor(s), nn.Tensor(g), lengths).data
    for b, (start, size) in enumerate(zip(np.cumsum(lengths) - lengths, lengths)):
        cols = slice(start, start + size)
        one = aggregate_bag(nn.Tensor(s[:, cols]), nn.Tensor(g[:, cols]), [size]).data
        assert one.tobytes() == batched[:, b:b + 1].tobytes()


def test_aggregate_bag_rejects_empty():
    with pytest.raises(RelationError):
        aggregate_bag(nn.Tensor(np.zeros((6, 0))), nn.Tensor(np.zeros((6, 0))), [0])
    with pytest.raises(RelationError):
        tiny_model().forward_bags([[]])


def test_aggregate_bag_rejects_an_empty_bag_among_others():
    s = nn.Tensor(np.ones((6, 3)))
    with pytest.raises(RelationError):
        aggregate_bag(s, s, [2, 0, 1])
    with pytest.raises(RelationError):
        aggregate_bag(s, s, [])
    with pytest.raises(RelationError):
        tiny_model().forward_bags([[pair_sentence()], []])


def test_bag_instances_requires_linked_spans():
    s, _, _ = pair_sentence("sid1")
    bag = Bag("e1", "e9", (), ("sid1",))
    with pytest.raises(RelationError):
        bag_instances(bag, {"sid1": s})


# -- end-to-end gradients -----------------------------------------------------


def test_full_model_gradients_float64():
    model = tiny_model(dtype=np.float64)
    s1, subj1, obj1 = pair_sentence("g0")
    s2, subj2, obj2 = reversed_sentence("g1")
    instances = [(s1, subj1, obj1), (s2, subj2, obj2)]
    labels = np.array([1.0, 0.0])

    def make_loss():
        scores = model.forward_bags([instances])
        return sliding_margin_loss(scores, labels, model.threshold,
                                   model.cfg.margin, model.cfg.down_weight)

    # attention-path gradients sit near 2e-7 while the dominant ones are ~0.2;
    # a pure relative error there measures float64 round-off, not correctness,
    # so floor the denominator at 1e-6
    err = gradcheck(make_loss, model.parameters(), floor=1e-6)
    assert err < 1e-4


def test_summed_batch_loss_gradients_float64():
    # the loss one training step takes: three bags scored in one pass,
    # summed over relations and bags
    model = tiny_model(dtype=np.float64)
    batch = [[pair_sentence("g0"), reversed_sentence("g1")],
             [reversed_sentence("g2")],
             [pair_sentence("g3")]]
    labels = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])

    def make_loss():
        return sliding_margin_loss(model.forward_bags(batch), labels, model.threshold,
                                   model.cfg.margin, model.cfg.down_weight)

    err = gradcheck(make_loss, model.parameters(), floor=1e-6)
    assert err < 1e-4


def test_parameter_names_and_order_are_pinned():
    # Adam's flat buffer is laid out in this order, and re.ckpt stores these names
    assert [p.name for p in tiny_model().parameters()] == [
        "re.emb.word", "re.emb.pos1", "re.emb.pos2", "re.emb.pos3", "re.emb.type",
        "re.emb.tag", "re.conv.w", "re.conv.b",
        "re.lstm.fwd.wx", "re.lstm.fwd.wh", "re.lstm.fwd.b",
        "re.lstm.bwd.wx", "re.lstm.bwd.wh", "re.lstm.bwd.b", "re.gcn0.w", "re.gcn0.b",
        "re.att.l1.w", "re.att.l1.b", "re.att.l2.w", "re.att.l2.b", "re.att.proj",
        "re.gate.l1.w", "re.gate.l1.b", "re.gate.l2.w", "re.gate.l2.b",
        "re.out.l1.w", "re.out.l1.b", "re.out.l2.w", "re.out.l2.b", "re.threshold"]


# -- prediction and extraction ------------------------------------------------


def test_predict_applies_threshold():
    model = tiny_model()
    s, subj, obj = pair_sentence()
    scores, predicted = model.predict([(s, subj, obj)])
    assert scores.shape == (2,)
    model.threshold.data[:] = -1.0
    _, all_in = model.predict([(s, subj, obj)])
    assert all_in == {"knows", "wears"}
    model.threshold.data[:] = 2.0
    _, none_in = model.predict([(s, subj, obj)])
    assert none_in == set()


def test_validate_triple_reasons():
    from kbforge.relations import validate_triple
    types = {"e1": "person", "e2": "person", "e3": "suit"}
    template = {"knows": (frozenset({"person"}), frozenset({"person"})),
                "wears": (frozenset({"person"}), frozenset({"suit"}))}
    assert validate_triple(Triple("e1", "knows", "e2"), types, template) == (True, None)
    assert validate_triple(Triple("e1", "flies", "e2"), types, template) \
        == (False, "unknown-relation")
    assert validate_triple(Triple("e3", "knows", "e2"), types, template) \
        == (False, "subject-type")
    assert validate_triple(Triple("e1", "wears", "e2"), types, template) \
        == (False, "object-type")


def test_extract_filters_by_type_template():
    kb = re_kb()
    model = REModel(tiny_cfg(), ["ghost"] + kb.relations,
                    ["Tony", "knows", "wears", "Pepper", "Mark"],
                    kb.types, ["N"])
    model.threshold.data[:] = -1.0      # every relation fires for every pair

    s1, _, _ = pair_sentence("x1")
    s2 = mk_sentence(["Tony", "wears", "Mark"], [1, -1, 1], "x2")
    s2.spans = [Span(0, 0, "Tony", "person", linked="e1"),
                Span(2, 2, "Mark", "suit", linked="e3")]

    rejected = []
    accepted = extract([s1, s2], kb, model, rejected_log=rejected)
    got = {(t.subject, t.relation, t.object) for t in accepted}
    assert got == {("e1", "knows", "e2"), ("e2", "knows", "e1"),
                   ("e1", "wears", "e3")}
    reasons = {r for _, r in rejected}
    assert reasons == {"unknown-relation", "subject-type", "object-type"}
    for t in accepted:
        assert 0.0 < t.confidence < 1.0


def test_constructed_model_extracts_and_its_saved_copy_extracts_the_same_bits(tmp_path):
    kb = re_kb()
    model = tiny_model()
    save_model(model, tmp_path / "re.ckpt")
    copy = load_model(tmp_path / "re.ckpt")
    s, subj, obj = pair_sentence("x1")
    a, b = (m.predict([(s, subj, obj)])[0] for m in (model, copy))
    assert a.tobytes() == b.tobytes()
    assert extract([s], kb, model, rejected_log=[]) == extract([s], kb, copy, rejected_log=[])


def test_templates_mined_from_kb():
    kb = re_kb()
    template = build_fact_type_templates(kb)
    assert template == {"knows": (frozenset({"person"}), frozenset({"person"})),
                        "wears": (frozenset({"person"}), frozenset({"suit"}))}


# -- training and persistence -------------------------------------------------


def small_training_setup():
    kb = re_kb()
    s1, _, _ = pair_sentence("t1")
    s2 = mk_sentence(["Tony", "wears", "Mark"], [1, -1, 1], "t2")
    s2.spans = [Span(0, 0, "Tony", "person", linked="e1"),
                Span(2, 2, "Mark", "suit", linked="e3")]
    s3, _, _ = reversed_sentence("t3")
    sentences = {s.id: s for s in (s1, s2, s3)}
    bags = [Bag("e1", "e2", ("knows",), ("t1", "t3")),
            Bag("e1", "e3", ("wears",), ("t2",)),
            Bag("e2", "e1", (), ("t1", "t3"))]
    return kb, sentences, bags


def test_train_re_runs_and_learns_something():
    kb, sentences, bags = small_training_setup()
    cfg = tiny_cfg(epochs=8, learning_rate=0.02)
    model = train_re(bags, sentences, kb, cfg)
    assert len(model.epoch_losses) == 8
    assert model.epoch_losses[-1] < model.epoch_losses[0]


def test_train_re_steps_once_per_bag_in_each_epochs_permutation(monkeypatch):
    monkeypatch.setattr(relations, "RE_BATCH", 1)
    kb, sentences, bags = small_training_setup()
    bags = bags * 3
    cfg = tiny_cfg(epochs=3, learning_rate=0.02)
    model = train_re(bags, sentences, kb, cfg)

    # the per-bag Adam loop that train_re replaced, verbatim
    ref = REModel(cfg, kb.relations,
                  sorted({t.surface for s in sentences.values() for t in s.tokens}),
                  sorted(set(kb.types) | {UNTYPED, NO_SPAN_TYPE}),
                  sorted({t.pos_tag for s in sentences.values() for t in s.tokens}))
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    opt = nn.Adam(ref.parameters(), lr=cfg.learning_rate)
    label_rows = []
    for bag in bags:
        y = np.zeros(len(ref.relations))
        for r in bag.labels:
            y[ref.rel_index[r]] = 1.0
        label_rows.append(y)
    epoch_losses = []
    for _ in range(cfg.epochs):
        losses = []
        for i in rng.permutation(len(bags)):
            instances = bag_instances(bags[i], sentences)
            scores = ref.forward_bags([instances])
            loss = sliding_margin_loss(scores, label_rows[i], ref.threshold,
                                       cfg.margin, cfg.down_weight)
            losses.append(loss.item())
            opt.zero_grad()
            loss.backward()
            opt.step()
        epoch_losses.append(float(np.mean(losses)))

    assert model.epoch_losses == epoch_losses
    assert [p.name for p in model.parameters()] == [p.name for p in ref.parameters()]
    assert all(a.data.tobytes() == b.data.tobytes()
               for a, b in zip(model.parameters(), ref.parameters()))


def test_train_re_takes_one_adam_step_per_batch_of_bags(monkeypatch):
    steps = []
    real_step = nn.Adam.step
    monkeypatch.setattr(nn.Adam, "step", lambda opt: steps.append(opt.t) or real_step(opt))
    kb, sentences, bags = small_training_setup()
    bags = bags * 7
    model = train_re(bags, sentences, kb, tiny_cfg(epochs=2, learning_rate=0.02))
    assert len(steps) == 2 * -(-len(bags) // relations.RE_BATCH) == 2 * 3
    assert len(model.epoch_losses) == 2


def test_train_re_rejects_empty():
    kb, sentences, _ = small_training_setup()
    with pytest.raises(RelationError):
        train_re([], sentences, kb, tiny_cfg())


def test_model_round_trip_scores_exactly(tmp_path):
    kb, sentences, bags = small_training_setup()
    model = train_re(bags, sentences, kb, tiny_cfg(epochs=2))
    path = tmp_path / "re.ckpt"
    save_model(model, path)
    back = load_model(path)
    assert back.relations == model.relations
    inst = bag_instances(bags[0], sentences)
    a, pred_a = model.predict(inst)
    b, pred_b = back.predict(inst)
    assert np.array_equal(a, b)
    assert pred_a == pred_b


def test_extracted_triple_conversion():
    t = ExtractedTriple("e1", "knows", "e2", 0.9, ("s1",))
    assert t.triple() == Triple("e1", "knows", "e2")
