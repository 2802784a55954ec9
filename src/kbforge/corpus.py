"""Tokenized, parsed sentences: ingestion, gazetteer matching, dependency paths.

All operations here are pure value transforms.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .kb import KnowledgeBase


class CorpusError(Exception):
    """Malformed sentence or corpus file."""


@dataclass(frozen=True, slots=True)
class Token:
    index: int
    surface: str
    pos_tag: str = "UNK"
    dep_head: int = -1


@dataclass(slots=True)
class Span:
    start: int
    end: int          # inclusive
    surface: str
    span_type: str | None = None
    linked: str | None = None
    method: str | None = None

    def overlaps(self, other: "Span") -> bool:
        return not (self.end < other.start or other.end < self.start)


@dataclass(slots=True)
class Sentence:
    id: str
    tokens: list[Token]
    spans: list[Span] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.tokens)

    def surface(self, start: int, end: int) -> str:
        return " ".join(t.surface for t in self.tokens[start:end + 1])

    def heads(self) -> list[int]:
        return [t.dep_head for t in self.tokens]


def make_span(sentence: Sentence, start: int, end: int, span_type=None, linked=None, method=None) -> Span:
    return Span(start, end, sentence.surface(start, end), span_type, linked, method)


def _validate_tree(sid: str, heads: list[int]) -> None:
    n = len(heads)
    roots = [i for i, h in enumerate(heads) if h == -1]
    for i, h in enumerate(heads):
        if h != -1 and not (0 <= h < n):
            raise CorpusError(f"sentence {sid!r}: dep_head {h} of token {i} out of range")
    if len(roots) != 1:
        raise CorpusError(f"sentence {sid!r}: expected exactly one root, found {len(roots)}")
    # every token must reach the root without revisiting a node
    for i in range(n):
        seen = set()
        cur = i
        while cur != -1:
            if cur in seen:
                raise CorpusError(f"sentence {sid!r}: cycle in dependency heads at token {i}")
            seen.add(cur)
            cur = heads[cur]


def validate_sentence(sentence: Sentence) -> None:
    sid = sentence.id
    n = len(sentence.tokens)
    if n == 0:
        raise CorpusError(f"sentence {sid!r}: no tokens")
    for i, tok in enumerate(sentence.tokens):
        if tok.index != i:
            raise CorpusError(f"sentence {sid!r}: token index {tok.index} at position {i}")
    _validate_tree(sid, sentence.heads())
    prev: Span | None = None
    for sp in sorted(sentence.spans, key=lambda s: (s.start, s.end)):
        if not (0 <= sp.start <= sp.end < n):
            raise CorpusError(f"sentence {sid!r}: span [{sp.start},{sp.end}] out of range")
        if prev is not None and sp.start <= prev.end:
            raise CorpusError(f"sentence {sid!r}: overlapping spans")
        prev = sp


def sentence_from_record(rec: dict, shared_tokens: dict | None = None) -> Sentence:
    """The validated sentence of one corpus record. Records read together
    pass one ``shared_tokens`` dict, so equal tokens (same position, word,
    tag and head) become one Token object."""
    sid = rec.get("id")
    if not sid:
        raise CorpusError("sentence record without an id")
    if not isinstance(sid, str):
        raise CorpusError(f"sentence id {sid!r} is not a string")
    sid = sys.intern(sid)  # every artifact that names the sentence repeats it
    words = rec.get("tokens")
    if not words:
        raise CorpusError(f"sentence {sid!r}: no tokens")
    pos = rec.get("pos") or ["UNK"] * len(words)
    heads = rec.get("heads")
    if heads is None:
        # token i heads token i+1; token 0 is root
        heads = [-1] + list(range(len(words) - 1))
    if len(pos) != len(words) or len(heads) != len(words):
        raise CorpusError(f"sentence {sid!r}: pos/heads length mismatch")
    # a corpus repeats few distinct words, tags and span labels many times:
    # intern them so each is held once
    try:
        words, pos = list(map(sys.intern, words)), list(map(sys.intern, pos))
    except TypeError:
        raise CorpusError(f"sentence {sid!r}: tokens and POS tags must be strings") from None
    # Token is immutable, and a corpus repeats few distinct tokens many times
    cache = {} if shared_tokens is None else shared_tokens
    tokens = []
    for key in zip(range(len(words)), words, pos, heads):
        token = cache.get(key)
        if token is None:
            token = cache[key] = Token(*key)
        tokens.append(token)
    sent = Sentence(sid, tokens)
    for raw_span in rec.get("spans") or []:
        start, end = raw_span["start"], raw_span["end"]
        if not (0 <= start <= end < len(words)):
            raise CorpusError(f"sentence {sid!r}: span [{start},{end}] out of range")
        typ, entity, method = raw_span.get("type"), raw_span.get("entity"), raw_span.get("method")
        try:
            sent.spans.append(Span(start, end, sys.intern(sent.surface(start, end)),
                                   typ and sys.intern(typ), entity and sys.intern(entity),
                                   method and sys.intern(method)))
        except TypeError:
            raise CorpusError(f"sentence {sid!r}: span labels must be strings") from None
    validate_sentence(sent)
    return sent


def sentence_to_record(sent: Sentence) -> dict:
    return {
        "id": sent.id,
        "tokens": [t.surface for t in sent.tokens],
        "pos": [t.pos_tag for t in sent.tokens],
        "heads": sent.heads(),
        "spans": [
            {"start": sp.start, "end": sp.end, "type": sp.span_type,
             "entity": sp.linked, "method": sp.method}
            for sp in sent.spans
        ],
    }


def ingest_corpus(path) -> list[Sentence]:
    """Parse a JSONL corpus, applying fallbacks for missing pos/heads and
    validating every sentence invariant."""
    sentences: list[Sentence] = []
    seen_ids: set[str] = set()
    tokens: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}: invalid JSON ({exc})") from None
            sent = sentence_from_record(rec, tokens)
            if sent.id in seen_ids:
                raise CorpusError(f"{path}:{lineno}: duplicate sentence id {sent.id!r}")
            seen_ids.add(sent.id)
            sentences.append(sent)
    return sentences


def write_corpus(sentences, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sent in sentences:
            fh.write(json.dumps(sentence_to_record(sent), sort_keys=True) + "\n")


# -- gazetteer matching ---------------------------------------------------

class Gazetteer:
    """The alias surfaces of a KB, and the most tokens any of them has."""

    def __init__(self, aliases):
        self._aliases = frozenset(aliases)
        self.max_ngram = max((len(a.split()) for a in self._aliases), default=1)

    def __contains__(self, surface: str) -> bool:
        return surface in self._aliases


def build_gazetteer(kb: KnowledgeBase) -> Gazetteer:
    return Gazetteer(kb.aliases())


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


# -- dependency paths ------------------------------------------------------

def shortest_dependency_path(sentence: Sentence, a: Span, b: Span) -> list[int]:
    """Unique tree path between the last tokens of the two spans, both
    included, ordered from a's last token to b's."""
    if a.overlaps(b):
        raise CorpusError(f"sentence {sentence.id!r}: spans overlap, no dependency path")
    heads = sentence.heads()

    def chain(t: int) -> list[int]:
        out = [t]
        while heads[out[-1]] != -1:
            out.append(heads[out[-1]])
        return out

    ca = chain(a.end)
    cb = chain(b.end)
    pos_in_a = {t: i for i, t in enumerate(ca)}
    lca = None
    b_prefix: list[int] = []
    for t in cb:
        if t in pos_in_a:
            lca = t
            break
        b_prefix.append(t)
    assert lca is not None  # a tree always has an LCA
    return ca[: pos_in_a[lca] + 1] + list(reversed(b_prefix))


def sdp_adjacency(sentence: Sentence, path) -> np.ndarray:
    """Normalized adjacency over the whole sentence: dependency edges with
    both endpoints in ``path`` plus self-loops, symmetrically normalized
    D^(-1/2) (A+I) D^(-1/2). Tokens off the path keep identity rows."""
    n = len(sentence.tokens)
    on_path = set(path)
    a = np.zeros((n, n), dtype=np.float64)
    for t, h in enumerate(sentence.heads()):
        if h == -1:
            continue
        if t in on_path and h in on_path:
            a[t, h] = 1.0
            a[h, t] = 1.0
    a_hat = a + np.eye(n)
    d_inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=1))
    return a_hat * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]
