"""Tokenized, parsed sentences: their validation, ingestion and writing.

All operations here are pure value transforms.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping
from dataclasses import dataclass, field

from .files import json_int, json_ints, json_list, read_jsonl, write_jsonl


class CorpusError(Exception):
    """Malformed sentence or corpus file."""


@dataclass(frozen=True, slots=True)
class Token:
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


@dataclass(slots=True)
class Sentence:
    id: str
    tokens: list[Token]
    spans: list[Span] = field(default_factory=list)

    def surface(self, start: int, end: int) -> str:
        return " ".join(t.surface for t in self.tokens[start:end + 1])

    def heads(self) -> list[int]:
        return [t.dep_head for t in self.tokens]


def make_span(sentence: Sentence, start: int, end: int) -> Span:
    return Span(start, end, sentence.surface(start, end))


def validate_tree(sid: str, heads: list[int]) -> None:
    """Every head in range, exactly one root, and no cycle: each token's
    walk up its heads reaches the root. O(n): a walk stops at a token an
    earlier walk passed, which reaches the root."""
    n = len(heads)
    if heads and (min(heads) < -1 or max(heads) >= n):
        i, h = next((i, h) for i, h in enumerate(heads) if h != -1 and not 0 <= h < n)
        raise CorpusError(f"sentence {sid!r}: dep_head {h} of token {i} out of range")
    roots = heads.count(-1)
    if roots != 1:
        raise CorpusError(f"sentence {sid!r}: expected exactly one root, found {roots}")
    # the first walk that passed each token; the root's head, -1, indexes
    # the last entry, which no walk sets
    walk = [-1] * n + [n]
    for i in range(n):
        cur = i
        while walk[cur] == -1:
            walk[cur] = i
            cur = heads[cur]
        if walk[cur] == i:
            raise CorpusError(f"sentence {sid!r}: cycle in dependency heads at token {i}")


def sentence_from_record(rec: dict, shared_tokens: dict | None = None,
                         base: Mapping[str, Sentence] | None = None) -> Sentence:
    """The validated sentence of one corpus record: spans in range and
    apart, heads a tree (validate_tree). Records read together pass one
    ``shared_tokens`` dict, so equal tokens (same word, tag and head)
    become one Token object wherever they sit. ``base`` holds validated
    sentences by id: a record whose words, tags and heads equal those of
    the base sentence with its id takes that sentence's token list, and its
    tree, which depends on the heads alone, is not checked again."""
    if not isinstance(rec, dict):
        raise CorpusError("sentence record is not a JSON object")
    sid = rec.get("id")
    if not sid:
        raise CorpusError("sentence record without an id")
    if not isinstance(sid, str):
        raise CorpusError(f"sentence id {sid!r} is not a string")
    sid = sys.intern(sid)  # every artifact that names the sentence repeats it
    words = rec.get("tokens")
    if not words:
        raise CorpusError(f"sentence {sid!r}: no tokens")
    # a missing or null pos, heads or spans takes its default, and so does
    # an empty pos list
    pos, heads, raw_spans = rec.get("pos"), rec.get("heads"), rec.get("spans")
    try:
        words = json_list(words)
        pos = json_list([] if pos is None else pos) or ["UNK"] * len(words)
        if heads is None:
            # token i heads token i+1; token 0 is root
            heads = [-1] + list(range(len(words) - 1))
        heads = json_ints(heads)
        raw_spans = json_list([] if raw_spans is None else raw_spans)
    except TypeError as exc:
        raise CorpusError(f"sentence {sid!r}: tokens, pos, heads or spans: {exc}") from None
    n = len(words)
    if len(pos) != n or len(heads) != n:
        raise CorpusError(f"sentence {sid!r}: pos/heads length mismatch")
    same = base.get(sid) if base else None
    if same is not None and [t.surface for t in same.tokens] == words and \
            [t.pos_tag for t in same.tokens] == pos and same.heads() == heads:
        tokens = same.tokens
    else:
        same = None
        # Token is immutable, and a corpus repeats few distinct tokens many
        # times; a new one interns its word and tag, which repeat even more
        cache = {} if shared_tokens is None else shared_tokens
        try:
            tokens = list(map(cache.get, zip(words, pos, heads)))
            if not all(tokens):
                for i, token in enumerate(tokens):
                    if token is None:
                        key = sys.intern(words[i]), sys.intern(pos[i]), heads[i]
                        # a span's surface is its words joined by single spaces
                        if key[0].split() != [key[0]]:
                            raise CorpusError(f"sentence {sid!r}: token {i} {key[0]!r} "
                                              "is empty or contains whitespace")
                        tokens[i] = cache[key] = Token(*key)
        except TypeError:  # an unhashable or non-string word or tag
            raise CorpusError(f"sentence {sid!r}: tokens and POS tags must be strings") from None
    sent = Sentence(sid, tokens)
    # spans usually come sorted and apart; any other order keeps its order
    # and is checked, on sorted offsets, once the tree is
    prev_end, in_order = -1, True
    for raw_span in raw_spans:
        try:
            start, end = json_int(raw_span["start"]), json_int(raw_span["end"])
        except TypeError as exc:
            raise CorpusError(f"sentence {sid!r}: span offsets: {exc}") from None
        if not (0 <= start <= end < n):
            raise CorpusError(f"sentence {sid!r}: span [{start},{end}] out of range")
        in_order = in_order and start > prev_end
        prev_end = end
        typ, entity, method = raw_span.get("type"), raw_span.get("entity"), raw_span.get("method")
        try:
            sent.spans.append(Span(start, end, sys.intern(" ".join(words[start:end + 1])),
                                   typ and sys.intern(typ), entity and sys.intern(entity),
                                   method and sys.intern(method)))
        except TypeError:
            raise CorpusError(f"sentence {sid!r}: span labels must be strings") from None
    if same is None:
        validate_tree(sid, heads)
    if not in_order:
        ordered = sorted((sp.start, sp.end) for sp in sent.spans)
        if any(start <= end for (_, end), (start, _) in zip(ordered, ordered[1:])):
            raise CorpusError(f"sentence {sid!r}: overlapping spans")
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


def ingest_corpus(path, base: Mapping[str, Sentence] | None = None) -> list[Sentence]:
    """Parse a JSONL corpus, applying fallbacks for missing pos/heads and
    validating every sentence invariant. A sentence that repeats the words,
    tags and heads of the ``base`` sentence with its id shares that
    sentence's token list (see sentence_from_record)."""
    seen_ids: set[str] = set()
    tokens: dict = {}

    def sentence(rec: dict) -> Sentence:
        sent = sentence_from_record(rec, tokens, base)
        if sent.id in seen_ids:
            raise CorpusError(f"duplicate sentence id {sent.id!r}")
        seen_ids.add(sent.id)
        return sent

    return read_jsonl(path, sentence, CorpusError)


def write_corpus(sentences, path) -> None:
    write_jsonl(path, map(sentence_to_record, sentences))

