"""Desk-scale synthetic fixtures: a typed KB, a raw corpus realizing its
triples through relation-specific cue phrases, and gold annotations.

Design notes, because the corpus shape carries the learning signal:

* Entity names are "Given Family" pairs. The given name alone is a shared
  alias (roughly one entity per family carries each given name), which
  creates controlled mention ambiguity; the family word doubles as a
  per-entity context clue.
* A fraction of triples is held out: realized in text, omitted from the KB
  files, listed in gold_triples.tsv. Those pairs have no KB edge, so their
  spans must be linked by the context model, and recovering their triples
  genuinely enriches the KB.
* Distractor sentences mention unrelated entity pairs with non-cue filler
  verbs; they become NA bags.
* All randomness flows through one seeded generator and output files are
  written in a fixed order, so a seed pins every byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bounds import bounded, check_bounds
from .corpus import Sentence, Span, Token, validate_sentence
from .files import read_rows, write_jsonl, write_rows
from .kb import KBLoadError

GIVENS = ["Ben", "Kia", "Mori", "Tala", "Rafe", "Una", "Velo", "Sera", "Dain",
          "Lio", "Mara", "Oren", "Pia", "Quin", "Rua", "Sil", "Tovo", "Vena",
          "Wyn", "Yara", "Zane", "Alba", "Brio", "Cela", "Dova", "Eryn",
          "Fano", "Gilda", "Hale"]
FAMILIES = ["Walcor", "Dantor", "Feril", "Gomar", "Helvin", "Jurno", "Kestel",
            "Lombri", "Marven", "Nortel", "Orvan", "Pellor", "Quarn", "Rostim",
            "Selvor", "Tarnok", "Ulmar", "Vintor", "Wexel", "Yorvin", "Zembla"]
TYPE_POOL = ["Agent", "Place", "Work", "Group", "Event", "Device", "Field",
             "Genre", "Award", "Era"]
CUES = [("directed", "toward"), ("founded", "within"), ("scored", "against"),
        ("married", "under"), ("authored", "about"), ("acquired", "from"),
        ("mentored", "beside"), ("composed", "for"), ("governed", "across"),
        ("discovered", "amid"), ("produced", "onto"), ("captained", "during")]
FILLERS = [("met", "near"), ("saw", "past"), ("greeted", "along"), ("visited", "behind")]


@dataclass
class SynthConfig:
    entities: int = bounded(200, lo=1, hi=len(GIVENS) * len(FAMILIES))  # the name space
    types: int = bounded(5, lo=2)   # so that relations can cross types
    relations: int = bounded(10, lo=1, hi=len(CUES))
    triples_per_relation: int = bounded(42, lo=1)
    sentences_per_triple: int = bounded(3, lo=1)
    distractor_rate: float = bounded(0.2, lo=0)
    holdout_fraction: float = bounded(0.1, lo=0, hi=1)
    seed: int = bounded(0, lo=0)

    __post_init__ = check_bounds


@dataclass
class SynthEntity:
    id: str
    given: str
    family: str
    etype: str

    @property
    def canonical(self) -> str:
        return f"{self.given} {self.family}"


def _type_name(i: int) -> str:
    return TYPE_POOL[i] if i < len(TYPE_POOL) else f"Kind{i}"


def _make_entities(cfg: SynthConfig) -> list[SynthEntity]:
    out = []
    for k in range(cfg.entities):
        out.append(SynthEntity(
            id=f"e{k:03d}",
            given=GIVENS[k % len(GIVENS)],
            family=FAMILIES[k // len(GIVENS)],
            etype=_type_name(k % cfg.types)))
    return out


def _make_triples(cfg: SynthConfig, entities: list[SynthEntity],
                  rng: np.random.Generator) -> list[tuple[str, str, str]]:
    by_type: dict[str, list[SynthEntity]] = {}
    for e in entities:
        by_type.setdefault(e.etype, []).append(e)
    triples: list[tuple[str, str, str]] = []
    seen = set()
    for r in range(cfg.relations):
        rel = CUES[r][0]
        subs = by_type[_type_name(r % cfg.types)]
        objs = by_type[_type_name((r + 1) % cfg.types)]
        made = 0
        while made < cfg.triples_per_relation:
            s = subs[int(rng.integers(len(subs)))]
            o = objs[int(rng.integers(len(objs)))]
            t = (s.id, rel, o.id)
            if s.id != o.id and t not in seen:
                seen.add(t)
                triples.append(t)
                made += 1
    return triples


def _name_tokens(e: SynthEntity, style: str) -> tuple[list[str], list[str], int]:
    """(words, pos tags, span length). Styles: canonical "Given Family",
    alias "Given", aliasfam "Given of Family" (span covers the given only)."""
    if style == "canonical":
        return [e.given, e.family], ["NNP", "NNP"], 2
    if style == "alias":
        return [e.given], ["NNP"], 1
    if style == "aliasfam":
        return [e.given, "of", e.family], ["NNP", "IN", "NNP"], 1
    raise ValueError(style)


def _build_sentence(subject: SynthEntity, obj: SynthEntity, verb: str, part: str,
                    subj_style: str, object_first: bool) -> tuple[list, list, list]:
    s_words, s_pos, s_len = _name_tokens(subject, subj_style)
    o_words, o_pos, o_len = _name_tokens(obj, "canonical")
    cue_words, cue_pos = [verb, part], ["VB", "IN"]
    if object_first:
        words = o_words + cue_words + s_words
        pos = o_pos + cue_pos + s_pos
        o_start, s_start = 0, len(o_words) + 2
    else:
        words = s_words + cue_words + o_words
        pos = s_pos + cue_pos + o_pos
        s_start, o_start = 0, len(s_words) + 2
    spans = [(s_start, s_start + s_len - 1, subject.id),
             (o_start, o_start + o_len - 1, obj.id)]
    return words, pos, sorted(spans)


def generate_fixture(cfg: SynthConfig, out_dir) -> dict[str, Path]:
    """Write KB, corpus, and gold files into out_dir; returns their paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))

    entities = _make_entities(cfg)
    by_id = {e.id: e for e in entities}
    all_triples = _make_triples(cfg, entities, rng)

    n_hold = int(round(cfg.holdout_fraction * len(all_triples)))
    hold_idx = set(rng.choice(len(all_triples), size=n_hold, replace=False).tolist())
    held_out = [all_triples[i] for i in sorted(hold_idx)]
    kb_triples = [t for i, t in enumerate(all_triples) if i not in hold_idx]
    truth_pairs: dict[tuple[str, str], set[str]] = {}
    for s, r, o in all_triples:
        truth_pairs.setdefault((s, o), set()).add(r)

    rel_cue = {CUES[r][0]: CUES[r] for r in range(cfg.relations)}
    raw: list[tuple[list, list, list]] = []
    for i, (s, r, o) in enumerate(all_triples):
        verb, part = rel_cue[r]
        for _ in range(cfg.sentences_per_triple):
            if i in hold_idx:
                style = "canonical" if rng.random() < 0.5 else "aliasfam"
            else:
                draw = rng.random()
                style = "canonical" if draw < 0.60 else ("alias" if draw < 0.85
                                                         else "aliasfam")
            object_first = rng.random() < 0.2
            raw.append(_build_sentence(by_id[s], by_id[o], verb, part, style,
                                       object_first))

    n_distract = int(round(cfg.distractor_rate * len(raw)))
    made = 0
    while made < n_distract:
        a = entities[int(rng.integers(len(entities)))]
        b = entities[int(rng.integers(len(entities)))]
        if a.id == b.id or (a.id, b.id) in truth_pairs or (b.id, a.id) in truth_pairs:
            continue
        verb, part = FILLERS[int(rng.integers(len(FILLERS)))]
        raw.append(_build_sentence(a, b, verb, part, "canonical",
                                   rng.random() < 0.2))
        truth_pairs.setdefault((a.id, b.id), set())
        truth_pairs.setdefault((b.id, a.id), set())
        made += 1

    order = rng.permutation(len(raw))
    sentences: list[Sentence] = []
    gold_links: list[tuple[str, str, str, str]] = []  # rows of gold_links.tsv
    pair_realized: set[tuple[str, str]] = set()
    for new_index, old_index in enumerate(order):
        words, pos, spans = raw[old_index]
        sid = f"s{new_index:05d}"
        heads = [-1] + list(range(len(words) - 1))
        tokens = [Token(t, w, pos[t], heads[t]) for t, w in enumerate(words)]
        sent = Sentence(sid, tokens)
        validate_sentence(sent)
        sentences.append(sent)
        ids_here = []
        for start, end, eid in spans:
            gold_links.append((sid, str(start), str(end), eid))
            ids_here.append(eid)
        for x in ids_here:
            for y in ids_here:
                if x != y:
                    pair_realized.add((x, y))

    paths = {
        "entities": out / "entities.tsv",
        "triples": out / "triples.tsv",
        "corpus": out / "corpus.jsonl",
        "gold_links": out / "gold_links.tsv",
        "gold_triples": out / "gold_triples.tsv",
        "gold_bags": out / "gold_bags.jsonl",
    }

    write_rows(paths["entities"], ((e.id, e.etype, e.canonical, f"{e.canonical}|{e.given}")
                                   for e in entities))
    write_rows(paths["triples"], sorted(kb_triples))
    write_jsonl(paths["corpus"], ({"id": sent.id, "tokens": [t.surface for t in sent.tokens],
                                  "pos": [t.pos_tag for t in sent.tokens], "heads": sent.heads()}
                                 for sent in sentences))
    write_rows(paths["gold_links"], gold_links)
    write_rows(paths["gold_triples"], sorted(held_out))
    write_jsonl(paths["gold_bags"], ({"subject": s, "object": o,
                                      "labels": sorted(truth_pairs.get((s, o), set()))}
                                     for s, o in sorted(pair_realized)))
    return paths


def load_gold_links(path) -> dict[tuple[str, int, int], str]:
    return dict(read_rows(path, 4, KBLoadError,
                          lambda sid, start, end, eid: ((sid, int(start), int(end)), eid)))


def load_gold_triples(path) -> set[tuple[str, str, str]]:
    return set(read_rows(path, 3, KBLoadError))
