"""Typed triple store: loading, and neighbour and type indexes. A KB is
built once and never changes: an enriched KB is a new one."""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

from .files import read_rows, write_rows

UNTYPED = "UNTYPED"
_EMPTY: frozenset[str] = frozenset()


class KBError(Exception):
    """Base error for knowledge-base operations."""


class KBLoadError(KBError):
    """An input file violates the KB format (message cites file and line)."""


class UnknownEntityError(KBError):
    """An operation referenced an entity id that is not in the KB."""


@dataclass(frozen=True, slots=True)
class Entity:
    id: str
    canonical_name: str
    aliases: tuple[str, ...] = ()
    entity_type: str = UNTYPED

    def __post_init__(self):
        if not self.id:
            raise KBError("entity with empty id")
        if not self.canonical_name:
            raise KBError(f"entity {self.id!r} has an empty canonical name")
        # canonical name is always one of the aliases
        if self.canonical_name not in self.aliases:
            object.__setattr__(self, "aliases", (self.canonical_name,) + tuple(self.aliases))


@dataclass(frozen=True, order=True, slots=True)
class Triple:
    subject: str
    relation: str
    object: str


class KnowledgeBase:
    """Entities plus triples, with each entity's neighbour set and the
    relations between each ordered pair. Every triple is checked and every
    index built once, here; the indexes are frozen and shared, not copied."""

    def __init__(self, entities, triples=()):
        ents: dict[str, Entity] = {}
        for ent in entities:
            if ent.id in ents:
                raise KBError(f"duplicate entity id {ent.id!r}")
            ents[ent.id] = ent
        self.entities = MappingProxyType(ents)
        seen: set[Triple] = set()
        neighbors: dict[str, set[str]] = {eid: set() for eid in ents}
        pairs: dict[tuple[str, str], set[str]] = {}
        for t in triples:
            for eid in (t.subject, t.object):
                if eid not in ents:
                    raise UnknownEntityError(f"unknown entity id {eid!r} in triple {t}")
            if t.subject == t.object:
                raise KBError(f"reflexive triple {t} rejected")
            seen.add(t)
            neighbors[t.subject].add(t.object)
            neighbors[t.object].add(t.subject)
            pairs.setdefault((t.subject, t.object), set()).add(t.relation)
        self._triples = frozenset(seen)
        self._neighbors = {eid: frozenset(ids) for eid, ids in neighbors.items()}
        self._pair_relations = {pair: frozenset(rels) for pair, rels in pairs.items()}
        by_alias: dict[str, set[str]] = {}
        for ent in ents.values():
            for alias in ent.aliases:
                by_alias.setdefault(alias, set()).add(ent.id)
        self._alias_index = {alias: frozenset(ids) for alias, ids in by_alias.items()}
        # the most tokens any alias has: the widest mention worth matching
        self.max_alias_tokens = max((len(a.split()) for a in self._alias_index), default=1)

    # -- lookups ---------------------------------------------------------

    def entity(self, entity_id: str) -> Entity:
        try:
            return self.entities[entity_id]
        except KeyError:
            raise UnknownEntityError(f"unknown entity id {entity_id!r}") from None

    def entity_type(self, entity_id: str) -> str:
        return self.entity(entity_id).entity_type

    @property
    def types(self) -> list[str]:
        return sorted({e.entity_type for e in self.entities.values()})

    @property
    def relations(self) -> list[str]:
        return sorted({t.relation for t in self._triples})

    @property
    def triple_count(self) -> int:
        return len(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def iter_triples(self):
        """Triples in sorted order (deterministic iteration)."""
        return iter(sorted(self._triples))

    def entities_by_alias(self, surface: str) -> frozenset[str]:
        """The ids of the entities with this alias; the index's own set,
        not a copy."""
        return self._alias_index.get(surface, _EMPTY)

    # -- connectivity ----------------------------------------------------

    def neighbors(self, entity_id: str) -> frozenset[str]:
        """The ids some triple links to entity_id, in either direction;
        the index's own set, not a copy."""
        self.entity(entity_id)
        return self._neighbors[entity_id]

    def relations_between(self, subject: str, object_: str) -> frozenset[str]:
        """Relations r with (subject, r, object) in the triple set; the
        index's own set, not a copy. Ordered: relations_between(s, o) says
        nothing about (o, s)."""
        self.entity(subject)
        self.entity(object_)
        return self._pair_relations.get((subject, object_), _EMPTY)


def build_fact_type_templates(kb: KnowledgeBase) -> dict[str, tuple[frozenset[str], frozenset[str]]]:
    """Per-relation (allowed subject types, allowed object types), mined from
    every triple in the KB. Every relation occurring in the KB is present."""
    subj: dict[str, set[str]] = {}
    obj: dict[str, set[str]] = {}
    for t in kb.iter_triples():
        subj.setdefault(t.relation, set()).add(kb.entity_type(t.subject))
        obj.setdefault(t.relation, set()).add(kb.entity_type(t.object))
    return {r: (frozenset(subj[r]), frozenset(obj[r])) for r in sorted(subj)}


def load_kb(entity_file, triple_file) -> KnowledgeBase:
    """Load a KB from the two TSV files.

    entity file rows: id<TAB>type<TAB>canonical_name[<TAB>alias1|alias2|...]
    triple file rows: subject_id<TAB>relation_id<TAB>object_id
    """
    seen: set[str] = set()

    def entity(eid, etype, name, aliases="") -> Entity:
        if eid in seen:
            raise KBLoadError(f"duplicate entity id {eid!r}")
        seen.add(eid)
        try:
            return Entity(eid, name, tuple(a for a in aliases.split("|") if a), etype or UNTYPED)
        except KBError as exc:
            raise KBLoadError(str(exc)) from None

    def triple(s, r, o) -> Triple:
        for eid in (s, o):
            if eid not in seen:
                raise KBLoadError(f"unknown entity id {eid!r}")
        if s == o:
            raise KBLoadError(f"reflexive triple {s!r} -> {o!r}")
        return Triple(s, r, o)

    entities = read_rows(entity_file, (3, 4), KBLoadError, entity)
    return KnowledgeBase(entities, read_rows(triple_file, 3, KBLoadError, triple))


def save_triples(kb: KnowledgeBase, path) -> None:
    """Write the KB's triples as TSV in sorted order."""
    write_rows(path, ((t.subject, t.relation, t.object) for t in kb.iter_triples()))
