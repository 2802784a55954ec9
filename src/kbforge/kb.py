"""Typed triple store: loading, connectivity/type indexes, and enrichment.

The store is immutable by convention after load and safe to share between
threads for reads; ``add_triples`` is the only mutator and callers must
serialize it.
"""

from __future__ import annotations

from dataclasses import dataclass

UNTYPED = "UNTYPED"
_NO_IDS: frozenset[str] = frozenset()


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
    """Entities plus triples with O(1) connectivity and relation lookups."""

    def __init__(self, entities, triples=()):
        self._entities: dict[str, Entity] = {}
        for ent in entities:
            if ent.id in self._entities:
                raise KBError(f"duplicate entity id {ent.id!r}")
            self._entities[ent.id] = ent
        self._triples: set[Triple] = set()
        self._neighbors: dict[str, set[str]] = {eid: set() for eid in self._entities}
        self._pair_relations: dict[tuple[str, str], set[str]] = {}
        by_alias: dict[str, set[str]] = {}
        for ent in self._entities.values():
            for alias in ent.aliases:
                by_alias.setdefault(alias, set()).add(ent.id)
        self._alias_index = {alias: frozenset(ids) for alias, ids in by_alias.items()}
        self.add_triples(triples)

    # -- lookups ---------------------------------------------------------

    @property
    def entities(self) -> dict[str, Entity]:
        """Read-only by convention."""
        return self._entities

    def entity(self, entity_id: str) -> Entity:
        try:
            return self._entities[entity_id]
        except KeyError:
            raise UnknownEntityError(f"unknown entity id {entity_id!r}") from None

    def entity_type(self, entity_id: str) -> str:
        return self.entity(entity_id).entity_type

    @property
    def types(self) -> list[str]:
        return sorted({e.entity_type for e in self._entities.values()})

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
        return self._alias_index.get(surface, _NO_IDS)

    def aliases(self):
        """Every alias surface, in sorted order."""
        return iter(sorted(self._alias_index))

    # -- connectivity ----------------------------------------------------

    def connected(self, a: str, b: str) -> bool:
        """True iff some triple links a and b, in either direction."""
        self.entity(a)
        self.entity(b)
        return b in self._neighbors[a]

    def neighbors(self, entity_id: str) -> set[str]:
        self.entity(entity_id)
        return self._neighbors[entity_id]

    def relations_between(self, subject: str, object_: str) -> set[str]:
        """Relations r with (subject, r, object) in the triple set. Ordered:
        relations_between(s, o) says nothing about (o, s)."""
        self.entity(subject)
        self.entity(object_)
        return set(self._pair_relations.get((subject, object_), ()))

    # -- enrichment ------------------------------------------------------

    def add_triples(self, new_triples) -> int:
        """Add triples, updating all indexes. All-or-nothing: any bad id or
        reflexive triple raises before the KB is touched. Returns the number
        of genuinely new triples."""
        batch = list(new_triples)
        for t in batch:
            if t.subject not in self._entities:
                raise UnknownEntityError(f"unknown entity id {t.subject!r} in triple {t}")
            if t.object not in self._entities:
                raise UnknownEntityError(f"unknown entity id {t.object!r} in triple {t}")
            if t.subject == t.object:
                raise KBError(f"reflexive triple {t} rejected")
        added = 0
        for t in batch:
            if t in self._triples:
                continue
            self._triples.add(t)
            self._neighbors[t.subject].add(t.object)
            self._neighbors[t.object].add(t.subject)
            self._pair_relations.setdefault((t.subject, t.object), set()).add(t.relation)
            added += 1
        return added


def build_fact_type_templates(kb: KnowledgeBase) -> dict[str, tuple[frozenset[str], frozenset[str]]]:
    """Per-relation (allowed subject types, allowed object types), mined from
    every triple in the KB. Every relation occurring in the KB is present."""
    subj: dict[str, set[str]] = {}
    obj: dict[str, set[str]] = {}
    for t in kb.iter_triples():
        subj.setdefault(t.relation, set()).add(kb.entity_type(t.subject))
        obj.setdefault(t.relation, set()).add(kb.entity_type(t.object))
    return {r: (frozenset(subj[r]), frozenset(obj[r])) for r in sorted(subj)}


def read_rows(path, columns: int) -> list[tuple[int, list[str]]]:
    """(line number, fields) of every non-empty row of a TSV file. A row
    without exactly ``columns`` fields raises KBLoadError citing the file
    and the line."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != columns:
                raise KBLoadError(f"{path}:{lineno}: expected {columns} tab-separated "
                                  f"fields, found {len(fields)}")
            rows.append((lineno, fields))
    return rows


def load_kb(entity_file, triple_file) -> KnowledgeBase:
    """Load a KB from the two TSV files.

    entity file rows: id<TAB>type<TAB>canonical_name<TAB>alias1|alias2|...
    triple file rows: subject_id<TAB>relation_id<TAB>object_id
    """
    entities: list[Entity] = []
    seen: set[str] = set()
    with open(entity_file, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            cols = line.split("\t")
            if len(cols) < 3:
                raise KBLoadError(f"{entity_file}:{lineno}: expected id<TAB>type<TAB>name[<TAB>aliases]")
            eid, etype, name = cols[0], cols[1] or UNTYPED, cols[2]
            if eid in seen:
                raise KBLoadError(f"{entity_file}:{lineno}: duplicate entity id {eid!r}")
            seen.add(eid)
            aliases = tuple(a for a in cols[3].split("|") if a) if len(cols) > 3 else ()
            try:
                entities.append(Entity(eid, name, aliases, etype))
            except KBError as exc:
                raise KBLoadError(f"{entity_file}:{lineno}: {exc}") from None

    triples: list[Triple] = []
    for lineno, (s, r, o) in read_rows(triple_file, 3):
        if s not in seen:
            raise KBLoadError(f"{triple_file}:{lineno}: unknown entity id {s!r}")
        if o not in seen:
            raise KBLoadError(f"{triple_file}:{lineno}: unknown entity id {o!r}")
        if s == o:
            raise KBLoadError(f"{triple_file}:{lineno}: reflexive triple {s!r} -> {o!r}")
        triples.append(Triple(s, r, o))

    return KnowledgeBase(entities, triples)


def save_triples(kb: KnowledgeBase, path) -> None:
    """Write the KB's triples as TSV in sorted order."""
    with open(path, "w", encoding="utf-8") as fh:
        for t in kb.iter_triples():
            fh.write(f"{t.subject}\t{t.relation}\t{t.object}\n")
