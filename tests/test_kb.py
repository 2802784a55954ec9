import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kbforge.kb import (
    Entity,
    KBError,
    KBLoadError,
    KnowledgeBase,
    Triple,
    UNTYPED,
    UnknownEntityError,
    build_fact_type_templates,
    load_kb,
    save_triples,
)


def small_kb() -> KnowledgeBase:
    entities = [
        Entity("e1", "Iron Man", ("Iron Man", "Tony"), "Work"),
        Entity("e2", "Tony Stark", ("Tony", "Stark"), "Agent"),
        Entity("e3", "Avengers", ("Avengers",), "Work"),
    ]
    triples = [Triple("e2", "stars_in", "e1"), Triple("e2", "stars_in", "e3")]
    return KnowledgeBase(entities, triples)


def test_entity_lookup_and_types():
    kb = small_kb()
    assert kb.entity("e1").canonical_name == "Iron Man"
    assert kb.entity_type("e2") == "Agent"
    assert kb.types == ["Agent", "Work"]
    assert kb.relations == ["stars_in"]


def test_alias_index_is_shared_across_entities():
    kb = small_kb()
    assert kb.entities_by_alias("Tony") == frozenset({"e1", "e2"})
    assert kb.entities_by_alias("nope") == frozenset()


def test_alias_lookups_return_the_stored_set_and_widths_count_alias_tokens():
    kb = small_kb()
    assert kb.entities_by_alias("Tony") is kb.entities_by_alias("Tony")
    # "Iron Man" and "Tony Stark" are the widest aliases
    assert kb.max_alias_tokens == 2
    assert KnowledgeBase([Entity("e1", "Tony")]).max_alias_tokens == 1
    assert KnowledgeBase([]).max_alias_tokens == 1


def test_unknown_entity_raises():
    kb = small_kb()
    with pytest.raises(UnknownEntityError):
        kb.entity("missing")


def test_triple_referencing_unknown_entity_rejected():
    with pytest.raises(UnknownEntityError):
        KnowledgeBase([Entity("a", "A", ("A",))], [Triple("a", "r", "ghost")])


def test_reflexive_triples_rejected_by_default():
    ents = [Entity("a", "A", ("A",))]
    with pytest.raises(KBError):
        KnowledgeBase(ents, [Triple("a", "r", "a")])


def test_connected_is_symmetric_by_default():
    # each triple links its ids both ways; e1 and e3 share only a neighbour
    kb = small_kb()
    assert "e1" in kb.neighbors("e2")
    assert "e2" in kb.neighbors("e1")
    assert "e3" not in kb.neighbors("e1")


def test_neighbors_sorted_and_deduplicated():
    kb = small_kb()
    assert kb.neighbors("e2") == {"e1", "e3"}
    assert kb.neighbors("e1") == {"e2"}
    assert kb.neighbors("e3") == {"e2"}
    with pytest.raises(UnknownEntityError):
        kb.neighbors("ghost")


def test_relations_between_directional():
    kb = small_kb()
    assert kb.relations_between("e2", "e1") == {"stars_in"}
    assert kb.relations_between("e1", "e2") == set()


@pytest.mark.parametrize("bad, error", [
    (Triple("e1", "r", "nope"), UnknownEntityError),
    (Triple("nope", "r", "e1"), UnknownEntityError),
    (Triple("e1", "r", "e1"), KBError),
], ids=["unknown-object", "unknown-subject", "reflexive"])
def test_constructor_refuses_a_bad_triple_among_good_ones(bad, error):
    kb = small_kb()
    with pytest.raises(error):
        KnowledgeBase(kb.entities.values(), [*kb.iter_triples(), Triple("e1", "r", "e3"), bad])


def test_constructor_collapses_a_repeated_triple():
    kb = small_kb()
    enriched = KnowledgeBase(kb.entities.values(), [*kb.iter_triples(), Triple("e1", "r", "e3"),
                                                    Triple("e2", "stars_in", "e1"),
                                                    Triple("e1", "r", "e3")])
    assert enriched.triple_count == kb.triple_count + 1
    assert enriched.neighbors("e1") == {"e2", "e3"}
    assert enriched.relations_between("e1", "e3") == {"r"}
    # the KB it was built from is as it was
    assert Triple("e1", "r", "e3") not in kb and kb.neighbors("e1") == {"e2"}


def test_a_kb_cannot_be_changed_through_what_it_returns():
    kb = small_kb()
    with pytest.raises(TypeError):
        kb.entities["e4"] = Entity("e4", "Jarvis")
    with pytest.raises(TypeError):
        del kb.entities["e1"]
    with pytest.raises(AttributeError):
        kb.neighbors("e2").add("e3")
    with pytest.raises(AttributeError):
        kb.relations_between("e2", "e1").add("r")
    with pytest.raises(AttributeError):
        kb.relations_between("e1", "e2").add("r")
    assert not hasattr(kb, "add_triples")
    # lookups return the index's own sets
    assert kb.neighbors("e2") is kb.neighbors("e2")
    assert kb.relations_between("e2", "e1") is kb.relations_between("e2", "e1")


def test_iter_triples_sorted():
    kb = small_kb()
    listed = list(kb.iter_triples())
    assert listed == sorted(listed)


def test_fact_type_templates_collect_all_observed_types():
    kb = small_kb()
    templates = build_fact_type_templates(kb)
    subj, obj = templates["stars_in"]
    assert subj == frozenset({"Agent"})
    assert obj == frozenset({"Work"})


def test_untyped_default():
    kb = KnowledgeBase([Entity("x", "X", ("X",))])
    assert kb.entity_type("x") == UNTYPED


def test_load_kb_round_trip(tmp_path):
    ents = tmp_path / "e.tsv"
    trip = tmp_path / "t.tsv"
    ents.write_text("e1\tAgent\tTony Stark\tTony|Stark\n"
                    "e2\tWork\tIron Man\tIron Man\n")
    trip.write_text("e1\tstars_in\te2\n")
    kb = load_kb(ents, trip)
    assert kb.entities_by_alias("Tony") == frozenset({"e1"})
    assert kb.triple_count == 1

    out = tmp_path / "saved.tsv"
    save_triples(kb, out)
    assert out.read_text() == "e1\tstars_in\te2\n"


def test_load_kb_reports_file_and_line(tmp_path):
    ents = tmp_path / "e.tsv"
    trip = tmp_path / "t.tsv"
    ents.write_text("e1\tAgent\tTony\tTony\n")
    trip.write_text("e1\tr\n")
    with pytest.raises(KBLoadError) as err:
        load_kb(ents, trip)
    assert f"{trip}:1" in str(err.value)


def test_load_kb_duplicate_entity_id(tmp_path):
    ents = tmp_path / "e.tsv"
    ents.write_text("e1\tAgent\tTony\tTony\ne1\tWork\tOther\tOther\n")
    trip = tmp_path / "t.tsv"
    trip.write_text("")
    with pytest.raises(KBLoadError) as err:
        load_kb(ents, trip)
    assert f"{ents}:2" in str(err.value)


# -- the loader against the constructor, one fault at a time ------------------

IDS = [f"e{i}" for i in range(6)]
# lines the reader skips, each counted by FILE:LINE all the same
BLANKS = st.lists(st.sampled_from(["", " ", "\t", "  \t "]), max_size=2)


@st.composite
def entity_row(draw, eid):
    row = (eid, draw(st.sampled_from(["", "T", "U"])),
           draw(st.text("ab ", min_size=1, max_size=3)))
    if draw(st.booleans()):
        row += ("|".join(draw(st.lists(st.sampled_from(["", "a", "b c"]), max_size=3))),)
    return row


def render(draw, rows) -> tuple[str, list[int]]:
    """The file text of ``rows`` with skipped lines around them, and the
    line number of each row."""
    lines, numbers = [], []
    for row in rows:
        lines += draw(BLANKS)
        lines.append("\t".join(row))
        numbers.append(len(lines))
    lines += draw(BLANKS)
    return "".join(line + "\n" for line in lines), numbers


def faulty_row(draw, fault, ents, trips, ids):
    """(file, index, row, message) of one row that breaks ``fault``'s rule,
    to go in at ``index`` among that file's rows."""
    if fault == "duplicate-id":
        at = draw(st.integers(1, len(ents)))
        eid = draw(st.sampled_from([row[0] for row in ents[:at]]))
        return "entities", at, draw(entity_row(eid)), f"duplicate entity id {eid!r}"
    if fault == "empty-name":
        row = ("x", draw(st.sampled_from(["", "T"])), "") + draw(st.sampled_from([(), ("a",)]))
        return ("entities", draw(st.integers(0, len(ents))), row,
                "entity 'x' has an empty canonical name")
    if fault == "field-count":
        which = draw(st.sampled_from(["entities", "triples"]))
        width = draw(st.sampled_from([1, 2, 5] if which == "entities" else [1, 2, 4]))
        expected = "3 or 4" if which == "entities" else "3"
        return (which, draw(st.integers(0, len(ents if which == "entities" else trips))),
                ("x",) * width, f"expected {expected} fields, found {width}")
    at = draw(st.integers(0, len(trips)))
    if fault == "unknown-id":
        known = draw(st.sampled_from(ids))
        row = draw(st.sampled_from([("ghost", "r", known), (known, "r", "ghost")]))
        return "triples", at, row, "unknown entity id 'ghost'"
    eid = draw(st.sampled_from(ids))  # reflexive
    return "triples", at, (eid, "r", eid), f"reflexive triple {eid!r} -> {eid!r}"


def kb_view(kb: KnowledgeBase):
    """Everything a KB answers, in comparable form."""
    ids = sorted(kb.entities)
    return (dict(kb.entities), list(kb.iter_triples()), kb.max_alias_tokens,
            {e: kb.neighbors(e) for e in ids},
            {(s, o): kb.relations_between(s, o) for s in ids for o in ids},
            {a: kb.entities_by_alias(a) for e in kb.entities.values() for a in e.aliases})


@pytest.mark.parametrize("fault", [None, "duplicate-id", "unknown-id", "reflexive",
                                   "empty-name", "field-count"])
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_load_kb_names_the_line_and_rule_of_a_bad_row_and_else_equals_the_constructor(
        tmp_path, fault, data):
    draw = data.draw
    ids = draw(st.lists(st.sampled_from(IDS), min_size=2, max_size=5, unique=True))
    ents = [draw(entity_row(eid)) for eid in ids]
    pair = st.tuples(st.sampled_from(ids), st.sampled_from(["r", "s"]), st.sampled_from(ids))
    trips = draw(st.lists(pair.filter(lambda t: t[0] != t[2]), max_size=5))
    rows = {"entities": ents, "triples": trips}
    bad = None
    if fault is not None:
        which, at, row, message = faulty_row(draw, fault, ents, trips, ids)
        rows[which] = rows[which][:at] + [row] + rows[which][at:]
        bad = which, at
    paths = {}
    for which in ("entities", "triples"):
        text, numbers = render(draw, rows[which])
        paths[which] = tmp_path / f"{which}.tsv"
        paths[which].write_text(text)
        if bad and bad[0] == which:
            bad_line = numbers[bad[1]]
    if fault is None:
        built = KnowledgeBase(
            [Entity(eid, name, tuple(a for a in (more or [""])[0].split("|") if a),
                    etype or UNTYPED) for eid, etype, name, *more in ents],
            [Triple(*t) for t in trips])
        assert kb_view(load_kb(paths["entities"], paths["triples"])) == kb_view(built)
    else:
        with pytest.raises(KBLoadError) as err:
            load_kb(paths["entities"], paths["triples"])
        assert str(err.value) == f"{paths[bad[0]]}:{bad_line}: {message}"
