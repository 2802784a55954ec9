import json

import pytest

from kbforge.files import write_json
from kbforge.metrics import (
    LinkEvalItem,
    MetricsReport,
    eval_entity_linker,
    eval_relation_extractor,
    triple_precision,
)


def sub(sid, start, end, entity):
    return LinkEvalItem(sid, start, end, "subgraph", entity)


def ctx(sid, start, end, entity, ranking):
    return LinkEvalItem(sid, start, end, "context", entity, tuple(ranking))


# -- entity linking -----------------------------------------------------------


def test_linker_hand_values():
    # three decisions, two correct, five gold spans
    gold = {("s1", 0, 1): "e1", ("s1", 3, 4): "e2", ("s2", 0, 0): "e3",
            ("s2", 2, 2): "e4", ("s3", 1, 2): "e5"}
    items = [sub("s1", 0, 1, "e1"),
             sub("s1", 3, 4, "e2"),
             sub("s2", 0, 0, "e9")]
    m = eval_entity_linker(items, gold)
    assert m["precision_at_1"] == pytest.approx(2 / 3, abs=1e-9)
    assert m["coverage"] == pytest.approx(3 / 5, abs=1e-9)
    assert m["accuracy_at_1"] is None          # no context decisions
    assert m["mean_rank"] is None


def test_linker_populations_are_disjoint():
    """Subgraph decisions feed precision/coverage; context decisions feed
    accuracy/rank. Neither bleeds into the other's denominator."""
    gold = {("s1", 0, 0): "e1", ("s1", 2, 2): "e2"}
    items = [sub("s1", 0, 0, "e1"),
             ctx("s1", 2, 2, "e3", ["e3", "e2"])]
    m = eval_entity_linker(items, gold)
    assert m["precision_at_1"] == 1.0
    assert m["coverage"] == 0.5                # only the subgraph link counts
    assert m["accuracy_at_1"] == 0.0
    assert m["mean_rank"] == 2.0


def test_context_rank_conventions():
    gold = {("s1", 0, 0): "e1", ("s2", 0, 0): "e2", ("s3", 0, 0): "e3"}
    items = [ctx("s1", 0, 0, "e1", ["e1", "e9"]),         # rank 1
             ctx("s2", 0, 0, "e9", ["e9", "e8", "e2"]),   # rank 3
             ctx("s3", 0, 0, "e9", ["e9", "e8"])]         # gold absent: 2+1
    m = eval_entity_linker(items, gold)
    assert m["accuracy_at_1"] == pytest.approx(1 / 3, abs=1e-9)
    assert m["mean_rank"] == pytest.approx((1 + 3 + 3) / 3, abs=1e-9)


def test_spurious_links_count_as_made():
    # a decision on a span outside the gold set is made and wrong
    gold = {("s1", 0, 0): "e1"}
    items = [sub("s1", 0, 0, "e1"), sub("s1", 5, 6, "e2"),
             ctx("s2", 0, 0, "e3", ["e3"])]
    m = eval_entity_linker(items, gold)
    assert m["precision_at_1"] == 0.5
    assert m["coverage"] == 2.0                # made / |gold|, uncapped
    assert m["accuracy_at_1"] == 0.0
    assert m["mean_rank"] is None              # no gold to rank against


def test_zero_denominators_give_none():
    m = eval_entity_linker([], {("s1", 0, 0): "e1"})
    assert m["precision_at_1"] is None
    assert m["accuracy_at_1"] is None
    assert m["mean_rank"] is None
    assert m["coverage"] == 0.0

    m = eval_entity_linker([sub("s1", 0, 0, "e1")], {})
    assert m["coverage"] is None


def test_unknown_method_rejected():
    with pytest.raises(ValueError, match="exact"):
        eval_entity_linker([LinkEvalItem("s1", 0, 0, "exact", "e1")], {})


# -- relation extraction ------------------------------------------------------


def test_bag_micro_prf_hand_values():
    # tp=4 (a,b,c,d), fp=1 (x), fn=2 (e,f)
    gold = [{"a", "b"}, {"c"}, {"d", "e", "f"}]
    preds = [{"a", "b"}, {"c", "x"}, {"d"}]
    m = eval_relation_extractor(preds, gold)
    assert m["precision"] == pytest.approx(0.8, abs=1e-9)
    assert m["recall"] == pytest.approx(2 / 3, abs=1e-9)
    assert m["f1"] == pytest.approx(8 / 11, abs=1e-9)
    assert m["accuracy"] == pytest.approx(1 / 3, abs=1e-9)


def test_na_bags_are_predict_nothing():
    gold = [set(), set(), {"r1"}]
    preds = [set(), {"r1"}, {"r1"}]
    m = eval_relation_extractor(preds, gold)
    assert m["accuracy"] == pytest.approx(2 / 3, abs=1e-9)
    assert m["precision"] == 0.5               # the NA bags add no tp/fp
    assert m["recall"] == 1.0


def test_degenerate_rates_are_none():
    m = eval_relation_extractor([set()], [set()])
    assert m["precision"] is None and m["recall"] is None and m["f1"] is None
    assert m["accuracy"] == 1.0

    # P and R both zero: F1 undefined rather than 0/0
    m = eval_relation_extractor([{"x"}], [{"y"}])
    assert m["precision"] == 0.0 and m["recall"] == 0.0
    assert m["f1"] is None


def test_re_eval_input_validation():
    with pytest.raises(ValueError, match="no gold"):
        eval_relation_extractor([], [])
    with pytest.raises(ValueError, match="1 predictions vs 2"):
        eval_relation_extractor([set()], [set(), set()])


# -- triple precision ---------------------------------------------------------


def test_triple_precision_ratio_and_empty():
    t1, t2 = ("e1", "r", "e2"), ("e3", "r", "e4")
    assert triple_precision([], {t1}) is None
    assert triple_precision([t1, t2], {t1}) == 0.5
    # repeats are judged per extraction, not deduplicated
    assert triple_precision([t1, t1, t2], {t1}) == pytest.approx(2 / 3, abs=1e-9)


# -- report serialization -----------------------------------------------------


def test_report_schema_and_null_serialization(tmp_path):
    report = MetricsReport()
    d = report.to_dict()
    assert set(d) == {"el", "re", "counts", "rounds", "triple_precision"}
    assert set(d["el"]) == {"precision_at_1", "coverage", "accuracy_at_1",
                            "mean_rank"}
    assert set(d["re"]) == {"accuracy", "precision", "recall", "f1"}
    assert all(v is None for v in d["el"].values())
    write_json(tmp_path / "metrics.json", d)
    text = (tmp_path / "metrics.json").read_text()
    assert json.loads(text)["triple_precision"] is None
    assert text.endswith("\n")


def test_report_round_trip(tmp_path):
    report = MetricsReport(
        el={"precision_at_1": 0.9, "coverage": 0.7, "accuracy_at_1": 0.8,
            "mean_rank": 1.5},
        re={"accuracy": 0.6, "precision": 0.8, "recall": 2 / 3, "f1": 8 / 11},
        counts={"triples": 10, "bags": 4},
        rounds=[3, 5, 5],
        triple_precision=0.95,
    )
    write_json(tmp_path / "metrics.json", report.to_dict())
    back = json.loads((tmp_path / "metrics.json").read_text())
    assert back == report.to_dict()
    assert back["counts"] == {"bags": 4, "triples": 10}
    assert back["rounds"] == [3, 5, 5]
    assert back["re"]["f1"] == pytest.approx(8 / 11, abs=1e-9)
