"""Evaluation: linking precision/coverage/rank and bag-level micro P/R/F1.

Rates with a zero denominator are reported as None and serialize to null;
they are never coerced to 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class LinkEvalItem:
    sentence_id: str
    start: int
    end: int
    method: str                       # subgraph | context
    entity: str
    ranking: tuple[str, ...] = ()     # context decisions: candidates by descending score


def eval_entity_linker(items: list[LinkEvalItem],
                       gold: dict[tuple[str, int, int], str]) -> dict:
    """gold maps (sentence_id, start, end) to the correct entity; its size
    is the coverage denominator."""
    sub_made = sub_correct = ctx_made = ctx_correct = 0
    ranks: list[int] = []
    for item in items:
        key = (item.sentence_id, item.start, item.end)
        gold_entity = gold.get(key)
        if item.method == "subgraph":
            sub_made += 1
            sub_correct += int(item.entity == gold_entity)
        elif item.method == "context":
            ctx_made += 1
            ctx_correct += int(item.entity == gold_entity)
            if gold_entity is not None:
                if gold_entity in item.ranking:
                    ranks.append(item.ranking.index(gold_entity) + 1)
                else:
                    # gold missing from the candidate ranking: worst rank + 1
                    ranks.append(len(item.ranking) + 1)
        else:
            raise ValueError(f"unknown link method {item.method!r}")

    def rate(num, den):
        return num / den if den else None

    return {
        "precision_at_1": rate(sub_correct, sub_made),
        "coverage": rate(sub_made, len(gold)),
        "accuracy_at_1": rate(ctx_correct, ctx_made),
        "mean_rank": (sum(ranks) / len(ranks)) if ranks else None,
    }


def eval_relation_extractor(predictions: list[set[str]],
                            gold: list[set[str]]) -> dict:
    """Micro P/R/F1 over (bag, relation) decisions with NA as "predict
    nothing" rather than a class; accuracy is exact set match."""
    if not gold:
        raise ValueError("no gold bags to evaluate against")
    if len(predictions) != len(gold):
        raise ValueError(f"{len(predictions)} predictions vs {len(gold)} gold bags")
    tp = fp = fn = exact = 0
    for pred, actual in zip(predictions, gold):
        tp += len(pred & actual)
        fp += len(pred - actual)
        fn += len(actual - pred)
        exact += int(pred == actual)
    precision = tp / (tp + fp) if tp + fp else None
    recall = tp / (tp + fn) if tp + fn else None
    f1 = None
    if precision is not None and recall is not None and precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    return {
        "accuracy": exact / len(gold),
        "precision": precision,
        "recall": recall,
        "f1": f1,
    }


def triple_precision(extracted: list[tuple[str, str, str]],
                     true_triples: set[tuple[str, str, str]]) -> float | None:
    if not extracted:
        return None
    correct = sum(1 for t in extracted if t in true_triples)
    return correct / len(extracted)


@dataclass
class MetricsReport:
    el: dict = field(default_factory=dict)
    re: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    rounds: list = field(default_factory=list)
    triple_precision: float | None = None

    def to_dict(self) -> dict:
        return {
            "el": {
                "precision_at_1": self.el.get("precision_at_1"),
                "coverage": self.el.get("coverage"),
                "accuracy_at_1": self.el.get("accuracy_at_1"),
                "mean_rank": self.el.get("mean_rank"),
            },
            "re": {
                "accuracy": self.re.get("accuracy"),
                "precision": self.re.get("precision"),
                "recall": self.re.get("recall"),
                "f1": self.re.get("f1"),
            },
            "counts": dict(sorted(self.counts.items())),
            "rounds": list(self.rounds),
            "triple_precision": self.triple_precision,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> MetricsReport:
        """The report whose ``to_dict`` is ``doc``; TypeError or ValueError
        for a document that no report gives."""
        report = cls(**doc)
        if not all(isinstance(x, dict) for x in (report.el, report.re, report.counts)) \
                or report.to_dict() != doc:
            raise ValueError("not a metrics report")
        return report
