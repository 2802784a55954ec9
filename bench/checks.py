"""Correctness checks on what kbforge produced. Each check returns a list of
problems; an empty list means it passed. Only public kbforge functions are
used, so a check cannot agree with the program by sharing its internals.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from kbforge.kb import build_fact_type_templates
from kbforge.linker import generate_candidates
from kbforge.relations import validate_triple

# the release gate's twin-run artifact list (tests/test_acceptance.py)
ARTIFACTS = ("embeddings.vec", "linked.jsonl", "rounds.json", "el.ckpt",
             "bags_all.jsonl", "bags_train.jsonl", "bags_valid.jsonl",
             "bags_test.jsonl", "re.ckpt", "final_linked.jsonl",
             "link_eval.jsonl", "extracted.tsv", "rejected.tsv",
             "enriched_triples.tsv", "enriched_added.tsv", "metrics.json")


def bag_labels_in_kb(bags, kb) -> list[str]:
    return [f"bag ({b.subject},{b.object}) label {r!r} is not a KB relation of the pair"
            for b in bags for r in b.labels
            if r not in kb.relations_between(b.subject, b.object)]


def triples_fit_templates(triples, kb) -> list[str]:
    templates = build_fact_type_templates(kb)
    types = {e: kb.entity_type(e) for e in kb.entities}
    problems = []
    for t in triples:
        ok, reason = validate_triple(t, types, templates)
        if not ok:
            problems.append(f"accepted triple ({t.subject},{t.relation},{t.object}) "
                            f"fails its template ({reason})")
    return problems


def links_among_candidates(links, kb, table, knn_k: int) -> list[str]:
    """``links``: (sentence id, span, linked entity) triples."""
    problems = []
    for sid, span, entity in links:
        cand = generate_candidates(span, kb, table, knn_k)
        if cand is None or entity not in cand.entities:
            problems.append(f"{sid} span {span.start}-{span.end} {span.surface!r} "
                            f"linked to non-candidate {entity}")
    return problems


def rerun_is_idle(stage_ran: dict) -> list[str]:
    ran = sorted(stage for stage, flag in stage_ran.items() if flag)
    return [f"warm rerun ran stages {ran}"] if ran else []


def same_bytes(path_a, path_b) -> list[str]:
    if Path(path_a).read_bytes() != Path(path_b).read_bytes():
        return [f"{Path(path_a).name} differs from {path_b}"]
    return []


def sha256_files(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        data = Path(path).read_bytes()
        h.update(f"{Path(path).name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def repeats_earlier_runs(history_path, key: str, record: dict) -> list[str]:
    """Compare ``record`` with the first run stored under ``key`` (a run of
    the same code, workload and seed), field by field. Fields the stored run
    lacks are compared with nothing and stored."""
    path = Path(history_path)
    history = json.loads(path.read_text()) if path.exists() else {}
    first = history.setdefault(key, {})
    problems = [f"{field} differs from an earlier run of the same code: "
                f"{record[field]!r} != {first[field]!r}"
                for field in sorted(set(first) & set(record))
                if record[field] != first[field]]
    if not set(record) <= set(first):
        for field, value in record.items():
            first.setdefault(field, value)
        path.write_text(json.dumps(history, sort_keys=True, indent=1) + "\n")
    return problems
