"""Command-line front end.

Each subcommand drives the pipeline up to one stage, so partial runs reuse
cached artifacts from earlier invocations with the same config and seed.
"""

from __future__ import annotations

import argparse
import sys

from .kb import KBError, Triple, build_fact_type_templates, read_rows
from .pipeline import PipelineError, PipelineRunner, load_config
from .relations import validate_triple
from .synth import SynthConfig, generate_fixture


def _add_common(parser) -> None:
    parser.add_argument("--config", default=None, help="INI config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the global seed")
    parser.add_argument("--out", default=None, help="artifact directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kbforge",
        description="knowledge-base population from raw text")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
            ("ingest-kb", "validate the entity and triple files"),
            ("ingest-corpus", "validate the sentence corpus"),
            ("train-embeddings", "train node and joint embeddings"),
            ("bootstrap", "self-train the span recognizer and link the corpus"),
            ("train-el", "train the context ranking linker"),
            ("gen-bags", "build and split entity-pair training bags"),
            ("train-re", "train the relation extraction model"),
            ("extract", "link the full corpus and extract new triples"),
            ("enrich", "merge accepted triples into the knowledge base"),
            ("eval", "compute metrics and write metrics.json"),
            ("run-all", "run every stage end to end")):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)

    p = sub.add_parser("synth", help="generate a synthetic benchmark fixture")
    _add_common(p)
    p.add_argument("--entities", type=int, default=200)
    p.add_argument("--types", type=int, default=5)
    p.add_argument("--relations", type=int, default=10)
    p.add_argument("--triples-per-relation", type=int, default=42)
    p.add_argument("--sentences-per-triple", type=int, default=3)

    p = sub.add_parser("validate", help="check a triples file against the "
                                        "knowledge base type constraints")
    _add_common(p)
    p.add_argument("--triples", required=True, help="TSV of subject/relation/object")
    return parser


def _runner(args) -> PipelineRunner:
    cfg = load_config(args.config, seed=args.seed, out_dir=args.out)
    return PipelineRunner(cfg)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (PipelineError, KBError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    cmd = args.command

    if cmd == "synth":
        cfg = load_config(args.config, seed=args.seed, out_dir=args.out)
        synth = SynthConfig(entities=args.entities, types=args.types,
                            relations=args.relations,
                            triples_per_relation=args.triples_per_relation,
                            sentences_per_triple=args.sentences_per_triple,
                            seed=cfg.seed)
        paths = generate_fixture(synth, cfg.out_dir)
        for name in sorted(paths):
            print(f"{name}\t{paths[name]}")
        return 0

    runner = _runner(args)

    if cmd == "ingest-kb":
        kb = runner.kb()
        print(f"entities\t{len(kb.entities)}")
        print(f"triples\t{kb.triple_count}")
        print(f"relations\t{len(kb.relations)}")
        return 0

    if cmd == "ingest-corpus":
        corpus = runner.corpus()
        spans = sum(len(s.spans) for s in corpus)
        print(f"sentences\t{len(corpus)}")
        print(f"spans\t{spans}")
        return 0

    if cmd == "validate":
        kb = runner.kb()
        templates = build_fact_type_templates(kb)
        entity_types = {e: kb.entity_type(e) for e in kb.entities}
        accepted = rejected = 0
        for _, fields in read_rows(args.triples, 3):
            ok, reason = validate_triple(Triple(*fields), entity_types, templates)
            if ok:
                accepted += 1
            else:
                rejected += 1
                print("reject\t" + "\t".join(fields) + f"\t{reason}")
        print(f"accepted\t{accepted}")
        print(f"rejected\t{rejected}")
        return 0

    if cmd == "train-embeddings":
        table = runner.embeddings()
        print(f"symbols\t{len(table.symbols)}")
        print(f"dim\t{table.dim}")
        return 0

    if cmd == "bootstrap":
        corpus, rounds = runner.bootstrap()
        for entry in rounds:
            print(f"round\t{entry['round']}\t{entry['extracted']}\t{entry['recognizer']}")
        print(f"sentences\t{len(corpus)}")
        return 0

    if cmd == "train-el":
        model = runner.el_model()
        print(f"trained\t{model.trained}")
        return 0

    if cmd == "gen-bags":
        bags = runner.bags()
        for name in ("all", "train", "valid", "test"):
            print(f"{name}\t{len(bags[name])}")
        return 0

    if cmd == "train-re":
        model = runner.re_model()
        print(f"relations\t{len(model.relations)}")
        print(f"trained\t{model.trained}")
        return 0

    if cmd == "extract":
        accepted, rejected = runner.extracted()
        print(f"accepted\t{len(accepted)}")
        print(f"rejected\t{len(rejected)}")
        return 0

    if cmd == "enrich":
        added = runner.enriched()
        print(f"added\t{added}")
        return 0

    if cmd in ("eval", "run-all"):
        report = runner.evaluate()
        print(report.to_json(), end="")
        return 0

    raise PipelineError(f"unknown command {cmd}")


if __name__ == "__main__":
    sys.exit(main())
