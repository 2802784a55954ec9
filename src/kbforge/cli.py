"""Command-line front end.

Each subcommand drives the pipeline up to one stage, so partial runs reuse
cached artifacts from earlier invocations with the same config and seed.
"""

from __future__ import annotations

import argparse
import sys

from .files import encode_document, read_rows
from .kb import KBError, KBLoadError, Triple, build_fact_type_templates
from .pipeline import BAG_SPLITS, PipelineError, PipelineRunner, load_config
from .relations import validate_triple
from .synth import SynthConfig, generate_fixture


# the SynthConfig fields that `kbforge synth` takes as options
SYNTH_COUNTS = ("entities", "types", "relations", "triples_per_relation", "sentences_per_triple")


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
    for name in SYNTH_COUNTS:
        p.add_argument(f"--{name.replace('_', '-')}", type=int, default=getattr(SynthConfig, name))

    p = sub.add_parser("validate", help="check a triples file against the "
                                        "knowledge base type constraints")
    _add_common(p)
    p.add_argument("--triples", required=True, help="TSV of subject/relation/object")
    return parser


# command -> the rows it prints, tab-separated, for the runner
SUMMARIES = {
    "ingest-kb": lambda r: [("entities", len(r.kb().entities)),
                            ("triples", r.kb().triple_count),
                            ("relations", len(r.kb().relations))],
    "ingest-corpus": lambda r: [("sentences", len(r.corpus())),
                                ("spans", sum(len(s.spans) for s in r.corpus()))],
    "train-embeddings": lambda r: [("symbols", len(r.embeddings().symbols)),
                                   ("dim", r.embeddings().dim)],
    "bootstrap": lambda r: [("round", e["round"], e["extracted"], e["recognizer"])
                            for e in r.bootstrap()[1]]
                           + [("sentences", len(r.bootstrap()[0]))],
    "train-el": lambda r: [("trained", r.el_model().trained)],
    "gen-bags": lambda r: [(name, len(r.bags()[name])) for name in BAG_SPLITS],
    "train-re": lambda r: [("relations", len(r.re_model().relations)),
                           ("trained", r.re_model().trained)],
    "extract": lambda r: [("accepted", len(r.extracted()[0])),
                          ("rejected", len(r.extracted()[1]))],
    "enrich": lambda r: [("added", r.enriched())],
}


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
        try:
            paths = generate_fixture(SynthConfig(seed=cfg.seed, **{
                n: getattr(args, n) for n in SYNTH_COUNTS}), cfg.out_dir)
        except ValueError as exc:
            raise PipelineError(f"synth {exc}") from None
        for name in sorted(paths):
            print(f"{name}\t{paths[name]}")
        return 0

    runner = PipelineRunner(load_config(args.config, seed=args.seed, out_dir=args.out))

    if cmd in SUMMARIES:
        for row in SUMMARIES[cmd](runner):
            print("\t".join(map(str, row)))
        return 0

    if cmd == "validate":
        kb = runner.kb()
        templates = build_fact_type_templates(kb)
        entity_types = {e: kb.entity_type(e) for e in kb.entities}
        accepted = rejected = 0
        for fields in read_rows(args.triples, 3, KBLoadError):
            ok, reason = validate_triple(Triple(*fields), entity_types, templates)
            if ok:
                accepted += 1
            else:
                rejected += 1
                print("reject\t" + "\t".join(fields) + f"\t{reason}")
        print(f"accepted\t{accepted}")
        print(f"rejected\t{rejected}")
        return 0

    if cmd in ("eval", "run-all"):
        # the bytes of the metrics.json that the evaluate stage wrote
        print(encode_document(runner.evaluate().to_dict()))
        return 0

    raise PipelineError(f"unknown command {cmd}")


if __name__ == "__main__":
    sys.exit(main())
