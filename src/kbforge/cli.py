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


def _validate(r, args) -> list[tuple]:
    kb = r.kb()
    templates = build_fact_type_templates(kb)
    entity_types = {e: kb.entity_type(e) for e in kb.entities}
    rows = read_rows(args.triples, 3, KBLoadError)
    reasons = [validate_triple(Triple(*fields), entity_types, templates)[1] for fields in rows]
    rejects = [("reject", *fields, why) for fields, why in zip(rows, reasons) if why is not None]
    return rejects + [("accepted", len(rows) - len(rejects)), ("rejected", len(rejects))]


def _metrics(r, args) -> list[tuple]:
    # the bytes of the metrics.json that the evaluate stage wrote
    return [(encode_document(r.evaluate().to_dict()),)]


# every command but synth: its help text, and the rows it prints,
# tab-separated, given the runner and the parsed options
COMMANDS = {
    "ingest-kb": ("validate the entity and triple files",
                  lambda r, a: [("entities", len(r.kb().entities)),
                                ("triples", r.kb().triple_count),
                                ("relations", len(r.kb().relations))]),
    "ingest-corpus": ("validate the sentence corpus",
                      lambda r, a: [("sentences", len(r.corpus())),
                                    ("spans", sum(len(s.spans) for s in r.corpus()))]),
    "train-embeddings": ("train node and joint embeddings",
                         lambda r, a: [("symbols", len(r.embeddings().symbols)),
                                       ("dim", r.embeddings().dim)]),
    "bootstrap": ("self-train the span recognizer and link the corpus",
                  lambda r, a: [("round", e["round"], e["extracted"], e["recognizer"])
                                for e in r.bootstrap()[1]]
                               + [("sentences", len(r.bootstrap()[0]))]),
    "train-el": ("train the context ranking linker",
                 lambda r, a: [("oov_count", r.el_model().oov_count)]),
    "gen-bags": ("build and split entity-pair training bags",
                 lambda r, a: [(name, len(r.bags()[name])) for name in BAG_SPLITS]),
    "train-re": ("train the relation extraction model",
                 lambda r, a: [("relations", len(r.re_model().relations))]),
    "extract": ("link the full corpus and extract new triples",
                lambda r, a: [("accepted", len(r.extracted()[0])),
                              ("rejected", len(r.extracted()[1]))]),
    "enrich": ("merge accepted triples into the knowledge base",
               lambda r, a: [("added", r.enriched())]),
    "eval": ("compute metrics and write metrics.json", _metrics),
    "run-all": ("run every stage end to end", _metrics),
    "validate": ("check a triples file against the knowledge base type constraints",
                 _validate),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kbforge",
        description="knowledge-base population from raw text")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in COMMANDS.items():
        _add_common(sub.add_parser(name, help=help_text))
    sub.choices["validate"].add_argument("--triples", required=True,
                                         help="TSV of subject/relation/object")

    p = sub.add_parser("synth", help="generate a synthetic benchmark fixture")
    _add_common(p)
    for name in SYNTH_COUNTS:
        p.add_argument(f"--{name.replace('_', '-')}", type=int, default=getattr(SynthConfig, name))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (PipelineError, KBError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    cfg = load_config(args.config, seed=args.seed, out_dir=args.out)
    if args.command == "synth":
        try:
            rows = sorted(generate_fixture(SynthConfig(seed=cfg.seed, **{
                n: getattr(args, n) for n in SYNTH_COUNTS}), cfg.out_dir).items())
        except ValueError as exc:
            raise PipelineError(f"synth {exc}") from None
    else:
        rows = COMMANDS[args.command][1](PipelineRunner(cfg), args)
    for row in rows:
        print("\t".join(map(str, row)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
