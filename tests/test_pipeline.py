import contextlib
import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import make_config
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kbforge import cli, files, linker, nn, pipeline
from kbforge.datagen import (
    Bag,
    BootstrapConfig,
    DistantSupervisionConfig,
    _extract_once,
    load_bags,
    split_dataset,
)
from kbforge.embeddings import SkipGramConfig, load_table
from kbforge.kb import Triple, load_kb
from kbforge.linker import (
    ELConfig,
    GazetteerRecognizer,
    LinkError,
    generate_candidates,
    link,
    subgraph_link,
)
from kbforge.nn import no_grad
from kbforge.nn.checkpoint import MAGIC
from kbforge.relations import ExtractedTriple, REConfig, load_model
from kbforge.pipeline import (
    BenchmarkError,
    PipelineError,
    PipelineRunner,
    load_benchmark,
    load_config,
)
from kbforge.synth import SynthConfig, generate_fixture

STAGES = ("embeddings", "bootstrap", "el", "bags", "re", "link", "extract",
          "enrich", "evaluate")

TINY_SYNTH = SynthConfig(entities=30, types=3, relations=3,
                         triples_per_relation=6, sentences_per_triple=2,
                         seed=11)

# small everywhere: these runs exist to exercise the stage graph, not quality
TINY_TEMPLATE = """\
[paths]
entities = {fix}/entities.tsv
triples = {fix}/triples.tsv
corpus = {fix}/corpus.jsonl
gold_links = {fix}/gold_links.tsv
gold_triples = {fix}/gold_triples.tsv
out_dir = {out}

[embeddings]
dim = 8
epochs = 1

[bootstrap]
max_rounds = 2
knn_k = {knn_k}
classifier_epochs = 1

[el]
hidden = 4
mlp_hidden = 8
epochs = 1
knn_k = {knn_k}

[re]
word_dim = 8
pos_dim = 2
type_dim = 2
tag_dim = 2
hidden = 8
epochs = {re_epochs}
"""


@pytest.fixture(scope="module")
def tiny_fixture(tmp_path_factory):
    d = tmp_path_factory.mktemp("tinyfix")
    generate_fixture(TINY_SYNTH, d)
    return d


# RE takes one Adam step per RE_BATCH bags, and the tiny fixture has 25 train
# bags: 5 epochs (20 steps) leave accepted triples to check, where 1 or 2
# epochs accept none
TINY_RE_EPOCHS = 5


def write_tiny_config(tiny_fixture, out_dir, re_epochs=TINY_RE_EPOCHS, name=None, knn_k=0):
    path = out_dir.parent / f"{name or out_dir.name}.ini"
    path.write_text(TINY_TEMPLATE.format(fix=tiny_fixture, out=out_dir,
                                         re_epochs=re_epochs, knn_k=knn_k))
    return path


@pytest.fixture(scope="module")
def tiny_run(tiny_fixture, tmp_path_factory):
    out = tmp_path_factory.mktemp("tinyrun") / "artifacts"
    cfg_path = write_tiny_config(tiny_fixture, out)
    runner = PipelineRunner(load_config(cfg_path))
    report = runner.evaluate()
    return {"runner": runner, "report": report, "cfg_path": cfg_path,
            "out": out, "fixture": tiny_fixture}


# -- config loading -----------------------------------------------------------


def test_default_config_and_derived_seeds():
    cfg = load_config(None)
    assert cfg.seed == 0 and cfg.out_dir == "out"
    assert cfg.embeddings.seed == 1
    assert cfg.bootstrap.seed == 3
    assert cfg.el.seed == 4
    assert cfg.ds.seed == 5
    assert cfg.re.seed == 7


def test_config_file_sections(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[paths]\nentities = e.tsv\ntriples = t.tsv\n"
                 "corpus = c.jsonl\nout_dir = art\n"
                 "[pipeline]\nseed = 9\nthreads = 2\n"
                 "[embeddings]\ndim = 32\n"
                 "[bootstrap]\nmax_rounds = 2\n"
                 "[el]\nmargin = 0.25\n"
                 "[ds]\nna_ratio = 2.0\ntrain = 0.7\nvalid = 0.2\n"
                 "[re]\nepochs = 4\n")
    cfg = load_config(p)
    assert cfg.entities_path == "e.tsv" and cfg.out_dir == "art"
    assert cfg.seed == 9
    assert cfg.embeddings.dim == 32
    assert cfg.bootstrap.max_rounds == 2
    assert cfg.el.margin == 0.25
    assert cfg.ds.na_ratio == 2.0
    assert cfg.re.epochs == 4
    assert (cfg.ds.train, cfg.ds.valid) == (0.7, 0.2)
    # per-stage seeds follow the file's global seed
    assert (cfg.embeddings.seed, cfg.bootstrap.seed, cfg.el.seed,
            cfg.ds.seed, cfg.re.seed) == (10, 12, 13, 14, 16)


def test_cli_overrides_beat_file(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[pipeline]\nseed = 9\n[paths]\nout_dir = art\n")
    cfg = load_config(p, seed=3, out_dir="elsewhere")
    assert cfg.seed == 3 and cfg.out_dir == "elsewhere"
    assert cfg.embeddings.seed == 4


def test_unknown_config_key_rejected(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[el]\nhiden = 3\n")
    with pytest.raises(PipelineError, match="unknown config key 'hiden'"):
        load_config(p)


# keys of deleted config fields, and the stage seeds that [pipeline] seed
# derives: an old config that sets one must fail, not load as something else
RETIRED_KEYS = [("bootstrap", "count_multiplicity", "yes"), ("re", "sdp_anchor", "first"),
                ("re", "sdp_include_internal", "no"), ("re", "gcn_layers", "2"),
                ("embeddings", "interleave_kb_objective", "no"), ("el", "max_items", "100")]
RETIRED_KEYS += [(section, "seed", "3") for section in ("embeddings", "bootstrap", "el",
                                                         "ds", "re")]
# the split shares moved into [ds], where test takes the rest
RETIRED_KEYS += [("ds", "test", "0.1"), ("split", "train", "0.8")]


@pytest.mark.parametrize("section,key,value", RETIRED_KEYS)
def test_retired_config_key_fails_loudly(tmp_path, section, key, value):
    p = tmp_path / "c.ini"
    p.write_text(f"[pipeline]\nseed = 0\n[{section}]\n{key} = {value}\n")
    expected = (r"\[pipeline\] seed" if key == "seed"
                else r"unknown config section \[split\]" if section == "split"
                else f"unknown config key {key!r}")
    with pytest.raises(PipelineError, match=expected):
        load_config(p)


@pytest.mark.parametrize("section,key", [("ds", "trian"), ("pipeline", "sed"),
                                         ("pipeline", "epochs"), ("paths", "corpse")])
def test_unknown_split_or_pipeline_key_fails_loudly(tmp_path, section, key):
    # a misspelt split ratio used to load as its default and fail only in bags
    p = tmp_path / "c.ini"
    p.write_text(f"[{section}]\n{key} = 0.5\n")
    with pytest.raises(PipelineError, match=rf"unknown config key '{key}' in \[{section}\]"):
        load_config(p)


def test_pipeline_threads_key_is_still_accepted(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[pipeline]\nseed = 2\nthreads = 1\n[ds]\ntrain = 0.6\nvalid = 0.2\n")
    cfg = load_config(p)
    assert cfg.seed == 2 and (cfg.ds.train, cfg.ds.valid) == (0.6, 0.2)


def test_train_share_alone_loads_and_test_takes_the_rest(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[ds]\ntrain = 0.5\n")
    bags = [Bag(f"s{i}", f"o{i}", (), (f"sid{i}",)) for i in range(10)]
    assert [len(part) for part in split_dataset(bags, load_config(p).ds)] == [5, 1, 4]


def test_config_values_are_taken_literally(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[paths]\nout_dir = runs/100%\n")
    assert load_config(p).out_dir == "runs/100%"


def test_zero_counts_still_load(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[bootstrap]\nmax_rounds = 0\nknn_k = 0\nclassifier_epochs = 0\n"
                 "classifier_negatives = 0\n[el]\nepochs = 0\nknn_k = 0\n"
                 "[re]\nepochs = 0\n[embeddings]\nepochs = 0\n")
    cfg = load_config(p)
    b = cfg.bootstrap
    assert (b.max_rounds, b.knn_k, b.classifier_epochs, b.classifier_negatives,
            cfg.el.epochs, cfg.el.knn_k, cfg.re.epochs, cfg.embeddings.epochs) == (0,) * 8


def test_readme_config_loads_and_mirrors_the_test_config(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```ini\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    documented = tmp_path / "readme.ini"
    documented.write_text(blocks[0])
    tested = make_config(tmp_path / "fixture", tmp_path / "artifacts")

    def settings(path):
        cfg = dataclasses.asdict(load_config(path))
        return {k: v for k, v in cfg.items() if not k.endswith(("_path", "_dir"))}

    assert settings(documented) == settings(tested)


# -- declared bounds -----------------------------------------------------------

# config section (or "synth", which no INI file sets) -> its dataclass
CONFIG_CLASSES = {"pipeline": pipeline.PipelineConfig, "embeddings": SkipGramConfig,
                  "bootstrap": BootstrapConfig, "ds": DistantSupervisionConfig,
                  "el": ELConfig, "re": REConfig, "synth": SynthConfig}


def test_every_numeric_config_field_declares_bounds():
    # a new int or float setting must say what range it takes
    unbounded = [f"{cls.__name__}.{f.name}" for cls in CONFIG_CLASSES.values()
                 for f in dataclasses.fields(cls)
                 if f.type in ("int", "float", int, float) and f.name != "seed"
                 and "bounds" not in f.metadata]
    assert unbounded == []


def ints_from(lo, hi=math.inf):
    return int, (lo,) if hi == math.inf else (lo, hi), lambda v: lo <= v <= hi


def floats(*bounds, legal):
    return float, bounds, lambda v: math.isfinite(v) and legal(v)


# what each bounded field accepts, written out apart from the declarations:
# (section, field) -> (type, the bounds, whether a value is legal)
LEGAL = {
    ("pipeline", "seed"): ints_from(0),
    ("embeddings", "dim"): ints_from(1),
    ("embeddings", "epochs"): ints_from(0),
    ("embeddings", "learning_rate"): floats(0, legal=lambda v: v > 0),
    ("embeddings", "negatives"): ints_from(1),
    ("embeddings", "window"): ints_from(1),
    ("bootstrap", "max_rounds"): ints_from(0),
    ("bootstrap", "knn_k"): ints_from(0),
    ("bootstrap", "classifier_feature_dim"): ints_from(1),
    ("bootstrap", "classifier_lr"): floats(0, legal=lambda v: v > 0),
    ("bootstrap", "classifier_epochs"): ints_from(0),
    ("bootstrap", "classifier_negatives"): ints_from(0),
    ("ds", "max_bag_size"): ints_from(1),
    ("ds", "na_ratio"): floats(0, legal=lambda v: v >= 0),
    ("ds", "train"): floats(0, 1, legal=lambda v: 0 <= v <= 1),
    ("ds", "valid"): floats(0, 1, legal=lambda v: 0 <= v <= 1),
    ("el", "hidden"): ints_from(1),
    ("el", "mlp_hidden"): ints_from(1),
    ("el", "margin"): floats(0, legal=lambda v: v > 0),
    ("el", "learning_rate"): floats(0, legal=lambda v: v > 0),
    ("el", "epochs"): ints_from(0),
    ("el", "knn_k"): ints_from(0),
    ("re", "word_dim"): ints_from(1),
    ("re", "pos_dim"): ints_from(1),
    ("re", "type_dim"): ints_from(1),
    ("re", "tag_dim"): ints_from(1),
    # the BiLSTM splits hidden across its two directions
    ("re", "hidden"): (int, (1,), lambda v: v >= 1 and v % 2 == 0),
    ("re", "conv_width"): ints_from(1),
    ("re", "margin"): floats(0, 1, legal=lambda v: 0 < v < 1),
    ("re", "down_weight"): floats(0, legal=lambda v: v > 0),
    ("re", "threshold_init"): floats(0, legal=lambda v: True),
    ("re", "max_pos"): ints_from(0),
    ("re", "learning_rate"): floats(0, legal=lambda v: v > 0),
    ("re", "epochs"): ints_from(0),
    ("synth", "entities"): ints_from(1, 609),
    ("synth", "types"): ints_from(2),
    ("synth", "relations"): ints_from(1, 12),
    ("synth", "triples_per_relation"): ints_from(1),
    ("synth", "sentences_per_triple"): ints_from(1),
    ("synth", "distractor_rate"): floats(0, legal=lambda v: v >= 0),
    ("synth", "holdout_fraction"): floats(0, 1, legal=lambda v: 0 <= v <= 1),
    ("synth", "seed"): ints_from(0),
}


def test_every_bounded_field_has_a_reference_range():
    declared = {(section, f.name) for section, cls in CONFIG_CLASSES.items()
                for f in dataclasses.fields(cls) if "bounds" in f.metadata}
    assert declared == set(LEGAL)


def near_bounds(kind, bounds) -> list:
    """Values on, just inside and just outside each bound; for a float
    also nan and both infinities."""
    if kind is int:
        return [b + d for b in bounds for d in (-1, 0, 1)]
    return [x for b in bounds for x in (b - 1, math.nextafter(b, -math.inf), b,
                                        math.nextafter(b, math.inf), b + 1)
            ] + [math.nan, math.inf, -math.inf]


# the other share's default, for a cross-field rule: train + valid,
# summed exactly as written, is at most 1
OTHER_SHARE = {("ds", "train"): "0.1", ("ds", "valid"): "0.8"}


def fewest_pairs(entities: int, types: int, relations: int, **_) -> int:
    """The fewest subject-object pairs of any relation of a synth shape,
    counted entity by entity: entity k has type k % types, and relation r
    joins type r % types to the next."""
    sizes = Counter(k % types for k in range(entities))
    return min(sizes[r % types] * sizes[(r + 1) % types] for r in range(relations))


def assert_loads_exactly_when_legal(path, section, key, value):
    legal = LEGAL[(section, key)][2]
    if section == "synth":
        # the other cross-field rule: each relation's types hold its triples
        shape = {**vars(SynthConfig()), key: value}
        if legal(value) and shape["triples_per_relation"] > fewest_pairs(**shape):
            with pytest.raises(ValueError, match="^triples_per_relation must be at most"):
                SynthConfig(**{key: value})
        elif legal(value):
            assert getattr(SynthConfig(**{key: value}), key) == value
        else:
            with pytest.raises(ValueError, match=f"^{key} must"):
                SynthConfig(**{key: value})
        return
    path.write_text(f"[{section}]\n{key} = {value!r}\n")
    other = OTHER_SHARE.get((section, key))
    if legal(value) and other and Fraction(repr(value)) + Fraction(other) > 1:
        with pytest.raises(PipelineError, match=r"^\[ds\] train \+ valid must be at most 1"):
            load_config(path)
    elif legal(value):
        cfg = load_config(path)
        assert getattr(cfg if section == "pipeline" else getattr(cfg, section), key) == value
    else:
        with pytest.raises(PipelineError, match=rf"^\[{section}\] {key} must"):
            load_config(path)


@pytest.mark.parametrize("section, key", sorted(LEGAL))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_value_loads_exactly_when_its_field_allows_it(tmp_path, section, key, data):
    kind, bounds, _ = LEGAL[(section, key)]
    anywhere = st.integers() if kind is int else st.floats()
    value = data.draw(st.sampled_from(near_bounds(kind, bounds)) | anywhere)
    assert_loads_exactly_when_legal(tmp_path / "c.ini", section, key, value)


@pytest.mark.parametrize("section, key", sorted(LEGAL))
def test_every_value_at_a_bound_loads_exactly_when_its_field_allows_it(tmp_path, section, key):
    # the draws above may miss a bound's edge; this walks every edge once
    kind, bounds, _ = LEGAL[(section, key)]
    for value in near_bounds(kind, bounds):
        assert_loads_exactly_when_legal(tmp_path / "c.ini", section, key, value)


def test_missing_config_file():
    with pytest.raises(PipelineError, match="not found"):
        load_config("/nonexistent/cfg.ini")


def test_runner_requires_paths(tmp_path):
    cfg = load_config(None, out_dir=str(tmp_path / "o"))
    runner = PipelineRunner(cfg)
    with pytest.raises(PipelineError, match="entities/triples"):
        runner.kb()
    with pytest.raises(PipelineError, match="corpus"):
        runner.corpus()


# -- stage caching ------------------------------------------------------------


def test_first_run_executes_every_stage(tiny_run):
    assert {s: True for s in STAGES} == tiny_run["runner"].stage_ran


def test_rerun_is_fully_cached(tiny_run):
    runner = PipelineRunner(load_config(tiny_run["cfg_path"]))
    report = runner.evaluate()
    assert {s: False for s in STAGES} == runner.stage_ran
    assert report.to_dict() == tiny_run["report"].to_dict()


def stage_sha256(out: Path) -> dict[str, dict[str, str]]:
    """Each stage's output file -> sha256 map, as its cache.json records it."""
    return {stage: entry["sha256"]
            for stage, entry in json.loads((out / "cache.json").read_text()).items()}


def test_default_candidate_path_links_only_among_candidates(tiny_run, tmp_path):
    # the other builds here set knn_k = 0; this one lets a span the alias
    # table misses ask for embedding neighbours, as the default knn_k does.
    # Every span of the tiny fixture is an alias, so the build is the same.
    knn_k = 3
    out = tmp_path / "artifacts"
    cfg_path = write_tiny_config(tiny_run["fixture"], out, knn_k=knn_k)
    runner = PipelineRunner(load_config(cfg_path))
    runner.evaluate()
    assert runner.stage_ran == {s: True for s in STAGES}
    kb, table = runner.kb(), runner.embeddings()
    spans = [sp for sentences in (runner.bootstrap()[0], runner.link_corpus()[0])
             for sentence in sentences for sp in sentence.spans if sp.linked]
    candidates = [generate_candidates(sp, kb, table, knn_k) for sp in spans]
    assert spans
    for sp, cand in zip(spans, candidates):
        assert sp.linked in cand.entities, sp
    assert stage_sha256(out) == stage_sha256(tiny_run["out"])
    rerun = PipelineRunner(load_config(cfg_path))
    rerun.evaluate()
    assert rerun.stage_ran == {s: False for s in STAGES}


def test_default_knn_k_builds_the_measured_kb(full_run, tmp_path):
    # the tier-1 build with both knn_k lines left out, so both take their
    # default: every span there is an alias, so only the stages that read
    # knn_k rerun, and each writes the bytes it wrote with knn_k = 0
    out = tmp_path / "artifacts"
    shutil.copytree(full_run["out"], out)
    cfg_path = make_config(full_run["fixture_dir"], out)
    template = cfg_path.read_text()
    assert template.count("knn_k = 0\n") == 2
    cfg_path.write_text(template.replace("knn_k = 0\n", ""))
    cfg = load_config(cfg_path)
    assert cfg.bootstrap.knn_k == cfg.el.knn_k == 10
    runner = PipelineRunner(cfg)
    report = runner.evaluate()
    assert stage_sha256(out) == stage_sha256(full_run["out"])
    assert report.to_dict() == full_run["report"].to_dict()
    assert {s for s, ran in runner.stage_ran.items() if ran} == {"bootstrap", "el", "link"}


def test_config_edit_invalidates_only_downstream(tiny_run):
    cfg_path = write_tiny_config(tiny_run["fixture"], tiny_run["out"],
                                 re_epochs=2, name="edited")
    runner = PipelineRunner(load_config(cfg_path))
    runner.evaluate()
    ran = runner.stage_ran
    # everything upstream of the edited section stays cached
    assert not any(ran[s] for s in ("embeddings", "bootstrap", "el", "bags",
                                    "link"))
    assert ran["re"], "edited section must retrain"
    assert ran["extract"], "new checkpoint must re-extract"
    # restore the original artifacts for the other cache tests
    original = PipelineRunner(load_config(tiny_run["cfg_path"]))
    original.evaluate()
    assert original.stage_ran["re"]


def test_warm_evaluate_loads_only_what_it_returns(tiny_run, monkeypatch):
    def refuse(*_):
        raise AssertionError("a warm evaluate loaded an upstream artifact")

    for name, stage in pipeline.STAGES.items():
        if name != "evaluate":
            monkeypatch.setitem(pipeline.STAGES, name, dataclasses.replace(stage, load=refuse))
    monkeypatch.setattr(pipeline, "load_kb", refuse)
    monkeypatch.setattr(pipeline, "ingest_corpus", refuse)
    runner = PipelineRunner(load_config(tiny_run["cfg_path"]))
    assert runner.evaluate().to_dict() == tiny_run["report"].to_dict()
    assert {s: False for s in STAGES} == runner.stage_ran


def test_warm_evaluate_hashes_each_input_file_once(tiny_run, monkeypatch):
    hashed = []
    real = pipeline._hash_file
    monkeypatch.setattr(pipeline, "_hash_file",
                        lambda path: hashed.append(str(path)) or real(path))
    PipelineRunner(load_config(tiny_run["cfg_path"])).evaluate()
    # every input, and every output the cache checks, once
    files = {f for stage in pipeline.STAGES.values() for f in stage.inputs + stage.outputs}
    assert len(hashed) == len(set(hashed)) == len(files)


def test_cache_manifest_does_not_depend_on_where_the_out_dir_lives(tiny_fixture, tmp_path):
    manifests = []
    for out in (tmp_path / "artifacts", tmp_path / "elsewhere" / "deeper" / "artifacts"):
        out.parent.mkdir(parents=True, exist_ok=True)
        PipelineRunner(load_config(write_tiny_config(tiny_fixture, out))).evaluate()
        manifests.append((out / "cache.json").read_bytes())
    assert manifests[0] == manifests[1]
    entry = json.loads(manifests[0])["re"]
    assert set(entry) == {"key", "sha256"} and set(entry["sha256"]) == {"re.ckpt"}


def test_manifest_with_output_paths_is_still_reused(tiny_run, tmp_path):
    # runners once recorded each stage's output paths next to its key
    out = tmp_path / "artifacts"
    shutil.copytree(tiny_run["out"], out)
    manifest = json.loads((out / "cache.json").read_text())
    for name, entry in manifest.items():
        entry["outputs"] = [str(out / o) for o in pipeline.STAGES[name].outputs]
    (out / "cache.json").write_text(json.dumps(manifest))
    runner = PipelineRunner(load_config(write_tiny_config(tiny_run["fixture"], out)))
    assert runner.evaluate().to_dict() == tiny_run["report"].to_dict()
    assert {s: False for s in STAGES} == runner.stage_ran


def test_missing_configured_input_names_stage_and_input(tiny_run, tmp_path):
    cfg = load_config(tiny_run["cfg_path"], out_dir=str(tmp_path / "out"))
    cfg.corpus_path = str(tmp_path / "absent.jsonl")
    with pytest.raises(PipelineError, match="stage embeddings: input corpus not found"):
        PipelineRunner(cfg).evaluate()


# JSON values that are not an object, each with what indexing it by a key says
NOT_AN_OBJECT = {"number": (5, "'int' object is not subscriptable"),
                 "string": ("trained", "string indices must be integers"),
                 "list": (["trained"], "list indices must be integers"),
                 "null": (None, "'NoneType' object is not subscriptable")}


@pytest.mark.parametrize("ckpt, edit, message", [
    # an re.ckpt written before REConfig lost freeze_word_vectors
    ("re.ckpt", lambda meta: meta["config"].update(freeze_word_vectors=False),
     "'freeze_word_vectors'"),
    ("re.ckpt", lambda meta: meta.pop("relations"), "lacks key 'relations'"),
    ("re.ckpt", lambda meta: meta["config"].update(hidden=3), "hidden must be even"),
    ("re.ckpt", lambda meta: meta["config"].update(learning_rate=-1), "learning_rate must"),
    ("re.ckpt", lambda meta: meta.update(config=list(meta["config"])), "must be a mapping"),
    ("re.ckpt", lambda meta: meta.update(relations=[]), "relation vocabulary is empty"),
    # a string used to load one character per word
    ("re.ckpt", lambda meta: meta.update(word_vocab="".join(meta["word_vocab"])),
     "expected a list"),
    ("el.ckpt", lambda meta: meta.pop("trained"), "lacks key 'trained'"),
    # a truthy non-boolean used to load as a trained model
    *((ckpt, lambda meta, v=value: meta.update(trained=v), f"expected a boolean, found {value!r}")
      for ckpt in ("el.ckpt", "re.ckpt") for value in ("false", ["false"])),
    ("embeddings.vec", lambda meta: meta.pop("symbols"), "lacks key 'symbols'"),
    ("embeddings.vec", lambda meta: meta.update(symbols=" ".join(meta["symbols"])),
     "expected a list"),
    ("embeddings.vec", lambda meta: meta["symbols"].__setitem__(1, meta["symbols"][0]),
     "duplicate symbols"),
    ("embeddings.vec", lambda meta: meta["symbols"].__setitem__(0, "two words"),
     "symbol 'two words' is empty or contains whitespace"),
    # a non-string symbol used to fail the whitespace check unnamed
    ("embeddings.vec", lambda meta: meta["symbols"].__setitem__(0, 5),
     "symbol 5 is not a string"),
    # a meta that is not a JSON object replaces the whole meta; an el.ckpt
    # meta that is a number used to escape as a bare TypeError
    *((ckpt, meta, message) for ckpt in ("re.ckpt", "el.ckpt", "embeddings.vec")
      for meta, message in NOT_AN_OBJECT.values()),
], ids=["re-unknown-config-key", "re-no-relations", "re-odd-hidden", "re-negative-rate",
        "re-config-not-an-object", "re-empty-relations", "re-vocab-a-string", "el-no-trained",
        "el-trained-a-string", "el-trained-a-list", "re-trained-a-string", "re-trained-a-list",
        "vec-no-symbols", "vec-symbols-a-string", "vec-duplicate-symbol",
        "vec-whitespace-symbol", "vec-symbol-a-number",
        *(f"{kind}-meta-a-{shape}" for kind in ("re", "el", "vec") for shape in NOT_AN_OBJECT)])
def test_checkpoint_meta_that_does_not_fit_is_a_checkpoint_error(tiny_run, tmp_path,
                                                                 ckpt, edit, message):
    if callable(edit):
        assert_forged_checkpoint_fails(tiny_run, tmp_path, ckpt, lambda meta, _: edit(meta),
                                       message)
    else:
        assert_forged_checkpoint_fails(tiny_run, tmp_path, ckpt, lambda *_: None, message,
                                       meta=edit)


@pytest.mark.parametrize("ckpt, edit, message", [
    ("re.ckpt", lambda t: t.update({"re.threshold": np.repeat(t["re.threshold"], 2, axis=0)}),
     "shape mismatch for 're.threshold': (2, 1) vs (1, 1)"),
    ("el.ckpt", lambda t: t.update({"el.scorer.l1.b": t["el.scorer.l1.b"].T}),
     "shape mismatch for 'el.scorer.l1.b': (1, 8) vs (8, 1)"),
    ("el.ckpt", lambda t: t.pop("el.encoder.fwd.wh"),
     "checkpoint missing parameter 'el.encoder.fwd.wh'"),
    ("re.ckpt", lambda t: t.update(stray=t["re.threshold"]),
     "checkpoint tensor 'stray' names no parameter"),
    ("embeddings.vec", lambda t: t.update(vectors=t["vectors"][1:]),
     "not one row per symbol"),
    ("embeddings.vec", lambda t: t.update(vectors=t["vectors"].ravel()),
     "not one row per symbol"),
    ("embeddings.vec", lambda t: t.pop("vectors"), "tensors [] are not ['vectors']"),
    ("embeddings.vec", lambda t: t.update(stray=t["vectors"]),
     "tensors ['stray', 'vectors'] are not ['vectors']"),
    ("embeddings.vec", lambda t: t.update(vectors=np.full_like(t["vectors"], np.nan)),
     "non-finite vector entries"),
], ids=["re-wrong-shape", "el-wrong-shape", "el-missing-tensor", "re-extra-tensor",
        "vec-rows-not-symbols", "vec-not-2d", "vec-missing-tensor", "vec-extra-tensor",
        "vec-nan"])
def test_checkpoint_tensor_that_does_not_fit_is_a_checkpoint_error(tiny_run, tmp_path,
                                                                   ckpt, edit, message):
    assert_forged_checkpoint_fails(tiny_run, tmp_path, ckpt, lambda _, tensors: edit(tensors),
                                   message)


def as_parameters(tensors: dict) -> list:
    """The checkpoint tensors ``tensors`` as Parameters of the same names."""
    return [nn.Parameter(array, name) for name, array in tensors.items()]


KEEP = object()


def assert_forged_checkpoint_fails(tiny_run, tmp_path, ckpt, edit, message, meta=KEEP):
    """A copy of the built ``ckpt`` after ``edit(meta, tensors)``, with
    ``meta`` in place of its whole meta unless that is KEEP, fails to load
    with a CheckpointError that names the copy's path, then ``message``."""
    saved, tensors = nn.load_checkpoint(tiny_run["out"] / ckpt,
                                        lambda meta, tensors: (meta, tensors))
    edit(saved, tensors)
    forged = tmp_path / ckpt
    nn.save_checkpoint(forged, as_parameters(tensors), saved if meta is KEEP else meta)
    runner = tiny_run["runner"]
    load = {"re.ckpt": load_model, "embeddings.vec": load_table,
            "el.ckpt": lambda path: linker.load_model(path, runner.embeddings(),
                                                      runner.cfg.el)}[ckpt]
    with pytest.raises(nn.CheckpointError,
                       match=f"^{re.escape(str(forged))}: .*{re.escape(message)}"):
        load(forged)


def rerun_on_copy(tiny_run, tmp_path, edit):
    """Evaluate with the config text passed through ``edit``, on a copy of
    the built out dir so the shared one stays as built."""
    out = tmp_path / "artifacts"
    shutil.copytree(tiny_run["out"], out)
    cfg_path = write_tiny_config(tiny_run["fixture"], out)
    cfg_path.write_text(edit(cfg_path.read_text()))
    runner = PipelineRunner(load_config(cfg_path))
    runner.evaluate()
    return runner, out


# stages whose inputs are, transitively, outputs of the key stage
DOWNSTREAM = {
    "embeddings": set(STAGES) - {"embeddings"},
    "bootstrap": set(STAGES) - {"embeddings", "bootstrap"},
    "el": {"link", "extract", "enrich", "evaluate"},
    "bags": {"re", "extract", "enrich", "evaluate"},
    "re": {"extract", "enrich", "evaluate"},
}


@pytest.mark.parametrize("stage, section, line", [
    ("embeddings", "[embeddings]", "learning_rate = 0.04"),
    ("bootstrap", "[bootstrap]", "classifier_lr = 0.4"),
    ("el", "[el]", "margin = 0.25"),
    ("bags", "[ds]", "na_ratio = 0.5"),
    ("bags", "[ds]", "train = 0.7\nvalid = 0.2"),
    ("re", "[re]", "margin = 0.2"),
])
def test_config_slice_edit_reruns_only_that_stage_and_downstream(
        tiny_run, tmp_path, stage, section, line):
    def edit(text):
        if section not in text:
            text += f"\n{section}\n"
        return text.replace(f"{section}\n", f"{section}\n{line}\n")

    runner, _ = rerun_on_copy(tiny_run, tmp_path, edit)
    assert set(runner.stage_ran) == set(STAGES)
    assert runner.stage_ran[stage]
    ran = {s for s, flag in runner.stage_ran.items() if flag}
    assert ran <= {stage} | DOWNSTREAM[stage]


# the stages whose config slice holds each section, restated from STAGES
SLICE_STAGES = {"embeddings": {"embeddings"}, "bootstrap": {"bootstrap"},
                "el": {"el", "link"}, "ds": {"bags"}, "re": {"re"}}


def in_range_edit(value):
    # + 2 keeps [re] hidden even; halving keeps a float inside (0, 1)
    return value + 2 if type(value) is int else value / 2 if value else 0.5


def test_every_config_field_edit_changes_exactly_its_stages_keys(tiny_run):
    # the global seed is hashed into every key; the stage seeds derive from it
    base = load_config(tiny_run["cfg_path"])
    runner = PipelineRunner(base)

    def keys(cfg):
        runner.cfg = cfg
        return {name: runner._key(stage) for name, stage in pipeline.STAGES.items()}

    before = keys(base)
    edits = {("pipeline", "seed"): (load_config(tiny_run["cfg_path"], seed=base.seed + 1),
                                    set(STAGES))}
    for section, stages in SLICE_STAGES.items():
        for f in dataclasses.fields(CONFIG_CLASSES[section]):
            if "bounds" in f.metadata:
                old = getattr(base, section)
                new = dataclasses.replace(old, **{f.name: in_range_edit(getattr(old, f.name))})
                edits[(section, f.name)] = (dataclasses.replace(base, **{section: new}), stages)
    assert set(edits) == {k for k in LEGAL if k[0] != "synth"}
    for field, (cfg, stages) in edits.items():
        after = keys(cfg)
        assert {s for s in STAGES if after[s] != before[s]} == stages, field


def test_gold_edit_reruns_only_evaluate(tiny_run, tmp_path):
    gold = tmp_path / "gold_links.tsv"
    rows = (tiny_run["fixture"] / "gold_links.tsv").read_text().splitlines(keepends=True)
    gold.write_text("".join(rows[: len(rows) // 2]))
    runner, out = rerun_on_copy(
        tiny_run, tmp_path,
        lambda text: text.replace(f"{tiny_run['fixture']}/gold_links.tsv", str(gold)))
    assert runner.stage_ran == {s: s == "evaluate" for s in STAGES}
    assert json.loads((out / "metrics.json").read_text()) != tiny_run["report"].to_dict()
    assert runner.evaluate().el["coverage"] != tiny_run["report"].el["coverage"]


def test_code_change_reruns_every_stage(tiny_run, tmp_path, monkeypatch):
    runner, out = rerun_on_copy(tiny_run, tmp_path, lambda text: text)
    assert runner.stage_ran == {s: False for s in STAGES}
    monkeypatch.setattr(pipeline, "code_digest", lambda: "other code")
    runner = PipelineRunner(load_config(out.parent / "artifacts.ini"))
    runner.evaluate()
    assert runner.stage_ran == {s: True for s in STAGES}


def test_every_config_field_a_stage_reads_is_in_its_config_slice(tiny_fixture, tmp_path,
                                                                  monkeypatch):
    # a stage's key hashes its config slice, so a setting its builder or
    # loader reads outside the slice could change without a rebuild
    reads = defaultdict(set)
    running = ["runner"]

    class Recorder:
        """runner.cfg, noting each field read under the stage running."""

        def __init__(self, cfg):
            self.cfg = cfg

        def __getattr__(self, name):
            reads[running[-1]].add(name)
            return getattr(self.cfg, name)

    def under(name, fn):
        def run(*args):
            running.append(name)
            try:
                return fn(*args)
            finally:
                running.pop()
        return run

    for name, stage in pipeline.STAGES.items():
        monkeypatch.setitem(pipeline.STAGES, name, dataclasses.replace(
            stage, build=under(name, stage.build), load=under(name, stage.load)))
    runner = PipelineRunner(load_config(write_tiny_config(tiny_fixture, tmp_path / "out")))
    runner.cfg = Recorder(runner.cfg)
    runner.evaluate()
    assert runner.stage_ran == {s: True for s in STAGES}
    for name, stage in pipeline.STAGES.items():
        under(f"{name} slice", stage.config)(runner.cfg)
        config_slice = reads[f"{name} slice"]
        sources = {f"{s}_path" for s in stage.inputs if s in pipeline.SOURCES}
        assert reads[name] - sources <= config_slice, name
        assert config_slice <= reads[name], name


def test_every_stage_is_configured_by_one_section_or_none():
    cfg = pipeline.PipelineConfig()
    sections = [getattr(cfg, f.name) for f in dataclasses.fields(cfg)
                if dataclasses.is_dataclass(getattr(cfg, f.name))]
    for name, stage in pipeline.STAGES.items():
        config_slice = stage.config(cfg)
        assert config_slice == {} or any(config_slice is s for s in sections), name


def test_each_linking_stage_runs_one_subgraph_pass(tiny_fixture, tmp_path, monkeypatch):
    # one sub-graph pass over the corpus in the embeddings stage, one per
    # bootstrap round and one in the link stage ahead of the context step
    calls = Counter()
    running = ["runner"]
    subgraph = linker.subgraph_link

    def counting(cands, kb):
        calls[running[-1]] += 1
        return subgraph(cands, kb)

    def under(name, build):
        def run(*args):
            running.append(name)
            try:
                return build(*args)
            finally:
                running.pop()
        return run

    monkeypatch.setattr(linker, "subgraph_link", counting)
    for name, stage in pipeline.STAGES.items():
        monkeypatch.setitem(pipeline.STAGES, name,
                            dataclasses.replace(stage, build=under(name, stage.build)))
    runner = PipelineRunner(load_config(write_tiny_config(tiny_fixture, tmp_path / "out")))
    runner.evaluate()
    n = len(runner.corpus())
    rounds = len(runner.bootstrap()[1])
    assert rounds >= 2
    assert calls == {"embeddings": n, "bootstrap": n * rounds, "link": n}


def test_code_digest_is_computed_once_per_process(monkeypatch):
    calls = []
    real = pipeline.hash_tree
    monkeypatch.setattr(pipeline, "hash_tree", lambda *a: calls.append(a) or real(*a))
    pipeline.code_digest.cache_clear()
    first = pipeline.code_digest()
    assert pipeline.code_digest() == first
    assert len(calls) == 1


def test_link_sentence_keeps_each_former_callers_contract(tiny_run):
    runner = PipelineRunner(load_config(tiny_run["cfg_path"]))
    kb, table, model = runner.kb(), runner.embeddings(), runner.el_model()
    recognizer = GazetteerRecognizer(kb)
    corpus = runner.corpus()

    def subgraph_step(sentence):
        """recognize -> candidates -> sub-graph link, as each caller wrote it"""
        cands = [c for c in (generate_candidates(sp, kb, None, 0)
                             for sp in recognizer.recognize(sentence)) if c is not None]
        return cands, subgraph_link(cands, kb)

    def spans(sentence):
        return [(sp.start, sp.end, sp.surface, sp.span_type, sp.linked, sp.method)
                for sp in sentence.spans]

    # data generation: undecided spans dropped, sentences with >= 2 links kept
    want = []
    for sentence in corpus:
        cands, decisions = subgraph_step(sentence)
        linked = [(c.span.start, c.span.end, c.span.surface, kb.entity_type(d.entity),
                   d.entity, "subgraph") for c, d in zip(cands, decisions) if d]
        if len(linked) >= 2:
            want.append((sentence.id, linked))
    got = _extract_once(corpus, kb, None, recognizer, BootstrapConfig(knn_k=0))
    assert [(s.id, spans(s)) for s in got] == want

    # full linking: the context model ranks what the sub-graph step leaves
    # open, with scores equal to encoding the sentence once and scoring its
    # open spans in one pass
    open_spans = 0
    for sentence in corpus:
        cands, decisions = subgraph_step(sentence)
        left = [cand for cand, decision in zip(cands, decisions) if decision is None]
        with no_grad():
            v_c = model._context_vec(sentence)
        scores = iter(model.score_candidates(v_c, [(0, c.span, c.entities) for c in left]))
        want = []
        for cand, decision in zip(cands, decisions):
            if decision is None:
                ranked = sorted(zip(cand.entities, next(scores)), key=lambda p: (-p[1], p[0]))
                want.append((ranked[0][0], "context", ranked[0][1],
                             tuple(e for e, _ in ranked)))
            else:
                want.append((decision.entity, "subgraph", decision.score, ()))
        got = link(sentence, kb, None, model, recognizer, knn_k=0)
        assert [(d.entity, d.method, d.score, d.ranking) for d in got] == want
        open_spans += decisions.count(None)
        if None in decisions:
            with pytest.raises(LinkError):
                link(sentence, kb, None, None, recognizer, knn_k=0)
        else:
            assert link(sentence, kb, None, None, recognizer, knn_k=0) == got
    assert open_spans


def test_final_linked_spans_are_the_link_eval_records(tiny_run):
    # the link stage's two outputs hold the same decisions in the same
    # order, as the build loads them and as a fresh runner reads them back
    fresh = PipelineRunner(load_config(tiny_run["cfg_path"]))
    for runner in (tiny_run["runner"], fresh):
        linked, items = runner.link_corpus()
        spans = [(s.id, sp.start, sp.end, sp.linked, sp.method)
                 for s in linked for sp in s.spans]
        assert spans and spans == [(it.sentence_id, it.start, it.end, it.entity, it.method)
                                   for it in items]
    assert tiny_run["runner"].stage_ran["link"] and not fresh.stage_ran["link"]


def test_reloaded_artifacts_hold_interned_ids(tiny_run):
    # a fresh runner reads every artifact back from disk
    runner = PipelineRunner(load_config(tiny_run["cfg_path"]))
    linked, items = runner.link_corpus()
    accepted, _ = runner.extracted()
    assert items and accepted
    ids = [s.id for s in runner.corpus() + linked]
    ids += [x for it in items for x in (it.sentence_id, it.method, it.entity, *it.ranking)]
    ids += [x for bag in runner.bags()["all"]
            for x in (bag.subject, bag.object, *bag.labels, *bag.sentence_ids)]
    ids += [x for t in accepted
            for x in (t.subject, t.relation, t.object, *t.sentence_ids)]
    assert all(x is sys.intern(x) for x in ids)


def test_linked_corpora_share_the_input_corpus_token_lists(full_run):
    # the runner that built the artifacts, and a fresh one that reads them back
    for runner in (full_run["runner"], PipelineRunner(load_config(full_run["config_path"]))):
        tokens = {s.id: s.tokens for s in runner.corpus()}
        for linked in (runner.bootstrap()[0], runner.link_corpus()[0]):
            assert linked and all(s.tokens is tokens[s.id] for s in linked)


def test_bag_splits_hold_the_all_split_bags(full_run):
    bags = PipelineRunner(load_config(full_run["config_path"])).bags()
    all_bags = {id(bag) for bag in bags["all"]}
    for name, path in zip(pipeline.BAG_SPLITS, pipeline._BAGS):
        assert bags[name] and bags[name] == load_bags(full_run["out"] / path)
        assert all(id(bag) in all_bags for bag in bags[name])


def test_every_stage_loader_reads_each_of_its_outputs(tiny_run, monkeypatch):
    runner, opened = tiny_run["runner"], set()
    real_open = open

    def spy(file, *args, **kwargs):
        opened.add(Path(file).name)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", spy)
    for name, stage in pipeline.STAGES.items():
        opened.clear()
        stage.load(runner, *(tiny_run["out"] / o for o in stage.outputs))
        assert set(stage.outputs) <= opened, name


def test_enrich_loader_checks_the_added_rows_against_the_enriched_kb(tiny_run, tmp_path):
    enriched, added = (tiny_run["out"] / o for o in pipeline.STAGES["enrich"].outputs)
    load = lambda path: pipeline.STAGES["enrich"].load(tiny_run["runner"], enriched, path)
    assert load(added) == tiny_run["report"].counts["enriched_added"]
    extra = tmp_path / added.name
    extra.write_text(added.read_text() + "e1\tr\te2\ts1\n")
    with pytest.raises(PipelineError, match=f"^{re.escape(str(extra))}: "):
        load(extra)


def test_enrich_writes_an_accepted_triple_new_to_the_kb(tiny_run, tmp_path, monkeypatch):
    # the tiny run accepts only triples the KB holds, so extract is made to
    # return one more, between two entities the KB does not connect
    out = tmp_path / "artifacts"
    shutil.copytree(tiny_run["out"], out)
    enriched, added = (out / o for o in pipeline.STAGES["enrich"].outputs)
    enriched.unlink()
    runner = PipelineRunner(load_config(write_tiny_config(tiny_run["fixture"], out)))
    kb, (accepted, rejected) = runner.kb(), runner.extracted()
    relation = accepted[0].relation
    new = next(ExtractedTriple(s, relation, o, 0.9, ("s9", "s10"))
               for s in sorted(kb.entities) for o in sorted(kb.entities)
               if s != o and Triple(s, relation, o) not in kb)
    monkeypatch.setattr(runner, "extracted", lambda: (accepted + [new], rejected))
    assert runner.enriched() == 1 and runner.stage_ran["enrich"]
    assert added.read_text() == f"{new.subject}\t{new.relation}\t{new.object}\ts10,s9\n"
    grown = load_kb(runner.cfg.entities_path, enriched)
    assert set(grown.iter_triples()) == set(kb.iter_triples()) | {new.triple()}


@pytest.mark.parametrize("other, message", [(None, "reflexive triple"),
                                             ("ghost", "unknown entity id 'ghost'")],
                         ids=["reflexive", "unknown-entity"])
def test_enrich_refuses_a_bad_triple_and_leaves_the_runners_kb(tiny_run, tmp_path,
                                                              monkeypatch, other, message):
    out = tmp_path / "artifacts"
    shutil.copytree(tiny_run["out"], out)
    (out / "enriched_triples.tsv").unlink()
    runner = PipelineRunner(load_config(write_tiny_config(tiny_run["fixture"], out)))
    kb, (accepted, rejected) = runner.kb(), runner.extracted()
    before = list(kb.iter_triples())
    subject, relation = accepted[0].subject, accepted[0].relation
    bad = ExtractedTriple(subject, relation, other or subject, 0.9, ("s1",))
    monkeypatch.setattr(runner, "extracted", lambda: (accepted + [bad], rejected))
    with pytest.raises(PipelineError, match=f"^stage enrich: {message}"):
        runner.enriched()
    assert runner.kb() is kb and list(kb.iter_triples()) == before


def test_a_build_loads_the_kb_once_and_leaves_it_as_loaded(tiny_fixture, tmp_path,
                                                           monkeypatch):
    loads = []
    real = pipeline.load_kb
    monkeypatch.setattr(pipeline, "load_kb", lambda *paths: loads.append(paths) or real(*paths))
    runner = PipelineRunner(load_config(write_tiny_config(tiny_fixture, tmp_path / "artifacts")))
    runner.evaluate()
    assert all(runner.stage_ran.values()) and len(loads) == 1
    kb, fresh = runner.kb(), real(*loads[0])
    assert list(kb.iter_triples()) == list(fresh.iter_triples())
    ids = sorted(fresh.entities)
    assert sorted(kb.entities) == ids
    assert all(kb.neighbors(e) == fresh.neighbors(e) for e in ids)
    assert all(kb.relations_between(s, o) == fresh.relations_between(s, o)
               for s in ids for o in ids)


def test_extracted_triples_hold_no_repeat_and_no_reflexive_triple(tiny_run):
    accepted, rejected = tiny_run["runner"].extracted()
    triples = [t.triple() for t in accepted] + [t for t, _ in rejected]
    assert accepted and len(set(triples)) == len(triples)
    assert all(t.subject != t.object for t in triples)


def test_stage_outputs_exist(tiny_run):
    names = ("embeddings.vec", "linked.jsonl", "rounds.json", "el.ckpt",
             "bags_all.jsonl", "bags_train.jsonl", "bags_valid.jsonl",
             "bags_test.jsonl", "re.ckpt", "final_linked.jsonl",
             "link_eval.jsonl", "extracted.tsv", "rejected.tsv",
             "enriched_triples.tsv", "enriched_added.tsv", "metrics.json")
    assert set(names) == set(pipeline.PRODUCER)
    # and nothing else: no temporary file outlives a build
    assert sorted(p.name for p in tiny_run["out"].iterdir()) == sorted(names + ("cache.json",))


# Runs the kbforge command line with os.replace exiting the process, as a
# kill would, at the nth rename onto the named file: just "before" it, just
# "after" it, or "mid"-write, with the temporary cut to its first half.
KILLED_AT_A_RENAME = """\
import os, sys
when, name, nth = sys.argv[1], sys.argv[2], int(sys.argv[3])
replace, seen = os.replace, []
def dying_replace(src, dst):
    if os.path.basename(dst) == name:
        seen.append(dst)
        if len(seen) == nth:
            if when == "mid":
                os.truncate(src, os.path.getsize(src) // 2)
            if when == "after":
                replace(src, dst)
            os._exit(17)
    replace(src, dst)
os.replace = dying_replace
from kbforge.cli import main
sys.exit(main(sys.argv[4:]))
"""

# every output is written once; the manifest is rewritten after every
# stage, and its last write records evaluate
EVERY_WRITE = [(name, 1) for name in sorted(pipeline.PRODUCER)] + [("cache.json", len(STAGES))]


def assert_reruns_after_kills_leave_a_clean_build(tiny_run, tmp_path, when, kills):
    """Kills a tiny build at each (name, nth) rename as KILLED_AT_A_RENAME
    does, then reruns it as a new runner in this process, which the killed
    one is not: the rerun succeeds, and the out dir holds the names and
    bytes of a clean build."""
    clean = {p.name: p.read_bytes() for p in tiny_run["out"].iterdir()}
    env = {**os.environ, "PYTHONPATH": str(Path(pipeline.__file__).parents[1])}
    for name, nth in kills:
        out = tmp_path / f"{when}-{name}"
        cfg = str(write_tiny_config(tiny_run["fixture"], out))
        killed = subprocess.run([sys.executable, "-c", KILLED_AT_A_RENAME, when, name, str(nth),
                                 "run-all", "--config", cfg], env=env, capture_output=True)
        assert killed.returncode == 17, (name, killed.stderr)
        left = [p.name.startswith(f"{name}.") for p in out.glob("*.tmp")]
        assert left == ([] if when == "after" else [True]), name
        assert cli.main(["run-all", "--config", cfg]) == 0, name
        assert {p.name: p.read_bytes() for p in out.iterdir()} == clean, name


def test_a_rerun_after_a_kill_before_a_rename_leaves_what_a_clean_build_does(tiny_run,
                                                                            tmp_path):
    assert_reruns_after_kills_leave_a_clean_build(tiny_run, tmp_path, "before", EVERY_WRITE)


def test_a_rerun_after_a_kill_after_a_rename_or_mid_write_leaves_what_a_clean_build_does(
        tiny_run, tmp_path):
    # after a rename: an output whose stage is unrecorded, at times beside
    # missing siblings, and at the manifest's last write a recorded build
    # that never printed. Mid-write: a torn temporary of the text writer
    # and of the checkpoint writer.
    assert_reruns_after_kills_leave_a_clean_build(tiny_run, tmp_path, "after", EVERY_WRITE)
    assert_reruns_after_kills_leave_a_clean_build(
        tiny_run, tmp_path, "mid", [("final_linked.jsonl", 1), ("el.ckpt", 1)])


# Runs the kbforge command line once its stdin closes, so a runner's start
# is not delayed by its imports.
RUN_ALL = """\
import sys
from kbforge.cli import main
sys.stdin.read()
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("gaps", [(0.0,), (0.05, 0.1), (0.15, 0.0, 0.4)],
                         ids=["2-runners", "3-runners", "4-runners"])
def test_runners_started_together_on_one_out_dir_leave_a_clean_build(tiny_run, tmp_path,
                                                                      gaps):
    # a tiny build takes about 0.2 s, so a runner started ``gaps`` seconds
    # after another builds stages that the other is building or has just
    # recorded, or finds them all recorded; each writes the same bytes
    # atomically, and no runner sweeps a live runner's temporaries
    out = tmp_path / "out"
    cfg = str(write_tiny_config(tiny_run["fixture"], out))
    env = {**os.environ, "PYTHONPATH": str(Path(pipeline.__file__).parents[1])}
    metrics = (tiny_run["out"] / "metrics.json").read_bytes()
    with contextlib.ExitStack() as stack:
        runners = [stack.enter_context(subprocess.Popen(
                       [sys.executable, "-c", RUN_ALL, "run-all", "--config", cfg], env=env,
                       stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE))
                   for _ in range(len(gaps) + 1)]
        for gap, runner in zip((0.0, *gaps), runners):
            time.sleep(gap)
            runner.stdin.close()
        for runner in runners:
            # a runner prints less than a pipe holds, so waiting first cannot block
            assert runner.wait(timeout=120) == 0, runner.stderr.read()
            assert runner.stdout.read() == metrics
    clean = {p.name: p.read_bytes() for p in tiny_run["out"].iterdir()}
    assert {p.name: p.read_bytes() for p in out.iterdir()} == clean


def test_metrics_file_matches_report(tiny_run):
    on_disk = json.loads((tiny_run["out"] / "metrics.json").read_text())
    assert on_disk == tiny_run["report"].to_dict()


# -- command line -------------------------------------------------------------


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_cli_synth(tmp_path, capsys):
    out = tmp_path / "fx"
    rc, stdout, _ = run_cli(capsys, "synth", "--out", str(out), "--seed", "5",
                            "--entities", "12", "--types", "3",
                            "--relations", "2", "--triples-per-relation", "3",
                            "--sentences-per-triple", "1")
    assert rc == 0
    listed = dict(line.split("\t") for line in stdout.splitlines())
    assert set(listed) == {"entities", "triples", "corpus", "gold_links",
                           "gold_triples", "gold_bags"}
    for path in listed.values():
        assert (tmp_path / "fx" / path.split("/")[-1]).exists()


def test_cli_ingest_kb(tiny_run, capsys):
    rc, stdout, _ = run_cli(capsys, "ingest-kb", "--config",
                            str(tiny_run["cfg_path"]))
    assert rc == 0
    stats = dict(line.split("\t") for line in stdout.splitlines())
    kb = load_kb(tiny_run["fixture"] / "entities.tsv",
                 tiny_run["fixture"] / "triples.tsv")
    assert int(stats["entities"]) == len(kb.entities)
    assert int(stats["triples"]) == kb.triple_count


def test_cli_ingest_corpus(tiny_run, capsys):
    rc, stdout, _ = run_cli(capsys, "ingest-corpus", "--config",
                            str(tiny_run["cfg_path"]))
    assert rc == 0
    stats = dict(line.split("\t") for line in stdout.splitlines())
    lines = (tiny_run["fixture"] / "corpus.jsonl").read_text().splitlines()
    assert int(stats["sentences"]) == len(lines)


def test_cli_validate(tiny_run, tmp_path, capsys):
    kb = load_kb(tiny_run["fixture"] / "entities.tsv",
                 tiny_run["fixture"] / "triples.tsv")
    good = next(kb.iter_triples())
    # same pair, nonexistent relation; and the subject slot given the
    # object's type
    bad = tmp_path / "probe.tsv"
    bad.write_text(f"{good.subject}\t{good.relation}\t{good.object}\n"
                   f"{good.subject}\tzzz\t{good.object}\n"
                   f"{good.object}\t{good.relation}\t{good.object}\n")
    rc, stdout, _ = run_cli(capsys, "validate", "--config",
                            str(tiny_run["cfg_path"]), "--triples", str(bad))
    assert rc == 0
    lines = stdout.splitlines()
    assert "accepted\t1" in lines
    assert "rejected\t2" in lines
    reasons = {line.split("\t")[-1] for line in lines
               if line.startswith("reject\t")}
    assert reasons == {"unknown-relation", "subject-type"}


@pytest.mark.parametrize("rows, where", [("e1\tr\te2\ne1\tr\n", ":2:"), (None, "")])
def test_cli_validate_bad_triples_file_is_an_error(tiny_run, tmp_path, capsys,
                                                    rows, where):
    bad = tmp_path / "probe.tsv"
    if rows is not None:
        bad.write_text(rows)
    rc, stdout, stderr = run_cli(capsys, "validate", "--config",
                                 str(tiny_run["cfg_path"]), "--triples", str(bad))
    assert rc == 1
    assert stdout == ""
    assert stderr.startswith("error:") and f"{bad}{where}" in stderr


def test_cli_run_all_emits_metrics_json(tiny_run, capsys):
    # artifacts are warm, so this exercises dispatch + report printing
    rc, stdout, _ = run_cli(capsys, "run-all", "--config",
                            str(tiny_run["cfg_path"]))
    assert rc == 0
    assert stdout == (tiny_run["out"] / "metrics.json").read_text()
    report = json.loads(stdout)
    assert set(report) == {"el", "re", "counts", "rounds", "triple_precision"}
    assert report["counts"]["sentences"] > 0


def test_cli_error_is_not_a_traceback(capsys):
    rc, stdout, stderr = run_cli(capsys, "ingest-kb")
    assert rc == 1
    assert stdout == ""
    assert stderr.startswith("error:")


@pytest.mark.parametrize("ini, message", [
    (b"entities = x\n", "File contains no section headers"),
    (b"[el]\nhidden = many\n", "[el] hidden = 'many' is not an integer"),
    (b"[ds]\ntrain = lots\n", "[ds] train = 'lots' is not a number"),
    (b"[pipeline]\n# caf\xe9\n", "can't decode byte 0xe9"),
    (b"[re]\nmargin = 2.0\n", "[re] margin must lie in (0,1)"),
    (b"[re]\nhidden = 7\n", "[re] hidden must be even"),
    (b"[embeddings]\ndim = 0\n", "[embeddings] dim must be at least 1"),
    (b"[embeddings]\nnegatives = 0\n", "[embeddings] negatives must be at least 1"),
    (b"[re]\ntoken_dim = 40\n", "unknown config key 'token_dim'"),
    # values that used to load and then broke or emptied a stage
    (b"[ds]\nmax_bag_size = 0\n", "[ds] max_bag_size must be at least 1"),
    (b"[ds]\nna_ratio = -1\n", "[ds] na_ratio must be a finite number >= 0"),
    (b"[ds]\nna_ratio = nan\n", "[ds] na_ratio must be a finite number >= 0"),
    (b"[ds]\ntrain = 1.2\nvalid = -0.1\n", "[ds] train must lie in [0,1]"),
    (b"[ds]\ntrain = 0.95\n", "[ds] train + valid must be at most 1, not 0.95 + 0.1"),
    (b"[bootstrap]\nclassifier_feature_dim = 0\n",
     "[bootstrap] classifier_feature_dim must be at least 1"),
    (b"[bootstrap]\nclassifier_negatives = -1\n",
     "[bootstrap] classifier_negatives must be at least 0"),
    (b"[bootstrap]\nclassifier_epochs = -1\n", "[bootstrap] classifier_epochs must be at least 0"),
    (b"[bootstrap]\nmax_rounds = -2\n", "[bootstrap] max_rounds must be at least 0"),
    (b"[bootstrap]\nknn_k = -1\n", "[bootstrap] knn_k must be at least 0"),
    (b"[el]\nepochs = -1\n", "[el] epochs must be at least 0"),
    (b"[el]\nknn_k = -3\n", "[el] knn_k must be at least 0"),
    (b"[re]\nepochs = -1\n", "[re] epochs must be at least 0"),
    (b"[embeddings]\nepochs = -1\n", "[embeddings] epochs must be at least 0"),
    (b"[embeddings]\nlearning_rate = 0\n",
     "[embeddings] learning_rate must be a finite number > 0"),
    (b"[embeddings]\nlearning_rate = -0.05\n",
     "[embeddings] learning_rate must be a finite number > 0"),
    (b"[embeddings]\nlearning_rate = inf\n",
     "[embeddings] learning_rate must be a finite number > 0"),
    (b"[embeddings]\nlearning_rate = nan\n",
     "[embeddings] learning_rate must be a finite number > 0"),
    (b"[re]\nlearning_rate = -1\n", "[re] learning_rate must be a finite number > 0"),
    (b"[re]\nlearning_rate = nan\n", "[re] learning_rate must be a finite number > 0"),
    (b"[el]\nlearning_rate = 0\n", "[el] learning_rate must be a finite number > 0"),
    (b"[bootstrap]\nclassifier_lr = -1\n",
     "[bootstrap] classifier_lr must be a finite number > 0"),
    (b"[bootstrap]\nclassifier_lr = nan\n",
     "[bootstrap] classifier_lr must be a finite number > 0"),
    (b"[el]\nhidden = 0\n", "[el] hidden must be at least 1"),
    (b"[el]\nmlp_hidden = 0\n", "[el] mlp_hidden must be at least 1"),
    (b"[re]\nconv_width = 0\n", "[re] conv_width must be at least 1"),
    (b"[re]\nmax_pos = -1\n", "[re] max_pos must be at least 0"),
    (b"[el]\nmargin = nan\n", "[el] margin must be a finite number > 0"),
    (b"[el]\nmargin = -5\n", "[el] margin must be a finite number > 0"),
    (b"[re]\nthreshold_init = nan\n", "[re] threshold_init must be a finite number"),
    (b"[re]\ndown_weight = inf\n", "[re] down_weight must be a finite number > 0"),
    (b"[pipeline]\nseed = -3\n", "[pipeline] seed must be at least 0"),
    (b"[pipeline]\nthreads = banana\n", "[pipeline] threads = 'banana' is not an integer"),
    # a misspelt section used to be skipped, leaving its stage at the defaults
    (b"[embedding]\ndim = 8\n", "unknown config section [embedding]"),
    (b"[relations]\nepochs = 1\n", "unknown config section [relations]"),
    # configparser used to copy [DEFAULT]'s keys into every other section
    (b"[DEFAULT]\nepochs = 1\n[re]\n", "unknown config section [DEFAULT]"),
], ids=["no-section", "el-hidden", "split-train", "not-utf8", "re-margin", "re-hidden",
        "embeddings-dim", "embeddings-negatives", "re-property", "ds-max-bag-size",
        "ds-na-ratio", "ds-na-ratio-nan", "split-negative", "split-sum",
        "bootstrap-feature-dim", "bootstrap-classifier-negatives",
        "bootstrap-classifier-epochs", "bootstrap-max-rounds", "bootstrap-knn-k",
        "el-epochs", "el-knn-k", "re-epochs", "embeddings-epochs", "embeddings-lr-zero",
        "embeddings-lr-negative", "embeddings-lr-inf", "embeddings-lr-nan",
        "re-lr-negative", "re-lr-nan", "el-lr-zero", "bootstrap-classifier-lr-negative",
        "bootstrap-classifier-lr-nan", "el-hidden-zero", "el-mlp-hidden-zero",
        "re-conv-width-zero", "re-max-pos-negative", "el-margin-nan", "el-margin-negative",
        "re-threshold-init-nan", "re-down-weight-inf", "pipeline-seed-negative",
        "pipeline-threads",
        "section-embedding", "section-relations", "section-default"])
def test_cli_bad_config_is_an_error_not_a_traceback(tmp_path, capsys, ini, message):
    path = tmp_path / "c.ini"
    path.write_bytes(ini)
    rc, stdout, stderr = run_cli(capsys, "ingest-kb", "--config", str(path))
    assert rc == 1
    assert stdout == ""
    assert stderr.startswith("error:") and message in stderr
    assert stderr.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (("synth", "--entities", "0"), "synth entities must lie in [1,609]"),
    (("synth", "--relations", "40"), "synth relations must lie in [1,12]"),
    (("synth", "--types", "1"), "synth types must be at least 2"),
    (("synth", "--seed", "-1"), "[pipeline] seed must be at least 0"),
    (("synth", "--entities", "6", "--types", "2", "--relations", "1",
      "--triples-per-relation", "10"),
     "synth triples_per_relation must be at most 9, the subject-object pairs of the "
     "emptiest relation"),
    (("synth", "--entities", "6", "--types", "2", "--relations", "4",
      "--triples-per-relation", "6"),
     "synth distractor_rate 0.2 asks for 14 distractor pairs, but only 6 unordered entity "
     "pairs hold no triple"),
    (("ingest-kb", "--seed", "-3"), "[pipeline] seed must be at least 0"),
], ids=["synth-entities", "synth-relations", "synth-types", "synth-seed", "synth-triples",
        "synth-distractors", "ingest-kb-seed"])
def test_cli_bad_option_is_an_error_not_a_traceback(tmp_path, capsys, argv, message):
    rc, stdout, stderr = run_cli(capsys, *argv, "--out", str(tmp_path / "fx"))
    assert rc == 1
    assert stdout == ""
    assert stderr == f"error: {message}\n"
    assert not (tmp_path / "fx").exists()


@pytest.mark.parametrize("bad_line", ["{bad", "3"])
def test_cli_corrupt_corpus_line_is_an_error_naming_file_and_line(tiny_run, tmp_path, capsys,
                                                                  bad_line):
    corpus = tmp_path / "corpus.jsonl"
    first = (tiny_run["fixture"] / "corpus.jsonl").read_text().splitlines()[0]
    corpus.write_text(f"{first}\n{bad_line}\n")
    cfg_path = tiny_run["cfg_path"].read_text().replace(
        f"{tiny_run['fixture']}/corpus.jsonl", str(corpus))
    (tmp_path / "c.ini").write_text(cfg_path)
    rc, stdout, stderr = run_cli(capsys, "ingest-corpus", "--config", str(tmp_path / "c.ini"))
    assert rc == 1
    assert stdout == ""
    assert stderr.startswith("error:") and f"{corpus}:2:" in stderr
    assert stderr.count("\n") == 1


def test_corrupt_cache_manifest_is_a_pipeline_error(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "cache.json").write_text('{"embeddings": {"key": "k"}\n')
    with pytest.raises(PipelineError, match=r"cache\.json:2: invalid JSON"):
        PipelineRunner(load_config(None, out_dir=str(out)))


def test_diverged_embeddings_fail_their_stage_and_are_not_recorded(tiny_fixture, tmp_path,
                                                                 monkeypatch):
    train = pipeline.train_joint_embeddings
    bad = []

    def diverged(*args):
        table = train(*args)
        table.vectors[len(table.symbols) // 2] = np.nan
        bad.append(table.symbols[len(table.symbols) // 2])
        return table

    monkeypatch.setattr(pipeline, "train_joint_embeddings", diverged)
    out = tmp_path / "artifacts"
    runner = PipelineRunner(load_config(write_tiny_config(tiny_fixture, out)))
    with pytest.raises(PipelineError, match="stage embeddings: non-finite vector") as exc:
        runner.evaluate()
    assert f"for symbol {bad[0]!r};" in str(exc.value)
    assert not (out / "embeddings.vec").exists()
    manifest = out / "cache.json"
    assert "embeddings" not in (json.loads(manifest.read_text()) if manifest.exists() else {})


def test_a_built_output_its_loader_rejects_fails_the_stage_unrecorded(tiny_fixture, tmp_path,
                                                                     monkeypatch):
    stage = pipeline.STAGES["bags"]

    def torn(r, *paths):
        stage.build(r, *paths)
        lines = paths[0].read_text().splitlines(keepends=True)
        rec = json.loads(lines[0])
        rec["labels"] = "x"
        paths[0].write_text("".join([json.dumps(rec) + "\n"] + lines[1:]))

    monkeypatch.setitem(pipeline.STAGES, "bags", dataclasses.replace(stage, build=torn))
    out = tmp_path / "artifacts"
    cfg_path = write_tiny_config(tiny_fixture, out)
    with pytest.raises(PipelineError, match=r"^stage bags: .*bags_all\.jsonl:1: malformed"):
        PipelineRunner(load_config(cfg_path)).evaluate()
    manifest = json.loads((out / "cache.json").read_text())
    assert "bags" not in manifest and "bootstrap" in manifest

    monkeypatch.setitem(pipeline.STAGES, "bags", stage)
    runner = PipelineRunner(load_config(cfg_path))
    runner.evaluate()
    assert runner.stage_ran["bags"] and not runner.stage_ran["bootstrap"]


def corrupt(path: Path, how: str) -> None:
    """Truncate ``path`` to half, flip one bit of its middle byte, or edit
    one record so that it still loads: a checkpoint's first weight, or the
    first digit of a text file's last line that has one. A checkpoint is
    told by its magic bytes, whatever its name. An empty file
    gets a torn row instead: it has no byte to cut, flip or edit."""
    data = path.read_bytes()
    if not data:
        path.write_bytes(b"e1\tr")
    elif how == "truncated":
        path.write_bytes(data[:len(data) // 2])
    elif how == "flipped":
        i = len(data) // 2
        path.write_bytes(data[:i] + bytes([data[i] ^ 1]) + data[i + 1:])
    elif data.startswith(MAGIC):
        meta, tensors = nn.load_checkpoint(path, lambda meta, tensors: (meta, tensors))
        name = min(tensors)
        tensors[name] = tensors[name].copy()
        tensors[name].flat[0] += 1
        nn.save_checkpoint(path, as_parameters(tensors), meta)
    else:
        lines = path.read_text().splitlines(keepends=True)
        i = max(i for i, line in enumerate(lines) if re.search(r"\d", line))
        lines[i] = re.sub(r"\d", lambda m: str((int(m[0]) + 1) % 10), lines[i], count=1)
        path.write_text("".join(lines))


@pytest.mark.parametrize("how", ["truncated", "flipped", "edited"])
@pytest.mark.parametrize("artifact", list(pipeline.PRODUCER))
def test_a_changed_output_reruns_the_stage_that_owns_it(tiny_run, tmp_path, artifact, how):
    out = tmp_path / "artifacts"
    shutil.copytree(tiny_run["out"], out)
    original = (out / artifact).read_bytes()
    corrupt(out / artifact, how)
    assert (out / artifact).read_bytes() != original
    runner = PipelineRunner(load_config(write_tiny_config(tiny_run["fixture"], out)))
    assert runner.evaluate().to_dict() == tiny_run["report"].to_dict()
    # the rebuilt output is the one the cache recorded, so nothing downstream reruns
    assert runner.stage_ran == {s: s == pipeline.PRODUCER[artifact] for s in STAGES}
    assert (out / artifact).read_bytes() == original


def test_corrupt_artifact_load_is_a_pipeline_error_naming_the_stage(tiny_run, tmp_path):
    out = tmp_path / "artifacts"
    shutil.copytree(tiny_run["out"], out)
    with open(out / "link_eval.jsonl", "a", encoding="utf-8") as fh:
        fh.write('{"sentence": "s1"}\n')
    # the cache would rebuild an output whose sha256 changed: vouch for
    # this one, so that the loader reads it
    manifest = json.loads((out / "cache.json").read_text())
    manifest["link"]["sha256"]["link_eval.jsonl"] = files.hash_file(out / "link_eval.jsonl")
    (out / "cache.json").write_text(json.dumps(manifest))
    cfg = load_config(tiny_run["cfg_path"], out_dir=str(out))
    with pytest.raises(PipelineError, match=r"stage link: .*link_eval\.jsonl:\d+: malformed"):
        PipelineRunner(cfg).link_corpus()


# -- external benchmark loader ------------------------------------------------


def test_benchmark_missing_is_reported(tmp_path):
    with pytest.raises(BenchmarkError, match="benchmark not installed"):
        load_benchmark(tmp_path / "nowhere")


def test_benchmark_round_trip(tmp_path):
    d = tmp_path / "bench"
    d.mkdir()
    (d / "entities.tsv").write_text("e1\tperson\tTony Stark\tTony Stark|Stark\n"
                                    "e2\tperson\tPepper\tPepper\n")
    (d / "triples.tsv").write_text("e1\tknows\te2\n")
    rec = {"sentence": {"id": "b1", "tokens": ["Tony", "knows", "Pepper"]},
           "subject": "e1", "relation": "knows", "object": "e2"}
    (d / "human_labeled.jsonl").write_text(json.dumps(rec) + "\n")
    kb, sentences, gold = load_benchmark(d)
    assert len(kb.entities) == 2
    assert [s.id for s in sentences] == ["b1"]
    assert gold[0][0] == "b1" and gold[0][1].relation == "knows"


def test_benchmark_malformed_line_has_position(tmp_path):
    d = tmp_path / "bench"
    d.mkdir()
    (d / "entities.tsv").write_text("e1\tperson\tTony\tTony\n")
    (d / "triples.tsv").write_text("")
    (d / "human_labeled.jsonl").write_text('{"subject": "e1"}\n')
    with pytest.raises(BenchmarkError, match=":1: malformed"):
        load_benchmark(d)
