import dataclasses
import json
import re
import shutil
import sys
from pathlib import Path

import pytest
from conftest import make_config

from kbforge import cli, nn, pipeline
from kbforge.datagen import BootstrapConfig, _extract_once
from kbforge.kb import load_kb
from kbforge.linker import (
    GazetteerRecognizer,
    LinkError,
    generate_candidates,
    link,
    subgraph_link,
)
from kbforge.nn import no_grad
from kbforge.relations import load_model
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
knn_k = 0
classifier_epochs = 1

[el]
hidden = 4
mlp_hidden = 8
epochs = 1
knn_k = 0

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


def write_tiny_config(tiny_fixture, out_dir, re_epochs=1, name=None):
    path = out_dir.parent / f"{name or out_dir.name}.ini"
    path.write_text(TINY_TEMPLATE.format(fix=tiny_fixture, out=out_dir,
                                         re_epochs=re_epochs))
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
                 "[ds]\nna_ratio = 2.0\n"
                 "[re]\nepochs = 4\n"
                 "[split]\ntrain = 0.7\nvalid = 0.2\ntest = 0.1\n")
    cfg = load_config(p)
    assert cfg.entities_path == "e.tsv" and cfg.out_dir == "art"
    assert cfg.seed == 9
    assert cfg.embeddings.dim == 32
    assert cfg.bootstrap.max_rounds == 2
    assert cfg.el.margin == 0.25
    assert cfg.ds.na_ratio == 2.0
    assert cfg.re.epochs == 4
    assert cfg.split == (0.7, 0.2, 0.1)
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


@pytest.mark.parametrize("section,key,value", RETIRED_KEYS)
def test_retired_config_key_fails_loudly(tmp_path, section, key, value):
    p = tmp_path / "c.ini"
    p.write_text(f"[pipeline]\nseed = 0\n[{section}]\n{key} = {value}\n")
    expected = (r"\[pipeline\] seed" if key == "seed"
                else f"unknown config key {key!r}")
    with pytest.raises(PipelineError, match=expected):
        load_config(p)


@pytest.mark.parametrize("section,key", [("split", "trian"), ("split", "seed"),
                                         ("pipeline", "sed"), ("pipeline", "epochs")])
def test_unknown_split_or_pipeline_key_fails_loudly(tmp_path, section, key):
    # a misspelt split ratio used to load as its default and fail only in bags
    p = tmp_path / "c.ini"
    p.write_text(f"[{section}]\n{key} = 0.5\n")
    with pytest.raises(PipelineError, match=rf"unknown config key '{key}' in \[{section}\]"):
        load_config(p)


def test_pipeline_threads_key_is_still_accepted(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[pipeline]\nseed = 2\nthreads = 1\n[split]\ntrain = 0.6\nvalid = 0.2\n"
                 "test = 0.2\n")
    cfg = load_config(p)
    assert cfg.seed == 2 and cfg.split == (0.6, 0.2, 0.2)


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
    assert report.to_json() == tiny_run["report"].to_json()


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
    assert runner.evaluate().to_json() == tiny_run["report"].to_json()
    assert {s: False for s in STAGES} == runner.stage_ran


def test_warm_evaluate_hashes_each_input_file_once(tiny_run, monkeypatch):
    hashed = []
    real = pipeline._hash_file
    monkeypatch.setattr(pipeline, "_hash_file",
                        lambda path: hashed.append(str(path)) or real(path))
    PipelineRunner(load_config(tiny_run["cfg_path"])).evaluate()
    inputs = {i for stage in pipeline.STAGES.values() for i in stage.inputs}
    assert len(hashed) == len(set(hashed)) == len(inputs)


def test_missing_configured_input_names_stage_and_input(tiny_run, tmp_path):
    cfg = load_config(tiny_run["cfg_path"], out_dir=str(tmp_path / "out"))
    cfg.corpus_path = str(tmp_path / "absent.jsonl")
    with pytest.raises(PipelineError, match="stage embeddings: input corpus not found"):
        PipelineRunner(cfg).evaluate()


@pytest.mark.parametrize("ckpt, edit, key", [
    # an re.ckpt written before REConfig lost freeze_word_vectors
    ("re.ckpt", lambda meta: meta["config"].update(freeze_word_vectors=False),
     "freeze_word_vectors"),
    ("re.ckpt", lambda meta: meta.pop("relations"), "relations"),
    ("el.ckpt", lambda meta: meta.pop("trained"), "trained"),
], ids=["re-unknown-config-key", "re-no-relations", "el-no-trained"])
def test_checkpoint_meta_that_does_not_fit_is_a_checkpoint_error(tiny_run, tmp_path,
                                                                 ckpt, edit, key):
    meta, tensors = nn.load_checkpoint(tiny_run["out"] / ckpt)
    edit(meta)
    forged = tmp_path / ckpt
    nn.save_checkpoint(forged, tensors, meta)
    load = (load_model if ckpt == "re.ckpt"
            else lambda path: pipeline._load_el(tiny_run["runner"], path))
    with pytest.raises(nn.CheckpointError, match=f"{re.escape(str(forged))}.*'{key}'"):
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
    ("bags", "[split]", "train = 0.7\nvalid = 0.2\ntest = 0.1"),
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


def test_gold_edit_reruns_only_evaluate(tiny_run, tmp_path):
    gold = tmp_path / "gold_links.tsv"
    rows = (tiny_run["fixture"] / "gold_links.tsv").read_text().splitlines(keepends=True)
    gold.write_text("".join(rows[: len(rows) // 2]))
    runner, out = rerun_on_copy(
        tiny_run, tmp_path,
        lambda text: text.replace(f"{tiny_run['fixture']}/gold_links.tsv", str(gold)))
    assert runner.stage_ran == {s: s == "evaluate" for s in STAGES}
    assert (out / "metrics.json").read_text() != tiny_run["report"].to_json()
    assert runner.evaluate().el["coverage"] != tiny_run["report"].el["coverage"]


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
    # open, with scores equal to encoding the sentence for each span
    open_spans = 0
    for sentence in corpus:
        cands, decisions = subgraph_step(sentence)
        want = []
        for cand, decision in zip(cands, decisions):
            if decision is None:
                with no_grad():
                    v_c = model._context_vec(sentence)
                scores = model.score_candidates(v_c, cand.span, cand.entities)
                ranked = sorted(zip(cand.entities, scores), key=lambda p: (-p[1], p[0]))
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


def test_stage_outputs_exist(tiny_run):
    for name in ("embeddings.vec", "linked.jsonl", "rounds.json", "el.ckpt",
                 "bags_all.jsonl", "bags_train.jsonl", "bags_valid.jsonl",
                 "bags_test.jsonl", "re.ckpt", "final_linked.jsonl",
                 "link_eval.jsonl", "extracted.tsv", "rejected.tsv",
                 "enriched_triples.tsv", "enriched_added.tsv", "metrics.json",
                 "cache.json"):
        assert (tiny_run["out"] / name).exists(), name


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
    report = json.loads(stdout)
    assert set(report) == {"el", "re", "counts", "rounds", "triple_precision"}
    assert report["counts"]["sentences"] > 0


def test_cli_error_is_not_a_traceback(capsys):
    rc, stdout, stderr = run_cli(capsys, "ingest-kb")
    assert rc == 1
    assert stdout == ""
    assert stderr.startswith("error:")


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
