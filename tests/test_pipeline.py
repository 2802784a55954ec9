import json
import sys

import pytest

from kbforge import cli
from kbforge.kb import load_kb
from kbforge.pipeline import (
    BenchmarkError,
    PipelineError,
    PipelineRunner,
    load_benchmark,
    load_config,
)
from kbforge.synth import SynthConfig, generate_fixture

STAGES = ("embeddings", "bootstrap", "el", "bags", "re", "link", "extract",
          "enrich")

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
count_multiplicity = {count_multiplicity}
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


def write_tiny_config(tiny_fixture, out_dir, re_epochs=1, name=None,
                      count_multiplicity="no"):
    path = out_dir.parent / f"{name or out_dir.name}.ini"
    path.write_text(TINY_TEMPLATE.format(fix=tiny_fixture, out=out_dir,
                                         re_epochs=re_epochs,
                                         count_multiplicity=count_multiplicity))
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
                 "[bootstrap]\ncount_multiplicity = yes\n"
                 "[el]\nmargin = 0.25\n"
                 "[ds]\nna_ratio = 2.0\n"
                 "[re]\nepochs = 4\n"
                 "[split]\ntrain = 0.7\nvalid = 0.2\ntest = 0.1\n")
    cfg = load_config(p)
    assert cfg.entities_path == "e.tsv" and cfg.out_dir == "art"
    assert cfg.seed == 9 and cfg.threads == 2
    assert cfg.embeddings.dim == 32
    assert cfg.bootstrap.count_multiplicity is True
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
    cfg = load_config(p, seed=3, out_dir="elsewhere", threads=4)
    assert cfg.seed == 3 and cfg.out_dir == "elsewhere" and cfg.threads == 4
    assert cfg.embeddings.seed == 4


def test_unknown_config_key_rejected(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[el]\nhiden = 3\n")
    with pytest.raises(PipelineError, match="unknown config key 'hiden'"):
        load_config(p)


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


def test_count_multiplicity_edit_reruns_link(tiny_run):
    # the link stage's sub-graph step reads bootstrap.count_multiplicity
    cfg_path = write_tiny_config(tiny_run["fixture"], tiny_run["out"],
                                 count_multiplicity="yes", name="multiplicity")
    runner = PipelineRunner(load_config(cfg_path))
    runner.evaluate()
    assert not runner.stage_ran["embeddings"]
    assert runner.stage_ran["link"]
    original = PipelineRunner(load_config(tiny_run["cfg_path"]))
    original.evaluate()
    assert original.stage_ran["link"]


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
