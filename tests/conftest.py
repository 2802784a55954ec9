"""Shared fixtures.

The expensive end-to-end run (synthetic corpus, all pipeline stages) happens
once per session; quality-bar tests and artifact tests all read from it.
"""

import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import strategies as st

from kbforge.pipeline import PipelineRunner, load_config
from kbforge.synth import SynthConfig, generate_fixture

FIXTURE_SHAPE = SynthConfig(entities=200, types=5, relations=10,
                           triples_per_relation=42, sentences_per_triple=3,
                           distractor_rate=0.2, holdout_fraction=0.1, seed=7)

# Mirrors the config documented in the README; kept as a file so the INI
# parser is on the tested path.
CONFIG_TEMPLATE = """\
[paths]
entities = {fix}/entities.tsv
triples = {fix}/triples.tsv
corpus = {fix}/corpus.jsonl
gold_links = {fix}/gold_links.tsv
gold_triples = {fix}/gold_triples.tsv
out_dir = {out}

[pipeline]
seed = 0
threads = 1

[embeddings]
dim = 64
epochs = 6

[bootstrap]
knn_k = 0

[el]
hidden = 24
mlp_hidden = 64
epochs = 5
margin = 0.3
knn_k = 0

[ds]
na_ratio = 1.5

[re]
down_weight = 1.0
epochs = 6
"""


@pytest.fixture(scope="session")
def fixture_dir(tmp_path_factory) -> Path:
    d = tmp_path_factory.mktemp("fixture")
    generate_fixture(FIXTURE_SHAPE, d)
    return d


def make_config(fixture_dir: Path, out_dir: Path) -> Path:
    cfg_path = out_dir.parent / f"{out_dir.name}.ini"
    cfg_path.write_text(CONFIG_TEMPLATE.format(fix=fixture_dir, out=out_dir))
    return cfg_path


@pytest.fixture(scope="session")
def full_run(fixture_dir, tmp_path_factory):
    """One complete pipeline execution; returns runner, report and timing."""
    out = tmp_path_factory.mktemp("run") / "artifacts"
    cfg_path = make_config(fixture_dir, out)
    cfg = load_config(cfg_path)
    runner = PipelineRunner(cfg)
    started = time.monotonic()
    report = runner.evaluate()
    elapsed = time.monotonic() - started
    return {"runner": runner, "report": report, "elapsed": elapsed,
            "config_path": cfg_path, "fixture_dir": fixture_dir, "out": out}


@st.composite
def tree_heads(draw, n: int) -> list[int]:
    """Heads of a dependency tree over ``n`` tokens: the tokens in a random
    order, the first the root and each other one headed by one before it."""
    order = draw(st.permutations(range(n)))
    heads = [0] * n
    for k, t in enumerate(order):
        heads[t] = -1 if k == 0 else order[draw(st.integers(0, k - 1))]
    return heads


def traced_peak(run) -> int:
    """tracemalloc peak of ``run()`` over what was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
