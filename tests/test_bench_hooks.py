"""The traced benchmark wraps kbforge functions and methods by name
(bench/layers.py). Installing its wrappers here makes a renamed or deleted
name fail the test suite, not only a traced benchmark run."""

import sys
from pathlib import Path

import numpy as np

from kbforge import embeddings, linker, nn, relations

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_bench_wrappers_install_and_restore():
    tracer = Tracer(flag=nn.grad_enabled)
    try:
        layers.install(tracer)
        patched = list(tracer._undo)
        assert patched
        assert all(vars(owner)[attr] is not original for owner, attr, original in patched)
    finally:
        tracer.restore()
    assert all(vars(owner)[attr] is original for owner, attr, original in patched)


def test_every_checkpoint_load_opens_one_checkpoint_load_span(tmp_path):
    # nn.checkpoint_load_ms times nn.load_checkpoint by name, whatever loader calls it
    symbols = ["Stark", "built", *map(embeddings.entity_symbol, ("e1", "e2"))]
    table = embeddings.EmbeddingTable(symbols, np.ones((len(symbols), 4), dtype=np.float32))
    el_cfg = linker.ELConfig(hidden=4, mlp_hidden=8)
    re_cfg = relations.REConfig(word_dim=3, pos_dim=2, type_dim=2, tag_dim=2, hidden=4,
                                conv_width=3, max_pos=5)
    embeddings.save_table(table, tmp_path / "embeddings.vec")
    linker.save_model(linker.ContextLinkerModel(table, el_cfg), tmp_path / "el.ckpt")
    relations.save_model(relations.REModel(re_cfg, ["knows"], ["Stark"], ["person"], ["N"]),
                         tmp_path / "re.ckpt")
    tracer = Tracer(flag=nn.grad_enabled)
    try:
        layers.install(tracer)
        for name, load in [("embeddings.vec", embeddings.load_table),
                           ("el.ckpt", lambda path: linker.load_model(path, table, el_cfg)),
                           ("re.ckpt", relations.load_model)]:
            before = len(tracer.spans)
            load(tmp_path / name)
            names = [span.name for span in tracer.spans[before:]]
            assert names.count("nn.checkpoint_load") == 1, (name, names)
    finally:
        tracer.restore()
