"""The text formats in kbforge.files: the guard that keeps file access in that
module, the readers' FILE:LINE errors, and loader fuzzing (every loader fed
arbitrary lines raises only its own typed error)."""

import ast
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kbforge import files, pipeline
from kbforge.corpus import CorpusError, ingest_corpus
from kbforge.datagen import DataGenError, load_bags
from kbforge.embeddings import EmbeddingError, load_table
from kbforge.kb import KBLoadError, load_kb
from kbforge.pipeline import BenchmarkError, PipelineError, PipelineRunner, load_config
from kbforge.synth import load_gold_links, load_gold_triples

SRC = Path(__file__).resolve().parents[1] / "src" / "kbforge"
# the two modules that own a file format
OWNERS = ("files.py", "nn/checkpoint.py")


def file_access(source: str) -> list[int]:
    """Lines that open, read or write a file: ``open``, ``Path`` text and
    bytes I/O, and ``json.load``/``json.dump``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if (isinstance(f, ast.Name) and f.id == "open"
                or isinstance(f, ast.Attribute)
                and f.attr in ("open", "read_text", "write_text", "read_bytes", "write_bytes")
                or isinstance(f, ast.Attribute) and f.attr in ("load", "dump")
                and isinstance(f.value, ast.Name) and f.value.id == "json"):
            lines.append(node.lineno)
    return lines


def test_guard_sees_every_kind_of_file_access():
    source = ("import json\nopen(p)\np.read_text()\np.write_text(s)\n"
              "json.load(fh)\njson.dump(x, fh)\np.open()\njson.dumps(x)\n")
    assert file_access(source) == [2, 3, 4, 5, 6, 7]


def test_only_the_format_modules_touch_files():
    offenders = [f"{path.relative_to(SRC).as_posix()}:{line}"
                 for path in sorted(SRC.rglob("*.py"))
                 if path.relative_to(SRC).as_posix() not in OWNERS
                 for line in file_access(path.read_text())]
    assert offenders == []


def kbforge_imports(source: str) -> set[str]:
    """The kbforge modules a top-level kbforge module imports, named
    relative to the package (``kb``, ``nn.layers``), whether imported
    relatively or by the absolute name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("kbforge", node.module))) if node.level else node.module
            # from . import nn and from kbforge import files name modules
            names |= {f"{module}.{a.name}" for a in node.names} if module == "kbforge" else {module}
    return {name.removeprefix("kbforge.") for name in names if name.split(".")[0] == "kbforge"}


def test_import_guard_sees_every_kind_of_kbforge_import():
    source = ("import json\nimport kbforge.kb\nfrom . import nn\nfrom .files import x\n"
              "from kbforge import linker\nfrom kbforge.nn.layers import y\n"
              "from numpy import z\n")
    assert kbforge_imports(source) == {"kb", "nn", "files", "linker", "nn.layers"}


def test_corpus_imports_no_kbforge_module_but_files():
    # sentences know nothing of the KB: alias data lives in kb alone
    assert kbforge_imports((SRC / "corpus.py").read_text()) == {"files"}


# -- readers and writers ------------------------------------------------------


def test_writers_round_trip_through_readers(tmp_path):
    rows = [("a", "1", "x y"), ("b", "2", "")]
    files.write_rows(tmp_path / "r.tsv", rows)
    assert files.read_rows(tmp_path / "r.tsv", 3, KBLoadError) == rows
    records = [{"b": [1, 2], "a": "é"}, {}]
    files.write_jsonl(tmp_path / "r.jsonl", records)
    assert (tmp_path / "r.jsonl").read_text() == '{"a": "\\u00e9", "b": [1, 2]}\n{}\n'
    assert files.read_jsonl(tmp_path / "r.jsonl", lambda rec: rec, KBLoadError) == records
    files.write_json(tmp_path / "d.json", {"z": 1, "a": {"b": None}})
    assert (tmp_path / "d.json").read_text() == (
        '{\n  "a": {\n    "b": null\n  },\n  "z": 1\n}\n')
    assert files.read_json(tmp_path / "d.json", KBLoadError) == {"z": 1, "a": {"b": None}}


@pytest.mark.parametrize("content, read, where", [
    (b"a\tb\n\n  \na\tb\tc\n", lambda p: files.read_rows(p, 2, KBLoadError), ":4: expected 2"),
    (b"a\tb\n\xff\tb\n", lambda p: files.read_rows(p, 2, KBLoadError), ":2: not UTF-8"),
    (b"{}\n3\n", lambda p: files.read_jsonl(p, dict, KBLoadError), ":2: not a JSON object"),
    (b"{}\n\n{bad\n", lambda p: files.read_jsonl(p, dict, KBLoadError), ":3: invalid JSON"),
    (b'{"a": 1}\n{"b": 1}\n', lambda p: files.read_jsonl(p, lambda r: r["a"], KBLoadError),
     ":2: malformed record (KeyError('a'))"),
    (b'{\n  "a": 1,\n}\n', lambda p: files.read_json(p, KBLoadError), ":3: invalid JSON"),
    (b'{\n  "a": "\xff"\n}\n', lambda p: files.read_json(p, KBLoadError), ":2: not UTF-8"),
    (b"[1]\n", lambda p: files.read_json(p, KBLoadError), ":1: not a JSON object"),
], ids=["row-fields", "row-utf8", "jsonl-not-object", "jsonl-invalid", "jsonl-convert",
        "json-invalid", "json-utf8", "json-not-object"])
def test_reader_errors_name_file_and_line(tmp_path, content, read, where):
    path = tmp_path / "f"
    path.write_bytes(content)
    with pytest.raises(KBLoadError) as err:
        read(path)
    assert str(err.value).startswith(f"{path}{where}")


# each leaked an untyped error before the loaders moved onto kbforge.files
@pytest.mark.parametrize("content, load, error, where", [
    ("x 2\n", load_table, EmbeddingError, ":1:"),
    ("1 2\nw 0.5 abc\n", load_table, EmbeddingError, ":2:"),
    ("s1\tx\t3\te1\n", load_gold_links, KBLoadError, ":1:"),
    ("a\tr\tb\thigh\ts1\n", lambda p: pipeline._load_extract(None, p, p), PipelineError, ":1:"),
    ('{"el": {}, "extra": 1}\n', lambda p: pipeline.STAGES["evaluate"].load(None, p),
     PipelineError, ":1:"),
    ("2 2\nw 1 2\nw 3 4\n", load_table, EmbeddingError, ": duplicate symbols"),
    ("1 2\nw nan 2\n", load_table, EmbeddingError, ": non-finite"),
], ids=["table-header", "table-value", "gold-offset", "extract-confidence", "metrics-key",
        "table-duplicate", "table-nan"])
def test_loader_errors_are_typed(tmp_path, content, load, error, where):
    path = tmp_path / "f"
    path.write_text(content)
    with pytest.raises(error) as err:
        load(path)
    assert str(err.value).startswith(f"{path}{where}")


# -- loader fuzzing -----------------------------------------------------------

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | st.sampled_from(["", "s1", "e1", "e2", "r", "x y", "0"]) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "start", "key"]) | st.text(max_size=3), inner,
                      max_size=4),
    max_leaves=10)
FIELD = st.sampled_from(["", "e1", "e2", "s1", "r", "T", "1", "0.5", "-1", "x y", "a|b",
                         "nan"]) | st.text(max_size=4)
ARBITRARY = (st.text(max_size=12).map(str.encode) | st.binary(max_size=6)
             | JSON.map(lambda v: json.dumps(v).encode())
             | st.lists(FIELD, min_size=1, max_size=6).map(lambda f: "\t".join(f).encode()))

SPAN = {"start": 0, "end": 0, "type": "T", "entity": "e1", "method": "subgraph"}
SENTENCE = {"id": "s1", "tokens": ["One", "met"], "pos": ["N", "V"], "heads": [-1, 0],
            "spans": [SPAN]}


def mutate(line, sep: str):
    """A strategy for ``line`` (a JSON object, or a row of ``sep``-split
    fields) with one field replaced by arbitrary data or dropped."""
    if isinstance(line, tuple):
        def row(i, value):
            fields = list(line)
            fields[i:i + 1] = [] if value is None else [value]
            return sep.join(fields).encode()
        return st.builds(row, st.integers(0, len(line) - 1), st.none() | FIELD)

    keys = sorted(set(line) | (set(SPAN) if "spans" in line else set()))
    return st.builds(lambda key, value: with_value(line, key, value), st.sampled_from(keys),
                     st.none() | JSON | st.sampled_from([[], {}, [SPAN], ["e1", 2], SENTENCE]))


def with_value(line: dict, key: str, value) -> bytes:
    """``line`` with ``key`` (of its first span, for a span key) set to
    ``value``, or dropped for None, as JSON."""
    rec = json.loads(json.dumps(line))
    inner = rec["spans"][0] if key in SPAN and "spans" in rec else rec
    inner.pop(key) if value is None else inner.__setitem__(key, value)
    return json.dumps(rec).encode()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "empty").write_bytes(b"")
    (d / "entities.tsv").write_text("e1\tT\tOne\tone\ne2\tT\tTwo\n")
    (d / "triples.tsv").write_text("e1\tr\te2\n")
    return d


def load_benchmark_labels(path):
    # the KB files sit next to the fuzzed labels file
    path.with_name("human_labeled.jsonl").write_bytes(path.read_bytes())
    return pipeline.load_benchmark(path.parent)


def load_cache(path):
    out = path.parent / "out"
    out.mkdir(exist_ok=True)
    (out / "cache.json").write_bytes(path.read_bytes())
    return PipelineRunner(load_config(None, out_dir=str(out)))


# name -> (its typed error, the loader, valid lines that fuzzing mutates)
LOADERS = {
    "corpus": (CorpusError, ingest_corpus, [SENTENCE]),
    "bags": (DataGenError, load_bags,
             [{"subject": "e1", "object": "e2", "labels": ["r"], "sentences": ["s1"]}]),
    "read_rows": (KBLoadError, lambda p: files.read_rows(p, 3, KBLoadError), [("a", "b", "c")]),
    "kb-entities": (KBLoadError, lambda p: load_kb(p, p.with_name("empty")),
                    [("e1", "T", "One", "one|One"), ("e2", "", "Two")]),
    "kb-triples": (KBLoadError, lambda p: load_kb(p.with_name("entities.tsv"), p),
                   [("e1", "r", "e2")]),
    "embedding-table": (EmbeddingError, load_table, [("1", "2"), ("w", "0.5", "-1")]),
    "gold-links": (KBLoadError, load_gold_links, [("s1", "0", "1", "e1")]),
    "gold-triples": (KBLoadError, load_gold_triples, [("e1", "r", "e2")]),
    "link-eval": (PipelineError, lambda p: pipeline._load_link(None, p.with_name("empty"), p),
                  [{"sentence": "s1", "start": 0, "end": 0, "method": "context",
                    "entity": "e1", "ranking": ["e1", "e2"]}]),
    "extracted": (PipelineError, lambda p: pipeline._load_extract(None, p, p.with_name("empty")),
                  [("e1", "r", "e2", "0.5", "s1,s2")]),
    "rejected": (PipelineError, lambda p: pipeline._load_extract(None, p.with_name("empty"), p),
                 [("e1", "r", "e2", "subject-type")]),
    "rounds": (PipelineError, lambda p: pipeline._load_bootstrap(None, p.with_name("empty"), p),
               [{"rounds": [{"round": 1, "extracted": 2, "recognizer": "gazetteer"}]}]),
    "metrics": (PipelineError, lambda p: pipeline.STAGES["evaluate"].load(None, p),
                [{"el": {}, "re": {}, "counts": {"sentences": 1}, "rounds": [],
                  "triple_precision": None}]),
    "cache": (PipelineError, load_cache,
              [{"embeddings": {"key": "k", "outputs": ["embeddings.vec"]}}]),
    "benchmark": (BenchmarkError, load_benchmark_labels,
                  [{"sentence": SENTENCE, "subject": "e1", "relation": "r", "object": "e2"}]),
}


@pytest.mark.parametrize("name", LOADERS)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_loader_fed_arbitrary_lines_raises_only_its_typed_error(scratch, name, data):
    error, load, valid = LOADERS[name]
    sep = " " if name == "embedding-table" else "\t"
    line = ARBITRARY | st.sampled_from(valid).flatmap(lambda v: mutate(v, sep))
    lines = data.draw(st.lists(line | st.sampled_from(valid).map(
        lambda v: sep.join(v).encode() if isinstance(v, tuple) else json.dumps(v).encode()),
        max_size=5))
    path = scratch / f"{name}.txt"
    path.write_bytes(b"\n".join(lines))
    try:
        load(path)
    except error:
        pass


# a JSON string where a list belongs used to load character by character,
# and a string, float or bool offset loaded as given
NOT_A_LIST = st.text(min_size=1, max_size=4) | st.floats(allow_nan=False) | st.integers()
NOT_AN_INT = (st.text(max_size=3) | st.floats(allow_nan=False) | st.booleans()
              | st.lists(st.integers(0, 1), max_size=1))


@pytest.mark.parametrize("name, key, values", [
    ("corpus", "tokens", NOT_A_LIST), ("corpus", "pos", NOT_A_LIST),
    ("corpus", "heads", NOT_A_LIST),
    ("corpus", "heads", st.lists(NOT_AN_INT, min_size=2, max_size=2)),
    ("corpus", "start", NOT_AN_INT), ("corpus", "end", NOT_AN_INT),
    ("bags", "labels", NOT_A_LIST), ("bags", "sentences", NOT_A_LIST),
    ("link-eval", "ranking", NOT_A_LIST), ("link-eval", "start", NOT_AN_INT),
    ("link-eval", "end", NOT_AN_INT),
])
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_loader_rejects_a_wrong_json_type_naming_file_and_line(scratch, name, key, values,
                                                              data):
    error, load, valid = LOADERS[name]
    path = scratch / f"{name}-{key}.txt"
    path.write_bytes(b"\n" + with_value(valid[0], key, data.draw(values)))
    with pytest.raises(error) as err:
        load(path)
    assert str(err.value).startswith(f"{path}:2:")


def test_hash_tree_covers_names_and_bytes_but_not_where_the_tree_lives(tmp_path):
    def tree(root, contents):
        for rel, text in contents.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(text)
        return files.hash_tree(root, "*.py")

    base = {"a.py": "x = 1\n", "nn/b.py": "y = 2\n", "notes.txt": "ignored"}
    digest = tree(tmp_path / "one", base)
    assert tree(tmp_path / "deeper" / "two", base) == digest
    assert tree(tmp_path / "txt", {**base, "notes.txt": "other"}) == digest
    for i, changed in enumerate([{**base, "a.py": "x = 2\n"},
                                 {**base, "nn/c.py": base["nn/b.py"], "nn/b.py": ""},
                                 {**base, "c.py": ""}]):
        assert tree(tmp_path / f"edit{i}", changed) != digest
