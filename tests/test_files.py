"""The text formats in kbforge.files: the guard that keeps file access in that
module, the readers' FILE:LINE errors, loader fuzzing (every loader fed
arbitrary lines raises only its own typed error), and the block readers
against a line-by-line reference (same values, or the same typed error with
the same message)."""

import ast
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from conftest import tree_heads
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kbforge import files, pipeline
from kbforge.corpus import CorpusError, Sentence, Span, Token, ingest_corpus, validate_tree
from kbforge.datagen import DataGenError, load_bags, load_generation_report
from kbforge.kb import KBLoadError, load_kb
from kbforge.pipeline import BenchmarkError, PipelineError, PipelineRunner, load_config
from kbforge.relations import RelationError, load_extraction
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


JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats() | st.sampled_from([-0.0, 1e-300, 1e300]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20)
JSON_DOC = st.dictionaries(st.text(), JSON_VALUE, max_size=5)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(docs=st.lists(JSON_DOC, max_size=4), shared=st.booleans())
def test_writers_write_what_json_dumps_encodes(tmp_path, docs, shared):
    # write_jsonl's encoder skips the cycle check, since a record is a tree;
    # one that holds a subtree in several places encodes it in each
    if shared:
        docs = [{**doc, "again": [doc, doc]} for doc in docs]
    files.write_jsonl(tmp_path / "w.jsonl", docs)
    assert (tmp_path / "w.jsonl").read_bytes() == "".join(
        json.dumps(doc, sort_keys=True) + "\n" for doc in docs).encode()
    for doc in docs:
        files.write_json(tmp_path / "w.json", doc)
        assert (tmp_path / "w.json").read_bytes() == (
            json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def test_writers_reject_a_value_json_cannot_encode(tmp_path):
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        files.write_jsonl(tmp_path / "w.jsonl", [{"a": 1}, {"b": {1}}])
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        files.write_json(tmp_path / "w.json", {"a": [{1}]})


def test_stale_temporaries_of_dead_processes_go_and_live_ones_stay(tmp_path):
    dead = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                          capture_output=True, text=True, check=True).stdout.strip()
    names = [f"a.json.{dead}.tmp", f"b.tsv.{dead}.tmp",            # dead writers
             f"a.json.{os.getpid()}.tmp",                           # a live one
             f"c.json.{dead}.tmp", "a.json", "a.json.x.tmp", "a.tmp"]  # not named
    for name in names:
        (tmp_path / name).write_text("x")
    files.remove_stale_temporaries(tmp_path, {"a.json", "b.tsv"})
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names[2:])


# writer, a strategy for one item it writes, and one for an item it cannot
# encode: write_json writes its items as one document
UNENCODABLE = {
    "rows": (files.write_rows, st.lists(st.text(), min_size=1, max_size=3).map(tuple),
             st.sampled_from([("a", None), ("\ud800",)])),
    "jsonl": (files.write_jsonl, JSON_DOC, st.just({"b": {1}})),
    "json": (lambda path, items: files.write_json(path, {"items": items}), JSON_VALUE,
             st.just({1})),
}


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(UNENCODABLE)), data=st.data(),
       old=st.none() | st.binary(max_size=32))
def test_a_write_that_raises_leaves_the_target_as_it_was(kind, data, old):
    write, item, bad = UNENCODABLE[kind]
    items = data.draw(st.lists(item, max_size=5), "items")
    items.insert(data.draw(st.integers(0, len(items)), "k"), data.draw(bad, "bad item"))
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "target"
        if old is not None:
            target.write_bytes(old)
        with pytest.raises((TypeError, ValueError)):
            write(target, items)
        # the old bytes, or still no file; and no temporary file beside it
        assert [p.name for p in Path(tmp).iterdir()] == ([] if old is None else ["target"])
        assert old is None or target.read_bytes() == old


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


# each leaked an untyped error before the loaders moved onto kbforge.files, or
# (a non-finite confidence, a token with a space) loaded as it was
@pytest.mark.parametrize("content, load, error, where", [
    ("s1\tx\t3\te1\n", load_gold_links, KBLoadError, ":1:"),
    ("a\tr\tb\thigh\ts1\n", lambda p: load_extraction(p, p), RelationError, ":1:"),
    ("a\tr\tb\tnan\ts1\n", lambda p: load_extraction(p, p), RelationError,
     ":1: confidence 'nan' is not finite"),
    ("a\tr\tb\t0.5\ts1\na\tr\tc\t-inf\ts1\n", lambda p: load_extraction(p, p), RelationError,
     ":2: confidence '-inf' is not finite"),
    ('{"el": {}, "extra": 1}\n', lambda p: pipeline.STAGES["evaluate"].load(None, p),
     PipelineError, ":1:"),
    ('{"id": "s1", "tokens": ["New York", "is", ""]}\n', ingest_corpus, CorpusError,
     ":1: sentence 's1': token 0 'New York' is empty or contains whitespace"),
], ids=["gold-offset", "extract-confidence", "extract-confidence-nan",
        "extract-confidence-inf", "metrics-key", "corpus-token-whitespace"])
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


def mutate(line):
    """A strategy for ``line`` (a JSON object, or a row of tab-separated
    fields) with one field replaced by arbitrary data or dropped."""
    if isinstance(line, tuple):
        def row(i, value):
            fields = list(line)
            fields[i:i + 1] = [] if value is None else [value]
            return "\t".join(fields).encode()
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


# a runner stand-in for a loader that loads onto the input corpus
NO_CORPUS = SimpleNamespace(corpus=list)

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
    "gold-links": (KBLoadError, load_gold_links, [("s1", "0", "1", "e1")]),
    "gold-triples": (KBLoadError, load_gold_triples, [("e1", "r", "e2")]),
    "link-eval": (PipelineError,
                  lambda p: pipeline.STAGES["link"].load(NO_CORPUS, p.with_name("empty"), p),
                  [{"sentence": "s1", "start": 0, "end": 0, "method": "context",
                    "entity": "e1", "ranking": ["e1", "e2"]}]),
    "extracted": (RelationError, lambda p: load_extraction(p, p.with_name("empty")),
                  [("e1", "r", "e2", "0.5", "s1,s2")]),
    "rejected": (RelationError, lambda p: load_extraction(p.with_name("empty"), p),
                 [("e1", "r", "e2", "subject-type")]),
    "rounds": (DataGenError, load_generation_report,
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
    line = ARBITRARY | st.sampled_from(valid).flatmap(mutate)
    lines = data.draw(st.lists(line | st.sampled_from(valid).map(
        lambda v: "\t".join(v).encode() if isinstance(v, tuple) else json.dumps(v).encode()),
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


# -- differential: the block readers against the line-by-line reference -----


def reference_read(path, error, parse, convert) -> list:
    """The line-by-line reader that the block reader replaced:
    ``convert(*parse(line, lineno))`` of every non-blank line."""
    out = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.rstrip(b"\r\n").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise error(f"{path}:{lineno}: not UTF-8 ({exc.reason})") from None
            if line and not line.isspace():
                args = parse(line, lineno)
                try:
                    out.append(convert(*args))
                except (KeyError, TypeError, ValueError, error) as exc:
                    detail = exc if isinstance(exc, error) else f"malformed record ({exc!r})"
                    raise error(f"{path}:{lineno}: {detail}") from exc
    return out


def reference_jsonl(path, convert, error) -> list:
    def parse(line, lineno):
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise error(f"{path}:{lineno + exc.lineno - 1}: invalid JSON ({exc.msg})") from None
        except RecursionError:
            raise error(f"{path}:{lineno}: invalid JSON (nested too deeply)") from None
        if not isinstance(doc, dict):
            raise error(f"{path}:{lineno}: not a JSON object")
        return (doc,)

    return reference_read(path, error, parse, convert)


def reference_rows(path, columns, error, convert) -> list:
    allowed = (columns,) if isinstance(columns, int) else columns

    def split(line, lineno):
        fields = line.split("\t")
        if len(fields) not in allowed:
            raise error(f"{path}:{lineno}: expected {' or '.join(map(str, allowed))} "
                        f"fields, found {len(fields)}")
        return fields

    return reference_read(path, error, split, convert)


def reference_sentence(rec: dict, cache: dict) -> Sentence:
    """sentence_from_record as it was before it checked spans inline:
    build the sentence, then check its tree and every pair of spans
    neighbouring in sorted order."""
    if not isinstance(rec, dict):
        raise CorpusError("sentence record is not a JSON object")
    sid = rec.get("id")
    if not sid:
        raise CorpusError("sentence record without an id")
    if not isinstance(sid, str):
        raise CorpusError(f"sentence id {sid!r} is not a string")
    words = rec.get("tokens")
    if not words:
        raise CorpusError(f"sentence {sid!r}: no tokens")
    pos, heads, raw_spans = rec.get("pos"), rec.get("heads"), rec.get("spans")
    try:
        words = files.json_list(words)
        pos = files.json_list([] if pos is None else pos) or ["UNK"] * len(words)
        if heads is None:
            heads = [-1] + list(range(len(words) - 1))
        heads = files.json_ints(heads)
        raw_spans = files.json_list([] if raw_spans is None else raw_spans)
    except TypeError as exc:
        raise CorpusError(f"sentence {sid!r}: tokens, pos, heads or spans: {exc}") from None
    if len(pos) != len(words) or len(heads) != len(words):
        raise CorpusError(f"sentence {sid!r}: pos/heads length mismatch")
    # a list or object anywhere fails before any token is checked; after
    # that, tokens are checked in order: strings, then one word each
    if any(isinstance(x, (list, dict)) for x in words + pos):
        raise CorpusError(f"sentence {sid!r}: tokens and POS tags must be strings")
    for i, (word, tag) in enumerate(zip(words, pos)):
        if not (isinstance(word, str) and isinstance(tag, str)):
            raise CorpusError(f"sentence {sid!r}: tokens and POS tags must be strings")
        if word.split() != [word]:
            raise CorpusError(f"sentence {sid!r}: token {i} {word!r} "
                              "is empty or contains whitespace")
    tokens = [cache.setdefault(key, Token(*key))
              for key in zip(words, pos, heads)]
    sent = Sentence(sid, tokens)
    for raw_span in raw_spans:
        try:
            start, end = files.json_int(raw_span["start"]), files.json_int(raw_span["end"])
        except TypeError as exc:
            raise CorpusError(f"sentence {sid!r}: span offsets: {exc}") from None
        if not (0 <= start <= end < len(words)):
            raise CorpusError(f"sentence {sid!r}: span [{start},{end}] out of range")
        labels = [raw_span.get(k) for k in ("type", "entity", "method")]
        if not all(x is None or isinstance(x, str) or not x for x in labels):
            raise CorpusError(f"sentence {sid!r}: span labels must be strings")
        sent.spans.append(Span(start, end, sent.surface(start, end), *labels))
    validate_tree(sid, heads)
    ordered = sorted(sent.spans, key=lambda sp: (sp.start, sp.end))
    for prev, sp in zip(ordered, ordered[1:]):
        if sp.start <= prev.end:
            raise CorpusError(f"sentence {sid!r}: overlapping spans")
    return sent


def reference_ingest(path) -> list:
    seen: set = set()
    cache: dict = {}

    def sentence(rec):
        sent = reference_sentence(rec, cache)
        if sent.id in seen:
            raise CorpusError(f"duplicate sentence id {sent.id!r}")
        seen.add(sent.id)
        return sent

    return reference_jsonl(path, sentence, CorpusError)


def outcome(read, path):
    """What ``read(path)`` returns, or the type and message it raises."""
    try:
        return "ok", read(path)
    except Exception as exc:  # noqa: BLE001 - the outcome is compared, not handled
        return type(exc), str(exc)


DEEP = b'{"a": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"
WEIRD = st.sampled_from([
    b"", b"  ", b"\t", b"\x0b", b"\x0c", b"\x1c", "\u2028".encode(), "\u00a0".encode(),
    b"3", b"[1]", b'"s"', b"null", b"{}", b'{"a": 1} ', b' {"a": 1}', b'{} {}', b"{}x",
    b"{}\x0c", b"{}\x00", b"\xef\xbb\xbf{}", b"{bad", b'{"a": }', DEEP,
    b"\xff", b"\xe2\x82", b"\xc3(", b"a\xe2\x82\xacb", b"\xed\xa0\x80",
])
ENDING = st.sampled_from([b"\n", b"\r\n", b"\r\r\n", b"\r\n\n"])


def with_garbage(valid):
    """A line: ``valid``, one of WEIRD, or ``valid`` with WEIRD bytes put in
    at some position."""
    spliced = st.tuples(valid, WEIRD, st.integers(0, 200)).map(
        lambda t: t[0][:t[2]] + t[1] + t[0][t[2]:])
    return valid | WEIRD | spliced


def draw_file(data, line) -> bytes:
    lines = data.draw(st.lists(st.tuples(line, ENDING), max_size=8))
    body = b"".join(text + end for text, end in lines)
    # the last line may lack its line end
    return body[:-1] if body.endswith(b"\n") and data.draw(st.booleans()) else body


def same_outcome(data, path, content: bytes, new, reference) -> None:
    """Write ``content`` and compare the two readers on it, with the block
    size of the new one drawn small, so that blocks end at many places."""
    path.write_bytes(content)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(files, "_BLOCK", data.draw(st.integers(1, 64), label="block"))
        got = outcome(new, path)
    assert got == outcome(reference, path)


RECORD = st.dictionaries(st.sampled_from(["k", "a", "id"]),
                         st.integers(-2, 2) | st.text(max_size=3) | st.none(),
                         max_size=3).map(lambda d: json.dumps(d).encode())
CONVERTS = {"identity": lambda rec: rec, "key": lambda rec: rec["k"],
            "typed": lambda rec: files.json_int(rec.get("a", 0))}
differential = settings(max_examples=300, deadline=None,
                        suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("convert", CONVERTS)
@differential
@given(data=st.data())
def test_read_jsonl_matches_the_line_by_line_reader(scratch, convert, data):
    conv = CONVERTS[convert]
    same_outcome(data, scratch / "diff.jsonl", draw_file(data, with_garbage(RECORD)),
                 lambda p: files.read_jsonl(p, conv, KBLoadError),
                 lambda p: reference_jsonl(p, conv, KBLoadError))


ROW = st.lists(st.sampled_from(["a", "1", "-2", "x y", "", "é"]), min_size=1,
               max_size=4).map(lambda f: "\t".join(f).encode())


@pytest.mark.parametrize("columns", [2, (2, 3)], ids=["2", "columns2"])
@differential
@given(data=st.data())
def test_read_rows_matches_the_line_by_line_reader(scratch, columns, data):
    conv = data.draw(st.sampled_from([lambda *f: f, lambda a, *rest: (int(a), *rest)]))
    same_outcome(data, scratch / "diff.tsv", draw_file(data, with_garbage(ROW)),
                 lambda p: files.read_rows(p, columns, KBLoadError, conv),
                 lambda p: reference_rows(p, columns, KBLoadError, conv))


@st.composite
def sentence_lines(draw) -> bytes:
    """A corpus record with at most one kind of field broken. Heads form a
    tree in any order. Spans come as pairs of sorted token positions, so
    they may touch or overlap, and they come in any order."""
    broken = draw(st.sampled_from([None, None, "id", "tokens", "pos", "heads", "spans",
                                   "labels"]))
    n = draw(st.integers(1, 5))
    rec = {"id": draw(st.sampled_from([f"s{i}" for i in range(9)]) if broken != "id"
                      else st.sampled_from(["", 7, None]))}
    rec["tokens"] = draw(st.lists(st.sampled_from(["Tony", "met", "x"]), min_size=n,
                                  max_size=n) if broken != "tokens"
                         else st.sampled_from([[], ["a", 3], [["a"]], "ab"]))
    if broken == "pos":
        rec["pos"] = draw(st.sampled_from([["NN", None][:n], "NN", ["NN"] * (n + 1)]))
    elif draw(st.booleans()):
        rec["pos"] = draw(st.sampled_from([[], None]) | st.lists(
            st.sampled_from(["NN", "VB"]), min_size=n, max_size=n))
    if broken == "heads":
        rec["heads"] = draw(st.lists(st.integers(-2, n), max_size=n + 1))
    elif draw(st.booleans()):
        rec["heads"] = draw(tree_heads(n))
    points = sorted(draw(st.lists(st.integers(0 if broken != "spans" else -1,
                                              n - 1 if broken != "spans" else n),
                                  max_size=6)))
    spans = [{"start": a, "end": b} for a, b in zip(points[::2], points[1::2])]
    label = st.sampled_from([1, ["x"]]) if broken == "labels" else st.sampled_from(
        [None, "T", "e1", "", 0])
    for span in spans:
        span.update(draw(st.fixed_dictionaries({}, optional={
            "type": label, "entity": label, "method": label})))
    if spans or draw(st.booleans()):
        rec["spans"] = draw(st.permutations(spans) if broken != "spans"
                            else st.permutations(spans) | st.sampled_from([[3], [{"end": 0}],
                                                                           "x"]))
    return json.dumps(rec).encode()


@differential
@given(data=st.data())
def test_ingest_corpus_matches_the_line_by_line_reader(scratch, data):
    same_outcome(data, scratch / "diff-corpus.jsonl",
                 draw_file(data, with_garbage(sentence_lines())), ingest_corpus,
                 reference_ingest)


@pytest.mark.parametrize("size", [0, 1, 65_536, 200_000])
def test_file_and_tree_hashes_equal_hashlib_over_the_whole_bytes(tmp_path, size):
    # sizes around and across the read chunk's 64 KiB
    data = bytes(range(256)) * (size // 256) + bytes(range(size % 256))
    (tmp_path / "tree").mkdir()
    (tmp_path / "tree" / "f.py").write_bytes(data)
    assert files.hash_file(tmp_path / "tree" / "f.py") == hashlib.sha256(data).hexdigest()
    assert files.hash_tree(tmp_path / "tree", "*.py") == hashlib.sha256(
        f"f.py\0{size}\0".encode() + data).hexdigest()


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
