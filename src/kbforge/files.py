"""One reader and one writer for each text format of kbforge's files: TSV
rows, JSONL records and JSON documents. Row and record readers read whole
lines in bounded blocks and skip blank lines. Every reader raises the
caller's error type naming ``FILE:LINE`` for non-UTF-8 bytes, invalid JSON,
a value that is not a JSON object, a wrong field count, or a record
``convert`` rejects with KeyError, TypeError, ValueError or that error
type. Every writer replaces its target whole (see ``replacing``)."""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path


# Bytes that a reader reads at once, whole lines to decode or a chunk to
# hash: bounded, so no reader holds a whole large file.
_BLOCK = 1 << 16
# the whitespace JSON allows after a value
_JSON_SPACE = " \t\n\r"
_decode = json.JSONDecoder().raw_decode
# what json.dumps(doc, sort_keys=True) and json.dumps(doc, sort_keys=True,
# indent=2) encode with, made once: json.dumps makes an encoder per call.
# Lines skip the cycle check, which changes no byte: every record is a tree.
_encode_line = json.JSONEncoder(sort_keys=True, check_circular=False).encode
encode_document = json.JSONEncoder(sort_keys=True, indent=2).encode


def _lines(path, error):
    """(line number, line without its line end) of every non-blank line.
    A block of lines is decoded at once; the first line that is not UTF-8
    raises after the lines before it are yielded."""
    lineno = 0
    with open(path, "rb") as fh:
        while lines := fh.readlines(_BLOCK):
            block = b"".join(lines)
            try:
                text, bad = block.decode("utf-8"), None
            except UnicodeDecodeError as exc:
                bad, reason = block.count(b"\n", 0, exc.start), exc.reason
                text = b"".join(lines[:bad]).decode("utf-8")
            for i, line in enumerate(text.split("\n"), lineno + 1):
                if line and not line.isspace():
                    yield i, line.rstrip("\r")
            if bad is not None:
                # the line alone gives the reason a line-by-line read reports
                try:
                    lines[bad].rstrip(b"\r\n").decode("utf-8")
                except UnicodeDecodeError as exc:
                    reason = exc.reason
                raise error(f"{path}:{lineno + bad + 1}: not UTF-8 ({reason})")
            lineno += len(lines)


def _read(path, error, parse, convert) -> list:
    """``convert(*parse(line, lineno))`` of every non-blank line."""
    out = []
    for lineno, line in _lines(path, error):
        args = parse(line, lineno)
        try:
            out.append(convert(*args))
        except (KeyError, TypeError, ValueError, error) as exc:
            raise _rejected(exc, error, path, lineno) from exc
    return out


def _rejected(exc, error, path, lineno):
    """The ``error`` for a record that ``convert`` rejected with ``exc``."""
    detail = exc if isinstance(exc, error) else f"malformed record ({exc!r})"
    return error(f"{path}:{lineno}: {detail}")


def _parse(text, error, path, lineno: int = 1) -> dict:
    """The JSON object ``text`` holds; ``lineno`` is the line it starts on."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{path}:{lineno + exc.lineno - 1}: invalid JSON ({exc.msg})") from None
    except UnicodeDecodeError as exc:
        lineno += exc.object.count(b"\n", 0, exc.start)
        raise error(f"{path}:{lineno}: not UTF-8 ({exc.reason})") from None
    except RecursionError:
        raise error(f"{path}:{lineno}: invalid JSON (nested too deeply)") from None
    if not isinstance(doc, dict):
        raise error(f"{path}:{lineno}: not a JSON object")
    return doc


def json_list(value) -> list:
    """``value`` if it is a JSON array, else TypeError: a string in its
    place would iterate one character at a time."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list, found {value!r}")
    return value


def json_int(value) -> int:
    """``value`` if it is a JSON integer, else TypeError (for a bool, a
    float or a string too)."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, found {value!r}")
    return value


def json_str(value) -> str:
    """``value`` if it is a JSON string, else TypeError."""
    if type(value) is not str:
        raise TypeError(f"expected a string, found {value!r}")
    return value


def json_bool(value) -> bool:
    """``value`` if it is a JSON boolean, else TypeError ("false" is truthy)."""
    if type(value) is not bool:
        raise TypeError(f"expected a boolean, found {value!r}")
    return value


def json_ints(value) -> list:
    """``value`` if it is a JSON array of integers, else TypeError; one
    check over the array, for arrays as long as a sentence."""
    if not set(map(type, json_list(value))) <= {int}:
        raise TypeError(f"expected a list of integers, found {value!r}")
    return value


def read_rows(path, columns, error, convert=lambda *fields: fields) -> list:
    """``convert(*fields)`` of every row. ``columns`` is the number of fields
    a row must have, or a tuple of the allowed numbers."""
    allowed = (columns,) if isinstance(columns, int) else columns

    def split(line: str, lineno: int) -> list[str]:
        fields = line.split("\t")
        if len(fields) not in allowed:
            raise error(f"{path}:{lineno}: expected {' or '.join(map(str, allowed))} "
                        f"fields, found {len(fields)}")
        return fields

    return _read(path, error, split, convert)


def read_jsonl(path, convert, error) -> list:
    """``convert(record)`` of every line's JSON object."""

    def record(line: str, lineno: int) -> tuple[dict]:
        try:
            doc, end = _decode(line)
        except (ValueError, RecursionError):
            doc = end = None
        if type(doc) is not dict or end < len(line) and line[end:].strip(_JSON_SPACE):
            # leading whitespace, or an error: _parse takes the first and names the second
            doc = _parse(line, error, path, lineno)
        return (doc,)

    return _read(path, error, record, convert)


def read_json(path, error, convert=lambda doc: doc):
    """``convert(document)`` of a file that holds one JSON object."""
    with open(path, "rb") as fh:
        doc = _parse(fh.read(), error, path)
    try:
        return convert(doc)
    except (KeyError, TypeError, ValueError, error) as exc:
        raise _rejected(exc, error, path, 1) from exc


@contextmanager
def replacing(path, mode: str = "w"):
    """A temporary file beside ``path`` that replaces it when the block ends.
    If the block raises, the file goes and ``path`` keeps what it held, or
    stays missing. A process killed before the rename leaves the temporary
    behind (see remove_stale_temporaries). Nothing is fsynced: a power
    loss may still lose it."""
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, mode, encoding=None if "b" in mode else "utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def remove_stale_temporaries(directory, names) -> None:
    """Removes the temporaries that ``replacing`` left in ``directory`` for
    the files ``names`` in processes that no longer run, as a kill between
    a write and its rename does. A running writer's temporary may yet be
    renamed, and stays."""
    for entry in os.listdir(directory):
        parts = entry.rsplit(".", 2)  # name, pid, "tmp"
        if len(parts) == 3 and parts[0] in names and parts[1].isdigit() and parts[2] == "tmp":
            try:
                os.kill(int(parts[1]), 0)
            except ProcessLookupError:
                os.unlink(os.path.join(directory, entry))
            except PermissionError:  # it runs, as another user
                pass


def _write(path, lines) -> None:
    with replacing(path) as fh:
        fh.writelines(lines)


def write_rows(path, rows) -> None:
    """One tab-separated line per row of string fields."""
    _write(path, ("\t".join(fields) + "\n" for fields in rows))


def write_jsonl(path, records) -> None:
    _write(path, (_encode_line(rec) + "\n" for rec in records))


def write_json(path, doc) -> None:
    _write(path, [encode_document(doc) + "\n"])


def _hash_into(h, path):
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(_BLOCK), b""):
            h.update(chunk)
    return h


def hash_file(path) -> str:
    """The sha256 hex digest of a file's bytes."""
    return _hash_into(hashlib.sha256(), path).hexdigest()


def hash_tree(root, pattern: str) -> str:
    """The sha256 hex digest of the files under ``root`` that match
    ``pattern``, in the sorted order of their paths relative to ``root``:
    of each, its relative path and size, then its bytes. It does not
    depend on where ``root`` lives."""
    root = Path(root)
    h = hashlib.sha256()
    for rel in sorted(path.relative_to(root).as_posix() for path in root.rglob(pattern)):
        h.update(f"{rel}\0{(root / rel).stat().st_size}\0".encode())
        _hash_into(h, root / rel)
    return h.hexdigest()
