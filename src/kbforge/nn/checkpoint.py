"""Versioned, checksummed binary container for named parameter tensors.

Layout (all multi-byte integers little-endian):

    bytes 0..4   magic "KBFC" + format version byte (currently 0x02)
    bytes 5..13  uint64 header length in bytes
    header       UTF-8 JSON, keys sorted: {"meta": {...}, "tensors": [
                     {"name", "dtype", "shape"} ...]} with tensors sorted
                     by name
    payload      raw buffers in tensor-list order; float32 as '<f4',
                     float64 as '<f8', C order
    trailer      uint32 CRC32 of every byte before it

Sorting plus sorted JSON keys makes the file a pure function of contents.
A file that is short, fails its CRC, or does not parse raises
CheckpointError; version-1 files (no trailer) are rejected.
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np

from ..files import replacing

MAGIC = b"KBFC\x02"

_DTYPES = {"float32": "<f4", "float64": "<f8"}
_PREFIX = len(MAGIC) + 8
_TRAILER = 4


class CheckpointError(Exception):
    pass


def _tensor_dict(params) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    for p in params:
        if p.name in out:
            raise CheckpointError(f"duplicate parameter name {p.name!r}")
        out[p.name] = p.data
    return out


def save_checkpoint(path, params, meta: dict | None = None) -> None:
    tensors = _tensor_dict(params)
    entries = []
    for name in sorted(tensors):
        arr = tensors[name]
        dtype = str(arr.dtype)
        if dtype not in _DTYPES:
            raise CheckpointError(f"unsupported dtype {dtype} for {name!r}")
        entries.append({"name": name, "dtype": dtype, "shape": list(arr.shape)})
    header = json.dumps({"meta": meta or {}, "tensors": entries},
                        sort_keys=True).encode("utf-8")
    chunks = [MAGIC, struct.pack("<Q", len(header)), header]
    chunks += [np.ascontiguousarray(tensors[e["name"]]).astype(_DTYPES[e["dtype"]]).tobytes()
               for e in entries]
    crc = 0
    with replacing(path, "wb") as fh:
        for chunk in chunks:
            crc = zlib.crc32(chunk, crc)
            fh.write(chunk)
        fh.write(struct.pack("<I", crc))


def load_checkpoint(path):
    """Returns (meta, {name: array}); raises CheckpointError for any file
    that is not an intact checkpoint of the current version."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _PREFIX + _TRAILER:
        raise CheckpointError(f"{path}: truncated ({len(data)} bytes)")
    if data[:len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: bad magic or unsupported version")
    body = data[:-_TRAILER]
    (crc,) = struct.unpack("<I", data[-_TRAILER:])
    if zlib.crc32(body) != crc:
        raise CheckpointError(f"{path}: CRC mismatch (truncated or corrupted)")
    try:
        return _parse(body)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed checkpoint: {exc!r}") from exc


def _parse(body: bytes):
    (hlen,) = struct.unpack("<Q", body[len(MAGIC):_PREFIX])
    end = _PREFIX + hlen
    header = json.loads(body[_PREFIX:end].decode("utf-8"))
    tensors: dict[str, np.ndarray] = {}
    for entry in header["tensors"]:
        dtype = np.dtype(_DTYPES[entry["dtype"]])
        shape = tuple(int(d) for d in entry["shape"])
        count = int(np.prod(shape))
        if min(shape, default=0) < 0 or end + count * dtype.itemsize > len(body):
            raise ValueError(f"tensor {entry['name']!r} of shape {shape} does not fit")
        arr = np.frombuffer(body, dtype=dtype, count=count, offset=end)
        tensors[entry["name"]] = arr.reshape(shape).astype(entry["dtype"])
        end += count * dtype.itemsize
    if end != len(body):
        raise ValueError("trailing bytes after payload")
    return header["meta"], tensors


def restore_parameters(params, tensors: dict[str, np.ndarray], path) -> None:
    """Load ``tensors``, read from the checkpoint at ``path``, into
    ``params``; the two must name the same tensors with the same shapes,
    and CheckpointError names ``path`` when they do not."""
    params = list(params)
    extra = sorted(set(tensors) - {p.name for p in params})
    if extra:
        raise CheckpointError(f"{path}: checkpoint tensor {extra[0]!r} names no parameter")
    for p in params:
        if p.name not in tensors:
            raise CheckpointError(f"{path}: checkpoint missing parameter {p.name!r}")
        arr = tensors[p.name]
        if arr.shape != p.data.shape:
            raise CheckpointError(
                f"{path}: shape mismatch for {p.name!r}: {arr.shape} vs {p.data.shape}")
        p.data = arr.astype(p.data.dtype)
