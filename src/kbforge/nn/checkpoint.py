"""Versioned, checksummed binary container for named parameter tensors.

Layout (all multi-byte integers little-endian):

    bytes 0..4   magic "KBFC" + format version byte (currently 0x02)
    bytes 5..13  uint64 header length in bytes
    header       UTF-8 JSON, keys sorted: {"meta": ..., "tensors": [
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


def save_checkpoint(path, params, meta) -> None:
    tensors = _tensor_dict(params)
    entries = []
    for name in sorted(tensors):
        arr = tensors[name]
        dtype = str(arr.dtype)
        if dtype not in _DTYPES:
            raise CheckpointError(f"unsupported dtype {dtype} for {name!r}")
        entries.append({"name": name, "dtype": dtype, "shape": list(arr.shape)})
    header = json.dumps({"meta": meta, "tensors": entries}, sort_keys=True).encode("utf-8")
    chunks = [MAGIC, struct.pack("<Q", len(header)), header]
    chunks += [np.ascontiguousarray(tensors[e["name"]]).astype(_DTYPES[e["dtype"]]).tobytes()
               for e in entries]
    crc = 0
    with replacing(path, "wb") as fh:
        for chunk in chunks:
            crc = zlib.crc32(chunk, crc)
            fh.write(chunk)
        fh.write(struct.pack("<I", crc))


def load_checkpoint(path, fit):
    """``fit(meta, {name: array})`` of the checkpoint at ``path``. A file that
    is not an intact checkpoint of the current version, and a KeyError (a
    missing key), TypeError or ValueError from ``fit``, such as a model's
    refusal of its meta or tensors, raise CheckpointError naming ``path``."""
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
        return fit(*_parse(body))
    except KeyError as exc:
        raise CheckpointError(f"{path}: lacks key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: {exc}") from exc


def _parse(body: bytes):
    (hlen,) = struct.unpack("<Q", body[len(MAGIC):_PREFIX])
    end = _PREFIX + hlen
    try:
        header = json.loads(body[_PREFIX:end].decode("utf-8"))
    except RecursionError:
        raise ValueError("invalid header JSON (nested too deeply)") from None
    tensors: dict[str, np.ndarray] = {}
    for entry in header["tensors"]:
        if entry["dtype"] not in _DTYPES:
            raise ValueError(f"unsupported dtype {entry['dtype']!r}")
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


def restore_parameters(params, tensors: dict[str, np.ndarray]) -> None:
    """Load ``tensors`` into ``params``; ValueError when the two do not name
    the same tensors with the same shapes."""
    params = list(params)
    extra = sorted(set(tensors) - {p.name for p in params})
    if extra:
        raise ValueError(f"checkpoint tensor {extra[0]!r} names no parameter")
    for p in params:
        if p.name not in tensors:
            raise ValueError(f"checkpoint missing parameter {p.name!r}")
        arr = tensors[p.name]
        if arr.shape != p.data.shape:
            raise ValueError(f"shape mismatch for {p.name!r}: {arr.shape} vs {p.data.shape}")
        p.data = arr.astype(p.data.dtype)
