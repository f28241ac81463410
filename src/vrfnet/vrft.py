"""VRFT tensor files and plain-text parameter manifests.

Layout of a .vrft file (all integers little-endian):

    magic   4 bytes  b"VRFT"
    version u8       1
    dtype   u8       0 = float32, 1 = float64
    rank    u8       4
    dims    4 x u32  n, c, h, w
    payload row-major values, little-endian

A manifest is a text file of ``name<TAB>relative-filename`` lines; it
fixes both the parameter order and where each tensor lives. A golden
case directory also holds a JSON ``meta.json`` naming the block that
produced it.
"""

from __future__ import annotations

import json
import struct
from collections import OrderedDict
from pathlib import Path

import numpy as np

from .config import BLOCK_KINDS, DTYPES
from .tensor import Tensor

MAGIC = b"VRFT"
VERSION = 1
_HEADER = struct.Struct("<4sBBB4I")
_DTYPE_CODE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


class FormatError(ValueError):
    """Malformed VRFT file or manifest."""


def write_tensor(path, t: Tensor) -> None:
    path = Path(path)
    if any(d > 0xFFFFFFFF for d in t.shape):
        raise FormatError(f"dims too large for u32 header: {t.shape}")
    code = _DTYPE_CODE[t.dtype]
    header = _HEADER.pack(MAGIC, VERSION, code, 4, *t.shape)
    payload = np.ascontiguousarray(t.data, dtype=_CODE_DTYPE[code]).tobytes()
    path.write_bytes(header + payload)


def read_tensor(path) -> Tensor:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: truncated header ({len(raw)} bytes)")
    magic, version, code, rank, *dims = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if rank != 4:
        raise FormatError(f"{path}: rank must be 4, got {rank}")
    if code not in _CODE_DTYPE:
        raise FormatError(f"{path}: unknown dtype code {code}")
    dtype = _CODE_DTYPE[code]
    count = dims[0] * dims[1] * dims[2] * dims[3]
    expected = _HEADER.size + count * dtype.itemsize
    if len(raw) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, found {len(raw)}")
    arr = np.frombuffer(raw, dtype=dtype, offset=_HEADER.size).reshape(dims)
    return Tensor.wrap(arr.astype(arr.dtype.newbyteorder("=")))


def read_header(path) -> tuple[np.dtype, tuple[int, int, int, int]]:
    """Dtype and dims from the header alone (payload not touched)."""
    raw = Path(path).read_bytes()[: _HEADER.size]
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, version, code, rank, *dims = _HEADER.unpack(raw)
    if magic != MAGIC or version != VERSION or rank != 4 or code not in _CODE_DTYPE:
        raise FormatError(f"{path}: bad header")
    return _CODE_DTYPE[code], tuple(dims)


def write_manifest(directory, manifest_name: str, tensors: "OrderedDict[str, Tensor]") -> Path:
    """Write each tensor as <name>.vrft next to a manifest listing them."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = []
    for name, t in tensors.items():
        fname = name.replace("/", "_") + ".vrft"
        write_tensor(directory / fname, t)
        lines.append(f"{name}\t{fname}")
    manifest = directory / manifest_name
    manifest.write_text("\n".join(lines) + ("\n" if lines else ""))
    return manifest


def _manifest_entries(manifest_path: Path) -> "list[tuple[str, Path]]":
    """(name, tensor path) per non-blank ``name<TAB>file`` manifest line."""
    entries = []
    for ln, line in enumerate(manifest_path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise FormatError(f"{manifest_path}:{ln}: expected 'name<TAB>file'")
        entries.append((fields[0], manifest_path.parent / fields[1]))
    return entries


def read_manifest(manifest_path) -> "OrderedDict[str, Tensor]":
    return OrderedDict(
        (name, read_tensor(path)) for name, path in _manifest_entries(Path(manifest_path))
    )


def manifest_element_count(manifest_path) -> int:
    """Total element count over all tensors in a manifest, derived from
    the VRFT headers and file sizes on disk (not from in-memory blocks)."""
    total = 0
    for _, path in _manifest_entries(Path(manifest_path)):
        dtype, dims = read_header(path)
        count = dims[0] * dims[1] * dims[2] * dims[3]
        if path.stat().st_size != _HEADER.size + count * dtype.itemsize:
            raise FormatError(f"{path}: size does not match header")
        total += count
    return total


_GOLDEN_META_TYPES = {"block": str, "channels": int, "dtype": str, "seed": int, "module": dict}


def read_golden_meta(path) -> dict:
    """A golden case's meta.json; FormatError unless it is a JSON object
    with a known block and dtype and every field of the right type."""
    try:
        meta = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise FormatError(f"{path}: expected a JSON object")
    for key, kind in _GOLDEN_META_TYPES.items():
        value = meta.get(key)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise FormatError(f"{path}: {key!r} missing or not of type {kind.__name__}")
    if meta["block"] not in BLOCK_KINDS or meta["dtype"] not in DTYPES:
        raise FormatError(f"{path}: unknown block {meta['block']!r} or dtype {meta['dtype']!r}")
    return meta
