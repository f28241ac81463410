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
import os
import struct
from collections import OrderedDict
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, run_config
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


def read_header(path) -> tuple[np.dtype, tuple[int, int, int, int]]:
    """Dtype and dims of a VRFT file, from its header bytes alone;
    FormatError unless the header is well formed and the file size is
    the header's plus the payload it declares."""
    with open(path, "rb") as f:
        raw = f.read(_HEADER.size)
        size = os.fstat(f.fileno()).st_size
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: truncated header ({len(raw)} bytes)")
    magic, version, code, rank, *dims = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if rank != 4:
        raise FormatError(f"{path}: rank must be 4, got {rank}")
    if code not in _CODE_DTYPE:
        raise FormatError(f"{path}: unknown dtype code {code}")
    dtype = _CODE_DTYPE[code]
    expected = _HEADER.size + dims[0] * dims[1] * dims[2] * dims[3] * dtype.itemsize
    if size != expected:
        raise FormatError(f"{path}: expected {expected} bytes, found {size}")
    return dtype, tuple(dims)


def read_tensor(path) -> Tensor:
    dtype, dims = read_header(path)
    arr = np.fromfile(path, dtype=dtype, offset=_HEADER.size).reshape(dims)
    return Tensor.wrap(arr.astype(dtype.newbyteorder("="), copy=False))


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
        _, dims = read_header(path)
        total += dims[0] * dims[1] * dims[2] * dims[3]
    return total


_GOLDEN_META_KEYS = ("block", "channels", "dtype", "seed", "input_shape", "module")


def write_golden_meta(path, cfg: RunConfig) -> None:
    """Write the fields of ``cfg`` that rebuild a golden case as meta.json."""
    meta = {key: getattr(cfg, key) for key in _GOLDEN_META_KEYS}
    Path(path).write_text(json.dumps(meta, sort_keys=True, indent=1))


def read_golden_meta(path) -> RunConfig:
    """A golden case's meta.json as a RunConfig; FormatError unless it
    holds exactly the keys write_golden_meta writes, none null, and they
    pass the run-config checks (block, dtype, module, input shape)."""
    try:
        meta = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from None
    if (not isinstance(meta, dict) or sorted(meta) != sorted(_GOLDEN_META_KEYS)
            or None in meta.values()):
        raise FormatError(f"{path}: expected exactly the non-null keys "
                          f"{sorted(_GOLDEN_META_KEYS)}")
    try:
        return run_config(meta, Path(path).name)
    except ConfigError as exc:
        raise FormatError(f"{path}: {exc}") from None
