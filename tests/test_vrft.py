import struct
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vrfnet import FormatError, Rng, read_manifest, read_tensor, write_manifest, write_tensor
from vrfnet.vrft import manifest_element_count, read_header


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_round_trip_bit_exact(tmp_path, dtype):
    t = Rng(1).tensor((2, 3, 4, 5), dtype=dtype)
    path = tmp_path / "t.vrft"
    write_tensor(path, t)
    back = read_tensor(path)
    assert back.dtype == t.dtype
    assert back.shape == t.shape
    assert back.data.tobytes() == t.data.tobytes()


def test_header_layout(tmp_path):
    t = Rng(2).tensor((1, 2, 3, 4), dtype=np.float32)
    path = tmp_path / "t.vrft"
    write_tensor(path, t)
    raw = path.read_bytes()
    assert raw[:4] == b"VRFT"
    assert raw[4] == 1  # version
    assert raw[5] == 0  # f32
    assert raw[6] == 4  # rank
    assert np.frombuffer(raw[7:23], dtype="<u4").tolist() == [1, 2, 3, 4]
    assert len(raw) == 23 + 24 * 4
    dtype, dims = read_header(path)
    assert dims == (1, 2, 3, 4)


def test_corruption_detected(tmp_path):
    t = Rng(3).tensor((1, 1, 2, 2))
    path = tmp_path / "t.vrft"
    write_tensor(path, t)
    raw = bytearray(path.read_bytes())

    bad_magic = tmp_path / "magic.vrft"
    bad_magic.write_bytes(b"XRFT" + bytes(raw[4:]))
    with pytest.raises(FormatError, match="magic"):
        read_tensor(bad_magic)

    bad_version = tmp_path / "version.vrft"
    bad_version.write_bytes(bytes(raw[:4]) + b"\x09" + bytes(raw[5:]))
    with pytest.raises(FormatError, match="version"):
        read_tensor(bad_version)

    truncated = tmp_path / "short.vrft"
    truncated.write_bytes(bytes(raw[:-3]))
    with pytest.raises(FormatError, match="bytes"):
        read_tensor(truncated)


def test_manifest_round_trip_and_count(tmp_path):
    params = OrderedDict()
    params["proj.w"] = Rng(4).tensor((4, 2, 1, 1))
    params["proj.b"] = Rng(5).tensor((1, 4, 1, 1), dtype=np.float64)
    manifest = write_manifest(tmp_path, "params.manifest", params)
    back = read_manifest(manifest)
    assert list(back) == ["proj.w", "proj.b"]
    for name in params:
        assert back[name].data.tobytes() == params[name].data.tobytes()
    assert manifest_element_count(manifest) == 8 + 4


def test_manifest_bad_line(tmp_path):
    bad = tmp_path / "bad.manifest"
    bad.write_text("just-one-field\n")
    with pytest.raises(FormatError, match="name<TAB>file"):
        read_manifest(bad)
    with pytest.raises(FormatError, match="name<TAB>file"):
        manifest_element_count(bad)


def _corrupt_header(raw: bytes, offset: int, value: int) -> bytes:
    return raw[:offset] + bytes([value]) + raw[offset + 1:]


@pytest.mark.parametrize("corrupt,says", [
    (lambda raw: raw[:10], "truncated header"),
    (lambda raw: b"XRFT" + raw[4:], "magic"),
    (lambda raw: _corrupt_header(raw, 4, 9), "version"),
    (lambda raw: _corrupt_header(raw, 5, 7), "dtype code"),
    (lambda raw: _corrupt_header(raw, 6, 3), "rank"),
    (lambda raw: raw[:-1], "bytes"),
    (lambda raw: raw + b"\0" * 8, "bytes"),
    # no payload, so the file size matches what the header declares
    (lambda raw: raw[:7] + struct.pack("<4I", 1, 0, 1, 1), "dims"),
], ids=["truncated-header", "magic", "version", "dtype-code", "rank", "short-payload",
        "long-payload", "zero-dim"])
def test_every_reader_rejects_a_bad_header(tmp_path, corrupt, says):
    manifest = write_manifest(tmp_path, "params.manifest",
                              OrderedDict(t=Rng(6).tensor((1, 2, 2, 2))))
    path = tmp_path / "t.vrft"
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(FormatError, match=says):
        read_tensor(path)
    with pytest.raises(FormatError, match=says):
        manifest_element_count(manifest)


_VALID = Rng(7).tensor((1, 2, 3, 2), dtype=np.float32)
# (offset, struct format) of each header field after the magic
_FIELDS = [(4, "<B"), (5, "<B"), (6, "<B"), (7, "<I"), (11, "<I"), (15, "<I"), (19, "<I")]


def _valid_bytes(tmp_path_factory) -> bytes:
    path = tmp_path_factory.getbasetemp() / "valid.vrft"
    write_tensor(path, _VALID)
    return path.read_bytes()


_edits = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 23 + _VALID.data.nbytes - 1)),
    st.tuples(st.just("flip"), st.lists(st.tuples(st.integers(0, 23 + _VALID.data.nbytes - 1),
                                                   st.integers(0, 7)), min_size=1, max_size=4)),
    # a field value, and whether to fit the payload to what the header
    # then declares, so that the edit gets past the file-size check
    st.tuples(st.just("field"), st.sampled_from(_FIELDS),
              st.integers(0, 8) | st.integers(0, 0xFFFFFFFF), st.booleans()),
)


def _apply(raw: bytes, edit) -> bytes:
    if edit[0] == "truncate":
        return raw[: edit[1]]
    if edit[0] == "flip":
        out = bytearray(raw)
        for byte, bit in edit[1]:
            out[byte] ^= 1 << bit
        return bytes(out)
    _, (offset, fmt), value, fit = edit
    value &= (1 << (8 * struct.calcsize(fmt))) - 1
    out = raw[:offset] + struct.pack(fmt, value) + raw[offset + struct.calcsize(fmt):]
    _, _, code, _, *dims = struct.unpack("<4sBBB4I", out[:23])
    size = int(np.prod(dims, dtype=object)) * (8 if code == 1 else 4)
    if fit and size <= 4096:
        out = out[:23] + (out[23:] + bytes(size))[:size]
    return out


@settings(max_examples=300, deadline=None)
@given(edit=_edits)
@example(edit=("field", (11, "<I"), 0, True))  # a (1, 0, 3, 2) header and no payload
def test_read_tensor_raises_only_format_error_on_corrupted_bytes(tmp_path_factory, edit):
    path = tmp_path_factory.getbasetemp() / "fuzzed.vrft"
    path.write_bytes(_apply(_valid_bytes(tmp_path_factory), edit))
    try:
        t = read_tensor(path)
    except FormatError:
        return
    # what reads back is what the header declares, over the whole file
    dtype, dims = read_header(path)
    assert t.shape == dims and min(dims) >= 1 and t.dtype == dtype.newbyteorder("=")
    assert 23 + t.data.nbytes == path.stat().st_size
