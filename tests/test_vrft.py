from collections import OrderedDict

import numpy as np
import pytest

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
], ids=["truncated-header", "magic", "version", "dtype-code", "rank", "short-payload",
        "long-payload"])
def test_every_reader_rejects_a_bad_header(tmp_path, corrupt, says):
    manifest = write_manifest(tmp_path, "params.manifest",
                              OrderedDict(t=Rng(6).tensor((1, 2, 2, 2))))
    path = tmp_path / "t.vrft"
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(FormatError, match=says):
        read_tensor(path)
    with pytest.raises(FormatError, match=says):
        manifest_element_count(manifest)
