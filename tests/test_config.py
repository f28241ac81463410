import json

import numpy as np
import pytest

from vrfnet import ConfigError, GconvConfig, GmcfConfig, MscfConfig, load_run_config
from vrfnet.config import block_config, run_config


def test_mscf_defaults_and_validation():
    cfg = MscfConfig(c=8)
    assert cfg.dilations == (3, 5, 7) and cfg.n_scales == 3
    assert cfg.mask_kernel == 7 and cfg.ca_ratio == 4 and cfg.use_ca
    with pytest.raises(ConfigError):
        MscfConfig(c=8, dilations=())  # no scale
    with pytest.raises(ConfigError):
        MscfConfig(c=8, dw_kernel=4)
    with pytest.raises(ConfigError):
        MscfConfig(c=6, ca_ratio=4)


def test_gconv_defaults():
    assert GconvConfig(c=256).hidden == 170
    assert GconvConfig(c=8, hidden=5).hidden == 5
    with pytest.raises(ConfigError):
        GconvConfig(c=8, dropout=1.0)
    with pytest.raises(ConfigError):
        GconvConfig(c=8, activation="gelu")


def test_gmcf_config_and_width_retargeting():
    cfg = GmcfConfig(c=16)
    assert cfg.mscf.c == 16 and cfg.gconv.c == 16
    assert cfg.hidden_width == 8
    inner = cfg.at_width(8)
    assert inner.c == 8 and inner.mscf.c == 8 and inner.gconv.hidden == 5
    with pytest.raises(ConfigError):
        GmcfConfig(c=16, mscf=MscfConfig(c=8))  # width mismatch


@pytest.mark.parametrize("key,value", [
    ("bn_eps", -2.0), ("bn_eps", 0.0), ("bn_eps", float("nan")), ("bn_eps", float("inf")),
    ("bn_momentum", -0.1), ("bn_momentum", 1.5), ("bn_momentum", float("nan")),
])
def test_gmcf_rejects_batch_norm_hyperparameters_out_of_range(key, value):
    # a negative eps takes the square root of a negative variance: the
    # forward would give NaN from finite inputs
    with pytest.raises(ConfigError, match=key):
        GmcfConfig(c=8, **{key: value})
    with pytest.raises(ConfigError, match=key):
        block_config("gmcf-block", 8, {key: value})


def test_gmcf_accepts_batch_norm_hyperparameters_at_the_edges_of_their_range():
    for kw in ({"bn_eps": 1e-300}, {"bn_momentum": 0.0}, {"bn_momentum": 1.0}):
        GmcfConfig(c=8, **kw)


def test_width_retargeting_keeps_hyperparameters_and_rederives_hidden():
    cfg = GmcfConfig(c=16, mscf=MscfConfig(c=16, dilations=(2,), use_ca=False),
                     gconv=GconvConfig(c=16, hidden=3, activation="relu"), dropout=0.2)
    inner = cfg.at_width(8)
    assert inner.gconv == GconvConfig(c=8, activation="relu")  # hidden back to floor(2c/3)
    assert inner.mscf == MscfConfig(c=8, dilations=(2,), use_ca=False)
    assert (inner.dropout, inner.n_bottlenecks, inner.e) == (0.2, 1, 0.5)


def test_json_defaults_are_the_dataclass_defaults():
    assert block_config("gmcf", 8, {}) == GmcfConfig(c=8)
    assert block_config("mscf", 8, {}) == MscfConfig(c=8)
    assert block_config("gconv", 8, {}) == GconvConfig(c=8)


def test_strict_unknown_keys():
    with pytest.raises(ConfigError, match="n_scale"):
        block_config("mscf", 8, {"n_scale": 2})
    with pytest.raises(ConfigError, match="hidden_width"):
        block_config("gconv", 8, {"hidden_width": 4})
    with pytest.raises(ConfigError, match="use_ca"):
        block_config("gmcf", 8, {"use_ca": True})  # belongs under "mscf"


def test_nested_module_config():
    cfg = block_config("gmcf-block", 8, {"mscf": {"use_ca": False}, "n_bottlenecks": 2, "e": 0.5})
    assert not cfg.mscf.use_ca
    assert cfg.n_bottlenecks == 2


def test_run_config_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "block": "gconv",
        "channels": 6,
        "seed": 7,
        "dtype": "f64",
        "input_shape": [1, 6, 4, 4],
        "module": {"dw_kernel": 3},
    }))
    cfg = load_run_config(path)
    assert cfg.block == "gconv" and cfg.seed == 7
    assert cfg.np_dtype == np.float64
    assert cfg.resolved_input_shape() == (1, 6, 4, 4)
    assert cfg.build_block_config().c == 6


def test_run_config_rejects_unknown_and_invalid(tmp_path):
    bad_key = tmp_path / "bad.json"
    bad_key.write_text(json.dumps({"blok": "gconv"}))
    with pytest.raises(ConfigError, match="blok"):
        load_run_config(bad_key)

    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_run_config(bad_json)

    bad_shape = tmp_path / "shape.json"
    bad_shape.write_text(json.dumps({"block": "gconv", "channels": 6,
                                     "input_shape": [1, 4, 4, 4]}))
    with pytest.raises(ConfigError, match="channel"):
        load_run_config(bad_shape)

    bad_dtype = tmp_path / "dtype.json"
    bad_dtype.write_text(json.dumps({"dtype": "f16"}))
    with pytest.raises(ConfigError, match="dtype"):
        load_run_config(bad_dtype)


@pytest.mark.parametrize("dtype,ok", [("f32", True), ("f64", False)])
def test_input_shape_whose_bytes_overflow_an_array_index_is_a_config_error(dtype, ok):
    # 2**30 * (2**31 - 1) elements: 2**63 - 2**32 bytes in f32, which an
    # index reaches, and twice that in f64, which none does
    raw = {"dtype": dtype, "channels": 1, "input_shape": [1, 1, 2**30, 2**31 - 1]}
    if ok:
        assert run_config(raw, "run").input_shape == (1, 1, 2**30, 2**31 - 1)
    else:
        with pytest.raises(ConfigError, match="input_shape .* bytes"):
            run_config(raw, "run")
