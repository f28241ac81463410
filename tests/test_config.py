import contextlib
import io
import json
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vrfnet import (ConfigError, GconvConfig, GmcfBlockConfig, GmcfConfig, MscfConfig,
                    load_run_config)
from vrfnet.cli import main
from vrfnet.config import RunConfig, block_config, run_config


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


_MSCF_SIZES = "mscf: channels, kernels and ca_ratio must be >= 1"
_GCONV_SIZES = "gconv: channels and dw_kernel must be >= 1"


@pytest.mark.parametrize("cls,kw,says", [
    (MscfConfig, {"c": 0}, _MSCF_SIZES),
    (MscfConfig, {"c": 8, "dw_kernel": 0}, _MSCF_SIZES),
    (MscfConfig, {"c": 8, "mask_kernel": -1}, _MSCF_SIZES),
    (MscfConfig, {"c": 8, "ca_ratio": 0}, _MSCF_SIZES),
    (MscfConfig, {"c": 8, "dilations": (3, 0)}, "mscf: dilations must be >= 1"),
    (GconvConfig, {"c": 0}, _GCONV_SIZES),
    (GconvConfig, {"c": 8, "dw_kernel": -1}, _GCONV_SIZES),
    (GconvConfig, {"c": 8, "hidden": 0}, "gconv: hidden width 0 must be >= 1"),
    (GmcfConfig, {"c": 0}, "gmcf: channels must be >= 1"),
    (GmcfBlockConfig, {"c": 8, "n_bottlenecks": -1}, "gmcf-block: n_bottlenecks must be >= 0"),
    (GmcfBlockConfig, {"c": 0}, "gmcf-block: branch width e*c = 0.0 is not a positive integer"),
])
def test_block_configs_reject_sizes_below_their_lower_bound(cls, kw, says):
    with pytest.raises(ConfigError, match=re.escape(says)):
        cls(**kw)


def test_gmcf_config_and_width_retargeting():
    cfg = GmcfConfig(c=16)
    assert cfg.mscf.c == 16 and cfg.gconv.c == 16
    with pytest.raises(ConfigError):
        GmcfConfig(c=16, mscf=MscfConfig(c=8))  # width mismatch
    # a gmcf-block's bottlenecks are configured at its branch width e*c
    block = GmcfBlockConfig(c=16)
    assert block.bottleneck == GmcfConfig(c=8) and block.bottleneck.gconv.hidden == 5
    assert GmcfBlockConfig(c=16, e=0.25).bottleneck == GmcfConfig(c=4)
    with pytest.raises(ConfigError, match=re.escape("bottleneck width 16 != e*c = 8")):
        GmcfBlockConfig(c=16, bottleneck=cfg)


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
    # a gmcf-block module's bottleneck keys are built once, at e*c = 8: an
    # absent hidden width is derived there, a given one reaches the bottlenecks
    module = {"mscf": {"dilations": [2], "use_ca": False}, "gconv": {"activation": "relu"},
              "dropout": 0.2}
    cfg = block_config("gmcf-block", 16, module)
    assert cfg.bottleneck == GmcfConfig(
        c=8, mscf=MscfConfig(c=8, dilations=(2,), use_ca=False),
        gconv=GconvConfig(c=8, activation="relu"), dropout=0.2)
    assert cfg.bottleneck.gconv.hidden == 5  # floor(2 * 8 / 3), not floor(2 * 16 / 3)
    assert (cfg.n_bottlenecks, cfg.e) == (1, 0.5)
    module["gconv"]["hidden"] = 3
    assert block_config("gmcf-block", 16, module).bottleneck.gconv.hidden == 3


def test_json_defaults_are_the_dataclass_defaults():
    assert block_config("gmcf", 8, {}) == GmcfConfig(c=8)
    assert block_config("mscf", 8, {}) == MscfConfig(c=8)
    assert block_config("gconv", 8, {}) == GconvConfig(c=8)
    assert block_config("gmcf-block", 8, {}) == GmcfBlockConfig(c=8)


def test_strict_unknown_keys():
    with pytest.raises(ConfigError, match="n_scale"):
        block_config("mscf", 8, {"n_scale": 2})
    with pytest.raises(ConfigError, match="hidden_width"):
        block_config("gconv", 8, {"hidden_width": 4})
    with pytest.raises(ConfigError, match="use_ca"):
        block_config("gmcf", 8, {"use_ca": True})  # belongs under "mscf"
    with pytest.raises(ConfigError, match=re.escape("unknown key(s) ['bottleneck']")):
        block_config("gmcf-block", 8, {"bottleneck": {}})  # its keys sit beside e


def test_nested_module_config():
    cfg = block_config("gmcf-block", 8, {"mscf": {"use_ca": False}, "n_bottlenecks": 2, "e": 0.5})
    assert not cfg.bottleneck.mscf.use_ca
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
    assert cfg.input_shape == (1, 6, 4, 4)
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


# ---------------------------------------------------------------- fuzzed run configs

# numbers at the edges of a float (an int no float holds, a float whose
# product with a width overflows) and a string no path may hold, beside
# what hypothesis draws
_EDGES = st.sampled_from([10**400, -10**400, 10**308, 1e308, -1e308, 5e-324, "\x00", ""])
_NUMBER = _EDGES | st.integers(-2, 9) | st.floats() | st.integers()
_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBER | st.text(max_size=6)
    | st.sampled_from(["gmcf", "gmcf-block", "mscf", "gconv", "f32", "f64"]),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=8,
)
_BLOCK_KEYS = sorted({f.name for cls in (MscfConfig, GconvConfig, GmcfConfig, GmcfBlockConfig)
                      for f in fields(cls)} - {"c"})
# a module object: known keys, MSCF and GConv sub-objects among them
_MODULE = st.dictionaries(
    st.sampled_from(_BLOCK_KEYS),
    _NUMBER | _JSON | st.lists(st.integers(-1, 9), max_size=4)
    | st.dictionaries(st.sampled_from(_BLOCK_KEYS), _JSON, max_size=3),
    max_size=4,
)
# a run config object: each key of RunConfig optional, drawn near its
# type first, then from any JSON value
_RUN = st.fixed_dictionaries({}, optional={
    "block": st.sampled_from(["gmcf", "gmcf-block", "mscf", "gconv"]) | _JSON,
    "channels": st.integers(-1, 16) | _JSON,
    "seed": st.integers() | _JSON,
    "dtype": st.sampled_from(["f32", "f64"]) | _JSON,
    "input_shape": st.lists(st.integers(-1, 2**40), max_size=5) | _JSON,
    "tolerance": _NUMBER | _JSON,
    "out_dir": _EDGES | st.text(max_size=6) | _JSON,
    "module": _MODULE | _JSON,
    "bogus": _JSON,
})
_RUN_VALUES = _JSON | _RUN
# each raised something other than ConfigError before: an int no float
# holds (OverflowError in math.isfinite), e*c overflowing to inf
# (OverflowError in int()), and a path with a NUL byte (ValueError)
_FOUND = [{"tolerance": 10**400}, {"block": "gmcf", "module": {"bn_eps": -10**400}},
          {"block": "gmcf-block", "module": {"e": 1e308}}, {"out_dir": "run\x00"}]


def _with_found(test):
    for raw in _FOUND:
        test = example(raw=raw)(test)
    return test


@given(raw=_RUN_VALUES)
@_with_found
@settings(max_examples=300, deadline=None)
def test_run_config_gives_a_run_config_or_a_config_error(raw):
    # the one path for config files and golden cases' meta.json; the
    # value goes through JSON first, as a file's would
    raw = json.loads(json.dumps(raw))
    try:
        cfg = run_config(raw, "fuzz")
    except ConfigError as exc:
        assert "\n" not in str(exc)
        return
    assert isinstance(cfg, RunConfig)
    assert cfg.dtype in ("f32", "f64") and cfg.channels >= 1
    if cfg.block is not None:
        cfg.build_block_config()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzzed-configs")


@given(raw=_RUN_VALUES)
@_with_found
@settings(max_examples=200, deadline=None)
def test_a_rejected_config_file_exits_2_with_one_line(raw, fuzz_dir):
    # every value the config path rejects, and every config gradcheck
    # refuses before it builds a block (no block, f32), ends in exit 2 and
    # one stderr line, never a traceback; a config it would run is left out
    path = fuzz_dir / "run.json"
    path.write_text(json.dumps(raw))
    try:
        cfg = run_config(json.loads(path.read_text()), str(path))
        want = None
    except ConfigError as exc:
        want = f"config error: {exc}\n"
    if want is None and cfg.block is not None and cfg.dtype == "f64":
        return
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(["gradcheck", "--config", str(path)])
    assert rc == 2
    assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("config error: ")
    if want is not None:
        assert err.getvalue() == want
