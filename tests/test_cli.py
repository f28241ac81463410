import argparse
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vrfnet
import vrfnet.blocks
import vrfnet.cli
from conftest import poison_tape_gradient
from vrfnet import Tensor, read_manifest, read_tensor, write_tensor
from vrfnet.cli import COMMAND_DEFAULTS, main
from vrfnet.config import RunConfig, block_config, load_run_config
from vrfnet.vrft import read_golden_meta

GC_ARGS = ["--block", "gconv", "--channels", "6", "--input-shape", "1,6,4,4"]


def test_gradcheck_gconv_passes(capsys):
    rc = main(["gradcheck", *GC_ARGS, "--seed", "7"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "proj.w" in out and "gradcheck passed" in out


def test_gradcheck_corrupted_adjoint_names_parameter(monkeypatch, capsys):
    # negative control: break one adjoint rule and expect a named failure
    import vrfnet.blocks as blocks
    from vrfnet.tape import tape_of, value_of
    from vrfnet.tensor import Tensor

    def broken_gate(x):
        tx = value_of(x)
        e = np.exp(-np.abs(1.702 * tx.data))
        sig = np.where(tx.data >= 0, 1 / (1 + e), e / (1 + e))
        out = Tensor.wrap(tx.data * sig)
        tape = tape_of(x)
        if tape is None:
            return out

        def backward(g, acc):
            acc(x, g * sig)  # drops the x * sigma' term

        return tape.record(out, "sigmoid_gate", backward)

    monkeypatch.setattr(blocks, "sigmoid_gate", broken_gate)
    rc = main(["gradcheck", *GC_ARGS, "--seed", "7"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "dw.w" in captured.err or "dw" in captured.err  # offending parameters named


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_gradcheck_fails_a_non_finite_tape_gradient(tmp_path, monkeypatch, capsys, value):
    # its error is NaN: the status line, the JSON pass and the exit code
    # all read one comparison, and all say it failed
    poison_tape_gradient(monkeypatch, "gconv.restore.b", value)
    assert main(["gradcheck", "--block", "gmcf", "--channels", "4", "--mode", "eval",
                 "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "gradcheck FAILED for: gconv.restore.b (tol 1e-05)\n"
    status = {line.split()[1]: line.split()[0] for line in captured.out.splitlines()}
    reports = [json.loads(l) for l in (tmp_path / "gradcheck.jsonl").read_text().splitlines()]
    assert {r["name"]: r["pass"] for r in reports} == {
        name: s == "ok" for name, s in status.items()}
    assert [r["name"] for r in reports if not r["pass"]] == ["gconv.restore.b"]


def _strict_json(line):
    """``line`` parsed as strict JSON, which has no NaN or Infinity."""
    def reject(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(line, parse_constant=reject)


def _poison_grid_conv(monkeypatch, value):
    """Make the first element of every grid conv's fast output ``value``."""
    real = vrfnet.cli.conv2d

    def one_bad(*args):
        y = real(*args).data.copy()
        y.flat[0] = value
        return Tensor(y)

    monkeypatch.setattr(vrfnet.cli, "conv2d", one_bad)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("command,report,key,poison", [
    (["gradcheck", "--block", "gconv", "--channels", "4", "--mode", "eval"], "gradcheck.jsonl",
     "max_rel_err", functools.partial(poison_tape_gradient, leaf="restore.b")),
    (["oracle-diff", "--specs", "3", "--skip-blocks"], "oracle_diff.jsonl", "max_abs_diff",
     _poison_grid_conv),
], ids=["gradcheck", "oracle-diff"])
def test_a_non_finite_error_is_written_as_null_in_strict_json(tmp_path, monkeypatch, capsys,
                                                             command, report, key, poison,
                                                             value):
    poison(monkeypatch, value=value)
    assert main([*command, "--out", str(tmp_path)]) == 1
    lines = (tmp_path / report).read_text().splitlines()
    nulls = [r for r in map(_strict_json, lines) if r[key] is None]
    assert nulls and all(r.get("pass", False) is False for r in nulls)
    # oracle-diff prints the lines it writes; gradcheck prints a status line each
    printed = [l for l in capsys.readouterr().out.splitlines() if l.startswith("{")]
    assert printed == (lines if command[0] == "oracle-diff" else [])


def test_gradcheck_malformed_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{this is not json")
    rc = main(["gradcheck", "--config", str(cfg)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("run,key", [
    ({"block": "gmcf", "module": {"mscf": {"dilations": 5}}}, "dilations"),
    ({"block": "gmcf", "module": {"dropout": "a"}}, "dropout"),
    ({"block": "gmcf-block", "module": {"n_bottlenecks": "2"}}, "n_bottlenecks"),
    ({"block": "gmcf", "module": {"mscf": {"dilations": []}}}, "dilations"),
    ({"block": "gconv", "channels": "x"}, "channels"),
    # json reads Infinity and NaN as floats
    ({"block": "gmcf-block", "module": {"e": float("inf")}}, "e must be a finite number > 0"),
    ({"block": "gmcf-block", "module": {"e": float("nan")}}, "e must be a finite number > 0"),
    # sizes no array can index: the input's channels, and a conv's weight
    # or padded input; each ended in a traceback from numpy
    ({"block": "gconv", "channels": 10**30}, "bytes"),
    ({"block": "mscf", "channels": 4, "module": {"dilations": [10**30]}}, "bytes"),
    ({"block": "gconv", "module": {"hidden": 10**30}}, "bytes"),
    ({"block": "gconv", "module": {"dw_kernel": 10**30 + 1}}, "bytes"),
    ({"block": "mscf", "module": {"mask_kernel": 10**21 + 1}}, "bytes"),
], ids=["dilations-int", "dropout-str", "n_bottlenecks-str", "zero-scales",
        "channels-str", "e-inf", "e-nan", "channels-1e30", "dilation-1e30", "hidden-1e30",
        "dw_kernel-1e30", "mask_kernel-1e21"])
def test_malformed_config_values_exit_2_with_one_line(tmp_path, capsys, run, key):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(run))
    assert main(["profile", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err and err.count("\n") == 1


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="Python reads ints of any length before 3.11")
def test_an_int_past_the_interpreters_digit_limit_is_a_config_error_or_corrupt_meta(
        tmp_path, capsys):
    # int() raises a plain ValueError past the limit, which json.loads
    # passes on as it is, not as a JSONDecodeError
    out = tmp_path / "gold"
    assert main(["golden", "generate", "--out", str(out), "--block", "gconv",
                 "--channels", "6"]) == 0
    capsys.readouterr()
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        digits = "1" * 641
        cfg = tmp_path / "run.json"
        cfg.write_text('{"seed": ' + digits + "}")
        assert main(["profile", "--config", str(cfg)]) == 2
        _one_line_config_error(capsys, "invalid JSON")
        assert main(["profile", "--block", "gconv", "--input-shape", f"1,{digits},4,4"]) == 2
        _one_line_config_error(capsys, "cannot parse input shape")
        meta = out / "gconv" / "meta.json"
        meta.write_text(meta.read_text().replace('"seed": 0', '"seed": ' + digits))
        assert main(["golden", "verify", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("corrupt data") and "invalid JSON" in err and err.count("\n") == 1
    finally:
        sys.set_int_max_str_digits(limit)


def test_config_file_is_checked_after_the_flags(tmp_path, capsys):
    # flags override file values, so only the file with the flags applied must be valid
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"block": "gconv", "input_shape": [1, 6, 4, 4]}))
    assert main(["profile", "--config", str(cfg), "--channels", "6"]) == 0
    capsys.readouterr()
    assert main(["profile", "--config", str(cfg), "--channels", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "channels 5" in err and err.count("\n") == 1


@pytest.mark.parametrize("run", [
    {"block": "gconv", "tolerance": None},
    {"block": "gconv", "input_shape": None},
    # inside a module too: the block's own default fills the key
    {"block": "gmcf", "module": {"dropout": None}},
    {"block": "gmcf", "module": {"mscf": None}},
], ids=["tolerance", "input_shape", "module-dropout", "module-mscf"])
def test_a_null_in_the_config_file_leaves_the_key_to_the_commands_default(tmp_path, capsys,
                                                                           run):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"channels": 4, **run}))
    assert load_run_config(cfg).build_block_config() == block_config(run["block"], 4)
    gradcheck = COMMAND_DEFAULTS["gradcheck"]
    assert main(["gradcheck", "--config", str(cfg)]) == 0
    assert f"within {gradcheck['tolerance']:g}" in capsys.readouterr().out
    out = tmp_path / "gold"
    assert main(["golden", "generate", "--config", str(cfg), "--out", str(out)]) == 0
    n, _, h, w = COMMAND_DEFAULTS["golden generate"]["input_shape"]
    assert read_golden_meta(out / run["block"] / "meta.json").input_shape == (n, 4, h, w)
    capsys.readouterr()
    assert main(["golden", "verify", "--config", str(cfg), "--out", str(out),
                 "--use-oracle"]) == 0
    assert f"tol={COMMAND_DEFAULTS['golden verify']['tolerance']:g}" in capsys.readouterr().out
    assert main(["oracle-diff", "--config", str(cfg), "--specs", "0"]) == 0
    assert main(["profile", "--config", str(cfg)]) == 0


@pytest.mark.parametrize("args,says", [
    (["profile", "--block", "gconv", "--input-shape", "1,x,4,4"], "cannot parse input shape"),
    (["golden", "generate"], "golden needs --out"),
    (["profile", "--config", "absent.json"], "cannot read config"),
], ids=["input-shape", "golden-without-out", "unreadable-config"])
def test_usage_errors_exit_2_with_one_line(tmp_path, monkeypatch, capsys, args, says):
    monkeypatch.chdir(tmp_path)
    assert main(args) == 2
    _one_line_config_error(capsys, says)


BLOCK_FLAGS = {"--block", "--seed", "--dtype", "--channels", "--input-shape"}
# the flags of each command beyond --config, --out, --tol and BLOCK_FLAGS
OWN_FLAGS = {"gradcheck": {"--mode"}, "oracle-diff": {"--specs", "--skip-blocks"},
             "profile": {"--reps", "--compare-ffn"}, "golden generate": set(),
             "golden verify": {"--use-oracle"}}


@pytest.mark.parametrize("command", list(COMMAND_DEFAULTS), ids=lambda c: c.replace(" ", "-"))
def test_each_commands_help_shows_its_own_defaults(capsys, command):
    with pytest.raises(SystemExit) as stop:
        main([*command.split(), "--help"])
    assert stop.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # argparse wraps help lines
    own = COMMAND_DEFAULTS[command]
    tol = f"tolerance override (default {own['tolerance']:g})" if "tolerance" in own else None
    assert (tol in text) if tol else "tolerance override (default" not in text
    if "input_shape" not in own:  # golden verify rebuilds each case from its meta.json
        assert not any(flag in text for flag in BLOCK_FLAGS), text
        return
    n, _, h, w = own["input_shape"]
    assert f"--dtype {{f32,f64}} (default {own['dtype']})" in text
    assert f"n,c,h,w (default {n},C,{h},{w})" in text
    assert f"(default {RunConfig.channels})" in text and f"(default {RunConfig.seed})" in text


def _commands(parser, prefix=""):
    """(name, parser) of each command under ``parser``, nested ones named
    by their path (``golden verify``)."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _commands(sub, f"{prefix}{name} ")
            return
    yield prefix.strip(), parser


def test_each_command_offers_exactly_the_flags_its_defaults_entry_implies():
    # --tol where the entry has a tolerance, the block flags where it has
    # an input shape: no command accepts a flag it never reads
    offered = {name: {o for a in p._actions for o in a.option_strings if o.startswith("--")}
               for name, p in _commands(vrfnet.cli._build_parser())}
    assert set(offered) == set(COMMAND_DEFAULTS)
    for name, own in COMMAND_DEFAULTS.items():
        want = {"--config", "--out", *OWN_FLAGS[name]}
        want |= {"--tol"} if "tolerance" in own else set()
        want |= BLOCK_FLAGS if "input_shape" in own else set()
        assert offered[name] - {"--help"} == want, name
    assert {name: len(flags - {"--help"}) for name, flags in offered.items()} == {
        "gradcheck": 9, "oracle-diff": 10, "profile": 9, "golden generate": 7,
        "golden verify": 4}


@pytest.mark.parametrize("command,unread", [
    (["profile", "--block", "gconv"], ["--tol", "1"]),
    (["golden", "generate", "--out", "g"], ["--tol", "1e-6"]),
    (["golden", "generate", "--out", "g"], ["--use-oracle"]),
    (["golden", "verify", "--out", "g"], ["--block", "gconv"]),
    # once read as the config of a block verify never builds
    (["golden", "verify", "--out", "g"], ["--block", "mscf", "--channels", "99"]),
    (["golden", "verify", "--out", "g"], ["--block", "mscf", "--channels", "12", "--dtype",
                                          "f32", "--seed", "5", "--input-shape", "3,12,2,2"]),
], ids=["profile-tol", "generate-tol", "generate-use-oracle", "verify-block",
        "verify-unbuildable-block", "verify-other-case"])
def test_a_flag_the_command_does_not_read_is_a_usage_error(tmp_path, monkeypatch, capsys,
                                                           command, unread):
    monkeypatch.chdir(tmp_path)
    assert main(["golden", "generate", "--out", "g", "--block", "gconv"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as stop:
        main([*command, *unread])
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert f"error: unrecognized arguments: {' '.join(unread)}\n" in err, err


def test_gradcheck_rejects_f32(capsys):
    rc = main(["gradcheck", *GC_ARGS, "--dtype", "f32"])
    assert rc == 2


def test_missing_block_exits_2(capsys):
    assert main(["gradcheck"]) == 2
    assert main(["profile"]) == 2


def test_oracle_diff_passes_and_is_seed_stable(capsys):
    assert main(["oracle-diff", "--specs", "10", "--seed", "3", "--skip-blocks"]) == 0
    first = capsys.readouterr().out
    assert main(["oracle-diff", "--specs", "10", "--seed", "4", "--skip-blocks"]) == 0
    second = capsys.readouterr().out
    assert first != second  # different samples, same verdict


def test_oracle_diff_compares_every_block_kind(capsys):
    from vrfnet.config import BLOCK_KINDS

    assert main(["oracle-diff", "--specs", "2"]) == 0
    ops = [json.loads(l)["op"] for l in capsys.readouterr().out.splitlines()
           if l.startswith("{")]
    assert [op for op in ops if op in BLOCK_KINDS] == list(BLOCK_KINDS)
    assert main(["oracle-diff", "--specs", "2", "--tol", "0"]) == 1
    assert "DIVERGED block" in capsys.readouterr().err


@pytest.mark.parametrize("file_dtype,flag,want", [
    (None, [], np.float32),
    ("f64", [], np.float64),
    ("f64", ["--dtype", "f32"], np.float32),
], ids=["default-f32", "file-f64", "flag-over-file"])
def test_oracle_diff_dtype_from_file_or_flag(tmp_path, monkeypatch, file_dtype, flag, want):
    import vrfnet.cli as cli

    seen = set()
    real = cli.conv2d

    def spy(x, *rest):
        seen.add(x.dtype)
        return real(x, *rest)

    monkeypatch.setattr(cli, "conv2d", spy)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({} if file_dtype is None else {"dtype": file_dtype}))
    assert main(["oracle-diff", "--specs", "3", "--skip-blocks", "--config", str(cfg),
                 *flag]) == 0
    assert seen == {np.dtype(want)}


def _one_line_config_error(capsys, *keys) -> None:
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1, err
    assert all(key in err for key in keys), err


@pytest.mark.parametrize("command", [["gradcheck", *GC_ARGS], ["oracle-diff", "--specs", "2"]],
                         ids=["gradcheck", "oracle-diff"])
@pytest.mark.parametrize("tol", ["nan", "inf"])
@pytest.mark.parametrize("where", ["flag", "file"])
def test_non_finite_tolerance_is_a_config_error(tmp_path, capsys, command, tol, where):
    # every comparison with NaN is false: without the check, gradcheck
    # printed FAIL on every line and then passed "within nan"
    if where == "flag":
        args = ["--tol", tol]
    else:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"tolerance": float(tol)}))  # NaN or Infinity in the JSON
        args = ["--config", str(cfg)]
    assert main([*command, *args]) == 2
    _one_line_config_error(capsys, "tolerance", tol)


OVERSIZED = "1,8,1099511627776,1099511627776"


@pytest.mark.parametrize("command", [["profile", "--block", "gmcf"],
                                     ["gradcheck", "--block", "gmcf", "--dtype", "f64"]],
                         ids=["profile", "gradcheck"])
def test_input_shape_too_big_to_index_is_a_config_error(capsys, command):
    # the check is on the shape: nothing of this size is allocated
    assert main([*command, "--input-shape", OVERSIZED]) == 2
    _one_line_config_error(capsys, "input_shape", "bytes")


def test_failed_allocation_exits_2_with_one_line(monkeypatch, capsys):
    from vrfnet.tensor import Rng

    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 596. GiB for an array")

    monkeypatch.setattr(Rng, "tensor", no_memory)
    assert main(["gradcheck", *GC_ARGS]) == 2
    err = capsys.readouterr().err
    assert err.startswith("out of memory: Unable to allocate") and err.count("\n") == 1, err


@pytest.mark.parametrize("reps", ["1", "2", "-1"])
def test_profile_rejects_too_few_reps_as_a_config_error(capsys, reps):
    assert main(["profile", "--block", "gconv", "--channels", "6", "--reps", reps]) == 2
    _one_line_config_error(capsys, "reps", reps)


def test_profile_times_three_reps(capsys):
    assert main(["profile", "--block", "gconv", "--channels", "6",
                 "--input-shape", "1,6,4,4", "--reps", "3"]) == 0
    payload = json.loads([l for l in capsys.readouterr().out.splitlines() if l.startswith("{")][0])
    assert payload["timing"]["reps"] == 3


@pytest.mark.parametrize("block,shape,rc", [
    ("gmcf", "1,8,1,1", 2), ("gmcf-block", "1,8,1,1", 2),
    ("gmcf", "1,8,1,2", 0),  # n*h*w = 2
    ("gconv", "1,8,1,1", 0),  # no batch norm
])
def test_train_gradcheck_needs_two_values_a_channel_for_batch_norm(capsys, block, shape, rc):
    assert main(["gradcheck", "--block", block, "--channels", "8", "--input-shape", shape,
                 "--mode", "train"]) == rc
    if rc:
        # batch norm's own ShapeError names the shape it was given: a
        # gmcf-block's bottlenecks run at c/2
        seen = {"gmcf": "(1, 8, 1, 1)", "gmcf-block": "(1, 4, 1, 1)"}[block]
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "n*h*w >= 2" in err and seen in err, err


@pytest.mark.parametrize("module,key", [({"bn_eps": -2.0}, "bn_eps"),
                                        ({"bn_momentum": 1.5}, "bn_momentum")])
@pytest.mark.parametrize("command", [["golden", "generate"], ["profile"],
                                     ["gradcheck", "--mode", "eval"]],
                         ids=["golden", "profile", "gradcheck"])
def test_batch_norm_hyperparameters_out_of_range_are_a_config_error(tmp_path, capsys, command,
                                                                    module, key):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"block": "gmcf", "channels": 8, "dtype": "f64", "module": module}))
    out = tmp_path / "gold"
    assert main([*command, "--config", str(cfg), "--out", str(out)]) == 2
    _one_line_config_error(capsys, key)
    assert not out.exists()  # golden generate wrote no case


@pytest.mark.parametrize("mode,rc", [("train", 2), ("eval", 0)])
def test_train_gradcheck_with_dropout_is_a_config_error(tmp_path, capsys, mode, rc):
    # a train forward draws new dropout masks, so every probe would see
    # another function; eval-mode dropout is the identity
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"block": "gconv", "channels": 8, "dtype": "f64",
                               "input_shape": [1, 8, 4, 4], "module": {"dropout": 0.5}}))
    assert main(["gradcheck", "--config", str(cfg), "--mode", mode]) == rc
    if rc:
        _one_line_config_error(capsys, "dropout", "eval")


@pytest.mark.parametrize("args,says", [
    (["--specs", "-3", "--skip-blocks"], "--specs must be >= 0, got -3"),
    (["--specs", "-1"], "--specs must be >= 0, got -1"),
    (["--specs", "0", "--skip-blocks"], "compares nothing"),
])
def test_oracle_diff_with_nothing_to_compare_is_a_config_error(capsys, args, says):
    assert main(["oracle-diff", *args]) == 2
    _one_line_config_error(capsys, says)


@pytest.mark.parametrize("flags,module,kinds,shape", [
    (["--block", "gconv", "--input-shape", "1,16,5,5"], {"activation": "relu"}, ["gconv"],
     [1, 16, 5, 5]),
    ([], {}, ["mscf", "gconv", "gmcf", "gmcf-block"], [2, 16, 6, 6]),
], ids=["one-block", "every-kind"])
def test_oracle_diff_compares_the_blocks_the_run_config_names(tmp_path, monkeypatch, capsys,
                                                              flags, module, kinds, shape):
    # the blocks are built at the run config's channels and module, on
    # its input shape (default 2,C,6,6)
    import vrfnet.cli as cli
    from vrfnet.config import block_config

    built = []
    real = cli.build_block

    def spy(kind, bcfg, *rest):
        built.append((kind, bcfg))
        return real(kind, bcfg, *rest)

    monkeypatch.setattr(cli, "build_block", spy)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"module": module}))
    assert main(["oracle-diff", "--specs", "0", "--channels", "16", "--config", str(cfg),
                 *flags]) == 0
    reports = [json.loads(l) for l in capsys.readouterr().out.splitlines() if l.startswith("{")]
    assert [(r["op"], r["shapes"]) for r in reports] == [(kind, [shape]) for kind in kinds]
    assert built == [(kind, block_config(kind, 16, module)) for kind in kinds]


@pytest.mark.parametrize("command", [["oracle-diff", "--specs", "0"], ["golden", "generate"]],
                         ids=["oracle-diff", "golden-generate"])
def test_input_shape_channels_other_than_channels_is_a_config_error_without_a_block(
        tmp_path, capsys, command):
    # every kind is built at --channels, so the input's channel dim must match it
    assert main([*command, "--out", str(tmp_path), "--input-shape", "1,16,5,5"]) == 2
    _one_line_config_error(capsys, "input_shape channel dim 16 != channels 8")


@pytest.mark.parametrize("command", [["oracle-diff", "--specs", "0"], ["golden", "generate"]],
                         ids=["oracle-diff", "golden-generate"])
def test_each_block_kind_is_bounded_before_it_is_built_without_a_block(tmp_path, capsys,
                                                                          command):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"module": {"dilations": [10**30]}}))
    out = tmp_path / "gold"
    assert main([*command, "--config", str(cfg), "--out", str(out)]) == 2
    _one_line_config_error(capsys, "MscfBlock: conv scale0 (3x3, dilation", "bytes")
    assert not out.exists()


def test_oracle_diff_fails_a_nan_in_a_fast_conv_output(monkeypatch, capsys):
    # a NaN diff passed "diff > tol"; it fails "diff <= tol"
    real = vrfnet.cli.conv2d

    def one_nan(*args):
        y = real(*args).data.copy()
        y.flat[0] = np.nan
        return Tensor(y)

    monkeypatch.setattr(vrfnet.cli, "conv2d", one_nan)
    assert main(["oracle-diff", "--specs", "3", "--skip-blocks"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 3 and err.startswith("DIVERGED conv2d"), err


@pytest.mark.parametrize("command", [
    ["oracle-diff", "--specs", "0"],
    ["gradcheck", "--channels", "4", "--mode", "eval"],
    ["profile", "--channels", "4"],
], ids=["oracle-diff", "gradcheck", "profile"])
def test_a_forward_that_turns_finite_inputs_non_finite_fails_with_one_line(monkeypatch, capsys,
                                                                           command):
    real = vrfnet.blocks.select_scales

    def one_nan(*args):
        y = vrfnet.value_of(real(*args)).data.copy()
        y.flat[0] = np.nan
        return Tensor(y)

    monkeypatch.setattr(vrfnet.blocks, "select_scales", one_nan)
    assert main([*command, "--block", "mscf"]) == 1
    err = capsys.readouterr().err
    assert err == "FAIL: MscfBlock produced non-finite values\n"


def test_oracle_diff_zero_specs_still_compares_the_blocks(capsys):
    assert main(["oracle-diff", "--specs", "0"]) == 0
    assert "oracle-diff passed: 4 comparisons" in capsys.readouterr().out


def test_oracle_diff_zero_tolerance_fails(capsys):
    rc = main(["oracle-diff", "--specs", "10", "--seed", "3", "--skip-blocks", "--tol", "0"])
    assert rc == 1
    assert "DIVERGED" in capsys.readouterr().err


def test_profile_reports_and_manifest_cross_check(tmp_path, capsys):
    rc = main(["profile", "--block", "mscf", "--channels", "8",
               "--input-shape", "1,8,12,12", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    printed = [l for l in out.splitlines() if l.startswith("{")]
    payload = json.loads(printed[0])
    assert payload["params"] == payload["manifest_params"] == 579
    # it writes the records it prints
    assert (tmp_path / "profile.jsonl").read_text().splitlines() == printed


def test_profile_ffn_comparison_row(capsys):
    rc = main(["profile", "--block", "gconv", "--channels", "16",
               "--input-shape", "1,16,8,8", "--compare-ffn"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ffn-2c" in out
    lines = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
    gconv_params = next(l["params"] for l in lines if l["block"] == "gconv")
    ffn_params = next(l["params"] for l in lines if l["block"] == "ffn-2c")
    assert gconv_params < ffn_params


def test_golden_round_trip_and_corruption(tmp_path, capsys):
    out = tmp_path / "gold"
    assert main(["golden", "generate", "--out", str(out), "--seed", "5",
                 "--block", "gconv", "--channels", "6"]) == 0
    assert main(["golden", "verify", "--out", str(out)]) == 0
    assert "bit-exact" in capsys.readouterr().out

    # flip one payload byte: verification must fail and locate the element
    target = out / "gconv" / "output.vrft"
    raw = bytearray(target.read_bytes())
    flip = 23 + 8 * 5 + 2  # header is 23 bytes; corrupt inside element 5 (f64)
    raw[flip] ^= 0xFF
    target.write_bytes(bytes(raw))
    rc = main(["golden", "verify", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "element 5" in err


@pytest.mark.parametrize("corrupt", [
    lambda meta: json.dumps({k: v for k, v in json.loads(meta).items() if k != "channels"}),
    lambda meta: "{not json",
    lambda meta: json.dumps({**json.loads(meta), "module": {"dw_kernell": 3}}),
    lambda meta: json.dumps({**json.loads(meta), "module": {"dw_kernel": "3"}}),
    lambda meta: json.dumps({**json.loads(meta), "tolerance": 1e-6}),
    lambda meta: json.dumps({**json.loads(meta), "module": {"hidden": 10**30}}),
], ids=["missing-channels", "not-json", "module-unknown-key", "module-mistyped", "extra-key",
        "module-oversized"])
def test_golden_verify_malformed_meta_exits_1_with_one_line(tmp_path, capsys, corrupt):
    out = tmp_path / "gold"
    assert main(["golden", "generate", "--out", str(out), "--block", "gconv",
                 "--channels", "6"]) == 0
    meta = out / "gconv" / "meta.json"
    meta.write_text(corrupt(meta.read_text()))
    capsys.readouterr()
    assert main(["golden", "verify", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("corrupt data") and err.count("\n") == 1


@pytest.mark.parametrize("module,key", [({"bn_eps": -2.0}, "bn_eps"),
                                        ({"bn_momentum": -0.5}, "bn_momentum")])
def test_golden_verify_batch_norm_hyperparameters_out_of_range_are_corrupt_meta(
        tmp_path, capsys, module, key):
    out = tmp_path / "gold"
    assert main(["golden", "generate", "--out", str(out), "--block", "gmcf",
                 "--channels", "8"]) == 0
    _edit_meta(out / "gmcf" / "meta.json", module=module)
    capsys.readouterr()
    assert main(["golden", "verify", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("corrupt data") and key in err and err.count("\n") == 1


@pytest.mark.parametrize("module", [{"n_bottlenecks": 3, "e": 0.25}, {"e": 0.5}],
                         ids=["both", "e"])
def test_gmcf_block_keys_in_a_gmcf_module_are_a_config_error_or_corrupt_meta(
        tmp_path, capsys, module):
    # a bottleneck has no wrapper: these keys would change nothing it runs
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"block": "gmcf", "module": module}))
    assert main(["profile", "--config", str(cfg)]) == 2
    _one_line_config_error(capsys, "module(gmcf): unknown key(s)", "'e'")
    out = tmp_path / "gold"
    assert main(["golden", "generate", "--out", str(out), "--block", "gmcf",
                 "--channels", "8"]) == 0
    _edit_meta(out / "gmcf" / "meta.json", module=module)
    capsys.readouterr()
    assert main(["golden", "verify", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("corrupt data") and "unknown key(s)" in err and err.count("\n") == 1


def test_a_gmcf_block_module_configures_its_bottlenecks_at_the_width_they_run(
        tmp_path, capsys):
    # MSCF runs at e*c = 4 channels, which ca_ratio 4 divides; c = 10 it
    # does not, and the block has no MSCF at that width
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"block": "gmcf-block", "channels": 10,
                               "module": {"e": 0.4, "mscf": {"ca_ratio": 4}}}))
    assert main(["profile", "--config", str(cfg)]) == 0
    # a given hidden width reaches the bottlenecks: GConv's expansion is 2 * 5 wide
    cfg.write_text(json.dumps({"block": "gmcf-block", "channels": 8,
                               "module": {"gconv": {"hidden": 5}}}))
    assert main(["profile", "--config", str(cfg), "--out", str(tmp_path / "rep")]) == 0
    params = dict(read_manifest(tmp_path / "rep" / "params" / "params.manifest"))
    assert params["m0.gconv.proj.w"].shape == (10, 4, 1, 1)
    capsys.readouterr()


def _drop_last_line(path):
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def _repeat_first_line(path):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines + lines[:1]))


def _edit_meta(path, **changes):
    path.write_text(json.dumps({**json.loads(path.read_text()), **changes}))


def _prefixed_output(case):
    """The stored output followed by a second copy: same leading bytes, more of them."""
    y = read_tensor(case / "output.vrft")
    write_tensor(case / "output.vrft", Tensor(np.concatenate([y.data, y.data])))


def _set_first(path, value):
    """Rewrite the tensor file at ``path`` with its first element set to ``value``."""
    a = read_tensor(path).data.copy()
    a.flat[0] = value
    write_tensor(path, Tensor(a))


def _set_all_to_max(path):
    """Rewrite the tensor file at ``path`` with every element the largest
    finite value of its dtype: finite, but the forward overflows."""
    a = read_tensor(path).data
    write_tensor(path, Tensor(np.full_like(a, np.finfo(a.dtype).max)))


@pytest.mark.parametrize("corrupt", [
    lambda case: _drop_last_line(case / "params.manifest"),
    lambda case: _edit_meta(case / "meta.json", block="mscf"),
    lambda case: write_tensor(case / "bn.running_mean.vrft", Tensor(np.zeros((1, 5, 1, 1)))),
    lambda case: (case / "buffers.manifest").write_text(
        (case / "buffers.manifest").read_text().replace("bn.running_var\t", "bn.running_vax\t")),
    lambda case: _edit_meta(case / "meta.json", dtype="f32"),
    _prefixed_output,
    lambda case: _set_first(case / "mscf.scale0.w.vrft", np.nan),
    lambda case: _set_first(case / "bn.running_var.vrft", -1.0),
    lambda case: _set_all_to_max(case / "mscf.scale0.w.vrft"),
    lambda case: _repeat_first_line(case / "params.manifest"),
], ids=["param-missing", "block-changed", "buffer-width", "buffer-renamed", "f64-as-f32",
        "longer-output", "nan-param", "negative-running-var", "overflowing-param",
        "duplicate-name"])
def test_golden_verify_malformed_case_exits_1_with_one_line(tmp_path, capsys, corrupt):
    out = tmp_path / "gold"
    assert main(["golden", "generate", "--out", str(out), "--block", "gmcf",
                 "--channels", "8", "--dtype", "f64"]) == 0
    corrupt(out / "gmcf")
    capsys.readouterr()
    assert main(["golden", "verify", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "gmcf" in err


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_golden_verify_names_an_overflowing_forward_with_asserts_compiled_out(tmp_path, flags):
    # debug_finite raises in both interpreter modes and names the block
    out = tmp_path / "gold"
    assert main(["golden", "generate", "--out", str(out), "--block", "gmcf",
                 "--channels", "8", "--dtype", "f32"]) == 0
    _set_all_to_max(out / "gmcf" / "mscf.scale0.w.vrft")
    src = str(Path(vrfnet.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, *flags, "-m", "vrfnet.cli", "golden", "verify",
                           "--out", str(out)], capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("FAIL gmcf: ")
    assert proc.stderr.endswith("non-finite values\n"), proc.stderr
    assert "MscfBlock" in proc.stderr  # debug_finite names the block


def _rewrite_input(case, f):
    """Replace input.vrft by ``f`` of its array."""
    x = read_tensor(case / "input.vrft")
    write_tensor(case / "input.vrft", Tensor(f(x.data)))


@pytest.mark.parametrize("corrupt,says", [
    (lambda case: _rewrite_input(case, lambda x: x.astype(np.float64)), "float64"),
    (lambda case: _rewrite_input(case, lambda x: x[:, :5]), "(1, 5, 8, 8)"),
    (lambda case: _rewrite_input(case, lambda x: np.full_like(x, np.nan)), "non-finite"),
], ids=["f64-input", "5-channel-input", "nan-input"])
def test_golden_verify_checks_input_against_meta(tmp_path, capsys, corrupt, says):
    out = tmp_path / "gold"
    assert main(["golden", "generate", "--out", str(out), "--block", "gmcf",
                 "--channels", "8", "--dtype", "f32"]) == 0
    corrupt(out / "gmcf")
    capsys.readouterr()
    assert main(["golden", "verify", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("corrupt data") and err.count("\n") == 1
    assert "input.vrft" in err and says in err


def _f64_output(case):
    y = read_tensor(case / "output.vrft")
    write_tensor(case / "output.vrft", Tensor(y.data.astype(np.float64)))


@pytest.mark.parametrize("flags", [[], ["--use-oracle"]], ids=["bit-exact", "oracle"])
@pytest.mark.parametrize("corrupt,says", [(_prefixed_output, "(2, 8, 8, 8)"),
                                          (_f64_output, "float64")],
                         ids=["longer-output", "f64-output"])
def test_golden_verify_checks_output_against_meta_before_the_forward(tmp_path, monkeypatch,
                                                                    capsys, corrupt, says,
                                                                    flags):
    out = tmp_path / "gold"
    assert main(["golden", "generate", "--out", str(out), "--block", "gmcf",
                 "--channels", "8", "--dtype", "f32"]) == 0
    corrupt(out / "gmcf")
    capsys.readouterr()

    def no_forward(*args, **kwargs):
        raise AssertionError("a forward ran")

    monkeypatch.setattr(vrfnet.blocks.GmcfBottleneck, "forward", no_forward)
    monkeypatch.setattr(vrfnet.cli, "oracle_block", no_forward)
    assert main(["golden", "verify", "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("corrupt data") and err.count("\n") == 1
    assert "output.vrft" in err and says in err


@pytest.mark.parametrize("name", ["params.manifest", "buffers.manifest", "input.vrft",
                                  "output.vrft"])
def test_golden_verify_missing_case_file_exits_1(tmp_path, capsys, name):
    out = tmp_path / "gold"
    assert main(["golden", "generate", "--out", str(out), "--block", "gmcf",
                 "--channels", "8"]) == 0
    (out / "gmcf" / name).unlink()
    capsys.readouterr()
    assert main(["golden", "verify", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("corrupt data") and err.count("\n") == 1 and name in err


def test_golden_verify_missing_out_dir_exits_2(tmp_path, capsys):
    assert main(["golden", "verify", "--out", str(tmp_path / "absent")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error") and err.count("\n") == 1


def test_golden_verify_with_no_case_exits_2_naming_the_directory(tmp_path, capsys):
    # an empty directory, and one whose subdirectory holds no meta.json
    out = tmp_path / "gold"
    out.mkdir()
    for _ in range(2):
        assert main(["golden", "verify", "--out", str(out)]) == 2
        _one_line_config_error(capsys, str(out), "no golden case")
        (out / "gconv").mkdir(exist_ok=True)


@pytest.mark.parametrize("direction,flags", [("generate", ["--block", "gconv"]),
                                             ("verify", [])], ids=["generate", "verify"])
def test_golden_out_is_a_file_exits_2(tmp_path, capsys, direction, flags):
    out = tmp_path / "file"
    out.write_text("")
    assert main(["golden", direction, "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error") and err.count("\n") == 1


def test_fractional_gmcf_block_width_is_corrupt_meta_or_a_config_error(tmp_path, capsys):
    # e * c = 0.3 * 8 = 2.4: the wrapper's branch width is not an integer
    out = tmp_path / "gold"
    assert main(["golden", "generate", "--out", str(out), "--block", "gmcf-block"]) == 0
    _edit_meta(out / "gmcf-block" / "meta.json", module={"e": 0.3})
    capsys.readouterr()
    assert main(["golden", "verify", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("corrupt data") and "2.4" in err and err.count("\n") == 1
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"module": {"e": 0.3}}))
    assert main(["profile", "--block", "gmcf-block", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "2.4" in err and err.count("\n") == 1


def test_gmcf_block_whose_bottlenecks_cannot_be_built_is_corrupt_meta_or_a_config_error(
        tmp_path, capsys):
    # at c = 4 the bottlenecks run at e*c = 2 channels, which channel
    # attention's ca_ratio of 4 does not divide: the message names the
    # wrapper and that width, not only a width the user never gave
    out = tmp_path / "gold"
    assert main(["golden", "generate", "--out", str(out), "--block", "gmcf-block"]) == 0
    meta = out / "gmcf-block" / "meta.json"
    _edit_meta(meta, channels=4, input_shape=[1, 4, 8, 8])
    capsys.readouterr()
    assert main(["golden", "verify", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("corrupt data") and err.count("\n") == 1, err
    assert "module(gmcf-block): bottlenecks at e*c = 2 channels" in err, err
    assert main(["profile", "--block", "gmcf-block", "--channels", "4"]) == 2
    _one_line_config_error(capsys, "module(gmcf-block): bottlenecks at e*c = 2 channels")


def test_golden_verify_through_oracle(tmp_path, capsys):
    out = tmp_path / "gold"
    assert main(["golden", "generate", "--out", str(out), "--seed", "6",
                 "--block", "mscf", "--channels", "8"]) == 0
    assert main(["golden", "verify", "--out", str(out), "--use-oracle"]) == 0
    assert "oracle path" in capsys.readouterr().out


def test_golden_verify_through_oracle_fails_an_output_moved_past_the_tolerance(tmp_path,
                                                                               capsys):
    out = tmp_path / "gold"
    assert main(["golden", "generate", "--out", str(out), "--block", "gconv",
                 "--channels", "6"]) == 0
    y = read_tensor(out / "gconv" / "output.vrft")
    write_tensor(out / "gconv" / "output.vrft", Tensor(y.data + 1e-5))
    capsys.readouterr()
    assert main(["golden", "verify", "--out", str(out), "--use-oracle", "--tol", "1e-6"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("FAIL gconv (oracle path)"), lines


def test_golden_regeneration_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["golden", "generate", "--out", str(out), "--seed", "9",
                     "--block", "gmcf", "--channels", "8"]) == 0
    for name in ("input.vrft", "output.vrft"):
        assert (a / "gmcf" / name).read_bytes() == (b / "gmcf" / name).read_bytes()


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# records the BLAS thread variables when numpy is first imported, which
# is when its BLAS reads them
_NUMPY_IMPORT_SPY = f"""
import json, os, sys

class Spy:
    seen = None

    @classmethod
    def find_spec(cls, name, path=None, target=None):
        if name == "numpy" and cls.seen is None:
            cls.seen = {{v: os.environ.get(v) for v in {BLAS_THREAD_VARS!r}}}
        return None

sys.meta_path.insert(0, Spy)
import vrfnet.cli
print(json.dumps(Spy.seen))
"""


@pytest.mark.parametrize("env,want", [
    ({"VRF_THREADS": "3"}, ["3", "3", "3"]),
    ({"VRF_THREADS": "3", "OPENBLAS_NUM_THREADS": "2"}, ["3", "2", "3"]),
    ({}, [None, None, None]),
], ids=["capped", "blas-variable-wins", "uncapped"])
def test_vrf_threads_reaches_blas_before_numpy_loads(env, want):
    proc = _run_python(_NUMPY_IMPORT_SPY, env)
    assert json.loads(proc.stdout) == dict(zip(BLAS_THREAD_VARS, want))


def _run_python(code, env):
    """Run ``code`` in a new interpreter that finds vrfnet, under an
    environment holding none of the thread variables but ``env``."""
    src = str(Path(vrfnet.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    base = {k: v for k, v in os.environ.items() if k not in ("VRF_THREADS", *BLAS_THREAD_VARS)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**base, **env, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return proc


_BENCH_STAMP = """
import vrfnet
from vrfnet import GConvBlock, GconvConfig, bench
print(bench(GConvBlock(GconvConfig(c=2)), (1, 2, 4, 4), 3)["threads"])
"""


@pytest.mark.parametrize("first,env,want", [
    ("", {"VRF_THREADS": "3"}, "3"),
    ("import numpy", {"VRF_THREADS": "1"}, "1, not applied: numpy was loaded before vrfnet"),
    ("", {"VRF_THREADS": "3", "OPENBLAS_NUM_THREADS": "2"},
     "3, not applied: OPENBLAS_NUM_THREADS=2 was already set"),
    ("", {"VRF_THREADS": "3", "OMP_NUM_THREADS": "3"}, "3"),
], ids=["capped", "numpy-first", "blas-variable-wins", "blas-variable-agrees"])
def test_bench_stamps_the_thread_cap_only_where_it_reached_blas(first, env, want):
    proc = _run_python(first + "\n" + _BENCH_STAMP, env)
    assert proc.stdout == want + "\n"
