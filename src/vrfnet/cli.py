"""Command-line entry point: gradcheck, oracle-diff, profile, golden.

Exit codes are a stable contract: 0 pass, 1 check failure, 2 usage or
config error, each failure with a one-line message. The VRF_THREADS cap
is applied when the package is imported (see ``vrfnet/__init__.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from contextlib import nullcontext
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .blocks import block_gradient_errors, build_block, has_dropout
from .config import (BLOCK_KINDS, DTYPES, ConfigError, RunConfig, load_run_config,
                     parse_input_shape, run_config)
from .ops import ConvSpec, conv2d
from .oracle import compare, oracle_block, oracle_conv2d
from .profiler import BENCH_MIN_REPS, cost_report, count_params, ffn_cost, format_table
from .tensor import NonFiniteError, Rng, ShapeError
from .vrft import (
    FormatError,
    manifest_element_count,
    read_golden_meta,
    read_manifest,
    read_tensor,
    write_golden_meta,
    write_manifest,
    write_tensor,
)

GOLDEN_META = "meta.json"
# Each command's defaults, for the keys that neither --config nor a flag
# sets. gradcheck's tolerance bounds the max relative error of f64 finite
# differences; oracle-diff's and golden --use-oracle's the max abs
# difference of f32 outputs from the f64 oracle. A default input shape
# leaves its channel dim (None) to the run's channels.
COMMAND_DEFAULTS = {
    "gradcheck": {"dtype": "f64", "tolerance": 1e-5, "input_shape": (1, None, 6, 6)},
    "oracle-diff": {"dtype": "f32", "tolerance": 1e-6, "input_shape": (2, None, 6, 6)},
    "profile": {"dtype": "f64", "input_shape": (1, None, 20, 20)},
    "golden": {"dtype": "f64", "tolerance": 1e-6, "input_shape": (1, None, 8, 8)},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vrf",
        description="Variable receptive-field block library: checks, diffs, profiles, goldens.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        p = sub.add_parser(name, help=help)
        own = COMMAND_DEFAULTS[name]
        tol = f" (default {own['tolerance']:g})" if "tolerance" in own else ""
        shape = ",".join("C" if d is None else str(d) for d in own["input_shape"])
        p.add_argument("--config", type=Path, help="JSON run config (strict keys)")
        p.add_argument("--block", choices=BLOCK_KINDS)
        p.add_argument("--seed", type=int, help=f"base seed (default {RunConfig.seed})")
        p.add_argument("--dtype", choices=list(DTYPES), help=f"(default {own['dtype']})")
        p.add_argument("--tol", type=float, help="tolerance override" + tol)
        p.add_argument("--out", type=Path, help="output directory for reports/goldens")
        p.add_argument("--channels", type=int,
                       help=f"block channel count (default {RunConfig.channels})")
        p.add_argument("--input-shape", type=str, help=f"n,c,h,w (default {shape})")
        return p

    g = command("gradcheck", "finite-difference check of every parameter and input")
    g.add_argument("--mode", choices=["train", "eval"], default="train")

    o = command("oracle-diff", "fast path vs brute-force oracle")
    o.add_argument("--specs", type=int, default=200, help="random conv specs in the grid")
    o.add_argument("--skip-blocks", action="store_true", help="conv grid only")

    p = command("profile", "parameter/MAC/FLOP report, optional wall-clock bench")
    p.add_argument("--reps", type=int, default=0, help="bench repetitions (0 = no timing)")
    p.add_argument("--compare-ffn", action="store_true",
                   help="add a plain pointwise FFN (hidden 2c) comparison row")

    gold = command("golden", "generate or verify golden input/params/output files")
    gold.add_argument("direction", choices=["generate", "verify"])
    gold.add_argument("--use-oracle", action="store_true",
                      help="verify by recomputing through the oracle path (tolerance mode)")
    return parser


def _run_config(args):
    """The --config file (or none) with the flags that were given on top,
    and the command's COMMAND_DEFAULTS for keys neither one sets."""
    flags = {"block": args.block, "seed": args.seed, "dtype": args.dtype, "tolerance": args.tol,
             "out_dir": args.out, "channels": args.channels,
             "input_shape": parse_input_shape(args.input_shape) if args.input_shape else None}
    flags = {k: v for k, v in flags.items() if v is not None}
    defaults = COMMAND_DEFAULTS[args.command]
    # the flags go on top of the file before the one validation
    if args.config:
        return load_run_config(args.config, flags, **defaults)
    return run_config({}, "flags", flags, **defaults)


def _cases(cfg):
    """The run config if it names a block, else one for each block kind."""
    for kind in (cfg.block,) if cfg.block else BLOCK_KINDS:
        yield replace(cfg, block=kind)


def _make_block(cfg, rng):
    """The block ``cfg`` names, initialized from ``rng`` (None: zeros);
    ConfigError if a conv of it cannot index a plane of cfg's input shape.
    Every command builds its blocks here."""
    block = build_block(cfg.block, cfg.build_block_config(), rng, cfg.np_dtype)
    block.check_fits(cfg.input_shape)
    return block


def _emit(out_dir, name: str, lines: "list[str]") -> None:
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / name).write_text("\n".join(lines) + "\n")


def cmd_gradcheck(args) -> int:
    cfg = _run_config(args)
    if cfg.dtype != "f64":
        raise ConfigError("gradcheck requires --dtype f64 (f32 finite differences are too noisy)")
    tol = cfg.tolerance
    block = _make_block(cfg, Rng(cfg.seed))
    shape = cfg.input_shape
    n, _, h, w = shape
    # the buffers are batch norm's running statistics; in train mode it
    # normalizes with the variance over n*h*w values
    if args.mode == "train" and block.buffers() and n * h * w < 2:
        raise ConfigError(f"train mode needs n*h*w >= 2 for batch norm's variance, "
                          f"got input shape {shape}")
    if args.mode == "train" and has_dropout(block):
        raise ConfigError("train mode needs dropout 0 (new masks every forward); use --mode eval")
    x = Rng(cfg.seed + 1).tensor(shape, -2.0, 2.0, cfg.np_dtype)
    errors = block_gradient_errors(block, x, mode=args.mode)

    lines, failures = [], []
    for name, err in errors.items():
        status = "ok" if err < tol else "FAIL"
        print(f"{status:4s} {name:30s} max_rel_err={err:.3e}")
        lines.append(json.dumps({"name": name, "max_rel_err": err, "tol": tol,
                                 "pass": err < tol}, sort_keys=True))
        if err >= tol:
            failures.append(name)
    _emit(cfg.out_dir, "gradcheck.jsonl", lines)
    if failures:
        print(f"gradcheck FAILED for: {', '.join(failures)} (tol {tol:g})", file=sys.stderr)
        return 1
    print(f"gradcheck passed: {len(errors)} gradients within {tol:g}")
    return 0


def _grid_specs(rng, count: int):
    """Random conv specs over the documented grid axes."""
    for _ in range(count):
        k = rng.choice((1, 3, 7))
        d = rng.choice((1, 3, 5, 7))
        c = rng.choice((2, 3, 4, 6))
        groups = rng.choice((1, c))
        c_out = c * rng.choice((1, 2)) if groups == c else rng.choice((1, 2, 3, 4, 6, 8))
        bias = rng.choice((True, False))
        n = rng.choice((1, 2))
        h = rng.integers(5, 11)
        w = rng.integers(5, 11)
        yield ConvSpec(c, c_out, k, dilation=d, groups=groups, bias=bias), n, h, w


def _oracle_reports(cfg, specs: int, cases):
    """(label, report) of each fast-vs-oracle comparison: ``specs`` random
    convs of the grid, then the block of each run config of ``cases``."""
    dtype = cfg.np_dtype
    rng = Rng(cfg.seed)
    for spec, n, h, w in _grid_specs(rng, specs):
        x = rng.tensor((n, spec.c_in, h, w), -1.0, 1.0, dtype)
        wt = rng.tensor(spec.weight_shape, -1.0 / spec.fan_in, 1.0 / spec.fan_in, dtype)
        bt = rng.tensor(spec.bias_shape, -0.1, 0.1, dtype) if spec.bias else None
        fast = conv2d(x, wt, bt, spec)
        ref = oracle_conv2d(x, wt, bt, spec)
        report = compare(f"conv2d[{spec.k}x{spec.k} d{spec.dilation} g{spec.groups}]",
                         fast, ref, cfg.seed)
        report.shapes = [x.shape, spec.weight_shape]
        yield report.op, report
    for case in cases:
        kind = case.block
        block = _make_block(case, Rng(cfg.seed + 7))
        x = Rng(cfg.seed + 8).tensor(cfg.input_shape, -1.0, 1.0, dtype)
        fast = block.forward(x, mode="eval")
        ref = oracle_block(kind, block.cfg, x, block.params(), block.buffers(), "eval")
        yield f"block {kind}", compare(kind, fast, ref, cfg.seed)


def cmd_oracle_diff(args) -> int:
    cfg = _run_config(args)
    if args.specs < 0:
        raise ConfigError(f"--specs must be >= 0, got {args.specs}")
    if args.specs == 0 and args.skip_blocks:
        raise ConfigError("--specs 0 with --skip-blocks compares nothing")

    tol = cfg.tolerance
    lines: list[str] = []
    worst = 0.0
    failed = False
    for label, report in _oracle_reports(cfg, args.specs, () if args.skip_blocks else _cases(cfg)):
        lines.append(json.dumps(asdict(report), sort_keys=True))
        worst = max(worst, report.max_abs_diff)
        if report.max_abs_diff > tol:
            failed = True
            print(f"DIVERGED {label}: {report.max_abs_diff:.3e} > {tol:g}", file=sys.stderr)

    for line in lines:
        print(line)
    _emit(cfg.out_dir, "oracle_diff.jsonl", lines)
    if failed:
        return 1
    print(f"oracle-diff passed: {len(lines)} comparisons, max abs diff {worst:.3e} <= {tol:g}")
    return 0


def cmd_profile(args) -> int:
    cfg = _run_config(args)
    if args.reps and args.reps < BENCH_MIN_REPS:
        raise ConfigError(f"--reps must be 0 (no timing) or >= {BENCH_MIN_REPS}, got {args.reps}")

    block = _make_block(cfg, Rng(cfg.seed))
    shape = cfg.input_shape
    report = cost_report(block, shape, bench_reps=args.reps)

    # cross-check the analytic count against bytes on disk
    with (tempfile.TemporaryDirectory() if cfg.out_dir is None
          else nullcontext(cfg.out_dir / "params")) as manifest_dir:
        manifest = write_manifest(manifest_dir, "params.manifest", block.params())
        manifest_params = manifest_element_count(manifest)
    payload = asdict(report)
    payload["manifest_params"] = manifest_params

    reports = [report]
    if args.compare_ffn:
        reports.append(ffn_cost(cfg.channels, shape))

    print(format_table(reports))
    print(json.dumps(payload, sort_keys=True))
    if args.compare_ffn:
        print(json.dumps(asdict(reports[1]), sort_keys=True))
    _emit(cfg.out_dir, "profile.jsonl",
          [json.dumps(asdict(r), sort_keys=True) for r in reports])

    if manifest_params != count_params(block):
        print(f"param count mismatch: analytic {count_params(block)} vs manifest "
              f"{manifest_params}", file=sys.stderr)
        return 1
    return 0


def cmd_golden(args) -> int:
    cfg = _run_config(args)
    out_dir = cfg.out_dir
    if out_dir is None:
        raise ConfigError("golden needs --out <dir>")
    tol = cfg.tolerance

    if args.direction == "generate":
        for i, case in enumerate(_cases(cfg)):
            case = replace(case, seed=cfg.seed + i)
            rng = Rng(case.seed)
            block = _make_block(case, rng)
            case_dir = out_dir / case.block
            case_dir.mkdir(parents=True, exist_ok=True)
            x = rng.tensor(case.input_shape, -1.0, 1.0, case.np_dtype)
            y = block.forward(x, mode="eval")
            write_tensor(case_dir / "input.vrft", x)
            write_tensor(case_dir / "output.vrft", y)
            write_manifest(case_dir, "params.manifest", block.params())
            write_manifest(case_dir, "buffers.manifest", block.buffers())
            write_golden_meta(case_dir / GOLDEN_META, case)
            print(f"golden written: {case_dir}")
        return 0

    # verify
    cases = sorted(d for d in out_dir.iterdir() if (d / GOLDEN_META).exists())
    if not cases:
        raise ConfigError(f"{out_dir} holds no golden case (a directory with {GOLDEN_META})")
    failures = []
    for case_dir in cases:
        meta = read_golden_meta(case_dir / GOLDEN_META)
        dtype = np.dtype(meta.np_dtype)
        bcfg = meta.build_block_config()
        try:
            block = _make_block(meta, None)
        except ConfigError as exc:  # sizes no array can index: the meta is corrupt
            raise FormatError(f"{case_dir}: {exc}") from None
        try:
            block.set_params(dict(read_manifest(case_dir / "params.manifest")))
            block.set_buffers(dict(read_manifest(case_dir / "buffers.manifest")))
            x = read_tensor(case_dir / "input.vrft")
            stored = read_tensor(case_dir / "output.vrft")
        except (KeyError, ShapeError) as exc:
            # KeyError's str() is the repr of its message; args[0] is the text
            raise FormatError(f"{case_dir}: {exc.args[0]}") from None
        except FileNotFoundError as exc:
            # a file missing from a case is corrupt data; a missing --out
            # directory stays a usage error (main)
            raise FormatError(f"{case_dir}: missing {Path(exc.filename).name}") from None
        declared = (meta.input_shape, dtype)
        if (x.shape, x.dtype) != declared:
            raise FormatError(f"{case_dir}: input.vrft is {x.shape} {x.dtype}, "
                              f"meta.json says {declared[0]} {declared[1]}")
        # checked before the forward, whose debug_finite check would
        # otherwise blame a block for them
        for name, t in {"input.vrft": x, **block.params(), **block.buffers()}.items():
            if not np.isfinite(t.data).all():
                raise FormatError(f"{case_dir}: {name} has non-finite values")
            if name.endswith("running_var") and (t.data < 0).any():
                raise FormatError(f"{case_dir}: {name} has negative variances")
        # finite values can still overflow the forward: that is a failed
        # case, not a numpy warning. debug_finite names the block that
        # overflowed; the oracle checks nothing, so its output is scanned.
        try:
            with np.errstate(all="ignore"):
                ref = (oracle_block(meta.block, bcfg, x, block.params(), block.buffers(), "eval")
                       if args.use_oracle else block.forward(x, mode="eval"))
            if args.use_oracle and not np.isfinite(ref.data).all():
                raise NonFiniteError("output has non-finite values")
        except NonFiniteError as exc:
            print(f"FAIL {case_dir.name}: {exc}", file=sys.stderr)
            failures.append(case_dir.name)
            continue
        expected = (ref.shape, dtype)
        if (stored.shape, stored.dtype) != expected:
            print(f"FAIL {case_dir.name}: stored output is {stored.shape} {stored.dtype}, "
                  f"expected {expected[0]} {expected[1]}", file=sys.stderr)
            failures.append(case_dir.name)
            continue
        if args.use_oracle:
            report = compare(meta.block, stored, ref, meta.seed)
            ok = report.max_abs_diff <= tol
            print(f"{'ok  ' if ok else 'FAIL'} {case_dir.name} (oracle path) "
                  f"max_abs_diff={report.max_abs_diff:.3e} tol={tol:g}")
            if not ok:
                failures.append(case_dir.name)
            continue
        got = ref.data.tobytes()
        want = stored.data.tobytes()
        if got != want:
            byte_idx = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
            elem = byte_idx // stored.dtype.itemsize
            print(f"FAIL {case_dir.name}: first mismatch at element {elem} "
                  f"(byte {byte_idx})", file=sys.stderr)
            failures.append(case_dir.name)
        else:
            print(f"ok   {case_dir.name} bit-exact ({stored.size} elements)")
    if failures:
        return 1
    return 0


_COMMANDS = {
    "gradcheck": cmd_gradcheck,
    "oracle-diff": cmd_oracle_diff,
    "profile": cmd_profile,
    "golden": cmd_golden,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FormatError as exc:
        print(f"corrupt data: {exc}", file=sys.stderr)
        return 1
    except (ShapeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
