"""Command-line entry point: gradcheck, oracle-diff, profile, golden
generate and golden verify, each offering only the flags it reads.

Exit codes are a stable contract: 0 pass, 1 check failure, 2 usage or
config error, each failure with a one-line message. No library rule is
restated here: its error reaches ``main``, which maps it to an exit
code; a forward that turns finite inputs into NaN or inf exits 1. A
report writes a NaN or inf as null. VRF_THREADS is applied on import.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
from contextlib import nullcontext
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from .blocks import block_gradient_errors, build_block
from .config import (BLOCK_KINDS, DTYPES, ConfigError, RunConfig, load_run_config,
                     parse_input_shape, run_config)
from .ops import ConvSpec, conv2d
from .oracle import compare, oracle_block, oracle_conv2d
from .profiler import cost_report, count_params, ffn_cost, format_table
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

GOLDEN_META, GOLDEN_INPUT, GOLDEN_OUTPUT = "meta.json", "input.vrft", "output.vrft"
GOLDEN_PARAMS, GOLDEN_BUFFERS = "params.manifest", "buffers.manifest"
# Each command's defaults, for the keys that neither --config nor a flag
# sets; a command offers --tol where it has a tolerance and the block
# flags where it has an input shape. gradcheck's tolerance bounds the max
# relative error of f64 finite differences; oracle-diff's and golden
# verify --use-oracle's the max abs difference of f32 outputs from the
# f64 oracle. A default input shape leaves its channel dim to channels.
COMMAND_DEFAULTS = {
    "gradcheck": {"dtype": "f64", "tolerance": 1e-5, "input_shape": (1, None, 6, 6)},
    "oracle-diff": {"dtype": "f32", "tolerance": 1e-6, "input_shape": (2, None, 6, 6)},
    "profile": {"dtype": "f64", "input_shape": (1, None, 20, 20)},
    "golden generate": {"dtype": "f64", "input_shape": (1, None, 8, 8)},
    "golden verify": {"tolerance": 1e-6},
}
_RUN_KEYS = {f.name for f in fields(RunConfig)}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vrf",
        description="Variable receptive-field block library: checks, diffs, profiles, goldens.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, parent=sub):
        p = parent.add_parser(name.split()[-1], help=help)
        p.set_defaults(command=name)
        own = COMMAND_DEFAULTS[name]
        builds = "input_shape" in own  # the blocks it builds come from the flags
        p.add_argument("--config", type=Path, help="JSON run config (strict keys)")
        if builds:
            p.add_argument("--block", choices=BLOCK_KINDS)
            p.add_argument("--seed", type=int, help=f"base seed (default {RunConfig.seed})")
            p.add_argument("--dtype", choices=list(DTYPES), help=f"(default {own['dtype']})")
        if "tolerance" in own:
            p.add_argument("--tol", dest="tolerance", metavar="TOL", type=float,
                           help=f"tolerance override (default {own['tolerance']:g})")
        p.add_argument("--out", dest="out_dir", metavar="OUT", type=Path,
                       help="output directory for reports/goldens")
        if builds:
            shape = ",".join("C" if d is None else str(d) for d in own["input_shape"])
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

    gold = sub.add_parser("golden", help="generate or verify golden input/params/output files")
    directions = gold.add_subparsers(dest="direction", required=True)
    command("golden generate", "write one golden case per block kind", directions)
    v = command("golden verify", "recompute each golden case from its meta.json", directions)
    v.add_argument("--use-oracle", action="store_true",
                   help="verify by recomputing through the oracle path (tolerance mode)")
    return parser


def _run_config(args):
    """The --config file (or none) with the flags that were given on top,
    and the command's COMMAND_DEFAULTS for keys neither one sets."""
    flags = {k: v for k, v in vars(args).items() if k in _RUN_KEYS and v is not None}
    if "input_shape" in flags:
        flags["input_shape"] = parse_input_shape(flags["input_shape"])
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


def _record(record: dict) -> str:
    """One report line of strict JSON; a NaN or inf number is written as null."""
    return json.dumps({k: None if isinstance(v, float) and not math.isfinite(v) else v
                       for k, v in record.items()}, sort_keys=True, allow_nan=False)


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
    x = Rng(cfg.seed + 1).tensor(cfg.input_shape, -2.0, 2.0, cfg.np_dtype)
    errors = block_gradient_errors(block, x, mode=args.mode)

    lines, failures = [], []
    for name, err in errors.items():
        ok = err < tol  # False for a NaN error
        print(f"{'ok' if ok else 'FAIL':4s} {name:30s} max_rel_err={err:.3e}")
        lines.append(_record({"name": name, "max_rel_err": err, "tol": tol, "pass": ok}))
        if not ok:
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
        lines.append(_record(asdict(report)))
        worst = max(worst, report.max_abs_diff)
        if not report.max_abs_diff <= tol:  # a NaN diff fails
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
    block = _make_block(cfg, Rng(cfg.seed))
    report = cost_report(block, cfg.input_shape, bench_reps=args.reps)

    # cross-check the analytic count against bytes on disk
    with (tempfile.TemporaryDirectory() if cfg.out_dir is None
          else nullcontext(cfg.out_dir / "params")) as manifest_dir:
        manifest = write_manifest(manifest_dir, "params.manifest", block.params())
        manifest_params = manifest_element_count(manifest)
    reports = [report, ffn_cost(cfg.channels, cfg.input_shape)] if args.compare_ffn else [report]
    lines = [_record({**asdict(report), "manifest_params": manifest_params}),
             *(_record(asdict(r)) for r in reports[1:])]
    print(format_table(reports), *lines, sep="\n")
    _emit(cfg.out_dir, "profile.jsonl", lines)

    if manifest_params != count_params(block):
        print(f"param count mismatch: analytic {count_params(block)} vs manifest "
              f"{manifest_params}", file=sys.stderr)
        return 1
    return 0


def _golden_run(args):
    """A golden command's run config, which must name --out."""
    cfg = _run_config(args)
    if cfg.out_dir is None:
        raise ConfigError("golden needs --out <dir>")
    return cfg


def cmd_golden_generate(args) -> int:
    cfg = _golden_run(args)
    for i, case in enumerate(_cases(cfg)):
        case = replace(case, seed=cfg.seed + i)
        rng = Rng(case.seed)
        block = _make_block(case, rng)
        case_dir = cfg.out_dir / case.block
        case_dir.mkdir(parents=True, exist_ok=True)
        x = rng.tensor(case.input_shape, -1.0, 1.0, case.np_dtype)
        y = block.forward(x, mode="eval")
        write_tensor(case_dir / GOLDEN_INPUT, x)
        write_tensor(case_dir / GOLDEN_OUTPUT, y)
        write_manifest(case_dir, GOLDEN_PARAMS, block.params())
        write_manifest(case_dir, GOLDEN_BUFFERS, block.buffers())
        write_golden_meta(case_dir / GOLDEN_META, case)
        print(f"golden written: {case_dir}")
    return 0


def cmd_golden_verify(args) -> int:
    cfg = _golden_run(args)
    cases = sorted(d for d in cfg.out_dir.iterdir() if (d / GOLDEN_META).exists())
    if not cases:
        raise ConfigError(f"{cfg.out_dir} holds no golden case (a directory with {GOLDEN_META})")
    failures = []
    for case_dir in cases:
        meta = read_golden_meta(case_dir / GOLDEN_META)
        try:
            block = _make_block(meta, None)
        except ConfigError as exc:  # sizes no array can index: the meta is corrupt
            raise FormatError(f"{case_dir}: {exc}") from None
        try:
            block.set_params(dict(read_manifest(case_dir / GOLDEN_PARAMS)))
            block.set_buffers(dict(read_manifest(case_dir / GOLDEN_BUFFERS)))
            x = read_tensor(case_dir / GOLDEN_INPUT)
            stored = read_tensor(case_dir / GOLDEN_OUTPUT)
        except (KeyError, ShapeError) as exc:
            # KeyError's str() is the repr of its message; args[0] is the text
            raise FormatError(f"{case_dir}: {exc.args[0]}") from None
        except FileNotFoundError as exc:
            # a file missing from a case is corrupt data; a missing --out
            # directory stays a usage error (main)
            raise FormatError(f"{case_dir}: missing {Path(exc.filename).name}") from None
        # every block keeps its input's shape, so both files have meta's
        declared = (meta.input_shape, np.dtype(meta.np_dtype))
        for name, t in ((GOLDEN_INPUT, x), (GOLDEN_OUTPUT, stored)):
            if (t.shape, t.dtype) != declared:
                raise FormatError(f"{case_dir}: {name} is {t.shape} {t.dtype}, "
                                  f"{GOLDEN_META} says {declared[0]} {declared[1]}")
        # checked before the forward, whose debug_finite check would
        # otherwise blame a block for them
        for name, t in {GOLDEN_INPUT: x, **block.params(), **block.buffers()}.items():
            if not np.isfinite(t.data).all():
                raise FormatError(f"{case_dir}: {name} has non-finite values")
            if name.endswith("running_var") and (t.data < 0).any():
                raise FormatError(f"{case_dir}: {name} has negative variances")
        # finite values can still overflow the forward: that is a failed
        # case, not a numpy warning. debug_finite names the block that
        # overflowed; the oracle checks nothing, so its output is scanned.
        try:
            with np.errstate(all="ignore"):
                ref = (oracle_block(meta.block, block.cfg, x, block.params(),
                                    block.buffers(), "eval")
                       if args.use_oracle else block.forward(x, mode="eval"))
            if args.use_oracle and not np.isfinite(ref.data).all():
                raise NonFiniteError("output has non-finite values")
        except NonFiniteError as exc:
            print(f"FAIL {case_dir.name}: {exc}", file=sys.stderr)
            failures.append(case_dir.name)
            continue
        if args.use_oracle:
            report = compare(meta.block, stored, ref, meta.seed)
            ok = report.max_abs_diff <= cfg.tolerance
            print(f"{'ok  ' if ok else 'FAIL'} {case_dir.name} (oracle path) "
                  f"max_abs_diff={report.max_abs_diff:.3e} tol={cfg.tolerance:g}")
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
    "golden generate": cmd_golden_generate,
    "golden verify": cmd_golden_verify,
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
    except NonFiniteError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    except (ShapeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
