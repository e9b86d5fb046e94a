"""Command-line surface.

Subcommands:
    edge         Sobel edge magnitude of a PGM/PPM image, written as PGM.
    forward      full pipeline on a config, RunReport to stdout.
    gradcheck    complex-step gradient verification suite.
    weights      dump parameters, or load a dump and verify bit-exactly.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error, 3 I/O or file-format error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from .aggregation import MODES
from .config import RunConfig, load_config, noise_size, parse_seed
from .edge_attention import edge_map
from .errors import (
    ConfigError, ContractError, DomainError, FormatError, UsageError,
)
from .netpbm import read_image, to_luma, write_image
from .network import Network, noise_image
from .report import build_report
from .tensor import Tensor
from .verify import SCOPES, checks_for_scope, run_checks
from .weights import (
    CHECK_PREFIX, load_into_parameters, read_container, split_entries,
    write_container,
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="edgeneck",
        description="Edge-guided feature pyramid kernels: run, inspect, verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_edge = sub.add_parser("edge", help="write the Sobel edge magnitude of an image")
    p_edge.add_argument("input", help="source image (binary PGM or PPM, 8-bit)")
    p_edge.add_argument("output", help="destination PGM path")

    p_fwd = sub.add_parser("forward", help="run the full pipeline and print a report")
    p_fwd.add_argument("--config", help="key=value config file")
    p_fwd.add_argument("--seed", type=parse_seed, help="override the config seed")
    p_fwd.add_argument("--fa-mode", choices=MODES,
                       help="override the aggregation mode")
    p_fwd.add_argument("--weights", help="load parameters from a container first")
    p_fwd.add_argument("--dump-dir", help="write tensors.erlw and report.txt here")
    p_fwd.add_argument("--timings", action="store_true",
                       help="include per-stage wall times (non-reproducible lines)")

    p_gc = sub.add_parser("gradcheck", help="complex-step gradient verification")
    p_gc.add_argument("--scope", choices=SCOPES, default="ops")
    p_gc.add_argument("--seed", type=parse_seed, default=1)

    p_w = sub.add_parser("weights", help="parameter serialization round-trip")
    p_w.add_argument("action", choices=("dump", "load-verify"))
    p_w.add_argument("path", help="container file")
    p_w.add_argument("--config", help="key=value config file")
    p_w.add_argument("--seed", type=parse_seed, help="override the config seed")
    return parser


def _load_cfg(args):
    cfg = load_config(args.config) if args.config else RunConfig()
    return cfg.override(**{f.name: getattr(args, f.name, None) for f in fields(RunConfig)})


def _build_network(cfg):
    return Network(seed=cfg.seed, channels=cfg.channels,
                   pyramid_width=cfg.pyramid_width, fa_mode=cfg.fa_mode,
                   reduction=cfg.reduction_ratio, dtype=cfg.np_dtype)


def _load_input(cfg):
    dtype = cfg.np_dtype
    size = noise_size(cfg.input)
    if size is not None:
        return noise_image(cfg.seed, *size, dtype)
    magic, pixels = read_image(cfg.input)
    scaled = pixels.astype(np.float64) / 255.0
    if magic == "P6":
        chw = scaled.transpose(2, 0, 1)
    else:
        chw = np.broadcast_to(scaled, (3,) + scaled.shape).copy()
    return Tensor(chw[None].astype(dtype))


def cmd_edge(args):
    magic, pixels = read_image(args.input)
    luma = to_luma(magic, pixels) / 255.0
    x = Tensor(luma[None, None].astype(np.float32))
    mag = edge_map(x).data[0, 0]
    spread = float(mag.max() - mag.min())
    if spread > 0:
        scaled = np.rint((mag - mag.min()) / spread * 255.0)
    else:
        scaled = np.zeros_like(mag)  # flat input: emit all black, not 0/0
    write_image(args.output, scaled.astype(np.uint8))
    h, w = mag.shape
    print(f"{args.output}: {w}x{h} edge magnitude written")
    return 0


def cmd_forward(args):
    cfg = _load_cfg(args)
    net = _build_network(cfg)
    if args.weights:
        entries, _ = split_entries(read_container(args.weights))
        load_into_parameters(net.parameter_map(), entries)
    image = _load_input(cfg)
    result = net.forward(image)
    report = build_report(cfg, result.named, result.times if args.timings else None)
    sys.stdout.write(report)
    if cfg.dump_dir:
        os.makedirs(cfg.dump_dir, exist_ok=True)
        tensors = {name: t.data for name, t in result.named.items()}
        write_container(os.path.join(cfg.dump_dir, "tensors.erlw"), tensors)
        with open(os.path.join(cfg.dump_dir, "report.txt"), "w", encoding="utf-8") as fh:
            fh.write(report)
    return 0


def cmd_gradcheck(args):
    checks = checks_for_scope(args.scope, args.seed)
    ok = run_checks(checks, emit=print)
    print(f"gradcheck scope={args.scope}: {'all ok' if ok else 'FAILURES'}")
    return 0 if ok else 1


def _reference_outputs(net, image):
    """The forward's ``out.s*`` arrays, under their reference-entry names."""
    named = net.forward(image).named
    return {CHECK_PREFIX + name: t.data for name, t in named.items() if name.startswith("out.")}


def cmd_weights(args):
    cfg = _load_cfg(args)
    net = _build_network(cfg)
    image = _load_input(cfg)

    if args.action == "dump":
        entries = {p.name: p.value.data for p in net.parameters()}
        entries.update(_reference_outputs(net, image))
        write_container(args.path, entries)
        print(f"{args.path}: wrote {len(entries)} tensors")
        return 0

    params, checks = split_entries(read_container(args.path))
    if not checks:
        raise FormatError(f"{args.path}: container holds no reference outputs to verify")
    load_into_parameters(net.parameter_map(), params)
    produced = _reference_outputs(net, image)
    mismatched = []
    for name, stored in checks.items():
        fresh = produced.get(name)
        if fresh is None:
            raise FormatError(f"{args.path}: unexpected reference entry {name!r}")
        if fresh.shape != stored.shape or fresh.tobytes() != stored.tobytes():
            mismatched.append(name)
    if mismatched:
        print(f"{args.path}: forward output differs from stored reference: "
              + ", ".join(sorted(mismatched)))
        return 1
    print(f"{args.path}: verified {len(checks)} outputs bit-exact after reload")
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handlers = {
        "edge": cmd_edge,
        "forward": cmd_forward,
        "gradcheck": cmd_gradcheck,
        "weights": cmd_weights,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, UsageError, DomainError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
