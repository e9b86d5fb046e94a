"""edgeneck benchmark: one workload, one process, one closed loop.

Run from the root of a checkout::

    python3 perfbench/run.py --workload infer --seed 1 --seconds 25 --trace 0

Workloads are ``infer``, ``train`` and ``verify`` (see ``workloads.py``).
With ``--trace 0`` the run is untraced and reports the end-to-end metrics;
with ``--trace 1`` it wraps the library's entry points in spans and
reports the per-layer metrics instead.  Stdout carries one ``name = value
unit`` line per metric, the environment and notes, and as its last line
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

The library is imported from ``src/`` of the checkout and nowhere else;
without it the run exits 2 and prints no result.  A trace target that is
missing or records no call exits 3, naming the target.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("infer", "train", "verify")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="edgeneck benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(ROOT / ".git" / ref)
    if loose:
        return loose
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def cache_sizes():
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level, size = _read(index / "level"), _read(index / "size")
        if level in ("2", "3") and size:
            sizes[f"l{level}"] = size
    return sizes


def cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def blas_threads(np):
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "lib*blas*.so*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(np, threads):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = cache_sizes()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "l2": caches.get("l2", "unknown"),
        "l3": caches.get("l3", "unknown"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np) or f"{threads} (requested)",
        "git_commit": git_commit() or "unknown (not a git checkout)",
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "edgeneck" / "__init__.py").is_file():
        print(f"perfbench: no edgeneck sources under {SRC}", file=sys.stderr)
        return 2
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(0, str(SRC))

    import numpy as np

    import workloads
    from tracing import MissingTarget

    traced = workloads.Traced() if args.trace else None
    try:
        if args.workload == "verify":
            result = workloads.run_verify(args.seed, args.seconds, traced)
        else:
            wl = workloads.Infer() if args.workload == "infer" else workloads.Train()
            result = workloads.run_steps(wl, args.seed, args.seconds, traced)
    except MissingTarget as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for key, value in environment(np, threads).items():
        print(f"env.{key}={value}")
    if traced is None:
        for name, (value, unit) in {**result["e2e"], **result["extra"]}.items():
            print(f"{name} = {value:.6g} {unit}")
    print(f"attempted = {result['attempted']}, failed = {result['failed']}, "
          f"correct = {result['correct']}")
    for line in result["notes"]:
        print(line)
    if traced is not None:
        per = result["units"]
        for name, (value, unit) in result["layer"].items():
            print(f"{name} = {value:.6g} {unit}")
        for line in workloads.layer_lines(traced, per, args.workload, result["layer"]):
            print(line)
        for line in traced.repeat_notes():
            print(line)
        chosen = result["layer"]
    else:
        chosen = result["e2e"]
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
