"""Line-oriented run reports: ``key=value``, one statistic per line.

Floats are rendered with ``repr``, the shortest round-tripping form, so
a report is bit-reproducible for bit-identical tensors and every value
can be parsed back and compared against a recomputation.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .errors import ContractError
from .tensor import DTYPE_NAMES


def tensor_stats(arr):
    """min/max/mean/L2 of an f32 or f64 array: sums accumulated in f64, extrema in its own dtype.

    Widening to f64 is exact and an extremum does not depend on order, so
    the extrema equal those of the f64 copy without reading it.
    """
    arr = np.asarray(arr)
    if arr.dtype not in DTYPE_NAMES:
        raise ContractError(f"report statistics need float32 or float64, got {arr.dtype}")
    data = arr.astype(np.float64)  # always a copy, even of an f64 array: squared in place
    mean = data.mean()
    np.multiply(data, data, out=data)
    return {
        "min": float(arr.min()),
        "max": float(arr.max()),
        "mean": float(mean),
        "l2": float(np.sqrt(np.sum(data))),
    }


def build_report(config, named, times=None):
    """Render config echo plus per-tensor statistics, then any stage times, as report lines."""
    lines = []
    for field in fields(config):
        if field.name == "dump_dir":  # where a run writes does not change what it computes
            continue
        value = getattr(config, field.name)
        text = ",".join(map(str, value)) if isinstance(value, tuple) else value
        lines.append(f"config.{field.name}={text}")
    for name, tensor in named.items():
        dims = "x".join(str(d) for d in tensor.dims)
        lines.append(f"shape.{name}={dims}")
        for stat, value in tensor_stats(tensor.data).items():
            lines.append(f"stats.{name}.{stat}={value!r}")
    for stage, seconds in (times or {}).items():
        lines.append(f"time.{stage}={seconds:.6f}")
    return "\n".join(lines) + "\n"


def parse_report(text):
    """Parse report lines back into a key -> string dict (for checks)."""
    values = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        key, _, value = line.partition("=")
        values[key] = value
    return values
