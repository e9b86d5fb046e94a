"""Line-oriented run reports: ``key=value``, one statistic per line.

Floats are rendered with ``repr``, the shortest round-tripping form, so
a report is bit-reproducible for bit-identical tensors and every value
can be parsed back and compared against a recomputation.
"""

from __future__ import annotations

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


def build_report(config, named, timings=None):
    """Render config echo plus per-tensor statistics as report lines."""
    lines = [f"config.input={config.input}"]
    lines.append(f"config.seed={config.seed}")
    lines.append("config.channels=" + ",".join(str(c) for c in config.channels))
    lines.append(f"config.pyramid_width={config.pyramid_width}")
    lines.append(f"config.fa_mode={config.fa_mode}")
    lines.append(f"config.reduction_ratio={config.reduction_ratio}")
    lines.append(f"config.dtype={config.dtype}")
    for name, tensor in named.items():
        dims = "x".join(str(d) for d in tensor.dims)
        lines.append(f"shape.{name}={dims}")
        for stat, value in tensor_stats(tensor.data).items():
            lines.append(f"stats.{name}.{stat}={value!r}")
    if timings:
        for label, seconds in timings.items():
            lines.append(f"time.{label}={seconds:.6f}")
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
