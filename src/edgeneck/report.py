"""Line-oriented run reports: ``key=value``, one statistic per line.

Floats are rendered with ``repr``, the shortest round-tripping form, so
a report is bit-reproducible for bit-identical tensors and every value
can be parsed back and compared against a recomputation.
"""

from __future__ import annotations

import numpy as np


def tensor_stats(arr):
    """min/max/mean/L2 of an array, accumulated in f64."""
    data = np.asarray(arr, np.float64)
    return {
        "min": float(data.min()),
        "max": float(data.max()),
        "mean": float(data.mean()),
        "l2": float(np.sqrt(np.sum(data * data))),
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
