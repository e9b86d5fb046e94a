"""Multi-level feature aggregation.

The five backbone-derived features (strides 4..64) are regrouped into
four fused levels at strides 8..64 by resampling neighbours onto a common
resolution and concatenating:

    stride 8:  [down2_max(s4), s8]                    -> c1 + c2 channels
    stride 16: [down2_max(s8), s16, up2_nearest(s32)] -> c2 + c3 + c4
    stride 32: [s32, up2_nearest(s64)]                -> c4 + c5
    stride 64: [s64]                                  -> c5

The two ablation modes restrict which source levels participate: ``low3``
keeps only the three finest sources, ``high3`` only the three coarsest.
Constituents drawn from excluded sources are dropped, and fused levels
left with no constituents disappear, so each mode's output provably
depends on exactly its three sources.
"""

from __future__ import annotations

from .errors import ConfigError
from .levels import PyramidLevel, PyramidSet
from .tensor import concat_channels, down2_max, up2_nearest

SOURCE_STRIDES = (4, 8, 16, 32, 64)
MODES = ("full", "low3", "high3")

# (output stride, constituents as (source stride, resampling op or None))
_FULL_PLAN = (
    (8, ((4, down2_max), (8, None))),
    (16, ((8, down2_max), (16, None), (32, up2_nearest))),
    (32, ((32, None), (64, up2_nearest))),
    (64, ((64, None),)),
)

_MODE_SOURCES = {
    "full": frozenset(SOURCE_STRIDES),
    "low3": frozenset((4, 8, 16)),
    "high3": frozenset((16, 32, 64)),
}


def aggregation_plan(mode="full"):
    """The fused-level recipe for a mode, empty levels already dropped."""
    if mode not in MODES:
        raise ConfigError(f"fa_mode must be one of {MODES}, got {mode!r}")
    allowed = _MODE_SOURCES[mode]
    plan = []
    for stride, constituents in _FULL_PLAN:
        kept = tuple(c for c in constituents if c[0] in allowed)
        if kept:
            plan.append((stride, kept))
    return tuple(plan)


def plan_channels(plan, source_channels):
    """Output channel count per fused level, from the source channel map."""
    by_stride = dict(zip(SOURCE_STRIDES, source_channels))
    return tuple(sum(by_stride[s] for s, _ in constituents) for _, constituents in plan)


def aggregate(feats, mode="full"):
    """Fuse a 5-level source set into the mode's aggregated set."""
    if feats.strides != SOURCE_STRIDES:
        raise ConfigError(
            f"aggregation needs source strides {SOURCE_STRIDES}, got {feats.strides}"
        )
    out = []
    for stride, constituents in aggregation_plan(mode):
        parts = []
        for source_stride, op in constituents:
            t = feats.by_stride(source_stride).tensor
            parts.append(op(t) if op else t)
        out.append(PyramidLevel(stride, concat_channels(parts)))
    return PyramidSet(out)
