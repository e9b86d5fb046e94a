"""Feature levels: ``{stride: tensor}`` dicts ordered fine to coarse.

Every block takes and returns its levels in this form, the stride of a
level being its downsampling factor against the input image.
:func:`check_levels` holds the resolution contract such a dict keeps; the
backbone calls it on the levels it builds, and aggregation and the
pyramid on the levels they take in.
"""

from __future__ import annotations

from .errors import ContractError, ShapeError


def check_levels(levels):
    """Return ``levels`` if they keep the resolution contract, else raise.

    The contract: at least one level; strides that double from each level
    to the next; one source resolution, ``H * stride`` and ``W * stride``
    the same at every level; and one batch size.
    """
    if not levels:
        raise ContractError("a pyramid needs at least one level")
    strides = list(levels)
    for a, b in zip(strides, strides[1:]):
        if b != 2 * a:
            raise ContractError(f"strides must double per level, got {a} then {b}")
    base = strides[0]
    base_n, _, base_h, base_w = levels[base].dims
    base_h, base_w = base_h * base, base_w * base
    for stride, t in levels.items():
        n, _, h, w = t.dims
        if (h * stride, w * stride) != (base_h, base_w):
            raise ShapeError(
                f"level at stride {stride} has spatial {h}x{w}, "
                f"inconsistent with source resolution {base_h}x{base_w}"
            )
        if n != base_n:
            raise ContractError("levels must share one batch size")
    return levels
