"""Gradient-check suites over primitives, blocks, and the full pipeline.

Every check pairs a label with a thunk returning a
:class:`~edgeneck.gradcheck.GradCheckReport`.  Block checks rebind the
block's parameters to the checker's float64 leaves inside the closure,
so the real block code path is differentiated, not a re-implementation.
"""

from __future__ import annotations

import numpy as np

from .aggregation import aggregate
from .backbone import STRIDES
from .edge_attention import ChannelAttention, EdgeGuidedAttention, edge_magnitude, edge_map
from .gradcheck import grad_check
from .levels import PyramidLevel, PyramidSet
from .network import Network, noise_image
from .pyramid import TopDownPyramid
from .receptive_field import WideFieldBlock
from .tensor import (
    ConvSpec, add, channel_mean, concat_channels, conv2d, global_pool, mul,
    relu, replicate_pad, resample, sigmoid, square, sum_all,
)

SCOPES = ("ops", "blocks", "all")


def _rng(seed, label):
    mix = np.frombuffer(label.encode("utf-8"), np.uint8)
    return np.random.default_rng([int(seed)] + mix.tolist())


def _normal(rng, dims):
    return rng.standard_normal(dims)


def _loss(*tensors):
    total = sum_all(tensors[0])
    for t in tensors[1:]:
        total = add(total, sum_all(t))
    return total


def op_checks(seed=1):
    checks = []

    def check(label, make):
        checks.append((f"op.{label}", make))

    def conv_case(label, x_dims, w_dims, spec):
        rng = _rng(seed, label)
        inputs = {
            "x": _normal(rng, x_dims),
            "w": _normal(rng, w_dims),
            "b": _normal(rng, (1, w_dims[0], 1, 1)),
        }
        def run():
            return grad_check(
                lambda x, w, b: sum_all(conv2d(x, w, b, spec)),
                inputs, max_coords=24, rng=_rng(seed, label + ".pick"))
        check(label, run)

    conv_case("conv2d.basic", (1, 2, 5, 5), (3, 2, 3, 3), ConvSpec(padding=(1, 1)))
    conv_case("conv2d.strided", (1, 3, 7, 6), (4, 3, 3, 3),
              ConvSpec(stride=(2, 1), padding=(2, 1), dilation=(1, 2)))
    conv_case("conv2d.pointwise", (2, 6, 1, 1), (4, 6, 1, 1), ConvSpec())

    def simple(label, dims_map, fn, masks=None, coords=24):
        rng = _rng(seed, label)
        inputs = {k: _normal(rng, dims) for k, dims in dims_map.items()}
        def run():
            probe_masks = masks(inputs) if masks else None
            return grad_check(fn, inputs, max_coords=coords,
                              rng=_rng(seed, label + ".pick"), probe_masks=probe_masks)
        check(label, run)

    simple("add.broadcast", {"a": (2, 3, 4, 4), "b": (1, 3, 1, 1)},
           lambda a, b: sum_all(square(add(a, b))))
    simple("mul.broadcast", {"a": (1, 4, 3, 3), "b": (1, 1, 3, 3)},
           lambda a, b: sum_all(mul(a, b)))
    simple("relu", {"x": (1, 3, 4, 4)},
           lambda x: sum_all(square(relu(x))),
           masks=lambda ins: {"x": np.abs(ins["x"]) > 0.1})
    simple("sigmoid.chain", {"x": (1, 2, 3, 3), "y": (1, 2, 3, 3)},
           lambda x, y: sum_all(sigmoid(add(mul(x, y), y))))
    simple("square", {"x": (2, 2, 3, 3)}, lambda x: sum_all(square(x)))
    simple("global_avg_pool", {"x": (2, 3, 4, 5)},
           lambda x: sum_all(square(global_pool("avg", x))))
    simple("global_max_pool", {"x": (2, 3, 4, 5)},
           lambda x: sum_all(square(global_pool("max", x))))
    simple("up2_nearest", {"x": (1, 2, 3, 3)},
           lambda x: sum_all(square(resample(x, "up2_nearest"))))
    simple("down2_max", {"x": (1, 2, 4, 6)},
           lambda x: sum_all(square(resample(x, "down2_max"))))
    simple("replicate_pad", {"x": (1, 2, 3, 4)},
           lambda x: sum_all(square(replicate_pad(x))))
    simple("channel_mean", {"x": (2, 5, 3, 3)},
           lambda x: sum_all(square(channel_mean(x))))
    simple("concat_channels", {"a": (1, 2, 3, 3), "b": (1, 3, 3, 3)},
           lambda a, b: sum_all(square(concat_channels([a, b]))))
    simple("edge_magnitude", {"gx": (1, 1, 4, 4), "gy": (1, 1, 4, 4)},
           lambda gx, gy: sum_all(edge_magnitude(gx, gy)),
           masks=lambda ins: {
               "gx": ins["gx"] ** 2 + ins["gy"] ** 2 > 0.04,
               "gy": ins["gx"] ** 2 + ins["gy"] ** 2 > 0.04,
           })
    return checks


def block_checks(seed=1):
    checks = []

    def check(label, make):
        checks.append((f"block.{label}", make))

    def sobel_case():
        rng = _rng(seed, "deep_sobel")
        inputs = {"x": _normal(rng, (1, 3, 6, 6))}
        def run():
            return grad_check(lambda x: sum_all(edge_map(x)), inputs,
                              max_coords=40, rng=_rng(seed, "deep_sobel.pick"))
        check("deep_sobel", run)

    def gate_case():
        rng = _rng(seed, "channel_gate")
        gate = ChannelAttention("check.gate", rng, 8, 4, np.float64)
        inputs = {"x": _normal(rng, (1, 8, 4, 4)),
                  "w0": gate.w0.value, "w1": gate.w1.value}
        def fn(x, w0, w1):
            gate.w0.value = w0
            gate.w1.value = w1
            return sum_all(square(gate(x)))
        def run():
            return grad_check(fn, inputs, max_coords=24,
                              rng=_rng(seed, "channel_gate.pick"))
        check("channel_gate", run)

    def ega_case():
        rng = _rng(seed, "edge_attention")
        block = EdgeGuidedAttention("check.edge", rng, 4, 2, np.float64)
        inputs = {"f1": _normal(rng, (1, 2, 8, 8)), "f2": _normal(rng, (1, 4, 4, 4)),
                  "w0": block.gate.w0.value, "w1": block.gate.w1.value}
        def fn(f1, f2, w0, w1):
            block.gate.w0.value = w0
            block.gate.w1.value = w1
            return _loss(*block(f1, f2))
        def run():
            return grad_check(fn, inputs, max_coords=16,
                              rng=_rng(seed, "edge_attention.pick"))
        check("edge_attention", run)

    def aggregate_case():
        rng = _rng(seed, "aggregate")
        dims = {"x1": (1, 2, 16, 16), "x2": (1, 3, 8, 8), "x3": (1, 4, 4, 4),
                "x4": (1, 5, 2, 2), "x5": (1, 6, 1, 1)}
        inputs = {k: _normal(rng, d) for k, d in dims.items()}
        def fn(x1, x2, x3, x4, x5):
            feats = PyramidSet([
                PyramidLevel(i + 1, STRIDES[i], t)
                for i, t in enumerate((x1, x2, x3, x4, x5))
            ])
            return _loss(*aggregate(feats, "full").tensors())
        def run():
            return grad_check(fn, inputs, max_coords=12,
                              rng=_rng(seed, "aggregate.pick"))
        check("aggregate", run)

    def wide_case():
        rng = _rng(seed, "wide_field")
        block = WideFieldBlock("check.wide", rng, 3, 4, np.float64)
        params = block.parameters()
        inputs = {"x": _normal(rng, (1, 3, 9, 9))}
        inputs.update({p.name: p.value for p in params})
        def fn(x, *values):
            for p, v in zip(params, values):
                p.value = v
            return sum_all(block(x))
        def run():
            return grad_check(fn, inputs, max_coords=3,
                              rng=_rng(seed, "wide_field.pick"))
        check("wide_field", run)

    def pyramid_case():
        rng = _rng(seed, "pyramid")
        block = TopDownPyramid("check.pyr", rng, [(8, 3), (16, 4), (32, 5)], 6, np.float64)
        params = block.parameters()
        inputs = {"x1": _normal(rng, (1, 3, 8, 8)), "x2": _normal(rng, (1, 4, 4, 4)),
                  "x3": _normal(rng, (1, 5, 2, 2))}
        inputs.update({p.name: p.value for p in params})
        def fn(x1, x2, x3, *values):
            for p, v in zip(params, values):
                p.value = v
            levels = PyramidSet([PyramidLevel(1, 8, x1), PyramidLevel(2, 16, x2),
                                 PyramidLevel(3, 32, x3)])
            return _loss(*block(levels).tensors())
        def run():
            return grad_check(fn, inputs, max_coords=4,
                              rng=_rng(seed, "pyramid.pick"))
        check("pyramid", run)

    sobel_case()
    gate_case()
    ega_case()
    aggregate_case()
    wide_case()
    pyramid_case()
    return checks


def pipeline_check(seed=1, channels=(4, 8, 8, 16, 16), pyramid_width=8,
                   reduction=4, hw=64, max_coords=2):
    """One end-to-end check: loss over all pyramid outputs, every parameter."""
    def run():
        net = Network(seed=seed, channels=channels, pyramid_width=pyramid_width,
                      fa_mode="full", reduction=reduction, dtype=np.float64)
        params = net.parameters()
        image = noise_image(seed, hw, hw, np.float64)
        inputs = {"image": image}
        inputs.update({p.name: p.value for p in params})
        def fn(image, *values):
            for p, v in zip(params, values):
                p.value = v
            return _loss(*net.forward(image).outputs.tensors())
        return grad_check(fn, inputs, max_coords=max_coords,
                          rng=_rng(seed, "pipeline.pick"))
    return [("pipeline.full", run)]


def checks_for_scope(scope, seed=1):
    if scope not in SCOPES:
        raise ValueError(f"scope must be one of {SCOPES}, got {scope!r}")
    checks = list(op_checks(seed))
    if scope in ("blocks", "all"):
        checks.extend(block_checks(seed))
    if scope == "all":
        checks.extend(pipeline_check(seed))
    return checks


def run_checks(checks, emit=None):
    """Run checks, emit one line each; returns True when all pass."""
    all_ok = True
    for label, thunk in checks:
        report = thunk()
        status = "ok" if report.ok else "FAILED"
        all_ok = all_ok and report.ok
        if emit:
            emit(f"{label}: {status} probed={report.probed} skipped={report.skipped} "
                 f"max_rel_err={report.max_rel_err:.3e} tol={report.tol:.1e}")
    return all_ok
