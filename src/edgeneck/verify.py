"""Gradient-check suites over primitives, blocks, and the full pipeline.

Every check pairs a label with a thunk returning a
:class:`~edgeneck.gradcheck.GradCheckReport`.  A check that owns a block
lists the block's parameters as inputs after its own and rebinds them to
the checker's float64 leaves on every evaluation, so the real block code
path is differentiated, not a re-implementation.
"""

from __future__ import annotations

import functools

import numpy as np

from .aggregation import aggregate
from .backbone import STRIDES
from .edge_attention import ChannelAttention, EdgeGuidedAttention, edge_map
from .gradcheck import grad_check
from .layers import Params
from .network import Network, noise_image
from .pyramid import TopDownPyramid
from .receptive_field import WideFieldBlock
from .tensor import (
    ConvSpec, add, concat_channels, conv2d, down2_max, edge_magnitude,
    global_avg_pool, global_max_pool, mul, relu, replicate_pad, sigmoid,
    sum_all, up2_nearest,
)

SCOPES = ("ops", "blocks", "all")


def _rng(seed, label):
    mix = np.frombuffer(label.encode("utf-8"), np.uint8)
    return np.random.default_rng([int(seed)] + mix.tolist())


def _sq(t):
    """The check loss ``sum(t * t)``: its gradient ``2t`` weights each element by its value."""
    return sum_all(mul(t, t))


def _loss(*tensors):
    total = sum_all(tensors[0])
    for t in tensors[1:]:
        total = add(total, sum_all(t))
    return total


def _bound(params, loss):
    """``loss`` of the leading arguments, with store ``params`` rebound to the trailing ones."""
    def fn(*args):
        lead = len(args) - len(params)
        for p, v in zip(params.values(), args[lead:]):
            p.value = v
        return loss(*args[:lead])
    return fn


def _case(label, seed, dims, loss, coords, block=None):
    """One check: ``loss`` over standard-normal inputs of ``dims``, then the block's parameters.

    Everything is drawn from the stream named by the label without its
    ``op.``/``block.`` prefix: the block (built by ``block(params)`` on a
    float64 ``Params`` store of that stream) first, then the inputs in
    order.  ``loss`` takes the block, when there is one, then the inputs.
    ``run`` puts back the parameter values it rebinds.
    """
    key = label.split(".", 1)[1]
    rng = _rng(seed, key)
    params = Params(rng, np.float64)
    if block is not None:
        loss = functools.partial(loss, block(params))
    inputs = {name: rng.standard_normal(d) for name, d in dims.items()}
    inputs.update((name, p.value) for name, p in params.items())
    fn = _bound(params, loss)

    def run():
        try:
            return grad_check(fn, inputs, max_coords=coords, rng=_rng(seed, key + ".pick"))
        finally:
            for name, p in params.items():
                p.value = inputs[name]
    return label, run


def op_checks(seed=1):
    padded = ConvSpec(padding=(1, 1))
    strided = ConvSpec(stride=(2, 1), padding=(2, 1), dilation=(1, 2))
    return [
        _case("op.conv2d.basic", seed, {"x": (1, 2, 5, 5), "w": (3, 2, 3, 3), "b": (1, 3, 1, 1)},
              lambda x, w, b: sum_all(conv2d(x, w, b, padded)), 24),
        _case("op.conv2d.strided", seed,
              {"x": (1, 3, 7, 6), "w": (4, 3, 3, 3), "b": (1, 4, 1, 1)},
              lambda x, w, b: sum_all(conv2d(x, w, b, strided)), 24),
        _case("op.conv2d.pointwise", seed,
              {"x": (2, 6, 1, 1), "w": (4, 6, 1, 1), "b": (1, 4, 1, 1)},
              lambda x, w, b: sum_all(conv2d(x, w, b)), 24),
        _case("op.add.broadcast", seed, {"a": (2, 3, 4, 4), "b": (1, 3, 1, 1)},
              lambda a, b: _sq(add(a, b)), 24),
        _case("op.mul.broadcast", seed, {"a": (1, 4, 3, 3), "b": (1, 1, 3, 3)},
              lambda a, b: sum_all(mul(a, b)), 24),
        _case("op.relu", seed, {"x": (1, 3, 4, 4)}, lambda x: _sq(relu(x)), 24),
        _case("op.sigmoid.chain", seed, {"x": (1, 2, 3, 3), "y": (1, 2, 3, 3)},
              lambda x, y: sum_all(sigmoid(add(mul(x, y), y))), 24),
        _case("op.global_avg_pool", seed, {"x": (2, 3, 4, 5)},
              lambda x: _sq(global_avg_pool(x)), 24),
        _case("op.global_max_pool", seed, {"x": (2, 3, 4, 5)},
              lambda x: _sq(global_max_pool(x)), 24),
        _case("op.up2_nearest", seed, {"x": (1, 2, 3, 3)}, lambda x: _sq(up2_nearest(x)), 24),
        _case("op.down2_max", seed, {"x": (1, 2, 4, 6)}, lambda x: _sq(down2_max(x)), 24),
        _case("op.replicate_pad", seed, {"x": (1, 2, 3, 4)}, lambda x: _sq(replicate_pad(x)), 24),
        _case("op.concat_channels", seed, {"a": (1, 2, 3, 3), "b": (1, 3, 3, 3)},
              lambda a, b: _sq(concat_channels([a, b])), 24),
        _case("op.edge_magnitude", seed, {"gx": (1, 1, 4, 4), "gy": (1, 1, 4, 4)},
              lambda gx, gy: sum_all(edge_magnitude(gx, gy)), 24),
    ]


def block_checks(seed=1):
    return [
        _case("block.deep_sobel", seed, {"x": (1, 3, 6, 6)}, lambda x: sum_all(edge_map(x)), 40),
        _case("block.channel_gate", seed, {"x": (1, 8, 4, 4)},
              lambda gate, x: _sq(gate(x)), 24,
              block=lambda params: ChannelAttention("check.gate", params, 8, 4)),
        _case("block.edge_attention", seed, {"f1": (1, 2, 8, 8), "f2": (1, 4, 4, 4)},
              lambda edge, f1, f2: _loss(*edge(f1, f2)), 16,
              block=lambda params: EdgeGuidedAttention("check.edge", params, 4, 2)),
        _case("block.aggregate", seed,
              {"x1": (1, 2, 16, 16), "x2": (1, 3, 8, 8), "x3": (1, 4, 4, 4),
               "x4": (1, 5, 2, 2), "x5": (1, 6, 1, 1)},
              lambda *xs: _loss(*aggregate(dict(zip(STRIDES, xs)), "full").values()), 12),
        _case("block.wide_field", seed, {"x": (1, 3, 9, 9)},
              lambda wide, x: sum_all(wide(x)), 3,
              block=lambda params: WideFieldBlock("check.wide", params, 3, 4)),
        _case("block.pyramid", seed, {"x1": (1, 3, 8, 8), "x2": (1, 4, 4, 4), "x3": (1, 5, 2, 2)},
              lambda pyr, *xs: _loss(*pyr(dict(zip((8, 16, 32), xs))).values()), 4,
              block=lambda params: TopDownPyramid("check.pyr", params,
                                                  [(8, 3), (16, 4), (32, 5)], 6)),
    ]


def pipeline_check(seed=1):
    """One end-to-end check: loss over all pyramid outputs, every parameter.

    Each input is probed along one random direction: two forwards per input.
    """
    def run():
        net = Network(seed=seed, channels=(4, 8, 8, 16, 16), pyramid_width=8,
                      fa_mode="full", reduction=4, dtype=np.float64)
        inputs = {"image": noise_image(seed, 64, 64, np.float64)}
        inputs.update((name, p.value) for name, p in net.params.items())

        def loss(image):
            named = net.forward(image).named
            return _loss(*(t for name, t in named.items() if name.startswith("out.")))
        fn = _bound(net.params, loss)
        return grad_check(fn, inputs, rng=_rng(seed, "pipeline.pick"), directional=True)
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


def _worst(report):
    """`` worst=<input>@<coord>``, or ``@direction``, when an error fails the check."""
    if report.max_rel_err <= report.tol:
        return ""
    e = max(report.entries, key=lambda entry: entry.max_rel_err)
    at = "direction" if e.worst_coord is None else f"({','.join(map(str, e.worst_coord))})"
    return f" worst={e.label}@{at}"


def run_checks(checks, emit=None):
    """Run checks, emit one line each; returns True when all pass."""
    all_ok = True
    for label, thunk in checks:
        report = thunk()
        status = "ok" if report.ok else "FAILED"
        all_ok = all_ok and report.ok
        if emit:
            unprobed = f" unprobed={','.join(report.unprobed)}" if report.unprobed else ""
            emit(f"{label}: {status} probed={report.probed} skipped={report.skipped} "
                 f"max_rel_err={report.max_rel_err:.3e} tol={report.tol:.1e}{unprobed}"
                 f"{_worst(report)}")
    return all_ok
