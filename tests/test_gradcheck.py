"""The finite-difference checker itself: passes, failures, kink guard."""

import math

import numpy as np
import pytest

import edgeneck as en
import edgeneck.tensor as tensor_core
from edgeneck import gradcheck, verify
from edgeneck.errors import ContractError
from edgeneck.gradcheck import EPS, grad_check
from edgeneck.tensor import BACKWARD
from edgeneck.verify import block_checks, op_checks, pipeline_check, run_checks


def rng(seed=0):
    return np.random.default_rng(seed)


def test_conv_passes_at_default_tolerance():
    r = rng(1)
    spec = en.ConvSpec(padding=(1, 1))
    report = grad_check(
        lambda x, w: en.sum_all(en.conv2d(x, w, spec=spec)),
        {"x": r.standard_normal((1, 2, 5, 5)), "w": r.standard_normal((2, 2, 3, 3))},
    )
    assert report.ok
    assert report.max_rel_err < 1e-5
    assert report.skipped == 0


def test_sigmoid_chain_is_tight():
    r = rng(2)
    report = grad_check(
        lambda x: en.sum_all(en.sigmoid(en.mul(x, x))),
        {"x": r.standard_normal((1, 2, 3, 3))},
    )
    assert report.max_rel_err < 1e-6


def test_kink_straddling_probes_are_skipped():
    # every input sits within eps of the relu kink: nothing is probeable
    x = np.full((1, 1, 2, 2), EPS / 10)
    report = grad_check(lambda t: en.sum_all(en.relu(t)), {"x": x})
    entry = report.entries[0]
    assert entry.probed == 0
    assert entry.skipped == 4
    assert not report.ok  # nothing measured about x's gradient
    assert report.unprobed == ["x"]
    assert "x: probed=0 skipped=4 max_rel_err=0.000e+00 [no verified probe]" in report.format()


@pytest.mark.parametrize("pool", [en.global_max_pool, en.down2_max], ids=lambda op: op.__name__)
def test_pool_argmax_flip_is_guarded(pool):
    # four elements EPS / 10 apart: probing any of them straddles an argmax flip
    x = 1.0 + EPS / 10 * np.arange(4.0).reshape(1, 1, 2, 2)
    report = grad_check(lambda t: en.sum_all(pool(t)), {"x": x})
    entry = report.entries[0]
    assert (entry.probed, entry.skipped) == (0, 4)
    assert not report.ok
    assert report.unprobed == ["x"]


def test_edge_magnitude_zero_crossing_is_guarded():
    # gx = EPS, gy = 0: every gx probe lands exactly on the (0, 0) kink
    report = grad_check(lambda gx, gy: en.sum_all(en.edge_magnitude(gx, gy)),
                        {"gx": np.full((1, 1, 2, 2), EPS), "gy": np.zeros((1, 1, 2, 2))})
    gx, gy = report.entries
    assert (gx.probed, gx.skipped) == (0, 4)
    assert (gy.probed, gy.skipped) == (4, 0)
    assert not report.ok
    assert report.unprobed == ["gx"]
    assert report.max_rel_err < report.tol  # the failure is the unprobed input, not an error
    lines = []
    assert not run_checks([("op.edge", lambda: report)], emit=lines.append)
    assert lines[0].startswith("op.edge: FAILED") and lines[0].endswith(" unprobed=gx")


def test_a_failed_directional_check_names_its_worst_input(monkeypatch):
    original = BACKWARD["mul"]
    monkeypatch.setitem(BACKWARD, "mul", lambda rec, g: (original(rec, g)[0] * 1.5, None))
    inputs = {"x": rng(24).standard_normal((1, 1, 2, 2)),
              "y": rng(25).standard_normal((1, 1, 2, 2))}

    def check():
        return grad_check(lambda x, y: en.sum_all(en.mul(x, y)), inputs, rng=rng(26),
                          directional=True)

    lines = []
    run_checks([("pipeline.mul", check)], emit=lines.append)
    assert lines[0].startswith("pipeline.mul: FAILED ")
    assert lines[0].endswith(" worst=y@direction")  # y's gradient was dropped


def test_directional_kink_guard_draws_replacements_within_budget():
    # every coordinate sits EPS / 10 above the relu kink: almost every direction straddles it
    report = grad_check(lambda t: en.sum_all(en.relu(t)), {"x": np.full((1, 2, 2, 2), EPS / 10)},
                        rng=rng(9), directional=True)
    entry = report.entries[0]
    assert (entry.probed, entry.skipped) == (0, 13)
    assert not report.ok


def test_unused_input_has_zero_gradient():
    # backward never reaches y, so its analytic gradient reads as zero
    report = grad_check(lambda x, y: en.sum_all(x),
                        {"x": np.ones((1, 1, 2, 2)), "y": np.ones((1, 1, 2, 2))})
    assert report.ok
    y = report.entries[1]
    assert (y.label, y.probed, y.max_rel_err) == ("y", 4, 0.0)


def test_constant_target_reports_zero_gradients():
    # no input reaches the target, so no tape record produced it: nothing to differentiate
    report = grad_check(lambda x, y: en.sum_all(en.Tensor(np.ones((1, 1, 2, 2), np.float64))),
                        {"x": np.ones((1, 1, 2, 2)), "y": np.ones((1, 2, 1, 3))})
    assert report.ok
    assert [(e.label, e.probed, e.skipped, e.max_rel_err) for e in report.entries] == [
        ("x", 4, 0, 0.0), ("y", 6, 0, 0.0)]


def _noting_square(seen):
    """``t * t`` as an op that notes ``(label, t.data)`` at every call: what a probe feeds it."""
    @tensor_core._listed
    def square(label, t):
        seen.append((label, t.data.copy()))
        return tensor_core._record("mul", (t, t), t.data * t.data)
    return square


@pytest.mark.parametrize("seed", [3, 11])
def test_probe_draw_order_is_pinned(seed):
    """Probed coordinates follow ``np.argwhere(everywhere)[rng.permutation(n)]``, input by input."""
    r = rng(seed)
    start = {"a": r.standard_normal((1, 2, 3, 4)), "b": r.standard_normal((2, 1, 3, 2))}
    seen = []
    square = _noting_square(seen)

    def fn(a, b):
        return en.add(en.sum_all(square("a", a)), en.sum_all(square("b", b)))

    grad_check(fn, start, rng=rng(seed), max_coords=5)
    assert [label for label, _ in seen[:2]] == ["a", "b"]  # the taped forward
    assert all(np.array_equal(data, start[label]) for label, data in seen[:2])
    # the one coordinate that differs from the check point is the one being probed
    perturbed = [(label, tuple(c)) for label, data in seen[2:]
                 for c in np.argwhere(data != start[label])]
    assert len(perturbed) == len(seen) - 2
    draw = rng(seed)
    want = []
    for label, data in start.items():
        everywhere = np.ones(data.shape, bool)
        want += [(label, tuple(c))
                 for c in np.argwhere(everywhere)[draw.permutation(data.size)][:5]]
    assert perturbed[::2] == perturbed[1::2] == want  # one +eps and one -eps call per probe


def test_directional_probe_moves_each_input_along_one_unit_direction():
    """Directions are ``rng.standard_normal(dims)`` normalised, drawn input by input."""
    r = rng(12)
    a0, b0 = r.standard_normal((1, 2, 3, 4)), r.standard_normal((2, 1, 3, 2))
    seen = []
    square = _noting_square(seen)

    def fn(a, b):
        return en.add(en.sum_all(square("a", a)), en.sum_all(en.sigmoid(square("b", b))))

    report = grad_check(fn, {"a": a0, "b": b0}, rng=rng(13), directional=True)
    assert report.ok
    assert [(e.probed, e.skipped) for e in report.entries] == [(1, 0), (1, 0)]
    draw = rng(13)
    u = [draw.standard_normal(d) for d in (a0.shape, b0.shape)]
    u = [v / np.linalg.norm(v) for v in u]
    # the taped forward notes both inputs, then each evaluation only the input it moves
    assert [label for label, _ in seen] == ["a", "b", "a", "a", "b", "b"]
    starts = {"a": a0, "b": b0}
    for (label, data), want in zip(seen, (0, 0, u[0], -u[0], u[1], -u[1])):
        np.testing.assert_allclose(data - starts[label], EPS * np.asarray(want),
                                   rtol=1e-9, atol=1e-20)


def test_probes_leave_an_enclosing_tape_untouched():
    with en.Tape() as outer:
        grad_check(lambda t: en.sum_all(en.relu(t)), {"x": rng(8).standard_normal((1, 1, 2, 4))})
    assert len(outer) == 0


def test_corrupted_backward_is_detected(monkeypatch):
    r = rng(4)
    monkeypatch.setitem(
        BACKWARD, "mul",
        lambda rec, g: (g * 1.5 * rec.inputs[1].data, g * rec.inputs[0].data))
    report = grad_check(
        lambda a, b: en.sum_all(en.mul(a, b)),
        {"a": r.standard_normal((1, 1, 2, 2)), "b": r.standard_normal((1, 1, 2, 2))},
    )
    assert not report.ok
    assert report.max_rel_err > 1e-2
    worst = max(report.entries, key=lambda e: e.max_rel_err)
    assert worst.label == "a"


def test_nan_gradient_fails(monkeypatch):
    # a NaN loses every comparison: it must score as an infinite error, not pass
    original = BACKWARD["mul"]
    monkeypatch.setitem(BACKWARD, "mul",
                        lambda rec, g: tuple(gi * np.nan for gi in original(rec, g)))
    report = grad_check(lambda x: en.sum_all(en.mul(x, x)),
                        {"x": rng(14).standard_normal((1, 1, 2, 2))})
    assert not report.ok
    assert report.entries[0].max_rel_err == report.max_rel_err == math.inf
    assert "x: probed=4 skipped=0 max_rel_err=inf" in report.format()
    assert report.format().endswith("[FAILED]")


def test_max_coords_caps_probe_count():
    report = grad_check(
        lambda x: en.sum_all(en.mul(x, x)),
        {"x": rng(5).standard_normal((1, 4, 8, 8))},
        max_coords=5,
    )
    assert report.entries[0].probed == 5


def _two_convs(x, w1, w2):
    return en.sum_all(en.conv2d(en.conv2d(x, w1), w2))


def _two_conv_inputs():
    r = rng(15)
    return {"x": r.standard_normal((1, 2, 4, 4)), "w1": r.standard_normal((3, 2, 3, 3)),
            "w2": r.standard_normal((2, 3, 1, 1))}


def test_probes_recompute_only_the_convs_their_input_reaches(conv_kernels):
    """A probe of w2 reuses conv(x, w1) from the base forward; a probe of x or w1 cannot."""
    report = grad_check(_two_convs, _two_conv_inputs())
    assert report.ok
    assert [(e.probed, e.skipped) for e in report.entries] == [(32, 0), (54, 0), (6, 0)]
    # the taped forward computes both convs, then each of a probe's two evaluations
    # computes two for x and w1 and one for w2
    assert len(conv_kernels) == 2 + 2 * (2 * 32 + 2 * 54 + 1 * 6)


def _constant_conv_loss(x, scalar=True):
    # a conv of two constants, built anew on each call, beside a conv of the input
    k = en.Tensor(np.full((1, 1, 3, 3), 0.5))
    out = en.mul(en.conv2d(x, k), en.conv2d(en.Tensor(np.ones((1, 1, 4, 4))), k))
    return en.sum_all(out) if scalar else out


def test_reuse_ends_with_the_check(conv_kernels):
    """After a check returns or raises, a taped forward computes every conv, records every op."""
    x = rng(16).standard_normal((1, 1, 4, 4))

    def assert_plain_forward():
        assert tensor_core._TAPE_STACK == []
        conv_kernels.clear()
        with en.Tape() as tape:
            _constant_conv_loss(en.Tensor(x, requires_grad=True))
        assert len(conv_kernels) == 2
        assert [rec.op for rec in tape.records] == ["conv2d", "mul", "sum_all"]

    assert grad_check(_constant_conv_loss, {"x": x}).ok
    assert_plain_forward()
    with pytest.raises(ContractError):
        grad_check(lambda t: _constant_conv_loss(t, scalar=False), {"x": x})
    assert_plain_forward()


def _listed_in_concat(x, w, y):
    # x reaches the loss only as an element of concat_channels's list
    cat = en.concat_channels([y, en.conv2d(x, w)])
    return en.sum_all(en.mul(cat, cat))


def _concat_inputs():
    r = rng(19)
    return {"x": r.standard_normal((1, 2, 4, 4)), "w": r.standard_normal((3, 2, 3, 3)),
            "y": r.standard_normal((1, 1, 2, 2))}


def test_a_list_element_the_input_reaches_is_recomputed(conv_kernels, rerun_probes):
    """Probes of x and w recompute the conv that concat_channels takes in its list."""
    report = gradcheck.grad_check(_listed_in_concat, _concat_inputs())
    assert report.ok
    assert [(e.probed, e.skipped) for e in report.entries] == [(32, 0), (54, 0), (4, 0)]
    assert len(conv_kernels) == 1 + 2 * (32 + 54)  # y's probes reuse the conv
    rerun_probes()
    assert gradcheck.grad_check(_listed_in_concat, _concat_inputs()).entries == report.entries


def _conv_by_keyword(x, w, b):
    return en.sum_all(en.relu(en.conv2d(x, weight=w, bias=b)))


def test_a_tensor_passed_by_keyword_is_recomputed(conv_kernels, rerun_probes):
    """A probe of a tensor passed by keyword gives the conv its fresh tensor under that keyword."""
    r = rng(20)
    inputs = {"x": r.standard_normal((1, 2, 4, 4)), "w": r.standard_normal((3, 2, 3, 3)),
              "b": r.standard_normal((1, 3, 1, 1))}
    report = gradcheck.grad_check(_conv_by_keyword, inputs)
    assert report.ok
    assert [(e.probed, e.skipped) for e in report.entries] == [(32, 0), (54, 0), (3, 0)]
    assert len(conv_kernels) == 1 + 2 * (32 + 54 + 3)
    rerun_probes()
    assert gradcheck.grad_check(_conv_by_keyword, inputs).entries == report.entries


def test_an_input_that_reaches_nothing_computes_no_kernel(conv_kernels):
    """An unused input's probes reuse the base forward's output whole."""
    inputs = {**_two_conv_inputs(), "unused": rng(21).standard_normal((1, 1, 2, 2))}
    report = grad_check(lambda x, w1, w2, unused: _two_convs(x, w1, w2), inputs)
    assert report.ok
    assert report.entries[3].probed == 4 and report.entries[3].max_rel_err == 0.0
    assert len(conv_kernels) == 2 + 2 * (2 * 32 + 2 * 54 + 1 * 6)  # as without the input


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_check_entry_equals_a_full_rerun(rerun_probes, seed):
    """Recomputing only each input's cone gives every entry of every check, bit for bit."""
    checks = verify.checks_for_scope("all", seed)
    cones = [run().entries for _, run in checks]
    rerun_probes()
    assert [run().entries for _, run in checks] == cones


@pytest.mark.parametrize("label, count", [("block.edge_attention", 426), ("pipeline.full", 2244)])
def test_constant_kernels_are_reused(conv_kernels, label, count):
    """Probes compute only the convs their input reaches; deep_sobel's kernels are constants."""
    [run] = [run for name, run in block_checks(1) + pipeline_check(1) if name == label]
    conv_kernels.clear()
    run()
    assert len(conv_kernels) == count


def _recorded_stores(monkeypatch):
    """The ``Params`` stores the check builders make, in order."""
    stores = []

    class Recorded(en.Params):
        def __init__(self, rng, dtype):
            super().__init__(rng, dtype)
            stores.append(self)

    monkeypatch.setattr(verify, "Params", Recorded)
    return stores


def test_block_checks_put_parameter_values_back(monkeypatch):
    """After a block check returns, each parameter holds the very tensor it held before."""
    stores = _recorded_stores(monkeypatch)
    checks = block_checks(1)
    assert [len(params) for params in stores] == [0, 2, 2, 0, 24, 12]
    for (label, run), params in zip(checks, stores):
        before = {name: p.value for name, p in params.items()}
        assert run().ok, label
        assert all(p.value is before[name] for name, p in params.items()), label


def test_a_raising_block_check_puts_parameter_values_back(monkeypatch):
    """The same holds when the checker raises after an evaluation."""
    stores = _recorded_stores(monkeypatch)
    checks = dict(block_checks(1))
    run, params = checks["block.channel_gate"], dict(zip(checks, stores))["block.channel_gate"]
    before = {name: p.value for name, p in params.items()}

    def evaluate_once_then_fail(fn, inputs, **kw):
        fn(*(en.Tensor(np.asarray(getattr(v, "data", v), np.float64) + EPS)
             for v in inputs.values()))
        raise ContractError("stop")

    monkeypatch.setattr(verify, "grad_check", evaluate_once_then_fail)
    with pytest.raises(ContractError, match="stop"):
        run()
    assert all(p.value is before[name] for name, p in params.items())


def test_requires_scalar_target():
    with pytest.raises(ContractError):
        grad_check(lambda x: en.mul(x, x), {"x": np.ones((1, 1, 2, 2))})


def test_report_format_lines():
    report = grad_check(
        lambda x: en.sum_all(en.mul(x, x)),
        {"x": rng(6).standard_normal((1, 1, 2, 2))},
    )
    text = report.format()
    assert "x: probed=4" in text
    assert text.strip().endswith("[ok]")


def test_runs_in_float64_regardless_of_input_dtype():
    x32 = rng(7).standard_normal((1, 1, 3, 3)).astype(np.float32)
    report = grad_check(lambda x: en.sum_all(en.mul(x, x)), {"x": x32})
    assert report.max_rel_err < 1e-9


def _steep_sigmoid(x):
    # sigmoid(20 x) near 0: a step of 1e-3 misses by up to 3.6e-5, and EPS by about 3.6e-9
    return en.sum_all(en.sigmoid(en.mul(x, en.Tensor(np.full((1, 1, 1, 1), 20.0, np.float64)))))


def test_curved_probe_is_re_estimated():
    """A strongly curved probe passes on the plain central difference at EPS."""
    x = np.linspace(-0.12, 0.12, 6).reshape(1, 1, 2, 3)
    report = grad_check(_steep_sigmoid, {"x": x})
    assert report.ok
    assert report.max_rel_err < report.tol / 100
    assert report.entries[0].probed == 6


def test_sigmoid_backward_off_by_2e_6_is_caught(monkeypatch):
    original = BACKWARD["sigmoid"]
    monkeypatch.setitem(BACKWARD, "sigmoid", lambda rec, g: (original(rec, g)[0] * (1 + 2e-6),))
    x = np.linspace(-0.12, 0.12, 6).reshape(1, 1, 2, 3)
    assert not grad_check(_steep_sigmoid, {"x": x}).ok


@pytest.mark.parametrize("seed", range(1, 21))
def test_pipeline_passes_at_seeds_1_to_20(seed):
    [(_, run)] = pipeline_check(seed)
    report = run()
    assert report.ok, report.format()


@pytest.mark.parametrize("op", ["conv2d", "sigmoid"])
def test_pipeline_catches_a_backward_off_by_1e_5(monkeypatch, op):
    original = BACKWARD[op]

    def scaled(rec, grad_out):
        return tuple(None if g is None else g * (1 + 1e-5) for g in original(rec, grad_out))

    monkeypatch.setitem(BACKWARD, op, scaled)
    [(_, run)] = pipeline_check(1)
    assert not run().ok


def _count_rule_calls(monkeypatch):
    """Wrap every backward rule in a call counter; returns the live op -> calls map."""
    calls = dict.fromkeys(BACKWARD, 0)

    def counted(op, rule):
        def wrapper(rec, grad_out):
            calls[op] += 1
            return rule(rec, grad_out)
        return wrapper

    for op, rule in list(BACKWARD.items()):
        monkeypatch.setitem(BACKWARD, op, counted(op, rule))
    return calls


def test_op_checks_reach_every_backward_rule(monkeypatch):
    """Coverage from what the op checks run: every backward rule is called."""
    calls = _count_rule_calls(monkeypatch)
    for _, thunk in op_checks(1):
        thunk()
    assert [op for op, n in calls.items() if n == 0] == []


def test_network_backward_runs_every_rule(monkeypatch):
    """The tensor core holds no rule the pipeline does not use."""
    calls = _count_rule_calls(monkeypatch)
    net = en.Network(seed=1, channels=(4, 8, 8, 16, 16), pyramid_width=8, fa_mode="full",
                     reduction=4, dtype=np.float64)
    with en.Tape() as tape:
        named = net.forward(en.noise_image(1, 64, 64, np.float64)).named
        first, *rest = (t for name, t in named.items() if name.startswith("out."))
        loss = en.sum_all(first)
        for t in rest:
            loss = en.add(loss, en.sum_all(t))
    en.backward(tape, loss)
    assert len(calls) == 13
    assert [op for op, n in calls.items() if n == 0] == []


def test_edge_blocks_pass_at_seeds_1_to_20():
    """Every op and block check, the edge-attention blocks included, at seeds 1-20."""
    failures = []
    for seed in range(1, 21):
        for label, thunk in op_checks(seed) + block_checks(seed):
            report = thunk()
            if not report.ok:
                failures.append(f"seed {seed} {label}: {report.max_rel_err:.3e}")
    assert not failures
