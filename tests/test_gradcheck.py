"""The finite-difference checker itself: passes, failures, kink guard."""

import numpy as np
import pytest

import edgeneck as en
from edgeneck.errors import ContractError
from edgeneck.gradcheck import EPS, grad_check
from edgeneck.tensor import BACKWARD
from edgeneck.verify import block_checks, op_checks


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


def test_relu_with_probe_mask_passes():
    x = rng(3).standard_normal((1, 3, 4, 4))
    report = grad_check(
        lambda t: en.sum_all(en.relu(t)),
        {"x": x},
        probe_masks={"x": np.abs(x) > 0.1},
    )
    assert report.ok
    entry = report.entries[0]
    assert entry.probed == int((np.abs(x) > 0.1).sum())


def test_kink_straddling_probes_are_skipped():
    # every input sits within eps of the relu kink: nothing is probeable
    x = np.full((1, 1, 2, 2), 2e-4)
    report = grad_check(lambda t: en.sum_all(en.relu(t)), {"x": x})
    entry = report.entries[0]
    assert entry.probed == 0
    assert entry.skipped == 4
    assert report.ok  # nothing measured, nothing failed


@pytest.mark.parametrize("pool", [en.global_max_pool, en.down2_max], ids=lambda op: op.__name__)
def test_pool_argmax_flip_is_guarded(pool):
    # two near-tied elements: probing either straddles the argmax flip
    x = np.asarray([[[[1.0, 1.0 + 1e-4], [0.0, 0.0]]]])
    report = grad_check(lambda t: en.sum_all(pool(t)), {"x": x})
    assert report.entries[0].skipped >= 2
    assert report.ok


def test_edge_magnitude_zero_crossing_is_guarded():
    # gx = EPS, gy = 0: every gx probe lands exactly on the (0, 0) kink
    report = grad_check(lambda gx, gy: en.sum_all(en.edge_magnitude(gx, gy)),
                        {"gx": np.full((1, 1, 2, 2), EPS), "gy": np.zeros((1, 1, 2, 2))})
    gx, gy = report.entries
    assert (gx.probed, gx.skipped) == (0, 4)
    assert (gy.probed, gy.skipped) == (4, 0)
    assert report.ok


def test_unused_input_has_zero_gradient():
    # backward never reaches y, so its analytic gradient reads as zero
    report = grad_check(lambda x, y: en.sum_all(x),
                        {"x": np.ones((1, 1, 2, 2)), "y": np.ones((1, 1, 2, 2))})
    assert report.ok
    y = report.entries[1]
    assert (y.label, y.probed, y.max_rel_err) == ("y", 4, 0.0)


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


def test_max_coords_caps_probe_count():
    report = grad_check(
        lambda x: en.sum_all(en.square(x)),
        {"x": rng(5).standard_normal((1, 4, 8, 8))},
        max_coords=5,
    )
    assert report.entries[0].probed == 5


def test_requires_scalar_target():
    with pytest.raises(ContractError):
        grad_check(lambda x: en.square(x), {"x": np.ones((1, 1, 2, 2))})


def test_mask_for_unknown_input_rejected():
    with pytest.raises(ContractError):
        grad_check(lambda x: en.sum_all(x), {"x": np.ones((1, 1, 2, 2))},
                   probe_masks={"y": np.ones((1, 1, 2, 2), bool)})


def test_report_format_lines():
    report = grad_check(
        lambda x: en.sum_all(en.square(x)),
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
    # sigmoid(20 x) near 0: the central difference alone misses by up to 3.6e-5
    return en.sum_all(en.sigmoid(en.mul(x, en.full((1, 1, 1, 1), 20.0, np.float64))))


def test_curved_probe_is_re_estimated():
    x = np.linspace(-0.12, 0.12, 6).reshape(1, 1, 2, 3)
    report = grad_check(_steep_sigmoid, {"x": x})
    assert report.ok
    assert report.entries[0].probed == 6


def test_re_estimate_still_catches_a_small_bug(monkeypatch):
    original = BACKWARD["sigmoid"]
    monkeypatch.setitem(BACKWARD, "sigmoid", lambda rec, g: (original(rec, g)[0] * (1 + 1e-3),))
    x = np.linspace(-0.12, 0.12, 6).reshape(1, 1, 2, 3)
    assert not grad_check(_steep_sigmoid, {"x": x}).ok


def test_op_checks_reach_every_backward_rule(monkeypatch):
    """Coverage from what the op checks run: every backward rule is called."""
    calls = dict.fromkeys(BACKWARD, 0)

    def counted(op, rule):
        def wrapper(rec, grad_out):
            calls[op] += 1
            return rule(rec, grad_out)
        return wrapper

    for op, rule in list(BACKWARD.items()):
        monkeypatch.setitem(BACKWARD, op, counted(op, rule))
    for _, thunk in op_checks(1):
        thunk()
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
