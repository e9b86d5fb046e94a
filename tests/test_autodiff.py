"""Reverse-mode semantics: tape ordering, accumulation, backward rules."""

import numpy as np
import pytest

import edgeneck as en
from edgeneck import gradcheck
from edgeneck import tensor as tensor_core
from edgeneck.errors import ContractError, UsageError
from edgeneck.tensor import BACKWARD

from reference import conv2d_reference


def rng(seed=0):
    return np.random.default_rng(seed)


def leaf(dims, seed=0, dtype=np.float64):
    return en.Tensor(rng(seed).standard_normal(dims).astype(dtype), requires_grad=True)


def test_root_must_be_scalar():
    x = leaf((1, 2, 2, 2))
    with en.Tape() as tape:
        y = en.mul(x, x)
    with pytest.raises(ContractError):
        en.backward(tape, y)


def test_root_must_come_from_tape():
    x = leaf((1, 1, 2, 2))
    with en.Tape() as tape:
        en.sum_all(x)
    stray = en.sum_all(x)  # built outside the tape context
    with pytest.raises(UsageError):
        en.backward(tape, stray)


def test_no_recording_without_tape():
    x = leaf((1, 1, 2, 2))
    with en.Tape() as tape:
        pass
    en.sum_all(en.mul(x, x))
    assert len(tape) == 0


def test_constant_results_are_not_recorded():
    a = en.Tensor(np.ones((1, 1, 2, 2), np.float32))
    with en.Tape() as tape:
        en.mul(a, a)
    assert len(tape) == 0


def test_relu_grad_is_mask():
    x = en.Tensor(np.abs(rng(1).standard_normal((1, 2, 3, 3))) + 0.5, requires_grad=True)
    with en.Tape() as tape:
        loss = en.sum_all(en.relu(x))
    en.backward(tape, loss)
    assert np.array_equal(x.grad, np.ones_like(x.data))


def test_square_sum_grad_is_2x():
    x = leaf((1, 2, 3, 3), seed=2)
    with en.Tape() as tape:
        loss = en.sum_all(en.mul(x, x))
    en.backward(tape, loss)
    assert np.allclose(x.grad, 2 * x.data, atol=1e-12)


def test_self_add_doubles_gradient():
    x = leaf((1, 1, 2, 2), seed=3)
    with en.Tape() as tape:
        loss = en.sum_all(en.add(x, x))
    en.backward(tape, loss)
    assert np.array_equal(x.grad, np.full_like(x.data, 2.0))


def test_shared_operand_fanout_accumulates():
    # y feeds two consumers; its upstream leaf must see both paths
    x = leaf((1, 1, 2, 2), seed=4)
    c = en.Tensor(rng(5).standard_normal((1, 1, 2, 2)))
    with en.Tape() as tape:
        y = en.relu(x)
        loss = en.add(en.sum_all(en.mul(y, c)), en.sum_all(y))
    en.backward(tape, loss)
    want = (c.data + 1.0) * (x.data > 0)
    assert np.allclose(x.grad, want, atol=1e-12)


def test_grads_accumulate_until_zeroed():
    x = leaf((1, 1, 2, 2), seed=6)
    for expected in (1.0, 2.0):
        with en.Tape() as tape:
            loss = en.sum_all(x)
        en.backward(tape, loss)
        assert np.allclose(x.grad, expected)
    x.zero_grad()
    assert not x.grad.any()


def test_broadcast_add_reduces_gradient():
    a = leaf((2, 3, 4, 4), seed=7)
    b = leaf((1, 3, 1, 1), seed=8)
    with en.Tape() as tape:
        loss = en.sum_all(en.add(a, b))
    en.backward(tape, loss)
    assert np.allclose(a.grad, 1.0)
    assert np.allclose(b.grad, 2 * 4 * 4)


def test_max_pool_routes_to_first_maximum():
    x = en.Tensor(np.asarray([[[[1.0, 5.0], [5.0, 0.0]]]]), requires_grad=True)
    with en.Tape() as tape:
        loss = en.sum_all(en.global_max_pool(x))
    en.backward(tape, loss)
    assert np.array_equal(x.grad[0, 0], [[0.0, 1.0], [0.0, 0.0]])


def test_branch_is_built_only_for_a_kept_record():
    def refuse():
        raise AssertionError("branch built for a record no tape keeps")

    def saved():
        return "built"

    data = np.ones((1, 1, 1, 1))
    tensor_core._record("relu", (en.Tensor(data, requires_grad=True),), data, branch=refuse)
    with en.Tape() as tape:
        tensor_core._record("relu", (en.Tensor(data),), data, branch=refuse)
        tensor_core._record("relu", (en.Tensor(data, requires_grad=True),), data, branch=saved)
    assert [rec.saved for rec in tape.records] == [{"branch": "built"}]


def test_down2_max_ties_go_to_first_in_scan_order():
    x = en.Tensor(np.full((1, 1, 2, 2), 3.0), requires_grad=True)
    with en.Tape() as tape:
        loss = en.sum_all(en.down2_max(x))
    en.backward(tape, loss)
    assert np.array_equal(x.grad[0, 0], [[1.0, 0.0], [0.0, 0.0]])


def test_conv_weight_grad_matches_finite_differences():
    r = rng(9)
    x = en.Tensor(r.standard_normal((1, 2, 5, 5)))
    w = en.Tensor(r.standard_normal((3, 2, 3, 3)), requires_grad=True)
    spec = en.ConvSpec(padding=(1, 1))
    with en.Tape() as tape:
        loss = en.sum_all(en.conv2d(x, w, spec=spec))
    en.backward(tape, loss)
    eps = 1e-3
    for idx in [(0, 0, 0, 0), (1, 1, 2, 1), (2, 0, 1, 2)]:
        wp, wm = w.data.copy(), w.data.copy()
        wp[idx] += eps
        wm[idx] -= eps
        fp = conv2d_reference(x.data, wp, padding=(1, 1)).sum()
        fm = conv2d_reference(x.data, wm, padding=(1, 1)).sum()
        numeric = (fp - fm) / (2 * eps)
        assert abs(w.grad[idx] - numeric) / max(1.0, abs(numeric)) < 1e-5


def test_sum_respects_downstream_only():
    # gradient must not flow through ops recorded after the root
    x = leaf((1, 1, 2, 2), seed=10)
    with en.Tape() as tape:
        loss = en.sum_all(x)
        en.sum_all(en.mul(x, x))  # consumer created after the root
    en.backward(tape, loss)
    assert np.allclose(x.grad, 1.0)


def test_backward_registry_is_patchable(monkeypatch):
    x = leaf((1, 1, 2, 2), seed=11)
    monkeypatch.setitem(BACKWARD, "relu", lambda rec, g: (np.zeros_like(g),))
    with en.Tape() as tape:
        loss = en.sum_all(en.relu(x))
    en.backward(tape, loss)
    assert not x.grad.any()


_GUIDE_IMAGE = en.Tensor(rng(15).standard_normal((1, 1, 4, 4)))
_GUIDE_KERNEL = en.Tensor(np.full((1, 1, 3, 3), 0.25))


def _inner_taped(x, w1, w2):
    # the constant guide is built on an inner tape
    with en.Tape():
        guide = en.sigmoid(en.conv2d(_GUIDE_IMAGE, _GUIDE_KERNEL))
    return en.sum_all(en.mul(en.conv2d(en.conv2d(x, w1), w2), guide))


def test_calls_on_an_inner_tape_are_recomputed(conv_kernels, rerun_probes):
    """A call on an inner tape is listed on the check's tape too: reused if no input reaches it."""
    inputs = {"x": rng(16).standard_normal((1, 2, 4, 4)),
              "w1": rng(17).standard_normal((3, 2, 3, 3)),
              "w2": rng(18).standard_normal((2, 3, 1, 1))}
    report = gradcheck.grad_check(_inner_taped, inputs)
    assert report.ok
    # the base forward computes all three convs; each probe's one evaluation
    # computes two for x and w1 and one for w2, and reuses the guide's
    assert len(conv_kernels) == 3 + (2 * 32 + 2 * 54 + 1 * 6)
    assert conv_kernels.calls == 3 + (2 + 2 + 1)  # one batch of probes per input
    rerun_probes()
    assert gradcheck.grad_check(_inner_taped, inputs).entries == report.entries


def test_a_leaf_dependent_call_on_an_inner_tape_is_recomputed(rerun_probes):
    """A probe recomputes what an inner tape computed from its input, as a full re-run does."""
    def hidden(x, w):
        with en.Tape():  # backward on the check's tape cannot see this conv
            h = en.conv2d(x, w)
        return en.sum_all(en.mul(h, h))

    inputs = {"x": rng(22).standard_normal((1, 2, 4, 4)),
              "w": rng(23).standard_normal((3, 2, 3, 3))}
    report = gradcheck.grad_check(hidden, inputs)
    # the analytic gradient misses the conv, the complex step does not
    assert [e.max_rel_err > 0.5 for e in report.entries] == [True, True]
    assert not report.ok
    rerun_probes()
    assert gradcheck.grad_check(hidden, inputs).entries == report.entries
