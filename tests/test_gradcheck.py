"""The complex-step checker itself: passes, failures, kink guard."""

import math

import numpy as np
import pytest

import edgeneck as en
import edgeneck.tensor as tensor_core
from edgeneck import gradcheck, verify
from edgeneck.errors import ContractError
from edgeneck.gradcheck import H, grad_check
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
    # every input sits on the relu kink: +iH picks the other branch, nothing is probeable
    x = np.zeros((1, 1, 2, 2))
    report = grad_check(lambda t: en.sum_all(en.relu(t)), {"x": x})
    entry = report.entries[0]
    assert entry.probed == 0
    assert entry.skipped == 4
    assert not report.ok  # nothing measured about x's gradient
    assert report.unprobed == ["x"]
    assert "x: probed=0 skipped=4 max_rel_err=0.000e+00 [no verified probe]" in report.format()


@pytest.mark.parametrize("pool", [en.global_max_pool, en.down2_max], ids=lambda op: op.__name__)
def test_pool_argmax_flip_is_guarded(pool):
    # four tied elements: +iH on any but the first, the base arg-max, moves the arg-max there
    x = np.ones((1, 1, 2, 2))
    report = grad_check(lambda t: en.sum_all(pool(t)), {"x": x})
    entry = report.entries[0]
    assert (entry.probed, entry.skipped) == (1, 3)
    assert report.ok  # the base arg-max's probe keeps the branch and reads its derivative, 1
    assert entry.max_rel_err == 0.0


def test_edge_magnitude_zero_crossing_is_guarded():
    # gx = 0 at the (0, 0) kink, gy = 0 there too but 1 beside it: a probe of either
    # input at (0, 0) reads the magnitude iH, positive where the base one is 0
    gy = np.array([0.0, 0.0, 1.0, 1.0]).reshape(1, 1, 2, 2)
    report = grad_check(lambda gx, gy: en.sum_all(en.edge_magnitude(gx, gy)),
                        {"gx": np.zeros((1, 1, 2, 2)), "gy": gy})
    gx, gy = report.entries
    assert (gx.probed, gx.skipped) == (2, 2)
    assert (gy.probed, gy.skipped) == (2, 2)
    assert report.ok  # away from the kink, d|g|/dgx = 0 and d|g|/dgy = 1 are read exactly
    assert report.max_rel_err == 0.0


def test_a_flat_image_sits_on_the_edge_magnitude_kink_everywhere():
    """Sobel of a flat patch is (0, 0): every probe reads imaginary magnitudes of either sign.

    A probe at the corner reads only negative ones; the guard must skip it too.
    """
    report = grad_check(lambda t: en.sum_all(en.edge_map(t)), {"x": np.ones((1, 1, 5, 5))})
    assert [(e.probed, e.skipped) for e in report.entries] == [(0, 25)]
    assert report.max_rel_err == 0.0


def test_an_input_left_with_only_kinks_is_unprobed():
    report = grad_check(lambda gx, gy: en.sum_all(en.edge_magnitude(gx, gy)),
                        {"gx": np.zeros((1, 1, 2, 2)), "gy": np.zeros((1, 1, 2, 2))})
    assert [(e.probed, e.skipped) for e in report.entries] == [(0, 4), (0, 4)]
    assert not report.ok
    assert report.unprobed == ["gx", "gy"]
    assert report.max_rel_err < report.tol  # the failure is the unprobed inputs, not an error
    lines = []
    assert not run_checks([("op.edge", lambda: report)], emit=lines.append)
    assert lines[0].startswith("op.edge: FAILED") and lines[0].endswith(" unprobed=gx,gy")


def test_a_branch_taken_on_an_inner_tape_is_guarded(rerun_probes):
    """The guard compares a call made on the target's own inner tape with its base record too."""
    def inner_relu(x):
        with en.Tape():  # the relu's record, and its branch, go to this tape only
            r = en.relu(x)
        return en.sum_all(r)

    x = np.array([0.0, 0.0, -1.0, 0.0]).reshape(1, 1, 2, 2)
    report = grad_check(inner_relu, {"x": x})
    # backward on the check's tape cannot see the relu, so x's analytic gradient is 0,
    # which the probe at -1 confirms; the three probes at the kink are skipped
    assert [(e.probed, e.skipped) for e in report.entries] == [(1, 3)]
    assert report.ok
    rerun_probes()
    assert gradcheck.grad_check(inner_relu, {"x": x}).entries == report.entries


def _evaluations(monkeypatch):
    """The live list of what each later cone evaluation returns, in order: a value per probe."""
    values = []
    original = gradcheck._derivative

    def counted(*args):
        values.append(original(*args))
        return values[-1]

    monkeypatch.setattr(gradcheck, "_derivative", counted)
    return values


def _plant(monkeypatch, label, factor):
    """Scale input ``label``'s analytic gradient by ``factor`` in the checks made after.

    Checks made through ``gradcheck.grad_check`` or ``verify.grad_check``
    are affected; the target and its numeric derivatives are not.
    """
    original, backward = gradcheck.grad_check, gradcheck.backward
    leaf = []

    def grad_check(fn, inputs, *args, **kwargs):
        k = list(inputs).index(label)

        def taped(*leaves):  # the check's one call of its target
            leaf[:] = [leaves[k]]
            return fn(*leaves)
        return original(taped, inputs, *args, **kwargs)

    def planted(tape, out):
        backward(tape, out)
        leaf[0].grad *= factor

    monkeypatch.setattr(gradcheck, "grad_check", grad_check)
    monkeypatch.setattr(verify, "grad_check", grad_check)
    monkeypatch.setattr(gradcheck, "backward", planted)


def test_a_failed_directional_check_names_its_worst_input(monkeypatch):
    """x's gradient scaled by 1.5 and y's dropped: one halving, on x alone, splits them.

    Bisection keeps the input whose term of the signed residual is larger, here
    y's ``-x . u_y`` over x's ``0.5 g_x . u_x``.
    """
    original = BACKWARD["mul"]
    monkeypatch.setitem(BACKWARD, "mul", lambda rec, g: (original(rec, g)[0] * 1.5, None))
    inputs = {"x": rng(24).standard_normal((1, 1, 2, 2)),
              "y": rng(25).standard_normal((1, 1, 2, 2))}

    def check():
        return grad_check(lambda x, y: en.sum_all(en.mul(x, y)), inputs, rng=rng(26),
                          directional=True)

    evaluations = _evaluations(monkeypatch)
    lines = []
    run_checks([("pipeline.mul", check)], emit=lines.append)
    assert lines[0].startswith("pipeline.mul: FAILED probed=1 skipped=0 ")
    assert lines[0].endswith(" worst=y@direction")
    assert len(evaluations) == 2  # the direction, then one halving
    [direction], [halving] = evaluations  # y . u_x + x . u_y, then y . u_x
    assert abs(direction - halving) > abs(0.5 * halving)  # y's term outweighs x's


def _ring(*xs):
    """``sum(sigmoid(x_k * x_k+1))`` around the ring of inputs: every gradient couples two."""
    total = None
    for a, b in zip(xs, xs[1:] + xs[:1]):
        term = en.sum_all(en.sigmoid(en.mul(a, b)))
        total = term if total is None else en.add(total, term)
    return total


@pytest.mark.parametrize("dropped", ["x0", "x5", "x8", "x10"])
def test_bisection_names_the_input_whose_gradient_was_dropped(monkeypatch, dropped):
    """Of 11 inputs, the one whose gradient reads 0 is named within ceil(log2 11) = 4 halvings."""
    r = rng(27)
    inputs = {f"x{k}": r.standard_normal((1, 2, 2, 2)) for k in range(11)}
    assert grad_check(_ring, inputs, rng=rng(28), directional=True).ok
    _plant(monkeypatch, dropped, 0.0)
    evaluations = _evaluations(monkeypatch)
    lines = []
    assert not run_checks([("pipeline.ring", lambda: gradcheck.grad_check(
        _ring, inputs, rng=rng(28), directional=True))], emit=lines.append)
    assert lines[0].endswith(f" worst={dropped}@direction")
    assert 1 < len(evaluations) <= 1 + math.ceil(math.log2(len(inputs)))


def test_a_nan_gradient_is_localised(monkeypatch):
    """A non-finite residual counts as the larger half's."""
    r = rng(29)
    inputs = {f"x{k}": r.standard_normal((1, 1, 2, 2)) for k in range(5)}
    for label in inputs:
        _plant(monkeypatch, label, np.nan)
        report = gradcheck.grad_check(_ring, inputs, rng=rng(30), directional=True)
        monkeypatch.undo()
        assert report.max_rel_err == math.inf
        assert report.entries[0].worst_input == label


def test_a_halving_on_a_kink_names_the_first_input_left(monkeypatch):
    """y + z = 0 feeds a relu: the direction (u_y + u_z < 0) keeps its branch, y alone does not.

    z's gradient is dropped, so the first halving keeps (y, z); the second moves y
    alone, the guard skips it, and the search ends naming y, the first input left.
    """
    def fn(w, x, y, z):
        return en.add(en.add(en.sum_all(en.mul(w, x)), en.sum_all(en.mul(y, z))),
                      en.sum_all(en.relu(en.add(y, z))))

    r = rng(31)
    inputs = {"w": r.standard_normal((1, 1, 1, 2)), "x": r.standard_normal((1, 1, 1, 2)),
              "y": np.full((1, 1, 1, 1), 0.5), "z": np.full((1, 1, 1, 1), -0.5)}
    _plant(monkeypatch, "z", 0.0)
    evaluations = _evaluations(monkeypatch)
    report = gradcheck.grad_check(fn, inputs, rng=rng(19), directional=True)
    assert not report.ok
    assert [(e.probed, e.skipped) for e in report.entries] == [(1, 0)]
    assert report.entries[0].worst_input == "y"
    assert len(evaluations) == 3 and evaluations[-1] == [None]


def test_directional_kink_guard_draws_replacements_within_budget():
    # every coordinate of x sits on the relu kink: a direction keeps the base branch only
    # if its part in x has no positive component, which none of the 13 drawn has
    def fn(x, y):
        return en.add(en.sum_all(en.relu(x)), en.sum_all(en.relu(y)))

    report = grad_check(fn, {"x": np.zeros((1, 2, 2, 2)), "y": np.ones((1, 1, 2, 2))},
                        rng=rng(9), directional=True)
    [entry] = report.entries
    assert (entry.label, entry.probed, entry.skipped) == ("x..y", 0, 13)
    assert not report.ok
    assert report.unprobed == ["x..y"]


def test_joint_directions_share_one_evaluation(monkeypatch):
    """Three directions over small inputs are one batch, and read as three batches of one."""
    r = rng(36)
    inputs = {f"x{k}": r.standard_normal((1, 1, 2, 2)) for k in range(4)}

    def check():
        return gradcheck.grad_check(_ring, inputs, rng=rng(37), max_coords=3, directional=True)

    evaluations = _evaluations(monkeypatch)
    [entry] = check().entries
    assert [len(values) for values in evaluations] == [3]
    assert (entry.label, entry.probed, entry.skipped) == ("x0..x3", 3, 0)
    assert 0 < entry.max_rel_err <= gradcheck.TOL
    evaluations.clear()
    monkeypatch.setattr(gradcheck, "_tile", lambda count, unit_bytes: 1)
    assert check().entries == [entry]
    assert [len(values) for values in evaluations] == [1, 1, 1]

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


def _noting_square(seen, calls=None):
    """``t * t`` as an op that notes ``(label, data)`` per probe it squares: what a probe feeds it.

    A call on a batch of probes notes each probe's ``(N, C, H, W)`` data in
    batch order; ``calls``, when given, collects the label of each call.
    """
    @tensor_core._listed
    def square(label, t):
        seen.extend((label, data.copy()) for data in t.data.reshape((-1,) + t.data.shape[-4:]))
        if calls is not None:
            calls.append(label)
        return tensor_core._record("mul", (t, t), t.data * t.data)
    return square


@pytest.mark.parametrize("seed", [3, 11])
def test_probe_draw_order_is_pinned(seed):
    """Probed coordinates follow ``np.argwhere(everywhere)[rng.permutation(n)]``, input by input."""
    r = rng(seed)
    start = {"a": r.standard_normal((1, 2, 3, 4)), "b": r.standard_normal((2, 1, 3, 2))}
    seen, calls = [], []
    square = _noting_square(seen, calls)

    def fn(a, b):
        return en.add(en.sum_all(square("a", a)), en.sum_all(square("b", b)))

    grad_check(fn, start, rng=rng(seed), max_coords=5)
    assert [label for label, _ in seen[:2]] == ["a", "b"]  # the taped forward
    assert all(np.array_equal(data, start[label]) for label, data in seen[:2])
    # the one coordinate that differs from the check point is the one being probed, moved by iH
    perturbed = [(label, tuple(c)) for label, data in seen[2:]
                 for c in np.argwhere(data != start[label])]
    assert len(perturbed) == len(seen) - 2
    assert all(np.array_equal(data.real, start[label]) and data.imag.sum() == H
               for label, data in seen[2:])
    draw = rng(seed)
    want = []
    for label, data in start.items():
        everywhere = np.ones(data.shape, bool)
        want += [(label, tuple(c))
                 for c in np.argwhere(everywhere)[draw.permutation(data.size)][:5]]
    assert perturbed == want  # one probe per coordinate
    assert calls == ["a", "b", "a", "b"]  # the taped forward, then one batch per input


def test_directional_probe_moves_all_inputs_along_one_drawn_direction():
    """Each input's part is ``rng.standard_normal(dims)``, in order, over ``max(1, |g|)``."""
    r = rng(12)
    a0, b0 = r.standard_normal((1, 2, 3, 4)), r.standard_normal((2, 1, 3, 2))
    seen = []
    square = _noting_square(seen)

    def fn(a, b):
        return en.add(en.sum_all(square("a", a)), en.sum_all(en.sigmoid(square("b", b))))

    report = grad_check(fn, {"a": a0, "b": b0}, rng=rng(13), directional=True)
    assert report.ok
    assert [(e.label, e.probed, e.skipped) for e in report.entries] == [("a..b", 1, 0)]
    s = 1 / (1 + np.exp(-b0 * b0))
    grads = [2 * a0, s * (1 - s) * 2 * b0]
    assert np.linalg.norm(grads[0]) > 1 > np.linalg.norm(grads[1])  # both sides of max(1, |g|)
    draw = rng(13)
    u = [draw.standard_normal(g.shape) / max(1, np.linalg.norm(g)) for g in grads]
    # the taped forward notes both inputs, then the one evaluation moves both together
    assert [label for label, _ in seen] == ["a", "b", "a", "b"]
    starts = {"a": a0, "b": b0}
    for (label, data), want in zip(seen, (0, 0, u[0], u[1])):
        assert np.array_equal(data.real, starts[label])
        np.testing.assert_allclose(data.imag, H * np.asarray(want), rtol=1e-15, atol=0)


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


def test_a_failed_batch_ends_its_input(monkeypatch):
    """With batches of one, a's first probe fails and ends a's entry; b's probes all run."""
    r = rng(4)
    original = BACKWARD["mul"]
    monkeypatch.setitem(BACKWARD, "mul", lambda rec, g: (original(rec, g)[0] * 1.5,
                                                          original(rec, g)[1]))
    monkeypatch.setattr(gradcheck, "_tile", lambda count, unit_bytes: 1)
    report = grad_check(
        lambda a, b: en.sum_all(en.mul(a, b)),
        {"a": r.standard_normal((1, 1, 2, 2)), "b": r.standard_normal((1, 1, 2, 2))},
    )
    assert [(e.label, e.probed, e.skipped) for e in report.entries] == [("a", 1, 0), ("b", 4, 0)]
    assert report.entries[0].max_rel_err > 1e-2 and not report.ok


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


@pytest.mark.parametrize("directional", [False, True])
def test_no_inputs_is_refused(directional):
    """An empty mapping has nothing to verify: no vacuous ``ok``, no ``IndexError``."""
    with pytest.raises(ContractError, match="at least one input"):
        grad_check(lambda: en.Tensor(np.ones((1, 1, 1, 1))), {}, directional=directional)


@pytest.mark.parametrize("directional", [False, True])
@pytest.mark.parametrize("max_coords", [0, -1])
def test_max_coords_below_one_is_refused(max_coords, directional):
    """A cap of no probes used to probe every coordinate."""
    with pytest.raises(ContractError, match=f"max_coords must be >= 1, got {max_coords}"):
        grad_check(lambda x: en.sum_all(en.mul(x, x)), {"x": np.ones((1, 1, 2, 2))},
                   max_coords=max_coords, directional=directional)


def _one_at_a_time(x, max_coords, seed):
    """``(probed, skipped)`` of probing ``x``'s coordinates in permutation order, one by one.

    A probe at an exact zero straddles the relu kink and is skipped; the walk
    ends at ``max_coords`` verified probes or ``max(6 * max_coords,
    max_coords + 12)`` attempted ones.
    """
    probed = skipped = 0
    for i in rng(seed).permutation(x.size)[:max(6 * max_coords, max_coords + 12)]:
        if x.flat[i] == 0:
            skipped += 1
        else:
            probed += 1
        if probed == max_coords:
            break
    return probed, skipped


@pytest.mark.parametrize("zeros, max_coords", [(20, 6), (30, 2)])
def test_kinked_probes_of_a_batch_are_replaced_in_rounds(monkeypatch, rerun_probes, zeros,
                                                         max_coords):
    """Some of x's probes sit on the relu kink, some do not: later batches replace the skipped ones.

    The report equals probing one coordinate at a time, by batches of one
    and by whole re-runs; with 30 zeros of 32 the budget of 14 attempts ends
    the check before its second verified probe.
    """
    x = rng(32).choice([-1.5, -0.5, 0.5, 1.5], (1, 2, 4, 4))
    x.flat[rng(33).permutation(x.size)[:zeros]] = 0.0
    assert np.count_nonzero(x) == x.size - zeros

    def check():
        return gradcheck.grad_check(lambda t: en.sum_all(en.mul(en.relu(t), t)), {"x": x},
                                    rng=rng(34), max_coords=max_coords)

    evaluations = _evaluations(monkeypatch)
    [entry] = check().entries
    assert (entry.probed, entry.skipped) == _one_at_a_time(x, max_coords, 34)
    assert entry.max_rel_err < 1e-14
    assert len(evaluations) > 1  # a second batch replaced skipped probes
    assert sum(map(len, evaluations)) == entry.probed + entry.skipped
    assert entry.probed + entry.skipped <= max(6 * max_coords, max_coords + 12)
    monkeypatch.setattr(gradcheck, "_tile", lambda count, unit_bytes: 1)
    assert check().entries == [entry]
    rerun_probes()
    assert check().entries == [entry]


@pytest.mark.parametrize("dims, max_coords", [((1, 1, 32, 32), None), ((1, 1, 363, 363), 4)])
def test_a_batch_keeps_the_probed_leaf_within_the_tile_bound(monkeypatch, dims, max_coords):
    """A reduction's cone computes values smaller than its leaf: the leaf's points count too.

    Each batch's points stay within ``_TILE_BYTES``, or hold one probe when
    one complex copy of the leaf is larger.
    """
    sizes = []
    original = gradcheck._derivative

    def sized(cone, end, points):
        sizes.append((len(points[0]), points[0].nbytes))
        return original(cone, end, points)

    monkeypatch.setattr(gradcheck, "_derivative", sized)
    x = rng(35).standard_normal(dims)
    report = grad_check(lambda t: en.sum_all(en.global_avg_pool(t)), {"x": x},
                        max_coords=max_coords)
    assert report.ok
    one = 16 * x.size
    per_batch = max(1, tensor_core._TILE_BYTES // one)
    assert all(nbytes <= max(tensor_core._TILE_BYTES, one) for _, nbytes in sizes)
    probes = max_coords or x.size
    assert [count for count, _ in sizes] == [per_batch] * (probes // per_batch)


def test_a_seed_2_pass_runs_one_evaluation_per_input_and_direction(monkeypatch):
    """All of an op or block input's coordinate probes are one batch; 78 inputs, 3 directions."""
    evaluations = _evaluations(monkeypatch)
    reports = [(label, run()) for label, run in verify.checks_for_scope("all", 2)]
    assert all(report.ok for _, report in reports)
    inputs = sum(len(report.entries) for label, report in reports if label != "pipeline.full")
    assert inputs == 78
    assert len(evaluations) == inputs + 3  # 787 evaluations of one probe each before


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
    # the taped forward computes both convs, then each probe's one evaluation
    # computes two for x and w1 and one for w2
    assert len(conv_kernels) == 2 + (2 * 32 + 2 * 54 + 1 * 6)
    # each input's probes are one batch: one kernel call per conv in its cone
    assert conv_kernels.calls == 2 + (2 + 2 + 1)


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
    assert len(conv_kernels) == 1 + (32 + 54)  # y's probes reuse the conv
    assert conv_kernels.calls == 1 + (1 + 1)
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
    assert len(conv_kernels) == 1 + (32 + 54 + 3)
    assert conv_kernels.calls == 1 + (1 + 1 + 1)
    rerun_probes()
    assert gradcheck.grad_check(_conv_by_keyword, inputs).entries == report.entries


def test_an_input_that_reaches_nothing_computes_no_kernel(conv_kernels):
    """An unused input's probes reuse the base forward's output whole."""
    inputs = {**_two_conv_inputs(), "unused": rng(21).standard_normal((1, 1, 2, 2))}
    report = grad_check(lambda x, w1, w2, unused: _two_convs(x, w1, w2), inputs)
    assert report.ok
    assert report.entries[3].probed == 4 and report.entries[3].max_rel_err == 0.0
    assert len(conv_kernels) == 2 + (2 * 32 + 2 * 54 + 1 * 6)  # as without the input
    assert conv_kernels.calls == 2 + (2 + 2 + 1)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_check_entry_equals_a_full_rerun(rerun_probes, seed):
    """Recomputing only each input's cone gives every entry of every check, bit for bit."""
    checks = verify.checks_for_scope("all", seed)
    cones = [run().entries for _, run in checks]
    rerun_probes()
    assert [run().entries for _, run in checks] == cones


@pytest.mark.parametrize("label, count, calls", [("block.edge_attention", 218, 26),
                                                 ("pipeline.full", 240, 240)])
def test_constant_kernels_are_reused(conv_kernels, label, count, calls):
    """Probes compute only the convs their inputs reach; deep_sobel's kernels are constants.

    Each count is the base forward's convs plus one cone recomputation per
    probe: per coordinate for the block, per direction for the pipeline's three.
    The block's coordinates of one input are one batch, one kernel call per
    conv of its cone; the pipeline's directions are one call each.
    """
    [run] = [run for name, run in block_checks(1) + pipeline_check(1) if name == label]
    conv_kernels.clear()
    run()
    assert len(conv_kernels) == count
    assert conv_kernels.calls == calls


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
        fn(*(en.Tensor(np.asarray(getattr(v, "data", v), np.float64) + 1j * H)
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
    # sigmoid(20 x) near 0: a central difference of step 1e-3 misses by up to 3.6e-5
    return en.sum_all(en.sigmoid(en.mul(x, en.Tensor(np.full((1, 1, 1, 1), 20.0, np.float64)))))


def test_curved_probe_is_re_estimated():
    """A strongly curved probe passes: the complex step at H has no truncation to speak of."""
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
    assert report.max_rel_err < report.tol / 1000  # worst clean reading: 8.6e-15, seed 20


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("op", list(BACKWARD))
def test_pipeline_catches_a_backward_off_by_1e_5(monkeypatch, op, seed):
    original = BACKWARD[op]

    def scaled(rec, grad_out):
        return tuple(None if g is None else g * (1 + 1e-5) for g in original(rec, grad_out))

    monkeypatch.setitem(BACKWARD, op, scaled)
    [(_, run)] = pipeline_check(seed)
    assert not run().ok


# pyramid.s64.smooth.b is the smallest share of sum(g * u) at seed 2 of a unit direction
# drawn without weights: scaled by 1+1e-5 there, it read 7.8e-11, under TOL
@pytest.mark.parametrize("label, seed", [
    ("pyramid.s64.smooth.b", 1), ("pyramid.s64.smooth.b", 2), ("pyramid.s64.smooth.b", 3),
    ("image", 2), ("backbone.stem1.w", 2), ("edge.gate.w0", 3)])
def test_pipeline_names_a_leaf_whose_gradient_is_off_by_1e_5(monkeypatch, label, seed):
    _plant(monkeypatch, label, 1 + 1e-5)
    evaluations = _evaluations(monkeypatch)
    lines = []
    assert not run_checks(pipeline_check(seed), emit=lines.append)
    assert lines[0].endswith(f" worst={label}@direction")
    assert len(evaluations) <= 3 + 7  # three directions, ceil(log2 103) halvings


def test_halving_evaluations_equal_a_full_rerun(monkeypatch, rerun_probes):
    """Each halving of a planted failure reads what a whole re-run of the target reads."""
    _plant(monkeypatch, "pyramid.s64.smooth.b", 1 + 1e-5)
    [(_, run)] = pipeline_check(1)
    evaluations = _evaluations(monkeypatch)
    entries = run().entries
    cones = list(evaluations)
    rerun_probes()
    evaluations = _evaluations(monkeypatch)
    assert run().entries == entries
    # the first direction fails and ends the check, then six halvings
    assert evaluations == cones and len(cones) == 7
    assert [e.probed for e in entries] == [1]


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
