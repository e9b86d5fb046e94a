import contextlib
import functools
import inspect

import numpy as np
import pytest

import edgeneck.tensor as tensor_core

# the ops that take their branch decision back as ``branch=``
BRANCHING = [op for op in tensor_core.BACKWARD
             if "branch" in inspect.signature(getattr(tensor_core, op)).parameters]


@pytest.fixture(autouse=True)
def no_tape_left_open():
    """Fail a test that leaves a tape on the stack: later ops would record and list on it."""
    yield
    leaked = list(tensor_core._TAPE_STACK)
    tensor_core._TAPE_STACK.clear()
    assert not leaked, f"{len(leaked)} tape(s) left open"


@pytest.fixture
def run_cli(capsys):
    """Run the CLI in-process; returns (exit code, stdout, stderr)."""
    from edgeneck.cli import main

    def run(*argv):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:  # argparse usage failures
            code = exc.code if isinstance(exc.code, int) else 2
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


class ConvKernels(list):
    """Input ``(N, C, H, W)`` dims of each conv kernel, once per probe a batched call computes.

    ``calls`` counts the kernel calls themselves; ``clear()`` restarts both.
    """

    calls = 0

    def clear(self):
        super().clear()
        self.calls = 0


@pytest.fixture
def conv_kernels(monkeypatch):
    """The live :class:`ConvKernels` of every conv kernel the test computes."""
    kernels = ConvKernels()
    original = tensor_core._conv_forward

    def counted(xd, wd, bias_d, *args):
        operands = [a for a in (xd, wd, bias_d) if a is not None]
        probes = int(np.prod(np.broadcast_shapes(*(a.shape[:-4] for a in operands))))
        kernels.calls += 1
        kernels.extend([xd.shape[-4:]] * probes)
        return original(xd, wd, bias_d, *args)

    monkeypatch.setattr(tensor_core, "_conv_forward", counted)
    return kernels


def _branch_from_inputs(op, branch):
    """``op``'s backward rule with its branch worked out by ``branch`` from the record's inputs."""
    rule = tensor_core.BACKWARD[op]

    def patched(rec, grad_out):
        saved = dict(rec.saved, branch=branch(*(t.data for t in rec.inputs)))
        return rule(tensor_core.TapeRecord(rec.op, rec.inputs, rec.output, saved), grad_out)
    return patched


def _last_maximal(rows):
    """Per row along the last axis, the index of its last maximal element."""
    return rows.shape[-1] - 1 - rows[..., ::-1].argmax(axis=-1)


def _blocks(x):
    """Each 2x2 block of ``(N, C, H, W)`` data along a last axis of 4, row-major."""
    n, c, h, w = x.shape
    return x.reshape(n, c, h // 2, 2, w // 2, 2).swapaxes(3, 4).reshape(n, c, h // 2, w // 2, 4)


def _edge_magnitude_unit_at_zero(rec, grad_out):
    """d|g|/dgx = 1 and d|g|/dgy = 0 at (0, 0), the limit along gx > 0; the clean rule elsewhere."""
    gx, gy = (t.data for t in rec.inputs)
    mag = np.hypot(gx, gy)
    safe = np.where(mag > 0, mag, 1.0)
    return grad_out * np.where(mag > 0, gx / safe, 1.0), grad_out * gy / safe


@pytest.fixture
def other_convention(monkeypatch):
    """Call it with a branching op's name to give that op a backward rule of another convention.

    The rule works its branch out from the record's inputs, not from the
    saved ``branch``, and differs from the op's forward only at a tie:
    relu'(0) = 1, the last of tied maxima, or a unit gradient at (0, 0).
    """
    rules = {
        "relu": lambda: _branch_from_inputs("relu", lambda x: x >= 0),
        "global_max_pool": lambda: _branch_from_inputs(
            "global_max_pool", lambda x: _last_maximal(x.reshape(x.shape[:2] + (-1,)))),
        "down2_max": lambda: _branch_from_inputs("down2_max", lambda x: _last_maximal(_blocks(x))),
        "edge_magnitude": lambda: _edge_magnitude_unit_at_zero,
    }

    def install(op):
        monkeypatch.setitem(tensor_core.BACKWARD, op, rules[op]())
    return install


def _take(plain, decisions, *args, **kwargs):
    return plain(*args, branch=next(decisions), **kwargs)


@contextlib.contextmanager
def _held_to(calls):
    """Each branching op takes, call by call, the ``branch`` entry its call in ``calls`` recorded.

    The op's plain function is swapped inside its listed wrapper, which
    stays the object every module imported, so every caller takes the held
    op; a call ``calls`` lists with no record takes no branch.
    """
    swapped = []
    for name in BRANCHING:
        listed = getattr(tensor_core, name)
        cell = listed.__closure__[listed.__code__.co_freevars.index("op")]
        plain = cell.cell_contents
        decisions = iter([None if rec is None else rec.saved["branch"]
                          for (op, _, _), _, rec in calls if op is plain])
        swapped.append((cell, plain))
        cell.cell_contents = functools.partial(_take, plain, decisions)
    try:
        yield
    finally:
        for cell, plain in swapped:
            cell.cell_contents = plain


@pytest.fixture
def rerun_probes(monkeypatch):
    """Call it to make later checks re-run their target whole at every probe.

    Each evaluation's batch of probes is split into single probes.  Each
    probe calls the target on a fresh tape with its complex points
    ``x + i H u`` in the probed inputs' places (one input for a coordinate,
    every input for a joint direction or one of its halvings), each
    branching op held to the ``branch`` entry of its call in the base
    forward, and reads ``Im(out) / H``: the reference that recomputing only
    the probed inputs' compiled cone, a batch of probes at once, must
    equal.  Checks made through ``gradcheck.grad_check`` or
    ``verify.grad_check`` are affected.
    """
    from edgeneck import gradcheck, verify
    from edgeneck.tensor import Tape, Tensor

    def install():
        original = gradcheck.grad_check
        base = {}

        def grad_check(fn, inputs, *args, **kwargs):
            def taped(*leaves):  # the check's one call of its target, on the check's tape
                base["fn"], base["leaves"] = fn, leaves
                base["calls"] = tensor_core._TAPE_STACK[-1].calls
                return fn(*leaves)
            return original(taped, inputs, *args, **kwargs)

        def compile_only_the_leaves(calls, leaves, out):
            return leaves, None

        def rerun_one(leaves, probe):
            args = list(base["leaves"])
            position = {id(t): k for k, t in enumerate(args)}
            for leaf, point in zip(leaves, probe):
                args[position[id(leaf)]] = Tensor(point, requires_grad=True)
            with _held_to(base["calls"]), Tape():
                return base["fn"](*args).item().imag / gradcheck.H

        def rerun(leaves, end, points):
            return [rerun_one(leaves, probe) for probe in zip(*points)]

        monkeypatch.setattr(gradcheck, "grad_check", grad_check)
        monkeypatch.setattr(verify, "grad_check", grad_check)
        monkeypatch.setattr(gradcheck, "_compile", compile_only_the_leaves)
        monkeypatch.setattr(gradcheck, "_derivative", rerun)

    return install
