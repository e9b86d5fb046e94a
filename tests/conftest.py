import numpy as np
import pytest

import edgeneck.tensor as tensor_core


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


@pytest.fixture
def rerun_probes(monkeypatch):
    """Call it to make later checks re-run their target whole at every probe.

    Each evaluation's batch of probes is split into single probes.  Each
    probe calls the target on a fresh tape with its complex points
    ``x + i H u`` in the probed inputs' places (one input for a coordinate,
    every input for a joint direction or one of its halvings), compares the
    ``branch`` entry of every call it lists with the base forward's entry
    for that call, and reads ``Im(out) / H``: the reference that
    recomputing only the probed inputs' compiled cone, a batch of probes
    at once, must equal.  Checks made through ``gradcheck.grad_check`` or
    ``verify.grad_check`` are affected.
    """
    from edgeneck import gradcheck, verify
    from edgeneck.tensor import Tape, Tensor

    def branches(calls):
        return [None if rec is None else rec.saved.get("branch") for _, _, rec in calls]

    def same(a, b):
        return a is b is None or (a is not None and b is not None and np.array_equal(a, b))

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
            with Tape() as tape:
                value = base["fn"](*args).item().imag / gradcheck.H
            got, want = branches(tape.calls), branches(base["calls"])
            if len(got) != len(want) or not all(map(same, got, want)):
                return None
            return value

        def rerun(leaves, end, points):
            return [rerun_one(leaves, probe) for probe in zip(*points)]

        monkeypatch.setattr(gradcheck, "grad_check", grad_check)
        monkeypatch.setattr(verify, "grad_check", grad_check)
        monkeypatch.setattr(gradcheck, "_compile", compile_only_the_leaves)
        monkeypatch.setattr(gradcheck, "_derivative", rerun)

    return install
