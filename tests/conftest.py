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


@pytest.fixture
def conv_kernels(monkeypatch):
    """The live list of input dims of every conv kernel the test computes; clear it to restart."""
    calls = []
    original = tensor_core._conv_forward

    def counted(*args):
        calls.append(args[0].shape)
        return original(*args)

    monkeypatch.setattr(tensor_core, "_conv_forward", counted)
    return calls


@pytest.fixture
def rerun_probes(monkeypatch):
    """Call it to make later checks re-run their target whole at every probe evaluation.

    Each evaluation calls the target on a fresh tape with a fresh tensor in
    the probed input's place and compares all the ``branch`` entries of its
    tape: the reference that recomputing only an input's cone must equal.
    Checks made through ``gradcheck.grad_check`` or ``verify.grad_check``
    are affected.
    """
    from edgeneck import gradcheck, verify
    from edgeneck.tensor import Tape, Tensor

    def install():
        original = gradcheck.grad_check
        base = {}

        def grad_check(fn, inputs, *args, **kwargs):
            def taped(*leaves):  # the check's one call of its target
                base["fn"], base["leaves"] = fn, leaves
                return fn(*leaves)
            return original(taped, inputs, *args, **kwargs)

        def central(cone, leaf, step, out):
            fn, leaves = base["fn"], list(base["leaves"])
            i = next(k for k, t in enumerate(leaves) if t is leaf)
            values = []
            branches = []
            for sign in (gradcheck.EPS, -gradcheck.EPS):
                leaves[i] = Tensor(leaf.data + sign * step, requires_grad=True)
                with Tape() as tape:
                    values.append(fn(*leaves).item())
                branches.append([rec.saved["branch"] for rec in tape.records
                                 if "branch" in rec.saved])
            if not all(map(np.array_equal, *branches)):
                return None
            return (values[0] - values[1]) / (2.0 * gradcheck.EPS)

        monkeypatch.setattr(gradcheck, "grad_check", grad_check)
        monkeypatch.setattr(verify, "grad_check", grad_check)
        monkeypatch.setattr(gradcheck, "_central", central)

    return install
