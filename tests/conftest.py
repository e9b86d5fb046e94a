import pytest

import edgeneck.tensor as tensor_core


@pytest.fixture(autouse=True)
def no_tape_left_open():
    """Fail a test that leaves a tape on the stack: later ops would record on it, or replay it."""
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
