import pytest


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
