"""tools/sweep.py in-process: a clean seed, and a planted backward rule it names."""

import importlib
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_a_seed_sweep_names_a_rule_that_breaks_a_check(monkeypatch, capsys, other_convention):
    """At seed 32 relu calls of pipeline.full sit on their kink: relu'(0) = 1 fails it there."""
    monkeypatch.syspath_prepend(str(TOOLS))
    sweep = importlib.import_module("sweep")
    assert sweep.main(["--seeds", "32"]) == 0
    [summary] = capsys.readouterr().out.splitlines()
    assert summary.startswith("seeds 32: 21 checks run, 0 not ok, 0 skipped probes, "
                              "worst clean error ")
    other_convention("relu")
    assert sweep.main(["--seeds", "32"]) == 1
    *failed, summary = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in failed] == ["seed 32 pipeline.full"]
    assert failed[0].startswith("seed 32 pipeline.full: FAILED probed=1 skipped=0 ")
    assert summary.startswith("seeds 32: 21 checks run, 1 not ok, 0 skipped probes, ")
