"""tools/same_outputs.py on copies of this tree's ``src/``: equal copies, and planted changes."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "same_outputs.py"


@pytest.fixture(scope="module")
def trees(tmp_path_factory):
    """Two copies of ``src/``, and a third whose relu op check verifies 23 probes, not 24, and
    whose reports print each ``l2`` one ulp up."""
    base = tmp_path_factory.mktemp("trees")
    paths = []
    for name in ("a", "b", "planted"):
        shutil.copytree(ROOT / "src", base / name / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        paths.append(base / name)
    verify = paths[2] / "src" / "edgeneck" / "verify.py"
    text = verify.read_text()
    relu = 'lambda x: _sq(relu(x)), 24)'
    assert text.count(relu) == 1
    verify.write_text(text.replace(relu, relu.replace("24", "23")))
    report = paths[2] / "src" / "edgeneck" / "report.py"
    text = report.read_text()
    l2 = "float(np.sqrt(np.sum(data)))"
    assert text.count(l2) == 1
    report.write_text(text.replace(l2, "float(np.nextafter(np.sqrt(np.sum(data)), np.inf))"))
    return paths


def same_outputs(parent, change):
    return subprocess.run([sys.executable, str(TOOL), "--parent", str(parent),
                           "--change", str(change), "--seeds", "1-2"],
                          capture_output=True, text=True)


def test_copies_of_one_tree_are_equal(trees):
    proc = same_outputs(trees[0], trees[1])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-2:] == [
        "check reports at seeds 1-2: all 42 equal",
        "forward reports of the 12 usual configs: all 12 byte-equal"]


def test_a_planted_change_is_named(trees):
    proc = same_outputs(trees[0], trees[2])
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[2:4] == ["seed 1 op.relu: x.probed 24 -> 23",
                          "seed 2 op.relu: x.probed 24 -> 23"]
    assert lines[-2:] == ["check reports at seeds 1-2: 42 parent, 42 change, 2 differ",
                          "forward reports of the 12 usual configs: 12 differ"]
    for line in lines[4:-2]:
        head, keys, largest = re.fullmatch(
            r"forward (.+): \d+ keys differ: (.+); largest relative change (.+)", line).groups()
        assert head.startswith(("default f", "small f"))
        assert "stats.feat.s4.l2" in keys.split(", ")
        assert all(key.endswith(".l2") for key in keys.split(", "))
        assert 0 < float(largest) <= 2.0 ** -52  # one ulp, relative
