"""The paired-run summary of tools/bench_pairs.py, on made-up runs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
SPEC = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)


def run(p50, rss, minflt, attempted=100):
    return {"correct": True, "attempted": attempted, "failed": 0,
            "metrics": {"latency_p50_s": {"value": p50, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MiB"}},
            "extra": {"minflt": minflt, "stime_s": 0.1, "minflt_per_op": minflt / attempted,
                      "out_rel_err": 1e-6}}


def test_seed_ranges():
    assert bench_pairs.parse_seeds("11-20") == list(range(11, 21))
    assert bench_pairs.parse_seeds("7") == [7]


def test_sides_and_verdicts():
    parent = bench_pairs.side([run(0.060 + i * 0.001, 100.0, 5000) for i in range(10)])
    change = bench_pairs.side([run(0.055 + i * 0.001, 112.0, 4000) for i in range(9)]
                              + [run(0.080, 112.0, 4000)])
    assert parent["latency_p50_s"]["median"] == pytest.approx(0.0645)
    assert parent["minflt_per_op"]["median"] == 50.0
    assert (parent["attempted"], parent["failed"], parent["correct"]) == (1000, 0, True)
    metrics = {"latency_p50_s": {"better": "lower", "bound": 0.25},
               "peak_rss_mb": {"better": "lower", "bound": 0.1},
               "setup_s": {"better": "lower", "bound": 0.25}}
    verdict = bench_pairs.compare(parent, change, metrics)
    assert set(verdict) == {"latency_p50_s", "peak_rss_mb"}  # no runs, no verdict
    assert verdict["latency_p50_s"]["wins"] == "9 of 10"
    assert verdict["latency_p50_s"]["gap_exceeds_parent_iqr"] is True
    assert verdict["latency_p50_s"]["within_bound"] is True
    assert verdict["peak_rss_mb"]["wins"] == "0 of 10"
    assert verdict["peak_rss_mb"]["within_bound"] is False  # +12% against a 10% bound


def git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                    *args], check=True, capture_output=True)


def test_git_head_names_the_commit_and_uncommitted_changes(tmp_path):
    repo = tmp_path / "repo"
    (repo / "inner").mkdir(parents=True)
    assert bench_pairs.git_head(repo) == "unknown"  # not a git checkout
    git(repo, "init", "-q")
    (repo / "a.txt").write_text("one\n")
    git(repo, "add", "a.txt")
    git(repo, "commit", "-q", "-m", "one")
    head = subprocess.run(["git", "-C", str(repo), "rev-parse", "HEAD"], check=True,
                          capture_output=True, text=True).stdout.strip()
    assert bench_pairs.git_head(repo) == head
    (repo / "new.txt").write_text("untracked\n")
    assert bench_pairs.git_head(repo) == head  # untracked files are not the checkout's code
    (repo / "a.txt").write_text("two\n")
    assert bench_pairs.git_head(repo) == head + " with uncommitted changes"
    assert bench_pairs.git_head(repo / "inner") == "unknown"  # inside a repo, not its top


def test_the_report_names_each_side(tmp_path, monkeypatch):
    """Each side keeps its own commit and the env of its own runs, not the first run's."""
    sides = {}
    for name in ("parent", "change"):
        sides[name] = tmp_path / name
        sides[name].mkdir()
    (sides["change"] / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "latency_p50_s", "better": "lower", "bound": 0.25}]}))
    monkeypatch.setattr(bench_pairs, "git_head", lambda checkout: f"commit of {checkout.name}")

    def run_once(checkout, workload, seed, seconds):
        result = run(0.06 if checkout.name == "parent" else 0.05, 40.0, 100)
        return result, {"env.git_commit": checkout.name, "env.numpy": "2"}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "BENCH_t.json"
    assert bench_pairs.main(["--parent", str(sides["parent"]), "--change", str(sides["change"]),
                             "--label", "t", "--workloads", "verify", "--seeds", "1-2",
                             "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert "env" not in report
    for name in ("parent", "change"):
        assert report["sides"][name] == {"commit": f"commit of {name}",
                                         "env": {"env.git_commit": name, "env.numpy": "2"}}
    assert report["workloads"]["verify"]["verdict"]["latency_p50_s"]["wins"] == "2 of 2"
