"""The paired-run summary of tools/bench_pairs.py, on made-up runs."""

import importlib.util
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
