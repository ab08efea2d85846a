"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SERVE_LINES = {
    "ilf_us_p50": "us",
    "rmq_us_p50": "us",
    "lce_us_p50": "us",
    "locate_us_p50": "us",
    "query_us_p99": "us",
    "queries_per_s": "1/s",
    "error_rate": "ratio",
}
GADGET_LINES = {"verify_instances_per_s": "1/s", "error_rate": "ratio"}
SERVE_LAYER_LINES = {
    "text_core.pattern_range_us_p50": "us",
    "text_core.pattern_range_us_p99": "us",
    "predecessor.yfast_pred_us_p50": "us",
    "predecessor.bisect_pred_us_p50": "us",
    "predecessor.smallset_pred_us_p50": "us",
    "rlbwt_ilf.build_s": "s",
    "rlbwt_ilf.ilf_query_us_p50": "us",
    "rlbwt_ilf.ilf_query_us_p99": "us",
    "rlbwt_ilf.boundary_count": "count",
    "rlbwt_ilf.r_original": "count",
    "rlbwt_ilf.stored_integers": "count",
    "grammar_lcp_rmq.build_s": "s",
    "grammar_lcp_rmq.slp_size": "count",
    "grammar_lcp_rmq.size": "count",
    "grammar_lcp_rmq.height": "count",
    "grammar_lcp_rmq.k_widen": "count",
    "grammar_lcp_rmq.size_per_r_log2n": "ratio",
    "grammar_lcp_rmq.retained_integers": "count",
    "grammar_lcp_rmq.lcp_rmq_us_p50": "us",
    "grammar_lcp_rmq.lce_query_us_p50": "us",
    "grammar_lcp_rmq.interval_argmin_us_p50": "us",
    "grammar_lcp_rmq.prefix_stats_us_p50": "us",
}
GADGET_LAYER_LINES = {
    "gadgets.build_gadget_s": "s",
    "gadgets.verify_reduction_s": "s",
    "gadgets.proof_certificate_s": "s",
    "gadgets.recompute_anchors_s": "s",
    "gadgets.queries_replayed": "count",
    "gadgets.text_symbols": "count",
    **{f"gadgets.{kind}.verify_s": "s" for kind in workloads.KINDS},
}


def invoke(capsys, monkeypatch, tmp_path, workload: str, trace: int, seed: int = 3):
    """Run the benchmark in-process; return (exit code, report lines, result)."""
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace), "--small"]
    code = run.main(argv)
    out = capsys.readouterr().out.strip().splitlines()
    lines = {}
    for line in out[:-1]:
        name, _, rest = line.partition(": ")
        value, _, unit = rest.partition(" ")
        lines[name] = (value, unit)
    return code, lines, json.loads(out[-1])


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER
    assert max(spec["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_reported_with_its_unit(capsys, monkeypatch, tmp_path, workload, trace):
    code, lines, result = invoke(capsys, monkeypatch, tmp_path, workload, trace)
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    wanted = workloads.PER_LAYER if trace else workloads.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    assert all(m["value"] > 0 for m in result["metrics"].values())
    if trace:
        extra = GADGET_LAYER_LINES if workload == "gadget-sweep" else SERVE_LAYER_LINES
        assert (tmp_path / f"spans-{workload}-seed3.csv").is_file()
    else:
        extra = GADGET_LINES if workload == "gadget-sweep" else SERVE_LINES
    for name, unit in {**extra, **{n: m["unit"] for n, m in result["metrics"].items()}}.items():
        assert lines[name][1] == unit, name
    assert float(lines["error_rate"][0]) == 0.0
    assert not list(tmp_path.glob("work-*"))


def test_digest_repeats_on_one_seed_and_changes_with_the_seed(capsys, monkeypatch, tmp_path):
    digests = [
        invoke(capsys, monkeypatch, tmp_path, "serve-repetitive", trace, seed)[1]["answers_digest"]
        for trace, seed in ((0, 3), (1, 3), (0, 4))
    ]
    assert digests[0] == digests[1] != digests[2]


def test_a_wrong_query_answer_fails_the_run(capsys, monkeypatch, tmp_path):
    real = workloads.ilf_query
    monkeypatch.setattr(workloads, "ilf_query", lambda index, i: real(index, i) + 1)
    code, lines, result = invoke(capsys, monkeypatch, tmp_path, "serve-random", 0)
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0
    assert float(lines["error_rate"][0]) == result["failed"] / result["attempted"] > 0
    assert lines["mismatch"][0].startswith("ilf(")


def test_a_gadget_mismatch_fails_the_run(capsys, monkeypatch, tmp_path):
    real = workloads.verify_reduction

    def wrong(kind, instance):
        report = real(kind, instance)
        return dataclasses.replace(report, mismatch_count=1) if kind == "bwt-color" else report

    monkeypatch.setattr(workloads, "verify_reduction", wrong)
    code, lines, result = invoke(capsys, monkeypatch, tmp_path, "gadget-sweep", 0)
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0
    assert float(lines["error_rate"][0]) > 0


def test_a_wrong_measure_fails_the_run(capsys, monkeypatch, tmp_path):
    real = workloads._csq_measures

    def wrong(path):
        elapsed, report = real(path)
        return elapsed, {**report, "bwt_runs": report["bwt_runs"] + 1}

    monkeypatch.setattr(workloads, "_csq_measures", wrong)
    code, lines, result = invoke(capsys, monkeypatch, tmp_path, "serve-repetitive", 0)
    assert code == 1
    assert result["failed"] > 0


def test_without_the_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-random", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
