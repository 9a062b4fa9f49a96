"""Tests of the benchmark itself, on tiny sizes of each workload.

    python3 -m pytest perfbench/selftest.py -q

The file name keeps these out of the repository's own test run.
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)
with open(os.path.join(HERE, "layer_map.json"), encoding="utf-8") as fh:
    LAYER_MAP = json.load(fh)
E2E = {m["name"]: m for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m for m in BENCH["per_layer"]}


def smoke(name, trace, tmp_path, **kwargs):
    return workloads.run_workload(
        name, seed=1, seconds=0, trace=trace, work=str(tmp_path / "work"), setup_reps=1,
        spec=workloads.SMALL[name], check_reference=False, **kwargs,
    )


def test_definitions_are_consistent():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in BENCH["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(workloads.SMALL)
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert m["better"] in ("lower", "higher") and m["unit"]
    assert len(E2E) == len(BENCH["end_to_end"]) and len(PER_LAYER) == len(BENCH["per_layer"])
    assert E2E["setup_s"]["bound"] == max(m["bound"] for m in E2E.values()) <= 0.25


def test_layer_map_names_only_existing_metrics():
    for entry in LAYER_MAP["entries"]:
        for name in entry["per_layer"]:
            assert name in PER_LAYER, name
        for side in ("moves", "unchanged"):
            for workload, metrics in entry.get(side, {}).items():
                assert workload in workloads.WORKLOADS, workload
                for metric in metrics:
                    assert metric in E2E, metric


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_emits_every_metric(name, trace, tmp_path):
    result = smoke(name, trace, tmp_path)
    assert result.failed == 0, result.problems
    wanted = PER_LAYER if trace else E2E
    assert set(result.metrics) == set(wanted)
    assert all(np.isfinite(v) for v in result.metrics.values())
    if trace:
        lo, hi = workloads.COVERAGE_RANGE
        assert lo <= result.metrics["trace.coverage"] <= hi
        assert result.metrics["diffcore.conv1d_pointwise.calls"] > 0
    else:
        assert all(v > 0 for v in result.metrics.values())
    assert not os.path.exists(tmp_path / "work")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_canary_matches_reference(name, tmp_path):
    problems, outputs = workloads.canary(name, str(tmp_path / "canary"))
    assert problems == []
    assert workloads.compare_outputs(workloads.WORKLOADS[name].kind, outputs, workloads.decode_reference(name)) == []


def test_reference_mismatch_is_reported():
    assert workloads.compare_outputs("train", 100.0, 100.05) == []
    assert workloads.compare_outputs("train", 100.0, 101.0)
    assert workloads.compare_outputs("train", None, 101.0)
    dist = np.full(4, 0.25)
    assert workloads.compare_outputs("score", [(2.0, 1.5, dist)], [(2.0, 1.5, dist)]) == []
    assert workloads.compare_outputs("score", [(2.01, 1.5, dist)], [(2.0, 1.5, dist)])


LOG = "step=1 td_mse=2.0 emd2=0.5 total=2.5 time=x\nstep=2 td_mse=1.0 emd2=0.5 total=1.5 time=x\n"


def test_train_log_check_counts_corrupted_lines():
    assert workloads.check_train_log(LOG, 2) == ([], 0, 1.5)
    for bad in ("nan", "inf", "-inf"):
        problems, failed, final = workloads.check_train_log(LOG.replace("total=1.5", f"total={bad}"), 2)
        assert failed == 1 and final is None and problems
    problems, failed, _ = workloads.check_train_log(LOG.splitlines()[0], 2)
    assert failed == 1 and problems
    assert workloads.check_train_log(LOG + LOG.splitlines()[0], 2)[0]


def _predict_line(path, expect, best, dist):
    return f"{path}\t{expect:.6f}\t{best:.6f}\t" + ",".join(f"{p:.6g}" for p in dist)


def test_predict_check_counts_corrupted_lines():
    quant = workloads.labels.QuantizerConfig(4)
    mids = quant.midpoints()
    dist = np.array([0.1, 0.2, 0.3, 0.4])
    good = _predict_line("a.wav", float(dist @ mids), mids[3], dist)
    assert workloads.check_predict_output(good + "\n", ["a.wav"], quant)[:2] == ([], 0)
    corrupted = [
        _predict_line("a.wav", 4.7, mids[3], dist),  # score out of range
        _predict_line("a.wav", float("nan"), mids[3], dist),
        _predict_line("a.wav", float(dist @ mids), mids[3], dist * 1.01),  # does not sum to 1
        _predict_line("a.wav", float(dist @ mids) + 0.1, mids[3], dist),  # disagrees with dist
        _predict_line("b.wav", float(dist @ mids), mids[3], dist),  # wrong file
        "",
    ]
    for line in corrupted:
        problems, failed, _ = workloads.check_predict_output(line + "\n", ["a.wav"], quant)
        assert failed == 1 and problems, line
    problems, failed, _ = workloads.check_predict_output(good + "\n", ["a.wav", "b.wav"], quant)
    assert failed == 1 and problems


def test_out_of_range_score_fails_the_run(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.labels, "decode_expect", lambda p, cfg: 4.75)
    result = smoke("score-mixed", False, tmp_path)
    assert result.failed == len(workloads.SMALL["score-mixed"].durations)
    assert any("outside [-0.5, 4.5]" in p for p in result.problems)


def test_unreadable_checkpoint_fails_the_run(tmp_path, monkeypatch):
    def truncated(path, *args, **kwargs):
        with open(path, "wb") as fh:
            fh.write(b"SQCK")

    monkeypatch.setattr(workloads.train, "save_run_checkpoint", truncated)
    result = smoke("train-small", False, tmp_path)
    assert result.failed == workloads.SMALL["train-small"].steps
    assert any("reload failed" in p for p in result.problems)
