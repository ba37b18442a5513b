"""Tests of the benchmark itself, on workloads small enough to run in seconds.

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from workloads import Workload  # noqa: E402

TINY = (
    Workload("tiny-train", signals=24, length=32, kernels=4, layers=3, iters=2, classes=2,
             train_rows=12),
    Workload("tiny-io", signals=40, length=32, kernels=4, layers=2, iters=1, classes=2,
             train_rows=10, train_in_setup=True),
)
@pytest.fixture(autouse=True)
def _short_setup(monkeypatch):
    """One set-up per round and no minimum time, so that a run takes seconds."""
    monkeypatch.setattr(workloads, "SETUP_MIN_SECONDS", 0.0)
    monkeypatch.setattr(workloads, "SETUP_ROUND_SECONDS", 0.0)


# Work that depends only on the workload's shape, not on the generated values.
SHAPE_COUNTS = (
    "prox.projected_newton_coeffs.calls",
    "prox.update_transform.calls",
    "conv.conv_same_matrix.calls",
    "conv.dense_bytes_computed",
    "conv.toeplitz_stack.calls",
    "model.train.outer_iters",
)
# Byte counts depend on the values written, so they repeat only for one seed.
FILE_BYTES = ("data.write_csv.bytes", "data.load_matrix.bytes", "persistence.save_model.bytes")


def _traced(wl, seed, tmp_path):
    workdir = tmp_path / f"{wl.name}-{seed}-{len(list(tmp_path.iterdir()))}"
    workdir.mkdir()
    result = workloads.run(wl, seed, seconds=0, trace=True, workdir=workdir)
    return result, workloads.per_layer_metrics(result)


@pytest.mark.parametrize("wl", TINY, ids=lambda w: w.name)
def test_counts_repeat_for_a_seed_and_across_seeds(wl, tmp_path):
    first, a = _traced(wl, 3, tmp_path)
    _, b = _traced(wl, 3, tmp_path)
    other, c = _traced(wl, 4, tmp_path)
    assert first.failed == 0 and other.failed == 0
    for name in SHAPE_COUNTS + FILE_BYTES:
        assert a[name] == b[name], name
    for name in SHAPE_COUNTS:
        assert a[name] == c[name], name
    assert a["prox.projected_newton_coeffs.calls"] == wl.iters * (wl.layers - 1)
    assert a["model.train.outer_iters"] == wl.iters
    n = wl.length
    assert a["conv.dense_bytes_computed"] == a["conv.conv_same_matrix.calls"] * n * n * 8
    assert first.reference.features != other.reference.features


@pytest.mark.parametrize("wl", TINY, ids=lambda w: w.name)
def test_untraced_run_is_correct_and_quality_repeats(wl, tmp_path):
    runs = []
    for rep in range(2):
        workdir = tmp_path / str(rep)
        workdir.mkdir()
        result = workloads.run(wl, 5, seconds=0, trace=False, workdir=workdir)
        # the warm-up operation is checked and counted, but not timed
        assert result.attempted == 1 + workloads.MIN_OPERATIONS and result.failed == 0
        assert [index for index, _, _ in result.operations] == [1, 2]
        runs.append(workloads.end_to_end_metrics(result, peak_rss_mb=1.0))
    quality = ("final_objective", "knn_acc", "centroid_acc",
               "ari_kmeanspp", "ari_random", "ari_pca")
    assert {k: runs[0][k] for k in quality} == {k: runs[1][k] for k in quality}
    assert all(runs[0][k] > 0 for k in ("setup_s", "pipeline_s", "train_s",
                                         "encode_cmd_s", "evaluate_s"))


def test_check_catches_a_changed_feature_file(tmp_path):
    wl = TINY[0]
    inputs = workloads.setup(wl, 1, tmp_path)
    problems, reference = workloads.check_operation(
        wl, inputs, workloads.operation(wl, inputs, 1), None)
    assert problems == []
    again = workloads.operation(wl, inputs, 1)
    assert workloads.check_operation(wl, inputs, again, reference)[0] == []
    assert again.features is None  # taken out once digested
    changed = workloads.operation(wl, inputs, 1)
    changed.features[0, 0] += 1.0
    assert workloads.check_operation(wl, inputs, changed, reference)[0] == [
        "features differ from the run's first operation"]
    changed = workloads.operation(wl, inputs, 1)
    changed.features[0, 0] += 1.0
    assert workloads.check_operation(wl, inputs, changed, None)[0] == [
        "feature CSV does not read back bit-identical to the encoded array"]


def test_exits_without_result_when_the_package_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train-deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert child.stdout.strip() == ""


def test_benchmark_json_lists_every_metric_the_benchmark_computes(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = TINY[0]
    result = workloads.run(wl, 2, seconds=0, trace=True, workdir=tmp_path)
    assert {m["name"] for m in spec["per_layer"]} == set(workloads.per_layer_metrics(result))
    end_to_end = workloads.end_to_end_metrics(result, peak_rss_mb=1.0)
    assert {m["name"] for m in spec["end_to_end"]} <= set(end_to_end)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
