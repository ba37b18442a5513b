"""End-to-end command line behaviour: pipelines, tables, exit codes."""

import shutil
import subprocess

import numpy as np
import pytest

from dctl.cli import _build_parser, _config_from_args, cli
from dctl.data import generate_synthetic, load_matrix, write_csv
from dctl.model import ModelConfig


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Shared synth -> train artifacts for the table-shaped subcommands."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "signals.csv"
    model = root / "model.dctl"
    assert cli(["synth", "--out", str(data), "--classes", "2", "--per-class", "6",
                "--length", "16", "--noise", "0.1", "--seed", "0"]) == 0
    assert cli(["train", str(data), "--model-out", str(model),
                "--layers", "2", "--kernels", "4", "--iters", "2", "--seed", "0"]) == 0
    return {"root": root, "data": data, "model": model,
            "trace": root / "model.dctl.trace.csv"}


def test_help_exits_zero(capsys):
    assert cli(["--help"]) == 0
    assert "usage" in capsys.readouterr().out


def test_console_script_is_installed():
    exe = shutil.which("dctl")
    assert exe is not None
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "usage" in proc.stdout


def test_synth_reports_what_it_wrote(tmp_path, capsys):
    out = tmp_path / "toy.csv"
    assert cli(["synth", "--out", str(out), "--classes", "3", "--per-class", "4",
                "--length", "16", "--seed", "1"]) == 0
    assert "wrote 12 samples of length 16 across 3 classes" in capsys.readouterr().out
    values = load_matrix(out)
    assert values.shape == (12, 17)
    assert sorted(set(values[:, -1].tolist())) == [0.0, 1.0, 2.0]


def test_train_notes_auto_detected_labels(tmp_path, capsys):
    data = tmp_path / "d.csv"
    model = tmp_path / "m.dctl"
    assert cli(["synth", "--out", str(data), "--classes", "2", "--per-class", "3",
                "--length", "16", "--seed", "2"]) == 0
    assert cli(["train", str(data), "--model-out", str(model),
                "--layers", "1", "--kernels", "4", "--iters", "1"]) == 0
    captured = capsys.readouterr()
    assert "treating it as such" in captured.err
    assert model.exists()


def test_train_trace_file_is_monotone(pipeline):
    lines = pipeline["trace"].read_text().splitlines()
    assert lines[0] == "iter,layer,objective"
    values = [float(line.split(",")[2]) for line in lines[1:]]
    assert len(values) == 1 + 2 * 2  # init plus layers * outer iterations
    assert np.all(np.diff(np.asarray(values)) <= 1e-9)


def test_encode_writes_deterministic_features(pipeline, capsys):
    first = pipeline["root"] / "enc1.csv"
    second = pipeline["root"] / "enc2.csv"
    for out in (first, second):
        assert cli(["encode", str(pipeline["data"]), "--model", str(pipeline["model"]),
                    "--out", str(out)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    header = first.read_text().splitlines()[0].split(",")
    assert header[0] == "f0" and header[-1] == "label"
    assert len(header) == 16 * 4 + 1
    assert load_matrix(first).shape == (12, 16 * 4 + 1)


def test_classify_prints_four_method_rows(pipeline, capsys):
    assert cli(["classify", str(pipeline["data"]), "--model", str(pipeline["model"]),
                "-k", "1", "--seed", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split() == ["features", "method", "accuracy"]
    rows = [line.split() for line in lines[1:]]
    assert [row[:2] for row in rows] == [
        ["raw", "knn1"], ["raw", "nearest-centroid"],
        ["encoded", "knn1"], ["encoded", "nearest-centroid"],
    ]
    for row in rows:
        assert 0.0 <= float(row[2]) <= 1.0


def test_cluster_prints_six_rows(pipeline, capsys):
    assert cli(["cluster", str(pipeline["data"]), "--model", str(pipeline["model"]),
                "--seed", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split() == ["features", "init", "ari", "time_s"]
    rows = [line.split() for line in lines[1:]]
    assert len(rows) == 6
    assert [row[0] for row in rows] == ["raw"] * 3 + ["encoded"] * 3
    assert [row[1] for row in rows] == ["kmeanspp", "random", "pca"] * 2
    for row in rows:
        assert -1.0 <= float(row[2]) <= 1.0
        assert float(row[3]) > 0.0


def test_cluster_unlabeled_data_with_explicit_cluster_count(tmp_path, capsys):
    rng = np.random.default_rng(33)
    path = tmp_path / "plain.csv"
    write_csv(path, rng.uniform(0.1, 0.9, size=(9, 8)))
    assert cli(["cluster", str(path), "--clusters", "3", "--kernels", "4",
                "--iters", "1", "--seed", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = [line.split() for line in lines[1:]]
    assert len(rows) == 6
    for row in rows:
        assert row[2] == "nan"  # no labels, so no agreement score


def test_benchmark_prints_one_row_per_depth(pipeline, capsys):
    assert cli(["benchmark", str(pipeline["data"]), "--kernels", "4", "--iters", "1",
                "-k", "1", "--seed", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split() == ["layers", "knn_acc", "ari", "train_s"]
    rows = [line.split() for line in lines[1:]]
    assert [row[0] for row in rows] == ["1", "2", "3", "4"]
    for row in rows:
        assert 0.0 <= float(row[1]) <= 1.0
        assert -1.0 <= float(row[2]) <= 1.0
        assert float(row[3]) > 0.0


# ----------------------------------------------------------------- exit codes


def test_missing_required_argument_is_usage_error(capsys):
    assert cli(["train", "--model-out", "x.dctl"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert cli(["train", "d.csv", "--model-out", "x.dctl", "--frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_missing_input_file_is_runtime_error(tmp_path, capsys):
    assert cli(["train", str(tmp_path / "absent.csv"),
                "--model-out", str(tmp_path / "m.dctl")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_corrupt_model_file_is_runtime_error(tmp_path, pipeline, capsys):
    bad = tmp_path / "bad.dctl"
    bad.write_bytes(b"DCTL" + b"\x07" * 40)
    assert cli(["encode", str(pipeline["data"]), "--model", str(bad),
                "--out", str(tmp_path / "e.csv")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_raw_file_with_a_trailing_partial_value_is_runtime_error(tmp_path, pipeline, capsys):
    raw = tmp_path / "signals.raw"
    raw.write_bytes(np.zeros(2 * 16, dtype="<f8").tobytes() + b"\x00\x01\x02")
    assert cli(["encode", str(raw), "--format", "raw", "--cols", "16",
                "--model", str(pipeline["model"]), "--out", str(tmp_path / "e.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "259 bytes" in err


def test_undecodable_csv_is_runtime_error(tmp_path, capsys):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"1.0,2.0\n\xff\xfe,3\n")
    assert cli(["train", str(path), "--model-out", str(tmp_path / "m.dctl")]) == 2
    err = capsys.readouterr().err
    assert "byte offset 8" in err
    assert "Traceback" not in err


def test_csv_field_over_the_size_limit_is_runtime_error(tmp_path, capsys):
    path = tmp_path / "long.csv"
    path.write_text('"' + "0" * 140_000 + '",1\n')
    assert cli(["train", str(path), "--model-out", str(tmp_path / "m.dctl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "row 1" in err
    assert "Traceback" not in err


def test_negative_seed_is_runtime_error_naming_it(tmp_path, pipeline, capsys):
    assert cli(["train", str(pipeline["data"]), "--model-out", str(tmp_path / "m.dctl"),
                "--labeled", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0\n"
    assert not (tmp_path / "m.dctl").exists()


def test_fuzzed_input_files_exit_with_a_status_not_a_traceback(tmp_path, pipeline, capsys):
    rng = np.random.default_rng(63)
    model = pipeline["model"].read_bytes()
    bad_model = tmp_path / "bad.dctl"
    bad_data = tmp_path / "bad.data"
    out = str(tmp_path / "e.csv")
    runs = []
    for trial in range(4):
        cut = bytearray(model[: int(rng.integers(0, len(model)))])
        flipped = bytearray(model)
        flipped[int(rng.integers(0, len(model)))] ^= 1 << int(rng.integers(0, 8))
        for corrupt in (cut, flipped):
            runs.append((bad_model, corrupt, ["encode", str(pipeline["data"]),
                                              "--model", str(bad_model), "--out", out]))
        noise = rng.integers(0, 256, int(rng.integers(1, 200)), dtype=np.uint8).tobytes()
        runs.append((bad_data, noise, ["train", str(bad_data),
                                       "--model-out", str(tmp_path / "m.dctl")]))
        runs.append((bad_data, noise, ["encode", str(bad_data), "--format", "raw",
                                       "--cols", "16", "--model", str(pipeline["model"]),
                                       "--out", out]))
    for path, payload, argv in runs:
        path.write_bytes(payload)
        assert cli(argv) in (1, 2)
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("error:") and "Traceback" not in err


def test_train_flag_defaults_are_the_model_config_defaults():
    args = _build_parser().parse_args(["train", "d.csv", "--model-out", "m.dctl"])
    assert _config_from_args(args) == ModelConfig()


def test_nan_tolerance_is_runtime_error(tmp_path, pipeline, capsys):
    assert cli(["train", str(pipeline["data"]), "--model-out", str(tmp_path / "m.dctl"),
                "--labeled", "--tol", "nan"]) == 2
    assert capsys.readouterr().err == "error: objective_tol must be >= 0\n"
    assert not (tmp_path / "m.dctl").exists()


def test_benchmark_needs_labels(tmp_path, capsys):
    rng = np.random.default_rng(36)
    path = tmp_path / "plain.csv"
    write_csv(path, rng.uniform(0.1, 0.9, size=(10, 8)))
    assert cli(["benchmark", str(path), "--kernels", "4", "--iters", "1"]) == 2
    assert "labeled" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["classify", "benchmark"])
def test_split_leaving_no_test_samples_is_runtime_error(pipeline, capsys, command):
    assert cli([command, str(pipeline["data"]), "--split", "1.0",
                "--kernels", "4", "--iters", "1"]) == 2
    assert "no test samples" in capsys.readouterr().err


def test_classify_with_huge_labels_votes_on_codes(tmp_path, capsys):
    signals, labels = generate_synthetic(2, 6, 16, noise_sigma=0.1, seed=0)
    path = tmp_path / "big.csv"
    write_csv(path, signals, np.where(labels == 1, 10**13, 0))
    assert cli(["classify", str(path), "--kernels", "4", "--iters", "1", "-k", "3"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[:2] for row in rows] == [
        ["raw", "knn3"], ["raw", "nearest-centroid"],
        ["encoded", "knn3"], ["encoded", "nearest-centroid"]]


def test_classify_needs_labels(tmp_path, capsys):
    rng = np.random.default_rng(34)
    path = tmp_path / "plain.csv"
    write_csv(path, rng.uniform(0.1, 0.9, size=(10, 8)))
    assert cli(["classify", str(path), "--kernels", "4", "--iters", "1"]) == 2
    assert "labeled" in capsys.readouterr().err


def test_cluster_unlabeled_without_count_is_an_error(tmp_path, capsys):
    rng = np.random.default_rng(35)
    path = tmp_path / "plain.csv"
    write_csv(path, rng.uniform(0.1, 0.9, size=(9, 8)))
    assert cli(["cluster", str(path), "--kernels", "4", "--iters", "1"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_synth_rejects_bad_parameters(tmp_path, capsys):
    assert cli(["synth", "--out", str(tmp_path / "x.csv"), "--length", "4"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    for noise in ("inf", "nan"):
        assert cli(["synth", "--out", str(tmp_path / "x.csv"), "--noise", noise]) == 2
        assert capsys.readouterr().err.startswith("error: noise_sigma")
    assert not (tmp_path / "x.csv").exists()
