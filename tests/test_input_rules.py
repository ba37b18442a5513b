"""Every public entry point refuses a bad matrix, real hyperparameter or
integer argument with a ValueError whose message starts with the
argument's name.

Matrices go through ``dctl.data.as_matrix``, real hyperparameters through
``dctl.data.as_real`` and integer arguments through ``dctl.data.as_int``;
each case here calls a public function, so a caller that skips the shared
check shows up by name.  Warnings are errors, so a bad input that numpy
only warns about is a failure too.
"""

import numpy as np
import pytest

from dctl import (
    CoeffQuadratics,
    ModelConfig,
    TransformUpdateInputs,
    conv_same_matrix,
    encode,
    generate_synthetic,
    init_model,
    kmeans,
    knn_classify,
    nearest_centroid_classify,
    normalize_per_sample,
    projected_newton_coeffs,
    prox_logdet_svd,
    prox_nonneg_l1,
    toeplitz_stack,
    train,
    train_test_split,
    write_csv,
)

GOOD = np.random.default_rng(61).standard_normal((4, 4))
LABELS = [0, 1, 0, 1]
EYE = np.eye(4)
CONFIG = ModelConfig(num_layers=1, num_kernels=2, max_outer_iters=1)
MODEL = train(GOOD, CONFIG)
QUAD = CoeffQuadratics(np.ones((2, 6, 2)), np.eye(2), np.ones((2, 6, 2)))


def _with(value, row=1, col=2):
    out = GOOD.copy()
    out[row, col] = value
    return out


BAD_MATRICES = {
    "1-D": np.ones(4),
    "0-rows": np.empty((0, 4)),
    "0-columns": np.empty((4, 0)),
    "nan": _with(np.nan),
    "inf": _with(-np.inf),
}

# (entry point, argument) -> call with the bad matrix and an output path
MATRIX_CALLS = {
    ("train", "data"): lambda x, path: train(x, CONFIG),
    ("init_model", "data"): lambda x, path: init_model(CONFIG, x),
    ("encode", "data"): lambda x, path: encode(MODEL, x),
    ("knn_classify", "train_features"): lambda x, path: knn_classify(x, LABELS, GOOD, 1),
    ("knn_classify", "test_features"): lambda x, path: knn_classify(GOOD, LABELS, x, 1),
    ("nearest_centroid_classify", "train_features"):
        lambda x, path: nearest_centroid_classify(x, LABELS, GOOD),
    ("nearest_centroid_classify", "test_features"):
        lambda x, path: nearest_centroid_classify(GOOD, LABELS, x),
    ("kmeans", "features"): lambda x, path: kmeans(x, 2),
    ("toeplitz_stack", "signals"): lambda x, path: toeplitz_stack(x, 2),
    # load_matrix refuses each of these files, so none is written
    ("write_csv", "features"): lambda x, path: write_csv(path, x),
    ("write_csv_labeled", "features"): lambda x, path: write_csv(path, x, LABELS),
    ("normalize_per_sample", "features"): lambda x, path: normalize_per_sample(x),
    ("train_test_split", "features"): lambda x, path: train_test_split(x, None),
    ("TransformUpdateInputs", "gram"):
        lambda x, path: TransformUpdateInputs(x, EYE, EYE, 0.01, 0.01, 1.0),
    ("TransformUpdateInputs", "cross"):
        lambda x, path: TransformUpdateInputs(EYE, x, EYE, 0.01, 0.01, 1.0),
    ("TransformUpdateInputs", "anchor"):
        lambda x, path: TransformUpdateInputs(EYE, EYE, x, 0.01, 0.01, 1.0),
    ("prox_logdet_svd", "y"): lambda x, path: prox_logdet_svd(x, 0.01),
    # a NaN bank made every block's gradient NaN, and each passed the stop untouched
    ("CoeffQuadratics", "bank_above"):
        lambda x, path: CoeffQuadratics(np.ones((2, 6, 4)), x, np.ones((2, 6, 4))),
}

BAD_REALS = {"true": True, "str": "0.5", "none": None, "nan": np.nan,
             "negative": -1.0, "inf": np.inf}

# (entry point, argument) -> call with the bad value
REAL_CALLS = {
    ("prox_nonneg_l1", "beta"): lambda v: prox_nonneg_l1(GOOD, v, 1.0),
    ("prox_nonneg_l1", "weight"): lambda v: prox_nonneg_l1(GOOD, 0.01, v),
    ("prox_logdet_svd", "lam"): lambda v: prox_logdet_svd(EYE, v),
    ("TransformUpdateInputs", "mu"): lambda v: TransformUpdateInputs(EYE, EYE, EYE, v, 0.01, 1.0),
    ("TransformUpdateInputs", "lam"): lambda v: TransformUpdateInputs(EYE, EYE, EYE, 0.0, v, 1.0),
    ("TransformUpdateInputs", "gamma1"):
        lambda v: TransformUpdateInputs(EYE, EYE, EYE, 0.0, 0.01, v),
    ("projected_newton_coeffs", "beta"):
        lambda v: projected_newton_coeffs(QUAD.below, QUAD, v, 1.0),
    ("projected_newton_coeffs", "gamma2"):
        lambda v: projected_newton_coeffs(QUAD.below, QUAD, 0.01, v),
    ("generate_synthetic", "noise_sigma"): lambda v: generate_synthetic(2, 2, 8, noise_sigma=v),
}

# fractions were truncated and bools taken as 0 or 1 by int()
BAD_INTS = {"fraction": 2.9, "true": True, "str": "3"}

# (entry point, argument) -> (call with the value, a value the call takes)
INT_CALLS = {
    ("knn_classify", "k"): (lambda v: knn_classify(GOOD, LABELS, GOOD, v), 3),
    ("kmeans", "n_clusters"): (lambda v: kmeans(GOOD, v).assignments, 3),
    ("toeplitz_stack", "kernel_size"): (lambda v: toeplitz_stack(GOOD, v), 3),
    ("conv_same_matrix", "size"): (lambda v: conv_same_matrix(np.ones(3), v), 3),
    ("generate_synthetic", "classes"): (lambda v: generate_synthetic(v, 2, 8)[0], 3),
    ("generate_synthetic", "per_class"): (lambda v: generate_synthetic(2, v, 8)[0], 3),
    ("generate_synthetic", "length"): (lambda v: generate_synthetic(2, 2, v)[0], 8),
    ("generate_synthetic", "motif_count"):
        (lambda v: generate_synthetic(2, 2, 8, motif_count=v)[0], 3),
    # ModelConfig's integer fields: test_config_integer_fields_refuse_bools_and_non_integers
}


def _cases():
    for (entry, name), call in MATRIX_CALLS.items():
        for bad_id, bad in BAD_MATRICES.items():
            yield pytest.param(name, lambda path, call=call, bad=bad: call(bad, path),
                               id=f"{entry}-{name}-{bad_id}")
    for (entry, name), call in REAL_CALLS.items():
        for bad_id, bad in BAD_REALS.items():
            yield pytest.param(name, lambda path, call=call, bad=bad: call(bad),
                               id=f"{entry}-{name}-{bad_id}")
    for (entry, name), (call, _) in INT_CALLS.items():
        for bad_id, bad in BAD_INTS.items():
            yield pytest.param(name, lambda path, call=call, bad=bad: call(bad),
                               id=f"{entry}-{name}-{bad_id}")
    # ModelConfig's bools and non-reals: test_config_float_fields_refuse_bools_and_non_reals
    for name in ("mu", "lam", "beta", "gamma1", "gamma2", "objective_tol"):
        # objective_tol's rule is only >= 0, so inf stops at the first check
        for bad_id in ("nan", "negative") + (() if name == "objective_tol" else ("inf",)):
            yield pytest.param(name, lambda path, name=name, bad=BAD_REALS[bad_id]:
                               ModelConfig(**{name: bad}), id=f"ModelConfig-{name}-{bad_id}")
    # labels of another length than the features' rows were cut or raised IndexError
    for count in (20, 5):
        yield pytest.param("labels", lambda path, count=count:
                           train_test_split(np.ones((10, 4)), np.zeros(count, dtype=int)),
                           id=f"train_test_split-labels-{count}-for-10-rows")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, call", list(_cases()))
def test_public_entry_points_refuse_bad_inputs_by_name(name, call, tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match=f"^{name} "):
        call(path)
    assert not path.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, good", list(INT_CALLS.values()),
                         ids=[f"{entry}-{name}" for entry, name in INT_CALLS])
def test_integer_arguments_take_numpy_integers(call, good):
    assert np.array_equal(call(np.int64(good)), call(good))
