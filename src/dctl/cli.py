"""Command line interface.

Subcommands cover the full pipeline: ``synth`` writes a labeled toy
dataset, ``train`` fits a stack of convolutional transforms, ``encode``
maps signals to learned features, ``classify`` and ``cluster`` compare
raw against encoded features downstream, and ``benchmark`` sweeps the
stack depth.  Usage errors exit with status 1, runtime failures with
status 2, and all diagnostic chatter goes to stderr so stdout stays
machine-readable.
"""

import argparse
import sys

import numpy as np

from .data import (
    DatasetFormatError,
    generate_synthetic,
    load_matrix,
    looks_labeled,
    normalize_per_sample,
    split_labels,
    train_test_split,
    write_csv,
)
from .evaluation import (
    KMEANS_INITS,
    accuracy,
    adjusted_rand_index,
    kmeans,
    knn_classify,
    nearest_centroid_classify,
    timed,
)
from .model import ModelConfig, TrainingError, encode, train
from .persistence import ModelFileError, load_model, save_model
from .prox import NumericalConditioningError

__all__ = ["cli", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems via exception."""

    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _add_data_flags(sub, with_split=False):
    sub.add_argument("data", help="dataset file")
    sub.add_argument("--format", choices=("csv", "raw"), default="csv",
                     help="csv rows or packed little-endian float64")
    sub.add_argument("--cols", type=int, default=None,
                     help="row length, required for --format raw")
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--labeled", dest="labeled", action="store_true", default=None,
                       help="treat the final column as integer labels")
    group.add_argument("--unlabeled", dest="labeled", action="store_false",
                       help="treat every column as signal values")
    sub.add_argument("--no-normalize", dest="normalize", action="store_false",
                     default=True, help="skip per-sample min-max scaling")
    if with_split:
        sub.add_argument("--split", type=float, default=0.7,
                         help="training fraction for the shuffled split")
    sub.add_argument("--seed", type=int, default=0)


def _add_model_flags(sub, with_layers=True):
    defaults = ModelConfig()
    if with_layers:
        sub.add_argument("--layers", type=int, default=defaults.num_layers)
    sub.add_argument("--kernels", type=int, default=defaults.num_kernels)
    sub.add_argument("--mu", type=float, default=defaults.mu,
                     help="transform energy penalty")
    sub.add_argument("--lambda", dest="lam", type=float, default=defaults.lam,
                     help="log-determinant penalty keeping transforms well conditioned")
    sub.add_argument("--beta", type=float, default=defaults.beta,
                     help="sparsity penalty on the coefficients")
    sub.add_argument("--gamma1", type=float, default=defaults.gamma1,
                     help="proximal step weight for transform updates")
    sub.add_argument("--gamma2", type=float, default=defaults.gamma2,
                     help="proximal step weight for coefficient updates")
    sub.add_argument("--iters", type=int, default=defaults.max_outer_iters,
                     help="maximum outer sweeps")
    sub.add_argument("--tol", type=float, default=defaults.objective_tol,
                     help="relative objective decrease that stops training")


def _config_from_args(args, layers=None):
    return ModelConfig(
        num_layers=layers if layers is not None else args.layers,
        num_kernels=args.kernels,
        mu=args.mu,
        lam=args.lam,
        beta=args.beta,
        gamma1=args.gamma1,
        gamma2=args.gamma2,
        max_outer_iters=args.iters,
        objective_tol=args.tol,
        seed=args.seed,
    )


def _load(args, with_split=False):
    values = load_matrix(args.data, fmt=args.format, cols=args.cols)
    labeled = args.labeled
    if labeled is None:
        labeled = looks_labeled(values)
        if labeled:
            print("note: final column looks like labels, treating it as such "
                  "(pass --unlabeled to override)", file=sys.stderr)
    features, labels = split_labels(values, labeled)
    if args.normalize:
        features = normalize_per_sample(features)
    if not with_split:
        return features, labels
    return train_test_split(features, labels, split=args.split, seed=args.seed)


def _load_labeled_split(args, task):
    """The shuffled split of labeled data with at least one test sample."""
    split = _load(args, with_split=True)
    if split.train_labels is None:
        raise DatasetFormatError(f"{task} needs labeled data")
    if split.test_features.shape[0] == 0:
        raise ValueError("the split leaves no test samples; lower --split")
    return split


def _model_for(args, features):
    """The model in ``--model``, or one trained on ``features``."""
    if args.model:
        return load_model(args.model)
    return train(features, _config_from_args(args))


def _cmd_synth(args):
    signals, labels = generate_synthetic(
        args.classes, args.per_class, args.length,
        motif_count=args.motifs, noise_sigma=args.noise, seed=args.seed,
    )
    write_csv(args.out, signals, labels)
    print(f"wrote {signals.shape[0]} samples of length {signals.shape[1]} "
          f"across {args.classes} classes to {args.out}")
    return 0


def _cmd_train(args):
    features, _ = _load(args)
    config = _config_from_args(args)
    model = train(features, config)
    save_model(args.model_out, model)
    trace_path = args.trace_out or args.model_out + ".trace.csv"
    with open(trace_path, "w") as handle:
        handle.write("iter,layer,objective\n")
        for outer, layer, value in model.training_trace:
            handle.write(f"{outer},{layer},{value!r}\n")
    last = model.training_trace[-1]
    print(f"trained {config.num_layers} layers x {config.num_kernels} kernels "
          f"on {features.shape[0]} samples in {last[0]} outer iterations")
    print(f"final objective {last[2]:.6e}")
    print(f"model: {args.model_out}")
    print(f"trace: {trace_path}")
    return 0


def _cmd_encode(args):
    model = load_model(args.model)
    features, labels = _load(args)
    encoded = encode(model, features)
    write_csv(args.out, encoded, labels, header=True)
    print(f"encoded {encoded.shape[0]} samples into {encoded.shape[1]} "
          f"features at {args.out}")
    return 0


def _cmd_classify(args):
    split = _load_labeled_split(args, "classification")
    model = _model_for(args, split.train_features)
    encoded_train = encode(model, split.train_features)
    encoded_test = encode(model, split.test_features)
    pairs = (
        ("raw", split.train_features, split.test_features),
        ("encoded", encoded_train, encoded_test),
    )
    print(f"{'features':<10}{'method':<18}accuracy")
    for name, train_feats, test_feats in pairs:
        predicted = knn_classify(train_feats, split.train_labels, test_feats, k=args.k)
        print(f"{name:<10}{f'knn{args.k}':<18}"
              f"{accuracy(split.test_labels, predicted):.4f}")
        predicted = nearest_centroid_classify(train_feats, split.train_labels, test_feats)
        print(f"{name:<10}{'nearest-centroid':<18}"
              f"{accuracy(split.test_labels, predicted):.4f}")
    return 0


def _cmd_cluster(args):
    features, labels = _load(args)
    n_clusters = args.clusters
    if n_clusters is None:
        if labels is None:
            raise ValueError("pass --clusters when the data has no labels")
        n_clusters = int(np.unique(labels).size)
    encoded = encode(_model_for(args, features), features)
    print(f"{'features':<10}{'init':<10}{'ari':<10}time_s")
    for name, mat in (("raw", features), ("encoded", encoded)):
        for init in KMEANS_INITS:
            result = kmeans(mat, n_clusters, init=init, seed=args.seed)
            if labels is not None:
                ari = adjusted_rand_index(labels, result.assignments)
            else:
                ari = float("nan")
            print(f"{name:<10}{init:<10}{ari:<10.4f}{result.elapsed_seconds:.4f}")
    return 0


def _cmd_benchmark(args):
    split = _load_labeled_split(args, "benchmarking")
    n_clusters = int(np.unique(split.train_labels).size)
    print(f"{'layers':<8}{'knn_acc':<10}{'ari':<10}train_s")
    for depth in (1, 2, 3, 4):
        config = _config_from_args(args, layers=depth)
        model, elapsed = timed(train, split.train_features, config)
        encoded_train = encode(model, split.train_features)
        encoded_test = encode(model, split.test_features)
        predicted = knn_classify(encoded_train, split.train_labels,
                                 encoded_test, k=args.k)
        acc = accuracy(split.test_labels, predicted)
        result = kmeans(encoded_train, n_clusters, seed=args.seed)
        ari = adjusted_rand_index(split.train_labels, result.assignments)
        print(f"{depth:<8}{acc:<10.4f}{ari:<10.4f}{elapsed:.4f}")
    return 0


def _build_parser():
    parser = _Parser(
        prog="dctl",
        description="Learn stacked convolutional transforms from unlabeled "
                    "1-D signals and evaluate the features they produce.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("synth", help="write a labeled synthetic dataset")
    sub.add_argument("--out", required=True, help="output CSV path")
    sub.add_argument("--classes", type=int, default=3)
    sub.add_argument("--per-class", type=int, default=20)
    sub.add_argument("--length", type=int, default=32)
    sub.add_argument("--motifs", type=int, default=3,
                     help="motif placements per signal")
    sub.add_argument("--noise", type=float, default=0.1,
                     help="additive Gaussian noise scale")
    sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(func=_cmd_synth)

    sub = commands.add_parser("train", help="fit a transform stack")
    _add_data_flags(sub)
    _add_model_flags(sub)
    sub.add_argument("--model-out", required=True, help="model file to write")
    sub.add_argument("--trace-out", default=None,
                     help="objective trace CSV (default: MODEL_OUT.trace.csv)")
    sub.set_defaults(func=_cmd_train)

    sub = commands.add_parser("encode", help="map signals to learned features")
    _add_data_flags(sub)
    sub.add_argument("--model", required=True, help="trained model file")
    sub.add_argument("--out", required=True, help="feature CSV to write")
    sub.set_defaults(func=_cmd_encode)

    sub = commands.add_parser(
        "classify", help="compare raw and encoded features on labeled data")
    _add_data_flags(sub, with_split=True)
    _add_model_flags(sub)
    sub.add_argument("--model", default=None,
                     help="reuse a trained model (model flags are then ignored)")
    sub.add_argument("-k", dest="k", type=int, default=1,
                     help="neighbors for the nearest-neighbor vote")
    sub.set_defaults(func=_cmd_classify)

    sub = commands.add_parser(
        "cluster", help="k-means over raw and encoded features, three seedings")
    _add_data_flags(sub)
    _add_model_flags(sub)
    sub.add_argument("--model", default=None,
                     help="reuse a trained model (model flags are then ignored)")
    sub.add_argument("--clusters", type=int, default=None,
                     help="cluster count (default: number of distinct labels)")
    sub.set_defaults(func=_cmd_cluster)

    sub = commands.add_parser(
        "benchmark", help="sweep stack depths 1..4 and report downstream scores")
    _add_data_flags(sub, with_split=True)
    _add_model_flags(sub, with_layers=False)
    sub.add_argument("-k", dest="k", type=int, default=1,
                     help="neighbors for the nearest-neighbor vote")
    sub.set_defaults(func=_cmd_benchmark)

    return parser


def cli(argv=None):
    """Run the command line tool; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse exits directly for --help
        return exc.code if isinstance(exc.code, int) else 0
    try:
        return args.func(args)
    except (DatasetFormatError, ModelFileError, TrainingError,
            NumericalConditioningError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    raise SystemExit(cli())
