"""The benchmark's workloads: seeded inputs, one timed pipeline operation, output checks.

One operation is the user pipeline built from public calls:

1. ``load``: ``load_matrix`` the signals CSV;
2. ``train``: ``normalize_per_sample``, ``train`` with a fixed number of
   outer iterations, ``save_model``;
3. ``encode_cmd``: the encode command, in-process through ``dctl.cli.cli``;
4. to 6. ``evaluate``: ``load_matrix`` the feature CSV, ``train_test_split``,
   ``knn_classify`` and ``nearest_centroid_classify``, then ``kmeans`` with
   every seeding in ``KMEANS_INITS``, each scored by ``adjusted_rand_index``.

Training uses ``train_rows`` evenly spaced signals; the other steps use
all of them.  A workload that trains in set-up (``features-io``) starts
at step 3.
Every library call goes through its module attribute (``dctl.model.train``,
not a name bound at import), so a :class:`tracing.Tracer` installed
around an operation sees it.
"""

import contextlib
import hashlib
import io
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import dctl.cli
import dctl.data
import dctl.evaluation
import dctl.model
import dctl.persistence

from tracing import Tracer, layer_metrics

# Set-up runs in rounds.  A round repeats set-up for at least
# SETUP_ROUND_SECONDS, and its sample is the mean time of one set-up in it.
# The test host's CPU speed changes in phases of about a second (the same
# CSV write takes 0.074 s or 0.13 s of CPU time), so a median over shorter
# samples flips between the two speeds from run to run.
SETUP_MIN_ROUNDS = 3
SETUP_MIN_SECONDS = 8.0
SETUP_ROUND_SECONDS = 1.0
MIN_OPERATIONS = 2  # a traced run needs one untraced and one traced operation
NOISE = 0.3
SPLIT = 0.7
KNN_K = 3


@dataclass(frozen=True)
class Workload:
    """Input shape and model size of one workload.

    The model trains on ``train_rows`` evenly spaced signals out of
    ``signals``; with ``train_in_setup`` it trains once in set-up and the
    timed operation starts at encoding.
    """

    name: str
    signals: int  # M, encoded and evaluated
    length: int  # N
    kernels: int  # K
    layers: int  # L
    iters: int  # outer iterations; objective_tol=0 makes the count fixed
    classes: int
    train_rows: int
    train_in_setup: bool = False

    def training_rows(self, x):
        return x[:: self.signals // self.train_rows]

    def config(self):
        return dctl.model.ModelConfig(
            num_layers=self.layers,
            num_kernels=self.kernels,
            max_outer_iters=self.iters,
            objective_tol=0.0,
        )

    def largest_array(self):
        """The largest array the pipeline materializes, by its computed size."""
        stacks = self.signals * self.length * self.kernels * 8
        dense = self.kernels * self.length * self.length * 8
        if dense > stacks:
            return "dense conv matrices (K, N, N) float64", dense
        return "signal stacks and features (M, N, K) float64", stacks


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-deep", signals=200, length=128, kernels=8, layers=3, iters=1,
                 classes=4, train_rows=200),
        Workload("train-long", signals=64, length=1024, kernels=8, layers=2, iters=1,
                 classes=2, train_rows=16),
        Workload("features-io", signals=2000, length=128, kernels=8, layers=3, iters=1,
                 classes=4, train_rows=100, train_in_setup=True),
    )
}


class SetupError(RuntimeError):
    """Set-up produced inputs the benchmark cannot measure on."""


class _Steps:
    """Times named steps; under a tracer each step is also a root span of ``group``."""

    def __init__(self, tracer, group):
        self.tracer = tracer
        self.group = group
        self.times = {}

    @contextmanager
    def __call__(self, name):
        with self.tracer.root(name, self.group) if self.tracer else nullcontext():
            start = time.perf_counter()
            yield
            self.times[name] = time.perf_counter() - start


@dataclass
class Inputs:
    signals: np.ndarray
    labels: np.ndarray
    signals_path: str
    model_path: str
    features_path: str
    model: object  # TrainedModel from set-up, or None when the operation trains
    train_s: float | None


def setup(wl, seed, workdir, tracer=None, group="setup"):
    """Generate the seeded inputs and write them; train when the workload says so."""
    signals, labels = dctl.data.generate_synthetic(
        wl.classes, wl.signals // wl.classes, wl.length, noise_sigma=NOISE, seed=seed
    )
    workdir = Path(workdir)
    inputs = Inputs(
        signals, labels, str(workdir / "signals.csv"), str(workdir / "model.dctl"),
        str(workdir / "features.csv"), None, None,
    )
    dctl.data.write_csv(inputs.signals_path, signals, labels)
    if wl.train_in_setup:
        rows = wl.training_rows(dctl.data.normalize_per_sample(signals))
        steps = _Steps(tracer, group)
        with tracer.installed() if tracer else nullcontext(), steps("train"):
            inputs.model = dctl.model.train(rows, wl.config())
            dctl.persistence.save_model(inputs.model_path, inputs.model)
        inputs.train_s = steps.times["train"]
    return inputs


@dataclass
class Operation:
    times: dict  # step name -> seconds
    model: object
    features: np.ndarray  # read back from the feature CSV
    labels: np.ndarray
    quality: dict


def operation(wl, inputs, seed, tracer=None, group="op"):
    """Run the pipeline once; every step is timed."""
    steps = _Steps(tracer, group)
    trained = inputs.model
    if trained is None:
        with steps("load"):
            signals, _ = dctl.data.split_labels(dctl.data.load_matrix(inputs.signals_path), True)
        with steps("train"):
            x = wl.training_rows(dctl.data.normalize_per_sample(signals))
            trained = dctl.model.train(x, wl.config())
            dctl.persistence.save_model(inputs.model_path, trained)
    with steps("encode_cmd"):
        argv = ["encode", inputs.signals_path, "--labeled", "--model", inputs.model_path,
                "--out", inputs.features_path]
        with contextlib.redirect_stdout(io.StringIO()):
            status = dctl.cli.cli(argv)
        if status != 0:
            raise RuntimeError(f"encode command exited with status {status}")
    with steps("evaluate"):
        features, labels = dctl.data.split_labels(
            dctl.data.load_matrix(inputs.features_path), True
        )
        split = dctl.data.train_test_split(features, labels, split=SPLIT, seed=seed)
        ev = dctl.evaluation
        quality = {
            "knn_acc": ev.accuracy(
                ev.knn_classify(split.train_features, split.train_labels,
                                split.test_features, KNN_K),
                split.test_labels,
            ),
            "centroid_acc": ev.accuracy(
                ev.nearest_centroid_classify(split.train_features, split.train_labels,
                                             split.test_features),
                split.test_labels,
            ),
        }
        for init in ev.KMEANS_INITS:
            result = ev.kmeans(features, wl.classes, init=init, seed=seed)
            quality[f"ari_{init}"] = ev.adjusted_rand_index(labels, result.assignments)
    return Operation(steps.times, trained, features, labels, quality)


def _digest(*arrays):
    """SHA-256 of the arrays' dtypes, shapes and bytes: equal digests mean equal bits."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@dataclass(frozen=True)
class Summary:
    """What the checks keep of an operation: digests instead of its arrays."""

    features: str
    banks: str  # the trained banks in memory
    file_banks: str  # the banks read back from the model file
    training_trace: list
    quality: dict


def check_setup(inputs, bank_digests):
    """Problems with the last set-up: its signals CSV must read back bit for
    bit, and every set-up repeat must have trained the same banks."""
    problems = []
    back = dctl.data.load_matrix(inputs.signals_path)
    if not _same_bits(back, np.column_stack([inputs.signals,
                                             inputs.labels.astype(np.float64)])):
        problems.append("signals CSV does not read back bit-identical")
    if len(set(bank_digests)) > 1:
        problems.append("repeated set-up trained different banks")
    return problems


def check_operation(wl, inputs, op, reference):
    """Problems with one operation's outputs, and its :class:`Summary`.

    ``reference`` is the summary of the run's first good operation.  Without
    one, the features are checked against a fresh encoding of the signals,
    in memory and with the reloaded model file.  With one, everything must
    match it bit for bit, so those encoding checks carry over.  The check
    takes the feature array out of ``op`` once it has digested it, so that
    the re-encoding does not run next to a second copy and the process peak
    comes from the pipeline.
    """
    problems = []
    trace = [value for _, _, value in op.model.training_trace]
    if len(trace) != 1 + wl.iters * wl.layers:
        problems.append(f"training trace has {len(trace)} entries, expected "
                        f"{1 + wl.iters * wl.layers}")
    if any(after > before for before, after in zip(trace, trace[1:])):
        problems.append("training objective increased")
    shape = (wl.signals, wl.length * wl.kernels)
    if op.features.shape != shape:
        return problems + [f"features have shape {op.features.shape}, expected {shape}"], None
    if np.any(op.features < 0):
        problems.append("features have negative entries")
    if not np.array_equal(op.labels, inputs.labels):
        problems.append("feature CSV labels differ from the signal labels")
    reloaded = dctl.persistence.load_model(inputs.model_path)
    summary = Summary(
        _digest(op.features), _digest(*op.model.transforms), _digest(*reloaded.transforms),
        op.model.training_trace, op.quality,
    )
    op.features = None
    if reloaded.config != op.model.config:
        problems.append("reloaded model config differs from the trained one")
    if reference is None:
        x = dctl.data.normalize_per_sample(inputs.signals)
        encoded = _digest(dctl.model.encode(op.model, x))
        if summary.features != encoded:
            problems.append("feature CSV does not read back bit-identical to the encoded array")
        if _digest(dctl.model.encode(reloaded, x)) != encoded:
            problems.append("encoding with the reloaded model file gives different features")
        return problems, summary
    if summary.features != reference.features:
        problems.append("features differ from the run's first operation")
    if not summary.banks == summary.file_banks == reference.banks:
        problems.append("model banks differ from the run's first operation")
    if summary.training_trace != reference.training_trace:
        problems.append("training trace differs from the run's first operation")
    if summary.quality != reference.quality:
        problems.append("quality metrics differ from the run's first operation")
    return problems, summary


@dataclass
class RunResult:
    workload: Workload
    setup_times: list  # per set-up round, mean seconds of one set-up
    setup_train_times: list
    setup_group: str  # trace group of the set-up whose inputs the operations use
    operations: list  # (index, traced, step times) of timed operations that passed every check
    reference: Summary | None  # the first good operation; every later one matched it
    attempted: int
    failed: int
    tracer: Tracer | None


def run(wl, seed, seconds, trace, workdir, log=print):
    """Set up repeatedly, warm up, then run timed operations for ``seconds``.

    The warm-up is one whole untimed operation, checked like the others, so
    that lazy library set-up and first-touch allocation happen before timing
    starts.  With ``trace`` the timed operations alternate untraced and
    traced, starting untraced.  An operation that raises or fails a check
    counts as failed; ``log`` receives the reason.
    """
    tracer = Tracer() if trace else None
    setup_times, setup_train_times, bank_digests = [], [], []
    inputs, repeats, spent = None, 0, 0.0
    while len(setup_times) < SETUP_MIN_ROUNDS or spent < SETUP_MIN_SECONDS:
        start, in_round = time.perf_counter(), 0
        while not in_round or time.perf_counter() - start < SETUP_ROUND_SECONDS:
            inputs = None  # drop the previous set-up's inputs before the next
            inputs = setup(wl, seed, workdir, tracer, f"setup{repeats}")
            repeats += 1
            in_round += 1
            if inputs.model is not None:
                setup_train_times.append(inputs.train_s)
                bank_digests.append(_digest(*inputs.model.transforms))
        elapsed = time.perf_counter() - start
        spent += elapsed
        setup_times.append(elapsed / in_round)
    problems = check_setup(inputs, bank_digests)
    if problems:
        raise SetupError("; ".join(problems))
    done, failed, reference = [], 0, None
    attempted = 0
    started = longest = None
    # index 0 is the warm-up; later operations start only while they are
    # expected to end inside the window
    while (started is None or attempted < 1 + MIN_OPERATIONS
           or time.perf_counter() - started + longest < seconds):
        index = attempted
        attempted += 1
        if index == 1:
            started, longest = time.perf_counter(), 0.0
        op_started = time.perf_counter()
        traced = trace and index % 2 == 0 and index > 0
        try:
            with tracer.installed() if traced else nullcontext():
                op = operation(wl, inputs, seed, tracer if traced else None, str(index))
            problems, summary = check_operation(wl, inputs, op, reference)
            times = op.times
        except Exception as exc:  # count it and keep measuring
            log(f"operation {index} raised {type(exc).__name__}: {exc}")
            failed += 1
            continue
        finally:
            op = None  # the next operation starts without this one's arrays
            if index > 0:
                longest = max(longest, time.perf_counter() - op_started)
        if problems:
            log(f"operation {index} failed: {'; '.join(problems)}")
            failed += 1
            continue
        reference = reference or summary
        if index > 0:
            done.append((index, traced, times))
    return RunResult(
        wl, setup_times, setup_train_times, f"setup{repeats - 1}", done,
        reference, attempted, failed, tracer,
    )


def end_to_end_metrics(result, peak_rss_mb):
    """User-visible numbers: medians over set-up repeats and over operations."""
    ops = [times for _, traced, times in result.operations if not traced]
    med = statistics.median
    train_times = [times["train"] for times in ops if "train" in times]
    return {
        "setup_s": med(result.setup_times),
        "pipeline_s": med(sum(times.values()) for times in ops),
        "train_s": med(train_times or result.setup_train_times),
        "encode_cmd_s": med(times["encode_cmd"] for times in ops),
        "evaluate_s": med(times["evaluate"] for times in ops),
        "peak_rss_mb": peak_rss_mb,
        "final_objective": result.reference.training_trace[-1][2],
        **result.reference.quality,
    }


def per_layer_metrics(result):
    """Traced numbers: (low) medians over traced operations, plus the tracing overhead.

    When the workload trains in set-up, the last set-up's training stands
    in for step 2 of every operation, so the training layers are reported
    on every workload.
    """
    traced = [(i, times) for i, is_traced, times in result.operations if is_traced]
    untraced = [times for _, is_traced, times in result.operations if not is_traced]
    extra = {result.setup_group} if result.workload.train_in_setup else set()
    per_op = [layer_metrics(result.tracer, {str(i)} | extra) for i, _ in traced]
    # median_low picks one operation's value, so counts stay whole numbers
    metrics = {name: statistics.median_low(m[name] for m in per_op) for name in per_op[0]}
    quality = result.reference.quality
    metrics["evaluation.knn_classify.acc"] = quality["knn_acc"]
    metrics["evaluation.nearest_centroid_classify.acc"] = quality["centroid_acc"]
    for init in dctl.evaluation.KMEANS_INITS:
        metrics[f"evaluation.kmeans.{init}.ari"] = quality[f"ari_{init}"]
    metrics["trace.overhead_s"] = statistics.median(
        sum(times.values()) for _, times in traced
    ) - statistics.median(sum(times.values()) for times in untraced)
    return metrics
