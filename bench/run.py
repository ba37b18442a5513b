"""Seeded end-to-end benchmark of the dctl pipeline.

Run from the repository root:

    python3 bench/run.py                      # every workload, one after another
    python3 bench/run.py --workload train-deep --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the ``end_to_end`` entries of ``BENCHMARK.json``; with
``--trace 1`` they are its ``per_layer`` entries, measured by wrapping the
library's functions (see ``tracing.py``).  Without ``--workload`` every
workload runs in its own child process, so that ``peak_rss_mb`` is that
workload's own peak.  The package is imported from ``src/`` of this
checkout; BLAS threads are capped at the number of usable cores.
"""

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cap_blas_threads():
    """Cap BLAS threads at the usable core count; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def _cache_sizes():
    """Data and unified cache sizes of cpu0 in bytes, read from sysfs."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(size[-1:], 1)
        sizes[f"L{level}"] = int(size.rstrip("KMG")) * scale
    return sizes


def _blas_info():
    import ctypes

    import numpy as np

    info = {"threads_env": os.environ["OPENBLAS_NUM_THREADS"]}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info.update(name=blas.get("name"), version=blas.get("version"))
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                info["threads"] = getter()
                break
    return info


def environment(nproc, wl):
    import numpy
    import scipy

    caches = _cache_sizes()
    what, size = wl.largest_array()
    largest = {"array": what, "bytes": size}
    for level in ("L2", "L3"):
        if level in caches:
            largest[f"share_of_{level}"] = size / caches[level]
    return {
        "nproc": nproc,
        "blas": _blas_info(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "caches_bytes": caches,
        "largest_array": largest,
    }


def _run_one(args, spec, nproc, workloads):
    wl = workloads.WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"work-{wl.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = workloads.run(wl, args.seed, args.seconds, bool(args.trace), workdir,
                               log=lambda msg: print(msg, file=sys.stderr))
    finally:
        shutil.rmtree(workdir)
    measured = sum(traced == bool(args.trace) for _, traced, _ in result.operations)
    if not measured:
        raise SystemExit("error: no operation of this run passed its checks")
    if args.trace:
        specs, values = spec["per_layer"], workloads.per_layer_metrics(result)
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        specs, values = spec["end_to_end"], workloads.end_to_end_metrics(result, peak_mb)
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    env = environment(nproc, wl)

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"operations {result.attempted} attempted, {result.failed} failed "
          f"(failed_share {result.failed / result.attempted:.3f}); "
          f"medians over {measured} operations, "
          f"setup_s over {len(result.setup_times)} set-up rounds")
    for name, metric in metrics.items():
        print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']}")
    for name in sorted(set(values) - set(metrics)):
        print(f"  {name:<48} {values[name]:>14.6g} (not in BENCHMARK.json)")
    print("env " + json.dumps(env, sort_keys=True))

    summary = {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "setup_s": result.setup_times,
        "operations": [{"index": i, "traced": t, "steps_s": times}
                       for i, t, times in result.operations],
        **summary,
    }
    if result.tracer is not None:
        record["spans"] = result.tracer.to_json()
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record))
    print(json.dumps(summary))
    return 0


def _run_all(args, names):
    """Run each workload in a child process and print one combined JSON line."""
    results, status = {}, 0
    for name in names:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            print(f"error: workload {name} exited with status {child.returncode}",
                  file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        help="run one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float,
                        help="how long to keep starting operations "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    nproc = _cap_blas_threads()
    missing = [p for p in (ROOT / "BENCHMARK.json", ROOT / "src" / "dctl" / "__init__.py")
               if not p.is_file()]
    if missing:
        print(f"error: {', '.join(map(str, missing))} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import dctl

    if Path(dctl.__file__).resolve().parent != ROOT / "src" / "dctl":
        print(f"error: dctl was imported from {dctl.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload is None:
        return _run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    return _run_one(args, spec, nproc, workloads)


if __name__ == "__main__":
    sys.exit(main())
