#!/usr/bin/env python3
"""Benchmark of isacbf: dataset generation, training and Monte-Carlo eval.

Run from the root of a checkout:

  python3 isacbench/run.py --workload train --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the same checkout.  With
``--trace 0`` the last line of standard output is a JSON object with every
end-to-end metric, its times scaled to the reference speed (``probe.py``);
with ``--trace 1`` it holds the per-layer metrics of a traced run and the
tracing overhead.  A run record (revision, numpy, BLAS,
threads, kernel backend, config hash, seed, counts, output digests) and, for
traced runs, the spans are written under ``bench_results/``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench_results"
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
N_SETUPS = 3

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "hcl_train_iter_ms": "ms/iter",
    "naive_train_iter_ms": "ms/iter",
    "eval_genie_us_per_slot": "us/slot",
    "eval_random_us_per_slot": "us/slot",
    "eval_naive_dl_us_per_slot": "us/slot",
    "eval_hcl_us_per_slot": "us/slot",
    "gen_examples_per_s": "examples/s",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=("train", "eval", "gen-data"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="length of the measured part of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not args.seconds > 0:
        ap.error("--seconds must be > 0")
    return args


def source_revision() -> dict:
    """The git commit when run from a clone, and always a hash of ``src``."""
    rev = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                rev = ref_file.read_text().strip()
            else:
                packed = ROOT / ".git" / "packed-refs"
                for line in (packed.read_text().splitlines()
                             if packed.is_file() else []):
                    if line.endswith(" " + ref[5:]):
                        rev = line.split()[0]
        else:
            rev = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"git_rev": rev, "src_sha256": digest.hexdigest()}


def blas_info(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):   # numpy without the dict form
        return {"name": "unknown", "version": "unknown"}


def settle() -> None:
    """Keep set-up's objects out of the collector's scans while timing."""
    gc.collect()
    gc.freeze()


def measure(bench, seconds: float, first: int) -> list[dict]:
    """Whole rounds until ``seconds`` have passed."""
    rounds = []
    r = first
    t_end = time.perf_counter() + seconds
    while True:
        rounds.append(bench.round(r))
        r += 1
        if time.perf_counter() >= t_end:
            return rounds


def final_checks(bench) -> None:
    bench.check_gradients("last")
    bench.check_training()
    bench.check_episodes()


def run_plain(bench, seconds: float) -> dict:
    from probe import probe_seconds, slowness
    from workloads import median_metrics, quartiles
    setups, raw_setups = [], []
    for _ in range(N_SETUPS):
        before = probe_seconds()
        t0 = time.perf_counter()
        bench.setup()
        dt = time.perf_counter() - t0
        raw_setups.append(dt)
        setups.append(dt / slowness(before, probe_seconds()))
    bench.check_gradients("first")
    bench.warm_round()
    bench.check_kernels()
    settle()
    rounds = measure(bench, seconds, 1)
    final_checks(bench)
    values = median_metrics(rounds)
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    missing = sorted(set(E2E_UNITS) - set(values))
    if missing:
        raise RuntimeError(f"no sample of {', '.join(missing)}")
    raw = median_metrics(rounds, "_raw.")
    raw["setup_s"] = statistics.median(raw_setups)
    probes = [p for s in rounds for p in s["_probe_s"]]
    bench.samples = {"rounds": len(rounds), "setups": setups,
                     "raw_setups": raw_setups, "raw_medians": raw,
                     "probe_s": statistics.quantiles(probes, n=4),
                     "quartiles": quartiles(rounds), "per_round": rounds}
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in E2E_UNITS.items()}


def run_traced(bench, seconds: float, spans_path: Path) -> dict:
    """Set up traced, then alternate untraced and traced rounds.

    Alternating, and comparing the rounds' times at the reference speed,
    keeps the machine's drift out of the tracing overhead.
    """
    from layers import per_layer_metrics, trace_points
    from tracer import Tracer
    tracer = Tracer()
    points = trace_points()
    tracer.install(points)
    try:
        with tracer.phase("setup"):
            bench.setup()
    finally:
        tracer.uninstall()
    bench.check_gradients("first")
    bench.warm_round()
    bench.check_kernels()
    settle()
    plain, traced = [], []
    t_end = time.perf_counter() + seconds
    while not traced or time.perf_counter() < t_end:
        r = 1 + len(plain) + len(traced)
        plain.append(bench.round(r))
        tracer.install(points)
        try:
            with tracer.phase("measure"):
                traced.append(bench.round(r + 1))
        finally:
            tracer.uninstall()
    final_checks(bench)
    tracer.dump(str(spans_path))
    metrics = per_layer_metrics(tracer)
    base = statistics.median(s["_s_ref"] for s in plain)
    with_trace = statistics.median(s["_s_ref"] for s in traced)
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (with_trace / base - 1.0), "unit": "%"}
    bench.samples = {"rounds_untraced": len(plain), "rounds_traced": len(traced),
                     "spans": len(tracer.names)}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:           # before numpy loads its BLAS
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "isacbf" / "__init__.py").is_file():
        print(f"error: no isacbf sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import numpy as np

    import isacbf
    from isacbf.nn import kernels
    from workloads import WORKLOADS, Bench
    if not Path(isacbf.__file__).resolve().is_relative_to(src):
        print(f"error: isacbf imported from {isacbf.__file__}, not {src}",
              file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix=f"{stem}-", dir=OUT_DIR)
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, workdir)
        if args.trace:
            metrics = run_traced(bench, args.seconds,
                                 OUT_DIR / f"{stem}.spans.json.gz")
        else:
            metrics = run_plain(bench, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": not bench.problems, "attempted": bench.attempted,
              "failed": bench.failed, "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, **source_revision(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_info(np), "blas_threads": BLAS_THREADS,
        "kernel_backend": kernels.get_backend(),
        "config_sha256": hashlib.sha256(json.dumps(
            bench.cfg.as_dict(), sort_keys=True).encode()).hexdigest(),
        "cpus": os.cpu_count(), "machine": platform.machine(),
        "attempted": bench.attempted, "failed": bench.failed,
        "problems": bench.problems, "samples": bench.samples,
        "digests": bench.digests, "result": result,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    raw = bench.samples.get("raw_medians", {})
    for name, m in metrics.items():
        line = f"{name:36s} {m['value']:14.6g} {m['unit']}"
        if name in raw:
            line = f"{line:60s} raw {raw[name]:.6g}"
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
