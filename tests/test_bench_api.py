"""The names the benchmark in isacbench/ looks up in the package.

The traced benchmark run wraps each trace point by replacing
``vars(owner)[attr]``, and its correctness checks call ``sensing.echo_mean``,
read ``run_episode``'s trace and ``generate_dataset``'s arrays, record
``kernels.get_backend()``, and capture the first training conv and pool
calls through ``kernels``.  A refactor that moves or renames one of them
breaks ``isacbench/run.py`` or its checks; these tests catch that without
running the benchmark.  One short run of each workload, and one traced
run, then check that the benchmark runs end to end on a copy of the tree.
"""
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from isacbf import sensing
from isacbf.harness import (METHODS, Dataset, generate_dataset,
                            monte_carlo_eval, run_episode)
from isacbf.nn import kernels
from isacbf.nn.model import HCLNet, NaiveNet

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "isacbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"isacbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _trace_points():
    return _load("layers").trace_points()


def test_trace_points_resolve():
    points = _trace_points()
    assert points
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in points if attr not in vars(owner)]
    assert not missing, f"trace points not defined on their owner: {missing}"
    for owner, attr, *_ in points:
        assert callable(vars(owner)[attr])


def test_benchmark_entry_points():
    assert callable(sensing.echo_mean)
    assert isinstance(kernels.get_backend(), str)


def test_benchmark_checks_accept_outputs(small_cfg, tmp_path):
    """The benchmark's episode, stats, dataset and round-trip checks pass on
    the simulator's outputs: as ``isacbench/workloads.py`` calls them, and
    on an eval of every method, whose methods share each block's draws."""
    checks = _load("checks")
    hcl, naive = HCLNet(small_cfg), NaiveNet(small_cfg)
    hcl.init_params(np.random.default_rng(0))
    naive.init_params(np.random.default_rng(0))
    models = {"hcl": hcl, "naive_dl": naive}
    traces = {}
    for method in METHODS:
        child = np.random.SeedSequence(7).spawn(1)[0]
        traces[method] = run_episode(small_cfg, method,
                                     np.random.default_rng(child),
                                     model=models.get(method))
        checks.check_episode(traces[method], method, small_cfg,
                             sensing.echo_mean)
    checks.check_common_trajectories(traces)
    report = monte_carlo_eval(small_cfg, list(METHODS), 3, models=models,
                              seed=7)
    assert [s.method for s in report.stats] == list(METHODS)
    checks.check_stats_finite(report.stats)
    # rho_nu = 2 drives many distance estimates below zero, so the windows
    # hold carried-forward rows
    for cfg in (small_cfg, small_cfg.replace(rho_nu=2.0)):
        ds = generate_dataset(cfg, 20, np.random.default_rng(3))
        checks.check_dataset(ds, cfg)
        path = str(tmp_path / "data.bin")
        ds.save(path, cfg)
        checks.check_roundtrip(ds, Dataset.load(path))


def test_training_forward_calls_the_captured_kernels(small_cfg, monkeypatch):
    """One HCLNet.forward(x, want_cache=True), as training makes it, calls
    kernels.conv2d3x3_same_fwd and kernels.maxpool2x2_fwd once each through
    the module, with positional arguments, the pool returning (maxima,
    index): the benchmark's warm round captures these two calls by module
    attribute and checks them against its loop references after the round.
    So neither forward nor backward may write into what the two calls
    return: after both, each output still equals a fresh call on copies of
    its inputs."""
    names = ("conv2d3x3_same_fwd", "maxpool2x2_fwd")
    real = {name: getattr(kernels, name) for name in names}
    calls = {}
    for name in names:
        def counted(*args, name=name):
            out = real[name](*args)
            calls.setdefault(name, []).append(
                ([np.array(a) for a in args], out))
            return out
        monkeypatch.setattr(kernels, name, counted)
    net = HCLNet(small_cfg)
    net.init_params(np.random.default_rng(0))
    x = np.random.default_rng(1).normal(
        size=(4, small_cfg.history_len, small_cfg.n_vehicles, small_cfg.n_tx,
              2))
    out, cache = net.forward(x, want_cache=True)
    net.backward(np.ones_like(out), cache)
    assert sorted(calls) == sorted(names)
    assert all(len(seen) == 1 for seen in calls.values())
    [(args, y)] = calls["conv2d3x3_same_fwd"]
    assert np.array_equal(y, real["conv2d3x3_same_fwd"](*args))
    [(args, (p, idx))] = calls["maxpool2x2_fwd"]
    fresh_p, fresh_idx = real["maxpool2x2_fwd"](*args)
    assert p.shape == idx.shape
    assert np.array_equal(p, fresh_p) and np.array_equal(idx, fresh_idx)


def test_train_calls_the_loss_through_its_module(small_cfg, monkeypatch):
    """train() calls penalty_loss_and_grad once per iteration by its name in
    isacbf.nn.train: the benchmark's loss span wraps that module global, so
    a loss inlined into the loop would leave the span silently at zero."""
    from isacbf.nn import train as nntrain
    from isacbf.nn.loss import build_geometry
    calls = []

    def counted(*args, real=nntrain.penalty_loss_and_grad, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(nntrain, "penalty_loss_and_grad", counted)
    k, m = small_cfg.n_vehicles, small_cfg.n_tx
    rng = np.random.default_rng(0)
    thetas, dists = rng.uniform(0.4, 1.2, (6, k)), rng.uniform(15, 60, (6, k))
    net = NaiveNet(small_cfg)
    net.init_params(rng)
    nntrain.train(net, net.features(thetas, dists),
                  build_geometry(thetas, dists, small_cfg), small_cfg,
                  nntrain.TrainHyper(batch_size=4, max_iters=3))
    assert calls == [(4, k, m, 2)] * 3


@pytest.fixture(scope="module")
def bench_copy(tmp_path_factory):
    """A checkout of src/ and isacbench/ alone, as the benchmark runs."""
    root = tmp_path_factory.mktemp("bench")
    for name in ("src", "isacbench"):
        shutil.copytree(ROOT / name, root / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    return root


@pytest.mark.parametrize("workload, trace", [
    ("train", 0), ("eval", 0), ("gen-data", 0), ("eval", 1)])
def test_benchmark_runs(bench_copy, workload, trace):
    """One short run of isacbench/run.py per workload, and one traced run,
    exits 0 with correct outputs and no failed operation; a plain run
    reports every end-to-end metric that BENCHMARK.json names."""
    proc = subprocess.run(
        [sys.executable, "isacbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=bench_copy, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    if not trace:
        names = {m["name"] for m in json.loads(
            (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
        assert names <= set(result["metrics"])
