"""The benchmark's workloads: one mix of the four isacbf stages each.

A round runs every stage once, in the order a user runs them:

  gen-data   ``generate_dataset`` from random-beam episodes, then
             ``Dataset.save`` and ``Dataset.load``
  train HCL  momentum-GD iterations of HCL-Net at batch 256 (``train``)
  train FC   momentum-GD iterations of the naive-FC net at batch 256
  eval       ``monte_carlo_eval`` of genie, random, naive_dl and hcl, each
             method timed on its own call

Every workload reports every end-to-end metric, so every round samples every
stage; a workload sets how much work each stage gets, and so which layers
carry the run.  Each stage's samples are scaled to the reference speed by
the probes timed around it (``probe.py``).  Inputs come only from the
workload seed.
"""
from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time
import traceback
import zlib
from dataclasses import dataclass
from importlib import import_module

import numpy as np
from isacbf import harness, sensing
from isacbf.config import SimConfig
from isacbf.nn import kernels, model
from isacbf.nn import loss as nnloss
from isacbf.nn.train import TrainHyper

import checks
from probe import at_reference, probe_seconds, slowness

# isacbf.nn re-exports the function train under the module's name
nntrain = import_module("isacbf.nn.train")

METHODS = ("genie", "random", "naive_dl", "hcl")

# training data and the short seeded training that makes the eval models
N_DATA = 2000
SETUP_HCL_ITERS = 2
SETUP_NAIVE_ITERS = 20
# gradient check: examples of the sub-batch and coordinates per network
FD_EXAMPLES = 8
FD_COORDS = 12
# relative steps of the central differences (see checks.check_gradient)
FD_STEPS = (1e-6, 1e-6 / 8, 1e-6 / 64)


@dataclass(frozen=True)
class Mix:
    """Work per round of each stage."""
    gen_examples: int
    hcl_iters: int
    naive_iters: int
    eval_episodes: int       # per method, each timed on its own


# Why each workload exists is stated in BENCHMARK.json and the README: the
# stage that gets the largest share of a round sets which layers carry the
# run, while every other stage still gets enough of it for a steady median.
WORKLOADS = {
    "train": Mix(200, 4, 30, 2),
    "eval": Mix(200, 2, 20, 5),
    "gen-data": Mix(600, 2, 20, 2),
}


def subseed(seed: int, tag: str, *ints: int) -> int:
    """A 32-bit seed drawn from the workload seed and a purpose tag."""
    ss = np.random.SeedSequence([seed, zlib.crc32(tag.encode()), *ints])
    return int(ss.generate_state(1)[0])


def rng_for(seed: int, tag: str, *ints: int) -> np.random.Generator:
    return np.random.default_rng(subseed(seed, tag, *ints))


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class Bench:
    """State of one benchmark run: inputs, networks, results and failures."""

    def __init__(self, mix: Mix, seed: int, workdir: str):
        self.mix = mix
        self.seed = seed
        self.workdir = workdir
        self.cfg = SimConfig()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict = {}
        self.eval_seeds: list[int] = []
        self.captured: dict = {}
        self.samples: dict = {}     # sample counts for the run record

    # ---- bookkeeping ------------------------------------------------------------

    def verify(self, ops: int, check, *args) -> None:
        """Run a check; a failure marks its operations failed and the run wrong."""
        try:
            check(*args)
        except checks.CheckFailed as exc:
            self.failed += ops
            self.problems.append(str(exc))
            print(f"check failed: {exc}", file=sys.stderr)

    def _stage(self, ops: int, fn, *args) -> dict:
        self.attempted += ops
        try:
            return fn(*args)
        except Exception:  # any fault of the program fails the stage's ops
            self.failed += ops
            traceback.print_exc(file=sys.stderr)
            return {}

    # ---- set-up -------------------------------------------------------------------

    def setup(self) -> None:
        """Training data through the container, then seeded short training of
        both networks whose saved and re-loaded copies are the eval models."""
        cfg, seed = self.cfg, self.seed
        ds = harness.generate_dataset(cfg, N_DATA, rng_for(seed, "data"))
        path = f"{self.workdir}/data.bin"
        ds.save(path, cfg)
        self.ds = harness.Dataset.load(path)
        self.geom = self.ds.geometry(cfg)
        self.hcl, res_h = harness.train_hcl(self.ds, cfg, TrainHyper(
            max_iters=SETUP_HCL_ITERS, seed=subseed(seed, "hcl-init")))
        self.naive, res_n = harness.train_naive(self.ds, cfg, TrainHyper(
            max_iters=SETUP_NAIVE_ITERS, seed=subseed(seed, "naive-init")))
        self.naive_x = self.naive.features(self.ds.est_thetas,
                                           self.ds.est_dists)
        self.hcl.save(f"{self.workdir}/hcl.bin")
        self.naive.save(f"{self.workdir}/naive.bin")
        self.models = {
            "hcl": model.load_model(f"{self.workdir}/hcl.bin", cfg),
            "naive_dl": model.load_model(f"{self.workdir}/naive.bin", cfg)}
        self.losses = {"hcl": list(res_h.loss_trace),
                       "naive": list(res_n.loss_trace)}
        self.digests["setup_dataset_sha256"] = self.ds.sha256()

    # ---- stages -------------------------------------------------------------------

    def gen_data(self, r: int) -> dict:
        cfg, n = self.cfg, self.mix.gen_examples
        path = f"{self.workdir}/gen.bin"
        t0 = time.perf_counter()
        ds = harness.generate_dataset(cfg, n, rng_for(self.seed, "gen", r))
        ds.save(path, cfg)
        loaded = harness.Dataset.load(path)
        dt = time.perf_counter() - t0
        self.verify(n, checks.check_dataset, ds, cfg)
        self.verify(n, checks.check_roundtrip, ds, loaded)
        if r == 0:
            self.digests["gen_dataset_sha256"] = ds.sha256()
        return {"gen_examples_per_s": n / dt, "_s": dt}

    def _train(self, net, inputs, key: str, iters: int, r: int) -> dict:
        hyper = TrainHyper(max_iters=iters, seed=subseed(self.seed, key, r))
        t0 = time.perf_counter()
        res = nntrain.train(net, inputs, self.geom, self.cfg, hyper)
        dt = time.perf_counter() - t0
        self.losses[key].extend(res.loss_trace)
        return {f"{key}_train_iter_ms": dt / iters * 1e3, "_s": dt}

    def train_hcl(self, r: int) -> dict:
        return self._train(self.hcl, self.ds.x, "hcl", self.mix.hcl_iters, r)

    def train_naive(self, r: int) -> dict:
        return self._train(self.naive, self.naive_x, "naive",
                           self.mix.naive_iters, r)

    def evaluate(self, r: int) -> dict:
        """Each episode is one ``monte_carlo_eval`` call per method with the
        same seed, so every method sees the same trajectories; the methods
        take turns episode by episode, so they run under the same load."""
        cfg = self.cfg
        out = {f"eval_{m}_us_per_slot": [] for m in METHODS}
        total, rows = 0.0, []
        for e in range(self.mix.eval_episodes):
            seed_e = subseed(self.seed, "eval", r, e)
            self.eval_seeds.append(seed_e)
            for method in METHODS:
                t0 = time.perf_counter()
                report = harness.monte_carlo_eval(cfg, [method], 1,
                                                  models=self.models,
                                                  seed=seed_e)
                dt = time.perf_counter() - t0
                total += dt
                out[f"eval_{method}_us_per_slot"].append(
                    dt / cfg.n_slots * 1e6)
                self.verify(1, checks.check_stats_finite, report.stats)
                rows += [s.as_dict() for s in report.stats]
        if r == 0:
            self.digests["eval_stats_sha256"] = _digest(rows)
        out["_s"] = total
        return out

    def round(self, r: int) -> dict:
        """One pass over every stage; returns the samples it took.

        A probe runs before the first stage and after every stage, and each
        stage's samples are scaled by the machine's slowness between the two
        probes around it; the raw samples are kept under ``_raw.<name>``.
        """
        m = self.mix
        before = probe_seconds()
        samples = {"_s": 0.0, "_s_ref": 0.0, "_probe_s": [before]}
        for ops, stage in ((m.gen_examples, self.gen_data),
                           (m.hcl_iters, self.train_hcl),
                           (m.naive_iters, self.train_naive),
                           (len(METHODS) * m.eval_episodes, self.evaluate)):
            s = self._stage(ops, stage, r)
            after = probe_seconds()
            slow = slowness(before, after)
            dt = s.pop("_s", 0.0)
            samples["_s"] += dt
            samples["_s_ref"] += dt / slow
            samples["_probe_s"].append(after)
            for name, value in s.items():
                samples[name] = at_reference(name, value, slow)
                samples["_raw." + name] = value
            before = after
        return samples

    def warm_round(self) -> None:
        """Round 0: untimed, and captures the first HCL batch's conv and pool
        calls for the loop-reference check."""
        names = ("conv2d3x3_same_fwd", "maxpool2x2_fwd")
        originals = {n: vars(kernels)[n] for n in names}

        def capture(name):
            fn = originals[name]

            def wrapped(*args):
                out = fn(*args)
                if name not in self.captured:   # weights change in place
                    self.captured[name] = ([np.array(a) for a in args], out)
                return out
            return wrapped

        for n in names:
            setattr(kernels, n, capture(n))
        try:
            self.round(0)
        finally:
            for n in names:
                setattr(kernels, n, originals[n])
        # set-up and this round are the same on every run of one seed
        for key, trace in self.losses.items():
            self.digests[f"{key}_loss_sha256"] = _digest(trace)

    # ---- correctness ----------------------------------------------------------------

    def check_gradients(self, when: str) -> None:
        """Reverse-mode gradients against central differences of the loss."""
        cfg = self.cfg
        rng = rng_for(self.seed, "fd", 0 if when == "first" else 1)
        idx = np.sort(rng.choice(len(self.ds), FD_EXAMPLES, replace=False))
        geom = self.geom.subset(idx)
        for net, x in ((self.hcl, self.ds.x[idx]),
                       (self.naive, self.naive_x[idx])):
            coords = rng.choice(net.n_params, FD_COORDS, replace=False)
            if net is self.hcl:   # always include conv weights
                coords[:3] = rng.choice(72, 3, replace=False)
            j, _, grad = nnloss.gradient(net, x, geom, cfg)
            fd = fd_gradient(net, x, geom, cfg, coords)
            self.verify(1, checks.check_gradient, grad, fd, coords,
                        fd_tolerances(j))

    def check_kernels(self) -> None:
        (x, w, b), y = self.captured["conv2d3x3_same_fwd"]
        self.verify(1, checks.check_conv, x, w, b, y)
        (r,), (p, idx) = self.captured["maxpool2x2_fwd"]
        self.verify(1, checks.check_pool, r, p, idx)

    def check_training(self) -> None:
        for key, trace in self.losses.items():
            self.verify(0, checks.check_losses, trace, key)

    def check_episodes(self) -> None:
        """Re-run the first and the last eval episode of the run."""
        cfg = self.cfg
        for seed_e in sorted({self.eval_seeds[0], self.eval_seeds[-1]}):
            traces = {}
            for method in METHODS:
                # a fresh SeedSequence per method, as in a one-method
                # monte_carlo_eval call: spawning from a generator advances
                # the sequence it was made from
                child = np.random.SeedSequence(seed_e).spawn(1)[0]
                traces[method] = harness.run_episode(
                    cfg, method, np.random.default_rng(child),
                    model=self.models.get(method))
                self.verify(1, checks.check_episode, traces[method], method,
                            cfg, sensing.echo_mean)
            self.verify(len(METHODS), checks.check_common_trajectories, traces)


def fd_gradient(net, x, geom, cfg, coords) -> np.ndarray:
    """Central differences of ``penalty_loss``, one row per relative step."""
    fd = np.empty((len(FD_STEPS), len(coords)))
    for s, rel in enumerate(FD_STEPS):
        for j, i in enumerate(coords):
            orig = net.params[i]
            step = rel * max(1.0, abs(orig))
            net.params[i] = orig + step
            jp, _ = nnloss.penalty_loss(net, x, geom, cfg)
            net.params[i] = orig - step
            jm, _ = nnloss.penalty_loss(net, x, geom, cfg)
            net.params[i] = orig
            fd[s, j] = (jp - jm) / (2.0 * step)
    return fd


def fd_tolerances(loss: float) -> list[float]:
    return [checks.fd_noise(loss, rel) for rel in FD_STEPS]


def _values(rounds: list[dict], key: str) -> list[float]:
    """Every sample of ``key``: one per round, or a list per round."""
    vals = []
    for s in rounds:
        v = s.get(key, [])
        vals.extend(v if isinstance(v, list) else [v])
    return vals


def _keys(rounds: list[dict]) -> list[str]:
    return sorted({k for s in rounds for k in s if not k.startswith("_")})


def median_metrics(rounds: list[dict], prefix: str = "") -> dict:
    """Median over the run's samples of every sampled metric; with prefix
    ``_raw.`` the median of the unscaled samples."""
    return {k: statistics.median(_values(rounds, prefix + k))
            for k in _keys(rounds)}


def quartiles(rounds: list[dict]) -> dict:
    """Sample count, first quartile, median and third quartile of each metric."""
    out = {}
    for k in _keys(rounds):
        vals = _values(rounds, k)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
        out[k] = [len(vals), *q]
    return out
