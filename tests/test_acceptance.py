"""End-to-end acceptance checks.

Each test prints a single [PASS]/[FAIL] line on the real terminal (bypassing
capture) before asserting, so a full run yields one status line per criterion.
The training-dependent criteria share one module-scoped fixture that trains
both networks at desk scale and evaluates 500 Monte-Carlo realizations.
"""
import math
import os
import time

import numpy as np
import pytest

from helpers import fd_fim
from isacbf.channel import steering
from isacbf.config import SimConfig
from isacbf.harness import (DEFAULT_POWER_GRID, export, generate_dataset,
                            monte_carlo_eval, train_hcl, train_naive)
from isacbf.kinematics import anchor_points, make_state
from isacbf.nn.loss import build_geometry, gradient
from isacbf.nn.model import HCLNet
from isacbf.nn.train import TrainHyper, train
from isacbf.sensing import fisher_information


def _report(capfd, num: int, name: str, cond: bool, detail: str) -> None:
    line = f"[{'PASS' if cond else 'FAIL'}] criterion {num} ({name}): {detail}"
    with capfd.disabled():
        print(line, flush=True)
    assert cond, line


@pytest.fixture(scope="module")
def cfg():
    return SimConfig()


@pytest.fixture(scope="module")
def evaluated(cfg):
    """Trained HCL + naive networks and a 500-realization evaluation at P=1."""
    ds = generate_dataset(cfg, 2000, np.random.default_rng(cfg.rng_seed))
    geom = ds.geometry(cfg)
    hcl, _ = train_hcl(ds, cfg, TrainHyper(lr=1e-3, batch_size=256,
                                           max_iters=3000, momentum=0.9,
                                           seed=0))
    train(hcl, ds.x, geom, cfg, TrainHyper(lr=3e-4, batch_size=256,
                                           max_iters=1500, momentum=0.9,
                                           seed=1))
    naive, _ = train_naive(ds, cfg, TrainHyper(lr=1e-3, batch_size=256,
                                               max_iters=3000, momentum=0.9,
                                               seed=0))
    train(naive, naive.features(ds.est_thetas, ds.est_dists), geom, cfg,
          TrainHyper(lr=3e-4, batch_size=256, max_iters=1500, momentum=0.9,
                     seed=1))
    models = {"hcl": hcl, "naive_dl": naive}
    report = monte_carlo_eval(cfg, ["genie", "naive_dl", "random", "hcl"],
                              500, models=models, seed=1)
    return {s.method: s for s in report.stats}


def test_criterion_1_gradient_correctness(cfg, capfd):
    t0 = time.time()
    rng = np.random.default_rng(7)
    ds = generate_dataset(cfg, 6, np.random.default_rng(3))
    geom = ds.geometry(cfg)
    net = HCLNet(cfg, kappa=ds.kappa())
    net.init_params(rng)
    _, _, grad = gradient(net, ds.x, geom, cfg)

    def loss_at(p):
        net.params[:] = p
        o = net.forward(ds.x)
        from isacbf.nn.loss import penalty_loss_and_grad
        j, _ = penalty_loss_and_grad(o, geom, cfg, want_grad=False)
        return j

    base = net.params.copy()
    idx = rng.choice(net.n_params, size=60, replace=False)
    worst = 0.0
    for i in idx:
        p = base.copy()
        step = 1e-6 * max(1.0, abs(p[i]))
        p[i] = base[i] + step
        jp = loss_at(p)
        p[i] = base[i] - step
        jm = loss_at(p)
        fd = (jp - jm) / (2 * step)
        denom = max(abs(fd), abs(grad[i]), 1e-8)
        worst = max(worst, abs(grad[i] - fd) / denom)
    elapsed = time.time() - t0
    _report(capfd, 1, "gradient correctness",
            worst < 1e-4 and elapsed < 60.0,
            f"max rel err {worst:.3g} over 60 coords in {elapsed:.1f}s")


def test_criterion_2_crlb_oracle_equivalence(cfg, capfd):
    rng = np.random.default_rng(11)
    worst = 0.0
    structure_ok = True
    for _ in range(100):
        s = make_state(rng.uniform(5, 80), rng.uniform(5, 40),
                       rng.uniform(8, 8.25))
        w = (rng.normal(size=cfg.n_tx) + 1j * rng.normal(size=cfg.n_tx)) \
            * rng.uniform(0.05, 1.0)
        info = fisher_information(s, w, cfg)
        f_ref = fd_fim(s, w, cfg)
        worst = max(worst, abs(info.crlb_theta - 1.0 / f_ref[0, 0])
                    / (1.0 / f_ref[0, 0]))
        off_diag = info.f - np.diag(np.diag(info.f))
        structure_ok &= bool(np.all(off_diag == 0.0)
                             and np.all(np.diag(info.f) >= 0.0))
    _report(capfd, 2, "CRLB oracle equivalence",
            worst < 1e-4 and structure_ok,
            f"max rel err {worst:.3g} over 100 instances; "
            f"FIM diagonal/PSD: {structure_ok}")


def test_criterion_3_crlb_orders_of_magnitude(cfg, capfd):
    sq_t, sq_d = [], []
    for p in DEFAULT_POWER_GRID:
        for ax, ay in anchor_points(cfg.n_vehicles):
            s = make_state(ax, ay, 8.0)
            w = math.sqrt(p / cfg.n_vehicles) * steering(s.theta, cfg.n_tx)
            info = fisher_information(s, w, cfg)
            sq_t.append(math.sqrt(info.crlb_theta))
            sq_d.append(math.sqrt(info.crlb_d))
    theta_band = all(1e-3 <= v <= 1e-1 for v in sq_t)
    d_band = all(v <= 1e-2 for v in sq_d)
    below = all(v < math.sqrt(cfg.gamma_theta) for v in sq_t) \
        and all(v < math.sqrt(cfg.gamma_d) for v in sq_d)
    _report(capfd, 3, "CRLB orders of magnitude",
            theta_band and d_band and below,
            f"sqrt crlb_theta in [{min(sq_t):.3g}, {max(sq_t):.3g}] rad "
            f"(band [1e-3, 1e-1]: {theta_band}); "
            f"sqrt crlb_d <= 1e-2: {d_band}; below thresholds: {below}")


def test_criterion_4_crlb_monotonicity(cfg, capfd):
    table = {}
    for n in (16, 32, 64):
        c = cfg.replace(n_tx=n, n_rx=n)
        s = make_state(15.0, 20.0, 8.0)
        for p in DEFAULT_POWER_GRID:
            w = math.sqrt(p / c.n_vehicles) * steering(s.theta, n)
            info = fisher_information(s, w, c)
            table[(n, p)] = (math.sqrt(info.crlb_theta),
                             math.sqrt(info.crlb_d))
    ok = True
    for n in (16, 32, 64):
        vals = [table[(n, p)] for p in DEFAULT_POWER_GRID]
        ok &= all(a[0] >= b[0] and a[1] >= b[1]
                  for a, b in zip(vals, vals[1:]))
    for p in DEFAULT_POWER_GRID:
        vals = [table[(n, p)] for n in (16, 32, 64)]
        ok &= all(a[0] >= b[0] and a[1] >= b[1]
                  for a, b in zip(vals, vals[1:]))
    _report(capfd, 4, "CRLB monotonicity in power and array size", ok,
            "non-increasing along the power grid and for N 16->32->64" if ok
            else "monotonicity violated")


def test_criterion_5_benchmark_ordering(evaluated, capfd):
    floor = float(os.environ.get("ISACBF_ACCEPT_RATE_FLOOR", "0.6"))
    r = {m: evaluated[m].rate_mean for m in evaluated}
    ordered = r["random"] < r["naive_dl"] < r["hcl"] <= r["genie"]
    frac = r["hcl"] / r["genie"]
    _report(capfd, 5, "benchmark ordering",
            ordered and frac >= floor,
            f"rates random={r['random']:.2f} < naive_dl={r['naive_dl']:.2f} "
            f"< hcl={r['hcl']:.2f} <= genie={r['genie']:.2f}; "
            f"hcl/genie={frac:.2f} (floor {floor})")


def test_criterion_6_constraint_satisfaction(evaluated, cfg, capfd):
    s = evaluated["hcl"]
    ok = (s.crlb_theta_mean <= cfg.gamma_theta
          and s.crlb_d_mean <= cfg.gamma_d
          and s.w_power_mean <= 1.05 * cfg.power_budget)
    _report(capfd, 6, "trained-network constraint satisfaction", ok,
            f"mean crlb_theta={s.crlb_theta_mean:.3g} <= {cfg.gamma_theta}, "
            f"mean crlb_d={s.crlb_d_mean:.3g} <= {cfg.gamma_d}, "
            f"mean |W|^2={s.w_power_mean:.3f} <= {1.05 * cfg.power_budget}")


def test_criterion_7_determinism(cfg, capfd, tmp_path):
    small = cfg.replace(n_tx=8, n_rx=8, n_vehicles=2, history_len=3,
                        n_slots=12)
    hashes, traces, csvs = [], [], []
    for run in range(2):
        ds = generate_dataset(small, 12, np.random.default_rng(5))
        hashes.append(ds.sha256())
        _, res = train_naive(ds, small,
                             TrainHyper(lr=1e-4, batch_size=4, max_iters=8,
                                        seed=2))
        traces.append(res.loss_trace)
        rep = monte_carlo_eval(small, ["random", "genie"], 4, seed=9)
        path = str(tmp_path / f"run{run}.csv")
        export(rep.stats, small, path)
        csvs.append(open(path, "rb").read())
    ok = (hashes[0] == hashes[1] and traces[0] == traces[1]
          and csvs[0] == csvs[1])
    _report(capfd, 7, "bit-exact determinism under fixed seeds", ok,
            f"dataset hash match={hashes[0] == hashes[1]}, "
            f"loss trace match={traces[0] == traces[1]}, "
            f"csv bytes match={csvs[0] == csvs[1]}")


def test_criterion_8_shape_contract(cfg, capfd):
    net = HCLNet(cfg)
    net.init_params(np.random.default_rng(0))
    per_vehicle = net.features(np.random.default_rng(1).normal(
        size=(cfg.n_tx, 2)))
    x = np.random.default_rng(2).normal(
        size=(1, cfg.history_len, cfg.n_vehicles, cfg.n_tx, 2))
    o = net.forward(x)
    ok = (per_vehicle.shape == (32,) and net.feat == 96
          and net.hidden == 64
          and o.shape == (1, cfg.n_vehicles, cfg.n_tx, 2))
    _report(capfd, 8, "network shape contract", ok,
            f"cnn flatten={per_vehicle.shape[0]}, concat={net.feat}, "
            f"lstm hidden={net.hidden}, output={o.shape[1:]}")
