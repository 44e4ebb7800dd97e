"""Each correctness check passes on the program's output and rejects a
corrupted copy of it.  Small geometry, so the file runs in seconds:

  python3 -m pytest isacbench -q
"""
import copy
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from isacbf import harness, sensing  # noqa: E402
from isacbf.config import SimConfig  # noqa: E402
from isacbf.nn import kernels, loss  # noqa: E402
from isacbf.nn.model import HCLNet, NaiveNet  # noqa: E402

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from workloads import fd_gradient, fd_tolerances  # noqa: E402

CFG = SimConfig(n_tx=8, n_rx=8, n_vehicles=2, history_len=3, n_slots=12)


@pytest.fixture(scope="module")
def dataset():
    return harness.generate_dataset(CFG, 12, np.random.default_rng(3))


@pytest.fixture(scope="module")
def models():
    hcl = HCLNet(CFG)
    hcl.init_params(np.random.default_rng(0))
    naive = NaiveNet(CFG)
    naive.init_params(np.random.default_rng(1))
    return {"hcl": hcl, "naive_dl": naive}


@pytest.fixture(scope="module")
def episodes(models):
    out = {}
    for method in ("genie", "random", "naive_dl", "hcl"):
        seq = np.random.SeedSequence(11).spawn(1)[0]
        out[method] = harness.run_episode(CFG, method,
                                          np.random.default_rng(seq),
                                          model=models.get(method))
    return out


# ---- train ----------------------------------------------------------------------

@pytest.mark.parametrize("arch", ["hcl", "naive"])
def test_gradient_check_rejects_perturbed_entry(dataset, arch):
    geom = dataset.geometry(CFG)
    if arch == "hcl":
        net, x = HCLNet(CFG, kappa=dataset.kappa()), dataset.x
    else:
        net = NaiveNet(CFG)
        x = net.features(dataset.est_thetas, dataset.est_dists)
    net.init_params(np.random.default_rng(7))
    coords = np.random.default_rng(8).choice(net.n_params, 10, replace=False)
    j, _, grad = loss.gradient(net, x, geom, CFG)
    fd = fd_gradient(net, x, geom, CFG, coords)
    atol = fd_tolerances(j)
    checks.check_gradient(grad, fd, coords, atol)
    bad = grad.copy()
    worst = coords[np.argmax(np.abs(grad[coords]))]
    assert abs(grad[worst]) > 1e4 * max(atol)
    bad[worst] *= 1.01
    with pytest.raises(CheckFailed, match="gradient"):
        checks.check_gradient(bad, fd, coords, atol)


def test_conv_check_rejects_perturbed_output():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 4, 2, 2))
    w = rng.normal(size=(4, 3, 3, 2))
    b = rng.normal(size=4)
    y = kernels.conv2d3x3_same_fwd(x, w, b)
    checks.check_conv(x, w, b, y)
    y[2, 1, 1, 3] += 1e-6
    with pytest.raises(CheckFailed, match="conv"):
        checks.check_conv(x, w, b, y)


def test_pool_check_rejects_wrong_value_and_index():
    rng = np.random.default_rng(1)
    x = np.maximum(rng.normal(size=(5, 4, 8, 4)), 0.0)   # ReLU'd: many ties
    out, idx = kernels.maxpool2x2_fwd(x)
    checks.check_pool(x, out, idx)
    bad = out.copy()
    bad[0, 0, 0, 0] += 1e-9
    with pytest.raises(CheckFailed, match="value"):
        checks.check_pool(x, bad, idx)
    bad_idx = idx.copy()
    bad_idx[1, 1, 2, 0] = (bad_idx[1, 1, 2, 0] + 1) % 4
    with pytest.raises(CheckFailed, match="index"):
        checks.check_pool(x, out, bad_idx)


def test_loss_check_rejects_nan_and_no_progress():
    good = list(np.linspace(-1.0, -5.0, 30))
    checks.check_losses(good, "hcl")
    with pytest.raises(CheckFailed, match="non-finite"):
        checks.check_losses(good[:10] + [math.nan] + good[11:], "hcl")
    with pytest.raises(CheckFailed, match="not below"):
        checks.check_losses(good[::-1], "hcl")


# ---- eval -----------------------------------------------------------------------

def test_episode_check_accepts_program_output(episodes):
    for method, trace in episodes.items():
        checks.check_episode(trace, method, CFG, sensing.echo_mean)
    checks.check_common_trajectories(episodes)


@pytest.mark.parametrize("method", ["random", "genie", "hcl"])
def test_episode_check_rejects_perturbed_rate(episodes, method):
    trace = copy.deepcopy(episodes[method])
    trace.rates[7] *= 1.0 + 1e-6
    with pytest.raises(CheckFailed, match="rate"):
        checks.check_episode(trace, method, CFG, sensing.echo_mean)


def test_episode_check_rejects_crlb_off_by_1e3(episodes):
    trace = copy.deepcopy(episodes["naive_dl"])
    trace.crlb_theta[4][1] *= 1.0 + 1e-3
    with pytest.raises(CheckFailed, match="CRLB_theta"):
        checks.check_episode(trace, "naive_dl", CFG, sensing.echo_mean)


def test_episode_check_rejects_acausal_beam(episodes):
    trace = copy.deepcopy(episodes["hcl"])
    trace.decided_at[9] = 9
    with pytest.raises(CheckFailed, match="decided at slot 9"):
        checks.check_episode(trace, "hcl", CFG, sensing.echo_mean)


def test_trajectory_check_rejects_swapped_vehicle(episodes):
    traces = copy.deepcopy(episodes)
    # the random method's vehicles 0 and 1 trade trajectories
    traces["random"].states = [[st[1], st[0]]
                               for st in traces["random"].states]
    with pytest.raises(CheckFailed, match="trajectories"):
        checks.check_common_trajectories(traces)


def test_stats_check_rejects_non_finite(models):
    report = harness.monte_carlo_eval(CFG, ["random"], 2, seed=3)
    checks.check_stats_finite(report.stats)
    bad = dataclasses.replace(report.stats[0], crlb_d_mean=math.inf)
    with pytest.raises(CheckFailed, match="crlb_d_mean"):
        checks.check_stats_finite([bad])


# ---- gen-data -------------------------------------------------------------------

def test_dataset_check_rejects_wrong_channel_and_window(dataset):
    checks.check_dataset(dataset, CFG)
    bad = copy.deepcopy(dataset)
    bad.h[3, 1, 5] *= 1.0 + 1e-9
    with pytest.raises(CheckFailed, match="dataset h"):
        checks.check_dataset(bad, CFG)
    bad = copy.deepcopy(dataset)
    bad.x[2, -1, 0, 4, 1] += 1e-3 * abs(bad.x[2, -1, 0, 4, 1])
    with pytest.raises(CheckFailed, match="dataset window"):
        checks.check_dataset(bad, CFG)
    bad = copy.deepcopy(dataset)
    bad.h[0, 0, 0] = complex(math.nan, 0.0)
    with pytest.raises(CheckFailed, match="dataset h"):
        checks.check_dataset(bad, CFG)


def test_dataset_check_follows_carry_forward(dataset):
    # a distance estimate <= 0 is dropped and the previous channel kept
    carried = copy.deepcopy(dataset)
    carried.est_dists[5, 1] = -40.0
    carried.x[5, -1, 1] = carried.x[5, -2, 1]
    checks.check_dataset(carried, CFG)
    bad = copy.deepcopy(dataset)
    bad.est_dists[5, 1] = -40.0
    with pytest.raises(CheckFailed, match="previous slot"):
        checks.check_dataset(bad, CFG)


def test_roundtrip_check_rejects_flipped_byte(dataset, tmp_path):
    path = tmp_path / "data.bin"
    dataset.save(str(path), CFG)
    checks.check_roundtrip(dataset, harness.Dataset.load(str(path)))
    raw = bytearray(path.read_bytes())
    raw[-100] ^= 0x01                       # inside the last array's payload
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckFailed, match="round trip"):
        checks.check_roundtrip(dataset, harness.Dataset.load(str(path)))
