import json

import numpy as np
import pytest

from isacbf import harness
from isacbf.harness import (CSV_HEADER, Dataset, EpisodeTrace, MethodStats,
                            export, generate_dataset, monte_carlo_eval,
                            power_sweep, run_episode, train_hcl, train_naive,
                            verify_causality)
from isacbf.baselines import genie_rate
from isacbf.channel import effective_channel, sum_rate
from isacbf.nn.model import HCLNet, NaiveNet
from isacbf.nn.train import TrainHyper
from isacbf.sensing import fisher_information


def _models(small_cfg):
    hcl = HCLNet(small_cfg)
    hcl.init_params(np.random.default_rng(0))
    naive = NaiveNet(small_cfg)
    naive.init_params(np.random.default_rng(0))
    return {"hcl": hcl, "naive_dl": naive}


def test_run_episode_shapes_and_causality(small_cfg):
    models = _models(small_cfg)
    for method in ("random", "hcl", "naive_dl"):
        trace = run_episode(small_cfg, method, np.random.default_rng(1),
                            model=models.get(method))
        assert len(trace) == small_cfg.n_slots
        assert verify_causality(trace)
        # after the first slot every beam was decided exactly one slot earlier
        assert trace.decided_at[0] == -1
        assert all(trace.decided_at[n] == n - 1
                   for n in range(1, small_cfg.n_slots))
        for w in trace.w_applied:
            assert w.shape == (small_cfg.n_tx, small_cfg.n_vehicles)


def test_episode_measurement_matches_per_slot_calls(small_cfg, monkeypatch):
    """One pass after the slot loop measures every slot: each rate equals
    that slot's own genie_rate or sum_rate bit for bit, and its CRLBs that
    slot's fisher_information.  Every other random beam has a zero column
    toward vehicle 1, so infinite CRLBs occur."""
    real_random = harness.random_beamformer
    calls = [0]

    def beams(config, rng):
        w = real_random(config, rng)
        if calls[0] % 2:
            w[:, 1] = 0.0
        calls[0] += 1
        return w

    monkeypatch.setattr(harness, "random_beamformer", beams)
    cfg, models = small_cfg, _models(small_cfg)
    n, k = cfg.n_slots, cfg.n_vehicles
    n_inf = 0
    for method in harness.METHODS:
        trace = run_episode(cfg, method, np.random.default_rng(3),
                            model=models.get(method))
        assert trace.w_applied.shape == (n, cfg.n_tx, k)
        assert trace.decided_at.shape == trace.rates.shape == (n,)
        assert trace.crlb_theta.shape == trace.crlb_d.shape == (n, k)
        for s, (v, w) in enumerate(zip(trace.vehicles.records(),
                                       trace.w_applied)):
            if method == "genie":
                rate = genie_rate(v, cfg)
            else:
                h = effective_channel(v.theta, v.dist, cfg)
                rate = sum_rate(h.T, w, cfg.noise_vehicle)
            assert trace.rates[s] == rate
            info = fisher_information(v, w, cfg)
            np.testing.assert_allclose(trace.crlb_theta[s], info.crlb_theta,
                                       rtol=1e-13)
            np.testing.assert_allclose(trace.crlb_d[s], info.crlb_d,
                                       rtol=1e-13)
        n_inf += np.isinf(trace.crlb_theta).sum()
    assert n_inf > 0


def test_genie_is_exempt_from_causality(small_cfg):
    trace = run_episode(small_cfg, "genie", np.random.default_rng(1))
    assert not verify_causality(trace)
    assert all(dec == n for n, dec in enumerate(trace.decided_at))


def test_run_episode_validation(small_cfg):
    with pytest.raises(ValueError):
        run_episode(small_cfg, "bogus", np.random.default_rng(0))
    with pytest.raises(ValueError):
        run_episode(small_cfg, "hcl", np.random.default_rng(0), model=None)


def test_common_random_numbers_across_methods(small_cfg):
    """The same seed yields identical vehicle trajectories for every method."""
    t_random = run_episode(small_cfg, "random", np.random.default_rng(5))
    t_genie = run_episode(small_cfg, "genie", np.random.default_rng(5))
    for sa, sb in zip(t_random.states, t_genie.states):
        assert all(a == b for a, b in zip(sa, sb))


def test_episode_deterministic(small_cfg):
    t1 = run_episode(small_cfg, "random", np.random.default_rng(9))
    t2 = run_episode(small_cfg, "random", np.random.default_rng(9))
    assert np.allclose(t1.rates, t2.rates)
    for w1, w2 in zip(t1.w_applied, t2.w_applied):
        assert np.array_equal(w1, w2)


def test_generate_dataset(small_cfg):
    rng = np.random.default_rng(0)
    ds = generate_dataset(small_cfg, 20, rng)
    tau, k, m = small_cfg.history_len, small_cfg.n_vehicles, small_cfg.n_tx
    assert len(ds) == 20
    assert ds.x.shape == (20, tau, k, m, 2)
    assert ds.h.shape == (20, k, m)
    assert ds.thetas.shape == ds.dists.shape == (20, k)
    assert np.all(ds.dists > 0) and np.all((ds.thetas > 0) & (ds.thetas < np.pi))
    assert ds.kappa() > 0
    # deterministic under the seed
    ds2 = generate_dataset(small_cfg, 20, np.random.default_rng(0))
    assert ds.sha256() == ds2.sha256()
    with pytest.raises(ValueError):
        generate_dataset(small_cfg, 0, rng)


def test_dataset_save_load_roundtrip(small_cfg, tmp_path):
    ds = generate_dataset(small_cfg, 6, np.random.default_rng(1))
    path = str(tmp_path / "data.bin")
    ds.save(path, small_cfg)
    back = Dataset.load(path)
    assert back.sha256() == ds.sha256()
    geom = back.geometry(small_cfg)
    assert len(geom) == 6


def test_train_entry_points(small_cfg):
    ds = generate_dataset(small_cfg, 10, np.random.default_rng(2))
    hyper = TrainHyper(lr=1e-4, batch_size=100, max_iters=5)
    hcl, res_h = train_hcl(ds, small_cfg, hyper)
    naive, res_n = train_naive(ds, small_cfg, hyper)
    assert len(res_h.loss_trace) == 5 and len(res_n.loss_trace) == 5
    assert hcl.kappa == pytest.approx(ds.kappa())


def test_monte_carlo_eval_ordering(small_cfg):
    report = monte_carlo_eval(small_cfg, ["genie", "random"], 6, seed=0)
    stats = {s.method: s for s in report.stats}
    assert set(stats) == {"genie", "random"}
    assert all(s.n_realizations == 6 for s in report.stats)
    assert stats["genie"].rate_mean > stats["random"].rate_mean
    assert stats["random"].rate_ci > 0
    assert stats["random"].w_power_mean == pytest.approx(
        small_cfg.power_budget, rel=1e-9)


def test_monte_carlo_eval_checks_inputs_first(small_cfg, monkeypatch):
    """An unknown method, a missing model or a realization count < 1 is
    refused before any episode runs."""
    def no_episode(*args, **kwargs):
        raise AssertionError("an episode ran")

    monkeypatch.setattr(harness, "run_episode", no_episode)
    for methods, n in ((["random", "bogus"], 2), (["random", "hcl"], 2),
                       (["random"], 0), (["random"], -3)):
        with pytest.raises(ValueError):
            monte_carlo_eval(small_cfg, methods, n)


def test_method_stats_independent_of_method_order(small_cfg):
    """Each method's result is the same alone or listed after others."""
    models = _models(small_cfg)
    methods = ["random", "naive_dl", "hcl", "genie"]
    together = monte_carlo_eval(small_cfg, methods, 2, models=models, seed=3)
    for stats in together.stats:
        alone = monte_carlo_eval(small_cfg, [stats.method], 2, models=models,
                                 seed=3)
        assert alone.stats == [stats]


def _noisy(cfg):
    """A config whose delay noise (tens of metres) often drives a distance
    estimate below zero."""
    return cfg.replace(rho_nu=2.0)


def _record_observations(monkeypatch):
    real_observe = harness.generate_observation
    seen = []

    def observe(*args, **kwargs):
        seen.append(real_observe(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(harness, "generate_observation", observe)
    return seen


def test_negative_distance_estimate_is_unusable(small_cfg, monkeypatch):
    """A distance estimate <= 0 marks its vehicle unusable: it never reaches
    a dataset row or the naive-DL network."""
    cfg = _noisy(small_cfg)
    obs = _record_observations(monkeypatch)
    real_naive = harness.naive_dl_beamformer
    seen = []

    def naive(theta_hat, d_hat, model, config):
        seen.append(d_hat)
        return real_naive(theta_hat, d_hat, model, config)

    monkeypatch.setattr(harness, "naive_dl_beamformer", naive)
    ds = generate_dataset(cfg, 20, np.random.default_rng(0))
    assert any((ob.d_hat <= 0).any() for ob in obs)
    assert all(np.array_equal(ob.usable, ob.d_hat > 0) for ob in obs)
    assert np.all(ds.est_dists > 0)
    obs.clear()
    run_episode(cfg, "naive_dl", np.random.default_rng(1),
                model=_models(cfg)["naive_dl"])
    n_bad = sum(not ob.usable.all() for ob in obs)
    assert n_bad > 0
    assert len(seen) == cfg.n_slots - n_bad
    assert all((d > 0).all() for d in seen)


def test_power_sweep_reuse_and_retrain(small_cfg):
    grid = [0.5, 2.0]
    rows = power_sweep(small_cfg, grid, ["random"], 3, seed=0)
    assert [r.power for r in rows] == grid
    calls = []

    def train_fn(cfg):
        calls.append(cfg.power_budget)
        return {}

    power_sweep(small_cfg, grid, ["random"], 2, seed=0, train_fn=train_fn)
    assert calls == grid


def test_power_sweep_rates_increase_with_power(small_cfg):
    rows = power_sweep(small_cfg, [0.1, 1.0, 10.0], ["genie"], 4, seed=1)
    rates = [r.rate_mean for r in rows]
    assert rates[0] < rates[1] < rates[2]


def _rows():
    return [MethodStats(method="random", power=1.0, rate_mean=1.25,
                        rate_ci=0.1, crlb_theta_mean=4e-6, crlb_d_mean=9e-6,
                        n_realizations=3, w_power_mean=1.0)]


def test_export_csv(small_cfg, tmp_path):
    path = str(tmp_path / "out.csv")
    export(_rows(), small_cfg, path, fmt="csv")
    lines = open(path).read().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    assert any("n_tx=8" in c for c in comments)
    assert CSV_HEADER in lines
    body = lines[lines.index(CSV_HEADER) + 1:]
    assert body == ["random,1,1.25,0.1,0.002,0.003,3"]


def test_export_json_and_errors(small_cfg, tmp_path):
    path = str(tmp_path / "out.json")
    export(_rows(), small_cfg, path, fmt="json")
    doc = json.load(open(path))
    assert doc["config"]["n_tx"] == 8
    assert doc["rows"][0]["method"] == "random"
    assert doc["rows"][0]["crlb_theta_sqrt"] == pytest.approx(2e-3)
    with pytest.raises(ValueError):
        export(_rows(), small_cfg, str(tmp_path / "x.bin"), fmt="xml")
    with pytest.raises(OSError):
        export(_rows(), small_cfg, str(tmp_path / "no_dir" / "x.csv"))


def test_method_stats_sqrt_properties():
    s = _rows()[0]
    assert s.crlb_theta_sqrt == pytest.approx(2e-3)
    assert s.crlb_d_sqrt == pytest.approx(3e-3)
    d = s.as_dict()
    assert d["P"] == 1.0 and d["n"] == 3


def test_estimated_channel_falls_back_to_previous(small_cfg):
    """Each slot shifts the [tau, K, M] history by one row; a usable vehicle's
    new row is the channel from its estimates, an unusable one repeats its
    previous row (zeros before the first slot)."""
    cfg = _noisy(small_cfg)
    prev = np.zeros((cfg.history_len, cfg.n_vehicles, cfg.n_tx), dtype=complex)
    n_carried = 0
    for _, _, _, ob, hist in harness._slots(
            cfg, "random", np.random.default_rng(2), None, "relative", False):
        assert np.array_equal(hist[:-1], prev[1:])
        for k in range(cfg.n_vehicles):
            if ob.usable[k]:
                assert np.allclose(hist[-1, k], effective_channel(
                    ob.theta_hat[k], ob.d_hat[k], cfg), rtol=1e-14, atol=0)
            else:
                assert np.array_equal(hist[-1, k], prev[-1, k])
                n_carried += 1
        prev = hist
    assert n_carried > 0


def test_zero_beam_keeps_streams_aligned(small_cfg, monkeypatch):
    """Observation noise is drawn for every vehicle in every slot and masked
    afterwards.  Vehicle 1's beam is zero from slot 4 on: it is unusable,
    its CRLBs are infinite and its history row is carried forward, while the
    other vehicle's estimates and all trajectories equal those of the same
    seed with aimed beams."""
    real_random = harness.random_beamformer
    zero_from = 4

    def patch_beams(start):
        calls = [0]       # call n decides slot n's beams

        def beams(config, rng):
            w = real_random(config, rng)
            if calls[0] >= start:
                w[:, 1] = 0.0
            calls[0] += 1
            return w

        monkeypatch.setattr(harness, "random_beamformer", beams)

    def slots(start):
        patch_beams(start)
        return list(harness._slots(small_cfg, "random",
                                   np.random.default_rng(4), None, "relative",
                                   False))

    aimed, zeroed = slots(small_cfg.n_slots), slots(zero_from)
    patch_beams(zero_from)
    trace = run_episode(small_cfg, "random", np.random.default_rng(4))
    held = zeroed[zero_from - 1][4][-1, 1]
    assert np.any(held != 0)
    for n, ((va, _, _, oa, _), (vz, _, _, oz, hz)) in enumerate(
            zip(aimed, zeroed)):
        assert va.records() == vz.records()
        assert oa.theta_hat[0] == oz.theta_hat[0]
        assert oa.d_hat[0] == oz.d_hat[0]
        unusable = n >= zero_from
        assert oz.usable[1] != unusable
        assert np.isinf(trace.crlb_theta[n][1]) == unusable
        assert np.isinf(trace.crlb_d[n][1]) == unusable
        if unusable:
            assert np.array_equal(hz[-1, 1], held)
    assert trace.states == run_episode(small_cfg, "genie",
                                       np.random.default_rng(4)).states
