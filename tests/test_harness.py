import json
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (shift_history, slot_loop_dataset, slot_loop_decide,
                     slot_loop_episode)
from isacbf import baselines, channel, harness, sensing
from isacbf.harness import (CSV_HEADER, Dataset, EpisodeTrace, MethodStats,
                            export, generate_dataset, monte_carlo_eval,
                            power_sweep, run_episode, train_hcl, train_naive)
from isacbf.baselines import aimed_beams, genie_rate, random_beamformer
from isacbf.channel import effective_channel, steering, sum_rate
from isacbf.kinematics import VehicleState
from isacbf.nn.model import HCLNet, NaiveNet
from isacbf.nn.train import TrainHyper
from isacbf.sensing import FisherInfo, fisher_information


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
        # every applied W was decided strictly before its slot
        assert (trace.decided_at < np.arange(len(trace))).all()
        # after the first slot every beam was decided exactly one slot earlier
        assert trace.decided_at[0] == -1
        assert all(trace.decided_at[n] == n - 1
                   for n in range(1, small_cfg.n_slots))
        for w in trace.w_applied:
            assert w.shape == (small_cfg.n_tx, small_cfg.n_vehicles)


def test_episode_measurement_matches_per_slot_calls(small_cfg, monkeypatch):
    """One pass after the slot loop measures every slot: each rate equals
    that slot's own genie_rate or sum_rate bit for bit, and its CRLBs that
    slot's fisher_information.  Every other random beam has a zero row
    toward vehicle 1, so infinite CRLBs occur."""
    real_aimed = harness.aimed_beams

    def beams(angles, config):
        w = real_aimed(angles, config)
        if w.shape[:2] == (1, config.n_slots):   # a random episode's beams
            w[:, 1::2, 1] = 0.0
        return w

    monkeypatch.setattr(harness, "aimed_beams", beams)
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
                                       trace.w_applied.swapaxes(1, 2))):
            if method == "genie":
                rate = genie_rate(v, cfg)
            else:
                h = effective_channel(v.theta, v.dist, cfg)
                rate = sum_rate(h, w, cfg.noise_vehicle)
            assert trace.rates[s] == rate
            info = fisher_information(v, w, cfg)
            np.testing.assert_allclose(trace.crlb_theta[s], info.crlb_theta,
                                       rtol=1e-13)
            np.testing.assert_allclose(trace.crlb_d[s], info.crlb_d,
                                       rtol=1e-13)
        n_inf += np.isinf(trace.crlb_theta).sum()
    assert n_inf > 0


@pytest.mark.parametrize("method", ["genie", "random"])
def test_exogenous_episode_matches_slot_loop(small_cfg, cfg, method):
    """A genie or random episode, drawn as [n_slots, K] blocks, equals the
    one-slot-at-a-time loop: trajectories, beams and rates bit for bit,
    CRLBs to 1e-13."""
    for config in (small_cfg, cfg):
        for seed in range(3):
            trace = run_episode(config, method, np.random.default_rng(seed))
            vehicles, w, rates, crlb_theta, crlb_d = slot_loop_episode(
                config, method, np.random.default_rng(seed))
            assert trace.states == [v.records() for v in vehicles]
            assert np.array_equal(trace.w_applied.swapaxes(1, 2),
                                  np.stack(w))
            assert np.array_equal(trace.rates, np.array(rates))
            np.testing.assert_allclose(trace.crlb_theta, np.stack(crlb_theta),
                                       rtol=1e-13)
            np.testing.assert_allclose(trace.crlb_d, np.stack(crlb_d),
                                       rtol=1e-13)


def _zero_vehicle_1(models, config):
    """The models with the output units of vehicle 1's beam set to zero, so
    every beam they decide leaves vehicle 1 unobservable."""
    span = slice(2 * config.n_tx, 4 * config.n_tx)
    for net, w, b in ((models["hcl"], "fc_w", "fc_b"),
                      (models["naive_dl"], "w3", "b3")):
        net.view(w)[:, span] = 0.0
        net.view(b)[span] = 0.0
    return models


def _overshooting(net, config):
    """net with its output-layer weights scaled 10x, so that its beams
    overshoot the power budget.  An HCL-Net also gets the input scale of
    a dataset, without which its beams are near zero."""
    if isinstance(net, HCLNet):
        net.kappa = generate_dataset(config, 20,
                                     np.random.default_rng(0)).kappa()
    net.view("fc_w" if isinstance(net, HCLNet) else "w3")[:] *= 10.0
    return net


@pytest.mark.parametrize("method", ["hcl", "naive_dl"])
def test_projected_episode_keeps_the_power_budget(small_cfg, method):
    """An hcl or naive_dl net whose output layer overshoots the budget
    applies beams above it, and none with project."""
    model = _overshooting(_models(small_cfg)[method], small_cfg)
    budget = small_cfg.power_budget
    for seed in range(3):
        power = {}
        for project in (False, True):
            trace = run_episode(small_cfg, method, np.random.default_rng(seed),
                                model=model, project=project)
            power[project] = np.sum(np.abs(trace.w_applied) ** 2,
                                    axis=(1, 2))
        assert power[False].max() > 2.0 * budget
        assert power[True].max() <= budget * (1 + 1e-12)


@pytest.mark.parametrize("method", ["hcl", "naive_dl"])
@pytest.mark.parametrize("theta_mode", ["relative", "crlb"])
@pytest.mark.parametrize("project", [False, True])
def test_causal_episode_matches_slot_loop(small_cfg, cfg, method, theta_mode,
                                          project):
    """An hcl or naive_dl episode, with one noise block and one steering
    evaluation per episode and HCL-Net decisions from its incremental
    stream, applies the beams of the one-slot-at-a-time loop (a noise draw
    per slot, a whole history shifted and predicted from) bit for bit.  On
    the noisy config distance estimates go negative; on the zeroed one the
    nets aim no energy at vehicle 1, so it is unusable and its row is
    carried forward."""
    cases = {"small": (small_cfg, _models(small_cfg)),
             "default": (cfg, _models(cfg)),
             "noisy": (_noisy(small_cfg), _models(small_cfg)),
             "zeroed": (small_cfg, _zero_vehicle_1(_models(small_cfg),
                                                   small_cfg))}
    unusable = {}
    for name, (config, models) in cases.items():
        config = config.replace(theta_mode=theta_mode)
        model = models[method]
        if project:
            _overshooting(model, config)   # so that projection binds
        unusable[name] = 0
        for seed in range(3):
            trace = run_episode(config, method, np.random.default_rng(seed),
                                model=model, project=project)
            w, obs = slot_loop_decide(config, method, model,
                                      np.random.default_rng(seed), project)
            assert np.array_equal(trace.w_applied.swapaxes(1, 2), w), \
                (name, seed)
            unusable[name] += sum(not ob.usable.all() for ob in obs)
    assert unusable["noisy"] > 0 and unusable["zeroed"] > 0


def test_episode_evaluates_true_steering_once(small_cfg, monkeypatch):
    """Every episode evaluates the steering vectors of its true angles once,
    as one [1, n_slots, K] block that the beams, the observations, the
    rates and the CRLBs share; no call takes one slot's true angles."""
    real_steering = channel.steering
    angles = []

    def steering(theta, n_ant):
        angles.append(np.array(theta))
        return real_steering(theta, n_ant)

    for module in (harness, channel, sensing, baselines):
        monkeypatch.setattr(module, "steering", steering)
    models = _models(small_cfg)
    for method in harness.METHODS:
        angles.clear()
        trace = run_episode(small_cfg, method, np.random.default_rng(0),
                            model=models.get(method))
        true = trace.vehicles.theta
        assert sum(np.array_equal(t, true[None]) for t in angles) == 1, method
        assert not any(np.array_equal(np.reshape(t, -1), row)
                       for t in angles for row in true)


def test_exogenous_methods_observe_nothing(small_cfg, monkeypatch):
    """No genie or random beam depends on an observation, so their episodes
    make none; the causal methods observe every slot but the last."""
    seen = _record_observations(monkeypatch)
    models = _models(small_cfg)
    for method in harness.METHODS:
        seen.clear()
        run_episode(small_cfg, method, np.random.default_rng(0),
                    model=models.get(method))
        causal = method in ("hcl", "naive_dl")
        assert len(seen) == (small_cfg.n_slots - 1 if causal else 0)


def test_naive_dl_falls_back_to_its_slots_random_row(small_cfg, monkeypatch):
    """A naive-DL slot whose previous observation is incomplete applies the
    row of the episode's random-beam block for that slot; every other slot
    after the first applies the network's beams."""
    cfg = _noisy(small_cfg)
    obs = _record_observations(monkeypatch)
    seed = 1
    trace = run_episode(cfg, "naive_dl", np.random.default_rng(seed),
                        model=_models(cfg)["naive_dl"])
    rng_beam = np.random.default_rng(seed).spawn(3)[2]
    block = random_beamformer(cfg, rng_beam, cfg.n_slots)
    fallback = [True] + [not ob.usable.all() for ob in obs]
    assert 0 < sum(fallback[1:]) < cfg.n_slots - 1
    for n, w in enumerate(trace.w_applied.swapaxes(1, 2)):
        assert np.array_equal(w, block[n]) == fallback[n]


def test_genie_is_exempt_from_causality(small_cfg):
    trace = run_episode(small_cfg, "genie", np.random.default_rng(1))
    assert not (trace.decided_at < np.arange(len(trace))).all()
    assert all(dec == n for n, dec in enumerate(trace.decided_at))


def test_run_episode_validation(small_cfg):
    with pytest.raises(ValueError):
        run_episode(small_cfg, "bogus", np.random.default_rng(0))
    with pytest.raises(ValueError):
        run_episode(small_cfg, "hcl", np.random.default_rng(0), model=None)


@pytest.mark.parametrize("method", ["hcl", "naive_dl"])
def test_non_finite_beams_are_error(small_cfg, method):
    """A model with NaN parameters decides NaN beams: run_episode raises a
    ValueError naming the method and the first slot that applies one, the
    slot the one-slot-at-a-time loop gives."""
    model = _models(small_cfg)[method]
    model.params[:] = np.nan
    with np.errstate(invalid="ignore"):
        w, _ = slot_loop_decide(small_cfg, method, model,
                                np.random.default_rng(3))
        slot = int(np.isfinite(w).all(axis=(1, 2)).argmin())
        assert slot > 0
        with pytest.raises(ValueError,
                           match=f"^{method}: .* slot {slot} are not finite"):
            run_episode(small_cfg, method, np.random.default_rng(3),
                        model=model)


def test_overflowing_beams_are_error(small_cfg):
    """An HCL-Net with every parameter 1e300 decides finite beams whose
    power overflows: the first decision is a ValueError naming the method,
    the slot and, in an eval of several realizations, the realization, and
    no RuntimeWarning (an error under the test settings) comes before it."""
    net = HCLNet(small_cfg)
    net.params[:] = 1e300
    tau = small_cfg.history_len
    with np.errstate(over="ignore"):
        beams = net.predict(np.ones((tau, small_cfg.n_vehicles,
                                     small_cfg.n_tx), dtype=complex))
    assert np.isfinite(beams).all() and np.abs(beams).max() > 1e300
    with pytest.raises(ValueError, match=f"^hcl: the beams applied in slot "
                       f"{tau} have a power that overflows$"):
        run_episode(small_cfg, "hcl", np.random.default_rng(0), model=net)
    with pytest.raises(ValueError, match=f"^hcl: .* slot {tau} of "
                       f"realization 0 have a power"):
        monte_carlo_eval(small_cfg, ["hcl"], 3, models={"hcl": net})


def test_only_infinite_crlbs_are_left_out(small_cfg, monkeypatch):
    """An episode's mean CRLBs leave out the infinite ones of unobservable
    vehicles, never a NaN, and leave another episode of its block as it is;
    a NaN rate or CRLB in any realization is a ValueError naming the method
    and the realization, not a NaN mean."""
    n, k, tau = small_cfg.n_slots, small_cfg.n_vehicles, 2
    crlb = np.full((2, n, k), 4.0)
    crlb[0, tau, 0] = np.inf

    def summaries():
        return harness._summaries(
            np.ones((2, n, k, 1)), np.ones((2, n)),
            FisherInfo(crlb_theta=crlb, crlb_d=np.full((2, n, k), np.inf)),
            tau).T.tolist()

    assert summaries() == [[1.0, 4.0, np.inf, k]] * 2
    crlb[0, tau, 1] = np.nan
    first, second = summaries()
    assert np.isnan(first[1]) and second == [1.0, 4.0, np.inf, k]
    real_fisher = harness.fisher_information

    def fisher(vehicles, w, config, *terms):
        info = real_fisher(vehicles, w, config, *terms)
        info.crlb_d[..., -1, 0] = np.nan
        return info

    monkeypatch.setattr(harness, "fisher_information", fisher)
    with pytest.raises(ValueError,
                       match="^random: realization 0 measured a NaN"):
        monte_carlo_eval(small_cfg, ["random"], 70)


def _recording_blocks(monkeypatch):
    """The list that receives, as one EpisodeTrace per realization in
    realization order, every block that monte_carlo_eval runs: its
    scenario's trajectories and the method's beams, rates and CRLBs."""
    real_run_block = harness._run_block
    traces = []

    def run_block(config, method, scenario, *args):
        w, rates, info = out = real_run_block(config, method, scenario, *args)
        for e in range(len(rates)):
            traces.append(EpisodeTrace(
                vehicles=VehicleState(*(f[e] for f in vars(
                    scenario.vehicles).values())),
                w_applied=w[e].swapaxes(-1, -2), decided_at=None,
                rates=rates[e], crlb_theta=info.crlb_theta[e],
                crlb_d=info.crlb_d[e]))
        return out

    monkeypatch.setattr(harness, "_run_block", run_block)
    return traces


def _episode_means(trace, tau):
    """The mean rate, CRLBs and beam power of an episode's slots from tau
    on, one 1-D mean each, the CRLB means without the infinite ones."""
    ct, cd = trace.crlb_theta[tau:], trace.crlb_d[tau:]
    ct, cd = ct[ct != np.inf], cd[cd != np.inf]
    return (float(trace.rates[tau:].mean()),
            float(ct.mean()) if ct.size else np.inf,
            float(cd.mean()) if cd.size else np.inf,
            float((np.abs(trace.w_applied[tau:]) ** 2).sum(axis=(1, 2)).mean()))


@pytest.mark.parametrize("theta_mode", ["relative", "crlb"])
@pytest.mark.parametrize("project", [False, True])
def test_one_realization_eval_is_run_episode(small_cfg, theta_mode, project):
    """monte_carlo_eval of one realization reports, bit for bit, the 1-D
    means of run_episode on the realization's child seed, for every
    method."""
    cfg = _noisy(small_cfg).replace(theta_mode=theta_mode)
    models = {m: _overshooting(net, cfg) if project else net
              for m, net in _models(cfg).items()}
    for method in harness.METHODS:
        for seed in range(3):
            row = monte_carlo_eval(cfg, [method], 1, models=models,
                                   seed=seed, project=project).stats[0]
            child = np.random.SeedSequence(seed).spawn(1)[0]
            trace = run_episode(cfg, method, np.random.default_rng(child),
                                model=models.get(method), project=project)
            rate, crlb_theta, crlb_d, power = _episode_means(
                trace, cfg.history_len)
            assert row == MethodStats(
                method=method, power=cfg.power_budget, rate_mean=rate,
                rate_ci=0.0, crlb_theta_mean=crlb_theta,
                crlb_d_mean=crlb_d, n_realizations=1,
                w_power_mean=power), (method, seed)


@pytest.mark.parametrize("theta_mode", ["relative", "crlb"])
@pytest.mark.parametrize("project", [False, True])
def test_lockstep_blocks_match_run_episode(small_cfg, monkeypatch,
                                           theta_mode, project):
    """70 realizations run as a 64-realization block and a 6-realization
    block.  Each realization's trajectory equals its run_episode's on its
    child seed, the same for every method; genie and random traces equal
    it bit for bit, and hcl and naive_dl rates and CRLBs to rtol 1e-9 (the
    networks' GEMMs take other shapes).  Distance estimates go negative,
    so naive_dl decides in only some episodes of a slot."""
    cfg = _noisy(small_cfg).replace(theta_mode=theta_mode)
    models = {m: _overshooting(net, cfg) if project else net
              for m, net in _models(cfg).items()}
    n_real = 70
    assert n_real > harness._BLOCK_EPISODES
    traces = _recording_blocks(monkeypatch)
    seen = _record_observations(monkeypatch)
    trajectories = None
    for method in harness.METHODS:
        # fresh children: an episode spawns from its child, advancing it
        children = np.random.SeedSequence(5).spawn(n_real)
        traces.clear()
        monte_carlo_eval(cfg, [method], n_real, models=models, seed=5,
                         project=project)
        # the run_episode calls below record their blocks of one too
        evaluated = list(traces)
        assert len(evaluated) == n_real
        if trajectories is None:
            trajectories = [t.vehicles for t in evaluated]
        for r, (trace, child) in enumerate(zip(evaluated, children)):
            assert vars(trace.vehicles).keys() == vars(trajectories[r]).keys()
            for f, g in zip(vars(trace.vehicles).values(),
                            vars(trajectories[r]).values()):
                assert np.array_equal(f, g)
            alone = run_episode(cfg, method, np.random.default_rng(child),
                                model=models.get(method), project=project)
            assert trace.states == alone.states
            if method in ("genie", "random"):
                for name in ("w_applied", "rates", "crlb_theta", "crlb_d"):
                    assert getattr(trace, name).tobytes() \
                        == getattr(alone, name).tobytes(), (method, r, name)
                continue
            np.testing.assert_allclose(trace.rates, alone.rates, rtol=1e-9)
            np.testing.assert_allclose(trace.crlb_theta, alone.crlb_theta,
                                       rtol=1e-9)
            np.testing.assert_allclose(trace.crlb_d, alone.crlb_d,
                                       rtol=1e-9)
            np.testing.assert_allclose(trace.w_applied, alone.w_applied,
                                       rtol=1e-9, atol=1e-12)
    # among the block's slot observations, some episodes were complete and
    # some not, so naive_dl decided for only a subset
    complete = [ob.usable.all(axis=-1) for ob in seen if ob.usable.ndim == 2]
    assert any(c.any() and not c.all() for c in complete)


class _BlockBeams:
    """A stand-in HCL model for blocks of episodes: its stream records the
    [R, K, M] rows pushed into it and returns the same beams for every
    episode, except that episode `episode`'s row toward vehicle 1 is zero
    for the slots from zero_from on."""

    def __init__(self, config, episode=None, zero_from=None):
        self.w = random_beamformer(config, np.random.default_rng(11))
        self.tau = config.history_len
        self.episode, self.zero_from = episode, zero_from
        self.rows = []

    def stream(self, lead=()):
        assert len(lead) == 1
        slot = self.tau   # the slot the next decision is for

        def push(rows):
            nonlocal slot
            self.rows.append(rows.copy())
            if len(self.rows) < self.tau:
                return None
            w = np.repeat(self.w[None], lead[0], axis=0)
            if self.zero_from is not None and slot >= self.zero_from:
                w[self.episode, 1] = 0.0
            slot += 1
            return w

        return SimpleNamespace(push=push)


def test_unusable_vehicle_carries_its_own_row(small_cfg):
    """In a block of 4 episodes, vehicle 1 of episode 2 gets no beam energy
    from slot 6 on: its row is then held at its slot-5 estimate, while every
    other row of every episode equals that of a block whose beams all aim
    at every vehicle."""
    zero_from, episode, n_real = 6, 2, 4
    aimed, zeroed = (_BlockBeams(small_cfg),
                     _BlockBeams(small_cfg, episode, zero_from))
    for model in (aimed, zeroed):
        monte_carlo_eval(small_cfg, ["hcl"], n_real, models={"hcl": model},
                         seed=4)
    # row s of a stream holds slot s's estimates, pushed after slot s
    a, z = np.stack(aimed.rows), np.stack(zeroed.rows)
    assert a.shape == (small_cfg.n_slots - 1, n_real, small_cfg.n_vehicles,
                       small_cfg.n_tx)
    held = z[zero_from - 1, episode, 1]
    assert np.any(held != 0) and np.array_equal(held, a[zero_from - 1,
                                                        episode, 1])
    for s in range(zero_from, len(z)):
        assert np.array_equal(z[s, episode, 1], held), s
        assert not np.array_equal(a[s, episode, 1], held), s
    other = np.ones(z.shape[1:3], dtype=bool)
    other[episode, 1] = False
    assert np.array_equal(z[:, other], a[:, other])


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
    # no slot of an episode no longer than its window yields an example
    with pytest.raises(ValueError, match="n_slots"):
        generate_dataset(small_cfg.replace(n_slots=3), 4, rng)


def test_dataset_matches_slot_loop(small_cfg, monkeypatch):
    """generate_dataset, one observation call and one estimate array per
    block of episodes, picks the examples of the one-slot-at-a-time loop,
    with values to 1e-13, and leaves the caller's generator where the loop
    leaves it: its next draw and its next spawned child's draw are equal.
    In both theta modes, on the small config and on one where many
    vehicles are unusable and carry their previous estimate forward, the
    sizes take one example, one block, two or more blocks, and more
    episodes than a block holds."""
    blocks = _record_observations(monkeypatch, "generate_observation")
    n_blocks = set()
    cap = harness._BLOCK_EPISODES
    for mode in ("relative", "crlb"):
        for config in (small_cfg, _noisy(small_cfg)):
            config = config.replace(theta_mode=mode)
            per_episode = config.n_slots - config.history_len
            for n_examples in (1, 20, 3 * per_episode, cap * per_episode + 1):
                blocks.clear()
                rng, ref_rng = (np.random.default_rng(6) for _ in range(2))
                ds = generate_dataset(config, n_examples, rng)
                ref = slot_loop_dataset(config, n_examples, ref_rng)
                assert np.array_equal(ds.thetas, ref["thetas"])
                assert np.array_equal(ds.dists, ref["dists"])
                for name, value in ref.items():
                    np.testing.assert_allclose(getattr(ds, name), value,
                                               rtol=1e-13, atol=0)
                assert rng.integers(1 << 62) == ref_rng.integers(1 << 62)
                assert rng.spawn(1)[0].integers(1 << 62) \
                    == ref_rng.spawn(1)[0].integers(1 << 62)
                sizes = [ob.usable.shape[0] for ob in blocks]
                assert max(sizes) <= cap
                n_blocks.add(min(len(sizes), 3))
                if n_examples > cap * per_episode:
                    assert sizes[0] == cap
    assert n_blocks == {1, 2, 3}


def test_dataset_save_load_roundtrip(small_cfg, tmp_path):
    ds = generate_dataset(small_cfg, 6, np.random.default_rng(1))
    path = str(tmp_path / "data.bin")
    ds.save(path, small_cfg)
    back = Dataset.load(path)
    assert back.sha256() == ds.sha256()
    geom = back.geometry(small_cfg)
    assert len(geom) == 6


@pytest.mark.parametrize("n_examples", [12, 600, 3000])
def test_dataset_stores_each_row_once(cfg, tmp_path, monkeypatch, n_examples):
    """A dataset holds each slot's estimated channels once, as rows, and its
    windows as indices into them; x, built on read, survives a save and a
    load, and reading it changes neither sha256 nor the saved bytes.  3000
    examples take two blocks of episodes at the default config."""
    blocks = _record_observations(monkeypatch, "generate_observation")
    rng = np.random.default_rng(n_examples)
    ds = generate_dataset(cfg, n_examples, rng)
    n, tau = cfg.n_slots, cfg.history_len
    episodes = rng.bit_generator.seed_seq.n_children_spawned
    assert len(blocks) == (2 if n_examples == 3000 else 1)
    assert ds.windows.shape == (n_examples, tau)
    assert ds.windows.dtype == np.int64
    assert ds.rows.shape[1:] == (cfg.n_vehicles, cfg.n_tx, 2)
    # no more rows than the episodes observed, with tau leading rows each
    assert len(ds.rows) <= episodes * (n - 1 + tau)
    # every vehicle is usable at the default config, so each episode yields
    # its n - tau examples in slot order
    assert all(ob.usable.all() for ob in blocks)
    per_episode = n - tau
    for i in range(n_examples - 1):
        if (i + 1) % per_episode:
            assert np.array_equal(ds.windows[i, 1:], ds.windows[i + 1, :-1])

    first, second = tmp_path / "first.bin", tmp_path / "second.bin"
    digest = ds.sha256()
    ds.save(str(first), cfg)
    x = ds.x
    assert x.shape == (n_examples, tau, cfg.n_vehicles, cfg.n_tx, 2)
    assert ds.x is x                    # built once
    assert ds.sha256() == digest
    ds.save(str(second), cfg)
    assert first.read_bytes() == second.read_bytes()
    back = Dataset.load(str(first))
    assert back.sha256() == digest
    assert back.x.tobytes() == x.tobytes()

    # the median of the rows' norms, each counted once per window slot that
    # holds it, has the bits of the median over the packed windows
    packed = np.median(np.sqrt((ds.x ** 2).sum(axis=(3, 4))))
    assert ds.kappa().hex() == (1.0 / packed).hex()


def test_train_entry_points(small_cfg):
    ds = generate_dataset(small_cfg, 10, np.random.default_rng(2))
    hyper = TrainHyper(lr=1e-4, batch_size=100, max_iters=5)
    hcl, res_h = train_hcl(ds, small_cfg, hyper)
    naive, res_n = train_naive(ds, small_cfg, hyper)
    assert len(res_h.loss_trace) == 5 and len(res_n.loss_trace) == 5
    assert hcl.kappa == pytest.approx(ds.kappa())
    # a dataset made under another window shape is refused by both
    for field in ("n_tx", "n_vehicles", "history_len"):
        other = small_cfg.replace(**{field: 2 * getattr(small_cfg, field)})
        for trainer in (train_hcl, train_naive):
            with pytest.raises(ValueError, match=field):
                trainer(ds, other, hyper)


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
    """No method, an unknown method, a missing model or a realization
    count < 1 is refused before any episode runs (every episode draws its
    motion)."""
    def no_episode(*args, **kwargs):
        raise AssertionError("an episode ran")

    monkeypatch.setattr(harness, "step_motion", no_episode)
    for methods, n in (([], 2), (["random", "bogus"], 2),
                       (["random", "hcl"], 2), (["random"], 0),
                       (["random"], -3)):
        with pytest.raises(ValueError):
            monte_carlo_eval(small_cfg, methods, n)


def _bits(stats):
    """The rows of stats with every float as its hex string."""
    return [{key: v.hex() if isinstance(v, float) else v
             for key, v in s.as_dict().items()} for s in stats]


@pytest.mark.parametrize("n_real", [1, 2, 70])
def test_method_stats_independent_of_method_order(small_cfg, n_real):
    """Each method's row in a 4-method eval, whose methods share every
    block's draws, has the bytes of its one-method eval, in one block, two
    realizations and blocks of 64 and 6.  On the noisy config naive_dl
    decides for only some realizations of a block."""
    cfg = _noisy(small_cfg)
    models = _models(cfg)
    methods = ["random", "naive_dl", "hcl", "genie"]
    together = monte_carlo_eval(cfg, methods, n_real, models=models, seed=3)
    assert [s.method for s in together.stats] == methods
    for stats in together.stats:
        alone = monte_carlo_eval(cfg, [stats.method], n_real, models=models,
                                 seed=3)
        assert _bits(alone.stats) == _bits([stats]), stats.method


def _noisy(cfg):
    """A config whose delay noise (tens of metres) often drives a distance
    estimate below zero."""
    return cfg.replace(rho_nu=2.0)


def _record_observations(monkeypatch, seam="observe"):
    """The list that receives every observation made through the harness's
    seam: one slot's under the beam (observe), of one episode or of a
    block's, or a dataset episode's (generate_observation)."""
    real_observe = getattr(harness, seam)
    seen = []

    def observe(*args, **kwargs):
        seen.append(real_observe(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(harness, seam, observe)
    return seen


@pytest.mark.parametrize("theta_mode", ["relative", "crlb"])
def test_slot_estimates_match_block_estimates(small_cfg, theta_mode):
    """The rows that _write_estimates writes for a whole episode at once
    equal, bit for bit, the latest row of a history shifted one slot at a
    time (shift_history), on a config whose distance estimates often go
    negative and with a zero beam row, so that many rows are carried
    forward.  Each episode of a scenario of three, observed and written in
    one call, has the rows of its scenario of one."""
    cfg = _noisy(small_cfg).replace(theta_mode=theta_mode)
    n, k, m = cfg.n_slots - 1, cfg.n_vehicles, cfg.n_tx

    def observations(*seeds):
        vehicles, a, angles, z, *_ = harness._scenario(
            cfg, [np.random.default_rng(s) for s in seeds])
        w = aimed_beams(angles[:, :-1], cfg)
        w[:, ::3, 1] = 0.0
        return harness.generate_observation(harness._observed(vehicles), w,
                                            cfg, z)

    def estimates(obs):
        est = np.zeros((len(obs.usable), n + 1, k, m), dtype=complex)
        harness._write_estimates(est, obs, cfg)
        return est

    obs = observations(8)
    est = estimates(obs)
    history = np.zeros((1, k, m), dtype=complex)
    for s in range(n):
        history = shift_history(history, type(obs)(*(f[0, s] for f in obs)),
                                cfg)
        assert np.array_equal(history[0], est[0, s + 1]), s
    assert 0 < (~obs.usable).sum() < obs.usable.size
    seeds = (9, 8, 10)
    block = estimates(observations(*seeds))
    for e, seed in enumerate(seeds):
        assert np.array_equal(block[e], estimates(observations(seed))[0]), \
            seed


def test_negative_distance_estimate_is_unusable(small_cfg, monkeypatch):
    """A distance estimate <= 0 marks its vehicle unusable: it never reaches
    a dataset row or the naive-DL network."""
    cfg = _noisy(small_cfg)
    obs = _record_observations(monkeypatch, "generate_observation")
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
    obs = _record_observations(monkeypatch)
    run_episode(cfg, "naive_dl", np.random.default_rng(1),
                model=_models(cfg)["naive_dl"])
    n_bad = sum(not ob.usable.all() for ob in obs)
    assert n_bad > 0
    assert len(seen) == len(obs) - n_bad
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


class _FixedBeams:
    """A stand-in HCL model for one episode, a block of one: its stream
    records each [tau, K, M] window of the rows pushed into it and returns
    the same beams whatever the window, with the row toward vehicle 1 zero
    for the slots from zero_from on."""

    def __init__(self, config, zero_from=None):
        self.w = random_beamformer(config, np.random.default_rng(11))
        self.tau = config.history_len
        self.slot = config.history_len   # the slot the next decision is for
        self.zero_from = zero_from
        self.histories = []

    def stream(self, lead=()):
        assert lead == (1,)
        rows = []

        def push(row):
            rows.append(row[0].copy())
            if len(rows) < self.tau:
                return None
            self.histories.append(np.stack(rows[-self.tau:]))
            w = self.w.copy()
            if self.zero_from is not None and self.slot >= self.zero_from:
                w[1] = 0.0
            self.slot += 1
            return w[None]

        return SimpleNamespace(push=push)


def _expected_histories(config, observations):
    """Each slot's history, built one row at a time from the slot's
    observation of an episode, a block of one (zeros before the first
    slot)."""
    history = np.zeros((config.history_len, config.n_vehicles, config.n_tx),
                       dtype=complex)
    out = []
    for ob in observations:
        history = shift_history(history, type(ob)(*(f[0] for f in ob)),
                                config)
        out.append(history)
    return out


def test_estimated_channel_falls_back_to_previous(small_cfg, monkeypatch):
    """HCL-Net's history at each slot shifts by one row; a usable vehicle's
    new row is the channel from its estimates, an unusable one repeats its
    previous row (zeros before the first slot)."""
    cfg = _noisy(small_cfg)
    obs = _record_observations(monkeypatch)
    model = _FixedBeams(cfg)
    run_episode(cfg, "hcl", np.random.default_rng(2), model=model)
    expected = _expected_histories(cfg, obs)[cfg.history_len - 1:]
    assert len(model.histories) == len(expected)
    assert len(expected) == cfg.n_slots - cfg.history_len
    for got, want in zip(model.histories, expected):
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
    n_carried = sum((~ob.usable).sum() for ob in obs)
    assert n_carried > 0


def test_zero_beam_keeps_streams_aligned(small_cfg, monkeypatch):
    """Observation noise is drawn for every vehicle in every slot and masked
    afterwards.  HCL's beam toward vehicle 1 is zero from slot 4 on: it is
    unusable, its CRLBs are infinite and its history row is carried forward,
    while the other vehicle's estimates and all trajectories equal those of
    the same seed with aimed beams."""
    zero_from = 4
    obs = _record_observations(monkeypatch)

    def episode(model):
        obs.clear()
        trace = run_episode(small_cfg, "hcl", np.random.default_rng(4),
                            model=model)
        return trace, list(obs)

    (aimed, obs_a), zeroed = episode(_FixedBeams(small_cfg)), _FixedBeams(
        small_cfg, zero_from)
    trace, obs_z = episode(zeroed)
    assert trace.states == aimed.states
    assert trace.states == run_episode(small_cfg, "genie",
                                       np.random.default_rng(4)).states
    for n, (oa, oz) in enumerate(zip(obs_a, obs_z)):
        assert oa.theta_hat[0, 0] == oz.theta_hat[0, 0]
        assert oa.d_hat[0, 0] == oz.d_hat[0, 0]
        assert oz.usable[0, 1] != (n >= zero_from)
    for n in range(small_cfg.n_slots):
        unusable = n >= zero_from
        assert np.isinf(trace.crlb_theta[n][1]) == unusable
        assert np.isinf(trace.crlb_d[n][1]) == unusable
    # history i ends at slot tau - 1 + i; vehicle 1's row is held from the
    # last slot it was usable
    tau = small_cfg.history_len
    held = zeroed.histories[zero_from - tau][-1, 1]
    assert np.any(held != 0)
    for i, hist in enumerate(zeroed.histories):
        if tau - 1 + i >= zero_from:
            assert np.array_equal(hist[-1, 1], held)
