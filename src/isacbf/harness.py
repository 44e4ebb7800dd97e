"""Episode simulation, dataset generation, Monte-Carlo evaluation, sweeps.

Protocol per slot: the RSU applies the beamforming matrix decided during the
previous slot, receives noisy observations, refreshes the estimated-channel
history, and decides the next slot's beams.  The first history_len slots warm
up with random beams so predictive methods always see a full window.  Motion,
random beams and the standard-normal observation noise never depend on an
observation, so each episode draws them as [n_slots, K] blocks, from three
streams that its SeedSequence spawns (no Generator is built for the episode
itself), and a block of episodes is one scenario (_scenario), drawn once and
shared by a dataset or by every method of an evaluation; only the causal
methods step through the slots.  One pass after the last slot measures every
slot's sum-rate and CRLBs.  A Monte-Carlo evaluation runs its realizations in
lockstep blocks: one causal step per slot over [R, K] arrays and one
measurement pass per block and method; an episode is a block of one.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import NamedTuple

import numpy as np

# random_beamformer is not called here: isacbench's trace points look it up
from .baselines import (aimed_beams, genie_beamformer, genie_rate,  # noqa: F401
                        naive_dl_beamformer, random_angles, random_beamformer)
from .channel import effective_channel, steering, steering_direct, sum_rate
from .config import SimConfig, check_same_config
from .io_container import load_container, save_container
from .kinematics import VehicleState, step_motion
from .nn.model import HCLNet, NaiveNet
from .nn.train import TrainHyper, TrainResult, train
from .sensing import (BatchGeometry, EchoConstants, ObsTerms,
                      build_geometry, fisher_information, generate_observation,
                      observation_noise, observation_terms, observe)

METHODS = ("genie", "naive_dl", "random", "hcl")


@dataclass
class EpisodeTrace:
    vehicles: VehicleState   # [n_slots, K] arrays
    # [n_slots, N_t, K] complex, column k vehicle k's beam (the benchmark's
    # episode check reads w[:, k]): a view of the [n_slots, K, N_t] beam rows
    w_applied: np.ndarray
    decided_at: np.ndarray   # [n_slots] slot index that chose W
    rates: np.ndarray        # [n_slots]
    crlb_theta: np.ndarray   # [n_slots, K]
    crlb_d: np.ndarray       # [n_slots, K]

    def __len__(self):
        return len(self.rates)

    @cached_property
    def states(self) -> list:
        """Per slot: the K vehicles as scalar VehicleState records."""
        return [v.records() for v in self.vehicles.records()]


def _check_method(method: str, model) -> None:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method in ("hcl", "naive_dl") and model is None:
        raise ValueError(f"method {method!r} requires a trained model")


def check_eval_args(methods, n_realizations: int, models: dict) -> None:
    """Raise ValueError for no method, an unknown method, a predictive
    method without a model, a method named twice, or fewer than one
    realization."""
    if not methods:
        raise ValueError("no method to evaluate")
    for method in methods:
        _check_method(method, models.get(method))
        if methods.count(method) > 1:
            raise ValueError(f"method {method!r} is named more than once")
    if n_realizations < 1:
        raise ValueError("n_realizations must be >= 1")


class _Scenario(NamedTuple):
    """The draws of a block of R episodes that no decision depends on, and
    their true geometry, which the observations and the measurement pass
    read and no beam changes."""
    vehicles: VehicleState     # [R, n_slots, K] trajectories
    angles: np.ndarray | None  # [R, n_slots, K] random-beam angles
    z: np.ndarray | None       # [R, n_slots - 1, K, 2] observation noise
    geom: BatchGeometry        # [R, n_slots, K] build_geometry of vehicles


def _scenario(config: SimConfig, seqs: list, methods=None) -> _Scenario:
    """One episode per SeedSequence of seqs, as one block: each spawns its
    motion, observation and beam streams, in that order, and a Generator is
    built for each stream the block draws from, none for the episode.  The
    trajectories are one step_motion over the motion streams; the random-beam
    angles and the observation noise are blocks over each episode's slots,
    the per-slot draws in slot order.  The block's one geometry
    (build_geometry of the true angles and distances) follows, shared by the
    observations and by every method's measurement.

    methods are those that run on the block, or None for a dataset's
    block, which draws everything.  The angles are drawn only when a method
    other than genie runs, and the noise only when hcl or naive_dl does.
    No noise is drawn for the last slot, which is not observed.  A block
    of one holds views of its episode's arrays."""
    n, k = config.n_slots, config.n_vehicles
    draws = METHODS if methods is None else methods
    children = [seq.spawn(3) for seq in seqs]

    def streams(i):
        return [np.random.default_rng(c[i]) for c in children]

    def block(arrays):
        return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)

    vehicles = step_motion(config, streams(0), n)
    angles = z = None
    if any(method != "genie" for method in draws):
        angles = block([random_angles(config, g, n) for g in streams(2)])
    if "hcl" in draws or "naive_dl" in draws:
        z = block([observation_noise(g, (n - 1, k)) for g in streams(1)])
    return _Scenario(vehicles, angles, z,
                     build_geometry(vehicles.theta, vehicles.dist, config))


# the slots of a block that are observed: every one but the last
_OBSERVED = np.s_[:, :-1]


def _row_estimates(obs) -> np.ndarray:
    """[2, n_ep, n + 1, K]: the angle and the distance estimate of each row
    of the [n_ep, n, K] observations obs of n_ep episodes.  Row 1 + s holds
    each vehicle's estimate of slot s, or, without a usable one, its latest
    earlier one carried forward; row 0 holds zeros, the row before the
    first.  A usable estimate has a distance > 0, so a distance of 0 marks
    a vehicle without one yet."""
    usable = obs.usable
    n_ep, n, k = usable.shape
    est = np.zeros((2, n_ep, n + 1, k))
    est[0, :, 1:] = obs.theta_hat
    est[1, :, 1:] = obs.d_hat
    if not usable.all():
        # each row's latest usable row of the vehicle, 0 for the row before
        latest = np.maximum.accumulate(
            usable * np.arange(1, n + 1)[:, None], axis=1)
        # plain fancy indexing: np.take_along_axis costs 3x more on one slot
        est[:, :, 1:] = est[:, np.arange(n_ep)[:, None, None], latest,
                            np.arange(k)]
    return est


def project_power(w: np.ndarray, budget: float) -> np.ndarray:
    """w with its beams scaled onto the budget where ||W||_F^2 exceeds it:
    [K, N_t] beams, or the [R, K, N_t] beams of R realizations, each scaled
    by its own norm.  Beams within the budget keep their bits."""
    power = (np.abs(w) ** 2).sum(axis=(-2, -1))
    over = power > budget
    if not over.any():
        return w
    w = w.copy()
    w[over] *= np.sqrt(budget / power[over])[..., None, None]
    return w


def _decide(config: SimConfig, method: str, model, scenario: _Scenario,
            project: bool, first: int | None) -> np.ndarray:
    """The [R, n_slots, K, N_t] beams that hcl or naive_dl apply in the R
    episodes of scenario, decided by one causal slot step over all of them
    in lockstep: observe slot n of each under its beams, then decide its
    beams of slot n + 1, projected onto the power budget per episode when
    project is set.  A slot whose method has no input yet, or an incomplete
    one, applies the random beams aimed at its angles, computed for those
    slots only.

    What the observations need that no beam changes (observation_terms of
    the scenario's noise) is computed before the loop, and so in
    config.theta_mode "relative" is the steering of the angle estimates;
    each slot's views of them, and of the beams and true steering, are taken
    once, and a slot computes only what depends on its beams, on [R, K]
    arrays.  An hcl vehicle without a usable estimate keeps its episode's
    previous row.  Decided beams whose power is not finite are a ValueError
    naming the method, the slot and, when first is given, the realization
    (first plus the episode's index), raised before they are observed.
    Overflow, division by zero and invalid values raise no warning within
    the step: the rows of unusable estimates are discarded, and the power
    check catches what a net overflows to."""
    r, _, k = scenario.vehicles.theta.shape
    m = config.n_tx
    geom = scenario.geom
    terms = observation_terms(geom.subset(_OBSERVED), config, scenario.z)

    def by_slot(f):
        """A view of f, slot first: f_at[n] is slot n of every episode; of
        echo constants, the constants of each slot."""
        if isinstance(f, EchoConstants):
            return map(EchoConstants._make, zip(*map(by_slot, f)))
        return repeat(None) if f is None else f.swapaxes(0, 1)

    w = np.empty(scenario.angles.shape + (m,), dtype=complex)
    w_at, angles_at = by_slot(w), by_slot(scenario.angles)
    # the slots no decision reaches: slot 0, and hcl's until its window is
    # full (its stream decides from the tau-th pushed slot on)
    warm = config.history_len if method == "hcl" else 1
    w_at[:warm] = aimed_beams(angles_at[:warm], config)
    a_hat = repeat(None)
    if method == "hcl":
        stream = model.stream((r,))
        # each episode's latest estimated channels, zeros before slot 0
        est = np.zeros((r, k, m), dtype=complex)
        if terms.theta_hat is not None:
            a_hat = by_slot(steering_direct(terms.theta_hat, m))
    # per observed slot: its terms, beams, true steering and, for hcl in
    # relative mode, the steering of its angle estimates
    slots = zip(map(ObsTerms._make, zip(*map(by_slot, terms))), w_at,
                by_slot(geom.a), a_hat)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for n, (slot, w_n, a_n, a_hat_n) in enumerate(slots):
            obs = observe(slot, w_n, a_n, config)
            deciding = slice(None)
            if method == "hcl":
                rows = effective_channel(
                    obs.d_hat, config, steering_direct(obs.theta_hat, m)
                    if a_hat_n is None else a_hat_n, check=False)
                np.copyto(est, rows, where=obs.usable[..., None])
                beams = stream.push(est)
                if beams is None:
                    continue
            # count_nonzero: a third of the cost of .all() on a few bools
            elif np.count_nonzero(obs.usable) == obs.usable.size:
                beams = naive_dl_beamformer(obs.theta_hat, obs.d_hat, model,
                                            config)
            else:
                # the episodes whose every vehicle is usable decide, and
                # the others apply their random beams
                complete = obs.usable.all(axis=-1)
                rest = np.flatnonzero(~complete)
                w_at[n + 1, rest] = aimed_beams(angles_at[n + 1, rest], config)
                if not complete.any():
                    continue
                deciding = np.flatnonzero(complete)
                beams = naive_dl_beamformer(obs.theta_hat[deciding],
                                            obs.d_hat[deciding], model, config)
            # one inner product over all the decided beams: finite exactly
            # when every episode's power is, short of a sum of finite
            # powers near 1e308
            if not math.isfinite(np.vdot(beams, beams).real):
                _refuse(method, beams, n + 1, first, deciding, r)
            w_at[n + 1, deciding] = project_power(beams, config.power_budget) \
                if project else beams
    return w


def _refuse(method: str, beams: np.ndarray, slot: int, first: int | None,
            deciding, r: int) -> None:
    """Raise the ValueError for the [R', K, N_t] beams decided for slot by
    the episodes deciding of a block of r, if the power of any is not
    finite.  It names the method, the slot and, when first is given, the
    realization first + e of the first such episode e."""
    flat = beams.reshape(len(beams), -1)
    finite = np.isfinite(np.vecdot(flat, flat).real)
    if finite.all():
        return
    e = int(finite.argmin())
    what = "are not finite" if not np.isfinite(flat[e]).all() \
        else "have a power that overflows"
    if first is not None:
        what = f"of realization {first + int(np.arange(r)[deciding][e])} " \
            f"{what}"
    raise ValueError(f"{method}: the beams applied in slot {slot} {what}")


def _run_block(config: SimConfig, method: str, scenario: _Scenario, model,
               project: bool, first: int | None = None):
    """The [R, n_slots, K, N_t] beams, [R, n_slots] sum-rates and
    [R, n_slots, K] FisherInfo of one method over the R episodes of
    scenario, in lockstep.  first is the eval's index of the first
    realization, for errors."""
    vehicles, geom = scenario.vehicles, scenario.geom
    if method == "genie":
        w = genie_beamformer(geom.a, config)
        rates = genie_rate(vehicles, config)
    else:
        if method == "random":
            w = aimed_beams(scenario.angles, config)
        else:
            w = _decide(config, method, model, scenario, project, first)
        rates = sum_rate(effective_channel(geom.dist, config, geom.a), w,
                         config.noise_vehicle)
    return w, rates, fisher_information(vehicles, w, config, geom)


def run_episode(config: SimConfig, method: str, rng: np.random.Generator,
                model=None, project: bool = False) -> EpisodeTrace:
    """Simulate one episode of config.n_slots slots under one beamforming method.

    Motion, observation noise, and random-beam draws use three independent
    streams that the SeedSequence of rng's bit generator spawns (none is rng,
    and no Generator is built for the episode), so trajectories are
    comparable across methods at a fixed seed; each is drawn as one
    [n_slots, K] block.  The genie aims at the current truth each slot and
    is exempt from the causality invariant.
    Only hcl and naive_dl observe the vehicles, in a causal slot step.  One
    pass at the end measures every slot's sum-rate and CRLBs against the
    true state.  The true geometry (build_geometry) is built once and
    shared by the beams, observations and measurements.  Beams of hcl
    or naive_dl whose power is not finite are a ValueError naming the
    method and the slot that would apply them, so no NaN reaches a rate or
    a CRLB.  The episode is the one-realization case of monte_carlo_eval's
    lockstep block.
    """
    _check_method(method, model)
    scenario = _scenario(config, [rng.bit_generator.seed_seq], (method,))
    w, rates, info = _run_block(config, method, scenario, model, project)
    n = config.n_slots
    return EpisodeTrace(
        vehicles=VehicleState(*(f[0] for f in vars(scenario.vehicles).values())),
        w_applied=w[0].swapaxes(-1, -2),
        decided_at=np.arange(n) if method == "genie" else np.arange(-1, n - 1),
        rates=rates[0], crlb_theta=info.crlb_theta[0], crlb_d=info.crlb_d[0])


# ---- datasets --------------------------------------------------------------

@dataclass
class Dataset:
    """Training examples: history windows of estimated channels plus the
    next slot's ground truth, and the config they were made under.
    Consecutive examples of an episode share tau - 1 slots, so the windows
    are a [Ne, tau] index into rows, each slot's once.  A row's estimated
    channels are a function of the estimates they were built from, so a
    dataset stores those, carry-forward applied, and the true channels h
    are a function of the true angles and distances: rows, x, the naive-DL
    inputs est_thetas and est_dists, h and the loss geometry are built
    under config on first read and kept, so an edit to one reaches later
    readers.  save and sha256 see only the stored arrays."""
    windows: np.ndarray     # [Ne, tau] int64 rows of each window, oldest first
    thetas: np.ndarray      # [Ne, K] true angles
    dists: np.ndarray       # [Ne, K] true distances
    row_thetas: np.ndarray  # [N_rows, K] angle estimate of each row
    row_dists: np.ndarray   # [N_rows, K] its distance estimate, 0: a zero row
    config: SimConfig

    ARRAYS = ("windows", "thetas", "dists", "row_thetas", "row_dists")

    def __len__(self):
        return len(self.windows)

    @cached_property
    def rows(self) -> np.ndarray:
        """[N_rows, K, M, 2] estimated channels of a slot: effective_channel
        of each row's estimates, zeros where its distance is 0.  They take
        steering_direct, the bits of the defining formula, not steering's
        recurrence: a distance estimate near 0 makes its row far larger
        than any true channel, and isacbench's check_dataset compares the
        last window row with its own direct exponential to 1e-12 of the
        largest true channel, which the recurrence's 3*N*eps relative error
        misses on such a row (about 1 dataset of 600 examples in 300)."""
        m = self.config.n_tx
        seen = self.row_dists > 0
        theta = self.row_thetas[seen]
        rows = np.zeros(seen.shape + (m,), dtype=complex)
        rows[seen] = effective_channel(self.row_dists[seen], self.config,
                                       steering_direct(theta, m))
        return rows.view(float).reshape(seen.shape + (m, 2))

    @cached_property
    def x(self) -> np.ndarray:
        """[Ne, tau, K, M, 2] estimated-channel windows, rows[windows]."""
        return self.rows[self.windows]

    @cached_property
    def est_thetas(self) -> np.ndarray:
        """[Ne, K] last-slot estimated angles (naive DL input)."""
        return self.row_thetas[self.windows[:, -1]]

    @cached_property
    def est_dists(self) -> np.ndarray:
        """[Ne, K] last-slot estimated distances."""
        return self.row_dists[self.windows[:, -1]]

    @cached_property
    def h(self) -> np.ndarray:
        """[Ne, K, M] complex true next-slot channels (rows h_k),
        effective_channel of the true angles and distances under config.
        geometry() does not read it."""
        return effective_channel(self.dists, self.config,
                                 steering(self.thetas, self.config.n_tx))

    @cached_property
    def _geometry(self) -> BatchGeometry:
        """The examples' loss geometry under config, its arrays read-only:
        every training run on the dataset shares it.  Its angles and
        distances are read-only views of thetas and dists, which stay
        writable."""
        geom = build_geometry(self.thetas.view(), self.dists.view(),
                              self.config)
        for arr in (geom.theta, geom.dist, geom.a, *geom.echo):
            arr.flags.writeable = False
        return geom

    def _arrays(self) -> dict:
        """The stored arrays by name, in ARRAYS order."""
        return {name: getattr(self, name) for name in self.ARRAYS}

    def kappa(self) -> float:
        """Input normalization 1 / median norm of the estimated-channel rows
        h_k (each slot's and vehicle's length-M vector) of the windows, a
        row counted once per window slot that holds it."""
        norms = np.sqrt((self.rows ** 2).sum(axis=(2, 3)))
        med = float(np.median(norms[self.windows]))
        return 1.0 / med if med > 0 else 1.0

    def check(self, config: SimConfig) -> None:
        """Raise a ValueError naming every field in which config differs
        from the dataset's config, except those that shape no example:
        rng_seed and the loss weights (config.UNCHECKED_FIELDS)."""
        check_same_config(self.config, config, "dataset made")

    def geometry(self, config: SimConfig) -> BatchGeometry:
        """The examples' loss geometry, once config passes check(): built
        under the dataset's own config on the first call and shared by
        every later one, which check() makes the same geometry as config's
        (build_geometry reads no field that check() lets differ)."""
        self.check(config)
        return self._geometry

    def save(self, path: str, config: SimConfig | None = None) -> None:
        """Write the arrays and the dataset's config to path; a config
        given here is the run's, which check() must accept."""
        if config is not None:
            self.check(config)
        meta = {"kind": "dataset", "config": self.config.as_dict()}
        save_container(path, meta, self._arrays())

    @classmethod
    def load(cls, path: str) -> "Dataset":
        """The dataset of a file that save wrote; a ValueError naming path
        when it is not one: another kind, other arrays (a file of an older
        format among them), a config that SimConfig.from_dict refuses, or
        arrays that do not fit together and the config: a windows that is
        not a 2-D integer array of history_len columns or indexes outside
        the rows (numpy would wrap a negative index into another episode's
        rows), per-example arrays of different lengths or not [Ne, K], row
        estimates that are not [N_rows, K] of one length, or arrays of
        angles and distances that are not float.  Row estimates that
        generate_dataset never writes are refused too, naming the first
        such row: a non-finite angle or distance, a negative distance, and
        a distance of 0 (no estimate) in an example's last window row,
        which holds its naive-DL input."""
        meta, arrays = load_container(path)
        if meta.get("kind") != "dataset":
            raise ValueError(f"{path}: not a dataset file")
        if tuple(arrays) != cls.ARRAYS:
            older = ("; it is a dataset of an older format, which stored "
                     "the estimated channels rows or x or the true "
                     "channels h: regenerate it with isacbf gen-data"
                     if {"rows", "x", "h"} & set(arrays) else "")
            raise ValueError(f"{path}: a dataset file holds the arrays "
                             f"{', '.join(cls.ARRAYS)}, this one holds "
                             f"{', '.join(arrays) or 'none'}{older}")
        try:
            config = SimConfig.from_dict(meta.get("config"))
        except ValueError as exc:
            raise ValueError(f"{path}: bad recorded config: {exc}") from None
        windows = arrays["windows"]
        k, tau = config.n_vehicles, config.history_len
        if windows.ndim != 2 or windows.dtype.kind != "i":
            raise ValueError(f"{path}: windows is {windows.dtype} "
                             f"{list(windows.shape)}, not a 2-D integer array")
        for kind, group in (("per-example", cls.ARRAYS[:3]),
                            ("row-estimate", cls.ARRAYS[3:])):
            lengths = {name: arrays[name].shape[:1] for name in group}
            if len(set(lengths.values())) > 1:
                raise ValueError(f"{path}: the {kind} arrays differ in "
                                 "length: " + ", ".join(
                                     f"{name} {list(n)}"
                                     for name, n in lengths.items()))
        n_ex, n_rows = len(windows), len(arrays["row_dists"])
        shapes = {"windows": (n_ex, tau), "thetas": (n_ex, k),
                  "dists": (n_ex, k), "row_thetas": (n_rows, k),
                  "row_dists": (n_rows, k)}
        for name, shape in shapes.items():
            arr = arrays[name]
            if arr.shape != shape:
                raise ValueError(
                    f"{path}: {name} is {list(arr.shape)}, not the "
                    f"{list(shape)} of its config's n_vehicles={k} and "
                    f"history_len={tau}")
            if name != "windows" and arr.dtype.kind != "f":
                raise ValueError(f"{path}: {name} is {arr.dtype}, not float")
        out = (windows < 0) | (windows >= n_rows)
        if out.any():
            e, t = (int(v) for v in np.argwhere(out)[0])
            raise ValueError(f"{path}: example {e} window slot {t} reads row "
                             f"{windows[e, t]}, outside the {n_rows} rows")
        row_thetas, row_dists = arrays["row_thetas"], arrays["row_dists"]
        for what, bad in (
                ("an angle estimate that is not finite",
                 ~np.isfinite(row_thetas)),
                ("a distance estimate that is not finite",
                 ~np.isfinite(row_dists)),
                ("a negative distance estimate", row_dists < 0)):
            if bad.any():
                r, v = (int(i) for i in np.argwhere(bad)[0])
                raise ValueError(f"{path}: row {r} holds {what} for vehicle "
                                 f"{v}")
        bad = row_dists[windows[:, -1]] == 0
        if bad.any():
            e, v = (int(i) for i in np.argwhere(bad)[0])
            raise ValueError(f"{path}: example {e} has no estimate of vehicle "
                             f"{v} (distance 0) in its last window row, row "
                             f"{windows[e, -1]}")
        return cls(**arrays, config=config)

    def sha256(self) -> str:
        digest = hashlib.sha256()
        for arr in self._arrays().values():
            digest.update(np.ascontiguousarray(arr).tobytes())
        return digest.hexdigest()


# episodes per dataset or eval block: enough to take each call over many
# episodes, few enough that a block's arrays stay within about 25 MB at the
# default sizes, whatever n_examples is, and that an eval step's [R, K]
# arrays stay in cache (its cost per realization-slot rises again at 500)
_BLOCK_EPISODES = 64


def generate_dataset(config: SimConfig, n_examples: int,
                     rng: np.random.Generator) -> Dataset:
    """Collect examples from fresh random-beam episodes.

    Each slot n >= history_len of an episode whose previous slot observed
    every vehicle yields one example: the window of estimated channels from
    slots [n-tau, n-1] and slot n's true angles and distances.

    Episodes run in blocks of at most _BLOCK_EPISODES, and of no more than
    the examples still wanted could need (an episode yields at most
    n_slots - tau), so the SeedSequence of rng's bit generator spawns one
    child per episode exactly as one episode at a time would; it spawns the
    episode's three streams, and no Generator is built for the episode.
    Each block is one _scenario, the draw that monte_carlo_eval shares among
    its methods, observed under its random beams in one observation call;
    no rates or CRLBs are measured, which no example holds.  No example's window holds the last slot, so it is not observed
    and its random beams are not computed.  The rows are each slot's
    estimates (_row_estimates), and each window is the index of its tau
    rows; no channel is formed here (Dataset.rows builds them on read).
    _BLOCK_EPISODES episodes in a row without an example, as when no
    vehicle can be observed, are a ValueError.
    """
    if n_examples < 1:
        raise ValueError("n_examples must be >= 1")
    n, tau, k = config.n_slots, config.history_len, config.n_vehicles
    if n <= tau:
        raise ValueError("n_slots must exceed history_len for an episode "
                         "to yield an example")
    windows = np.empty((n_examples, tau), dtype=np.int64)
    thetas, dists = np.empty((2, n_examples, k))
    blocks = []
    i = n_rows = barren = 0
    while i < n_examples:
        n_ep = min(_BLOCK_EPISODES, -(-(n_examples - i) // (n - tau)))
        vehicles, angles, z, geom = _scenario(
            config, rng.bit_generator.seed_seq.spawn(n_ep))
        obs = generate_observation(geom.subset(_OBSERVED),
                                   aimed_beams(angles[:, :-1], config),
                                   config, z)
        # row 1 + s of an episode holds slot s's estimates, row 0 the zeros
        # before slot 0, so rows s - tau + 1 .. s are the window of slot s
        blocks.append(_row_estimates(obs))
        complete = obs.usable.all(axis=-1)
        complete[:, :tau - 1] = False
        ep, prev = (idx[:n_examples - i] for idx in np.nonzero(complete))
        slot = prev + 1
        j = i + len(slot)
        barren = 0 if j > i else barren + n_ep
        if barren >= _BLOCK_EPISODES:
            raise ValueError(f"no slot of {barren} episodes in a row observed "
                             "every vehicle: the echoes are likely too weak "
                             "(power_budget too low or noise too high)")
        windows[i:j] = (n_rows + ep * n + slot - tau + 1)[:, None] \
            + np.arange(tau)
        thetas[i:j] = vehicles.theta[ep, slot]
        dists[i:j] = vehicles.dist[ep, slot]
        n_rows += n_ep * n
        i = j
    est = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)
    return Dataset(windows=windows, thetas=thetas, dists=dists,
                   row_thetas=est[0].reshape(-1, k),
                   row_dists=est[1].reshape(-1, k), config=config)


# ---- training entry points -------------------------------------------------

def train_hcl(dataset: Dataset, config: SimConfig,
              hyper: TrainHyper) -> tuple[HCLNet, TrainResult]:
    net = HCLNet(config, kappa=dataset.kappa())
    net.init_params(np.random.default_rng(hyper.seed))
    result = train(net, dataset.x, dataset.geometry(config), config, hyper)
    return net, result


def train_naive(dataset: Dataset, config: SimConfig,
                hyper: TrainHyper) -> tuple[NaiveNet, TrainResult]:
    net = NaiveNet(config)
    net.init_params(np.random.default_rng(hyper.seed))
    inputs = net.features(dataset.est_thetas, dataset.est_dists)
    result = train(net, inputs, dataset.geometry(config), config, hyper)
    return net, result


# ---- evaluation ------------------------------------------------------------

@dataclass
class MethodStats:
    method: str
    power: float
    rate_mean: float
    rate_ci: float
    crlb_theta_mean: float
    crlb_d_mean: float
    n_realizations: int
    w_power_mean: float

    @property
    def crlb_theta_sqrt(self) -> float:
        return float(np.sqrt(self.crlb_theta_mean))

    @property
    def crlb_d_sqrt(self) -> float:
        return float(np.sqrt(self.crlb_d_mean))

    def as_dict(self) -> dict:
        return {"method": self.method, "P": self.power,
                "rate_mean": self.rate_mean, "rate_ci": self.rate_ci,
                "crlb_theta_mean": self.crlb_theta_mean,
                "crlb_d_mean": self.crlb_d_mean,
                "crlb_theta_sqrt": self.crlb_theta_sqrt,
                "crlb_d_sqrt": self.crlb_d_sqrt,
                "n": self.n_realizations,
                "w_power_mean": self.w_power_mean}


@dataclass
class EvalReport:
    stats: list          # list[MethodStats]
    config: SimConfig


def _summaries(w: np.ndarray, rates: np.ndarray, info, tau: int):
    """[4, R]: the mean rate, CRLBs and beam power of the slots from tau on
    of each of the R episodes of _run_block's arrays, each the bits of a
    1-D mean over the episode's values.  The mean CRLBs leave out the
    infinite ones of unobservable vehicles (inf when all are), and nothing
    else."""
    crlbs = [c[:, tau:].reshape(len(c), -1)
             for c in (info.crlb_theta, info.crlb_d)]
    power = (np.abs(w[:, tau:]) ** 2).sum(axis=(-2, -1))
    # sum over count: the bits of mean(axis=1), at about half its cost on a
    # block of one
    per = np.array([f.sum(axis=1) / f.shape[1]
                    for f in (rates[:, tau:], *crlbs, power)])
    # an episode with an infinite CRLB, or a NaN: the mean of the rest
    for i, e in zip(*np.nonzero(~np.isfinite(per[1:3]))):
        kept = crlbs[i][e][crlbs[i][e] != np.inf]
        per[1 + i, e] = kept.mean() if kept.size else np.inf
    return per


def monte_carlo_eval(config: SimConfig, methods: list[str],
                     n_realizations: int, models: dict | None = None,
                     seed: int = 0, project: bool = False) -> EvalReport:
    """Independent episodes per realization; per-method means and 95% CIs.

    Realization r is the episode of child r of SeedSequence(seed), which
    spawns its three streams (no Generator is built for the episode): the
    one run_episode runs on a generator of that child.  Every method runs on
    the same realizations: the trajectories are common random numbers across
    methods.  The realizations run in lockstep blocks of up to
    _BLOCK_EPISODES; each block is drawn once, as one _scenario, and every
    method then runs on it, so a method's row is the same whichever
    methods run with it.  An eval of one realization has the bits of the
    means of run_episode's trace.  Across a larger block the networks' GEMMs
    take other shapes, so hcl and naive_dl beams may move in the last bits.
    The arguments are checked before any episode runs, and a NaN rate or
    CRLB is a ValueError naming the method.
    """
    models = models or {}
    check_eval_args(methods, n_realizations, models)
    children = np.random.SeedSequence(seed).spawn(n_realizations)
    per = [[] for _ in methods]
    for first in range(0, n_realizations, _BLOCK_EPISODES):
        scenario = _scenario(
            config, children[first:first + _BLOCK_EPISODES], methods)
        for method, blocks in zip(methods, per):
            blocks.append(_summaries(*_run_block(
                config, method, scenario, models.get(method), project,
                first if n_realizations > 1 else None), config.history_len))
    stats = []
    for method, blocks in zip(methods, per):
        per_r = np.concatenate(blocks, axis=1)
        means = per_r.mean(axis=1).tolist()
        # a NaN of any realization makes its row's mean NaN
        if any(map(math.isnan, means)):
            r = int(np.isnan(per_r).any(axis=0).argmax())
            raise ValueError(f"{method}: realization {r} measured a NaN rate "
                             "or CRLB")
        ci = 0.0
        if n_realizations > 1:
            ci = 1.96 * float(per_r[0].std(ddof=1)) / np.sqrt(n_realizations)
        stats.append(MethodStats(
            method=method, power=config.power_budget, rate_mean=means[0],
            rate_ci=ci, crlb_theta_mean=means[1], crlb_d_mean=means[2],
            n_realizations=n_realizations, w_power_mean=means[3]))
    return EvalReport(stats=stats, config=config)


DEFAULT_POWER_GRID = (0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0)


def power_sweep(config: SimConfig, p_values, methods: list[str],
                n_realizations: int, models: dict | None = None,
                seed: int = 0, project: bool = False,
                train_fn=None) -> list[MethodStats]:
    """EvalReport rows over a transmit-power grid.

    By default, trained models are reused across power points; pass
    ``train_fn(config) -> models`` to retrain per point instead.  A power
    named twice is a ValueError, raised before any point runs.
    """
    powers = [float(p) for p in p_values]
    for p in powers:
        if powers.count(p) > 1:
            raise ValueError(f"power {p:g} is named more than once")
    rows = []
    for p in powers:
        cfg = config.replace(power_budget=p)
        models_p = train_fn(cfg) if train_fn is not None else models
        report = monte_carlo_eval(cfg, methods, n_realizations,
                                  models=models_p, seed=seed, project=project)
        rows.extend(report.stats)
    return rows


# ---- export ----------------------------------------------------------------

CSV_HEADER = "method,P,rate_mean,rate_ci,crlb_theta_sqrt,crlb_d_sqrt,n"


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".9g")
    return str(x)


def export(rows: list[MethodStats], config: SimConfig, path: str,
           fmt: str = "csv") -> None:
    """Write sweep/eval rows as CSV (config echoed in '#' comments) or JSON."""
    if fmt == "csv":
        lines = [f"# {k}={v}" for k, v in sorted(config.as_dict().items())]
        lines.append(CSV_HEADER)
        for r in rows:
            lines.append(",".join(_fmt(v) for v in (
                r.method, r.power, r.rate_mean, r.rate_ci,
                r.crlb_theta_sqrt, r.crlb_d_sqrt, r.n_realizations)))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    elif fmt == "json":
        import json
        with open(path, "w") as fh:
            json.dump({"config": config.as_dict(),
                       "rows": [r.as_dict() for r in rows]}, fh, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"unknown export format {fmt!r}")
