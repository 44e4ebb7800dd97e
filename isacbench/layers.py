"""Trace points of the traced run and the per-layer metrics derived from them.

Each metric is computed from the spans of the measured rounds; a metric whose
layer ran only while setting up (``loss.build_geometry_ms``) is computed from
the set-up spans instead.  Times are per call unless the name says otherwise.
"""
from __future__ import annotations

import os
from importlib import import_module

from isacbf import baselines, channel, harness, sensing
from isacbf.nn import kernels, loss, model

# isacbf.nn re-exports the function train under the module's name
nntrain = import_module("isacbf.nn.train")

# kernel and model metrics time the training calls (batch 256); batch-1
# predict is timed as a whole by model.hcl_predict_us
TRAIN = "train.train"


def _slots(args, trace):
    return len(trace)


def _examples(args, ds):
    return len(ds)


def _iters(args, result):
    return len(result.loss_trace)


def _observed(args, obs):
    return 0.0 if obs is None else 1.0


def _file_bytes(args, result):
    return os.path.getsize(args[0])


def trace_points():
    """(owner, attribute, span name, kind, units) for every wrapped call site.

    The owner is where the caller looks the name up: the simulator imported
    its helpers into ``harness``, the models call ``kernels.<fn>`` on the
    kernel package, and methods are looked up on their class.
    """
    span = "span"
    return [
        # nn.kernels
        (kernels, "conv2d3x3_same_fwd", "kernels.conv_fwd", span, None),
        (kernels, "conv2d3x3_same_bwd", "kernels.conv_bwd", span, None),
        (kernels, "maxpool2x2_fwd", "kernels.pool_fwd", span, None),
        (kernels, "maxpool2x2_bwd", "kernels.pool_bwd", span, None),
        # nn.model
        (model.HCLNet, "forward", "model.hcl_forward", span, None),
        (model.HCLNet, "backward", "model.hcl_backward", span, None),
        (model.HCLNet, "predict", "model.hcl_predict", span, None),
        (model.NaiveNet, "forward", "model.naive_forward", span, None),
        (model.NaiveNet, "backward", "model.naive_backward", span, None),
        # nn.loss
        (nntrain, "penalty_loss_and_grad", "loss.penalty_loss_and_grad", span,
         None),
        (loss.BatchGeometry, "subset", "loss.subset", span, None),
        (harness, "build_geometry", "loss.build_geometry", span, None),
        # nn.train: the benchmark calls nn.train.train, train_hcl calls
        # harness.train
        (nntrain, "train", "train.train", span, _iters),
        (harness, "train", "train.train", span, _iters),
        # harness
        (harness, "generate_dataset", "harness.generate_dataset", span,
         _examples),
        (harness, "run_episode", "harness.run_episode", span, _slots),
        (harness, "monte_carlo_eval", "harness.monte_carlo_eval", span, None),
        # sensing
        (harness, "fisher_information", "sensing.fisher_information", span,
         None),
        (sensing, "fisher_information", "sensing.fisher_information", span,
         None),
        (harness, "generate_observation", "sensing.generate_observation", span,
         _observed),
        # channel: steering runs ~25 times per slot, so it is counted only
        (channel, "steering", "channel.steering", "count", None),
        (sensing, "steering", "channel.steering", "count", None),
        (baselines, "steering", "channel.steering", "count", None),
        (harness, "effective_channel", "channel.effective_channel", span, None),
        (harness, "sum_rate", "channel.sum_rate", span, None),
        # kinematics
        (harness, "step_motion", "kinematics.step_motion", span, None),
        # baselines
        (harness, "genie_beamformer", "baselines.genie_beamformer", span, None),
        (harness, "genie_rate", "baselines.genie_rate", span, None),
        (harness, "random_beamformer", "baselines.random_beamformer", span,
         None),
        (harness, "naive_dl_beamformer", "baselines.naive_dl_beamformer", span,
         None),
        # io_container: datasets go through harness, models through nn.model
        (harness, "save_container", "io.save_dataset", span, _file_bytes),
        (harness, "load_container", "io.load_dataset", span, _file_bytes),
        (model, "save_container", "io.save_model", span, _file_bytes),
        (model, "load_container", "io.load_model", span, _file_bytes),
    ]


class _View:
    """The spans and counts of one phase."""

    def __init__(self, spans, counts):
        self.spans = spans
        self.counts = counts

    def select(self, names, under=None):
        """Spans of ``names``, only those called within ``under`` if given."""
        names = {names} if isinstance(names, str) else names
        return [s for s in self.spans if s["name"] in names
                and (under is None or under in s["ancestors"])]

    def mean(self, names, key="dur", under=None, scale=1e3):
        sel = self.select(names, under)
        if not sel:
            return None
        return sum(s[key] for s in sel) / len(sel) / scale

    def units(self, names, under=None):
        return sum(s["units"] for s in self.select(names, under))

    def per_unit(self, names, per, key="self", scale=1e3):
        """Sum of ``key`` over ``names`` spans per unit of ``per`` spans."""
        n = self.units(per)
        if not n:
            return None
        return sum(s[key] for s in self.select(names)) / n / scale


def _ratio(a, b):
    return a / b if b else None


def _slots_of(v):
    return v.units("harness.run_episode")


KERNELS = {"kernels.conv_fwd", "kernels.conv_bwd", "kernels.pool_fwd",
           "kernels.pool_bwd"}

# name -> (unit, better, metric of a phase view; None when the layer idled)
METRICS = {
    "kernels.conv_fwd_us": ("us", "lower", lambda v: v.mean(
        "kernels.conv_fwd", under=TRAIN)),
    "kernels.conv_bwd_us": ("us", "lower", lambda v: v.mean(
        "kernels.conv_bwd", under=TRAIN)),
    "kernels.pool_fwd_us": ("us", "lower", lambda v: v.mean(
        "kernels.pool_fwd", under=TRAIN)),
    "kernels.pool_bwd_us": ("us", "lower", lambda v: v.mean(
        "kernels.pool_bwd", under=TRAIN)),
    "kernels.calls": ("calls/iter", "lower", lambda v: _ratio(
        len(v.select(KERNELS, TRAIN)), len(v.select("model.hcl_forward", TRAIN)))),
    "model.hcl_forward_self_ms": ("ms", "lower", lambda v: v.mean(
        "model.hcl_forward", "self", TRAIN, 1e6)),
    "model.hcl_backward_self_ms": ("ms", "lower", lambda v: v.mean(
        "model.hcl_backward", "self", TRAIN, 1e6)),
    "model.naive_forward_ms": ("ms", "lower", lambda v: v.mean(
        "model.naive_forward", "dur", TRAIN, 1e6)),
    "model.naive_backward_ms": ("ms", "lower", lambda v: v.mean(
        "model.naive_backward", "dur", TRAIN, 1e6)),
    "model.hcl_predict_us": ("us", "lower", lambda v: v.mean(
        "model.hcl_predict")),
    "loss.penalty_grad_ms": ("ms", "lower", lambda v: v.mean(
        "loss.penalty_loss_and_grad", scale=1e6)),
    "loss.geom_subset_ms": ("ms", "lower", lambda v: v.mean(
        "loss.subset", scale=1e6)),
    "loss.build_geometry_ms": ("ms", "lower", lambda v: v.mean(
        "loss.build_geometry", scale=1e6)),
    "train.loop_self_ms": ("ms/iter", "lower", lambda v: v.per_unit(
        "train.train", "train.train", scale=1e6)),
    "harness.episode_self_us_per_slot": ("us/slot", "lower", lambda v: v.per_unit(
        "harness.run_episode", "harness.run_episode")),
    "harness.generate_dataset_self_ms": ("ms", "lower", lambda v: v.mean(
        "harness.generate_dataset", "self", scale=1e6)),
    "harness.slots_per_example": ("slots/example", "lower", lambda v: _ratio(
        v.units("harness.run_episode", "harness.generate_dataset"),
        v.units("harness.generate_dataset"))),
    "sensing.fisher_us": ("us", "lower", lambda v: v.mean(
        "sensing.fisher_information")),
    "sensing.fisher_calls_per_slot": ("calls/slot", "lower", lambda v: _ratio(
        len(v.select("sensing.fisher_information")), _slots_of(v))),
    "sensing.observation_us": ("us", "lower", lambda v: v.mean(
        "sensing.generate_observation")),
    "sensing.observed_ratio": ("ratio", "higher", lambda v: _ratio(
        v.units("sensing.generate_observation"),
        len(v.select("sensing.generate_observation")))),
    "channel.steering_calls_per_slot": ("calls/slot", "lower", lambda v: _ratio(
        v.counts.get("channel.steering", 0), _slots_of(v))),
    "channel.effective_channel_us": ("us", "lower", lambda v: v.mean(
        "channel.effective_channel")),
    "channel.sum_rate_us": ("us", "lower", lambda v: v.mean("channel.sum_rate")),
    "kinematics.step_motion_us": ("us", "lower", lambda v: v.mean(
        "kinematics.step_motion")),
    "baselines.genie_beamformer_us": ("us", "lower", lambda v: v.mean(
        "baselines.genie_beamformer")),
    "baselines.genie_rate_us": ("us", "lower", lambda v: v.mean(
        "baselines.genie_rate")),
    "baselines.random_beamformer_us": ("us", "lower", lambda v: v.mean(
        "baselines.random_beamformer")),
    "baselines.naive_dl_beamformer_us": ("us", "lower", lambda v: v.mean(
        "baselines.naive_dl_beamformer")),
    "io.save_ms": ("ms", "lower", lambda v: v.mean(
        {"io.save_dataset", "io.save_model"}, scale=1e6)),
    "io.load_ms": ("ms", "lower", lambda v: v.mean(
        {"io.load_dataset", "io.load_model"}, scale=1e6)),
    "io.dataset_mb": ("MB", "lower", lambda v: v.mean(
        "io.save_dataset", "units", scale=1e6)),
}


def per_layer_metrics(tracer) -> dict:
    """Every per-layer metric, from the measured rounds or else from set-up.

    A metric whose layer ran in neither phase reads 0.
    """
    spans = tracer.spans()
    views = {}
    for phase in ("measure", "setup"):
        counts = {name: c for (ph, name), c in tracer.counts.items()
                  if ph == phase}
        views[phase] = _View([s for s in spans if s["phase"] == phase], counts)
    out = {}
    for name, (unit, _, fn) in METRICS.items():
        value = fn(views["measure"])
        if value is None:
            value = fn(views["setup"])
        out[name] = {"value": 0.0 if value is None else float(value),
                     "unit": unit}
    return out
