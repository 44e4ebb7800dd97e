"""Command-line interface: dataset generation, training, evaluation, sweeps."""
from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .channel import steering
from .config import SimConfig, load_config
from .harness import (DEFAULT_POWER_GRID, Dataset, export, generate_dataset,
                      monte_carlo_eval, power_sweep, train_hcl, train_naive)
from .kinematics import make_state
from .nn.model import load_model
from .nn.train import TrainHyper, TrainingDiverged
from .sensing import fisher_information


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="INI config file with a [sim] section")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config key (repeatable)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="output path")


def _add_eval_options(p: argparse.ArgumentParser) -> None:
    """The options eval and sweep share."""
    p.add_argument("--methods", default="random,genie",
                   help="comma-separated subset of genie,naive_dl,random,hcl")
    p.add_argument("--model", action="append", default=[],
                   help="model file, kind read from the file (repeatable, "
                        "one per kind)")
    p.add_argument("--realizations", type=int, default=100)
    p.add_argument("--project-power", action="store_true",
                   help="rescale hcl and naive_dl beams above the power "
                        "budget onto it")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="isacbf",
        description="ISAC predictive beamforming simulator and trainer")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a training dataset")
    _add_common(g)
    g.add_argument("--n-examples", type=int, default=2000)

    t = sub.add_parser("train", help="train a beamforming network")
    _add_common(t)
    t.add_argument("--data", required=True, help="dataset file from gen-data")
    t.add_argument("--arch", choices=("hcl", "naive"), default="hcl")
    t.add_argument("--lr", type=float, default=1e-3)
    t.add_argument("--batch-size", type=int, default=256)
    t.add_argument("--iters", type=int, default=2000)
    t.add_argument("--momentum", type=float, default=0.9)

    e = sub.add_parser("eval", help="Monte-Carlo evaluation")
    _add_common(e)
    _add_eval_options(e)

    s = sub.add_parser("sweep", help="power sweep over a grid")
    _add_common(s)
    _add_eval_options(s)
    s.add_argument("--power-grid",
                   default=",".join(str(v) for v in DEFAULT_POWER_GRID))

    c = sub.add_parser("crlb", help="closed-form CRLBs for one geometry")
    _add_common(c)
    c.add_argument("--theta", type=float, required=True, help="angle, rad")
    c.add_argument("--dist", type=float, required=True, help="distance, m")
    c.add_argument("--power", type=float, required=True,
                   help="per-user beam power, W (aligned beam)")
    return p


def _config_from(args) -> SimConfig:
    return load_config(args.config, overrides=args.set, seed=args.seed)


def _check_positive(name: str, *values: float) -> None:
    """Raise ValueError unless every value is a finite number > 0."""
    for v in values:
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"--{name} must be finite and > 0, got {v!r}")


def _power_grid(text: str) -> list[float]:
    try:
        grid = [float(v) for v in text.split(",")]
    except ValueError:
        raise ValueError("--power-grid must be comma-separated numbers, "
                         f"got {text!r}") from None
    _check_positive("power-grid", *grid)
    return grid


def _load_models(paths: list[str], config: SimConfig) -> dict:
    """The models of the --model files by the method each serves; two files
    of one kind are a ValueError naming both."""
    models, sources = {}, {}
    for path in paths:
        model = load_model(path, config)
        method = {"hcl": "hcl", "naive": "naive_dl"}[model.KIND]
        if method in models:
            raise ValueError(f"--model {sources[method]} and {path} are both "
                             f"{model.KIND} models")
        models[method], sources[method] = model, path
    return models


def _written(path: str, write, *args) -> bool:
    """Call write(*args), which writes path, printing an OSError (a full
    disk, a path that became unwritable) as one error line naming path;
    False when it raised."""
    try:
        write(*args)
    except OSError as exc:
        print(f"error: failed writing {path}: {exc}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _config_from(args)
    except (KeyError, ValueError, FileNotFoundError) as exc:
        # str() of a KeyError is the repr of its message, quotes and all
        msg = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2
    if args.out and os.path.isdir(args.out):
        print(f"error: --out {args.out}: is a directory", file=sys.stderr)
        return 2
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        print(f"error: --out {args.out}: its directory does not exist",
              file=sys.stderr)
        return 2

    if args.command == "gen-data":
        if not args.out:
            print("error: --out is required", file=sys.stderr)
            return 2
        rng = np.random.default_rng(config.rng_seed)
        try:
            ds = generate_dataset(config, args.n_examples, rng)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not _written(args.out, ds.save, args.out, config):
            return 2
        print(f"wrote {len(ds)} examples to {args.out} "
              f"(sha256 {ds.sha256()[:16]})")
        return 0

    if args.command == "train":
        if not args.out:
            print("error: --out is required", file=sys.stderr)
            return 2
        try:
            hyper = TrainHyper(lr=args.lr, batch_size=args.batch_size,
                               max_iters=args.iters, momentum=args.momentum,
                               seed=config.rng_seed)
            ds = Dataset.load(args.data)
            ds.check(config)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        trainer = train_hcl if args.arch == "hcl" else train_naive
        try:
            # a diverging run overflows on its way to the non-finite loss
            # that train() reports, so the overflow is not warned about too
            with np.errstate(over="ignore", invalid="ignore"):
                net, result = trainer(ds, config, hyper)
        except TrainingDiverged as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not _written(args.out, net.save, args.out):
            return 2
        print(f"trained {args.arch} for {len(result.loss_trace)} iters; "
              f"loss {result.loss_trace[0]:.6g} -> {result.loss_trace[-1]:.6g}; "
              f"model saved to {args.out}")
        return 0

    if args.command in ("eval", "sweep"):
        methods = [m.strip() for m in args.methods.split(",") if m.strip()]
        try:
            models = _load_models(args.model, config)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for m in methods:
            if m in ("hcl", "naive_dl") and m not in models:
                print(f"error: model file required for method {m!r} "
                      "(pass --model)", file=sys.stderr)
                return 2
        # the eval checks its arguments before any episode runs, and an
        # episode with non-finite beams is a ValueError too
        try:
            if args.command == "eval":
                rows = monte_carlo_eval(config, methods, args.realizations,
                                        models=models, seed=config.rng_seed,
                                        project=args.project_power).stats
            else:
                rows = power_sweep(config, _power_grid(args.power_grid),
                                   methods, args.realizations, models=models,
                                   seed=config.rng_seed,
                                   project=args.project_power)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.out:
            if not _written(args.out, export, rows, config, args.out,
                            args.format):
                return 2
            print(f"wrote {len(rows)} rows to {args.out}")
        else:
            for r in rows:
                print(f"{r.method}\tP={r.power:g}\trate={r.rate_mean:.4f}"
                      f"±{r.rate_ci:.4f}\tsqrt_crlb_theta="
                      f"{r.crlb_theta_sqrt:.4g}\tsqrt_crlb_d={r.crlb_d_sqrt:.4g}")
        return 0

    if args.command == "crlb":
        try:
            if not math.isfinite(args.theta):
                raise ValueError(f"--theta must be finite, got {args.theta!r}")
            _check_positive("dist", args.dist)
            _check_positive("power", args.power)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        w = math.sqrt(args.power) * steering(args.theta, config.n_tx)
        state = make_state(args.dist * math.cos(args.theta),
                           args.dist * math.sin(args.theta), 0.0)
        info = fisher_information(state, w, config)
        print(f"crlb_theta = {info.crlb_theta:.9g} rad^2 "
              f"(sqrt {math.sqrt(info.crlb_theta):.9g} rad)")
        print(f"crlb_d = {info.crlb_d:.9g} m^2 "
              f"(sqrt {math.sqrt(info.crlb_d):.9g} m)")
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
