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
                      power_sweep, train_hcl, train_naive)
from .nn.model import load_model
from .nn.train import TrainHyper, TrainingDiverged
from .sensing import build_geometry, fisher_information


def _add_common(p: argparse.ArgumentParser, out: bool = True) -> None:
    """The options every command takes, and --out for those that write a
    file (all but crlb, which only prints)."""
    p.add_argument("--config", help="INI config file with a [sim] section")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config key (repeatable)")
    p.add_argument("--seed", type=int, default=None)
    if out:
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
    p.add_argument("--format", choices=("csv", "json"),
                   help="format of the --out file (default csv)")


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
    _add_common(c, out=False)
    c.add_argument("--theta", type=float, required=True, help="angle, rad")
    c.add_argument("--dist", type=float, required=True, help="distance, m")
    c.add_argument("--power", type=float, required=True,
                   help="per-user beam power, W (aligned beam)")
    return p


def _check_out(args) -> None:
    """Raise ValueError for a missing --out where the command writes one
    (gen-data, train), or one that is a directory or whose directory does
    not exist."""
    out = getattr(args, "out", None)  # crlb has no --out
    if not out:
        if args.command in ("gen-data", "train"):
            raise ValueError("--out is required")
    elif os.path.isdir(out):
        raise ValueError(f"--out {out}: is a directory")
    elif not os.path.isdir(os.path.dirname(out) or "."):
        raise ValueError(f"--out {out}: its directory does not exist")


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


def _write(path: str, write, *args) -> None:
    """Call write(*args), which writes path; an OSError (a full disk, a path
    that became unwritable) is raised again as one naming path."""
    try:
        write(*args)
    except OSError as exc:
        raise OSError(f"failed writing {path}: {exc}") from exc


def _warn_if_not_improved(result) -> None:
    """Print one warning line when the mean loss of the last tenth of the
    iterations (at least one) is not below that of the first tenth: a run
    whose loss grew while staying finite.  One iteration shows no trend."""
    loss = result.loss_trace
    tenth = max(1, len(loss) // 10)
    first, last = np.mean(loss[:tenth]), np.mean(loss[-tenth:])
    if len(loss) > 1 and not last < first:
        print(f"warning: mean loss of the last {tenth} iterations {last:.6g} "
              f"is not below that of the first {tenth} {first:.6g}; "
              f"{sum(result.clipped)} of {len(loss)} steps were clipped",
              file=sys.stderr)


def _gen_data(args, config: SimConfig) -> None:
    ds = generate_dataset(config, args.n_examples,
                          np.random.default_rng(config.rng_seed))
    _write(args.out, ds.save, args.out)
    print(f"wrote {len(ds)} examples to {args.out} "
          f"(sha256 {ds.sha256()[:16]})")


def _train(args, config: SimConfig) -> None:
    # the hyperparameters are checked before the data loads
    hyper = TrainHyper(lr=args.lr, batch_size=args.batch_size,
                       max_iters=args.iters, momentum=args.momentum,
                       seed=config.rng_seed)
    ds = Dataset.load(args.data)
    trainer = train_hcl if args.arch == "hcl" else train_naive
    # a diverging run overflows on its way to the non-finite loss that
    # train() reports, so the overflow is not warned about too
    with np.errstate(over="ignore", invalid="ignore"):
        net, result = trainer(ds, config, hyper)
    _write(args.out, net.save, args.out)
    print(f"trained {args.arch} for {len(result.loss_trace)} iters; "
          f"loss {result.loss_trace[0]:.6g} -> {result.loss_trace[-1]:.6g}; "
          f"model saved to {args.out}")
    _warn_if_not_improved(result)


def _eval(args, config: SimConfig) -> None:
    """eval and sweep: eval is the sweep of the one configured power."""
    if args.format and not args.out:
        raise ValueError("--format needs --out")
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    models = _load_models(args.model, config)
    for m in methods:
        if m in ("hcl", "naive_dl") and m not in models:
            raise ValueError(f"model file required for method {m!r} "
                             "(pass --model)")
    grid = (_power_grid(args.power_grid) if args.command == "sweep"
            else [config.power_budget])
    # the eval checks its arguments before any episode runs
    rows = power_sweep(config, grid, methods, args.realizations,
                       models=models, seed=config.rng_seed,
                       project=args.project_power)
    if args.out:
        _write(args.out, export, rows, config, args.out, args.format or "csv")
        print(f"wrote {len(rows)} rows to {args.out}")
        return
    for r in rows:
        print(f"{r.method}\tP={r.power:g}\trate={r.rate_mean:.4f}"
              f"±{r.rate_ci:.4f}\tsqrt_crlb_theta="
              f"{r.crlb_theta_sqrt:.4g}\tsqrt_crlb_d={r.crlb_d_sqrt:.4g}")


def _crlb(args, config: SimConfig) -> None:
    if not math.isfinite(args.theta):
        raise ValueError(f"--theta must be finite, got {args.theta!r}")
    _check_positive("dist", args.dist)
    _check_positive("power", args.power)
    w = math.sqrt(args.power) * steering(args.theta, config.n_tx)
    info = fisher_information(build_geometry(args.theta, args.dist, config),
                              w, config)
    print(f"crlb_theta = {info.crlb_theta:.9g} rad^2 "
          f"(sqrt {math.sqrt(info.crlb_theta):.9g} rad)")
    print(f"crlb_d = {info.crlb_d:.9g} m^2 "
          f"(sqrt {math.sqrt(info.crlb_d):.9g} m)")


COMMANDS = {"gen-data": _gen_data, "train": _train, "eval": _eval,
            "sweep": _eval, "crlb": _crlb}


def main(argv=None) -> int:
    """Run one command.  Bad input, a failed write or a diverged training
    run is one error line on stderr and exit status 2; argparse's own
    errors keep its exit status."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = load_config(args.config, overrides=args.set, seed=args.seed)
        _check_out(args)
        COMMANDS[args.command](args, config)
    except (ValueError, OSError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
