import json
import os
import re
import warnings

import numpy as np
import pytest

from isacbf import cli, harness
from isacbf.cli import build_parser, main
from isacbf.harness import Dataset
from isacbf.io_container import load_container
from isacbf.nn.model import HCLNet, NaiveNet

SMALL = ["--set", "n_tx=8", "--set", "n_rx=8", "--set", "n_vehicles=2",
         "--set", "history_len=3", "--set", "n_slots=12"]


def test_crlb_subcommand(capsys):
    rc = main(["crlb", "--theta", "0.9272952180016122", "--dist", "25",
               "--power", "1.0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "crlb_theta" in out and "crlb_d" in out and "rad^2" in out


def test_crlb_refuses_out(tmp_path, capsys):
    """crlb only prints: it has no --out, so one is a usage error (exit 2)
    naming the option, and nothing is written."""
    out = tmp_path / "x"
    rc = main(["crlb", "--theta", "0.9", "--dist", "25", "--power", "1",
               "--out", str(out)])
    assert rc == 2
    assert "--out" in capsys.readouterr().err
    assert not out.exists() and not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["crlb", "--theta", "0.9", "--dist", "-25", "--power", "1"],
    ["crlb", "--theta", "0.9", "--dist", "0", "--power", "1"],
    ["crlb", "--theta", "0.9", "--dist", "25", "--power", "-1"],
    ["crlb", "--theta", "0.9", "--dist", "inf", "--power", "1"],
    ["crlb", "--theta", "nan", "--dist", "25", "--power", "1"],
    ["eval", *SMALL, "--methods", "random,bogus", "--realizations", "2"],
    ["eval", *SMALL, "--methods", "random", "--realizations", "0"],
    ["eval", *SMALL, "--methods", "random", "--realizations", "-3"],
    ["sweep", *SMALL, "--methods", "random", "--power-grid", "1,x",
     "--realizations", "1"],
    ["sweep", *SMALL, "--methods", "random", "--power-grid", "1,-1",
     "--realizations", "1"],
    ["gen-data", *SMALL, "--n-examples", "0", "--out", "data.bin"],
    ["gen-data", *SMALL, "--set", "n_tx=12", "--out", "data.bin"],
    ["gen-data", *SMALL, "--set", "n_slots=3", "--out", "data.bin"],
    *(["train", *SMALL, "--data", "data.bin", "--out", "m.bin", *bad]
      for bad in (["--batch-size", "-5"], ["--batch-size", "0"],
                  ["--iters", "0"], ["--iters", "-1"], ["--lr", "0"],
                  ["--lr=-1e-3"], ["--lr", "nan"], ["--lr", "inf"],
                  ["--momentum", "1"], ["--momentum", "-0.1"],
                  ["--momentum", "nan"])),
    ["gen-data", *SMALL, "--seed", "-1", "--out", "data.bin"],
    ["eval", *SMALL, "--set", "rng_seed=-3", "--methods", "random",
     "--realizations", "1"],
    ["eval", *SMALL, "--set", "pathloss_exp=nan", "--methods",
     "genie,random", "--realizations", "2"],
    ["gen-data", *SMALL, "--n-examples", "4", "--out", "missing/data.bin"],
    ["train", *SMALL, "--data", "data.bin", "--out", "missing/m.bin"],
    ["eval", *SMALL, "--methods", "random", "--realizations", "1", "--out",
     "missing/r.csv"],
    ["sweep", *SMALL, "--methods", "random", "--realizations", "1", "--out",
     "missing/r.csv"],
    *([cmd, *SMALL, "--methods", methods, "--realizations", "1"]
      for cmd, methods in (("eval", ""), ("eval", ","), ("sweep", ""),
                           ("sweep", " , "))),
    *([cmd, *SMALL, "--methods", methods, "--realizations", "1"]
      for cmd, methods in (("eval", "random,random,genie"),
                           ("sweep", "genie,random,genie"))),
    *(["gen-data", *SMALL, "--config", path, "--out", "data.bin"]
      for path in ("missing.ini", ".", os.devnull, __file__)),
    *(["sweep", *SMALL, "--methods", "random", "--power-grid", grid,
       "--realizations", "1"] for grid in ("1,1", "0.5,1,0.50")),
    *([cmd, *SMALL, "--methods", "random", "--realizations", "1", "--format",
       fmt] for cmd, fmt in (("eval", "json"), ("sweep", "csv"))),
])
def test_bad_input_is_error(argv, tmp_path, monkeypatch, capsys):
    """Bad input prints one error line and exits 2 before any episode runs,
    any dataset is loaded or any file is written."""
    def no_episode(*args, **kwargs):
        raise AssertionError("an episode ran")

    def no_load(*args, **kwargs):
        raise AssertionError("a dataset was loaded")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(harness, "run_episode", no_episode)
    monkeypatch.setattr(harness, "step_motion", no_episode)
    monkeypatch.setattr(Dataset, "load", no_load)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["gen-data", *SMALL, "--n-examples", "4"],
    ["train", *SMALL, "--data", "data.bin"],
    ["eval", *SMALL, "--methods", "random", "--realizations", "1"],
    ["sweep", *SMALL, "--methods", "random", "--realizations", "1"],
])
def test_out_naming_a_directory_is_error(argv, tmp_path, monkeypatch,
                                         capsys):
    """An --out that names a directory prints one error line naming it and
    exits 2 before any episode runs or any dataset is loaded, and the
    directory is left as it was."""
    def no_work(*args, **kwargs):
        raise AssertionError("work ran")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(harness, "step_motion", no_work)
    monkeypatch.setattr(Dataset, "load", no_work)
    (tmp_path / "d").mkdir()
    assert main([*argv, "--out", "d"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: --out d: is a directory\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "d"]
    assert list((tmp_path / "d").iterdir()) == []


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a device whose writes fail")
def test_failed_write_is_error(tmp_path, capsys):
    """A write that fails after the work (here every write to /dev/full
    fails with ENOSPC) prints one error line naming the path and exits 2:
    gen-data's dataset, train's model and eval's and sweep's rows."""
    data = str(tmp_path / "data.bin")
    assert main(["gen-data", *SMALL, "--n-examples", "4", "--out",
                 data]) == 0
    capsys.readouterr()
    for argv in (["gen-data", *SMALL, "--n-examples", "4"],
                 ["train", *SMALL, "--data", data, "--arch", "naive",
                  "--iters", "1"],
                 ["eval", *SMALL, "--methods", "random", "--realizations",
                  "1"],
                 ["sweep", *SMALL, "--methods", "random", "--realizations",
                  "1", "--power-grid", "1", "--format", "json"]):
        assert main([*argv, "--out", "/dev/full"]) == 2, argv[0]
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1, argv[0]
        assert err.startswith("error: failed writing /dev/full: "), argv[0]


@pytest.mark.parametrize("exc", [KeyError, TypeError, ValueError])
def test_only_input_errors_are_reported(exc, monkeypatch, capsys):
    """main turns a ValueError raised during a run into one error line and
    exit status 2; any other exception, such as a KeyError or a TypeError,
    leaves main as it was raised."""
    def raising(*args, **kwargs):
        raise exc("boom")

    monkeypatch.setattr(cli, "generate_dataset", raising)
    argv = ["gen-data", *SMALL, "--n-examples", "4", "--out", os.devnull]
    if exc is ValueError:
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: boom\n")
    else:
        with pytest.raises(exc, match="boom"):
            main(argv)


def test_gen_data_of_unobservable_vehicles_is_error(tmp_path, monkeypatch,
                                                    capsys):
    """gen-data under a power budget at which no vehicle is observable, so
    no slot yields an example, prints one error line naming the likely
    cause and exits 2 without writing the dataset, instead of hanging."""
    monkeypatch.chdir(tmp_path)
    assert main(["gen-data", *SMALL, "--set", "power_budget=1e-40",
                 "--n-examples", "5", "--out", "data.bin"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "power_budget" in err
    assert list(tmp_path.iterdir()) == []


def test_help_exits_cleanly():
    assert main(["--help"]) == 0


def test_missing_subcommand_is_error():
    assert main([]) == 2


def test_gen_data_requires_out(capsys):
    rc = main(["gen-data", *SMALL, "--n-examples", "4"])
    assert rc == 2
    assert "--out is required" in capsys.readouterr().err


def test_bad_override_is_error(tmp_path, capsys):
    """An unknown key, such as one of the removed Doppler model's, is one
    error line naming it, so an old INI file fails loudly; so is a value
    that does not parse, from --set or from the file."""
    crlb = ["crlb", "--theta", "0.9", "--dist", "25", "--power", "1"]
    for key in ("nonsense", "rho_mu", "carrier_hz"):
        assert main([*crlb, "--set", f"{key}=1"]) == 2, key
        assert capsys.readouterr().err == \
            f"error: unknown config key: {key}\n"
    assert main([*crlb, "--set", "n_tx=abc"]) == 2
    assert capsys.readouterr().err == \
        "error: config key n_tx: cannot read 'abc' as int\n"
    ini = tmp_path / "sim.ini"
    ini.write_text("[sim]\npower_budget = 1..5\n")
    assert main([*crlb, "--config", str(ini)]) == 2
    assert capsys.readouterr().err == \
        "error: config key power_budget: cannot read '1..5' as float\n"


def test_full_pipeline(tmp_path, capsys):
    data = str(tmp_path / "data.bin")
    rc = main(["gen-data", *SMALL, "--n-examples", "8", "--seed", "3",
               "--out", data])
    assert rc == 0
    assert "wrote 8 examples" in capsys.readouterr().out
    assert len(Dataset.load(data)) == 8

    model = str(tmp_path / "naive.bin")
    rc = main(["train", *SMALL, "--data", data, "--arch", "naive",
               "--iters", "5", "--out", model])
    assert rc == 0
    assert "trained naive for 5 iters" in capsys.readouterr().out

    out = str(tmp_path / "eval.csv")
    rc = main(["eval", *SMALL, "--methods", "random,naive_dl", "--model",
               model, "--realizations", "2", "--out", out])
    assert rc == 0
    lines = open(out).read().splitlines()
    rows = [ln for ln in lines if not ln.startswith("#")]
    assert rows[0].startswith("method,") and len(rows) == 3

    outj = str(tmp_path / "sweep.json")
    rc = main(["sweep", *SMALL, "--methods", "random", "--power-grid",
               "0.5,2.0", "--realizations", "2", "--format", "json",
               "--out", outj])
    assert rc == 0
    doc = json.load(open(outj))
    assert [r["P"] for r in doc["rows"]] == [0.5, 2.0]


def test_train_hcl_arch(tmp_path, capsys):
    data = str(tmp_path / "data.bin")
    assert main(["gen-data", *SMALL, "--n-examples", "6", "--out", data]) == 0
    capsys.readouterr()
    model = str(tmp_path / "hcl.bin")
    rc = main(["train", *SMALL, "--data", data, "--arch", "hcl",
               "--iters", "3", "--lr", "1e-4", "--out", model])
    assert rc == 0
    rc = main(["eval", *SMALL, "--methods", "hcl", "--model", model,
               "--realizations", "2"])
    out = capsys.readouterr().out
    assert rc == 0 and "hcl" in out
    # a model trained with another history length is refused, not run
    for cmd in ("eval", "sweep"):
        rc = main([cmd, *SMALL, "--set", "history_len=2", "--methods", "hcl",
                   "--model", model, "--realizations", "2"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("arch", ["hcl", "naive"])
@pytest.mark.parametrize("field, value", [("n_tx", 16), ("n_vehicles", 3),
                                          ("history_len", 2)])
def test_dataset_from_another_config_is_error(arch, field, value, tmp_path,
                                              capsys):
    """train --data on a dataset made under another n_tx, n_vehicles or
    history_len prints an error naming the field and writes no model."""
    data = str(tmp_path / "data.bin")
    assert main(["gen-data", *SMALL, "--n-examples", "4", "--out", data]) == 0
    capsys.readouterr()
    model = tmp_path / "m.bin"
    rc = main(["train", *SMALL, "--set", f"{field}={value}", "--data", data,
               "--arch", arch, "--iters", "1", "--out", str(model)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and f"{field}=" in err
    assert err.count("\n") == 1
    assert not model.exists()


def test_eval_requires_model(capsys):
    rc = main(["eval", *SMALL, "--methods", "hcl", "--realizations", "2"])
    assert rc == 2
    assert "model file required" in capsys.readouterr().err


def test_two_models_of_one_kind_are_error(small_cfg, tmp_path, monkeypatch,
                                          capsys):
    """eval and sweep take one --model file per kind: a second file of the
    same kind prints an error naming both and exits 2 before any episode
    runs, while one file of each kind serves hcl and naive_dl.  small_cfg
    is the config of SMALL."""
    paths = {}
    for name, net in (("hcl", HCLNet(small_cfg)), ("a", NaiveNet(small_cfg)),
                      ("b", NaiveNet(small_cfg))):
        net.init_params(np.random.default_rng(0))
        paths[name] = str(tmp_path / f"{name}.bin")
        net.save(paths[name])

    def no_episode(*args, **kwargs):
        raise AssertionError("an episode ran")

    monkeypatch.setattr(harness, "step_motion", no_episode)
    for cmd in ("eval", "sweep"):
        rc = main([cmd, *SMALL, "--methods", "naive_dl", "--model",
                   paths["a"], "--model", paths["b"], "--realizations", "1"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert paths["a"] in err and paths["b"] in err
    monkeypatch.undo()
    rc = main(["eval", *SMALL, "--methods", "hcl,naive_dl", "--model",
               paths["a"], "--model", paths["hcl"], "--realizations", "1"])
    out = capsys.readouterr().out
    assert rc == 0 and "hcl" in out and "naive_dl" in out


def test_non_finite_model_or_beams_are_error(small_cfg, tmp_path, capsys):
    """eval refuses a model file with a NaN parameter, naming it, and a
    model whose finite parameters overflow to non-finite beams (naive_dl)
    or to finite beams whose power overflows (hcl), naming the method and
    the realization: each is one error line and exit code 2, and no
    RuntimeWarning is issued on the way.  small_cfg is the config of
    SMALL."""
    naive, hcl = NaiveNet(small_cfg), HCLNet(small_cfg)
    naive.init_params(np.random.default_rng(0))
    paths = {name: str(tmp_path / f"{name}.bin")
             for name in ("nan", "naive_dl", "hcl")}
    naive.params[0] = np.nan
    naive.save(paths["nan"])
    naive.params[:] = 1e300
    naive.save(paths["naive_dl"])
    hcl.params[:] = 1e300
    hcl.save(paths["hcl"])
    for name, path in paths.items():
        method = "naive_dl" if name == "nan" else name
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["eval", *SMALL, "--methods", method, "--model", path,
                       "--realizations", "2"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert (path if name == "nan" else f"{name}: ") in err
        assert name == "nan" or "realization 0 " in err
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)], name


@pytest.mark.parametrize("arch", ["hcl", "naive"])
def test_diverging_training_is_error(arch, tmp_path, capsys):
    """train whose loss diverges (here at the second iteration, after a
    step of lr 1e300) prints one error line naming that iteration, exits 2
    and writes no model; no RuntimeWarning is issued on the way."""
    data = str(tmp_path / "data.bin")
    assert main(["gen-data", *SMALL, "--n-examples", "6", "--out", data]) == 0
    capsys.readouterr()
    model = tmp_path / "m.bin"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["train", *SMALL, "--data", data, "--arch", arch,
                   "--iters", "5", "--lr", "1e300", "--out", str(model)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == ("error: training loss became non-finite at iteration 2; "
                   "every iteration before it was finite\n")
    assert not model.exists()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_finite_divergence_is_warned(tmp_path, capsys):
    """train whose loss grows but stays finite (here hcl at lr 1e30) saves
    its model, exits 0 and prints one warning line naming the first and
    last tenths' mean losses and the clipped steps; an ordinary 5-iteration
    run of either net prints nothing to stderr."""
    data = str(tmp_path / "data.bin")
    assert main(["gen-data", *SMALL, "--n-examples", "6", "--out", data]) == 0
    capsys.readouterr()
    model = tmp_path / "m.bin"
    rc = main(["train", *SMALL, "--data", data, "--arch", "hcl", "--iters",
               "5", "--lr", "1e30", "--out", str(model)])
    out, err = capsys.readouterr()
    assert rc == 0 and model.exists()
    first, last = re.search(r"; loss (\S+) -> (\S+);", out).groups()
    assert float(last) > 1e100
    warned = re.fullmatch(
        r"warning: mean loss of the last 1 iterations (\S+) is not below "
        r"that of the first 1 (\S+); (\d) of 5 steps were clipped\n", err)
    assert warned and warned.groups()[:2] == (last, first)
    assert int(warned[3]) >= 1
    for arch in ("hcl", "naive"):
        model.unlink()
        assert main(["train", *SMALL, "--data", data, "--arch", arch,
                     "--iters", "5", "--out", str(model)]) == 0
        assert capsys.readouterr().err == "" and model.exists()


def test_dataset_config_is_checked(tmp_path, capsys):
    """train refuses a dataset made under another pathloss_exp, naming the
    field, and trains on one that differs from the run only in rng_seed or
    gamma_theta, which shape no example."""
    model = tmp_path / "m.bin"
    for extra, ok in ((["--set", "pathloss_exp=2"], False),
                      (["--seed", "5"], True),
                      (["--set", "gamma_theta=0.5"], True)):
        data = str(tmp_path / "data.bin")
        assert main(["gen-data", *SMALL, *extra, "--n-examples", "4",
                     "--out", data]) == 0
        capsys.readouterr()
        rc = main(["train", *SMALL, "--data", data, "--arch", "naive",
                   "--iters", "1", "--out", str(model)])
        out, err = capsys.readouterr()
        if ok:
            assert rc == 0 and err == "" and model.exists(), extra
            model.unlink()
        else:
            assert rc == 2 and out == "" and not model.exists()
            assert err == ("error: dataset made with pathloss_exp=2.0; the "
                           "run has pathloss_exp=2.55\n")


def test_model_config_is_checked(tmp_path, capsys):
    """eval refuses a model trained under another pathloss_exp, naming the
    field, and evaluates it under another power_budget or seed."""
    data, model = str(tmp_path / "data.bin"), str(tmp_path / "m.bin")
    foreign = ["--set", "pathloss_exp=2"]
    assert main(["gen-data", *SMALL, *foreign, "--n-examples", "4",
                 "--out", data]) == 0
    assert main(["train", *SMALL, *foreign, "--data", data, "--arch",
                 "naive", "--iters", "1", "--out", model]) == 0
    capsys.readouterr()
    argv = ["eval", *SMALL, "--methods", "naive_dl", "--model", model,
            "--realizations", "1"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (f"error: {model}: model saved with "
                                 "pathloss_exp=2.0; the run has "
                                 "pathloss_exp=2.55\n")
    for extra in (["--set", "power_budget=2"], ["--seed", "5"]):
        assert main([*argv, *foreign, *extra]) == 0, extra
        assert "naive_dl" in capsys.readouterr().out


@pytest.mark.parametrize("cmd", ["eval", "sweep"])
def test_eval_and_sweep_share_their_options(cmd, capsys):
    """Both document the five options they share, --project-power as
    rescaling the beams of both predictive methods."""
    with pytest.raises(SystemExit):
        build_parser().parse_args([cmd, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for option in ("--methods", "--model", "--realizations",
                   "--project-power", "--format"):
        assert option in text
    assert "rescale hcl and naive_dl beams" in text


def test_theta_mode_is_recorded(tmp_path, capsys):
    """The angle-estimate mode is a config key: gen-data under
    --set theta_mode=crlb saves it with the dataset, and eval echoes it in
    its CSV."""
    data = str(tmp_path / "data.bin")
    assert main(["gen-data", *SMALL, "--set", "theta_mode=crlb",
                 "--n-examples", "4", "--out", data]) == 0
    meta, _ = load_container(data)
    assert meta["config"]["theta_mode"] == "crlb"
    out = tmp_path / "eval.csv"
    assert main(["eval", *SMALL, "--set", "theta_mode=crlb", "--methods",
                 "random", "--realizations", "1", "--out", str(out)]) == 0
    assert "# theta_mode=crlb" in out.read_text().splitlines()


def test_eval_prints_rows_without_out(capsys):
    rc = main(["eval", *SMALL, "--methods", "random,genie",
               "--realizations", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "genie" in out and "random" in out and "rate=" in out


def test_config_file_is_read(tmp_path, capsys):
    ini = tmp_path / "sim.ini"
    ini.write_text("[sim]\nn_tx = 16\nn_rx = 16\n")
    rc = main(["crlb", "--config", str(ini), "--theta", "0.9",
               "--dist", "25", "--power", "1"])
    assert rc == 0
    out16 = capsys.readouterr().out
    main(["crlb", "--theta", "0.9", "--dist", "25", "--power", "1"])
    out32 = capsys.readouterr().out
    assert out16 != out32          # fewer antennas -> different CRLBs


def test_missing_or_malformed_files_are_errors(tmp_path, capsys):
    """A missing, short or non-dataset file given to train --data or
    eval --model prints an error naming it and exits 2."""
    short = tmp_path / "short.bin"
    short.write_bytes(b"ISACBF01\x05")
    other = tmp_path / "model.bin"
    assert main(["train", *SMALL, "--data", str(tmp_path / "none.bin"),
                 "--out", str(other)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["train", *SMALL, "--data", str(short), "--out",
                 str(other)]) == 2
    assert f"error: {short}" in capsys.readouterr().err
    assert main(["eval", *SMALL, "--methods", "hcl", "--model", str(short),
                 "--realizations", "1"]) == 2
    assert f"error: {short}" in capsys.readouterr().err
    # a model container is not a dataset
    data = str(tmp_path / "data.bin")
    assert main(["gen-data", *SMALL, "--n-examples", "4", "--out", data]) == 0
    assert main(["train", *SMALL, "--data", data, "--arch", "naive",
                 "--iters", "1", "--out", str(other)]) == 0
    capsys.readouterr()
    assert main(["train", *SMALL, "--data", str(other), "--out",
                 str(tmp_path / "x.bin")]) == 2
    assert "not a dataset file" in capsys.readouterr().err
