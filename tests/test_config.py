import dataclasses

import pytest

from isacbf.config import SimConfig, load_config


def test_defaults(cfg):
    assert cfg.n_tx == 32 and cfg.n_rx == 32 and cfg.n_vehicles == 3
    assert cfg.wave_speed == 3e8 and cfg.rho_nu == 2.0e-6
    assert cfg.noise_rsu == 1e-11 and cfg.noise_vehicle == 1e-11
    assert cfg.rcs_coeff == 10 + 10j and cfg.mf_gain == 10.0
    assert cfg.pathloss_ref == 1e-7 and cfg.pathloss_exp == 2.55
    assert cfg.slot_dur == 0.02 and cfg.v_min == 8.0 and cfg.v_max == 8.25
    assert cfg.gamma_theta == 0.01 and cfg.gamma_d == 0.01
    assert cfg.power_budget == 1.0 and cfg.history_len == 5


def test_echo_noise_var_default_and_override(cfg):
    assert cfg.echo_noise_var == pytest.approx(1e-10)
    assert cfg.replace(sigma_r2=5.0).echo_noise_var == 5.0


@pytest.mark.parametrize("kwargs", [
    {"n_tx": 0}, {"n_tx": 12}, {"n_vehicles": 0}, {"history_len": 0},
    {"v_min": 9.0, "v_max": 8.0}, {"power_budget": 0.0},
    {"sigma_r2": 0.0}, {"n_slots": 0}, {"obs_rel_mse": -1.0},
    {"rng_seed": -1}, {"theta_mode": "bogus"},
    {"pathloss_exp": float("nan")}, {"rho_nu": float("nan")},
    {"power_budget": float("inf")}, {"slot_dur": float("inf")},
    {"v_min": float("nan")}, {"rcs_coeff": complex("nan+1j")},
    {"sigma_r2": float("inf")},
])
def test_validation_rejects(kwargs):
    with pytest.raises(ValueError):
        SimConfig(**kwargs)


def test_frozen(cfg):
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.n_tx = 16


def test_replace_returns_new(cfg):
    c2 = cfg.replace(power_budget=2.0)
    assert c2.power_budget == 2.0 and cfg.power_budget == 1.0


def test_as_dict_roundtrips_complex(cfg):
    d = cfg.as_dict()
    assert complex(d["rcs_coeff"].replace(" ", "")) == cfg.rcs_coeff
    assert d["n_tx"] == 32


def test_load_config_file_overrides_seed(tmp_path):
    p = tmp_path / "sim.ini"
    p.write_text("[sim]\nn_tx = 16\npower_budget = 2.0\nrng_seed = 7\n")
    c = load_config(str(p), overrides=["power_budget=4.0", "rcs_coeff=1+2j"],
                    seed=99)
    assert c.n_tx == 16
    assert c.power_budget == 4.0          # override beats file
    assert c.rcs_coeff == 1 + 2j
    assert c.rng_seed == 99               # seed beats both


def test_load_config_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_config(str(tmp_path / "missing.ini"))
    with pytest.raises(KeyError):
        load_config(overrides=["no_such_key=1"])
    with pytest.raises(ValueError):
        load_config(overrides=["malformed"])
    with pytest.raises(ValueError, match="config key rcs_coeff"):
        load_config(overrides=["rcs_coeff=1+2k"])


def test_load_config_sigma_r2_none():
    c = load_config(overrides=["sigma_r2=none"])
    assert c.sigma_r2 is None
    c = load_config(overrides=["sigma_r2=2.5e-9"])
    assert c.sigma_r2 == 2.5e-9


def test_load_config_theta_mode(tmp_path):
    assert load_config().theta_mode == "relative"
    p = tmp_path / "sim.ini"
    p.write_text("[sim]\ntheta_mode = crlb\n")
    assert load_config(str(p)).theta_mode == "crlb"
    assert load_config(str(p), overrides=["theta_mode=relative"]) \
        .theta_mode == "relative"
    assert load_config(overrides=["theta_mode=crlb"]).theta_mode == "crlb"
    with pytest.raises(ValueError, match="theta_mode"):
        load_config(overrides=["theta_mode=CRLB"])


@pytest.mark.parametrize("text, match", [
    ("n_tx = 16\n", "File contains no section headers"),
    ("[sim]\nn_tx = 16\nn_tx = 8\n", "option 'n_tx' in section 'sim' "
     "already exists"),
    ("[sm]\nn_tx = 16\n", r"has no \[sim\] section"),
    ("", r"has no \[sim\] section"),
])
def test_load_config_refuses_a_file_that_is_not_sim_ini(text, match,
                                                         tmp_path):
    """A file that is not INI (no section header, a key given twice) or
    that has no [sim] section is a one-line ValueError naming the file."""
    p = tmp_path / "sim.ini"
    p.write_text(text)
    with pytest.raises(ValueError, match=match) as info:
        load_config(str(p))
    assert f"config file {p}" in str(info.value)
    assert "\n" not in str(info.value)


def test_load_config_raises_the_os_error(tmp_path):
    """A path that cannot be read as a file raises open()'s OSError."""
    with pytest.raises(IsADirectoryError):
        load_config(str(tmp_path))
