"""Global configuration for the ISAC V2I simulator.

All physical constants, optimization weights, and simulation knobs live in a
single immutable SimConfig.  Defaults reproduce the mmWave roadside-unit
scenario used throughout the test suite: a 32x32 ULA serving K=3 vehicles
with -80 dBm noise floors.
"""
from __future__ import annotations

import cmath
import configparser
import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class SimConfig:
    # antenna array / users
    n_tx: int = 32
    n_rx: int = 32
    n_vehicles: int = 3
    # propagation
    wave_speed: float = 3e8
    # noise powers (W)
    noise_rsu: float = 1e-11
    noise_vehicle: float = 1e-11
    # radar echo model
    rcs_coeff: complex = 10 + 10j
    mf_gain: float = 10.0
    rho_nu: float = 2.0e-6
    # post-matched-filter echo noise variance; None -> mf_gain * noise_rsu
    sigma_r2: float | None = None
    # path loss
    pathloss_ref: float = 1e-7
    ref_dist: float = 1.0
    pathloss_exp: float = 2.55
    # motion model
    slot_dur: float = 0.02
    v_min: float = 8.0
    v_max: float = 8.25
    # sensing QoS thresholds
    gamma_theta: float = 0.01
    gamma_d: float = 0.01
    # transmit power budget (W)
    power_budget: float = 1.0
    # penalty weights
    lambda_theta: float = 1e3
    lambda_d: float = 1e3
    lambda_power: float = 1e3
    # history window length (slots)
    history_len: int = 5
    # angle estimates: "relative" draws theta*(1+e), e ~ N(0, obs_rel_mse);
    # "crlb" draws theta + N(0, CRLB_theta) of the applied beam
    theta_mode: str = "relative"
    # normalized MSE of historical angle estimates (relative mode)
    obs_rel_mse: float = 0.01
    # episode length (slots)
    n_slots: int = 50
    rng_seed: int = 0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, (float, complex)) \
                    and not cmath.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        for name in ("n_tx", "n_rx", "n_vehicles", "history_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.n_tx % 8:
            raise ValueError("n_tx must be divisible by 8 for the HCL-Net "
                             "CNN reshape")
        if self.v_min > self.v_max:
            raise ValueError("v_min must not exceed v_max")
        positive = (
            "wave_speed", "noise_rsu", "noise_vehicle",
            "mf_gain", "pathloss_ref", "ref_dist", "slot_dur",
            "gamma_theta", "gamma_d", "power_budget",
            "lambda_theta", "lambda_d", "lambda_power",
        )
        for name in positive:
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        for name in ("rho_nu", "obs_rel_mse"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.sigma_r2 is not None and not self.sigma_r2 > 0:
            raise ValueError("sigma_r2 override must be > 0")
        if self.n_slots < 1:
            raise ValueError("n_slots must be >= 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")
        if self.theta_mode not in ("relative", "crlb"):
            raise ValueError("theta_mode must be 'relative' or 'crlb', got "
                             f"{self.theta_mode!r}")

    @property
    def echo_noise_var(self) -> float:
        """Post-matched-filter echo noise variance (W)."""
        if self.sigma_r2 is not None:
            return self.sigma_r2
        return self.mf_gain * self.noise_rsu

    def replace(self, **kwargs) -> "SimConfig":
        return dataclasses.replace(self, **kwargs)

    def as_dict(self) -> dict:
        out = {}
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if isinstance(v, complex):
                v = repr(v)
            out[f.name] = v
        return out

    @classmethod
    def from_dict(cls, values) -> "SimConfig":
        """The inverse of as_dict: the SimConfig whose as_dict() is values.
        A key that is unknown or missing, or a value of another type, is a
        ValueError naming the key; a value out of range is SimConfig's own
        ValueError."""
        if not isinstance(values, dict):
            raise ValueError(f"config is not a JSON object: {values!r}")
        for name in _FIELD_TYPES:
            if name not in values:
                raise ValueError(f"config lacks the key {name}")
        return cls(**{name: _from_json(name, v) for name, v in values.items()})


# the SimConfig fields that no dataset example depends on: a run may
# differ in these from the config of its dataset or model
UNCHECKED_FIELDS = ("rng_seed", "gamma_theta", "gamma_d", "lambda_theta",
                    "lambda_d", "lambda_power")


def check_same_config(made: SimConfig, run: SimConfig, what: str,
                      exempt: tuple = ()) -> None:
    """Raise a ValueError naming every field, but UNCHECKED_FIELDS and
    exempt, in which the run's config differs from made, the config a
    dataset or model was made under, with both values: "<what> with f=1;
    the run has f=2", what being, say, "dataset made"."""
    differ = [f.name for f in dataclasses.fields(SimConfig)
              if f.name not in UNCHECKED_FIELDS + exempt
              and getattr(made, f.name) != getattr(run, f.name)]
    if differ:
        def values(cfg):
            return ", ".join(f"{name}={getattr(cfg, name)}"
                             for name in differ)
        raise ValueError(f"{what} with {values(made)}; the run has "
                         f"{values(run)}")


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(SimConfig)}
# the JSON value types that as_dict writes for each field type, but complex
_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "complex": (),
               "float | None": (int, float, type(None))}


def _from_json(name: str, value):
    """The field value that as_dict wrote as value: a complex as its repr,
    every other value as itself."""
    if name not in _FIELD_TYPES:
        raise ValueError(f"unknown config key: {name}")
    kind = _FIELD_TYPES[name]
    if kind == "complex" and isinstance(value, str):
        try:
            return complex(value)
        except ValueError:
            pass
    elif isinstance(value, _JSON_TYPES[kind]) and not isinstance(value, bool):
        return value
    raise ValueError(f"config key {name}: cannot read {value!r} as {kind}")


def _coerce(name: str, raw: str):
    """The value of config key name read from the text raw; an unknown key
    is a KeyError and a malformed value a ValueError, each naming the key."""
    if name not in _FIELD_TYPES:
        raise KeyError(f"unknown config key: {name}")
    raw = raw.strip()
    if name == "sigma_r2" and raw.lower() in ("none", ""):
        return None
    if name == "rcs_coeff":
        convert, raw = complex, raw.replace(" ", "")
    else:
        convert = {"int": int, "str": str}.get(_FIELD_TYPES[name], float)
    try:
        return convert(raw)
    except ValueError:
        raise ValueError(f"config key {name}: cannot read {raw!r} as "
                         f"{convert.__name__}") from None


def load_config(path: str | None = None, overrides: list[str] | None = None,
                seed: int | None = None) -> SimConfig:
    """Build a SimConfig from an INI file plus ``key=value`` overrides.

    The file uses a ``[sim]`` section whose keys are SimConfig field names.
    Overrides are applied on top of the file; ``seed``, when given, wins over
    both.  A file that cannot be opened raises the OSError of open(); one
    that is not INI, or has no [sim] section, is a ValueError naming it.
    """
    values: dict = {}
    if path is not None:
        parser = configparser.ConfigParser()
        with open(path) as fh:
            try:
                parser.read_file(fh)
                items = parser.items("sim")
            except configparser.NoSectionError:
                raise ValueError(f"config file {path} has no [sim] "
                                 "section") from None
            except (configparser.Error, UnicodeDecodeError) as exc:
                # configparser's messages run over several lines
                raise ValueError(f"config file {path}: "
                                 + " ".join(str(exc).split())) from None
        for key, raw in items:
            values[key] = _coerce(key, raw)
    for item in overrides or []:
        if "=" not in item:
            raise ValueError(f"override must be key=value, got: {item!r}")
        key, raw = item.split("=", 1)
        values[key.strip()] = _coerce(key.strip(), raw)
    if seed is not None:
        values["rng_seed"] = int(seed)
    return SimConfig(**values)
