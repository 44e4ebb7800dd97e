import json
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from isacbf.config import SimConfig
from isacbf.harness import Dataset
from isacbf.io_container import MAGIC, load_container, save_container


def test_roundtrip(tmp_path, rng):
    path = str(tmp_path / "c.bin")
    arrays = {
        "f": rng.normal(size=(3, 4)),
        "c": rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),
        "i": np.arange(5, dtype=np.int64),
    }
    meta = {"kind": "test", "note": "hello"}
    save_container(path, meta, arrays)
    meta2, back = load_container(path)
    assert meta2 == meta
    assert list(back) == ["f", "c", "i"]       # header order preserved
    for name, arr in arrays.items():
        assert back[name].dtype == arr.dtype
        assert np.array_equal(back[name], arr)


def test_byte_layout(tmp_path):
    path = str(tmp_path / "c.bin")
    save_container(path, {"k": 1}, {"a": np.array([1.0, 2.0])})
    raw = open(path, "rb").read()
    assert raw[:8] == MAGIC == b"ISACBF01"
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16:16 + hlen])
    assert header["meta"] == {"k": 1}
    assert header["arrays"] == [{"dtype": "float64", "name": "a", "shape": [2]}]
    payload = np.frombuffer(raw[16 + hlen:], dtype="<f8")
    assert np.array_equal(payload, [1.0, 2.0])


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_container(str(path))


def test_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(TypeError):
        save_container(str(tmp_path / "x.bin"), {},
                       {"a": np.array([1, 2], dtype=np.float32)})


def test_zero_dim_array_promoted_to_length_one(tmp_path):
    path = str(tmp_path / "s.bin")
    save_container(path, {}, {"s": np.array(3.5)})
    _, back = load_container(path)
    assert back["s"].shape == (1,) and back["s"][0] == 3.5


def test_save_and_load_stream_the_payload(tmp_path):
    """Saving writes each array's buffer to the file without copying the
    payload, and loading reads into one array per entry."""
    arr = np.arange(1 << 20, dtype=float)          # 8 MB
    path = str(tmp_path / "big.bin")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        save_container(path, {"k": 1}, {"a": arr})
        save_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        _, back = load_container(path)
        load_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.array_equal(back["a"], arr)
    assert save_peak < 1 << 20
    assert load_peak < 1.2 * arr.nbytes


def _valid_bytes(tmp_path) -> bytes:
    path = tmp_path / "v.bin"
    save_container(str(path), {"kind": "test"},
                   {"a": np.arange(3.0), "b": np.ones((2, 2), dtype=complex)})
    return path.read_bytes()


def test_rejects_malformed_files_naming_the_path(tmp_path):
    raw = _valid_bytes(tmp_path)
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16:16 + hlen])

    def with_header(h):
        text = json.dumps(h).encode()
        return MAGIC + struct.pack("<Q", len(text)) + text + raw[16 + hlen:]

    entry = dict(header["arrays"][0], dtype="float32")
    cases = {
        "short": raw[:12],
        "long_header": MAGIC + struct.pack("<Q", 2 ** 63) + raw[16:],
        "truncated": raw[:-1],
        "trailing": raw + bytes(24),
        "dtype": with_header({**header, "arrays": [entry]}),
        "no_meta": with_header({"arrays": header["arrays"]}),
        "no_arrays": with_header({"meta": header["meta"]}),
        "not_json": MAGIC + struct.pack("<Q", 2) + b"\xff{",
    }
    for name, data in cases.items():
        path = tmp_path / f"{name}.bin"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_container(str(path))


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(shape=st.lists(st.integers(0, 3), max_size=3), note=st.text(max_size=8))
def test_every_truncation_raises_value_error(tmp_path, shape, note):
    """Each proper prefix of a valid container is refused with a ValueError
    naming the file."""
    path = tmp_path / "c.bin"
    save_container(str(path), {"note": note},
                   {"a": np.ones(shape), "c": np.zeros(2, dtype=complex)})
    raw = path.read_bytes()
    cut = tmp_path / "cut.bin"
    for n in range(len(raw)):
        cut.write_bytes(raw[:n])
        with pytest.raises(ValueError, match=re.escape(str(cut))):
            load_container(str(cut))


def test_saving_over_a_file_writes_a_new_file(tmp_path):
    """Saving over an existing container replaces the file: the path reads
    back the new contents, and a hard link to the old file keeps the old
    bytes."""
    path, link = tmp_path / "c.bin", tmp_path / "old.bin"
    save_container(str(path), {"v": 1}, {"a": np.arange(1000.0)})
    old = path.read_bytes()
    link.hardlink_to(path)
    save_container(str(path), {"v": 2}, {"a": np.ones(3)})
    meta, back = load_container(str(path))
    assert meta == {"v": 2} and np.array_equal(back["a"], np.ones(3))
    assert link.read_bytes() == old


def test_saving_through_a_symlink_keeps_the_link(tmp_path):
    """A symlink is written through: it stays a link, and its target holds
    the new contents."""
    target, link = tmp_path / "target.bin", tmp_path / "link.bin"
    save_container(str(target), {"v": 1}, {"a": np.arange(4.0)})
    link.symlink_to(target)
    save_container(str(link), {"v": 2}, {"a": np.ones(2)})
    assert link.is_symlink()
    meta, back = load_container(str(target))
    assert meta == {"v": 2} and np.array_equal(back["a"], np.ones(2))


def test_saving_to_a_directory_raises(tmp_path):
    """A directory is neither removed nor written: open() refuses it."""
    target = tmp_path / "d"
    target.mkdir()
    (target / "keep").write_text("x")
    with pytest.raises(IsADirectoryError):
        save_container(str(target), {}, {"a": np.ones(2)})
    assert (target / "keep").read_text() == "x"


# the config of _dataset_arrays' dataset, as a dataset file records it
_DATASET_META = {"kind": "dataset", "config": SimConfig(
    n_tx=8, n_rx=8, n_vehicles=1, history_len=2).as_dict()}


def _dataset_arrays() -> dict:
    """The arrays of a well-formed two-example dataset with tau = 2 and
    K = 1, over three rows, the first a zero row."""
    return {"windows": np.array([[0, 1], [1, 2]]),
            "thetas": np.ones((2, 1)), "dists": np.ones((2, 1)),
            "row_thetas": np.array([[0.0], [1.0], [1.5]]),
            "row_dists": np.array([[0.0], [20.0], [30.0]])}


def test_dataset_load_refuses_arrays_that_do_not_fit(tmp_path):
    """Dataset.load refuses, with a ValueError naming the file, a windows
    that is not a 2-D integer array or reads a row outside the rows (a
    negative index would wrap to another episode's row), per-example arrays
    of different lengths, row estimates that are not [N_rows, K] of one
    length or not float, and, naming the first such row, an estimate that
    is not finite, a negative distance, and a last window row without an
    estimate (distance 0)."""
    path = tmp_path / "ok.bin"
    save_container(str(path), _DATASET_META, _dataset_arrays())
    ds = Dataset.load(str(path))
    assert len(ds) == 2 and ds.x.shape == (2, 2, 1, 8, 2)
    assert not ds.x[0, 0].any() and ds.x[0, 1].any()
    assert ds.est_dists.tolist() == [[20.0], [30.0]]
    assert ds.config == SimConfig.from_dict(_DATASET_META["config"])
    cases = {
        "float_windows": ({"windows": np.array([[0.0, 1.0], [1.0, 2.0]])},
                          "not a 2-D integer array"),
        "flat_windows": ({"windows": np.array([0, 1, 1, 2])},
                         "not a 2-D integer array"),
        "negative": ({"windows": np.array([[0, 1], [-1, 2]])},
                     "example 1 window slot 0 reads row -1"),
        "past_the_end": ({"windows": np.array([[0, 1], [1, 3]])},
                         "example 1 window slot 1 reads row 3"),
        "short_thetas": ({"thetas": np.ones((1, 1))}, "differ in length"),
        "long_dists": ({"dists": np.ones((3, 1))}, "differ in length"),
        "short_row_thetas": ({"row_thetas": np.ones((2, 1))},
                             "row-estimate arrays differ in length"),
        "row_dists_k": ({"row_dists": np.ones((3, 2))}, "row_dists"),
        "row_thetas_flat": ({"row_thetas": np.ones(3)}, "row_thetas"),
        "row_thetas_complex": ({"row_thetas": np.ones((3, 1), dtype=complex)},
                               "row_thetas is complex128, not float"),
        "windows_tau": ({"windows": np.array([[0, 1, 2], [0, 1, 2]])},
                        "history_len=2"),
        "dists_k": ({"dists": np.ones((2, 2))}, "dists"),
        "nan_theta": ({"row_thetas": np.array([[0.0], [np.nan], [np.inf]])},
                      "row 1 holds an angle estimate that is not finite"),
        "inf_dist": ({"row_dists": np.array([[0.0], [20.0], [np.inf]])},
                     "row 2 holds a distance estimate that is not finite"),
        "negative_dist": ({"row_dists": np.array([[-1.0], [20.0], [-2.0]])},
                          "row 0 holds a negative distance estimate"),
        "no_last_estimate": ({"row_dists": np.array([[0.0], [20.0], [0.0]])},
                             "example 1 has no estimate of vehicle 0 "
                             "(distance 0) in its last window row, row 2"),
    }
    for name, (change, why) in cases.items():
        path = tmp_path / f"{name}.bin"
        save_container(str(path), _DATASET_META,
                       {**_dataset_arrays(), **change})
        with pytest.raises(ValueError, match=re.escape(str(path))) as err:
            Dataset.load(str(path))
        assert why in str(err.value), name


def test_dataset_load_refuses_other_files(tmp_path):
    """A file of another kind, a dataset missing a field, the older formats
    that stored the estimated channels (as packed windows x, or as rows
    with or without the true channels h), and a dataset whose recorded
    config lacks a key, has an unknown key or a value that does not parse
    are refused; the message for an older format names the expected fields
    and says to regenerate the file."""
    arrays = _dataset_arrays()
    examples = {k: arrays[k] for k in ("thetas", "dists")}
    estimates = {"est_thetas": np.ones((2, 1)), "est_dists": np.ones((2, 1))}
    rows = {"rows": np.zeros((3, 1, 8, 2)), "windows": arrays["windows"],
            **examples, **estimates}
    with_h = {"rows": rows["rows"], "windows": arrays["windows"],
              "h": np.ones((2, 1, 8), dtype=complex), **examples, **estimates}
    packed = {"x": np.zeros((2, 2, 1, 8, 2)),
              "h": with_h["h"], **examples, **estimates}
    config = _DATASET_META["config"]
    cases = {
        "model": ({"kind": "hcl"}, arrays, "not a dataset file"),
        "missing": (_DATASET_META,
                    {k: v for k, v in arrays.items() if k != "dists"},
                    "windows, thetas, dists, row_thetas, row_dists"),
        "packed_format": (_DATASET_META, packed, "regenerate"),
        "h_format": (_DATASET_META, with_h, "regenerate"),
        "rows_format": (_DATASET_META, rows, "regenerate"),
        "no_config": ({"kind": "dataset"}, arrays, "config is not"),
        "lacks_key": ({"kind": "dataset", "config": {
            k: v for k, v in config.items() if k != "n_slots"}}, arrays,
            "lacks the key n_slots"),
        "unknown_key": ({"kind": "dataset", "config": {**config, "rho_mu": 1}},
                        arrays, "unknown config key: rho_mu"),
        "bad_int": ({"kind": "dataset", "config": {**config, "n_tx": "8x"}},
                    arrays, "config key n_tx: cannot read '8x'"),
        "bad_complex": ({"kind": "dataset",
                         "config": {**config, "rcs_coeff": "10+j10"}},
                        arrays, "config key rcs_coeff"),
        "out_of_range": ({"kind": "dataset",
                          "config": {**config, "n_tx": 12}},
                         arrays, "n_tx must be divisible by 8"),
    }
    for name, (meta, data, why) in cases.items():
        path = tmp_path / f"{name}.bin"
        save_container(str(path), meta, data)
        with pytest.raises(ValueError, match=re.escape(str(path))) as err:
            Dataset.load(str(path))
        assert why in str(err.value), name
        if name.endswith("_format"):
            assert "windows, thetas, dists, row_thetas" in str(err.value)
