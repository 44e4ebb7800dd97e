"""Self-describing binary container for models and datasets.

Byte layout:
  bytes 0..7    magic ``ISACBF01``
  bytes 8..15   little-endian uint64, JSON header length in bytes
  header        UTF-8 JSON: {"meta": {...}, "arrays": [{name, dtype, shape}]}
  payload       the arrays, concatenated in header order, little-endian,
                C-contiguous

Floats are stored as little-endian float64; complex arrays as complex128.
"""
from __future__ import annotations

import json
import math
import os
import stat
import struct

import numpy as np

MAGIC = b"ISACBF01"

_DTYPES = {"float64": "<f8", "complex128": "<c16", "int64": "<i8"}


def _unlink_writable(path: str) -> None:
    """Remove path if it is a regular file that open(path, "wb") could
    write.  Anything else (no file, a symlink, a directory, a file the
    caller may not write, a directory it may not change) is left for
    open() to write through, truncate or refuse, as it would have."""
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.close(os.open(path, os.O_WRONLY))
            os.unlink(path)
    except OSError:
        pass


def save_container(path: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write the arrays' buffers straight to the file, with no payload copy.

    An existing regular file at path is replaced by a new file, not
    truncated: ext4 starts writing a file's new data to disk when a file
    truncated from a non-zero size is closed (its auto_da_alloc
    heuristic), which made saving a 5 MB dataset over an old one take
    about twice as long as writing a new file.  So a hard link to the old
    file keeps the old bytes, and the new file takes the default
    permissions.  A symlink is written through, and whatever
    open(path, "wb") refuses is refused.
    """
    entries, data = [], []
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        key = arr.dtype.name
        if key not in _DTYPES:
            raise TypeError(f"unsupported dtype {arr.dtype} for array {name!r}")
        arr = arr.astype(_DTYPES[key], copy=False)
        entries.append({"name": name, "dtype": key, "shape": list(arr.shape)})
        data.append(arr)
    header = json.dumps({"meta": meta, "arrays": entries},
                        sort_keys=True).encode("utf-8")
    _unlink_writable(path)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for arr in data:
            fh.write(arr.reshape(-1).view(np.uint8))


def load_container(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """(meta, arrays) of a container file; ValueError naming the path when
    the file is not a well-formed container, bytes after its last array
    included."""
    def bad(why: str) -> ValueError:
        return ValueError(f"{path}: {why}")

    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(16)
        if head[:8] != MAGIC:
            raise bad("not an ISACBF container")
        if len(head) < 16:
            raise bad("file ends inside the header length")
        (hlen,) = struct.unpack("<Q", head[8:])
        if hlen > size - 16:
            raise bad(f"header length {hlen} runs past the end of the file")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
            meta, entries = header["meta"], list(header["arrays"])
        except (ValueError, KeyError, TypeError) as exc:
            raise bad(f"malformed header ({exc!r})") from None
        if not isinstance(meta, dict):
            raise bad("header meta is not a JSON object")
        left = size - 16 - hlen
        arrays = {}
        for entry in entries:
            try:
                name, key, shape = entry["name"], entry["dtype"], entry["shape"]
                shape = [int(n) for n in shape]
            except (KeyError, TypeError, ValueError):
                raise bad(f"malformed array entry {entry!r}") from None
            if key not in _DTYPES:
                raise bad(f"array {name!r} has unknown dtype {key!r}")
            if any(n < 0 for n in shape):
                raise bad(f"array {name!r} has negative shape {shape}")
            dt = np.dtype(_DTYPES[key])
            nbytes = dt.itemsize * math.prod(shape)
            if nbytes > left:
                raise bad(f"payload truncated in array {name!r}")
            left -= nbytes
            arr = np.empty(shape, dtype=dt)
            if fh.readinto(arr.reshape(-1).view(np.uint8)) != nbytes:
                raise bad(f"short read in array {name!r}")
            arrays[name] = arr
        if left:
            raise bad(f"{left} bytes after the last array")
    return meta, arrays
